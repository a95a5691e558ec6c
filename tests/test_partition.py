"""Unit and property tests for repro.core.partition."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.partition import GridStack, Partition
from repro.exceptions import ValidationError


class TestConstruction:
    def test_uniform_edges(self):
        part = Partition.uniform(0.0, 1.0, 4)
        np.testing.assert_allclose(part.edges, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_uniform_single_interval(self):
        part = Partition.uniform(-1.0, 1.0, 1)
        assert part.n_intervals == 1
        assert part.span == 2.0

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValidationError):
            Partition.uniform(1.0, 1.0, 3)
        with pytest.raises(ValidationError):
            Partition.uniform(2.0, 1.0, 3)
        with pytest.raises(ValidationError):
            Partition.uniform(0.0, float("inf"), 3)

    def test_rejects_zero_intervals(self):
        with pytest.raises(ValidationError):
            Partition.uniform(0.0, 1.0, 0)

    def test_rejects_unsorted_edges(self):
        with pytest.raises(ValidationError):
            Partition(np.array([0.0, 0.5, 0.4, 1.0]))

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValidationError):
            Partition(np.array([0.0, 0.5, 0.5, 1.0]))

    def test_rejects_scalar_edges(self):
        with pytest.raises(ValidationError):
            Partition(np.array([1.0]))

    def test_from_values_covers_range(self):
        values = np.array([3.0, 7.0, 5.0])
        part = Partition.from_values(values, 5)
        assert part.low == 3.0
        assert part.high == 7.0

    def test_from_values_pad(self):
        part = Partition.from_values([0.0, 10.0], 5, pad=0.1)
        assert part.low == pytest.approx(-1.0)
        assert part.high == pytest.approx(11.0)

    def test_from_values_degenerate_sample(self):
        part = Partition.from_values([5.0, 5.0, 5.0], 4)
        assert part.low < 5.0 < part.high

    def test_non_uniform_edges_accepted(self):
        part = Partition(np.array([0.0, 0.1, 0.5, 1.0]))
        assert part.n_intervals == 3
        np.testing.assert_allclose(part.widths, [0.1, 0.4, 0.5])


class TestGeometry:
    def test_midpoints(self, unit_partition):
        np.testing.assert_allclose(
            unit_partition.midpoints, np.arange(0.05, 1.0, 0.1)
        )

    def test_widths_sum_to_span(self, unit_partition):
        assert unit_partition.widths.sum() == pytest.approx(unit_partition.span)

    def test_len(self, unit_partition):
        assert len(unit_partition) == 10


class TestLocate:
    def test_interior_values(self, unit_partition):
        idx = unit_partition.locate([0.05, 0.15, 0.95])
        np.testing.assert_array_equal(idx, [0, 1, 9])

    def test_left_edge_inclusive(self, unit_partition):
        assert unit_partition.locate([0.0])[0] == 0

    def test_boundary_goes_right(self, unit_partition):
        # Half-open intervals: 0.1 belongs to interval 1.
        assert unit_partition.locate([0.1])[0] == 1

    def test_right_edge_clipped_into_last(self, unit_partition):
        assert unit_partition.locate([1.0])[0] == 9

    def test_out_of_domain_clipped(self, unit_partition):
        idx = unit_partition.locate([-5.0, 5.0])
        np.testing.assert_array_equal(idx, [0, 9])

    def test_histogram_counts(self, unit_partition):
        values = [0.05, 0.06, 0.55, 2.0]
        counts = unit_partition.histogram(values)
        assert counts[0] == 2
        assert counts[5] == 1
        assert counts[9] == 1
        assert counts.sum() == 4

    def test_histogram_empty(self, unit_partition):
        counts = unit_partition.histogram([])
        assert counts.sum() == 0
        assert counts.shape == (10,)


class TestExpanded:
    def test_zero_margin_is_identity(self, unit_partition):
        assert unit_partition.expanded(0.0) is unit_partition

    def test_margin_covered(self, unit_partition):
        bigger = unit_partition.expanded(0.25)
        assert bigger.low <= -0.25
        assert bigger.high >= 1.25

    def test_widths_preserved(self, unit_partition):
        bigger = unit_partition.expanded(0.33)
        np.testing.assert_allclose(bigger.widths, 0.1)

    def test_original_edges_are_subset(self, unit_partition):
        bigger = unit_partition.expanded(0.2)
        for edge in unit_partition.edges:
            assert np.any(np.isclose(bigger.edges, edge))

    def test_negative_margin_rejected(self, unit_partition):
        with pytest.raises(ValidationError):
            unit_partition.expanded(-0.1)


class TestEquidepth:
    def test_equal_mass(self, rng):
        values = rng.exponential(1.0, size=10_000)
        part = Partition.equidepth(values, 10)
        counts = part.histogram(values)
        # each interval holds ~10% of the sample
        assert counts.min() > 0.08 * values.size
        assert counts.max() < 0.12 * values.size

    def test_covers_sample(self, rng):
        values = rng.normal(0, 3, size=500)
        part = Partition.equidepth(values, 8)
        assert part.low == pytest.approx(values.min())
        assert part.high == pytest.approx(values.max())

    def test_ties_collapse_intervals(self):
        values = np.array([1.0] * 90 + [2.0] * 10)
        part = Partition.equidepth(values, 10)
        assert part.n_intervals < 10  # duplicate quantiles were merged

    def test_all_identical_values(self):
        part = Partition.equidepth(np.full(50, 3.0), 5)
        assert part.n_intervals >= 1
        assert part.low < 3.0 < part.high

    def test_rejects_zero_intervals(self):
        with pytest.raises(ValidationError):
            Partition.equidepth([1.0, 2.0], 0)

    def test_narrow_where_dense(self, rng):
        # density concentrated near 0: early intervals must be narrower
        values = rng.beta(0.5, 5.0, size=20_000)
        part = Partition.equidepth(values, 10)
        assert part.widths[0] < part.widths[-1]


@given(
    low=st.floats(-1e6, 1e6),
    span=st.floats(1e-3, 1e6),
    m=st.integers(1, 200),
)
def test_property_uniform_partition_consistency(low, span, m):
    part = Partition.uniform(low, low + span, m)
    assert part.n_intervals == m
    assert part.widths.min() > 0
    # span is recomputed as high - low: allow float cancellation when
    # |low| >> span
    assert part.span == pytest.approx(span, rel=1e-6, abs=1e-9 * max(abs(low), 1.0))
    # midpoints are strictly inside their intervals
    assert np.all(part.midpoints > part.edges[:-1])
    assert np.all(part.midpoints < part.edges[1:])


@given(
    values=st.lists(st.floats(-100, 100), min_size=1, max_size=50),
    m=st.integers(1, 30),
)
def test_property_locate_roundtrip(values, m):
    """Every located value lies inside (or is clipped to) its interval."""
    part = Partition.uniform(-100, 100, m)
    idx = part.locate(values)
    arr = np.asarray(values)
    assert np.all(idx >= 0)
    assert np.all(idx < m)
    inside = (arr >= part.edges[idx]) & (arr < part.edges[idx + 1])
    at_top = idx == m - 1
    assert np.all(inside | at_top)


@given(
    n=st.integers(1, 200),
    m=st.integers(1, 20),
    seed=st.integers(0, 2**31 - 1),
)
def test_property_histogram_total(n, m, seed):
    rng = np.random.default_rng(seed)
    part = Partition.uniform(0, 1, m)
    values = rng.normal(0.5, 1.0, size=n)  # may fall outside on purpose
    assert part.histogram(values).sum() == n


# ----------------------------------------------------------------------
# Arithmetic binning: locate must equal the clipped searchsorted oracle
# ----------------------------------------------------------------------
def _oracle(part, values):
    """The definition ``locate`` must reproduce bit for bit."""
    arr = np.asarray(values, dtype=float)
    idx = np.searchsorted(part.edges, arr, side="right") - 1
    return np.clip(idx, 0, part.n_intervals - 1)


def _probe_values(part):
    """Every edge and both float neighbours, plus the domain's outside."""
    edges = part.edges
    return np.concatenate(
        [
            edges,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            part.midpoints,
            [edges[0] - part.span, edges[-1] + part.span, 0.0, -0.0],
            [-1e308, 1e308, -np.inf, np.inf, np.nan],
        ]
    )


def _assert_exact(part, values):
    got = part.locate(values)
    expected = _oracle(part, values)
    assert got.dtype == expected.dtype == np.intp
    assert got.shape == expected.shape
    assert np.array_equal(got, expected), (
        np.asarray(values)[got != expected],
        got[got != expected],
        expected[got != expected],
    )


def _service_grids():
    """The noise-expanded grids ``service_from_spec`` builds."""
    from repro.service import service_from_spec

    spec = {
        "attributes": [
            {"name": "age", "low": 20, "high": 80, "noise": "uniform",
             "privacy": 1.0},
            {"name": "salary", "low": 20_000, "high": 150_000,
             "noise": "gaussian", "privacy": 0.5, "intervals": 100},
            {"name": "loan", "low": 0, "high": 500_000, "noise": "uniform",
             "privacy": 2.0, "intervals": 7},
            {"name": "temp", "low": -40.5, "high": -3.25,
             "noise": "gaussian", "privacy": 1.5, "intervals": 33},
            {"name": "ratio", "low": 0.0, "high": 1e-6, "noise": "uniform",
             "privacy": 0.25, "intervals": 1},
        ]
    }
    layout = service_from_spec(spec).shards.layout
    return [layout.partition(name) for name in layout.names]


class TestArithmeticLocate:
    @pytest.mark.parametrize("index", range(5))
    def test_service_grids_take_the_arithmetic_path(self, index):
        part = _service_grids()[index]
        assert part._binning is not None
        _assert_exact(part, _probe_values(part))
        rng = np.random.default_rng(index)
        spread = rng.uniform(part.low - part.span, part.high + part.span, 5000)
        _assert_exact(part, spread)

    def test_equidepth_grids_fall_back(self):
        rng = np.random.default_rng(0)
        part = Partition.equidepth(rng.exponential(size=2000), 12)
        assert part._binning is None
        _assert_exact(part, _probe_values(part))
        _assert_exact(part, rng.exponential(size=500) * 2 - 0.5)

    def test_far_from_uniform_grid_falls_back(self):
        # the third edge sits half a width off the ideal grid
        part = Partition(np.array([0.0, 1.0, 2.5, 3.0, 4.0]))
        assert part._binning is None
        _assert_exact(part, _probe_values(part))

    def test_slightly_perturbed_grid_stays_arithmetic(self):
        # within a quarter-width of ideal: still exact with one step
        part = Partition(np.array([0.0, 1.2, 1.8, 3.24, 4.0]))
        assert part._binning is not None
        _assert_exact(part, _probe_values(part))
        _assert_exact(part, np.linspace(-1.0, 5.0, 6001))

    def test_huge_span_falls_back(self):
        part = Partition(np.array([-1e308, 0.0, 1e308]))
        assert part._binning is None
        _assert_exact(part, _probe_values(part))

    def test_empty_input(self, unit_partition):
        got = unit_partition.locate([])
        assert got.dtype == np.intp and got.shape == (0,)

    @pytest.mark.parametrize("value", [0.35, np.float64(0.1), 1, -3, np.nan])
    def test_scalar_and_zero_d_inputs(self, unit_partition, value):
        for form in (value, np.asarray(value)):
            got = unit_partition.locate(form)
            expected = _oracle(unit_partition, form)
            assert type(got) is type(expected)
            assert got == expected

    def test_int_input(self):
        part = Partition.uniform(-5, 5, 10)
        values = np.arange(-8, 9)
        _assert_exact(part, values)
        _assert_exact(part, values.tolist())

    def test_strided_column_views(self):
        part = Partition.uniform(0.0, 10.0, 17).expanded(3.3)
        rng = np.random.default_rng(4)
        matrix = rng.uniform(-5.0, 15.0, size=(400, 3))
        for j in range(matrix.shape[1]):
            column = matrix[:, j]
            assert not column.flags.c_contiguous
            _assert_exact(part, column)
        _assert_exact(part, matrix)  # any shape, like searchsorted

    def test_out_receives_the_result(self, unit_partition):
        values = np.array([0.05, 1.5, -1.0, 0.55])
        out = np.full(4, -7, dtype=np.intp)
        assert unit_partition.locate(values, out=out) is out
        assert out.tolist() == [0, 9, 0, 5]

    def test_binning_cache_stays_out_of_eq_repr_and_serialize(self):
        from dataclasses import fields

        from repro import serialize

        part = Partition.uniform(0.0, 1.0, 4)
        assert [f.name for f in fields(Partition) if f.compare or f.repr] == [
            "edges"
        ]
        assert "_binning" not in repr(part)
        assert "_binning" not in serialize.to_jsonable(part)
        assert serialize.from_jsonable(serialize.to_jsonable(part)).locate(
            [0.5]
        ).tolist() == [2]

    def test_edges_the_cache_derives_from_are_frozen(self):
        user_edges = np.array([0.0, 1.0, 2.0, 3.0])
        part = Partition(user_edges)
        user_edges[1] = 2.5  # the caller's array is not the grid's
        assert part.locate([1.5]).tolist() == [1]
        with pytest.raises(ValueError):
            part.edges[0] = -1.0

    def test_quantize_output_unchanged(self):
        from repro.service.shards import ColumnLayout

        grids = _service_grids()
        layout = ColumnLayout({f"g{k}": grid for k, grid in enumerate(grids)})
        rng = np.random.default_rng(11)
        batch = {
            f"g{k}": rng.uniform(grid.low - 1.0, grid.high + 1.0, 300)
            for k, grid in enumerate(grids)
        }
        columns = layout.quantize(batch)
        for k, grid in enumerate(grids):
            expected = _oracle(grid, batch[f"g{k}"])
            column = columns[f"g{k}"]
            assert column.dtype == (np.int8 if grid.n_intervals <= 128 else np.int16)
            assert np.array_equal(column, expected.astype(column.dtype))
        # a pinned literal, independent of the oracle
        small = ColumnLayout({"a": Partition.uniform(0, 1, 4)})
        assert small.quantize({"a": [0.0, 0.25, 0.2499999, 1.0, 7.0]})[
            "a"
        ].tolist() == [0, 1, 0, 3, 3]


class TestGridStack:
    def test_rows_match_partition_locate_plus_start(self):
        parts = [
            Partition.uniform(0.0, 1.0, 7),
            Partition.uniform(-3.0, 5.0, 40).expanded(1.3),
            Partition.equidepth(np.random.default_rng(2).normal(size=300), 6),
        ]
        grids = GridStack(parts)
        assert grids.starts.tolist() == [0, 7, 7 + parts[1].n_intervals]
        assert grids.arithmetic.tolist() == [True, True, False]
        rng = np.random.default_rng(9)
        rows = [1, 0, 1]  # a grid may appear more than once
        edges = np.concatenate([parts[1].edges, parts[0].edges])
        values = np.stack(
            [
                rng.choice(np.concatenate([edges, np.nextafter(edges, 0)]), 50)
                for _ in rows
            ]
        )
        values[0, :3] = (-1e308, 1e308, 0.0)
        out = np.empty(values.shape, dtype=np.intp)
        assert grids.locate(rows, values, out) is out
        for i, row in enumerate(rows):
            expected = parts[row].locate(values[i]) + grids.starts[row]
            assert np.array_equal(out[i], expected)
