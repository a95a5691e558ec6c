"""Interval partitions of a numeric attribute domain.

The reconstruction algorithm of the paper (§3.2) and the decision-tree
training algorithms (§4) both discretize each attribute's domain into a
grid of contiguous intervals: reconstruction estimates one probability per
interval, and candidate tree splits are placed at interval boundaries.
:class:`Partition` is that shared substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import check_1d_array


@dataclass(frozen=True)
class Partition:
    """A sorted grid of ``m`` contiguous half-open intervals.

    Interval ``t`` (``0 <= t < m``) is ``[edges[t], edges[t+1])``; the final
    interval is closed on the right so the full domain ``[low, high]`` is
    covered.  Instances are immutable and hashable-by-identity, so they can
    be shared freely between distributions, reconstructors, and trees.

    Attributes
    ----------
    edges:
        Strictly increasing, read-only array of ``m + 1`` boundary values.

    Examples
    --------
    >>> from repro.core import Partition
    >>> part = Partition.uniform(0.0, 1.0, 4)
    >>> part.n_intervals
    4
    >>> part.midpoints
    array([0.125, 0.375, 0.625, 0.875])
    >>> part.locate([0.3, 0.99]).tolist()
    [1, 3]
    >>> part.histogram([0.1, 0.15, 0.8]).tolist()
    [2, 0, 0, 1]
    """

    edges: np.ndarray
    # ``(origin, scale, top, upper)`` of the arithmetic path of
    # :meth:`locate`, or ``None`` when the grid is too far from uniform;
    # derived from ``edges``, so it takes no part in equality or repr
    _binning: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # a private read-only copy: the cached binning must never go stale
        edges = np.array(self.edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2:
            raise ValidationError("edges must be a 1-D array with at least two entries")
        if not np.all(np.isfinite(edges)):
            raise ValidationError("edges must be finite")
        if not np.all(np.diff(edges) > 0):
            raise ValidationError("edges must be strictly increasing")
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_binning", _arithmetic_binning(edges))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, low: float, high: float, n_intervals: int) -> "Partition":
        """Partition ``[low, high]`` into ``n_intervals`` equal-width intervals."""
        if n_intervals < 1:
            raise ValidationError(f"n_intervals must be >= 1, got {n_intervals}")
        if not (np.isfinite(low) and np.isfinite(high) and high > low):
            raise ValidationError(f"need finite high > low, got [{low}, {high}]")
        return cls(np.linspace(float(low), float(high), int(n_intervals) + 1))

    @classmethod
    def equidepth(cls, values, n_intervals: int) -> "Partition":
        """Partition whose intervals hold (approximately) equal sample mass.

        Edges are placed at sample quantiles, so dense regions get narrow
        intervals — the classic alternative to equal-width grids for
        reconstruction.  Duplicate quantiles (heavy ties) are collapsed,
        so the result may have fewer than ``n_intervals`` intervals.
        """
        if n_intervals < 1:
            raise ValidationError(f"n_intervals must be >= 1, got {n_intervals}")
        arr = check_1d_array(values, "values")
        quantiles = np.quantile(arr, np.linspace(0.0, 1.0, n_intervals + 1))
        edges = np.unique(quantiles)
        if edges.size < 2:
            return cls.from_values(arr, 1)
        return cls(edges)

    @classmethod
    def from_values(cls, values, n_intervals: int, *, pad: float = 0.0) -> "Partition":
        """Equal-width partition covering the observed range of ``values``.

        Parameters
        ----------
        pad:
            Fraction of the observed range added on each side, useful when
            the partition must also cover future samples from the same
            distribution.
        """
        arr = check_1d_array(values, "values")
        low, high = float(arr.min()), float(arr.max())
        if high == low:
            # Degenerate sample: build a tiny non-empty domain around it.
            span = max(abs(low), 1.0)
            low, high = low - 0.5 * span, high + 0.5 * span
        margin = pad * (high - low)
        return cls.uniform(low - margin, high + margin, n_intervals)

    # ------------------------------------------------------------------
    # Basic geometry
    # ------------------------------------------------------------------
    @property
    def n_intervals(self) -> int:
        """Number of intervals ``m``."""
        return self.edges.size - 1

    @property
    def low(self) -> float:
        """Left end of the domain."""
        return float(self.edges[0])

    @property
    def high(self) -> float:
        """Right end of the domain."""
        return float(self.edges[-1])

    @property
    def span(self) -> float:
        """Total width ``high - low`` of the domain."""
        return self.high - self.low

    @property
    def midpoints(self) -> np.ndarray:
        """Midpoint of each interval (the paper's representative values)."""
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @property
    def widths(self) -> np.ndarray:
        """Width of each interval."""
        return np.diff(self.edges)

    # ------------------------------------------------------------------
    # Value <-> interval mapping
    # ------------------------------------------------------------------
    def locate(self, values, *, out=None) -> np.ndarray:
        """Map each value to its interval index, clipping out-of-domain values.

        Values below ``low`` map to interval 0 and values above ``high`` to
        interval ``m - 1`` — the behaviour the reconstruction algorithm
        needs for randomized values that fall slightly outside the grid.
        ``+inf`` maps to ``m - 1``, ``-inf`` to 0 and NaN to ``m - 1``.
        The result always equals
        ``np.clip(np.searchsorted(edges, values, side="right") - 1, 0, m - 1)``,
        bit for bit; ``out``, an ``intp`` array of the values' shape,
        receives it in place of a fresh array.

        Near-uniform grids — those :meth:`uniform` and :meth:`expanded`
        build, unless their spacing nears float resolution — skip the
        binary search.  With ``w = span / m`` the candidate
        ``c = floor((x - low - w/2) / w)``, clipped to ``[0, m - 1]``,
        costs one subtract and one multiply per value, and one comparison
        against the real edges finishes the job:
        ``index = c + (x >= edges[c + 1])``.

        Why one step is exact: construction checks, in the very float
        arithmetic ``locate`` uses, that each edge ``e_k`` lands within a
        quarter-width of the ideal grid, i.e. its candidate value
        ``g(e_k)`` lies in ``[k - 3/4, k - 1/4]``.  ``g`` is monotone (each
        rounded operation is), so a value in ``[e_t, e_{t+1})`` has
        ``t - 3/4 <= g(x) <= t + 3/4`` and a candidate of ``t - 1`` or
        ``t``; the comparison then picks the right one.  Out-of-domain
        values clip to the end intervals, and the comparison never steps
        past ``m - 1`` (NaN compares false).  Grids that fail the check,
        such as :meth:`equidepth` ones, keep ``np.searchsorted``.

        Examples
        --------
        A value exactly on an edge opens the interval to its right, one
        ulp below it still belongs to the interval on the left:

        >>> import numpy as np
        >>> part = Partition.uniform(0.0, 1.0, 10)
        >>> edge = part.edges[3]
        >>> part.locate([edge, np.nextafter(edge, 0.0), 1.0, np.nan]).tolist()
        [3, 2, 9, 9]
        """
        arr = np.asarray(values, dtype=float)
        if arr.ndim == 0:
            return self.locate(arr.reshape(1))[0]
        if out is None:
            out = np.empty(arr.shape, dtype=np.intp)
        if self._binning is None:
            idx = np.searchsorted(self.edges, arr, side="right") - 1
            return np.clip(idx, 0, self.n_intervals - 1, out=out)
        return _locate_arithmetic(arr, *self._binning, out)

    def histogram(self, values) -> np.ndarray:
        """Count values per interval (clipped like :meth:`locate`)."""
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            return np.zeros(self.n_intervals, dtype=np.int64)
        idx = self.locate(arr)
        return np.bincount(idx, minlength=self.n_intervals).astype(np.int64)

    def expanded(self, margin: float) -> "Partition":
        """Extend the grid by whole intervals to cover ``margin`` on each side.

        Used to bucket randomized values ``x + r``, whose range exceeds the
        original domain by the noise half-width.  Interval widths are kept
        identical to the first/last interval so midpoint arithmetic in the
        reconstructor stays uniform.
        """
        if margin < 0:
            raise ValidationError(f"margin must be >= 0, got {margin}")
        if margin == 0:
            return self
        left_w = float(self.edges[1] - self.edges[0])
        right_w = float(self.edges[-1] - self.edges[-2])
        n_left = int(np.ceil(margin / left_w))
        n_right = int(np.ceil(margin / right_w))
        left = self.edges[0] - left_w * np.arange(n_left, 0, -1)
        right = self.edges[-1] + right_w * np.arange(1, n_right + 1)
        return Partition(np.concatenate([left, self.edges, right]))

    def __len__(self) -> int:
        return self.n_intervals

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Partition(n_intervals={self.n_intervals}, "
            f"low={self.low:.6g}, high={self.high:.6g})"
        )


def _locate_arithmetic(values, origin, scale, top, upper, out, starts=None):
    """The arithmetic path of :meth:`Partition.locate`, shared by :class:`GridStack`.

    ``origin``, ``scale`` and ``top`` are one grid's constants (from
    :func:`_arithmetic_binning`), or ``(k, 1)`` columns of them that
    broadcast over the rows of a 2-D ``values`` block.  ``starts``
    shifts each row into a flat index space, before the comparison so
    that ``upper`` is indexed in that space too.
    """
    candidate = np.subtract(values, origin)
    with np.errstate(over="ignore"):
        candidate *= scale
    np.fmin(candidate, top, out=candidate)  # NaN -> m - 1
    # clip below and cast in one pass: truncation is floor on [0, m - 1]
    np.fmax(candidate, 0.0, out=out, casting="unsafe")
    if starts is not None:
        out += starts
    np.take(upper, out, out=candidate, mode="clip")
    out += values >= candidate
    return out


def _arithmetic_binning(edges: np.ndarray):
    """Constants of :meth:`Partition.locate`'s arithmetic path, or ``None``.

    Returns ``(origin, scale, top, upper)`` when every edge's candidate
    ``(e_k - origin) * scale`` — evaluated exactly as ``locate`` does —
    lies in ``[k - 3/4, k - 1/4]``, the condition under which one
    comparison makes the candidate exact.  ``upper[c]`` is the edge a
    candidate ``c`` compares against (``edges[c + 1]``), with NaN in the
    last slot so nothing ever steps past interval ``m - 1``.
    """
    m = edges.size - 1
    with np.errstate(all="ignore"):
        span = edges[-1] - edges[0]
        scale = m / span
        origin = edges[0] + 0.5 * (span / m)
        candidates = (edges - origin) * scale
    k = np.arange(m + 1, dtype=float)
    if not (
        np.isfinite(scale)
        and np.all(candidates >= k - 0.75)
        and np.all(candidates <= k - 0.25)
    ):
        return None
    upper = edges[1:].copy()
    upper[-1] = np.nan
    upper.flags.writeable = False
    return float(origin), float(scale), float(m - 1), upper


class GridStack:
    """Several partitions' grids laid end to end in one flat index space.

    Grid ``j`` owns the flat indices ``[starts[j], starts[j] + m_j)``,
    the layout the aggregation service's fused bincount uses.
    :meth:`locate` bins a 2-D block of values, row ``i`` on grid
    ``rows[i]``, with :meth:`Partition.locate`'s arithmetic path applied
    to the whole block at once: the same subtract, multiply, clip and
    comparison against the real edge, so each row equals
    ``partitions[rows[i]].locate(values[i]) + starts[rows[i]]`` bit for
    bit.  A block costs a fixed handful of numpy calls however many rows
    it has, which matters when rows are short and threads contend for
    the GIL: every call over more than a few hundred values releases it.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.partition import GridStack, Partition
    >>> grids = GridStack([Partition.uniform(0, 1, 4), Partition.uniform(0, 1, 6)])
    >>> grids.starts.tolist(), grids.arithmetic.tolist()
    ([0, 4], [True, True])
    >>> out = np.empty((2, 2), dtype=np.intp)
    >>> grids.locate([1, 0], np.array([[0.05, 0.95], [0.3, 1.0]]), out).tolist()
    [[4, 9], [1, 3]]
    """

    def __init__(self, partitions) -> None:
        partitions = list(partitions)
        sizes = [p.n_intervals for p in partitions]
        self.starts = np.cumsum([0] + sizes[:-1]).astype(np.intp)
        self.arithmetic = np.array([p._binning is not None for p in partitions])
        # grids on the searchsorted path get inert placeholders
        binnings = [
            p._binning or (0.0, 0.0, 0.0, np.full(p.n_intervals, np.nan))
            for p in partitions
        ]
        # per-grid constants as (k, 1) columns that broadcast over a row
        self._origin, self._scale, self._top = (
            np.array([[b[col]] for b in binnings]) for col in range(3)
        )
        self._upper = np.concatenate([b[3] for b in binnings])

    def locate(self, rows, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Flat interval indices of ``values[i]`` on grid ``rows[i]``, into ``out``.

        ``values`` is a 2-D float block and ``out`` an ``intp`` array of
        its shape; every grid in ``rows`` must be :attr:`arithmetic`.
        """
        return _locate_arithmetic(
            values,
            self._origin[rows],
            self._scale[rows],
            self._top[rows],
            self._upper,
            out,
            self.starts[rows, None],
        )
