"""Mergeable histogram partials for sharded disclosure ingestion.

The reconstruction algorithm never needs raw disclosures — only the
histogram of randomized values on the noise-expanded grid.  Histograms
are *mergeable*: the histogram of a union of batches is the elementwise
sum of the batches' histograms, exactly (counts are integers, and float64
addition of integers is exact far beyond any realistic record count).

That makes server-side aggregation embarrassingly shardable:

* each ingestion worker owns (or is routed to) a :class:`HistogramShard`
  and accumulates its batches in O(batch) work with no cross-worker
  coordination,
* a refresh merges the shard partials in O(shards x bins) — independent
  of how many records have ever been seen — and hands the merged counts
  to the reconstruction engine.

The hot path is built for memory bandwidth, not Python speed:

* every attribute's noise-expanded grid occupies one contiguous stripe
  of a single flat counts buffer (:class:`ColumnLayout`), so a batch
  touching any subset of attributes bins **all** of them in one fused
  ``np.bincount`` over offset indices (``offset + locate(values)``, the
  same flat-offset trick the tree's split search uses),
* :meth:`HistogramShard.ingest_prepared` accepts those pre-located
  indices (:class:`PreparedBatch`, built once per batch outside any
  lock), and
* each shard accumulates into **striped per-thread buffers**: a writer
  thread owns its stripe, so its stripe lock is uncontended on the hot
  path and reads (:meth:`HistogramShard.partial`) merge the stripes —
  exact, because integer-valued float64 sums are associative,
* layouts built with ``n_classes >= 1`` replicate the flat buffer into
  per-class *blocks* (plus one for unlabeled records), and a labeled
  batch's class column folds into the same fused ``np.bincount``, so
  class-conditional aggregation — the input the paper's ByClass/Local
  training needs — costs the ingest path nothing.

:class:`ShardSet` is the fixed-size collection of shards over one
attribute schema, with round-robin routing and the O(bins) merge.  The
control plane (engine, warm-started estimates, persistence) lives in
:class:`repro.service.AggregationService`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.core.partition import GridStack, Partition
from repro.core.randomizers import AdditiveRandomizer
from repro.exceptions import ValidationError
from repro.utils.validation import check_1d_array, check_label_column

#: the column dtypes the quantized wire path ships bin indices in
_QUANTIZED_DTYPES = (np.dtype("<i1"), np.dtype("<i2"))


# the largest batch (in values) located as one stacked block: stacking
# copies the batch, and past a few tens of thousands of values that copy
# and its temporaries fall out of cache and cost more than the per-column
# numpy calls they save (measured crossover: 8k-16k values per column x 4)
_STACK_VALUES = 1 << 15


def _quantized_column(values):
    """Return ``values`` when it is a quantized column, else ``None``.

    Quantized columns — the wire v5 carriers — are int8/int16 ndarrays
    of *pre-located bin indices*; every other input (lists, float
    arrays, wider integer arrays) stays on the locate-by-value path.
    """
    if isinstance(values, np.ndarray) and values.dtype in _QUANTIZED_DTYPES:
        return values
    return None


@dataclass(frozen=True)
class AttributeSpec:
    """One attribute the aggregation service collects disclosures for.

    Attributes
    ----------
    name:
        Unique attribute name; the routing key of every ingested batch.
    x_partition:
        Grid over the original domain on which estimates are expressed.
    randomizer:
        The (public) additive noise process providers disclose through.

    Examples
    --------
    >>> from repro.core import Partition, UniformRandomizer
    >>> from repro.service import AttributeSpec
    >>> spec = AttributeSpec("age", Partition.uniform(20, 80, 12),
    ...                      UniformRandomizer(half_width=15.0))
    >>> spec.name, spec.x_partition.n_intervals
    ('age', 12)
    """

    name: str
    x_partition: Partition
    randomizer: AdditiveRandomizer

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError("attribute name must be a non-empty string")
        if not isinstance(self.x_partition, Partition):
            raise ValidationError(
                f"x_partition must be a Partition, got "
                f"{type(self.x_partition).__name__}"
            )
        if not isinstance(self.randomizer, AdditiveRandomizer):
            raise ValidationError(
                "randomizer must be an AdditiveRandomizer (the service "
                f"aggregates additive disclosures), got "
                f"{type(self.randomizer).__name__}"
            )


class ColumnLayout:
    """Flat-offset layout of a schema's noise-expanded grids.

    Attribute ``j``'s bins occupy ``[offsets[j], offsets[j] + m_j)`` of
    one flat counts vector of ``total_bins`` entries, so locating a
    value and adding the attribute's offset yields a *global* bin index
    — and one ``np.bincount`` over those fused indices bins every
    attribute of a batch in a single vectorized pass.

    With ``n_classes >= 1`` the flat vector holds ``n_classes + 1``
    consecutive *class blocks* of that base layout: block 0 collects
    unlabeled records (v1 wire clients), block ``c + 1`` collects
    records disclosed with class label ``c``.  A labeled batch's class
    column simply adds ``(class + 1) * base_bins`` to each fused index,
    so the same single ``np.bincount`` bins every attribute of a batch
    *per class* in one pass.

    Shared by every shard of a :class:`ShardSet` (the layout is
    immutable schema geometry, not state).

    Examples
    --------
    >>> from repro.core import Partition
    >>> from repro.service.shards import ColumnLayout
    >>> layout = ColumnLayout({"a": Partition.uniform(0, 1, 4),
    ...                        "b": Partition.uniform(0, 1, 6)})
    >>> layout.total_bins, layout.offset_of("b")
    (10, 4)
    >>> layout.prepare({"b": [0.05, 0.95]}).flat.tolist()
    [4, 9]
    >>> labeled = ColumnLayout({"a": Partition.uniform(0, 1, 4)}, n_classes=2)
    >>> labeled.total_bins  # 4 bins x (unlabeled + 2 class blocks)
    12
    >>> labeled.prepare({"a": [0.1, 0.9]}, classes=[0, 1]).flat.tolist()
    [4, 11]
    """

    __slots__ = (
        "_partitions", "_names", "_offsets", "_index", "_grids",
        "base_bins", "n_classes", "total_bins",
    )

    def __init__(self, y_partitions, *, n_classes: int = 0) -> None:
        if not y_partitions:
            raise ValidationError("a layout needs at least one attribute")
        if not isinstance(n_classes, int) or n_classes < 0:
            raise ValidationError(
                f"n_classes must be a non-negative integer, got {n_classes!r}"
            )
        self._partitions = dict(y_partitions)
        self._names = tuple(self._partitions)
        self._index = {name: k for k, name in enumerate(self._names)}
        self._offsets = {}
        total = 0
        for name, partition in self._partitions.items():
            self._offsets[name] = total
            total += partition.n_intervals
        self._grids = GridStack(self._partitions.values())
        self.base_bins = total
        self.n_classes = int(n_classes)
        self.total_bins = total * (self.n_classes + 1)

    @property
    def names(self) -> tuple:
        """Attribute names, in schema order."""
        return self._names

    def partition(self, name: str) -> Partition:
        """The noise-expanded grid of attribute ``name``."""
        self.require(name)
        return self._partitions[name]

    def offset_of(self, name: str) -> int:
        """First flat bin of attribute ``name`` (within class block 0)."""
        self.require(name)
        return self._offsets[name]

    def index_of(self, name: str) -> int:
        """Schema position of attribute ``name`` (for per-attribute counters)."""
        self.require(name)
        return self._index[name]

    def slice_of(self, name: str, class_block: int = 0) -> slice:
        """``name``'s bin range within one class block of the flat vector.

        Block 0 is the unlabeled partition; block ``c + 1`` holds class
        ``c``.  Layouts without classes only have block 0, so existing
        callers keep their meaning.
        """
        self.require(name)
        if not 0 <= class_block <= self.n_classes:
            raise ValidationError(
                f"class block {class_block} out of range "
                f"[0, {self.n_classes + 1})"
            )
        offset = class_block * self.base_bins + self._offsets[name]
        return slice(offset, offset + self._partitions[name].n_intervals)

    def class_slices(self, name: str) -> tuple:
        """All of ``name``'s class-block slices: unlabeled, then classes."""
        self.require(name)
        return tuple(
            self.slice_of(name, block) for block in range(self.n_classes + 1)
        )

    def require(self, name: str) -> None:
        """Raise :class:`ValidationError` unless ``name`` is in the schema."""
        if name not in self._partitions:
            raise ValidationError(
                f"unknown attribute {name!r}; schema holds {list(self._names)}"
            )

    def compatible_with(self, other: "ColumnLayout") -> bool:
        """Same attributes, grids, and class count (merge/ingest compatibility)."""
        if self is other:
            return True
        return (
            self._names == other._names
            and self.n_classes == other.n_classes
            and all(
                np.array_equal(
                    self._partitions[n].edges, other._partitions[n].edges
                )
                for n in self._names
            )
        )

    def check_classes(self, classes) -> np.ndarray:
        """Validate a class column; return it as flat block offsets per record.

        ``classes`` must be a 1-D column of integer labels in
        ``[0, n_classes)``; the returned array holds each record's class
        block offset (``(class + 1) * base_bins``), ready to add to the
        located attribute indices.
        """
        if self.n_classes == 0:
            raise ValidationError(
                "this layout has no class partitions; build it with "
                "n_classes >= 1 to ingest labeled records"
            )
        labels = check_label_column(classes, n_classes=self.n_classes)
        return (labels + 1) * self.base_bins

    def prepare(self, batch, classes=None) -> "PreparedBatch":
        """Locate a ``{attribute: values}`` batch into fused flat indices.

        The pure, lock-free half of ingestion: values are validated,
        bucketed on their attribute's grid (:meth:`Partition.locate
        <repro.core.partition.Partition.locate>`, arithmetic on the
        uniform grids a service builds), and offset into the flat bin
        space.  Every column's indices are written straight into one
        preallocated ``intp`` buffer, so a batch costs no per-column
        temporaries and no concatenation; equal-length float columns
        are located together as one stacked block.  Quantized columns
        (int8/int16 ndarrays of pre-located bin indices, the wire v5
        payload) skip the ``locate`` entirely — each index is
        range-checked against the attribute's grid and offset directly,
        so compressed clients cost the server no binning at all.  With
        ``classes`` (one integer label per record, shared by every
        column of the batch) each fused index additionally lands in its
        record's class block, so labeled batches bin per class in the
        same single pass.  The returned :class:`PreparedBatch` can be
        handed to any shard built on this layout.
        """
        if not isinstance(batch, dict):
            raise ValidationError("batch must map attribute -> values")
        blocks = None if classes is None else self.check_classes(classes)
        columns = []
        seen = np.zeros(len(self._names), dtype=np.int64)
        total = 0
        for name, values in batch.items():
            partition = self._partitions.get(name)
            if partition is None:
                raise ValidationError(
                    f"unknown attribute {name!r}; schema holds "
                    f"{list(self._names)}"
                )
            indices = _quantized_column(values)
            if indices is None:
                # finiteness is checked once for the whole batch below
                arr = check_1d_array(
                    values, f"batch[{name!r}]", allow_empty=True, finite=False
                )
            elif indices.ndim != 1:
                raise ValidationError(
                    f"batch[{name!r}] must be 1-dimensional, got shape "
                    f"{indices.shape}"
                )
            else:
                arr = indices
            if blocks is not None and arr.size != blocks.size:
                raise ValidationError(
                    f"batch[{name!r}] has {arr.size} value(s) but the class "
                    f"column has {blocks.size}; labeled batches need one "
                    "class label per record"
                )
            if arr.size == 0:
                continue
            if indices is not None:
                low, high = int(indices.min()), int(indices.max())
                if low < 0 or high >= partition.n_intervals:
                    raise ValidationError(
                        f"batch[{name!r}] quantized bin indices must lie in "
                        f"[0, {partition.n_intervals}), got [{low}, {high}]"
                    )
            columns.append((name, partition, arr, indices is not None))
            seen[self._index[name]] = arr.size
            total += arr.size
        flat = np.empty(total, dtype=np.intp)
        if self._locate_stacked(columns, flat, blocks):
            return PreparedBatch(self, flat, seen, total)
        start = 0
        for name, partition, arr, quantized in columns:
            fused = flat[start:start + arr.size]
            if quantized:
                fused[...] = arr
            else:
                check_1d_array(arr, f"batch[{name!r}]", allow_empty=True)
                partition.locate(arr, out=fused)
            fused += self._offsets[name]
            if blocks is not None:
                fused += blocks
            start += arr.size
        return PreparedBatch(self, flat, seen, total)

    def _locate_stacked(self, columns, flat, blocks) -> bool:
        """Fill ``flat`` in one stacked pass, if the batch allows it.

        Two or more equal-length, finite float columns on arithmetic
        grids, at most ``_STACK_VALUES`` values in all, locate as one 2-D
        block through :class:`GridStack <repro.core.partition.GridStack>`:
        a fixed handful of numpy calls per batch instead of a handful per
        column, which is what short batches on contended threads pay
        for.  Returns ``False``, with ``flat`` untouched, for any other
        batch; the per-column path then locates it and names a
        non-finite column.
        """
        if (
            len(columns) < 2
            or flat.size > _STACK_VALUES
            or any(quantized for *_, quantized in columns)
        ):
            return False
        rows = [self._index[name] for name, *_ in columns]
        if len({arr.size for _, _, arr, _ in columns}) != 1 or not (
            self._grids.arithmetic[rows].all()
        ):
            return False
        values = np.stack([arr for _, _, arr, _ in columns])
        if not np.isfinite(values).all():
            return False
        block = flat.reshape(len(columns), -1)
        self._grids.locate(rows, values, block)
        if blocks is not None:
            block += blocks
        return True

    def quantize(self, batch) -> dict:
        """Locate a value batch into narrow per-attribute bin-index columns.

        The client half of the quantized wire path: each column is
        bucketed on its attribute's noise-expanded grid — exactly what
        :meth:`prepare` would do server-side — and returned at the
        narrowest width the grid permits (int8 for grids of at most 128
        intervals, int16 up to 32768; finer grids are rejected).  The
        width is a pure function of the schema, so every client of one
        service quantizes identically.  Feeding the result to
        ``encode_quantized`` → :meth:`prepare` yields bit-identical
        fused indices — and therefore bit-identical estimates — to
        shipping the float values themselves.

        Examples
        --------
        >>> from repro.core import Partition
        >>> from repro.service.shards import ColumnLayout
        >>> layout = ColumnLayout({"a": Partition.uniform(0, 1, 4)})
        >>> columns = layout.quantize({"a": [0.05, 0.95]})
        >>> columns["a"].tolist(), columns["a"].dtype.name
        ([0, 3], 'int8')
        """
        if not isinstance(batch, dict):
            raise ValidationError("batch must map attribute -> values")
        quantized = {}
        for name, values in batch.items():
            partition = self._partitions.get(name)
            if partition is None:
                raise ValidationError(
                    f"unknown attribute {name!r}; schema holds "
                    f"{list(self._names)}"
                )
            arr = check_1d_array(values, f"batch[{name!r}]", allow_empty=True)
            n_intervals = partition.n_intervals
            if n_intervals <= 0x80:
                dtype = _QUANTIZED_DTYPES[0]
            elif n_intervals <= 0x8000:
                dtype = _QUANTIZED_DTYPES[1]
            else:
                raise ValidationError(
                    f"attribute {name!r} has {n_intervals} intervals; "
                    "quantized columns cap grids at 32768 (int16 indices)"
                )
            quantized[name] = partition.locate(arr).astype(dtype)
        return quantized


class PreparedBatch:
    """A batch located into fused flat bin indices, ready to accumulate.

    Produced by :meth:`ColumnLayout.prepare` (or the ``prepare`` methods
    of :class:`HistogramShard` / :class:`ShardSet` /
    :class:`~repro.service.AggregationService`); consumed by
    ``ingest_prepared``.  Splitting ingestion this way keeps the O(batch)
    locate work outside every lock and lets one prepared batch be binned
    with a single fused ``np.bincount``.

    Examples
    --------
    >>> from repro.core import Partition
    >>> from repro.service.shards import ColumnLayout
    >>> layout = ColumnLayout({"x": Partition.uniform(0, 1, 4)})
    >>> prepared = layout.prepare({"x": [0.1, 0.9]})
    >>> prepared.total, prepared.flat.tolist()
    (2, [0, 3])
    """

    __slots__ = ("layout", "flat", "seen", "total")

    def __init__(self, layout, flat, seen, total) -> None:
        self.layout = layout
        self.flat = flat
        self.seen = seen
        self.total = int(total)


class _Stripe:
    """One writer thread's private accumulator within a shard."""

    __slots__ = ("counts", "seen", "lock")

    def __init__(self, total_bins: int, n_attributes: int) -> None:
        self.counts = np.zeros(total_bins)
        self.seen = np.zeros(n_attributes, dtype=np.int64)
        # owned by one writer thread, so acquiring it on the hot path
        # never contends; readers take it briefly while merging stripes
        self.lock = threading.Lock()


class HistogramShard:
    """One worker's running histogram partials, one per attribute.

    ``ingest`` buckets a batch of randomized values into the attribute's
    noise-expanded histogram — O(batch) work.  Bucketing happens outside
    any lock (it is pure); the accumulate lands in the calling thread's
    private *stripe*, so concurrent ingestion into the *same* shard
    never contends either: each writer owns its stripe, and reads merge
    the stripes (bit-exact — integer counts in float64 sum exactly in
    any order).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import Partition, UniformRandomizer
    >>> from repro.service.shards import HistogramShard
    >>> part = Partition.uniform(0, 1, 4)
    >>> noise = UniformRandomizer(half_width=0.25)
    >>> y_part = part.expanded(noise.support_half_width())
    >>> shard = HistogramShard({"x": y_part})
    >>> shard.ingest({"x": [0.1, 0.4, 0.9]})
    3
    >>> shard.n_seen("x")
    3
    """

    def __init__(
        self, y_partitions, *, layout: ColumnLayout | None = None, n_classes: int = 0
    ) -> None:
        if layout is None:
            if not y_partitions:
                raise ValidationError("a shard needs at least one attribute")
            layout = ColumnLayout(y_partitions, n_classes=n_classes)
        self._layout = layout
        self._stripes: dict = {}
        self._stripes_lock = threading.Lock()

    @property
    def layout(self) -> ColumnLayout:
        """The shared flat-offset layout this shard accumulates on."""
        return self._layout

    @property
    def attributes(self) -> tuple:
        """Attribute names this shard accumulates, in schema order."""
        return self._layout.names

    def _stripe(self) -> _Stripe:
        """The calling thread's stripe, created on first use."""
        ident = threading.get_ident()
        stripe = self._stripes.get(ident)
        if stripe is None:
            with self._stripes_lock:
                stripe = self._stripes.get(ident)
                if stripe is None:
                    stripe = _Stripe(
                        self._layout.total_bins, len(self._layout.names)
                    )
                    self._stripes[ident] = stripe
        return stripe

    def _stripes_snapshot(self) -> tuple:
        with self._stripes_lock:
            return tuple(self._stripes.values())

    def prepare(self, batch, classes=None) -> PreparedBatch:
        """Locate a batch into fused flat indices (see :class:`ColumnLayout`)."""
        return self._layout.prepare(batch, classes)

    def ingest(self, batch, *, classes=None) -> int:
        """Absorb ``{attribute: randomized values}``; return records added.

        ``classes`` (one integer label per record) bins the batch into
        its per-class stripes; without it records land in the unlabeled
        partition.
        """
        return self.ingest_prepared(self._layout.prepare(batch, classes))

    def ingest_prepared(self, prepared: PreparedBatch) -> int:
        """Absorb a :class:`PreparedBatch`; return records added.

        The hot half of ingestion: one fused ``np.bincount`` bins every
        attribute of the batch, then the calling thread's stripe absorbs
        the binned counts under its (uncontended) stripe lock, keeping
        each batch atomic with respect to readers.
        """
        if not isinstance(prepared, PreparedBatch):
            raise ValidationError(
                "ingest_prepared() takes a PreparedBatch (from prepare()); "
                f"got {type(prepared).__name__}"
            )
        if not prepared.layout.compatible_with(self._layout):
            raise ValidationError(
                "prepared batch was built on a different schema/grid layout"
            )
        if prepared.total == 0:
            return 0
        binned = np.bincount(prepared.flat, minlength=self._layout.total_bins)
        stripe = self._stripe()
        with stripe.lock:
            stripe.counts += binned
            stripe.seen += prepared.seen
        return prepared.total

    def n_seen(self, name: str) -> int:
        """Records absorbed so far for ``name``."""
        k = self._layout.index_of(name)
        total = 0
        for stripe in self._stripes_snapshot():
            with stripe.lock:
                total += int(stripe.seen[k])
        return total

    def partial(self, name: str) -> tuple:
        """Merged ``(counts copy, n_seen)`` over this shard's stripes.

        Counts sum the attribute's class blocks (unlabeled plus every
        class), so class-aware shards serve the same all-records
        histogram as before — integer counts in float64 sum exactly in
        any order.
        """
        slices = self._layout.class_slices(name)
        k = self._layout.index_of(name)
        counts = np.zeros(slices[0].stop - slices[0].start)
        seen = 0
        for stripe in self._stripes_snapshot():
            with stripe.lock:
                for sl in slices:
                    counts += stripe.counts[sl]
                seen += int(stripe.seen[k])
        return counts, seen

    def partial_by_class(self, name: str) -> np.ndarray:
        """Merged per-block counts of ``name``: ``(n_classes + 1, bins)``.

        Row 0 is the unlabeled partition; row ``c + 1`` is class ``c``.
        A class-less shard returns a single row (the plain histogram).
        """
        slices = self._layout.class_slices(name)
        out = np.zeros((len(slices), slices[0].stop - slices[0].start))
        for stripe in self._stripes_snapshot():
            with stripe.lock:
                for block, sl in enumerate(slices):
                    out[block] += stripe.counts[sl]
        return out

    def _flat_partial(self) -> tuple:
        """Merged ``(flat counts, seen vector)`` over all stripes."""
        counts = np.zeros(self._layout.total_bins)
        seen = np.zeros(len(self._layout.names), dtype=np.int64)
        for stripe in self._stripes_snapshot():
            with stripe.lock:
                counts += stripe.counts
                seen += stripe.seen
        return counts, seen

    def _absorb_flat(self, counts: np.ndarray, seen: np.ndarray) -> None:
        """Fold pre-merged flat totals into the calling thread's stripe."""
        stripe = self._stripe()
        with stripe.lock:
            stripe.counts += counts
            stripe.seen += seen

    def absorb_counts(
        self, name: str, counts, n_seen: int, *, class_block: int = 0
    ) -> None:
        """Add pre-bucketed counts for one attribute (snapshot restore).

        ``class_block`` selects the partition the counts land in:
        0 (default) is the unlabeled block, ``c + 1`` is class ``c``.
        """
        sl = self._layout.slice_of(name, class_block)
        counts = np.asarray(counts, dtype=float)
        if counts.shape != (sl.stop - sl.start,):
            raise ValidationError(
                f"counts for {name!r} must have {sl.stop - sl.start} bins, "
                f"got {counts.size}"
            )
        stripe = self._stripe()
        with stripe.lock:
            stripe.counts[sl] += counts
            stripe.seen[self._layout.index_of(name)] += int(n_seen)

    def replace_with(self, partials: dict) -> int:
        """Clear this shard, then absorb pre-merged per-class partials.

        ``partials`` maps attribute name to a ``(n_classes + 1, bins)``
        count matrix (row 0 unlabeled, row ``c + 1`` class ``c``) —
        the cluster coordinator's sync primitive: a worker ships its
        *cumulative* merged counts and replacing the worker's dedicated
        shard makes every re-push idempotent, so a retried sync can
        never double-count.  Attributes absent from ``partials`` end up
        empty (the worker has seen none of them).  Everything is
        validated before the clear, so a malformed mapping changes
        nothing; callers needing replace-vs-read atomicity serialize
        through the owning service's estimate lock.  Returns the record
        count now held.
        """
        if not isinstance(partials, dict):
            raise ValidationError(
                "partials must map attribute -> (n_classes + 1, bins) counts"
            )
        checked = []
        for name, counts in partials.items():
            slices = self._layout.class_slices(name)
            matrix = np.asarray(counts, dtype=float)
            bins = slices[0].stop - slices[0].start
            if matrix.shape != (len(slices), bins):
                raise ValidationError(
                    f"partials[{name!r}] must have shape "
                    f"({len(slices)}, {bins}), got {matrix.shape}"
                )
            checked.append((name, matrix))
        self.clear()
        total = 0
        for name, matrix in checked:
            for block, row in enumerate(matrix):
                row_seen = int(row.sum())
                if row_seen:
                    self.absorb_counts(name, row, row_seen, class_block=block)
                total += row_seen
        return total

    def merge_from(self, other: "HistogramShard") -> "HistogramShard":
        """Fold another shard's partials into this one (same schema)."""
        if not other._layout.compatible_with(self._layout):
            if other._layout.names != self._layout.names:
                raise ValidationError(
                    "cannot merge shards with different schemas"
                )
            raise ValidationError(
                "cannot merge shards bucketed on different grids"
            )
        counts, seen = other._flat_partial()
        self._absorb_flat(counts, seen)
        return self

    def clear(self) -> None:
        """Zero all partials."""
        for stripe in self._stripes_snapshot():
            with stripe.lock:
                stripe.counts[:] = 0.0
                stripe.seen[:] = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        total = int(self._flat_partial()[1].sum())
        return (
            f"HistogramShard(attributes={len(self._layout.names)}, "
            f"records={total})"
        )


class ShardSet:
    """A fixed number of :class:`HistogramShard` over one schema.

    Workers either address a shard explicitly (``shard=i`` — the
    one-worker-per-shard deployment) or let the set route round-robin;
    either way the accumulate itself is contention-free (striped per
    writer thread, see :class:`HistogramShard`).  ``merged`` sums the
    per-shard partials in O(shards x bins): because histogram counts are
    exact integers in float64, the merged counts are bit-identical to
    bucketing the whole stream into a single histogram, at any shard
    count, thread count, and batch interleaving.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import Partition, UniformRandomizer
    >>> from repro.service.shards import ShardSet
    >>> part = Partition.uniform(0, 1, 4)
    >>> noise = UniformRandomizer(half_width=0.25)
    >>> y_part = part.expanded(noise.support_half_width())
    >>> shards = ShardSet({"x": y_part}, n_shards=2)
    >>> shards.ingest({"x": [0.1, 0.2]}, shard=0)
    2
    >>> shards.ingest({"x": [0.8]}, shard=1)
    1
    >>> counts, seen = shards.merged("x")
    >>> seen, float(counts.sum())
    (3, 3.0)
    """

    def __init__(
        self, y_partitions, n_shards: int = 1, *, n_classes: int = 0
    ) -> None:
        if n_shards < 1:
            raise ValidationError(f"n_shards must be >= 1, got {n_shards}")
        self._layout = ColumnLayout(y_partitions, n_classes=n_classes)
        self._shards = tuple(
            HistogramShard(None, layout=self._layout)
            for _ in range(int(n_shards))
        )
        self._route = 0
        self._route_lock = threading.Lock()

    @property
    def layout(self) -> ColumnLayout:
        """The flat-offset layout shared by every shard."""
        return self._layout

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def n_classes(self) -> int:
        """Class labels the layout partitions by (0 = class-unaware)."""
        return self._layout.n_classes

    @property
    def attributes(self) -> tuple:
        """Attribute names, in schema order."""
        return self._layout.names

    def shard(self, index: int) -> HistogramShard:
        """The ``index``-th shard (for one-worker-per-shard deployments)."""
        if not 0 <= index < len(self._shards):
            raise ValidationError(
                f"shard index {index} out of range [0, {len(self._shards)})"
            )
        return self._shards[index]

    def __iter__(self):
        return iter(self._shards)

    def __len__(self) -> int:
        return len(self._shards)

    def prepare(self, batch, classes=None) -> PreparedBatch:
        """Locate a batch into fused flat indices, outside any lock."""
        return self._layout.prepare(batch, classes)

    def ingest(self, batch, *, shard: int | None = None, classes=None) -> int:
        """Route a batch to a shard (round-robin unless ``shard`` given)."""
        return self.ingest_prepared(
            self._layout.prepare(batch, classes), shard=shard
        )

    def ingest_prepared(
        self, prepared: PreparedBatch, *, shard: int | None = None
    ) -> int:
        """Route a :class:`PreparedBatch` to a shard and accumulate it."""
        if shard is None:
            with self._route_lock:
                shard = self._route
                self._route = (self._route + 1) % len(self._shards)
        return self.shard(shard).ingest_prepared(prepared)

    def merged(self, name: str) -> tuple:
        """Merged ``(counts, n_seen)`` for one attribute — O(shards x bins)."""
        self._layout.require(name)
        counts = np.zeros(self._layout.partition(name).n_intervals)
        seen = 0
        for shard in self._shards:
            partial, partial_seen = shard.partial(name)
            counts += partial
            seen += partial_seen
        return counts, seen

    def merged_by_class(self, name: str) -> np.ndarray:
        """Merged per-class counts of ``name``: ``(n_classes + 1, bins)``.

        Row 0 is the unlabeled partition, row ``c + 1`` class ``c``;
        rows sum (exactly) to :meth:`merged`'s all-records histogram.
        """
        self._layout.require(name)
        out = np.zeros(
            (
                self._layout.n_classes + 1,
                self._layout.partition(name).n_intervals,
            )
        )
        for shard in self._shards:
            out += shard.partial_by_class(name)
        return out

    def merge(self) -> dict:
        """Merged partials for every attribute: ``{name: (counts, n_seen)}``."""
        return {name: self.merged(name) for name in self._layout.names}

    def n_seen(self, name: str | None = None):
        """Records absorbed for one attribute, or ``{name: n}`` for all.

        Sums the shards' integer counters directly — no histogram copies
        — so the ingest/health hot paths never pay the O(bins) merge.
        """
        if name is not None:
            self._layout.require(name)
            return sum(shard.n_seen(name) for shard in self._shards)
        return {attr: self.n_seen(attr) for attr in self._layout.names}

    def clear(self) -> None:
        """Zero every shard."""
        for shard in self._shards:
            shard.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardSet(n_shards={len(self._shards)}, "
            f"attributes={len(self._layout.names)})"
        )
