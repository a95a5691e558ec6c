"""The columnar binary wire format for bulk disclosure ingestion.

JSON is the service's lingua franca, but parsing a float list builds one
Python object per disclosed value — the ingest hot path of a server
absorbing millions of randomized reports should never do that.  This
module defines ``application/x-ppdm-columns``: a versioned, columnar
frame whose float columns are raw little-endian ``float64`` bytes, so
the decoder is ``np.frombuffer`` over the request body (zero copies, no
per-value objects) and the encoder is one ``tobytes()`` per column.

Frame layout (all integers little-endian)::

    offset  size  field
    0       4     magic  b"PPDM"
    4       2     u16    wire version (1 = unlabeled, 2 = class-aware,
                         3 = partial — see below)
    6       2     u16    n_attributes
    8       4     i32    shard pin (-1 = unpinned, round-robin)
    [v2]    8     u64    class row count (0 = no class column)
    ...     ...   attribute table, n_attributes entries:
                    u16    name length L (UTF-8 bytes)
                    L      attribute name
                    u64    row count
    [v2]    ...   class column: class_row_count x 4 bytes of raw
                  little-endian int32 class labels
    ...     ...   columns: row_count x 8 bytes of raw little-endian
                  float64 per attribute, in table order

Version 2 frames carry an optional *class column* — one int32 label per
record, shared by every attribute column (whose row counts must then
all equal the class row count) — so classification training data
(class, attribute values) streams over the same zero-copy path.
Version 1 frames remain fully supported; their records land in the
server's unlabeled partition.

Version 3 is the *partial* frame (``application/x-ppdm-partial``): the
cluster tier's unit of exchange.  Instead of records it carries one
worker's **merged class-conditional histogram partials** — for each
attribute, ``n_blocks`` rows (unlabeled + one per class) of
noise-expanded bin counts — so a coordinator absorbs a whole worker's
state in O(bins), however many records the worker has seen.  The header
struct is shared with v1/v2; the i32 slot that pins a shard in record
frames carries ``n_blocks`` here::

    offset  size  field
    0       4     magic  b"PPDM"
    4       2     u16    wire version (3 = partial)
    6       2     u16    n_attributes
    8       4     i32    n_blocks (= classes + 1; >= 1)
    ...     ...   attribute table, n_attributes entries:
                    u16    name length L (UTF-8 bytes)
                    L      attribute name
                    u64    bin count
    ...     ...   counts: n_blocks x bin_count x 8 bytes of raw
                  little-endian float64 per attribute, in table order
                  (block 0 = unlabeled, block c + 1 = class c)

Partial counts must be finite, non-negative, and integer-valued —
anything else is a malformed frame, not data.  Partial frames are
self-delimiting like record frames, so a sync body may append labeled
v2 record frames after the partial (:func:`split_partial`) — that is
how a training worker ships its row buffer alongside its aggregates in
one atomic push.

Version 4 is the *basket* frame (``application/x-ppdm-baskets``): the
association-mining workload's unit of ingest.  Market-basket data is
sparse boolean, so columns of float64 would waste ~64x the bytes; a
basket frame instead ships each transaction as a varint list of the
item ids it contains, with a varint offset index up front so the frame
is self-delimiting and any transaction is addressable without decoding
its predecessors.  The header struct is shared with v1-v3; the u16
slot that counts attributes in record frames carries ``n_items`` here,
and the i32 slot is the usual shard pin::

    offset  size  field
    0       4     magic  b"PPDM"
    4       2     u16    wire version (4 = baskets)
    6       2     u16    n_items (item ids live in [0, n_items))
    8       4     i32    shard pin (-1 = unpinned, round-robin)
    ...     var   varint n_transactions (>= 1)
    ...     var   offset index: n_transactions varints, the byte
                  length of each transaction's item-id payload
                  (prefix sums give the offsets)
    ...     var   payload: per transaction, its item ids as varints,
                  strictly increasing (sorted, no duplicates; a zero
                  length encodes the empty transaction)

Varints are LEB128: 7 value bits per byte, high bit set on every byte
but the last.  Decoders reject item ids at or above ``n_items``,
non-increasing id sequences, transactions that over- or under-run
their declared byte length, and frames whose decoded matrix would be
absurdly large — malformed bytes are a 400, never a partial absorb.
v1-v3 byte-compatibility is untouched: record/partial decoders reject
version 4 frames loudly, and vice versa.

Version 5 is the *quantized* record frame: the v2 layout plus one
dtype-code byte per attribute-table entry, so already-discretized
columns ship at their natural width instead of float64.  Randomized
categorical and binned numeric disclosures are bin indices the moment
the client locates them on the attribute's noise-expanded grid —
shipping them as ``float64`` spends 8 bytes on a value that fits in
one.  A v5 column is either raw values (code 0, float64 — exactly the
v1/v2 payload) or *pre-located bin indices* (code 1 = int8, code 2 =
int16), decoded zero-copy via ``np.frombuffer`` and widened only when
the fused bincount needs platform integers::

    offset  size  field
    0       4     magic  b"PPDM"
    4       2     u16    wire version (5 = quantized)
    6       2     u16    n_attributes
    8       4     i32    shard pin (-1 = unpinned, round-robin)
    12      8     u64    class row count (0 = no class column)
    ...     ...   attribute table, n_attributes entries:
                    u16    name length L (UTF-8 bytes)
                    L      attribute name
                    u64    row count
                    u8     dtype code (0 = float64 raw values,
                           1 = int8 bin indices, 2 = int16 bin indices)
    ...     ...   class column: class_row_count x 4 bytes of raw
                  little-endian int32 class labels (when count > 0)
    ...     ...   columns: row_count x itemsize bytes of raw
                  little-endian values per attribute, in table order

Quantized columns carry *decisions*, not measurements: each index must
lie in ``[0, n_intervals)`` of its attribute's noise-expanded grid, and
the server adds shard offsets directly — no binning on the hot path,
not even ``Partition.locate``'s arithmetic one.  Because the client
and server locate on the same grid, estimates from a quantized stream
are bit-identical to the float64 stream of the same disclosures.  v1-v4 frames are byte-identical to previous
releases and still accepted unchanged.

Per-frame *codecs* ride HTTP ``Content-Encoding``, orthogonal to the
frame version: a whole request body (any number of frames, any
version) may be compressed with zlib (always available) or zstd (when
the ``zstandard`` package is importable).  :func:`compress_payload` /
:func:`decompress_payload` are the single codec implementation; the
decode side is *bounded* — a streamed ``zlib.decompressobj`` with
``max_length`` (or zstd's ``max_output_size``) enforces an explicit
decompressed-size cap, so a decompression bomb (tiny wire body, huge
decoded size) raises :class:`~repro.exceptions.DecodedSizeError`
instead of exhausting memory.

Frames are self-delimiting, so a request body may concatenate any
number of them (:func:`iter_frames` / :func:`iter_labeled_frames` /
:func:`iter_basket_frames`) and a persistent connection can stream
batch after batch.  The NDJSON fallback (``application/x-ndjson``)
keeps the same many-batches-per-body shape curl-able: one
``{"batch": ..., "shard": ..., "classes": ...}`` JSON object per line
(``classes`` optional).

Malformed frames raise :class:`~repro.exceptions.ValidationError`
(decode bombs and codec corruption the sharper
:class:`~repro.exceptions.WireFormatError` subclass), which the HTTP
front end maps to status 400 (413 for decoded-size-cap hits).
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

from repro.exceptions import DecodedSizeError, ValidationError, WireFormatError
from repro.utils.validation import check_label_column

try:  # optional codec: present when the zstandard package is installed
    import zstandard as _zstandard
except ImportError:  # pragma: no cover - environment-dependent
    _zstandard = None  # type: ignore[assignment]

__all__ = [
    "CONTENT_TYPE_BASKETS",
    "CONTENT_TYPE_COLUMNS",
    "CONTENT_TYPE_NDJSON",
    "CONTENT_TYPE_PARTIAL",
    "MAGIC",
    "WIRE_CODEC_IDENTITY",
    "WIRE_CODEC_ZLIB",
    "WIRE_CODEC_ZSTD",
    "WIRE_VERSION",
    "WIRE_VERSION_BASKETS",
    "WIRE_VERSION_CLASSES",
    "WIRE_VERSION_PARTIAL",
    "WIRE_VERSION_QUANTIZED",
    "compress_payload",
    "decode_baskets",
    "decode_columns",
    "decode_labeled",
    "decode_partial",
    "decompress_payload",
    "encode_baskets",
    "encode_columns",
    "encode_ndjson",
    "encode_partial",
    "encode_quantized",
    "iter_basket_frames",
    "iter_frames",
    "iter_labeled_frames",
    "iter_labeled_ndjson",
    "iter_ndjson",
    "resolve_codec",
    "split_partial",
    "supported_codecs",
]

#: content type negotiating the binary columnar frames
CONTENT_TYPE_COLUMNS = "application/x-ppdm-columns"
#: content type for the newline-delimited JSON fallback
CONTENT_TYPE_NDJSON = "application/x-ndjson"
#: content type for cluster partial-sync bodies (version 3 frames)
CONTENT_TYPE_PARTIAL = "application/x-ppdm-partial"
#: content type for market-basket transaction bodies (version 4 frames)
CONTENT_TYPE_BASKETS = "application/x-ppdm-baskets"
#: the four magic bytes every columnar frame starts with
MAGIC = b"PPDM"
#: unlabeled frame version (the PR 4 layout, still fully supported)
WIRE_VERSION = 1
#: class-aware frame version: adds an optional int32 class column
WIRE_VERSION_CLASSES = 2
#: partial frame version: merged per-class histogram counts (cluster sync)
WIRE_VERSION_PARTIAL = 3
#: basket frame version: varint transaction lists of item ids (mining)
WIRE_VERSION_BASKETS = 4
#: quantized frame version: per-column dtype codes (int8/int16 bin indices)
WIRE_VERSION_QUANTIZED = 5
#: codec token for uncompressed request bodies (the HTTP default)
WIRE_CODEC_IDENTITY = "identity"
#: codec token for zlib-compressed bodies (stdlib, always available)
WIRE_CODEC_ZLIB = "zlib"
#: codec token for zstd-compressed bodies (needs the zstandard package)
WIRE_CODEC_ZSTD = "zstd"

_HEADER = struct.Struct("<4sHHi")
_NAME_LEN = struct.Struct("<H")
_ROW_COUNT = struct.Struct("<Q")
_CLASS_COUNT = struct.Struct("<Q")
_DTYPE_CODE = struct.Struct("<B")
_F8 = np.dtype("<f8")
_I4 = np.dtype("<i4")
_I1 = np.dtype("<i1")
_I2 = np.dtype("<i2")
#: v5 dtype codes -> column dtypes (0 = raw float64 values, 1/2 = bin indices)
_DTYPE_BY_CODE = {0: _F8, 1: _I1, 2: _I2}
_CODE_BY_DTYPE = {_F8: 0, _I1: 1, _I2: 2}
#: decode-bomb guard shared by every frame decoder: a single frame may not
#: expand past this many cells, however plausible its byte length looks
_MAX_FRAME_CELLS = 1 << 28


def _encode_class_column(classes) -> np.ndarray:
    """Validate and convert a class column to little-endian int32."""
    arr = check_label_column(classes)
    if arr.size and (arr.min() < -(2**31) or arr.max() >= 2**31):
        raise ValidationError("class labels must fit in a signed 32-bit int")
    return np.ascontiguousarray(arr, dtype=_I4)


def encode_columns(batch, *, shard: int | None = None, classes=None) -> bytes:
    """Encode one ``{attribute: values}`` batch as a columnar frame.

    Parameters
    ----------
    batch:
        Mapping of attribute name to a 1-D sequence of float values.
    shard:
        Optional shard pin carried in the frame header (``None`` routes
        round-robin on the server).
    classes:
        Optional class column: one integer label per record.  Every
        attribute column must then have exactly that many rows, and the
        frame is emitted as wire version 2 (without ``classes`` — or
        with an empty column, which carries no labels — the
        byte-for-byte version 1 layout is produced, so old servers keep
        decoding unlabeled frames).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.service.wire import decode_columns, decode_labeled, encode_columns
    >>> frame = encode_columns({"age": [31.5, 47.0]}, shard=2)
    >>> frame[:4]
    b'PPDM'
    >>> batch, shard = decode_columns(frame)
    >>> batch["age"].tolist(), shard
    ([31.5, 47.0], 2)
    >>> labeled = encode_columns({"age": [31.5, 47.0]}, classes=[0, 1])
    >>> batch, classes, shard = decode_labeled(labeled)
    >>> classes.tolist(), shard
    ([0, 1], None)
    """
    if not isinstance(batch, dict):
        raise ValidationError("batch must map attribute -> values")
    class_column = None
    if classes is not None:
        class_column = _encode_class_column(classes)
        if class_column.size == 0:
            # an empty class column carries no labels: emit the plain
            # unlabeled v1 frame (empty != mismatched)
            class_column = None
    columns = []
    table = []
    for name, values in batch.items():
        if not isinstance(name, str) or not name:
            raise ValidationError("attribute names must be non-empty strings")
        encoded_name = name.encode("utf-8")
        if len(encoded_name) > 0xFFFF:
            raise ValidationError(f"attribute name {name!r} is too long")
        arr = np.ascontiguousarray(values, dtype=_F8)
        if arr.ndim != 1:
            raise ValidationError(
                f"batch[{name!r}] must be 1-dimensional, got shape {arr.shape}"
            )
        if class_column is not None and arr.size != class_column.size:
            raise ValidationError(
                f"batch[{name!r}] has {arr.size} row(s) but the class "
                f"column has {class_column.size}; labeled frames need one "
                "class label per record"
            )
        table.append(
            _NAME_LEN.pack(len(encoded_name))
            + encoded_name
            + _ROW_COUNT.pack(arr.size)
        )
        columns.append(arr.tobytes())
    if len(batch) > 0xFFFF:
        raise ValidationError("a frame holds at most 65535 attributes")
    if class_column is None:
        header = _HEADER.pack(
            MAGIC, WIRE_VERSION, len(batch), -1 if shard is None else int(shard)
        )
        return header + b"".join(table) + b"".join(columns)
    header = _HEADER.pack(
        MAGIC,
        WIRE_VERSION_CLASSES,
        len(batch),
        -1 if shard is None else int(shard),
    )
    return (
        header
        + _CLASS_COUNT.pack(class_column.size)
        + b"".join(table)
        + class_column.tobytes()
        + b"".join(columns)
    )


def encode_quantized(batch, *, shard: int | None = None, classes=None) -> bytes:
    """Encode a batch as a version 5 frame with per-column dtype codes.

    Integer columns are treated as *pre-located bin indices* — the
    values :meth:`repro.core.Partition.locate` (or
    :meth:`~repro.service.AggregationService.quantize`) produces — and
    ship at their natural width: int8 when every index fits in a signed
    byte, int16 otherwise (indices above 32767 are rejected; no
    attribute grid is that fine).  Float columns ship as raw float64,
    byte-for-byte the v1/v2 column payload, so mixed batches work.

    Parameters
    ----------
    batch:
        Mapping of attribute name to a 1-D sequence.  Integer dtypes
        (including int8/int16 arrays, passed through unwidened) become
        quantized columns; everything else is encoded as float64 values.
    shard:
        Optional shard pin carried in the frame header.
    classes:
        Optional class column, one integer label per record — exactly
        the :func:`encode_columns` contract.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.service.wire import decode_labeled, encode_quantized
    >>> frame = encode_quantized({"age": np.array([0, 3, 1], dtype=np.int8)})
    >>> frame[:4], frame[4]
    (b'PPDM', 5)
    >>> batch, classes, shard = decode_labeled(frame)
    >>> batch["age"].tolist(), batch["age"].dtype.name
    ([0, 3, 1], 'int8')
    """
    if not isinstance(batch, dict):
        raise ValidationError("batch must map attribute -> values")
    if len(batch) > 0xFFFF:
        raise ValidationError("a frame holds at most 65535 attributes")
    class_column = None
    if classes is not None:
        class_column = _encode_class_column(classes)
        if class_column.size == 0:
            class_column = None
    columns = []
    table = []
    for name, values in batch.items():
        if not isinstance(name, str) or not name:
            raise ValidationError("attribute names must be non-empty strings")
        encoded_name = name.encode("utf-8")
        if len(encoded_name) > 0xFFFF:
            raise ValidationError(f"attribute name {name!r} is too long")
        arr = np.asarray(values)
        if arr.dtype.kind in "iu":
            if arr.ndim != 1:
                raise ValidationError(
                    f"batch[{name!r}] must be 1-dimensional, got shape "
                    f"{arr.shape}"
                )
            if arr.size and int(arr.min()) < 0:
                raise ValidationError(
                    f"batch[{name!r}] holds negative bin indices; quantized "
                    "columns carry locations on the attribute grid"
                )
            if arr.size and int(arr.max()) > 0x7FFF:
                raise ValidationError(
                    f"batch[{name!r}] holds bin index {int(arr.max())}; "
                    "quantized columns cap indices at 32767 (int16)"
                )
            if arr.dtype not in (_I1, _I2):
                narrow = _I1 if (not arr.size or int(arr.max()) <= 0x7F) else _I2
                arr = arr.astype(narrow)
        else:
            arr = np.ascontiguousarray(values, dtype=_F8)
            if arr.ndim != 1:
                raise ValidationError(
                    f"batch[{name!r}] must be 1-dimensional, got shape "
                    f"{arr.shape}"
                )
        if class_column is not None and arr.size != class_column.size:
            raise ValidationError(
                f"batch[{name!r}] has {arr.size} row(s) but the class "
                f"column has {class_column.size}; labeled frames need one "
                "class label per record"
            )
        code = _CODE_BY_DTYPE[arr.dtype]
        table.append(
            _NAME_LEN.pack(len(encoded_name))
            + encoded_name
            + _ROW_COUNT.pack(arr.size)
            + _DTYPE_CODE.pack(code)
        )
        columns.append(np.ascontiguousarray(arr, dtype=_DTYPE_BY_CODE[code]).tobytes())
    header = _HEADER.pack(
        MAGIC,
        WIRE_VERSION_QUANTIZED,
        len(batch),
        -1 if shard is None else int(shard),
    )
    return (
        header
        + _CLASS_COUNT.pack(0 if class_column is None else class_column.size)
        + b"".join(table)
        + (b"" if class_column is None else class_column.tobytes())
        + b"".join(columns)
    )


def _decode_frame(view: memoryview, offset: int) -> tuple:
    """Decode one frame at ``offset``.

    Returns ``(batch, shard, classes, next_offset)`` — ``classes`` is
    ``None`` for frames without a class column.
    """
    end = len(view)
    if end - offset < _HEADER.size:
        raise ValidationError(
            f"truncated columnar frame: {end - offset} byte(s) left, "
            f"header needs {_HEADER.size}"
        )
    magic, version, n_attributes, shard = _HEADER.unpack_from(view, offset)
    if magic != MAGIC:
        raise ValidationError(
            f"bad frame magic {bytes(magic)!r}; expected {MAGIC!r} "
            f"(is the body really {CONTENT_TYPE_COLUMNS}?)"
        )
    if version not in (WIRE_VERSION, WIRE_VERSION_CLASSES, WIRE_VERSION_QUANTIZED):
        raise ValidationError(
            f"unsupported wire version {version}; this server speaks "
            f"versions {WIRE_VERSION}, {WIRE_VERSION_CLASSES}, and "
            f"{WIRE_VERSION_QUANTIZED}"
        )
    offset += _HEADER.size
    class_rows = 0
    if version in (WIRE_VERSION_CLASSES, WIRE_VERSION_QUANTIZED):
        if end - offset < _CLASS_COUNT.size:
            raise ValidationError(
                f"truncated columnar frame: version {version} header needs "
                "a class row count"
            )
        (class_rows,) = _CLASS_COUNT.unpack_from(view, offset)
        offset += _CLASS_COUNT.size
    names = []
    rows = []
    dtypes = []
    for _ in range(n_attributes):
        if end - offset < _NAME_LEN.size:
            raise ValidationError("truncated columnar frame attribute table")
        (name_len,) = _NAME_LEN.unpack_from(view, offset)
        offset += _NAME_LEN.size
        entry_tail = _ROW_COUNT.size
        if version == WIRE_VERSION_QUANTIZED:
            entry_tail += _DTYPE_CODE.size
        if end - offset < name_len + entry_tail:
            raise ValidationError("truncated columnar frame attribute table")
        try:
            name = str(view[offset : offset + name_len], "utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"attribute name is not UTF-8: {exc}") from exc
        offset += name_len
        (row_count,) = _ROW_COUNT.unpack_from(view, offset)
        offset += _ROW_COUNT.size
        dtype = _F8
        if version == WIRE_VERSION_QUANTIZED:
            (code,) = _DTYPE_CODE.unpack_from(view, offset)
            offset += _DTYPE_CODE.size
            dtype = _DTYPE_BY_CODE.get(code)
            if dtype is None:
                raise WireFormatError(
                    f"quantized frame: column {name!r} declares unknown "
                    f"dtype code {code}; this server speaks codes "
                    f"{sorted(_DTYPE_BY_CODE)}"
                )
        if name in names:
            raise ValidationError(f"duplicate attribute {name!r} in frame")
        if class_rows and row_count != class_rows:
            raise ValidationError(
                f"labeled frame: column {name!r} declares {row_count} "
                f"row(s) but the class column has {class_rows}"
            )
        names.append(name)
        rows.append(row_count)
        dtypes.append(dtype)
    total_cells = class_rows + sum(rows)
    if total_cells > _MAX_FRAME_CELLS:
        raise WireFormatError(
            f"columnar frame declares {total_cells} cells across "
            f"{n_attributes} column(s); the decoder caps frames at "
            f"{_MAX_FRAME_CELLS}"
        )
    classes = None
    if class_rows:
        nbytes = class_rows * _I4.itemsize
        if end - offset < nbytes:
            raise ValidationError(
                f"truncated columnar frame: the class column declares "
                f"{class_rows} rows but only {end - offset} byte(s) remain"
            )
        classes = np.frombuffer(view, dtype=_I4, count=class_rows, offset=offset)
        offset += nbytes
    batch = {}
    for name, row_count, dtype in zip(names, rows, dtypes):
        nbytes = row_count * dtype.itemsize
        if end - offset < nbytes:
            raise ValidationError(
                f"truncated columnar frame: column {name!r} declares "
                f"{row_count} rows but only {end - offset} byte(s) remain"
            )
        batch[name] = np.frombuffer(view, dtype=dtype, count=row_count, offset=offset)
        offset += nbytes
    return batch, (None if shard < 0 else shard), classes, offset


def decode_columns(payload) -> tuple:
    """Decode a single unlabeled columnar frame; return ``(batch, shard)``.

    The inverse of :func:`encode_columns`.  Columns come back as
    read-only ``float64`` views into ``payload`` — no bytes are copied.
    Trailing bytes after the frame are an error; bodies carrying several
    concatenated frames go through :func:`iter_frames`.  Frames carrying
    a class column are rejected (decode those with
    :func:`decode_labeled`, which returns the classes too).

    Examples
    --------
    >>> from repro.service.wire import decode_columns, encode_columns
    >>> batch, shard = decode_columns(encode_columns({"x": [0.5]}))
    >>> batch["x"].tolist(), shard
    ([0.5], None)
    """
    batch, classes, shard = decode_labeled(payload)
    if classes is not None:
        raise ValidationError(
            "frame carries a class column; decode it with decode_labeled()"
        )
    return batch, shard


def decode_labeled(payload) -> tuple:
    """Decode a single columnar frame; return ``(batch, classes, shard)``.

    Accepts record wire versions 1, 2, and 5: ``classes`` is a
    read-only int32 view for frames carrying a class column and
    ``None`` otherwise.  Version 5 (quantized) columns come back at
    their declared width — int8/int16 bin indices stay narrow.

    Examples
    --------
    >>> from repro.service.wire import decode_labeled, encode_columns
    >>> frame = encode_columns({"x": [0.5, 0.9]}, classes=[1, 0], shard=2)
    >>> batch, classes, shard = decode_labeled(frame)
    >>> batch["x"].tolist(), classes.tolist(), shard
    ([0.5, 0.9], [1, 0], 2)
    """
    view = memoryview(payload)
    batch, shard, classes, offset = _decode_frame(view, 0)
    if offset != len(view):
        raise ValidationError(
            f"{len(view) - offset} trailing byte(s) after the frame; "
            "multi-frame bodies decode with iter_frames()"
        )
    return batch, classes, shard


def iter_frames(payload):
    """Yield ``(batch, shard)`` for every concatenated frame in ``payload``.

    The unlabeled decode loop: each column is a zero-copy
    ``np.frombuffer`` view.  Labeled frames (version 2 with a class
    column) are rejected so their classes can never be silently dropped
    — iterate those with :func:`iter_labeled_frames`.

    Examples
    --------
    >>> from repro.service.wire import encode_columns, iter_frames
    >>> body = encode_columns({"x": [0.1]}) + encode_columns({"x": [0.9]}, shard=1)
    >>> [(b["x"].tolist(), s) for b, s in iter_frames(body)]
    [([0.1], None), ([0.9], 1)]
    """
    for batch, classes, shard in iter_labeled_frames(payload):
        if classes is not None:
            raise ValidationError(
                "frame carries a class column; iterate with "
                "iter_labeled_frames()"
            )
        yield batch, shard


def iter_labeled_frames(payload):
    """Yield ``(batch, classes, shard)`` for every frame in ``payload``.

    The decoder behind ``POST /ingest`` with
    ``Content-Type: application/x-ppdm-columns``: version 1, 2, and 5
    frames may be freely mixed in one body, and each column — including
    the class column — is decoded as a zero-copy ``np.frombuffer`` view
    (quantized version 5 columns at their declared int8/int16 width).

    Examples
    --------
    >>> from repro.service.wire import encode_columns, iter_labeled_frames
    >>> body = encode_columns({"x": [0.1]}) + encode_columns(
    ...     {"x": [0.9]}, classes=[1]
    ... )
    >>> [(b["x"].tolist(), None if c is None else c.tolist(), s)
    ...  for b, c, s in iter_labeled_frames(body)]
    [([0.1], None, None), ([0.9], [1], None)]
    """
    view = memoryview(payload)
    offset = 0
    while offset < len(view):
        batch, shard, classes, offset = _decode_frame(view, offset)
        yield batch, classes, shard


def encode_partial(partials) -> bytes:
    """Encode merged per-class histogram partials as one version 3 frame.

    ``partials`` maps attribute name to a 2-D ``(n_blocks, bins)`` count
    matrix — exactly the shape
    :meth:`~repro.service.AggregationService.export_partial` produces
    (row 0 unlabeled, row ``c + 1`` class ``c``).  Every attribute must
    share one block count; counts must be finite, non-negative, and
    integer-valued (histogram counts, not arbitrary floats).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.service.wire import decode_partial, encode_partial
    >>> frame = encode_partial({"age": np.array([[2.0, 1.0], [0.0, 3.0]])})
    >>> frame[:4]
    b'PPDM'
    >>> decode_partial(frame)["age"].tolist()
    [[2.0, 1.0], [0.0, 3.0]]
    """
    if not isinstance(partials, dict) or not partials:
        raise ValidationError(
            "partials must be a non-empty mapping of attribute -> "
            "(n_blocks, bins) counts"
        )
    if len(partials) > 0xFFFF:
        raise ValidationError("a partial frame holds at most 65535 attributes")
    n_blocks = None
    table = []
    blocks = []
    for name, counts in partials.items():
        if not isinstance(name, str) or not name:
            raise ValidationError("attribute names must be non-empty strings")
        encoded_name = name.encode("utf-8")
        if len(encoded_name) > 0xFFFF:
            raise ValidationError(f"attribute name {name!r} is too long")
        matrix = np.ascontiguousarray(counts, dtype=_F8)
        if matrix.ndim != 2 or matrix.shape[0] < 1:
            raise ValidationError(
                f"partials[{name!r}] must be a (n_blocks, bins) matrix, "
                f"got shape {matrix.shape}"
            )
        if n_blocks is None:
            n_blocks = matrix.shape[0]
        elif matrix.shape[0] != n_blocks:
            raise ValidationError(
                f"partials[{name!r}] has {matrix.shape[0]} class block(s); "
                f"other attributes have {n_blocks} — one schema per frame"
            )
        _check_partial_counts(name, matrix)
        table.append(
            _NAME_LEN.pack(len(encoded_name))
            + encoded_name
            + _ROW_COUNT.pack(matrix.shape[1])
        )
        blocks.append(matrix.tobytes())
    if n_blocks is None or n_blocks > 0x7FFFFFFF:
        raise ValidationError(f"partial frame cannot hold {n_blocks} blocks")
    header = _HEADER.pack(MAGIC, WIRE_VERSION_PARTIAL, len(partials), n_blocks)
    return header + b"".join(table) + b"".join(blocks)


def _check_partial_counts(name: str, matrix: np.ndarray) -> None:
    """Histogram counts only: finite, non-negative, integer-valued."""
    if not np.all(np.isfinite(matrix)):
        raise ValidationError(
            f"partial counts for {name!r} contain non-finite values"
        )
    if matrix.size and float(matrix.min()) < 0.0:
        raise ValidationError(
            f"partial counts for {name!r} contain negative values"
        )
    if not np.array_equal(matrix, np.floor(matrix)):
        raise ValidationError(
            f"partial counts for {name!r} are not integer-valued "
            "histogram counts"
        )


def split_partial(payload) -> tuple:
    """Decode a leading version 3 frame; return ``(partials, remainder)``.

    The sync-body decoder: a push/pull body is one partial frame,
    optionally followed by concatenated labeled record frames (a
    training worker's row buffer).  ``remainder`` is the bytes after the
    partial frame (empty when the body is the frame alone), ready for
    :func:`iter_labeled_frames`.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.service.wire import encode_partial, split_partial
    >>> frame = encode_partial({"x": np.array([[1.0, 0.0]])})
    >>> partials, rest = split_partial(frame + b"tail")
    >>> partials["x"].tolist(), bytes(rest)
    ([[1.0, 0.0]], b'tail')
    """
    view = memoryview(payload)
    end = len(view)
    if end < _HEADER.size:
        raise ValidationError(
            f"truncated partial frame: {end} byte(s), header needs "
            f"{_HEADER.size}"
        )
    magic, version, n_attributes, n_blocks = _HEADER.unpack_from(view, 0)
    if magic != MAGIC:
        raise ValidationError(
            f"bad frame magic {bytes(magic)!r}; expected {MAGIC!r} "
            f"(is the body really {CONTENT_TYPE_PARTIAL}?)"
        )
    if version != WIRE_VERSION_PARTIAL:
        raise ValidationError(
            f"expected a version {WIRE_VERSION_PARTIAL} partial frame, "
            f"got version {version}"
        )
    if n_attributes < 1:
        raise ValidationError("a partial frame needs at least one attribute")
    if n_blocks < 1:
        raise ValidationError(
            f"partial frame declares {n_blocks} class block(s); needs >= 1"
        )
    offset = _HEADER.size
    names = []
    bins = []
    for _ in range(n_attributes):
        if end - offset < _NAME_LEN.size:
            raise ValidationError("truncated partial frame attribute table")
        (name_len,) = _NAME_LEN.unpack_from(view, offset)
        offset += _NAME_LEN.size
        if end - offset < name_len + _ROW_COUNT.size:
            raise ValidationError("truncated partial frame attribute table")
        try:
            name = str(view[offset : offset + name_len], "utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"attribute name is not UTF-8: {exc}") from exc
        offset += name_len
        (bin_count,) = _ROW_COUNT.unpack_from(view, offset)
        offset += _ROW_COUNT.size
        if name in names:
            raise ValidationError(f"duplicate attribute {name!r} in frame")
        if bin_count < 1:
            raise ValidationError(
                f"partial frame: attribute {name!r} declares 0 bins"
            )
        names.append(name)
        bins.append(bin_count)
    total_cells = n_blocks * sum(bins)
    if total_cells > _MAX_FRAME_CELLS:
        raise WireFormatError(
            f"partial frame declares {n_blocks} block(s) x {sum(bins)} "
            f"bin(s) = {total_cells} cells; the decoder caps frames at "
            f"{_MAX_FRAME_CELLS}"
        )
    partials = {}
    for name, bin_count in zip(names, bins):
        n_values = n_blocks * bin_count
        nbytes = n_values * _F8.itemsize
        if end - offset < nbytes:
            raise ValidationError(
                f"truncated partial frame: attribute {name!r} declares "
                f"{n_blocks} x {bin_count} counts but only {end - offset} "
                "byte(s) remain"
            )
        flat = np.frombuffer(view, dtype=_F8, count=n_values, offset=offset)
        matrix = flat.reshape(n_blocks, bin_count)
        _check_partial_counts(name, matrix)
        partials[name] = matrix
        offset += nbytes
    return partials, view[offset:]


def decode_partial(payload) -> dict:
    """Decode a body holding exactly one version 3 partial frame.

    The inverse of :func:`encode_partial`: returns the
    ``{attribute: (n_blocks, bins) counts}`` mapping, with every count
    validated finite, non-negative, and integer-valued.  Trailing bytes
    are an error — bodies that append labeled record frames after the
    partial go through :func:`split_partial`.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.service.wire import decode_partial, encode_partial
    >>> partials = decode_partial(encode_partial({"x": np.eye(2)}))
    >>> sorted(partials), partials["x"].shape
    (['x'], (2, 2))
    """
    partials, rest = split_partial(payload)
    if len(rest):
        raise ValidationError(
            f"{len(rest)} trailing byte(s) after the partial frame; "
            "partial-plus-rows bodies decode with split_partial()"
        )
    return partials


#: a varint never needs more than 10 bytes (70 value bits > 64)
_VARINT_MAX_BYTES = 10


def _encode_varint(value: int) -> bytes:
    """LEB128-encode a non-negative integer (7 value bits per byte)."""
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _decode_varint(view: memoryview, offset: int, end: int, what: str) -> tuple:
    """Decode one LEB128 varint; return ``(value, next_offset)``."""
    value = 0
    shift = 0
    for length in range(1, _VARINT_MAX_BYTES + 1):
        chunk = view[offset : offset + 1] if offset < end else b""
        if not len(chunk):
            raise ValidationError(f"truncated basket frame: {what} varint")
        byte = chunk[0]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if value >= 1 << 64:
                raise ValidationError(
                    f"basket frame: {what} varint exceeds 64 bits"
                )
            return value, offset
        shift += 7
    raise ValidationError(
        f"basket frame: {what} varint runs past {_VARINT_MAX_BYTES} bytes"
    )


def encode_baskets(baskets, *, shard: int | None = None) -> bytes:
    """Encode a boolean transaction matrix as one version 4 basket frame.

    ``baskets`` is the mining stack's native shape — a 2-D boolean
    matrix, one row per transaction, one column per item (what
    :func:`repro.mining.generate_baskets` produces and
    :class:`repro.mining.RandomizedResponse` randomizes).  Each row is
    shipped as the varint list of its set-column ids, so sparse baskets
    cost bytes proportional to their items, not to the item universe.
    Empty transactions (all-false rows — MASK randomization can produce
    them) encode as a zero-length id list.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.service.wire import decode_baskets, encode_baskets
    >>> matrix = np.array([[True, False, True], [False, False, False]])
    >>> frame = encode_baskets(matrix, shard=1)
    >>> frame[:4]
    b'PPDM'
    >>> decoded, shard = decode_baskets(frame)
    >>> decoded.tolist(), shard
    ([[True, False, True], [False, False, False]], 1)
    """
    matrix = np.asarray(baskets)
    if matrix.ndim != 2:
        raise ValidationError(
            f"baskets must be a 2-D boolean matrix, got shape {matrix.shape}"
        )
    if matrix.dtype != np.bool_:
        raise ValidationError(
            f"baskets must be a boolean matrix, got dtype {matrix.dtype}"
        )
    n_transactions, n_items = matrix.shape
    if n_transactions < 1:
        raise ValidationError("a basket frame needs at least one transaction")
    if not 1 <= n_items <= 0xFFFF:
        raise ValidationError(
            f"a basket frame holds 1..65535 items, got {n_items}"
        )
    index = []
    payload = []
    for row in matrix:
        encoded = b"".join(
            _encode_varint(int(item)) for item in np.nonzero(row)[0]
        )
        index.append(_encode_varint(len(encoded)))
        payload.append(encoded)
    header = _HEADER.pack(
        MAGIC, WIRE_VERSION_BASKETS, n_items, -1 if shard is None else int(shard)
    )
    return (
        header
        + _encode_varint(n_transactions)
        + b"".join(index)
        + b"".join(payload)
    )


def _decode_basket_frame(view: memoryview, offset: int) -> tuple:
    """Decode one basket frame at ``offset``.

    Returns ``(matrix, shard, next_offset)``.
    """
    end = len(view)
    if end - offset < _HEADER.size:
        raise ValidationError(
            f"truncated basket frame: {end - offset} byte(s) left, "
            f"header needs {_HEADER.size}"
        )
    magic, version, n_items, shard = _HEADER.unpack_from(view, offset)
    if magic != MAGIC:
        raise ValidationError(
            f"bad frame magic {bytes(magic)!r}; expected {MAGIC!r} "
            f"(is the body really {CONTENT_TYPE_BASKETS}?)"
        )
    if version != WIRE_VERSION_BASKETS:
        raise ValidationError(
            f"expected a version {WIRE_VERSION_BASKETS} basket frame, "
            f"got version {version} (record frames go through "
            f"{CONTENT_TYPE_COLUMNS})"
        )
    if n_items < 1:
        raise ValidationError("basket frame declares an empty item universe")
    offset += _HEADER.size
    n_transactions, offset = _decode_varint(view, offset, end, "transaction count")
    if n_transactions < 1:
        raise ValidationError("basket frame declares no transactions")
    if n_transactions > end - offset:
        # each transaction needs at least one index byte
        raise ValidationError(
            f"truncated basket frame: {n_transactions} transaction(s) "
            f"declared but only {end - offset} byte(s) remain"
        )
    if n_transactions * n_items > _MAX_FRAME_CELLS:
        raise WireFormatError(
            f"basket frame expands to {n_transactions} x {n_items} cells; "
            f"the decoder caps frames at {_MAX_FRAME_CELLS}"
        )
    lengths = []
    for i in range(n_transactions):
        length, offset = _decode_varint(view, offset, end, f"index[{i}]")
        lengths.append(length)
    matrix = np.zeros((n_transactions, n_items), dtype=bool)
    for i, length in enumerate(lengths):
        if end - offset < length:
            raise ValidationError(
                f"truncated basket frame: transaction {i} declares "
                f"{length} byte(s) but only {end - offset} remain"
            )
        stop = offset + length
        previous = -1
        while offset < stop:
            item, offset = _decode_varint(view, offset, stop, f"transaction {i}")
            if item >= n_items:
                raise ValidationError(
                    f"basket frame: transaction {i} holds item {item}, "
                    f"outside the declared universe of {n_items}"
                )
            if item <= previous:
                raise ValidationError(
                    f"basket frame: transaction {i} item ids must be "
                    f"strictly increasing ({item} after {previous})"
                )
            matrix[i, item] = True
            previous = item
    return matrix, (None if shard < 0 else shard), offset


def decode_baskets(payload) -> tuple:
    """Decode a single basket frame; return ``(matrix, shard)``.

    The inverse of :func:`encode_baskets`.  Trailing bytes after the
    frame are an error; bodies carrying several concatenated frames go
    through :func:`iter_basket_frames`.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.service.wire import decode_baskets, encode_baskets
    >>> matrix, shard = decode_baskets(encode_baskets(np.eye(2, dtype=bool)))
    >>> matrix.tolist(), shard
    ([[True, False], [False, True]], None)
    """
    view = memoryview(payload)
    matrix, shard, offset = _decode_basket_frame(view, 0)
    if offset != len(view):
        raise ValidationError(
            f"{len(view) - offset} trailing byte(s) after the basket frame; "
            "multi-frame bodies decode with iter_basket_frames()"
        )
    return matrix, shard


def iter_basket_frames(payload):
    """Yield ``(matrix, shard)`` for every basket frame in ``payload``.

    The decoder behind ``POST /ingest`` with
    ``Content-Type: application/x-ppdm-baskets``: frames are
    self-delimiting, so one body may concatenate any number of them.
    Every frame must share one item universe with its predecessors —
    mixed widths (or a stray v1-v3 frame) are a malformed body.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.service.wire import encode_baskets, iter_basket_frames
    >>> body = encode_baskets(np.eye(2, dtype=bool)) + encode_baskets(
    ...     np.zeros((1, 2), dtype=bool), shard=1
    ... )
    >>> [(int(m.sum()), s) for m, s in iter_basket_frames(body)]
    [(2, None), (0, 1)]
    """
    view = memoryview(payload)
    offset = 0
    n_items = None
    while offset < len(view):
        matrix, shard, offset = _decode_basket_frame(view, offset)
        if n_items is None:
            n_items = matrix.shape[1]
        elif matrix.shape[1] != n_items:
            raise ValidationError(
                f"basket body mixes item universes: frame declares "
                f"{matrix.shape[1]} item(s), previous frames {n_items}"
            )
        yield matrix, shard


def encode_ndjson(frames) -> bytes:
    """Encode ``(batch, shard)`` pairs as newline-delimited JSON.

    The curl-able fallback with the same many-batches-per-body shape as
    the columnar format: each line is exactly a ``POST /ingest`` JSON
    body (``{"batch": {...}, "shard": i}``, the shard key omitted when
    unpinned).

    Examples
    --------
    >>> from repro.service.wire import encode_ndjson
    >>> encode_ndjson([({"x": [0.5]}, None), ({"x": [0.9]}, 1)])
    b'{"batch": {"x": [0.5]}}\\n{"batch": {"x": [0.9]}, "shard": 1}\\n'
    """
    lines = []
    for batch, shard in frames:
        if not isinstance(batch, dict):
            raise ValidationError("batch must map attribute -> values")
        payload = {
            "batch": {
                name: np.asarray(values, dtype=float).tolist()
                for name, values in batch.items()
            }
        }
        if shard is not None:
            payload["shard"] = int(shard)
        lines.append(json.dumps(payload).encode())
    return b"\n".join(lines) + (b"\n" if lines else b"")


def iter_ndjson(payload):
    """Yield ``(batch, shard)`` for every line of an NDJSON body.

    Blank lines are skipped, so trailing newlines and curl-assembled
    bodies are fine.  Each line must carry a ``"batch"`` object; an
    optional integer ``"shard"`` pins the batch.  Lines carrying a
    ``"classes"`` column are rejected so labels can never be silently
    dropped — iterate those with :func:`iter_labeled_ndjson`.

    Examples
    --------
    >>> from repro.service.wire import iter_ndjson
    >>> list(iter_ndjson(b'{"batch": {"x": [0.5]}, "shard": 0}\\n'))
    [({'x': [0.5]}, 0)]
    """
    for batch, classes, shard in iter_labeled_ndjson(payload):
        if classes is not None:
            raise ValidationError(
                "NDJSON line carries a 'classes' column; iterate with "
                "iter_labeled_ndjson()"
            )
        yield batch, shard


def iter_labeled_ndjson(payload):
    """Yield ``(batch, classes, shard)`` for every line of an NDJSON body.

    Like :func:`iter_ndjson`, plus an optional ``"classes"`` key per
    line: a JSON list with one integer class label per record
    (``None`` when absent — the unlabeled partition).

    Examples
    --------
    >>> from repro.service.wire import iter_labeled_ndjson
    >>> body = b'{"batch": {"x": [0.5]}, "classes": [1], "shard": 0}\\n'
    >>> list(iter_labeled_ndjson(body))
    [({'x': [0.5]}, [1], 0)]
    """
    for lineno, line in enumerate(bytes(payload).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValidationError(
                f"NDJSON line {lineno} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(record, dict) or "batch" not in record:
            raise ValidationError(
                f'NDJSON line {lineno} must be {{"batch": {{name: [values]}}}}'
            )
        batch = record["batch"]
        if not isinstance(batch, dict):
            raise ValidationError(
                f"NDJSON line {lineno}: 'batch' must map attribute -> values"
            )
        shard = record.get("shard")
        if shard is not None and not isinstance(shard, int):
            raise ValidationError(
                f"NDJSON line {lineno}: 'shard' must be an integer, "
                f"got {type(shard).__name__}"
            )
        classes = record.get("classes")
        if classes is not None and not isinstance(classes, list):
            raise ValidationError(
                f"NDJSON line {lineno}: 'classes' must be a list of "
                f"integer labels, got {type(classes).__name__}"
            )
        yield batch, classes, shard


def supported_codecs() -> tuple:
    """Return the codec tokens this process can decode, identity first.

    zstd appears only when the optional ``zstandard`` package imports —
    the tuple is what a 415 response advertises, so clients learn
    exactly which ``Content-Encoding`` values this server accepts.

    Examples
    --------
    >>> from repro.service.wire import supported_codecs
    >>> supported_codecs()[:2]
    ('identity', 'zlib')
    """
    if _zstandard is None:
        return (WIRE_CODEC_IDENTITY, WIRE_CODEC_ZLIB)
    return (WIRE_CODEC_IDENTITY, WIRE_CODEC_ZLIB, WIRE_CODEC_ZSTD)


def resolve_codec(token) -> str | None:
    """Normalize a ``Content-Encoding`` token to a supported codec name.

    Returns one of :func:`supported_codecs` — ``None``/empty/
    ``identity`` map to :data:`WIRE_CODEC_IDENTITY`, ``deflate`` is an
    alias for zlib — or ``None`` when the token names a codec this
    process cannot decode (unknown encodings, or zstd without the
    ``zstandard`` package).  Matching is case-insensitive and ignores
    surrounding whitespace, per RFC 9110.

    Examples
    --------
    >>> from repro.service.wire import resolve_codec
    >>> resolve_codec(None), resolve_codec(" ZLIB "), resolve_codec("deflate")
    ('identity', 'zlib', 'zlib')
    >>> resolve_codec("br") is None
    True
    """
    if token is None:
        return WIRE_CODEC_IDENTITY
    name = str(token).strip().lower()
    if name in ("", WIRE_CODEC_IDENTITY):
        return WIRE_CODEC_IDENTITY
    if name in (WIRE_CODEC_ZLIB, "deflate"):
        return WIRE_CODEC_ZLIB
    if name == WIRE_CODEC_ZSTD and _zstandard is not None:
        return WIRE_CODEC_ZSTD
    return None


def compress_payload(payload, codec: str) -> bytes:
    """Compress an encoded wire body with ``codec``.

    The single compression implementation behind ``ppdm ingest --codec``
    and the cluster tier's :class:`~repro.service.PartialShipper`:
    ``identity`` returns the bytes unchanged, ``zlib`` uses the stdlib
    at its default level, ``zstd`` needs the optional ``zstandard``
    package.  The codec applies to the *whole* request body — any
    number of concatenated frames, any mix of versions — and rides the
    ``Content-Encoding`` header, never the frame bytes themselves.

    Examples
    --------
    >>> from repro.service.wire import compress_payload, decompress_payload
    >>> body = b"PPDM" + bytes(1000)
    >>> wire = compress_payload(body, "zlib")
    >>> len(wire) < len(body)
    True
    >>> decompress_payload(wire, "zlib", max_decoded=2000) == body
    True
    """
    data = bytes(payload)
    if codec == WIRE_CODEC_IDENTITY:
        return data
    if codec == WIRE_CODEC_ZLIB:
        return zlib.compress(data)
    if codec == WIRE_CODEC_ZSTD:
        if _zstandard is None:
            raise ValidationError(
                "the zstd codec needs the optional zstandard package"
            )
        return _zstandard.ZstdCompressor().compress(data)
    raise ValidationError(
        f"unknown codec {codec!r}; this process supports "
        f"{', '.join(supported_codecs())}"
    )


def decompress_payload(payload, codec: str, *, max_decoded: int) -> bytes:
    """Decompress a request body, bounded by an explicit decoded-size cap.

    The inverse of :func:`compress_payload`, and the only decode path
    the HTTP front end uses: a compressed body breaks the
    ``Content-Length ≈ decoded size`` assumption, so the decoder never
    trusts the stream — zlib decodes through a streamed
    ``decompressobj`` with ``max_length`` and zstd through its own
    output-size bound.  A stream that would expand past ``max_decoded``
    raises :class:`~repro.exceptions.DecodedSizeError` (mapped to 413);
    truncated or corrupt streams raise
    :class:`~repro.exceptions.WireFormatError` (mapped to 400).  Either
    way the caller has already read the full wire body, so a keep-alive
    connection stays usable.

    Examples
    --------
    >>> import zlib
    >>> from repro.service.wire import decompress_payload
    >>> decompress_payload(zlib.compress(b"frame"), "zlib", max_decoded=64)
    b'frame'
    >>> decompress_payload(zlib.compress(bytes(10_000)), "zlib", max_decoded=64)
    Traceback (most recent call last):
        ...
    repro.exceptions.DecodedSizeError: zlib body expands past the 64-byte decoded-size cap
    """
    data = bytes(payload)
    cap = int(max_decoded)
    if cap < 1:
        raise ValidationError(f"max_decoded must be positive, got {max_decoded}")
    if codec == WIRE_CODEC_IDENTITY:
        if len(data) > cap:
            raise DecodedSizeError(
                f"body is {len(data)} byte(s); the decoder caps bodies "
                f"at {cap}"
            )
        return data
    if codec == WIRE_CODEC_ZLIB:
        engine = zlib.decompressobj()
        try:
            decoded = engine.decompress(data, cap + 1)
        except zlib.error as exc:
            raise WireFormatError(f"corrupt zlib body: {exc}") from exc
        if len(decoded) > cap:
            raise DecodedSizeError(
                f"zlib body expands past the {cap}-byte decoded-size cap"
            )
        if not engine.eof:
            raise WireFormatError(
                "truncated zlib body: the stream ends mid-block"
            )
        if engine.unused_data:
            raise WireFormatError(
                f"{len(engine.unused_data)} trailing byte(s) after the "
                "zlib stream"
            )
        return decoded
    if codec == WIRE_CODEC_ZSTD:
        if _zstandard is None:
            raise ValidationError(
                "the zstd codec needs the optional zstandard package"
            )
        try:
            declared = _zstandard.frame_content_size(data)
        except _zstandard.ZstdError as exc:
            raise WireFormatError(f"corrupt zstd body: {exc}") from exc
        if declared not in (-1,) and declared > cap:
            raise DecodedSizeError(
                f"zstd body declares {declared} decoded byte(s); the "
                f"decoder caps bodies at {cap}"
            )
        try:
            return _zstandard.ZstdDecompressor().decompress(
                data, max_output_size=cap
            )
        except _zstandard.ZstdError as exc:
            text = str(exc).lower()
            if "output size" in text or "too small" in text:
                raise DecodedSizeError(
                    f"zstd body expands past the {cap}-byte decoded-size cap"
                ) from exc
            raise WireFormatError(
                f"corrupt or truncated zstd body: {exc}"
            ) from exc
    raise ValidationError(
        f"unknown codec {codec!r}; this process supports "
        f"{', '.join(supported_codecs())}"
    )


def _has_quantized_columns(batch) -> bool:
    """True when any decoded column carries bin indices (int8/int16)."""
    return any(
        isinstance(values, np.ndarray) and values.dtype.kind in "iu"
        for values in batch.values()
    )
