"""Streaming binary trace log: capture cheaply once, derive every view.

The in-memory collectors (:class:`~repro.obs.chrometrace.ChromeTraceBuilder`,
:class:`~repro.obs.schedstat.SchedStat`) are fine for demos but cost ~2.6x
a traced-off run and hold the whole trace in Python objects.  This module
is the production capture path: :class:`BinaryTraceWriter` subscribes to
the bus as a capture consumer, taking each record as it was emitted
(shape, time, positional values), and streams it to disk in a compact
pure-stdlib binary format; :class:`BinaryTraceReader` reads the file back
as the same ``(shape, time, values)`` records, and :func:`replay` hands
them to each consumer through the entry point the live bus uses, so
every consumer can be fed offline by the code that runs live::

    with BinaryTraceWriter("run.binlog") as writer, \\
            BUS.subscription(writer):
        machine.run_until(horizon)

    builder = ChromeTraceBuilder()
    replay("run.binlog", builder)          # identical to live collection

Format (``repro.binlog/1``; full record layout in docs/OBSERVABILITY.md):

* **varints** — unsigned LEB128; signed values zigzag-encoded first;
* **string table** — every string (event kinds, field names, node paths,
  thread names, string field values) is interned: an inline definition
  record on first use, a small integer id afterwards;
* **delta timestamps** — events store the signed delta from the previous
  event's timestamp, not the absolute time;
* **schema records** — every emit site passes a declared
  :class:`~repro.obs.events.Shape`, so the writer defines a *schema*
  (kind, field names, field types) the first time a shape appears and
  thereafter encodes the whole event as one ``struct``-packed slab
  through one generated positional encoder per schema — the hot path
  that keeps capture cheap enough to leave on.  Only a kind's first
  schema writes such fast records (a later shape's records are tried
  against it by field name).  Events that fit no schema (a later shape,
  drifted type, out-of-range int) fall back to a self-describing
  generic record, so *any* event stream round-trips;
* **sealed footer** — event count plus a SHA-256 over every preceding
  byte, so a truncated or corrupted log is rejected on read instead of
  silently under-reporting.
"""

from __future__ import annotations

import hashlib
import struct
from types import TracebackType
from typing import (
    IO,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
)

from repro.obs.events import SHAPES, Record, Shape, Subscriber, capture_of

#: format identifier: the file magic is this string's first four bytes
FORMAT = "repro.binlog/1"

#: file header: magic + one version byte
MAGIC = b"RBLG"
VERSION = 1

#: record type tags
_REC_STRING = 0x01
_REC_EVENT = 0x02
_REC_FOOTER = 0x03
_REC_SCHEMA = 0x04
_REC_FAST = 0x05

#: value type tags — used both inside generic event records and as the
#: per-field type codes of a schema definition
_VAL_NONE = 0x00
_VAL_BOOL = 0x01
_VAL_INT = 0x03
_VAL_FLOAT = 0x04
_VAL_STR = 0x05
#: generic records split bool into two zero-payload tags
_VAL_TRUE = 0x02

#: footer payload: u64-le event count + 32-byte SHA-256
_FOOTER_STRUCT = struct.Struct("<Q")
_DIGEST_SIZE = 32
_FLOAT_STRUCT = struct.Struct("<d")

#: writer buffer flush threshold (bytes)
_FLUSH_BYTES = 1 << 16


class BinlogError(ValueError):
    """A binary trace file that cannot be trusted: truncated, corrupted,
    wrong magic/version, or structurally malformed."""


class _FastPathMiss(Exception):
    """Raised by a schema encoder when the event does not fit its schema."""


def encode_varint(value: int) -> bytes:
    """Unsigned LEB128 bytes of ``value`` (must be >= 0)."""
    if value < 0:
        raise ValueError("varint value must be non-negative, got %d" % value)
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def encode_zigzag(value: int) -> bytes:
    """Signed integer as zigzag-mapped LEB128 bytes.

    Python ints are unbounded, so the mapping is written by sign rather
    than with the usual fixed-width shift trick; it agrees with protobuf
    zigzag on every 64-bit value and extends beyond.
    """
    return encode_varint((value << 1) if value >= 0
                         else ((-value << 1) - 1))


def decode_zigzag(value: int) -> int:
    """Inverse of the zigzag mapping used by :func:`encode_zigzag`."""
    return (value >> 1) if not (value & 1) else -((value + 1) >> 1)


# --- schema compilation ------------------------------------------------------


def _type_code(value: Any) -> int:
    """The schema type code describing ``value`` (bool before int!)."""
    value_type = type(value)
    if value_type is bool:
        return _VAL_BOOL
    if value_type is int:
        return _VAL_INT
    if value_type is float:
        return _VAL_FLOAT
    if value_type is str:
        return _VAL_STR
    if value is None:
        return _VAL_NONE
    raise TypeError("binlog cannot encode field of type %s"
                    % value_type.__name__)


#: struct format character indexed by schema type code: bool/int/str-id
#: pack as "q", float as "d", None takes no slot
_STRUCT_CHAR = ("", "q", "", "q", "d", "q")

#: the ints a slab's "q" field holds
_INT64 = range(-(1 << 63), 1 << 63)

#: the exact class each schema type code admits, indexed like
#: _STRUCT_CHAR (None is checked apart)
_CLASS_OF = (None, bool, None, int, float, str)

#: ``encoder(time, values)``: writes one record, reading exactly its
#: schema's field count from the ``values`` iterator
_Encoder = Callable[[int, Iterator[Any]], None]


class _Schema:
    """One compiled event shape: (kind, field names, field types).

    ``encode`` is the schema's generated positional encoder (see
    :func:`_compile_encoder`).  Only a kind's first schema writes fast
    records; a later schema of the same kind (the fair-queue
    ``tag-update`` after the hierarchy's, say) is still defined in the
    log, but its encoder hands every record to
    :meth:`BinaryTraceWriter._later_shape`.
    """

    __slots__ = ("kind", "keys", "types", "encode", "schema_id")

    def __init__(self, schema_id: int, kind: str, keys: Tuple[str, ...],
                 types: Tuple[int, ...], fast: bool,
                 writer: "BinaryTraceWriter") -> None:
        self.schema_id = schema_id
        self.kind = kind
        self.keys = keys
        self.types = types
        head = (bytes((_REC_FAST,)) + encode_varint(schema_id)
                if fast else None)
        self.encode = _compile_encoder(kind, keys, types, head, writer)


def _compile_encoder(kind: str, keys: Tuple[str, ...],
                     types: Tuple[int, ...], head: Optional[bytes],
                     writer: "BinaryTraceWriter") -> _Encoder:
    """Generate the positional ``encoder(time, values)`` for one schema.

    The generated function is the whole encoding hot path, for both
    capture modes: streaming capture feeds it an iterator over the
    emitted values, the deferred seal the pending list's own iterator.
    It first reads exactly one value per field, so the caller's iterator
    stays aligned whatever happens next.  It then delta-encodes the
    timestamp, type-checks each value, interns strings, and appends the
    record head plus one C-level ``struct``-packed slab in a single
    buffer append (the head rides along as an ``Ns`` field).  Everything it needs is bound as argument
    defaults so the body touches no ``self`` (the buffer is cleared in
    place by ``_flush``, so the binding stays valid for the writer's
    lifetime).  A value that does not fit the declared type — drifted
    type, out-of-range int — routes the record to the writer's generic
    path, which writes a self-describing record from a dict of the
    record's fields; the writer's timestamp/count state advances only on
    success, so the fallback re-encodes from untouched state.  With no
    ``head`` (a kind's later schema) every record goes to the writer's
    later-shape path instead.
    """
    names = ["v%d" % index for index in range(len(keys))]
    data = "{%s}" % ", ".join("%r: %s" % (key, name)
                              for key, name in zip(keys, names))
    lines = ["def encode(time, values, nx=next, pack=pack, head=head,"
             " buf=buffer, sget=sget, intern=intern, state=state,"
             " generic=generic, later=later, flush=flush, _miss=_miss,"
             " _errs=_errs, _kind=_kind):"]
    lines += ["    %s = nx(values)" % name for name in names]
    pack = None
    if head is None:
        lines.append("    later(_kind, time, %s)" % data)
    else:
        fmt = "<%dsq" % len(head) + "".join(_STRUCT_CHAR[t] for t in types
                                            if t != _VAL_NONE)
        pack = struct.Struct(fmt).pack
        lines += ["    delta = time - state[0]",
                  "    try:"]
        packed = []
        for index, (name, code) in enumerate(zip(names, types)):
            if code == _VAL_NONE:
                lines.append("        if %s is not None: raise _miss" % name)
                continue
            packed.append(name)
            if code == _VAL_STR:
                lines.append("        if %s.__class__ is not str: raise _miss"
                             % name)
                lines.append("        i%d = sget(%s)" % (index, name))
                lines.append("        if i%d is None: i%d = intern(%s)"
                             % (index, index, name))
                packed[-1] = "i%d" % index
            elif code == _VAL_INT:
                lines.append("        if %s.__class__ is not int: raise _miss"
                             % name)
            elif code == _VAL_BOOL:
                lines.append("        if %s.__class__ is not bool: raise _miss"
                             % name)
            else:  # _VAL_FLOAT
                lines.append("        if %s.__class__ is not float: "
                             "raise _miss" % name)
        # pack raises struct.error (e.g. an int beyond 64 bits) before the
        # append, so a rejected event leaves no partial record behind
        lines += ["        slab = pack(head, delta%s)"
                  % "".join(", " + name for name in packed),
                  "    except _errs:",
                  "        generic(_kind, time, %s)" % data,
                  "        return",
                  "    buf += slab",
                  "    state[0] = time",
                  "    n = state[1] + 1",
                  "    state[1] = n",
                  # The buffer-length check is amortized: schema records
                  # are tens of bytes, so probing every 256th event still
                  # bounds the buffer near _FLUSH_BYTES (the generic path,
                  # which can write big string tables, checks
                  # unconditionally).
                  "    if not n & 255 and len(buf) >= %d:" % _FLUSH_BYTES,
                  "        flush()"]
    namespace: Dict[str, Any] = {
        "_miss": _FastPathMiss, "pack": pack, "head": head,
        "buffer": writer._buffer, "sget": writer._strings.get,
        "intern": writer._intern, "state": writer._state,
        "generic": writer._generic_event, "later": writer._later_shape,
        "flush": writer._flush,
        "_errs": (_FastPathMiss, struct.error), "_kind": kind,
    }
    exec("\n".join(lines), namespace)  # noqa: S102 - trusted template
    return namespace["encode"]  # type: ignore[no-any-return]


# --- writer ------------------------------------------------------------------


class BinaryTraceWriter:
    """Event-bus capture consumer streaming records into a sealed log.

    Use as a context manager (or call :meth:`close`) so the footer is
    written; an unsealed file is rejected by :class:`BinaryTraceReader`.
    The writer owns the file handle it opened from a path; when handed an
    open binary file object it writes and flushes but never closes it.

    On a bus the writer is a capture consumer: the bus hands it each
    record as emitted, ``(shape, time, values)``, through :meth:`capture`,
    its one record entry point (replay and :func:`write_events` use it
    too).

    Two capture modes, producing byte-identical sealed files:

    - **streaming** (default): records are encoded as they arrive and the
      buffer is flushed to disk incrementally — memory stays bounded no
      matter how many events the run emits.
    - **deferred** (``defer=True``): capture only appends each record's
      shape, time and values to one flat list; encoding and I/O happen
      at :meth:`close`.  This is the ``perf record`` model — the smallest
      possible in-run perturbation at the cost of holding every captured
      record in memory (one list slot per value plus two, about 65 bytes
      for a 6-field ``slice``, none of it GC-tracked) until the log is
      sealed.  Prefer it for overhead-sensitive measurement runs of
      bounded length.
    """

    def __init__(self, path_or_file: Any, defer: bool = False) -> None:
        if hasattr(path_or_file, "write"):
            self._file: IO[bytes] = path_or_file
            self._owns_file = False
        else:
            self._file = open(path_or_file, "wb")
            self._owns_file = True
        self._buffer = bytearray(MAGIC)
        self._buffer.append(VERSION)
        self._hash = hashlib.sha256()
        self._strings: Dict[str, int] = {}
        #: ``defer=True`` is the perf-record model: capture appends each
        #: record's shape, time and values as consecutive entries here and
        #: all encoding happens at :meth:`close`, trading bounded memory
        #: for the smallest possible in-run perturbation.  Flat, so
        #: capture keeps no per-event container at all: the values are
        #: atomic, which CPython leaves untracked, and the shapes are
        #: shared, so the cyclic collector has nothing new to rescan.  The
        #: sealed file is byte-for-byte identical to streaming mode.  None
        #: in streaming mode.
        self._pending: Optional[List[Any]] = [] if defer else None
        #: shape object -> its schema's encoder, for every shape seen
        #: (keyed by identity: a lookup hashes no strings)
        self._encoders: Dict[Shape, _Encoder] = {}
        #: every schema, keyed by exact shape (kind, field-name tuple)
        self._by_shape: Dict[Tuple[str, Tuple[str, ...]], _Schema] = {}
        #: each kind's first schema, the only one that writes fast records
        self._first: Dict[str, _Schema] = {}
        self._schema_count = 0
        #: [previous timestamp, events written] — shared mutable state
        #: the generated encoders update without attribute traffic
        self._state = [0, 0]
        self._sealed = False

    @property
    def event_count(self) -> int:
        """How many events have been written so far."""
        return self._state[1]

    # --- interning --------------------------------------------------------

    def _intern(self, text: str) -> int:
        """Interned id of ``text``, emitting a definition record first."""
        raw = text.encode("utf-8")
        buffer = self._buffer
        buffer.append(_REC_STRING)
        buffer += encode_varint(len(raw))
        buffer += raw
        sid = len(self._strings)
        self._strings[text] = sid
        return sid

    # --- capture ----------------------------------------------------------

    def capture(self, shape: Shape, time: int, values: Tuple[Any, ...]
                ) -> None:
        """Bus capture entry point: take one record as it was emitted.

        Deferred, this is the whole hot path: the shape, the time and
        each value appended to the flat pending list.  Streaming, the
        shape's encoder writes the record at once.
        """
        pending = self._pending
        if pending is not None:
            pending.append(shape)
            pending.append(time)
            pending.extend(values)
            return
        encoder = self._encoders.get(shape)
        if encoder is not None:
            encoder(time, iter(values))
        else:
            self._unseen(shape, time, iter(values))

    def _unseen(self, shape: Shape, time: int, values: Iterator[Any]
                ) -> None:
        """A shape object seen for the first time.

        Reads its values first, so a deferred seal's iterator stays
        aligned even if the record is rejected.  An equal shape built
        per call (faultlab's) reuses the existing schema and compiles
        nothing.  A new shape is first tried against its kind's first
        schema (see :meth:`_fits_first`); if it does not fit, it defines
        its own schema (so *future* records take its encoder) and this
        record is written as a generic one — never recursing back
        through the freshly compiled encoder.
        """
        data = dict(zip(shape.fields, values))
        key = (shape.kind, shape.fields)
        schema = self._by_shape.get(key)
        if schema is not None:
            schema.encode(time, iter(data.values()))
            return
        if self._fits_first(shape.kind, time, data):
            return
        # Raises TypeError on an unencodable value before any bytes are
        # written (the generic record would reject it too).
        self._encoders[shape] = self._define_schema(key, data).encode
        self._generic_event(shape.kind, time, data)

    def _later_shape(self, kind: str, time: int,
                     data: Dict[str, Any]) -> None:
        """A record of a kind's later schema: written through the kind's
        first schema if it fits it, else as a generic record."""
        if not self._fits_first(kind, time, data):
            self._generic_event(kind, time, data)

    def _fits_first(self, kind: str, time: int,
                    data: Dict[str, Any]) -> bool:
        """Write ``data`` as a fast record of ``kind``'s first schema if
        it has that schema's fields (in any order) and types.

        A record of another shape of the kind is tried against the first
        schema by field name, in that schema's order, before anything
        else, and a string value read on the way is interned even when a
        later field misses: the sealed bytes depend on that order.
        """
        first = self._first.get(kind)
        if first is None or len(data) != len(first.keys):
            return False
        strings = self._strings
        for key, code in zip(first.keys, first.types):
            if key not in data:
                return False
            value = data[key]
            if code == _VAL_NONE:
                if value is not None:
                    return False
            elif value.__class__ is not _CLASS_OF[code]:
                return False
            elif code == _VAL_STR and value not in strings:
                self._intern(value)
        values = [data[key] for key in first.keys]
        # an int the slab cannot hold misses only now, after every string
        if (time - self._state[0] not in _INT64
                or any(code == _VAL_INT and value not in _INT64
                       for code, value in zip(first.types, values))):
            return False
        first.encode(time, iter(values))
        return True

    def _define_schema(self, shape: Tuple[str, Tuple[str, ...]],
                       data: Dict[str, Any]) -> _Schema:
        """Compile and register a schema; emits its definition record."""
        kind, keys = shape
        # Raises TypeError on an unencodable value before any bytes are
        # written, so the log stays valid.
        types = tuple(_type_code(value) for value in data.values())
        strings = self._strings
        kind_id = strings.get(kind)
        if kind_id is None:
            kind_id = self._intern(kind)
        key_ids = []
        for key in keys:
            key_id = strings.get(key)
            if key_id is None:
                key_id = self._intern(key)
            key_ids.append(key_id)
        schema = _Schema(self._schema_count, kind, keys, types,
                         kind not in self._first, self)
        self._first.setdefault(kind, schema)
        self._schema_count += 1
        buffer = self._buffer
        buffer.append(_REC_SCHEMA)
        buffer += encode_varint(kind_id)
        buffer += encode_varint(len(keys))
        for key_id, code in zip(key_ids, types):
            buffer += encode_varint(key_id)
            buffer.append(code)
        self._by_shape[shape] = schema
        return schema

    def _generic_event(self, kind: str, time: int,
                       data: Dict[str, Any]) -> None:
        """Write one record as a generic one and count it."""
        state = self._state
        self._generic(kind, data, time - state[0])
        # state advances only after the event is fully in the buffer, so
        # a TypeError leaves the delta chain of written records intact
        state[0] = time
        state[1] += 1
        if len(self._buffer) >= _FLUSH_BYTES:
            self._flush()

    def _generic(self, kind: str, data: Dict[str, Any], delta: int) -> None:
        """Self-describing record for events that fit no schema."""
        strings = self._strings
        record = bytearray()
        kind_id = strings.get(kind)
        if kind_id is None:
            kind_id = self._intern(kind)
        record.append(_REC_EVENT)
        record += encode_varint(kind_id)
        record += encode_zigzag(delta)
        record += encode_varint(len(data))
        for key, value in data.items():
            key_id = strings.get(key)
            if key_id is None:
                key_id = self._intern(key)
            record += encode_varint(key_id)
            value_type = type(value)
            if value_type is bool:
                record.append(_VAL_TRUE if value else _VAL_BOOL)
            elif value_type is int:
                record.append(_VAL_INT)
                record += encode_zigzag(value)
            elif value_type is str:
                value_id = strings.get(value)
                if value_id is None:
                    value_id = self._intern(value)
                record.append(_VAL_STR)
                record += encode_varint(value_id)
            elif value_type is float:
                record.append(_VAL_FLOAT)
                record += _FLOAT_STRUCT.pack(value)
            elif value is None:
                record.append(_VAL_NONE)
            else:
                raise TypeError(
                    "binlog cannot encode %s field %r of type %s"
                    % (kind, key, value_type.__name__))
        self._buffer += record

    # --- lifecycle --------------------------------------------------------

    def _flush(self) -> None:
        chunk = bytes(self._buffer)
        self._hash.update(chunk)
        self._file.write(chunk)
        del self._buffer[:]

    def close(self) -> None:
        """Seal the log: encode any deferred records, flush, write the
        footer, and release the file.

        A deferred record that cannot be encoded is left out, just as
        streaming mode rejects it at capture: every other record is still
        sealed and an owned file released, then the first such
        :class:`TypeError` is raised.  Calls after the first do nothing.
        """
        if self._sealed:
            return
        self._sealed = True
        error: Optional[TypeError] = None
        try:
            pending = self._pending
            if pending is not None:
                # Deferred capture: run the whole encoding pipeline now,
                # in capture order, through the same encoders streaming
                # mode uses — the sealed bytes come out identical.  Each
                # encoder reads its record's values straight off the
                # list's iterator.
                self._pending = None
                encoders_get = self._encoders.get
                unseen = self._unseen
                entries = iter(pending)
                for shape in entries:
                    time = next(entries)
                    try:
                        encoder = encoders_get(shape)
                        if encoder is not None:
                            encoder(time, entries)
                        else:
                            unseen(shape, time, entries)
                    except TypeError as exc:
                        if error is None:
                            error = exc
            self._flush()
            footer = bytearray((_REC_FOOTER,))
            footer += _FOOTER_STRUCT.pack(self.event_count)
            footer += self._hash.digest()
            self._file.write(bytes(footer))
            self._file.flush()
        finally:
            if self._owns_file:
                self._file.close()
        if error is not None:
            raise error

    def __enter__(self) -> "BinaryTraceWriter":
        return self

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> None:
        self.close()


# --- reader ------------------------------------------------------------------


class _ReadSchema:
    """Decoded schema definition: its shape, field types, slab geometry."""

    __slots__ = ("shape", "codes", "unpack", "size")

    def __init__(self, shape: Shape, codes: Tuple[int, ...]) -> None:
        self.shape = shape
        self.codes = codes
        fmt = "<q" + "".join(_STRUCT_CHAR[code] for code in codes
                             if code != _VAL_NONE)
        packer = struct.Struct(fmt)
        self.unpack = packer.unpack_from
        self.size = packer.size


class BinaryTraceReader:
    """Iterate a sealed binary log as the captured ``(shape, time,
    values)`` records, one shape object per ``(kind, fields)``.

    The whole file is validated up front — magic, version, structural
    integrity, footer count, and content hash — so iteration never yields
    records from a log that would later turn out to be truncated.
    Records are decoded lazily, one per ``next()``.
    """

    def __init__(self, path_or_file: Any) -> None:
        if hasattr(path_or_file, "read"):
            raw = path_or_file.read()
        else:
            with open(path_or_file, "rb") as handle:
                raw = handle.read()
        self._raw = raw
        self._body_end = 0
        self._string_count = 0
        self._schema_count = 0
        self._kinds: Dict[str, int] = {}
        #: the one shape of each (kind, fields) the log holds: the
        #: catalogue's own where it declares one, so identity-keyed folds
        #: (the Recorder's) take replayed records on their live path
        self._shapes = {(shape.kind, shape.fields): shape for shape in SHAPES}
        self._time_first: Optional[int] = None
        self._time_last: Optional[int] = None
        self.event_count = self._validate()

    # --- validation -------------------------------------------------------

    def _validate(self) -> int:
        raw = self._raw
        if len(raw) < len(MAGIC) + 1:
            raise BinlogError("not a binary trace: file shorter than header")
        if raw[:len(MAGIC)] != MAGIC:
            raise BinlogError("not a binary trace: bad magic %r"
                              % raw[:len(MAGIC)])
        if raw[len(MAGIC)] != VERSION:
            raise BinlogError("unsupported binlog version %d (expected %d)"
                              % (raw[len(MAGIC)], VERSION))
        footer_size = 1 + _FOOTER_STRUCT.size + _DIGEST_SIZE
        if len(raw) < len(MAGIC) + 1 + footer_size:
            raise BinlogError("truncated binary trace: no footer")
        footer_at = len(raw) - footer_size
        if raw[footer_at] != _REC_FOOTER:
            raise BinlogError("truncated binary trace: footer record missing "
                              "(log was not sealed or was cut short)")
        (count,) = _FOOTER_STRUCT.unpack_from(raw, footer_at + 1)
        digest = raw[footer_at + 1 + _FOOTER_STRUCT.size:]
        # hash the body through a view: slicing would copy the whole log
        with memoryview(raw) as view:
            actual = hashlib.sha256(view[:footer_at]).digest()
        if digest != actual:
            raise BinlogError("corrupted binary trace: content hash mismatch")
        self._body_end = footer_at
        # Structural pass: decode everything once so a malformed body (or
        # a count mismatch) fails here, not mid-iteration; summary stats
        # for info() fall out for free.
        kinds = self._kinds
        seen = 0
        for shape, time, __ in self._decode():
            kinds[shape.kind] = kinds.get(shape.kind, 0) + 1
            if seen == 0:
                self._time_first = time
            self._time_last = time
            seen += 1
        if seen != count:
            raise BinlogError(
                "corrupted binary trace: footer says %d events, body "
                "decodes %d" % (count, seen))
        return int(count)

    # --- decoding ---------------------------------------------------------

    def _read_varint(self, raw: bytes, pos: int) -> Tuple[int, int]:
        result = 0
        shift = 0
        end = self._body_end
        while True:
            if pos >= end:
                raise BinlogError("truncated binary trace: varint runs past "
                                  "the footer")
            byte = raw[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result, pos
            shift += 7

    def _shape(self, kind: str, fields: Tuple[str, ...]) -> Shape:
        """The log's one shape of ``(kind, fields)``."""
        shape = self._shapes.get((kind, fields))
        if shape is None:
            shape = self._shapes[kind, fields] = Shape(kind, fields)
        return shape

    def _decode(self) -> Iterator[Record]:
        raw = self._raw
        end = self._body_end
        read_varint = self._read_varint
        strings: List[str] = []
        schemas: List[_ReadSchema] = []
        last_time = 0
        pos = len(MAGIC) + 1
        while pos < end:
            tag = raw[pos]
            pos += 1
            if tag == _REC_FAST:
                schema_id, pos = read_varint(raw, pos)
                try:
                    schema = schemas[schema_id]
                except IndexError:
                    raise BinlogError("corrupted binary trace: event "
                                      "references undefined schema %d"
                                      % schema_id) from None
                if pos + schema.size > end:
                    raise BinlogError("truncated binary trace: event slab "
                                      "runs past the footer")
                slab = schema.unpack(raw, pos)
                pos += schema.size
                last_time += slab[0]
                values: List[Any] = []
                index = 1
                try:
                    for code in schema.codes:
                        if code == _VAL_NONE:
                            values.append(None)
                            continue
                        value = slab[index]
                        index += 1
                        if code == _VAL_STR:
                            values.append(strings[value])
                        elif code == _VAL_BOOL:
                            values.append(value != 0)
                        else:  # int slab slot or float slab slot
                            values.append(value)
                except IndexError:
                    raise BinlogError("corrupted binary trace: string id "
                                      "references an undefined table entry"
                                      ) from None
                yield schema.shape, last_time, tuple(values)
                continue
            if tag == _REC_STRING:
                length, pos = read_varint(raw, pos)
                if pos + length > end:
                    raise BinlogError("truncated binary trace: string runs "
                                      "past the footer")
                strings.append(raw[pos:pos + length].decode("utf-8"))
                pos += length
                self._string_count = len(strings)
                continue
            if tag == _REC_SCHEMA:
                kind_id, pos = read_varint(raw, pos)
                nfields, pos = read_varint(raw, pos)
                keys: List[str] = []
                codes: List[int] = []
                try:
                    for __ in range(nfields):
                        key_id, pos = read_varint(raw, pos)
                        if pos >= end:
                            raise BinlogError("truncated binary trace: "
                                              "schema field type missing")
                        code = raw[pos]
                        pos += 1
                        if code not in (_VAL_NONE, _VAL_BOOL, _VAL_INT,
                                        _VAL_FLOAT, _VAL_STR):
                            raise BinlogError("corrupted binary trace: "
                                              "unknown schema type 0x%02x"
                                              % code)
                        keys.append(strings[key_id])
                        codes.append(code)
                    schemas.append(_ReadSchema(
                        self._shape(strings[kind_id], tuple(keys)),
                        tuple(codes)))
                except IndexError:
                    raise BinlogError("corrupted binary trace: string id "
                                      "references an undefined table entry"
                                      ) from None
                self._schema_count = len(schemas)
                continue
            if tag != _REC_EVENT:
                raise BinlogError("corrupted binary trace: unknown record "
                                  "tag 0x%02x at byte %d" % (tag, pos - 1))
            kind_id, pos = read_varint(raw, pos)
            zigzag, pos = read_varint(raw, pos)
            last_time += decode_zigzag(zigzag)
            nfields, pos = read_varint(raw, pos)
            keys = []
            values = []
            try:
                kind = strings[kind_id]
                for __ in range(nfields):
                    key_id, pos = read_varint(raw, pos)
                    if pos >= end:
                        raise BinlogError("truncated binary trace: field "
                                          "value missing")
                    value_tag = raw[pos]
                    pos += 1
                    value: Any
                    if value_tag == _VAL_INT:
                        value, pos = read_varint(raw, pos)
                        value = decode_zigzag(value)
                    elif value_tag == _VAL_STR:
                        sid, pos = read_varint(raw, pos)
                        value = strings[sid]
                    elif value_tag == _VAL_FLOAT:
                        if pos + _FLOAT_STRUCT.size > end:
                            raise BinlogError("truncated binary trace: "
                                              "float runs past the footer")
                        (value,) = _FLOAT_STRUCT.unpack_from(raw, pos)
                        pos += _FLOAT_STRUCT.size
                    elif value_tag == _VAL_TRUE:
                        value = True
                    elif value_tag == _VAL_BOOL:
                        value = False
                    elif value_tag == _VAL_NONE:
                        value = None
                    else:
                        raise BinlogError(
                            "corrupted binary trace: unknown value tag "
                            "0x%02x" % value_tag)
                    keys.append(strings[key_id])
                    values.append(value)
            except IndexError:
                raise BinlogError("corrupted binary trace: string id "
                                  "references an undefined table entry"
                                  ) from None
            yield self._shape(kind, tuple(keys)), last_time, tuple(values)

    def __iter__(self) -> Iterator[Record]:
        return self._decode()

    def __len__(self) -> int:
        return self.event_count

    # --- summaries --------------------------------------------------------

    def info(self) -> Dict[str, Any]:
        """Log summary: counts, time range, kind histogram, table sizes."""
        return {
            "format": FORMAT,
            "events": self.event_count,
            "kinds": dict(self._kinds),
            "strings": self._string_count,
            "schemas": self._schema_count,
            "time_first_ns": self._time_first,
            "time_last_ns": self._time_last,
            "size_bytes": len(self._raw),
        }


# --- conveniences ------------------------------------------------------------


def read_events(path_or_file: Any) -> Iterator[Record]:
    """Validate ``path_or_file`` and iterate its records (convenience)."""
    return iter(BinaryTraceReader(path_or_file))


def replay(source: Any, *subscribers: Subscriber) -> int:
    """Deliver a binlog's records to ``subscribers`` in capture order.

    ``source`` is a path, open binary file, or :class:`BinaryTraceReader`.
    Each subscriber is reached through the entry point the live bus uses
    (:func:`~repro.obs.events.capture_of`), so replaying through
    :class:`ChromeTraceBuilder` or :class:`SchedStat` runs the code live
    collection runs and reproduces its state bit for bit.  Returns the
    number of records delivered.
    """
    reader = (source if isinstance(source, BinaryTraceReader)
              else BinaryTraceReader(source))
    captures = [capture_of(subscriber) for subscriber in subscribers]
    count = 0
    for shape, time, values in reader:
        for capture in captures:
            capture(shape, time, values)
        count += 1
    return count


def write_events(records: Iterable[Record], path_or_file: Any) -> int:
    """Encode records into a sealed binlog (tests, converters).

    Returns the number of records written.
    """
    with BinaryTraceWriter(path_or_file) as writer:
        for shape, time, values in records:
            writer.capture(shape, time, values)
        return writer.event_count
