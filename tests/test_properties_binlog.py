"""Property-based round-trip and rejection tests for the binlog codec."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import events as ev
from repro.obs.binlog import (
    BinaryTraceReader,
    BinaryTraceWriter,
    BinlogError,
    decode_zigzag,
    encode_varint,
    encode_zigzag,
    read_events,
    write_events,
)


def decode_varint(raw):
    """Reference LEB128 decoder; returns (value, bytes_consumed)."""
    result = 0
    shift = 0
    for index, byte in enumerate(raw):
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, index + 1
        shift += 7
    raise ValueError("unterminated varint")


# unbounded on purpose: Python ints have no 64-bit ceiling and neither
# does the wire format
unsigned_ints = st.integers(min_value=0)
signed_ints = st.integers()

field_names = st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12)

values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),  # NaN != NaN breaks dict equality, not us
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=24),
)


def _record(kind, time, data):
    return ev.Shape(kind, tuple(data)), time, tuple(data.values())


records = st.builds(
    _record,
    kind=st.text(st.characters(blacklist_categories=("Cs",)),
                 min_size=1, max_size=16),
    time=st.integers(min_value=0, max_value=1 << 70),
    data=st.dictionaries(field_names, values, max_size=8),
)

streams = st.lists(records, max_size=40)


@given(unsigned_ints)
def test_varint_roundtrip(value):
    decoded, consumed = decode_varint(encode_varint(value))
    assert decoded == value
    assert consumed == len(encode_varint(value))


@given(signed_ints)
def test_zigzag_roundtrip(value):
    decoded, __ = decode_varint(encode_zigzag(value))
    assert decode_zigzag(decoded) == value


@given(st.integers(min_value=0))
def test_zigzag_mapping_is_a_bijection_near_zero(magnitude):
    positive = decode_varint(encode_zigzag(magnitude))[0]
    negative = decode_varint(encode_zigzag(-magnitude))[0]
    if magnitude:
        assert positive != negative
    assert decode_zigzag(positive) == magnitude
    assert decode_zigzag(negative) == -magnitude


@settings(max_examples=60, deadline=None)
@given(streams)
def test_arbitrary_stream_roundtrips_identically(stream):
    buffer = io.BytesIO()
    assert write_events(stream, buffer) == len(stream)
    decoded = list(read_events(io.BytesIO(buffer.getvalue())))
    assert len(decoded) == len(stream)
    for original, copy in zip(stream, decoded):
        kind, time, fields = _typed(*original)
        # a later shape with the first schema's fields in another order
        # reads back in that schema's order
        assert _typed(*copy) == (kind, time, sorted(
            fields, key=lambda field: copy[0].fields.index(field[0])))


@settings(max_examples=40, deadline=None)
@given(streams, st.data())
def test_any_truncation_prefix_is_rejected(stream, data):
    buffer = io.BytesIO()
    write_events(stream, buffer)
    raw = buffer.getvalue()
    cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    with pytest.raises(BinlogError):
        BinaryTraceReader(io.BytesIO(raw[:cut]))


@settings(max_examples=40, deadline=None)
@given(streams, st.data())
def test_any_single_byte_corruption_is_rejected(stream, data):
    buffer = io.BytesIO()
    write_events(stream, buffer)
    raw = bytearray(buffer.getvalue())
    index = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    flip = data.draw(st.integers(min_value=1, max_value=255))
    raw[index] ^= flip
    with pytest.raises(BinlogError):
        BinaryTraceReader(io.BytesIO(bytes(raw)))


def _typed(shape, time, values):
    """A record's kind, time and fields, each with its exact type."""
    return shape.kind, time, [(key, type(value), value)
                              for key, value in zip(shape.fields, values)]


# --- shaped capture: both capture modes seal the same bytes ------------------

#: each catalogue field's usual type, so most draws hit the schema fast path
_INTS = st.integers(min_value=-(1 << 40), max_value=1 << 40)
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_FLOATS = st.floats(allow_nan=False)
_NATURAL = {
    "name": _TEXT, "node": _TEXT, "rule": _TEXT, "message": _TEXT,
    "source": _TEXT, "switched": st.booleans(),
    "segment_done": st.booleans(), "leaf": st.booleans(), "finish": _FLOATS,
    "v": _FLOATS, "start": st.one_of(_INTS, _FLOATS),
}
#: type drift, ints beyond 64 bits and None fields
_DRIFT = st.one_of(st.none(), st.booleans(), _INTS, _FLOATS, _TEXT,
                   st.integers(min_value=1 << 63), st.integers(
                       max_value=-(1 << 63) - 1))


def _field(name):
    natural = _NATURAL.get(name, _INTS)
    return st.one_of(natural, natural, natural, _DRIFT)


@st.composite
def shaped_records(draw):
    """Catalogue records (both ``tag-update`` shapes among them), with
    drifted values and at most one unencodable value."""
    records = []
    time = 0
    for __ in range(draw(st.integers(min_value=0, max_value=30))):
        shape = draw(st.sampled_from(ev.SHAPES))
        time += draw(st.integers(min_value=-1_000, max_value=10 ** 9))
        values = tuple(draw(_field(name)) for name in shape.fields)
        records.append((shape, time, values))
    if records and draw(st.booleans()):
        at = draw(st.integers(min_value=0, max_value=len(records) - 1))
        shape, time, values = records[at]
        index = draw(st.integers(min_value=0, max_value=len(values) - 1))
        values = values[:index] + ([index],) + values[index + 1:]
        records[at] = (shape, time, values)
    return records


def _sealed(records, mode):
    """The log ``records`` seal to in one capture mode, and how many
    TypeErrors the writer raised on the way."""
    buffer = io.BytesIO()
    writer = BinaryTraceWriter(buffer, defer=mode == "defer")
    errors = 0
    for shape, time, values in records:
        try:
            writer.capture(shape, time, values)
        except TypeError:
            errors += 1
    try:
        writer.close()
    except TypeError:
        errors += 1
    return buffer.getvalue(), errors


@settings(max_examples=150, deadline=None)
@given(shaped_records())
def test_capture_paths_seal_identical_bytes(records):
    stream = _sealed(records, "stream")
    assert _sealed(records, "defer") == stream
    raw, errors = stream
    # the unencodable record is left out, the rest sealed: one TypeError
    kept = [(shape, time, values) for shape, time, values in records
            if not any(type(value) is list for value in values)]
    assert errors == len(records) - len(kept)
    assert [_typed(*record) for record in read_events(io.BytesIO(raw))] == [
        _typed(*record) for record in kept]
