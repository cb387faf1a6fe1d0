"""Unit and property tests for message marshalling."""

import enum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.m3.lib.marshalling import Istream, Ostream, wire_size


def test_wire_sizes_are_8_byte_granular():
    assert wire_size(5) == 8
    assert wire_size(True) == 8
    assert wire_size(3.14) == 8
    assert wire_size(None) == 8
    assert wire_size("abc") == 16  # 8 length + 8 padded payload
    assert wire_size(b"123456789") == 24  # 8 + 16 padded


def test_container_sizes_nest():
    assert wire_size((1, 2)) == 8 + 16
    assert wire_size([1, "ab"]) == 8 + 8 + 16
    assert wire_size({"k": 1}) == 8 + 16 + 8


def test_callable_travels_as_address():
    assert wire_size(lambda env: None) == 8


def test_unmarshallable_rejected():
    with pytest.raises(TypeError):
        wire_size(object())


def test_ostream_shift_collects_and_sizes():
    stream = Ostream() << 1 << "hi" << b"abc"
    assert stream.payload() == (1, "hi", b"abc")
    assert stream.size == 8 + 16 + 16


def test_ostream_rejects_bad_values_eagerly():
    with pytest.raises(TypeError):
        Ostream() << object()


def test_istream_pops_in_order():
    stream = Istream((1, "two", 3.0))
    assert stream.pop() == 1
    assert stream.pop() == "two"
    assert stream.remaining == 1
    assert list(stream) == [3.0]
    with pytest.raises(ValueError):
        stream.pop()


_values = st.recursive(
    st.one_of(
        st.integers(min_value=-(2**62), max_value=2**62),
        st.text(max_size=20),
        st.binary(max_size=30),
        st.booleans(),
        st.none(),
    ),
    lambda children: st.lists(children, max_size=4).map(tuple),
    max_leaves=12,
)


@given(st.lists(_values, max_size=8))
def test_marshal_unmarshal_roundtrip(values):
    stream = Ostream()
    for value in values:
        stream << value
    out = list(Istream(stream.payload()))
    assert out == values


@given(_values)
def test_wire_size_positive_and_aligned(value):
    size = wire_size(value)
    assert size >= 8
    assert size % 8 == 0


def _reference_wire_size(value: object) -> int:
    """The isinstance-chain ``wire_size`` the exact-type dispatch must
    agree with (kept verbatim, recursing into itself)."""
    if value is None:
        return 8
    if isinstance(value, bool):
        return 8
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return 8 + _reference_align8(len(value.encode("utf-8")))
    if isinstance(value, (bytes, bytearray, memoryview)):
        return 8 + _reference_align8(len(value))
    if isinstance(value, (tuple, list)):
        return 8 + sum(_reference_wire_size(item) for item in value)
    if isinstance(value, dict):
        return 8 + sum(_reference_wire_size(k) + _reference_wire_size(v)
                       for k, v in value.items())
    if callable(value):
        return 8
    raise TypeError(f"cannot marshal value of type {type(value).__name__}")


def _reference_align8(n: int) -> int:
    return (n + 7) & ~7


class _Colour(enum.IntEnum):
    RED = 1
    GREEN = 2


class _Name(str):
    pass


class _Pair(tuple):
    pass


_leaves = st.one_of(
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.text(alphabet=st.characters(min_codepoint=128), max_size=8),
    st.binary(max_size=30),
    st.binary(max_size=30).map(bytearray),
    st.binary(max_size=30).map(memoryview),
    st.booleans(),
    st.none(),
    st.sampled_from(_Colour),
    st.text(max_size=10).map(_Name),
    st.just(len),
    st.just(object()),
    st.just(1j),
)

_any_values = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=3).map(_Pair),
        st.dictionaries(st.one_of(st.text(max_size=5), st.integers()),
                        children, max_size=3),
    ),
    max_leaves=12,
)


def _size_or_error(size_of, value):
    try:
        return size_of(value)
    except TypeError as exc:
        return ("TypeError", str(exc))


@given(_any_values)
def test_wire_size_matches_isinstance_chain(value):
    assert (_size_or_error(wire_size, value)
            == _size_or_error(_reference_wire_size, value))
