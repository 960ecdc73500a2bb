"""Canonical, deterministic binary encoding for ledger objects.

Every digest in the system (journal hash, block hash, request hash, MPT node
hash) is computed over a serialized byte string, so serialization must be
*canonical*: one value, one encoding.  We use a small tag-length-value format
(think minimal CBOR) supporting exactly the types ledger objects need.

Supported types: ``None``, ``bool``, ``int`` (signed, arbitrary precision),
``bytes``, ``str``, ``float`` (IEEE-754 big-endian), ``list``/``tuple``
(encoded identically), and ``dict`` with string keys (encoded sorted by key).

The format is self-describing and round-trips: ``decode(encode(x)) == x``
(tuples come back as lists).  The decoder is strict — it accepts exactly one
encoding per value, so every input it accepts re-encodes byte-identically.
It raises :class:`EncodingError` on a magnitude or length with a leading
zero byte, a negative zero, a dict key that is not a str or not strictly
greater than the key before it (unsorted or duplicate keys), invalid UTF-8,
an unknown tag, nesting deeper than the interpreter's recursion limit,
truncation, and trailing bytes.

Two encoders produce the same bytes.  :func:`encode` dispatches on exact
type and takes length prefixes below 256 from a table; ``_encode_into`` is
the plain recursive walk it is tested against (the oracle), and it handles
what the fast path does not (subclasses, ``bytearray``, ``memoryview``).
Fixed-schema records — journals, proofs, MPT nodes, clue values — are
encoded by codecs built once per schema from the pieces below: a
:class:`Record` pre-sorts and pre-encodes a dict's keys, ``*_head`` return
the tag and length prefix of a value whose body the caller splices in.  A
record decoder matches those constant prefixes, reads each field with a
typed reader (``read_bytes``, ``read_uint``, …) instead of the recursive
``_read_value``, and on any mismatch falls back to :func:`decode` — so it
accepts exactly the inputs, and raises exactly the errors, of the generic
strict decoder, which stays the oracle it is tested against.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Mapping, Optional

__all__ = [
    "encode",
    "decode",
    "EncodingError",
    "as_bytes",
    "Record",
    "bytes_head",
    "list_head",
    "write_value",
    "write_bytes_list",
    "read_bytes",
    "read_str",
    "read_uint",
    "read_float",
    "read_list_size",
    "read_list",
    "read_bytes_list",
    "read_str_list",
]


class EncodingError(Exception):
    """Raised on unsupported types or malformed input."""


_TAG_NONE = b"N"
_TAG_FALSE = b"f"
_TAG_TRUE = b"t"
_TAG_INT_POS = b"i"
_TAG_INT_NEG = b"j"
_TAG_BYTES = b"b"
_TAG_STR = b"s"
_TAG_FLOAT = b"d"
_TAG_LIST = b"l"
_TAG_DICT = b"m"


def _encode_length(value: int) -> bytes:
    """Variable-length big-endian length: one byte count then magnitude."""
    if value == 0:
        return b"\x00"
    magnitude = value.to_bytes((value.bit_length() + 7) // 8, "big")
    if len(magnitude) > 255:
        raise EncodingError("length too large")
    return bytes([len(magnitude)]) + magnitude


def _encode_into(value: Any, out: bytearray) -> None:
    """The reference encoder: one ``isinstance`` chain, recursing per item."""
    if value is None:
        out += _TAG_NONE
    elif value is True:
        out += _TAG_TRUE
    elif value is False:
        out += _TAG_FALSE
    elif isinstance(value, int):
        if value >= 0:
            out += _TAG_INT_POS
            out += _encode_length(value)
        else:
            out += _TAG_INT_NEG
            out += _encode_length(-value)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        data = bytes(value)
        out += _TAG_BYTES
        out += _encode_length(len(data))
        out += data
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out += _TAG_STR
        out += _encode_length(len(data))
        out += data
    elif isinstance(value, float):
        out += _TAG_FLOAT
        out += struct.pack(">d", value)
    elif isinstance(value, (list, tuple)):
        out += _TAG_LIST
        out += _encode_length(len(value))
        for item in value:
            _encode_into(item, out)
    elif isinstance(value, dict):
        keys = list(value)
        if not all(isinstance(k, str) for k in keys):
            raise EncodingError("dict keys must be strings")
        if len(set(keys)) != len(keys):
            raise EncodingError("duplicate dict keys")
        out += _TAG_DICT
        out += _encode_length(len(keys))
        for key in sorted(keys):
            _encode_into(key, out)
            _encode_into(value[key], out)
    else:
        raise EncodingError(f"unsupported type: {type(value).__name__}")


# Tag + length prefix for every length below 256; an int 0..255 is the
# ``i`` tag followed by the same length form of its magnitude.
_LENGTHS = tuple(_encode_length(n) for n in range(256))
_BYTES_HEADS = tuple(_TAG_BYTES + prefix for prefix in _LENGTHS)
_STR_HEADS = tuple(_TAG_STR + prefix for prefix in _LENGTHS)
_LIST_HEADS = tuple(_TAG_LIST + prefix for prefix in _LENGTHS)
_DICT_HEADS = tuple(_TAG_DICT + prefix for prefix in _LENGTHS)
_SMALL_INTS = tuple(_TAG_INT_POS + prefix for prefix in _LENGTHS)


def bytes_head(size: int) -> bytes:
    """Tag and length prefix of a ``bytes`` value of ``size`` bytes."""
    return _BYTES_HEADS[size] if size < 256 else _TAG_BYTES + _encode_length(size)


def list_head(size: int) -> bytes:
    """Tag and length prefix of a list of ``size`` items."""
    return _LIST_HEADS[size] if size < 256 else _TAG_LIST + _encode_length(size)


def _encode_fast(value: Any, out: bytearray) -> None:
    kind = type(value)
    if kind is bytes:
        size = len(value)
        out += _BYTES_HEADS[size] if size < 256 else _TAG_BYTES + _encode_length(size)
        out += value
    elif kind is str:
        data = value.encode("utf-8")
        size = len(data)
        out += _STR_HEADS[size] if size < 256 else _TAG_STR + _encode_length(size)
        out += data
    elif kind is int:
        if 0 <= value < 256:
            out += _SMALL_INTS[value]
        elif value > 0:
            out += _TAG_INT_POS
            out += _encode_length(value)
        else:
            out += _TAG_INT_NEG
            out += _encode_length(-value)
    elif kind is list or kind is tuple:
        size = len(value)
        out += _LIST_HEADS[size] if size < 256 else _TAG_LIST + _encode_length(size)
        for item in value:
            _encode_fast(item, out)
    elif kind is dict and all(type(key) is str for key in value):
        size = len(value)
        out += _DICT_HEADS[size] if size < 256 else _TAG_DICT + _encode_length(size)
        for key in sorted(value):
            _encode_fast(key, out)
            _encode_fast(value[key], out)
    elif value is None:
        out += _TAG_NONE
    elif kind is bool:
        out += _TAG_TRUE if value else _TAG_FALSE
    elif kind is float:
        out += _TAG_FLOAT
        out += struct.pack(">d", value)
    else:
        _encode_into(value, out)


def encode(value: Any) -> bytes:
    """Canonically encode ``value`` to bytes."""
    out = bytearray()
    _encode_fast(value, out)
    return bytes(out)


# Integer tag values for the decoder's dispatch: indexing a bytes object
# yields ints, so comparing ints here avoids materialising a one-byte slice
# per value (the decoder is on the audit replay's hot path).
_T_NONE = _TAG_NONE[0]
_T_FALSE = _TAG_FALSE[0]
_T_TRUE = _TAG_TRUE[0]
_T_INT_POS = _TAG_INT_POS[0]
_T_INT_NEG = _TAG_INT_NEG[0]
_T_BYTES = _TAG_BYTES[0]
_T_STR = _TAG_STR[0]
_T_FLOAT = _TAG_FLOAT[0]
_T_LIST = _TAG_LIST[0]
_T_DICT = _TAG_DICT[0]


def _read_scalar(data: bytes, pos: int) -> tuple[int, int]:
    """Read a variable-length big-endian magnitude; returns (value, new_pos)."""
    try:
        count = data[pos]
    except IndexError:
        raise EncodingError("truncated input") from None
    pos += 1
    if count == 0:
        return 0, pos
    end = pos + count
    if end > len(data):
        raise EncodingError("truncated input")
    if data[pos] == 0:
        raise EncodingError("non-canonical magnitude: leading zero byte")
    return int.from_bytes(data[pos:end], "big"), end


def _read_value(data: bytes, pos: int) -> tuple[Any, int]:
    """The reference decoder: one value at ``pos``, recursing per item."""
    try:
        tag = data[pos]
    except IndexError:
        raise EncodingError("truncated input") from None
    pos += 1
    if tag == _T_BYTES or tag == _T_STR:
        length, pos = _read_scalar(data, pos)
        end = pos + length
        if end > len(data):
            raise EncodingError("truncated input")
        chunk = data[pos:end]
        if tag == _T_BYTES:
            return chunk, end
        try:
            return chunk.decode("utf-8"), end
        except UnicodeDecodeError:
            raise EncodingError("str is not valid UTF-8") from None
    if tag == _T_INT_POS:
        return _read_scalar(data, pos)
    if tag == _T_INT_NEG:
        value, pos = _read_scalar(data, pos)
        if value == 0:
            raise EncodingError("non-canonical integer: negative zero")
        return -value, pos
    if tag == _T_DICT:
        length, pos = _read_scalar(data, pos)
        result = {}
        previous = ""
        for _ in range(length):
            key, pos = _read_value(data, pos)
            if type(key) is not str:
                raise EncodingError("dict key must decode to str")
            if result and key <= previous:
                raise EncodingError("dict keys must be strictly increasing")
            previous = key
            result[key], pos = _read_value(data, pos)
        return result, pos
    if tag == _T_LIST:
        length, pos = _read_scalar(data, pos)
        items = []
        for _ in range(length):
            item, pos = _read_value(data, pos)
            items.append(item)
        return items, pos
    if tag == _T_FLOAT:
        end = pos + 8
        if end > len(data):
            raise EncodingError("truncated input")
        return struct.unpack(">d", data[pos:end])[0], end
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    raise EncodingError(f"unknown tag: {bytes([tag])!r}")


def decode(data: bytes) -> Any:
    """Decode a canonically encoded byte string; rejects trailing garbage."""
    data = bytes(data)
    try:
        value, pos = _read_value(data, 0)
    except RecursionError:
        raise EncodingError("nesting too deep") from None
    if pos != len(data):
        raise EncodingError("trailing bytes after value")
    return value


def as_bytes(value: Any, what: str) -> bytes:
    """A decoded value that must be a byte string, as ``bytes``.

    Raises :class:`EncodingError` for a value of any other type before
    converting it: ``bytes(n)`` of a decoded integer ``n`` would allocate
    ``n`` zero bytes on an attacker's word.
    """
    if not isinstance(value, (bytes, bytearray, memoryview)):
        raise EncodingError(f"{what} must be a byte string, not {type(value).__name__}")
    return bytes(value)


# ------------------------------------------------------------ record codecs
#
# A *reader* takes ``(data, pos)`` and returns ``(value, new_pos)`` — the
# same pair ``_read_value`` returns — for the canonical encoding of one
# value of its type at ``pos``.  For any other bytes it returns None, or
# raises IndexError where they end early; either way the caller leaves the
# input to the generic decoder, which accepts or rejects it.  The typed
# readers below (``read_bytes`` … ``read_list``) take only the forms their
# type is written in, so a value they return is the value ``_read_value``
# returns.  A *writer* appends one field's encoding to a buffer, like
# ``write_value``.

Reader = Callable[[bytes, int], Optional[tuple[Any, int]]]
Writer = Callable[[Any, bytearray], None]

write_value: Writer = _encode_fast


def write_bytes_list(values: list[bytes], out: bytearray) -> None:
    """A list of ``bytes`` values, without the generic per-item dispatch."""
    if not all(type(value) is bytes for value in values):
        _encode_fast(values, out)
        return
    out += list_head(len(values))
    for value in values:
        size = len(value)
        out += _BYTES_HEADS[size] if size < 256 else _TAG_BYTES + _encode_length(size)
        out += value
_FLOAT = struct.Struct(">d")


def _read_size(data: bytes, pos: int) -> tuple[int, int] | None:
    """A canonical length at ``pos``: returns (length, position after it)."""
    count = data[pos]
    if count == 1:
        size = data[pos + 1]
        return (size, pos + 2) if size else None
    if count == 0:
        return 0, pos + 1
    start = pos + 1 + count
    if start > len(data) or data[pos + 1] == 0:
        return None
    return int.from_bytes(data[pos + 1 : start], "big"), start


def read_bytes(data: bytes, pos: int) -> tuple[bytes, int] | None:
    """A ``bytes`` value."""
    if data[pos] != _T_BYTES:
        return None
    if data[pos + 1] == 1 and data[pos + 2]:  # one length byte: the common case
        size, start = data[pos + 2], pos + 3
    else:
        got = _read_size(data, pos + 1)
        if got is None:
            return None
        size, start = got
    end = start + size
    if end > len(data):
        return None
    return data[start:end], end


def read_str(data: bytes, pos: int) -> tuple[str, int] | None:
    """A ``str`` value."""
    if data[pos] != _T_STR:
        return None
    if data[pos + 1] == 1 and data[pos + 2]:
        size, start = data[pos + 2], pos + 3
    else:
        got = _read_size(data, pos + 1)
        if got is None:
            return None
        size, start = got
    end = start + size
    if end > len(data):
        return None
    try:
        return data[start:end].decode("utf-8"), end
    except UnicodeDecodeError:
        return None


def read_uint(data: bytes, pos: int) -> tuple[int, int] | None:
    """A non-negative ``int`` value."""
    if data[pos] != _T_INT_POS:
        return None
    return _read_size(data, pos + 1)


def read_float(data: bytes, pos: int) -> tuple[float, int] | None:
    """A ``float`` value."""
    end = pos + 9
    if data[pos] != _T_FLOAT or end > len(data):
        return None
    return _FLOAT.unpack_from(data, pos + 1)[0], end


def read_list_size(data: bytes, pos: int) -> tuple[int, int] | None:
    """The head of a list: returns (item count, position of the first item)."""
    if data[pos] != _T_LIST:
        return None
    return _read_size(data, pos + 1)


def read_list(data: bytes, pos: int, read_item: Reader) -> tuple[list, int] | None:
    """A list whose every item ``read_item`` takes."""
    got = read_list_size(data, pos)
    if got is None:
        return None
    size, pos = got
    items = []
    for _ in range(size):
        got = read_item(data, pos)
        if got is None:
            return None
        item, pos = got
        items.append(item)
    return items, pos


def read_bytes_list(data: bytes, pos: int) -> tuple[list[bytes], int] | None:
    """A list of ``bytes`` values."""
    return read_list(data, pos, read_bytes)


def read_str_list(data: bytes, pos: int) -> tuple[list[str], int] | None:
    """A list of ``str`` values."""
    return read_list(data, pos, read_str)


class Record:
    """Codec for dicts with one fixed set of string keys, built once per schema.

    :meth:`encode` writes the bytes :func:`encode` gives the dict of these
    keys, but the dict head and every key's encoding are constants sorted
    and encoded here, so only the values are walked — each by its field's
    writer (``writers``, default :data:`write_value`), which may splice in a
    field's encoding from objects the generic encoder cannot walk.
    :meth:`decode` equals :func:`decode`, value for value and error for
    error: it matches the constants and reads each value with its field's
    reader (``readers``, default ``_read_value``), and on any mismatch
    returns the generic decoder's result instead.
    """

    def __init__(
        self,
        *keys: str,
        readers: Mapping[str, Reader] | None = None,
        writers: Mapping[str, Writer] | None = None,
    ) -> None:
        readers, writers = readers or {}, writers or {}
        self.keys = tuple(sorted(keys))
        if len(set(self.keys)) != len(self.keys) or not set(readers) | set(writers) <= set(keys):
            raise ValueError("record keys must be distinct and name every reader and writer")
        self._head = _DICT_HEADS[len(self.keys)]
        self._fields = tuple(
            (key, encode(key), readers.get(key, _read_value), writers.get(key, write_value))
            for key in self.keys
        )
        self._readers = tuple(
            (key, prefix, len(prefix), read) for key, prefix, read, _write in self._fields
        )

    def encode(self, values: Mapping[str, Any]) -> bytes:
        out = bytearray(self._head)
        for key, prefix, _read, write in self._fields:
            out += prefix
            write(values[key], out)
        return bytes(out)

    def decode(self, data: bytes) -> Any:
        data = bytes(data)
        fields = self._match(data)
        return decode(data) if fields is None else fields

    def _match(self, data: bytes) -> dict | None:
        if not data.startswith(self._head):
            return None
        pos = len(self._head)
        fields = {}
        try:
            for key, prefix, size, read in self._readers:
                if not data.startswith(prefix, pos):
                    return None
                got = read(data, pos + size)
                if got is None:
                    return None
                fields[key], pos = got
        except (IndexError, EncodingError, RecursionError):
            return None  # the generic decoder raises its own error for these bytes
        return fields if pos == len(data) else None
