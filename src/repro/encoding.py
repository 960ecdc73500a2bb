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

Every wire and persisted record type — journals, requests, receipts, signed
heads, proofs, MPT nodes, bundles — has one strict schema: a
:class:`Record` that names each key's :class:`Kind` (a typed reader, a
writer, and the Python value it yields).  A record decoder accepts exactly
the bytes its writer produces and raises :class:`EncodingError` on anything
else; it never falls back to :func:`decode`.  What it accepts is a subset
of what :func:`decode` accepts, read to the same value, so the generic
decoder stays the oracle it is tested against.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Mapping, NamedTuple, Optional

__all__ = [
    "encode",
    "decode",
    "EncodingError",
    "Kind",
    "Record",
    "UINT",
    "INT",
    "FLOAT",
    "BOOL",
    "STR",
    "BYTES",
    "BYTES_LIST",
    "ANY",
    "list_of",
    "row",
    "mapped",
    "enum_of",
    "nested",
    "optional",
    "nullable",
    "dict_of",
    "inline",
    "bytes_head",
    "list_head",
    "read_bytes",
    "read_list_size",
    "read_dict_size",
    "peek",
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


# ------------------------------------------------------------ record codecs
#
# A *reader* takes ``(data, pos)`` and returns ``(value, new_pos)`` for the
# canonical encoding of one value of its kind at ``pos``.  For any other
# bytes it returns None, raises IndexError where they end early, or raises
# EncodingError; :meth:`Record.decode` turns all three into EncodingError.
# Readers check a length against the input before they slice or loop, so
# what they allocate is bounded by the input's size.  A *writer* appends one
# value's encoding to a buffer.

Reader = Callable[[bytes, int], Optional[tuple[Any, int]]]
Writer = Callable[[Any, bytearray], None]


class Kind(NamedTuple):
    """One field type of a :class:`Record`: how it is read and written.

    ``read`` yields the Python value the field holds (an enum member, a
    signature, a tuple, a nested record's object); ``write`` takes that
    value and writes the canonical form :func:`encode` gives its primitive.
    """

    read: Reader
    write: Writer


def _write_bytes(value: bytes, out: bytearray) -> None:
    size = len(value)
    out += _BYTES_HEADS[size] if size < 256 else _TAG_BYTES + _encode_length(size)
    out += value


def _write_bytes_list(values: list[bytes], out: bytearray) -> None:
    out += list_head(len(values))
    for value in values:
        _write_bytes(value, out)


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
        start = pos + 3
        end = start + data[pos + 2]
    else:
        got = _read_size(data, pos + 1)
        if got is None:
            return None
        size, start = got
        end = start + size
    return (data[start:end], end) if end <= len(data) else None


def _read_str(data: bytes, pos: int) -> tuple[str, int] | None:
    if data[pos] != _T_STR:
        return None
    if data[pos + 1] == 1 and data[pos + 2]:
        start = pos + 3
        end = start + data[pos + 2]
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


def _read_uint(data: bytes, pos: int) -> tuple[int, int] | None:
    if data[pos] != _T_INT_POS:
        return None
    return _read_size(data, pos + 1)


def _read_int(data: bytes, pos: int) -> tuple[int, int] | None:
    if data[pos] == _T_INT_POS:
        return _read_size(data, pos + 1)
    if data[pos] != _T_INT_NEG:
        return None
    got = _read_size(data, pos + 1)
    return None if got is None or not got[0] else (-got[0], got[1])


def _read_float(data: bytes, pos: int) -> tuple[float, int] | None:
    end = pos + 9
    if data[pos] != _T_FLOAT or end > len(data):
        return None
    return _FLOAT.unpack_from(data, pos + 1)[0], end


def _read_bool(data: bytes, pos: int) -> tuple[bool, int] | None:
    tag = data[pos]
    if tag == _T_TRUE:
        return True, pos + 1
    return (False, pos + 1) if tag == _T_FALSE else None


def read_list_size(data: bytes, pos: int) -> tuple[int, int] | None:
    """The head of a list: returns (item count, position of the first item)."""
    if data[pos] != _T_LIST:
        return None
    return _read_size(data, pos + 1)


def read_dict_size(data: bytes, pos: int) -> tuple[int, int] | None:
    """The head of a dict: returns (key count, position of the first key)."""
    if data[pos] != _T_DICT:
        return None
    return _read_size(data, pos + 1)


def peek(data: bytes, keys: tuple[str, ...]) -> dict:
    """The top-level entries under ``keys`` of the dict encoded in ``data``,
    read only as far as the last of them: a look at a message's envelope
    before its :class:`Record` is known.  Raises :class:`EncodingError` if
    ``data`` does not start with a dict.
    """
    try:
        got = read_dict_size(data, 0)
        if got is None:
            raise EncodingError("not a dict")
        (size, pos), found, last = got, {}, max(keys)
        for _ in range(size):
            key, pos = _read_value(data, pos)
            if type(key) is not str or key > last:
                break
            value, pos = _read_value(data, pos)
            if key in keys:
                found[key] = value
            if key == last:
                break
        return found
    except (IndexError, RecursionError):
        raise EncodingError("truncated or too deeply nested input") from None


def _read_list(data: bytes, pos: int, read_item: Reader) -> tuple[list, int] | None:
    got = read_list_size(data, pos)
    if got is None:
        return None
    size, pos = got
    items = []
    for _ in range(size):  # each item takes at least one byte: IndexError bounds this
        got = read_item(data, pos)
        if got is None:
            return None
        item, pos = got
        items.append(item)
    return items, pos


def _read_bytes_list(data: bytes, pos: int) -> tuple[list[bytes], int] | None:
    return _read_list(data, pos, read_bytes)


UINT = Kind(_read_uint, _encode_fast)
INT = Kind(_read_int, _encode_fast)
FLOAT = Kind(_read_float, _encode_fast)
BOOL = Kind(_read_bool, _encode_fast)
STR = Kind(_read_str, _encode_fast)
BYTES = Kind(read_bytes, _write_bytes)
BYTES_LIST = Kind(_read_bytes_list, _write_bytes_list)
#: Any one value, read by the generic decoder: a field carried on undecoded.
ANY = Kind(_read_value, _encode_fast)


def list_of(item: Kind, into: Callable[[list], Any] = list) -> Kind:
    """A list of ``item`` values, read into ``into`` (``list`` or ``tuple``)."""

    def read(data: bytes, pos: int):
        got = _read_list(data, pos, item.read)
        return None if got is None else (into(got[0]), got[1])

    def write(values, out: bytearray) -> None:
        out += list_head(len(values))
        for value in values:
            item.write(value, out)

    return Kind(read, write)


def row(*items: Kind) -> Kind:
    """A fixed-length list whose positions have their own kinds, as a tuple."""
    head = list_head(len(items))

    def read(data: bytes, pos: int):
        if not data.startswith(head, pos):
            return None
        pos += len(head)
        values = []
        for item in items:
            got = item.read(data, pos)
            if got is None:
                return None
            value, pos = got
            values.append(value)
        return tuple(values), pos

    def write(values, out: bytearray) -> None:
        if len(values) != len(items):
            raise EncodingError(f"expected {len(items)} values, got {len(values)}")
        out += head
        for item, value in zip(items, values):
            item.write(value, out)

    return Kind(read, write)


def mapped(kind: Kind, load: Callable[[Any], Any], dump: Callable[[Any], Any]) -> Kind:
    """``kind`` read through ``load`` and written from ``dump(value)``.

    ``load`` raises EncodingError for a value it refuses (say, tiles out of
    order, which would not re-encode to the same bytes).
    """

    def read(data: bytes, pos: int):
        got = kind.read(data, pos)
        return None if got is None else (load(got[0]), got[1])

    return Kind(read, lambda value, out: kind.write(dump(value), out))


def enum_of(cls: type) -> Kind:
    """An :class:`~enum.Enum` member, written as its ``str`` value."""
    members = {member.value: member for member in cls}

    def read(data: bytes, pos: int):
        got = _read_str(data, pos)
        if got is None or got[0] not in members:
            return None
        return members[got[0]], got[1]

    return Kind(read, lambda member, out: _encode_fast(member.value, out))


def nested(cls: Any) -> Kind:
    """An object carried as the bytes of its own ``to_bytes``/``from_bytes``."""

    def read(data: bytes, pos: int):
        got = read_bytes(data, pos)
        return None if got is None else (cls.from_bytes(got[0]), got[1])

    return Kind(read, lambda value, out: _write_bytes(value.to_bytes(), out))


_EMPTY_BYTES = _BYTES_HEADS[0]


def optional(kind: Kind) -> Kind:
    """A bytes-carried ``kind`` where the empty byte string means None."""

    def read(data: bytes, pos: int):
        if data.startswith(_EMPTY_BYTES, pos):
            return None, pos + 2
        return kind.read(data, pos)

    def write(value, out: bytearray) -> None:
        if value is None:
            out += _EMPTY_BYTES
        else:
            kind.write(value, out)

    return Kind(read, write)


def nullable(kind: Kind) -> Kind:
    """``kind`` or None, written as the ``N`` tag."""

    def read(data: bytes, pos: int):
        return (None, pos + 1) if data[pos] == _T_NONE else kind.read(data, pos)

    def write(value, out: bytearray) -> None:
        if value is None:
            out += _TAG_NONE
        else:
            kind.write(value, out)

    return Kind(read, write)


def dict_of(value: Kind) -> Kind:
    """A dict from ``str`` keys (written sorted) to ``value`` values."""

    def read(data: bytes, pos: int):
        if data[pos] != _T_DICT:
            return None
        got = _read_size(data, pos + 1)
        if got is None:
            return None
        size, pos = got
        items: dict = {}
        for _ in range(size):  # each key takes at least one byte: IndexError bounds this
            got = _read_str(data, pos)
            if got is None or (items and got[0] <= key):
                return None
            key, pos = got
            got = value.read(data, pos)
            if got is None:
                return None
            items[key], pos = got
        return items, pos

    def write(items, out: bytearray) -> None:
        size = len(items)
        out += _DICT_HEADS[size] if size < 256 else _TAG_DICT + _encode_length(size)
        for key in sorted(items):
            _encode_fast(key, out)
            value.write(items[key], out)

    return Kind(read, write)


def inline(schema: Any) -> Kind:
    """A :class:`Record` (or anything with its ``read``/``write``) nested as
    a dict value, not as bytes."""
    return Kind(schema.read, schema.write)


class Record:
    """The one declaration of a dict-shaped wire type: its keys, each key's
    :class:`Kind`, and constant keys (a ``scheme`` or ``mode`` tag).

    ``Record(jsn=UINT, payload=BYTES, scheme="repro.x.v1")``: keyword
    values that are a :class:`Kind` are fields, a ``str`` is a constant.

    :meth:`encode` writes the bytes :func:`encode` gives the dict of these
    keys — the dict head, every key and every constant are pre-encoded here,
    so only the field values are walked, each by its kind's writer.
    :meth:`decode` is strict: it returns the fields (constants left out)
    of exactly those bytes and raises :class:`EncodingError` on anything
    else — a wrong type, a missing or extra key, a wrong constant, an
    out-of-range enum, truncation, trailing bytes.  It accepts a subset of
    what :func:`decode` accepts, value for value, and never falls back to it.
    """

    def __init__(self, **keys: Kind | str) -> None:
        prefix = bytearray(_DICT_HEADS[len(keys)])
        fields = []
        for key in sorted(keys):
            kind = keys[key]
            prefix += encode(key)
            if isinstance(kind, Kind):
                fields.append((key, bytes(prefix), len(prefix), kind.read, kind.write))
                prefix = bytearray()
            else:
                prefix += encode(kind)
        self._fields = tuple(fields)
        self._tail = bytes(prefix)

    def encode(self, values: Mapping[str, Any]) -> bytes:
        out = bytearray()
        self.write(values, out)
        return bytes(out)

    def write(self, values: Mapping[str, Any], out: bytearray) -> None:
        for key, prefix, _size, _read, write in self._fields:
            out += prefix
            write(values[key], out)
        out += self._tail

    def decode(self, data: bytes) -> dict:
        data = bytes(data)
        try:
            fields, pos = self.read(data, 0)
        except IndexError:
            raise EncodingError("truncated record") from None
        except RecursionError:  # an ANY field
            raise EncodingError("nesting too deep") from None
        if pos != len(data):
            raise EncodingError("trailing bytes after record")
        return fields

    def read(self, data: bytes, pos: int) -> tuple[dict, int]:
        """The fields of the record at ``pos``; a :data:`Reader` that raises."""
        fields = {}
        for key, prefix, size, read, _write in self._fields:
            if not data.startswith(prefix, pos):
                raise EncodingError(f"record field {key!r}: key or constant mismatch")
            try:
                got = read(data, pos + size)
            except EncodingError as exc:  # a nested record's refusal, named here
                raise EncodingError(f"record field {key!r}: {exc}") from None
            if got is None:
                raise EncodingError(f"record field {key!r}: malformed value")
            fields[key], pos = got
        if not data.startswith(self._tail, pos):
            raise EncodingError("record constant mismatch")
        return fields, pos + len(self._tail)

    def of(self, cls: Any) -> Kind:
        """This record inline (a dict, not bytes) as an instance of ``cls``:
        read as ``cls(**fields)``, written from ``vars(instance)``."""

        def read(data: bytes, pos: int):
            fields, pos = self.read(data, pos)
            return cls(**fields), pos

        return Kind(read, lambda value, out: self.write(vars(value), out))
