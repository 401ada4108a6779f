"""Synchronous client: one connection, plus matrix and blob conventions.

The matrix convention stores a numeric matrix in a sorted set, one member
per row, scored by the row's first column. Members pack the entire row
(score included) as a big-endian u32 column count followed by IEEE-754
binary64 columns, so decoding is exact for every finite value and needs no
server-side cooperation. A row given as ``array("d")`` is packed with one
copy and one byteswap; any other sequence goes cell by cell through
``float()``. Both give the same bytes. The blob convention is plainer
still: hash fields hold arbitrary bytes untouched.
"""

from __future__ import annotations

import functools
import math
import socket
import struct
import sys
from array import array
from collections import deque
from typing import Sequence

from .errors import ReplyError, RowDecodeError
from .protocol import (
    Array,
    BulkString,
    Error,
    Integer,
    ProtocolValue,
    StreamDecoder,
    encode_command,
)


def format_float(value: float) -> str:
    """Shortest text that parses back to the same float; integral values
    print without a decimal point."""
    if math.isnan(value) or math.isinf(value):
        return repr(value)
    if value == int(value) and abs(value) < 1e17:
        return str(int(value))
    return repr(value)


def _encode_arg(arg) -> bytes:
    if isinstance(arg, bytes):
        return arg
    if isinstance(arg, bytearray):
        return bytes(arg)
    if isinstance(arg, str):
        return arg.encode("utf-8")
    if isinstance(arg, bool):
        raise TypeError("refusing to guess a wire form for bool")
    if isinstance(arg, int):
        return b"%d" % arg
    if isinstance(arg, float):
        return format_float(arg).encode("ascii")
    raise TypeError(f"cannot send {type(arg).__name__} as a command argument")


_ALL_BYTES = {bytes}


class Connection:
    """A single client connection with pipelining support.

    ``execute`` returns whatever the server replied, errors included;
    ``call`` raises ReplyError on an error reply instead.
    """

    def __init__(self, host: str = "localhost", port: int = 6379, timeout: float | None = None):
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._decoder = StreamDecoder()
        self._replies: deque[ProtocolValue] = deque()

    def send_command(self, *args) -> None:
        """Write one command frame without waiting for the reply."""
        if not args:
            raise ValueError("empty command")
        if set(map(type, args)) != _ALL_BYTES:  # one C pass; bytes go as they are
            args = [_encode_arg(a) for a in args]
        self._sock.sendall(encode_command(args))

    def read_reply(self) -> ProtocolValue:
        """Next pending reply, reading from the socket as needed."""
        while not self._replies:
            data = self._sock.recv(65536)
            if not data:
                raise ConnectionError("server closed the connection")
            self._replies.extend(self._decoder.feed(data))
        return self._replies.popleft()

    def execute(self, *args) -> ProtocolValue:
        self.send_command(*args)
        return self.read_reply()

    def call(self, *args) -> ProtocolValue:
        reply = self.execute(*args)
        if isinstance(reply, Error):
            raise ReplyError(reply.text)
        return reply

    def settimeout(self, timeout: float | None) -> None:
        self._sock.settimeout(timeout)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- matrix convention ----------------------------------------------------

_ROW_COUNT = struct.Struct(">I")
_SCORE = struct.Struct(">d")
_SWAP = sys.byteorder == "little"  # native doubles -> big-endian columns


@functools.lru_cache(maxsize=64)
def _row_struct(width: int) -> struct.Struct:
    return struct.Struct(f">I{width}d")


@functools.lru_cache(maxsize=64)
def _columns_struct(count: int) -> struct.Struct:
    return struct.Struct(f">{count}d")


def encode_row(row: Sequence[float]) -> bytes:
    """Pack one row of floats; identical rows always pack identically."""
    if type(row) is array and row.typecode == "d":
        values = array("d", row)  # one copy of the native doubles
        if _SWAP:
            values.byteswap()
        return _ROW_COUNT.pack(len(values)) + values.tobytes()
    values = list(map(float, row))
    return _row_struct(len(values)).pack(len(values), *values)


def decode_row(member: bytes) -> tuple[float, ...]:
    """Unpack a member produced by encode_row, or explain what it was."""
    if len(member) < _ROW_COUNT.size:
        raise RowDecodeError(f"member too short for a packed row: {_preview(member)}")
    (count,) = _ROW_COUNT.unpack_from(member)
    expected = _ROW_COUNT.size + 8 * count
    if len(member) != expected:
        raise RowDecodeError(
            f"member claims {count} columns ({expected} bytes) but has "
            f"{len(member)}: {_preview(member)}"
        )
    return _columns_struct(count).unpack_from(member, _ROW_COUNT.size)


def _preview(member: bytes) -> str:
    shown = member[:20].hex()
    return shown + ("..." if len(member) > 20 else "")


def zadd_matrix(conn: Connection, key, rows: Sequence[Sequence[float]]) -> int:
    """Store a matrix, one sorted-set member per row, scored by column 0.

    Rows must be rectangular with at least one column; violations raise
    ValueError before anything is sent.
    """
    members = [encode_row(row) for row in rows]  # each value converted once
    if not members:
        return 0
    size = len(members[0])
    if size == _ROW_COUNT.size:
        raise ValueError("matrix rows need at least one column")
    if any(len(member) != size for member in members):
        raise ValueError("ragged matrix: all rows must have the same column count")
    args = [b"ZADD", _encode_arg(key)]
    for member in members:
        (score,) = _SCORE.unpack_from(member, _ROW_COUNT.size)
        args += (format_float(score).encode("ascii"), member)
    return _expect(Integer, "ZADD", conn.call(*args)).value


def zrangebyscore_matrix(conn: Connection, key, low, high) -> list[list[float]]:
    """Rows whose score falls in [low, high], decoded, in score order.

    Bounds may be numbers or strings like "(100", "-inf", "+inf".
    """
    command = "ZRANGEBYSCORE"
    reply = _expect(Array, command, conn.call(command, key, _bound_arg(low), _bound_arg(high)))
    # A null member is too short for a packed row; a null array holds no rows.
    members = [_expect(BulkString, command, item).payload or b"" for item in reply.items or ()]
    return [list(decode_row(member)) for member in members]


def _bound_arg(bound) -> bytes:
    if isinstance(bound, (bytes, str)):
        return _encode_arg(bound)
    return format_float(float(bound)).encode("ascii")


# -- blob convention ---------------------------------------------------------


def hset_blob(conn: Connection, key, field, payload: bytes) -> int:
    """Store opaque bytes in a hash field; 1 if the field is new."""
    return _expect(Integer, "HSET", conn.call("HSET", key, field, payload)).value


def hget_blob(conn: Connection, key, field) -> bytes | None:
    """Fetch opaque bytes back, byte-for-byte; None when absent."""
    return _expect(BulkString, "HGET", conn.call("HGET", key, field)).payload


def _expect(kind: type, command: str, value: ProtocolValue):
    """``value`` (a reply, or an item of one) if it is a ``kind``; else ReplyError."""
    if not isinstance(value, kind):
        raise ReplyError(f"unexpected reply to {command}: {value!r:.200} is not a {kind.__name__}")
    return value
