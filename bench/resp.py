"""The benchmark's own RESP2 codec, kept apart from miniredis.

Expected replies are built here from the benchmark's model, never with the
program's encoder, so a fault in miniredis's codec cannot hide itself.
Parsed replies are plain Python values: bytes or None for bulk strings,
int for integers, list for arrays, and ``Simple``/``Err`` for line replies.
"""

from __future__ import annotations

from typing import NamedTuple


class Simple(NamedTuple):
    text: bytes


class Err(NamedTuple):
    text: bytes


class Incomplete(Exception):
    """The buffer ends inside a reply."""


def command(*args: bytes) -> bytes:
    out = [b"*%d\r\n" % len(args)]
    for arg in args:
        out.append(b"$%d\r\n%s\r\n" % (len(arg), arg))
    return b"".join(out)


def bulk(payload: bytes | None) -> bytes:
    if payload is None:
        return b"$-1\r\n"
    return b"$%d\r\n%s\r\n" % (len(payload), payload)


def integer(value: int) -> bytes:
    return b":%d\r\n" % value


def array(items: list[bytes]) -> bytes:
    return b"".join([b"*%d\r\n" % len(items)] + [bulk(item) for item in items])


OK = b"+OK\r\n"


def parse(buf: bytes, pos: int = 0):
    """Parse one reply starting at ``pos``; returns (value, next_pos)."""
    end = buf.find(b"\r\n", pos)
    if end < 0:
        raise Incomplete
    marker, line = buf[pos : pos + 1], buf[pos + 1 : end]
    nxt = end + 2
    if marker == b"+":
        return Simple(bytes(line)), nxt
    if marker == b"-":
        return Err(bytes(line)), nxt
    if marker == b":":
        return int(line), nxt
    if marker == b"$":
        length = int(line)
        if length < 0:
            return None, nxt
        if len(buf) < nxt + length + 2:
            raise Incomplete
        return bytes(buf[nxt : nxt + length]), nxt + length + 2
    if marker == b"*":
        count = int(line)
        if count < 0:
            return None, nxt
        items = []
        for _ in range(count):
            item, nxt = parse(buf, nxt)
            items.append(item)
        return items, nxt
    raise ValueError(f"unknown reply type {marker!r} at offset {pos}")


def parse_all(buf: bytes) -> tuple[list, int]:
    """Every complete reply in ``buf`` and the offset after the last one."""
    values, pos = [], 0
    while pos < len(buf):
        try:
            value, pos = parse(buf, pos)
        except Incomplete:
            break
        values.append(value)
    return values, pos
