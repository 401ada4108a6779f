"""Deliberately naive reference model of the command surface.

Everything here is the dumbest structure that can be correct: plain dicts,
plain sets, plain lists, and a member->score dict that gets rescanned with
sorted() on every range query. Nothing is shared with the engine except
the reply value types, so a bug has to be made twice to hide.
"""

from __future__ import annotations

import math
import re

from miniredis.protocol import Array, BulkString, Error, Integer, SimpleString

WRONGTYPE = "WRONGTYPE Operation against a key holding the wrong kind of value"

_INT_RE = re.compile(rb"[+-]?[0-9]+")
# Redis float syntax (strtod's): decimal or exponent forms, hex floats with
# an optional binary exponent, and infinities; no NaN, no surrounding
# whitespace, no '_' digit separators. `mantissa` is the digits before any
# exponent, which tells a literal that underflows from a spelled zero.
_FLOAT_RE = re.compile(
    rb"[+-]?(?:(?P<mantissa>[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?"
    rb"|0x(?P<hex>[0-9a-f]+\.?[0-9a-f]*|\.[0-9a-f]+)(?:p[+-]?[0-9]+)?"
    rb"|inf|infinity)",
    re.IGNORECASE,
)
_INFINITY_RE = re.compile(rb"[+-]?inf(?:inity)?", re.IGNORECASE)

# (min, max) argument counts, command name excluded; None means variadic.
_ARITY = {
    "PING": (0, 1),
    "SET": (2, 2),
    "GET": (1, 1),
    "HSET": (3, 3),
    "HGET": (2, 2),
    "HEXISTS": (2, 2),
    "HDEL": (2, None),
    "SADD": (2, None),
    "SREM": (2, None),
    "SINTER": (1, None),
    "SUNION": (1, None),
    "SDIFF": (1, None),
    "LPUSH": (2, None),
    "LLEN": (1, 1),
    "LINDEX": (2, 2),
    "LRANGE": (3, 3),
    "ZADD": (3, None),
    "ZRANGEBYSCORE": (3, 3),
    "DEL": (1, None),
    "EXISTS": (1, None),
    "FLUSHALL": (0, 0),
}


class Wrong(Exception):
    """Internal: surface an error reply from helper depth."""

    def __init__(self, message: str):
        self.message = message


class Oracle:
    """Applies one command at a time, returning the expected reply."""

    def __init__(self) -> None:
        self.data: dict[bytes, tuple[str, object]] = {}

    # -- plumbing ---------------------------------------------------------

    def apply(self, argv: list[bytes]):
        name = argv[0].decode("latin-1").upper()
        args = argv[1:]
        if name not in _ARITY:
            shown = argv[0].decode("latin-1").encode("unicode_escape").decode("ascii")
            return Error(f"ERR unknown command '{shown}'")
        low, high = _ARITY[name]
        if len(args) < low or (high is not None and len(args) > high):
            return Error(f"ERR wrong number of arguments for '{name.lower()}' command")
        try:
            return getattr(self, "_" + name.lower())(args)
        except Wrong as exc:
            return Error(exc.message)

    def _value(self, key: bytes, kind: str):
        entry = self.data.get(key)
        if entry is None:
            return None
        if entry[0] != kind:
            raise Wrong(WRONGTYPE)
        return entry[1]

    def _int(self, raw: bytes) -> int:
        if not _INT_RE.fullmatch(raw) or not -(2**63) <= int(raw) < 2**63:
            raise Wrong("ERR value is not an integer or out of range")
        return int(raw)

    def _float(self, raw: bytes, message: str) -> float:
        match = _FLOAT_RE.fullmatch(raw)
        if not match:
            raise Wrong(message)
        if match["hex"] is None:
            return float(raw)
        try:
            return float.fromhex(raw.decode("ascii"))
        except OverflowError:
            return -math.inf if raw.startswith(b"-") else math.inf

    def _score(self, raw: bytes) -> float:
        score = self._float(raw, "ERR value is not a valid float")
        # strtod's ERANGE is an error for a score: a literal that overflows
        # (1e400) or a nonzero one that underflows to zero (1e-400).
        if math.isinf(score) and not _INFINITY_RE.fullmatch(raw):
            raise Wrong("ERR value is not a valid float")
        match = _FLOAT_RE.fullmatch(raw)
        digits = match["mantissa"] or match["hex"] or b""
        if score == 0 and any(ch not in b"0." for ch in digits):
            raise Wrong("ERR value is not a valid float")
        return score

    # -- commands -----------------------------------------------------------

    def _ping(self, args):
        return BulkString(args[0]) if args else SimpleString("PONG")

    def _set(self, args):
        self.data[args[0]] = ("string", args[1])
        return SimpleString("OK")

    def _get(self, args):
        value = self._value(args[0], "string")
        return BulkString(value)

    def _hset(self, args):
        table = self._value(args[0], "hash")
        if table is None:
            table = {}
            self.data[args[0]] = ("hash", table)
        fresh = args[1] not in table
        table[args[1]] = args[2]
        return Integer(1 if fresh else 0)

    def _hget(self, args):
        table = self._value(args[0], "hash")
        return BulkString(None if table is None else table.get(args[1]))

    def _hexists(self, args):
        table = self._value(args[0], "hash")
        return Integer(1 if table is not None and args[1] in table else 0)

    def _hdel(self, args):
        table = self._value(args[0], "hash")
        if table is None:
            return Integer(0)
        gone = 0
        for field in args[1:]:
            if field in table:
                del table[field]
                gone += 1
        if not table:
            del self.data[args[0]]
        return Integer(gone)

    def _sadd(self, args):
        members = self._value(args[0], "set")
        if members is None:
            members = set()
            self.data[args[0]] = ("set", members)
        added = 0
        for member in args[1:]:
            if member not in members:
                members.add(member)
                added += 1
        return Integer(added)

    def _srem(self, args):
        members = self._value(args[0], "set")
        if members is None:
            return Integer(0)
        gone = 0
        for member in args[1:]:
            if member in members:
                members.remove(member)
                gone += 1
        if not members:
            del self.data[args[0]]
        return Integer(gone)

    def _operands(self, keys):
        return [self._value(key, "set") or set() for key in keys]

    def _sinter(self, args):
        groups = self._operands(args)
        result = groups[0]
        for group in groups[1:]:
            result = {m for m in result if m in group}
        return _members(result)

    def _sunion(self, args):
        result: set[bytes] = set()
        for group in self._operands(args):
            result = result | group
        return _members(result)

    def _sdiff(self, args):
        groups = self._operands(args)
        result = set(groups[0])
        for group in groups[1:]:
            result = {m for m in result if m not in group}
        return _members(result)

    def _lpush(self, args):
        items = self._value(args[0], "list")
        if items is None:
            items = []
            self.data[args[0]] = ("list", items)
        for value in args[1:]:
            items.insert(0, value)
        return Integer(len(items))

    def _llen(self, args):
        items = self._value(args[0], "list")
        return Integer(0 if items is None else len(items))

    def _lindex(self, args):
        index = self._int(args[1])
        items = self._value(args[0], "list") or []
        if index < 0:
            index += len(items)
        if 0 <= index < len(items):
            return BulkString(items[index])
        return BulkString(None)

    def _lrange(self, args):
        start, stop = self._int(args[1]), self._int(args[2])
        items = self._value(args[0], "list") or []
        picked = []
        for position in range(len(items)):
            normal_start = start + len(items) if start < 0 else start
            normal_stop = stop + len(items) if stop < 0 else stop
            if normal_start <= position <= normal_stop:
                picked.append(items[position])
        return Array(tuple(BulkString(item) for item in picked))

    def _zadd(self, args):
        if len(args) % 2 == 0:
            raise Wrong("ERR syntax error")
        pairs = []
        for i in range(1, len(args), 2):
            pairs.append((self._score(args[i]), args[i + 1]))
        scores = self._value(args[0], "zset")
        if scores is None:
            scores = {}
            self.data[args[0]] = ("zset", scores)
        added = 0
        for score, member in pairs:
            if member not in scores:
                added += 1
            scores[member] = score
        return Integer(added)

    def _zrangebyscore(self, args):
        low_raw, high_raw = args[1], args[2]
        low_open = low_raw.startswith(b"(")
        high_open = high_raw.startswith(b"(")
        low = self._float(low_raw[1:] if low_open else low_raw, "ERR min or max is not a float")
        high = self._float(high_raw[1:] if high_open else high_raw, "ERR min or max is not a float")
        scores = self._value(args[0], "zset") or {}
        chosen = []
        for score, member in sorted((s, m) for m, s in scores.items()):
            low_ok = score > low if low_open else score >= low
            high_ok = score < high if high_open else score <= high
            if low_ok and high_ok:
                chosen.append(member)
        return Array(tuple(BulkString(m) for m in chosen))

    def _del(self, args):
        gone = 0
        for key in args:
            if key in self.data:
                del self.data[key]
                gone += 1
        return Integer(gone)

    def _exists(self, args):
        return Integer(sum(1 for key in args if key in self.data))

    def _flushall(self, args):
        self.data.clear()
        return SimpleString("OK")


def _members(group: set[bytes]) -> Array:
    return Array(tuple(BulkString(m) for m in sorted(group)))


def replies_equal(argv: list[bytes], engine_reply, oracle_reply) -> bool:
    """Reply equality, order included: the set algebra must reply with its
    members sorted by bytes, as ``_members`` lists them."""
    return engine_reply == oracle_reply
