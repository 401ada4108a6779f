"""Typed in-memory keyspace: strings, hashes, sets, lists, sorted sets.

One KeyStore instance is the whole keyspace. Keys and values are byte
strings throughout; keys are case-sensitive. Each key holds exactly one
value family, and touching a key with an operation from another family
raises WrongTypeError without mutating anything. Collections never sit
empty in the keyspace: removing the last element removes the key.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Sequence

from .errors import CommandError, WrongTypeError
from .protocol import INT64_MAX, INT64_MIN, strict_int

_SKIPLIST_MAX_LEVEL = 32
_SKIPLIST_P = 0.25
_UNDERSCORE = ord("_")


def parse_int(raw: bytes) -> int:
    """Strict 64-bit integer argument parser (no whitespace, no frills)."""
    value = strict_int(raw)
    if value is None or not INT64_MIN <= value <= INT64_MAX:
        raise CommandError("ERR value is not an integer or out of range")
    return value


def parse_float(raw: bytes, message: str) -> float:
    """Redis float syntax: what ``float`` takes plus hex floats (``0x10``,
    ``-0x1.8p3``, as ``strtod`` reads them), minus NaN, ``_`` and leading or
    trailing whitespace (Redis's ``strtod`` checks refuse them). Infinities
    and exponents pass; a hex float too large for a double reads as an
    infinity, as a decimal one does. Raises CommandError(message) otherwise."""
    try:
        value = float(raw)
    except ValueError:
        value = _hex_float(raw, message)
    # float() refused every other control byte, so an end byte at or below
    # b" " is whitespace. (An int needle keeps `in` off its slow path.)
    if math.isnan(value) or raw[0] <= 32 or raw[-1] <= 32 or _UNDERSCORE in raw:
        raise CommandError(message)
    return value


def _hex_float(raw: bytes, message: str) -> float:
    text = raw.decode("latin-1")
    # Only after a 0x prefix: float.fromhex("10") would read 16.
    if text.lstrip("+-")[:2].lower() != "0x":
        raise CommandError(message)
    try:
        return float.fromhex(text)
    except ValueError:
        raise CommandError(message) from None
    except OverflowError:
        return -math.inf if text.startswith("-") else math.inf


def parse_score(raw: bytes) -> float:
    """Sorted-set score parser: any finite float or infinity literal, never
    NaN. As Redis's ``string2d`` refuses strtod's ERANGE, a finite literal
    too large for a double (``1e400``) is refused, and so is a nonzero one
    that reads as zero (``1e-400``)."""
    value = parse_float(raw, "ERR value is not a valid float")
    if math.isinf(value) and raw.lstrip(b"+-").lower() not in (b"inf", b"infinity"):
        raise CommandError("ERR value is not a valid float")
    if not value:
        text = raw.lstrip(b"+-").lower()
        if text.startswith(b"0x"):
            mantissa = text[2:].partition(b"p")[0]
        else:
            mantissa = text.partition(b"e")[0]
        if mantissa.strip(b"0."):
            raise CommandError("ERR value is not a valid float")
    return value


@dataclass(frozen=True)
class RangeBound:
    """One end of a score interval; ``exclusive`` comes from a '(' prefix."""

    value: float
    exclusive: bool = False

    @classmethod
    def parse(cls, raw: bytes) -> "RangeBound":
        exclusive = raw.startswith(b"(")
        if exclusive:
            raw = raw[1:]
        return cls(parse_float(raw, "ERR min or max is not a float"), exclusive)

    def admits_low(self, score: float) -> bool:
        """True when ``score`` clears this bound used as the minimum."""
        return score > self.value if self.exclusive else score >= self.value

    def admits_high(self, score: float) -> bool:
        """True when ``score`` clears this bound used as the maximum."""
        return score < self.value if self.exclusive else score <= self.value


class _Node:
    __slots__ = ("score", "member", "forward")

    def __init__(self, score: float, member: bytes, level: int):
        self.score = score
        self.member = member
        self.forward: list[_Node | None] = [None] * level


class SortedSet:
    """Unique members ordered by (score, member bytes).

    A skip list carries the ordering (O(log n) insert and remove, ranges in
    O(log n + k)); a dict carries member -> score for O(1) lookups. Same
    random level sequence every run, so structure is reproducible.
    """

    def __init__(self) -> None:
        self._head = _Node(float("-inf"), b"", _SKIPLIST_MAX_LEVEL)
        self._level = 1
        self._scores: dict[bytes, float] = {}
        self._rand = random.Random(0x5CA1AB1E)

    def __len__(self) -> int:
        return len(self._scores)

    def __contains__(self, member: bytes) -> bool:
        return member in self._scores

    def score(self, member: bytes) -> float | None:
        return self._scores.get(member)

    def add(self, score: float, member: bytes) -> bool:
        """Insert or rescore; returns True only when the member is new."""
        current = self._scores.get(member)
        if current is not None:
            if current == score:
                return False
            self._unlink(current, member)
            self._insert(score, member)
            self._scores[member] = score
            return False
        self._insert(score, member)
        self._scores[member] = score
        return True

    def remove(self, member: bytes) -> bool:
        score = self._scores.pop(member, None)
        if score is None:
            return False
        self._unlink(score, member)
        return True

    def range_by_score(self, low: RangeBound, high: RangeBound) -> list[bytes]:
        """Members whose score lies inside [low, high], in rank order."""
        node = self._head
        for lvl in range(self._level - 1, -1, -1):
            nxt = node.forward[lvl]
            while nxt is not None and not low.admits_low(nxt.score):
                node = nxt
                nxt = node.forward[lvl]
        out: list[bytes] = []
        cursor = node.forward[0]
        while cursor is not None and high.admits_high(cursor.score):
            out.append(cursor.member)
            cursor = cursor.forward[0]
        return out

    def items(self) -> Iterator[tuple[float, bytes]]:
        """All (score, member) pairs in rank order."""
        cursor = self._head.forward[0]
        while cursor is not None:
            yield cursor.score, cursor.member
            cursor = cursor.forward[0]

    def _random_level(self) -> int:
        level = 1
        while level < _SKIPLIST_MAX_LEVEL and self._rand.random() < _SKIPLIST_P:
            level += 1
        return level

    def _path_to(self, score: float, member: bytes) -> list[_Node]:
        """Per level, the rightmost node strictly before (score, member)."""
        update: list[_Node] = [self._head] * _SKIPLIST_MAX_LEVEL
        node = self._head
        for lvl in range(self._level - 1, -1, -1):
            nxt = node.forward[lvl]
            while nxt is not None and (nxt.score, nxt.member) < (score, member):
                node = nxt
                nxt = node.forward[lvl]
            update[lvl] = node
        return update

    def _insert(self, score: float, member: bytes) -> None:
        update = self._path_to(score, member)
        level = self._random_level()
        if level > self._level:
            self._level = level
        node = _Node(score, member, level)
        for lvl in range(level):
            node.forward[lvl] = update[lvl].forward[lvl]
            update[lvl].forward[lvl] = node

    def _unlink(self, score: float, member: bytes) -> None:
        update = self._path_to(score, member)
        node = update[0].forward[0]
        if node is None or node.member != member or node.score != score:
            raise AssertionError("sorted-set index out of sync")
        for lvl in range(self._level):
            if update[lvl].forward[lvl] is node:
                update[lvl].forward[lvl] = node.forward[lvl]
        while self._level > 1 and self._head.forward[self._level - 1] is None:
            self._level -= 1


class KeyStore:
    """The keyspace. One logical writer mutates it at a time."""

    def __init__(self) -> None:
        self._data: dict[bytes, object] = {}

    # -- introspection -------------------------------------------------

    def kind(self, key: bytes) -> str | None:
        value = self._data.get(key)
        if value is None:
            return None
        if isinstance(value, bytes):
            return "string"
        if isinstance(value, dict):
            return "hash"
        if isinstance(value, set):
            return "set"
        if isinstance(value, deque):
            return "list"
        return "zset"

    def keys(self) -> list[bytes]:
        return list(self._data)

    def _lookup(self, key: bytes, family: type):
        value = self._data.get(key)
        if value is None:
            return None
        if not isinstance(value, family):
            raise WrongTypeError()
        return value

    def _obtain(self, key: bytes, family: type):
        """The ``family`` value at ``key``, stored empty first if absent."""
        value = self._data.get(key)
        if value is None:
            value = self._data[key] = family()
        elif not isinstance(value, family):
            raise WrongTypeError()
        return value

    def _drop_if_empty(self, key: bytes, value) -> None:
        if not value:
            del self._data[key]

    # -- strings -------------------------------------------------------

    def set(self, key: bytes, value: bytes) -> None:
        """Unconditional write; replaces a value of any family."""
        self._data[key] = bytes(value)

    def get(self, key: bytes) -> bytes | None:
        return self._lookup(key, bytes)

    # -- hashes ----------------------------------------------------------

    def hset(self, key: bytes, field: bytes, value: bytes) -> int:
        table = self._obtain(key, dict)
        created = field not in table
        table[field] = bytes(value)
        return int(created)

    def hget(self, key: bytes, field: bytes) -> bytes | None:
        table = self._lookup(key, dict)
        if table is None:
            return None
        return table.get(field)

    def hexists(self, key: bytes, field: bytes) -> int:
        table = self._lookup(key, dict)
        return int(table is not None and field in table)

    def hdel(self, key: bytes, *fields: bytes) -> int:
        table = self._lookup(key, dict)
        if table is None:
            return 0
        removed = 0
        for field in fields:
            if table.pop(field, None) is not None:
                removed += 1
        self._drop_if_empty(key, table)
        return removed

    # -- sets ------------------------------------------------------------

    def sadd(self, key: bytes, *members: bytes) -> int:
        group = self._obtain(key, set)
        before = len(group)
        group.update(members)
        return len(group) - before

    def srem(self, key: bytes, *members: bytes) -> int:
        group = self._lookup(key, set)
        if group is None:
            return 0
        before = len(group)
        group.difference_update(members)
        removed = before - len(group)
        self._drop_if_empty(key, group)
        return removed

    def _set_operands(self, keys: Sequence[bytes]) -> list[set]:
        # Type-check every key up front; absent keys act as empty sets.
        return [self._lookup(key, set) or set() for key in keys]

    def sinter(self, *keys: bytes) -> set[bytes]:
        groups = self._set_operands(keys)
        return set(groups[0]).intersection(*groups[1:])

    def sunion(self, *keys: bytes) -> set[bytes]:
        groups = self._set_operands(keys)
        return set().union(*groups)

    def sdiff(self, *keys: bytes) -> set[bytes]:
        groups = self._set_operands(keys)
        return set(groups[0]).difference(*groups[1:])

    # -- lists -----------------------------------------------------------

    def lpush(self, key: bytes, *values: bytes) -> int:
        items = self._obtain(key, deque)
        # Each value in turn becomes the new head, so the last one wins.
        items.extendleft(bytes(v) for v in values)
        return len(items)

    def llen(self, key: bytes) -> int:
        items = self._lookup(key, deque)
        return 0 if items is None else len(items)

    def lindex(self, key: bytes, index: int) -> bytes | None:
        items = self._lookup(key, deque)
        if items is None:
            return None
        if index < 0:
            index += len(items)
        if 0 <= index < len(items):
            return items[index]
        return None

    def lrange(self, key: bytes, start: int, stop: int) -> list[bytes]:
        items = self._lookup(key, deque)
        if items is None:
            return []
        n = len(items)
        if start < 0:
            start = max(n + start, 0)
        if stop < 0:
            stop = n + stop
        stop = min(stop, n - 1)
        if start > stop or start >= n:
            return []
        return list(islice(items, start, stop + 1))

    # -- sorted sets -----------------------------------------------------

    def zadd(self, key: bytes, pairs: Sequence[tuple[float, bytes]]) -> int:
        zset = self._obtain(key, SortedSet)
        added = 0
        for score, member in pairs:
            if zset.add(score, member):
                added += 1
        return added

    def zrangebyscore(
        self, key: bytes, low: RangeBound, high: RangeBound
    ) -> list[bytes]:
        zset = self._lookup(key, SortedSet)
        if zset is None:
            return []
        return zset.range_by_score(low, high)

    # -- keyspace ----------------------------------------------------------

    def delete(self, *keys: bytes) -> int:
        removed = 0
        for key in keys:
            if self._data.pop(key, None) is not None:
                removed += 1
        return removed

    def exists(self, *keys: bytes) -> int:
        # Repeated keys count once per mention.
        return sum(1 for key in keys if key in self._data)

    def flushall(self) -> None:
        self._data.clear()
