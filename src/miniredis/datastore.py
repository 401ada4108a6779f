"""Typed in-memory keyspace: strings, hashes, sets, lists, sorted sets.

One KeyStore instance is the whole keyspace. Keys and values are byte
strings throughout; keys are case-sensitive. Each key holds exactly one
value family, and touching a key with an operation from another family
raises WrongTypeError without mutating anything. Collections never sit
empty in the keyspace: removing the last element removes the key.

A set keeps its members' byte order from one sort until it next changes,
so SINTER, SUNION and SDIFF return sorted lists built without sorting
their result: filtered from, or merged out of, those cached orders.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right, insort
from collections import deque
from dataclasses import dataclass
from itertools import chain, compress, filterfalse, islice
from operator import itemgetter, ne, not_
from typing import Iterator, Sequence

from .errors import CommandError, WrongTypeError
from .protocol import INT64_MAX, INT64_MIN, strict_int

# A chunk is split in half once it holds more than twice this many pairs.
_CHUNK_LOAD = 1000
_score_of = itemgetter(0)
_member_of = itemgetter(1)
_UNDERSCORE = ord("_")
# Bytes that float() takes where a score must not have them (whitespace, _).
_FLOAT_ONLY_BYTE = re.compile(rb"[\x00- _]").search


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


def parse_scores(raws: Sequence[bytes]) -> list[float]:
    """``parse_score`` over a batch, in one ``float`` pass. Zeros, which
    ``parse_score`` may refuse (``1e-400``), are checked by it one by one. A
    batch where any other edge could apply (a refusal, NaN, an infinity,
    whitespace or ``_``) goes through ``parse_score`` item by item, so
    results and errors are exactly its own."""
    try:
        values = list(map(float, raws))
        if math.isfinite(sum(values)) and not _FLOAT_ONLY_BYTE(b"".join(raws)):
            if 0.0 in values:
                deque(map(parse_score, compress(raws, map(not_, values))), 0)
            return values
    except ValueError:
        pass
    return list(map(parse_score, raws))


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


class SortedSet:
    """Unique members ordered by (score, member bytes).

    The ordering lives in a chunked sorted list, the design of Grant Jenks's
    ``sortedcontainers`` SortedList: ``_chunks`` holds sorted runs of
    (score, member) pairs, each split in half once it outgrows twice
    ``_CHUNK_LOAD`` and merged into a neighbour once it falls below
    ``_CHUNK_LOAD // 2``, and ``_maxes`` holds the last pair of each chunk,
    so a bisect on ``_maxes`` picks the chunk and a bisect inside it the
    slot. A dict carries member -> score for O(1) lookups.
    """

    def __init__(self) -> None:
        self._chunks: list[list[tuple[float, bytes]]] = []
        self._maxes: list[tuple[float, bytes]] = []
        self._scores: dict[bytes, float] = {}

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
            self._discard((current, member))
        self._scores[member] = score
        self._insert((score, member))
        return current is None

    def update(self, pairs: Sequence[tuple[float, bytes]]) -> int:
        """``add`` each (score, member) pair in turn; returns how many members
        were new. A batch at least a quarter the size of the set is merged
        into the dict and the chunks are rebuilt from one sort."""
        scores = self._scores
        if len(pairs) * 4 < len(scores):
            return sum(self.add(score, member) for score, member in pairs)
        before = len(scores)
        for score, member in pairs:
            # An equal score (0.0 against -0.0) leaves the member as it is.
            if scores.get(member) != score:
                scores[member] = score
        ordered = sorted(zip(scores.values(), scores))
        self._chunks = [
            ordered[i : i + _CHUNK_LOAD] for i in range(0, len(ordered), _CHUNK_LOAD)
        ]
        self._maxes = [chunk[-1] for chunk in self._chunks]
        return len(scores) - before

    def remove(self, member: bytes) -> bool:
        score = self._scores.pop(member, None)
        if score is None:
            return False
        self._discard((score, member))
        return True

    def range_by_score(self, low: RangeBound, high: RangeBound) -> list[bytes]:
        """Members whose score lies inside [low, high], in rank order."""
        find_low = bisect_right if low.exclusive else bisect_left
        find_high = bisect_left if high.exclusive else bisect_right
        pos = find_low(self._maxes, low.value, key=_score_of)
        if pos == len(self._chunks):
            return []
        start = find_low(self._chunks[pos], low.value, key=_score_of)
        out: list[bytes] = []
        for chunk in islice(self._chunks, pos, None):
            stop = find_high(chunk, high.value, key=_score_of)
            out += map(_member_of, chunk[start:stop])
            if stop < len(chunk):
                break
            start = 0
        return out

    def items(self) -> Iterator[tuple[float, bytes]]:
        """All (score, member) pairs in rank order."""
        return chain.from_iterable(self._chunks)

    def _insert(self, pair: tuple[float, bytes]) -> None:
        chunks, maxes = self._chunks, self._maxes
        if not maxes:
            chunks.append([pair])
            maxes.append(pair)
            return
        pos = min(bisect_left(maxes, pair), len(maxes) - 1)
        chunk = chunks[pos]
        insort(chunk, pair)
        maxes[pos] = chunk[-1]
        self._split_if_full(pos)

    def _discard(self, pair: tuple[float, bytes]) -> None:
        chunks, maxes = self._chunks, self._maxes
        pos = bisect_left(maxes, pair)
        chunk = chunks[pos]
        index = bisect_left(chunk, pair)
        if chunk[index] != pair:
            raise AssertionError("sorted-set index out of sync")
        del chunk[index]
        if len(chunk) >= _CHUNK_LOAD // 2 or len(chunks) == 1:
            if not chunk:
                del chunks[pos], maxes[pos]
            elif index == len(chunk):
                maxes[pos] = chunk[-1]
            return
        # An underfilled chunk joins its left neighbour (the first chunk
        # takes in the second), so a shrinking set also sheds chunks.
        pos = max(pos, 1)
        chunks[pos - 1] += chunks[pos]
        del chunks[pos], maxes[pos]
        maxes[pos - 1] = chunks[pos - 1][-1]
        self._split_if_full(pos - 1)

    def _split_if_full(self, pos: int) -> None:
        """Split chunk ``pos`` in two once it outgrows twice the load."""
        chunk = self._chunks[pos]
        if len(chunk) > 2 * _CHUNK_LOAD:
            self._chunks.insert(pos + 1, chunk[_CHUNK_LOAD:])
            del chunk[_CHUNK_LOAD:]
            self._maxes.insert(pos, chunk[-1])


class MemberSet(set):
    """A set value that keeps its members sorted by bytes until it changes.

    Only KeyStore mutates it, and calls ``changed`` when it does."""

    __slots__ = ("_ordered",)

    def __init__(self) -> None:
        super().__init__()
        self._ordered: list[bytes] | None = None

    def ordered(self) -> list[bytes]:
        if self._ordered is None:
            self._ordered = sorted(self)
        return self._ordered

    def changed(self) -> None:
        self._ordered = None


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
        group = self._obtain(key, MemberSet)
        before = len(group)
        group.update(members)
        if len(group) != before:
            group.changed()
        return len(group) - before

    def srem(self, key: bytes, *members: bytes) -> int:
        group = self._lookup(key, MemberSet)
        if group is None:
            return 0
        before = len(group)
        group.difference_update(members)
        removed = before - len(group)
        if removed:
            group.changed()
        self._drop_if_empty(key, group)
        return removed

    def _set_operands(self, keys: Sequence[bytes]) -> list[MemberSet]:
        # Type-check every key up front; absent keys act as empty sets.
        return [self._lookup(key, MemberSet) or MemberSet() for key in keys]

    def sinter(self, *keys: bytes) -> list[bytes]:
        # Smallest first: each filter pass keeps what the next set holds.
        groups = sorted(self._set_operands(keys), key=len)
        members = groups[0].ordered()[:]
        for group in groups[1:]:
            members = list(filter(group.__contains__, members))
        return members

    def sunion(self, *keys: bytes) -> list[bytes]:
        # sorted() merges the sorted runs; a member equal to the next is a repeat.
        groups = self._set_operands(keys)
        merged = sorted(chain.from_iterable(group.ordered() for group in groups))
        return list(compress(merged, map(ne, merged, islice(merged, 1, None)))) + merged[-1:]

    def sdiff(self, *keys: bytes) -> list[bytes]:
        groups = self._set_operands(keys)
        members = groups[0].ordered()[:]
        for group in groups[1:]:
            members = list(filterfalse(group.__contains__, members))
        return members

    # -- lists -----------------------------------------------------------

    def lpush(self, key: bytes, *values: bytes) -> int:
        items = self._obtain(key, deque)
        # Each value in turn becomes the new head, so the last one wins.
        items.extendleft(map(bytes, values))
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
        return self._obtain(key, SortedSet).update(pairs)

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
