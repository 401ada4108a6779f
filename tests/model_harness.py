"""Random command sequences replayed against engine and oracle side by side.

The generator is plain random.Random so bulk runs stay fast and exactly
reproducible from a seed; the shrinker is a small delta-debugging loop.
Hypothesis drives the same comparison in test_model.py at its own pace.
"""

from __future__ import annotations

import random

from oracle import Oracle, replies_equal

from miniredis.router import LocalSession, Router

DEFAULT_KEYS = [b"k%d" % i for i in range(8)]

_VALUES = [
    b"a",
    b"b",
    b"chocolate",
    b"some text",
    b"42",
    b"",
    b"\x00\xff\r\n*",
    b"$9\r\ntrap",
]
_FIELDS = [b"f0", b"f1", b"f2", b"abc", b"def"]
_MEMBERS = [b"m0", b"m1", b"m2", b"puppy", b"kitten", b"\x00bin"]
_SCORES = [b"0", b"1", b"2", b"-3", b"2.5", b"0.1", b"100", b"105", b"1e3", b"-inf", b"+inf"]
_INTS = [b"0", b"1", b"2", b"3", b"-1", b"-2", b"-5", b"7", b"-100", b"100"]


def _bound(rng: random.Random) -> bytes:
    score = rng.choice(_SCORES)
    return b"(" + score if rng.random() < 0.25 else score


def _some(rng: random.Random, pool: list[bytes], most: int = 3) -> list[bytes]:
    return [rng.choice(pool) for _ in range(rng.randint(1, most))]


def gen_command(rng: random.Random, keys: list[bytes], allow_flush: bool = True) -> list[bytes]:
    """One weighted random command, valid most of the time but not always."""
    k = rng.choice(keys)
    roll = rng.randrange(100)
    if roll < 10:
        return [b"SET", k, rng.choice(_VALUES)]
    if roll < 19:
        return [b"GET", k]
    if roll < 26:
        return [b"HSET", k, rng.choice(_FIELDS), rng.choice(_VALUES)]
    if roll < 31:
        return [b"HGET", k, rng.choice(_FIELDS)]
    if roll < 34:
        return [b"HEXISTS", k, rng.choice(_FIELDS)]
    if roll < 37:
        return [b"HDEL", k] + _some(rng, _FIELDS)
    if roll < 44:
        return [b"SADD", k] + _some(rng, _MEMBERS)
    if roll < 47:
        return [b"SREM", k] + _some(rng, _MEMBERS)
    if roll < 49:
        return [b"SINTER"] + _some(rng, keys, 3)
    if roll < 51:
        return [b"SUNION"] + _some(rng, keys, 3)
    if roll < 53:
        return [b"SDIFF"] + _some(rng, keys, 3)
    if roll < 60:
        return [b"LPUSH", k] + _some(rng, _VALUES)
    if roll < 63:
        return [b"LLEN", k]
    if roll < 67:
        return [b"LINDEX", k, rng.choice(_INTS)]
    if roll < 71:
        return [b"LRANGE", k, rng.choice(_INTS), rng.choice(_INTS)]
    if roll < 78:
        pairs = []
        for _ in range(rng.randint(1, 3)):
            pairs += [rng.choice(_SCORES), rng.choice(_MEMBERS)]
        return [b"ZADD", k] + pairs
    if roll < 84:
        return [b"ZRANGEBYSCORE", k, _bound(rng), _bound(rng)]
    if roll < 87:
        return [b"DEL"] + _some(rng, keys, 2)
    if roll < 90:
        return [b"EXISTS"] + _some(rng, keys, 3)
    if roll < 91:
        return [b"PING"]
    if roll < 92 and allow_flush:
        return [b"FLUSHALL"]
    # the rest of the budget goes to malformed traffic
    bad = rng.randrange(7)
    if bad == 0:
        return rng.choice([[b"GET"], [b"SET", k], [b"HSET", k], [b"LLEN"], [b"ZADD", k]])
    if bad == 1:
        return [b"ZADD", k, b"nan", rng.choice(_MEMBERS)]
    if bad == 2:
        return [b"ZADD", k, rng.choice(_SCORES), rng.choice(_MEMBERS), rng.choice(_SCORES)]
    if bad == 3:
        return [b"ZRANGEBYSCORE", k, b"abc", rng.choice(_SCORES)]
    if bad == 4:
        return [b"LINDEX", k, b"not-an-int"]
    if bad == 5:
        return [b"LRANGE", k, b"1.5", rng.choice(_INTS)]
    return [rng.choice([b"BOGUS", b"Flub", b"ZPOPMAX"]), k]


def gen_sequence(rng: random.Random, length: int, keys: list[bytes] | None = None) -> list[list[bytes]]:
    keys = keys or DEFAULT_KEYS
    return [gen_command(rng, keys) for _ in range(length)]


def first_mismatch(commands: list[list[bytes]]) -> int | None:
    """Replay from scratch; index of the first divergent reply, if any."""
    router = Router()
    session = LocalSession()
    oracle = Oracle()
    for i, argv in enumerate(commands):
        engine = router.replies(session, argv)
        expected = oracle.apply(argv)
        if len(engine) != 1 or not replies_equal(argv, engine[0], expected):
            return i
    return None


def shrink(commands: list[list[bytes]]) -> list[list[bytes]]:
    """Smallest still-failing subsequence, by shrinking removal chunks."""
    index = first_mismatch(commands)
    assert index is not None, "nothing to shrink"
    current = commands[: index + 1]
    chunk = max(len(current) // 2, 1)
    while chunk >= 1:
        i = 0
        while i < len(current):
            candidate = current[:i] + current[i + chunk :]
            if candidate and first_mismatch(candidate) is not None:
                current = candidate
            else:
                i += chunk
        chunk //= 2
    return current


def describe_failure(seed: int, commands: list[list[bytes]]) -> str:
    reduced = shrink(commands)
    index = first_mismatch(reduced)
    router, session, oracle = Router(), LocalSession(), Oracle()
    lines = [f"seed {seed}: engine disagrees with the oracle; minimal replay:"]
    for i, argv in enumerate(reduced):
        engine = router.replies(session, argv)
        expected = oracle.apply(argv)
        shown = " ".join(repr(a)[1:] for a in argv)
        lines.append(f"  {i}: {shown}")
        if i == index:
            lines.append(f"     engine: {engine}")
            lines.append(f"     oracle: {expected}")
    return "\n".join(lines)
