"""Keyspace semantics: families, counts, erasure, the sorted-set index."""

from __future__ import annotations

import math
import random
import time
from collections import deque
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miniredis import datastore
from miniredis.datastore import KeyStore, RangeBound, SortedSet, parse_int, parse_score
from miniredis.errors import CommandError, WrongTypeError


@pytest.fixture
def store():
    return KeyStore()


# -- strings ---------------------------------------------------------------


def test_set_get_roundtrip(store):
    store.set(b"ice-cream", b"chocolate")
    assert store.get(b"ice-cream") == b"chocolate"
    assert store.get(b"ice-cream") == b"chocolate"  # reads do not consume


def test_get_missing_returns_none(store):
    assert store.get(b"nope") is None


def test_set_overwrites_any_family(store):
    store.lpush(b"k", b"x")
    store.set(b"k", b"now a string")
    assert store.get(b"k") == b"now a string"
    assert store.kind(b"k") == "string"


def test_set_keeps_binary_values(store):
    blob = bytes(range(256)) + b"\r\n\x00"
    store.set(b"bin", blob)
    assert store.get(b"bin") == blob


def test_keys_are_case_sensitive(store):
    store.set(b"Key", b"upper")
    store.set(b"key", b"lower")
    assert store.get(b"Key") == b"upper"
    assert store.get(b"key") == b"lower"


def test_get_on_hash_is_wrongtype(store):
    store.hset(b"h", b"f", b"v")
    with pytest.raises(WrongTypeError) as excinfo:
        store.get(b"h")
    assert (
        excinfo.value.message
        == "WRONGTYPE Operation against a key holding the wrong kind of value"
    )


# -- hashes ---------------------------------------------------------------


def test_hset_reports_new_field_then_overwrite(store):
    assert store.hset(b"myhash", b"abc", b"42") == 1
    assert store.hset(b"myhash", b"def", b"some text") == 1
    assert store.hset(b"myhash", b"abc", b"43") == 0
    assert store.hget(b"myhash", b"abc") == b"43"


def test_hget_and_hexists(store):
    store.hset(b"myhash", b"abc", b"42")
    assert store.hget(b"myhash", b"abc") == b"42"
    assert store.hget(b"myhash", b"xyz") is None
    assert store.hget(b"nohash", b"abc") is None
    assert store.hexists(b"myhash", b"abc") == 1
    assert store.hexists(b"myhash", b"xyz") == 0
    assert store.hexists(b"nohash", b"abc") == 0


def test_hdel_counts_and_erases_empty_hash(store):
    store.hset(b"h", b"a", b"1")
    store.hset(b"h", b"b", b"2")
    assert store.hdel(b"h", b"a", b"missing", b"a") == 1
    assert store.kind(b"h") == "hash"
    assert store.hdel(b"h", b"b") == 1
    assert store.kind(b"h") is None  # empty collections vanish


def test_hash_ops_on_string_are_wrongtype(store):
    store.set(b"s", b"x")
    for call in (
        lambda: store.hset(b"s", b"f", b"v"),
        lambda: store.hget(b"s", b"f"),
        lambda: store.hexists(b"s", b"f"),
        lambda: store.hdel(b"s", b"f"),
    ):
        with pytest.raises(WrongTypeError):
            call()
    assert store.get(b"s") == b"x"  # value untouched by the failures


# -- sets ------------------------------------------------------------------


def test_sadd_counts_only_new_members(store):
    assert store.sadd(b"myset", b"puppy") == 1
    assert store.sadd(b"myset", b"kitten") == 1
    assert store.sadd(b"myset", b"kitten") == 0
    assert store.sadd(b"myset", b"a", b"a", b"b") == 2


def test_srem_and_empty_erasure(store):
    store.sadd(b"s", b"a", b"b")
    assert store.srem(b"s", b"a", b"zz") == 1
    assert store.srem(b"s", b"b") == 1
    assert store.kind(b"s") is None
    assert store.srem(b"s", b"a") == 0


def test_set_algebra_matches_python_sets(store):
    store.sadd(b"myset", b"puppy", b"kitten")
    store.sadd(b"otherset", b"birdie", b"kitten")
    assert store.sinter(b"myset", b"otherset") == [b"kitten"]
    assert store.sunion(b"myset", b"otherset") == [b"birdie", b"kitten", b"puppy"]
    assert store.sdiff(b"myset", b"otherset") == [b"puppy"]
    assert store.sdiff(b"otherset", b"myset") == [b"birdie"]


def test_set_algebra_treats_missing_keys_as_empty(store):
    store.sadd(b"s", b"a")
    assert store.sinter(b"s", b"missing") == []
    assert store.sunion(b"missing", b"s") == [b"a"]
    assert store.sdiff(b"s", b"missing") == [b"a"]
    assert store.sdiff(b"missing", b"s") == []


def test_set_algebra_wrongtype_applies_to_every_operand(store):
    store.sadd(b"s", b"a")
    store.set(b"str", b"x")
    for op in (store.sinter, store.sunion, store.sdiff):
        with pytest.raises(WrongTypeError):
            op(b"s", b"str")
        with pytest.raises(WrongTypeError):
            op(b"str", b"s")


@given(
    left=st.sets(st.binary(min_size=1, max_size=6), max_size=12),
    right=st.sets(st.binary(min_size=1, max_size=6), max_size=12),
)
def test_set_algebra_property(left, right):
    store = KeyStore()
    if left:
        store.sadd(b"l", *left)
    if right:
        store.sadd(b"r", *right)
    assert store.sinter(b"l", b"r") == sorted(left & right)
    assert store.sunion(b"l", b"r") == sorted(left | right)
    assert store.sdiff(b"l", b"r") == sorted(left - right)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_set_algebra_stays_sorted_through_changes(seed):
    # SADD, SREM, DEL and re-creation interleaved with the set algebra on
    # 1-4 keys (absent and repeated ones included): every reply must be the
    # sorted Python set operation, so no cached order may outlive a change.
    rng = random.Random(seed)
    store, model = KeyStore(), {}
    keys = [b"k%d" % i for i in range(5)]
    universe = [bytes([rng.randrange(256)]) * rng.randint(1, 3) for _ in range(40)]
    ops = {"SINTER": set.intersection, "SUNION": set.union, "SDIFF": set.difference}
    for _ in range(1500):
        key, roll = rng.choice(keys), rng.random()
        if roll < 0.3:
            members = rng.sample(universe, rng.randint(1, 6))
            store.sadd(key, *members)
            model.setdefault(key, set()).update(members)
        elif roll < 0.5:
            members = rng.sample(universe, rng.randint(1, 6))
            store.srem(key, *members)
            if key in model:
                model[key].difference_update(members)
                if not model[key]:
                    del model[key]
        elif roll < 0.55:
            store.delete(key)
            model.pop(key, None)
        else:
            name = rng.choice(sorted(ops))
            operands = [rng.choice(keys) for _ in range(rng.randint(1, 4))]
            got = getattr(store, name.lower())(*operands)
            want = ops[name](*(model.get(k, set()) for k in operands))
            assert got == sorted(want), (name, operands)


def _best_cpu_s(turns: dict, repeats: int = 5) -> dict:
    """Best CPU time of each callable, the turns alternating in order."""
    best = dict.fromkeys(turns, float("inf"))
    for i in range(repeats):
        for name in sorted(turns, reverse=i % 2 == 1):
            start = time.thread_time()
            turns[name]()
            best[name] = min(best[name], time.thread_time() - start)
    return best


def test_set_algebra_over_unchanged_sets_sorts_nothing():
    # Repeated set algebra over unchanged 10 000-member sets reuses each
    # set's cached order; sorting each result per call costs several times
    # more (the 15 000-member union alone sorts in milliseconds).
    rng = random.Random(7)
    universe = [b"%016x" % rng.getrandbits(64) for _ in range(20_000)]
    left, right = set(rng.sample(universe, 10_000)), set(rng.sample(universe, 10_000))
    store = KeyStore()
    store.sadd(b"l", *left)
    store.sadd(b"r", *right)
    store.sunion(b"l", b"r")  # the first call sorts each set once
    # Counted: with every set's order cached, no call sorts a set.
    sorts = []

    def counting_sorted(iterable, **kwargs):
        sorts.append(isinstance(iterable, set))
        return sorted(iterable, **kwargs)

    with mock.patch.object(datastore, "sorted", counting_sorted, create=True):
        for _ in range(3):
            store.sinter(b"l", b"r"), store.sunion(b"l", b"r"), store.sdiff(b"l", b"r")
        assert sorts and not any(sorts), sorts
        store.sadd(b"new", b"member")
        store.sunion(b"l", b"new")
        assert sorts.count(True) == 1  # the new set, sorted once
    # Timed: the cached order against sorting each result per call.
    turns = {
        "cached": lambda: (
            store.sinter(b"l", b"r"), store.sunion(b"l", b"r"), store.sdiff(b"l", b"r")
        ),
        "sort per call": lambda: (
            sorted(left & right), sorted(left | right), sorted(left - right)
        ),
    }
    assert turns["cached"]() == turns["sort per call"]()
    best = _best_cpu_s(turns)
    assert best["cached"] < 0.5 * best["sort per call"], best


# -- lists ----------------------------------------------------------------


def test_lpush_each_value_becomes_head(store):
    assert store.lpush(b"mylist", b"chocolate") == 1
    assert store.lpush(b"mylist", b"strawberry", b"vanilla") == 3
    assert store.llen(b"mylist") == 3
    assert store.lindex(b"mylist", 0) == b"vanilla"
    assert store.lindex(b"mylist", 1) == b"strawberry"
    assert store.lindex(b"mylist", 2) == b"chocolate"


def test_lindex_negative_and_out_of_range(store):
    store.lpush(b"l", b"c", b"b", b"a")
    assert store.lindex(b"l", -1) == b"c"
    assert store.lindex(b"l", -3) == b"a"
    assert store.lindex(b"l", 3) is None
    assert store.lindex(b"l", -4) is None
    assert store.lindex(b"missing", 0) is None


@pytest.mark.parametrize(
    "start,stop,expected",
    [
        (0, 1, [b"vanilla", b"strawberry"]),
        (0, -1, [b"vanilla", b"strawberry", b"chocolate"]),
        (-2, -1, [b"strawberry", b"chocolate"]),
        (-100, 100, [b"vanilla", b"strawberry", b"chocolate"]),
        (2, 1, []),
        (3, 5, []),
        (0, -4, []),
        (-1, -2, []),
        (1, 1, [b"strawberry"]),
    ],
)
def test_lrange_clamping(store, start, stop, expected):
    store.lpush(b"mylist", b"chocolate", b"strawberry", b"vanilla")
    assert store.lrange(b"mylist", start, stop) == expected


def test_lrange_missing_key(store):
    assert store.lrange(b"nope", 0, -1) == []


@given(
    items=st.lists(st.binary(max_size=4), max_size=10),
    start=st.integers(-15, 15),
    stop=st.integers(-15, 15),
)
def test_lrange_matches_naive_index_scan(items, start, stop):
    store = KeyStore()
    if items:
        store.lpush(b"l", *items)
    held = list(reversed(items))
    expected = [
        held[i]
        for i in range(len(held))
        if (start + len(held) if start < 0 else start)
        <= i
        <= (stop + len(held) if stop < 0 else stop)
    ]
    assert store.lrange(b"l", start, stop) == expected


# -- sorted sets -----------------------------------------------------------


def _bound(raw: bytes) -> RangeBound:
    return RangeBound.parse(raw)


def test_zadd_counts_new_members_only(store):
    assert store.zadd(b"myz", [(100.0, b"row1")]) == 1
    assert store.zadd(b"myz", [(105.0, b"row2")]) == 1
    assert store.zadd(b"myz", [(99.0, b"row1")]) == 0  # rescore, not new
    # a repeated member counts once, on its first (new) appearance
    assert store.zadd(b"myz", [(1.0, b"a"), (2.0, b"b"), (1.5, b"a")]) == 2
    assert store.zrangebyscore(b"myz", _bound(b"1.5"), _bound(b"1.5")) == [b"a"]


def test_zrangebyscore_inclusive_and_ordered(store):
    store.zadd(b"z", [(100.0, b"a"), (105.0, b"b"), (120.0, b"c")])
    assert store.zrangebyscore(b"z", _bound(b"90"), _bound(b"120")) == [b"a", b"b", b"c"]
    assert store.zrangebyscore(b"z", _bound(b"100"), _bound(b"105")) == [b"a", b"b"]
    assert store.zrangebyscore(b"z", _bound(b"101"), _bound(b"104")) == []
    assert store.zrangebyscore(b"missing", _bound(b"-inf"), _bound(b"+inf")) == []


def test_zrangebyscore_exclusive_bounds(store):
    store.zadd(b"z", [(1.0, b"a"), (2.0, b"b"), (3.0, b"c")])
    assert store.zrangebyscore(b"z", _bound(b"(1"), _bound(b"3")) == [b"b", b"c"]
    assert store.zrangebyscore(b"z", _bound(b"(1"), _bound(b"(3")) == [b"b"]
    assert store.zrangebyscore(b"z", _bound(b"-inf"), _bound(b"(2")) == [b"a"]


def test_zrangebyscore_ties_order_by_member_bytes(store):
    store.zadd(b"z", [(5.0, b"delta"), (5.0, b"alpha"), (5.0, b"charlie")])
    assert store.zrangebyscore(b"z", _bound(b"5"), _bound(b"5")) == [
        b"alpha",
        b"charlie",
        b"delta",
    ]


def test_zadd_rescore_moves_member(store):
    store.zadd(b"z", [(1.0, b"a"), (2.0, b"b"), (3.0, b"c")])
    store.zadd(b"z", [(10.0, b"a")])
    assert store.zrangebyscore(b"z", _bound(b"-inf"), _bound(b"+inf")) == [
        b"b",
        b"c",
        b"a",
    ]


def test_zadd_accepts_infinite_scores(store):
    store.zadd(b"z", [(float("-inf"), b"low"), (float("inf"), b"high"), (0.0, b"mid")])
    assert store.zrangebyscore(b"z", _bound(b"-inf"), _bound(b"+inf")) == [
        b"low",
        b"mid",
        b"high",
    ]


def test_parse_score_rejects_nan_and_garbage():
    assert parse_score(b"1.5") == 1.5
    assert parse_score(b"inf") == float("inf")
    assert parse_score(b"-inf") == float("-inf")
    assert parse_score(b"Infinity") == float("inf")
    assert parse_score(b"1.7976931348623157e308") == 1.7976931348623157e308
    # Finite literals that overflow a double are refused, not stored as inf.
    for raw in (b"nan", b"NaN", b"abc", b"", b"\xff", b" 1", b"1 ", b"1_0",
                b"1e400", b"-1e400", b"1.8e308"):
        with pytest.raises(CommandError) as excinfo:
            parse_score(raw)
        assert excinfo.value.message == "ERR value is not a valid float"


_SCORE_EDGES = [b" 1", b"1 ", b"1_0", b"nan", b"-nan", b"inf", b"-inf", b"infinity",
                b"+Infinity", b"1e400", b"-1e400", b"1e-400", b"0", b"-0", b"0.0e5",
                b"0x10", b"-0x1.8p3", b"0x0", b"1.7e308", b"abc", b"", b"\xff"]
_PLAIN_SCORES = st.one_of(
    st.integers(-(10**20), 10**20).map(lambda n: b"%d" % n),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: repr(x).encode()),
)


def _scores_or_error(parse, raws):
    try:
        return [value.hex() for value in parse(raws)]  # hex keeps the sign of zero
    except CommandError as exc:
        return exc.message


@settings(max_examples=300)
@given(st.lists(st.one_of(st.sampled_from(_SCORE_EDGES), _PLAIN_SCORES), max_size=12))
def test_parse_scores_matches_parse_score_per_item(raws):
    # One float() pass, or per-item parse_score when any edge could apply:
    # either way, exactly the values or the first error per-item parsing gives.
    expected = _scores_or_error(lambda batch: list(map(parse_score, batch)), raws)
    assert _scores_or_error(datastore.parse_scores, raws) == expected


def test_parse_scores_checks_only_the_zeros_one_by_one():
    # A zero may be refused (1e-400 reads as zero), so each zero goes through
    # parse_score; the rest of the batch keeps the one float() pass.
    raws = [b"%d" % i for i in range(1, 1000)] + [b"0", b"-0.0"]
    with mock.patch.object(datastore, "parse_score", wraps=parse_score) as spy:
        assert datastore.parse_scores(raws) == list(map(float, raws))
        assert spy.call_count == 2
        with pytest.raises(CommandError):
            datastore.parse_scores(raws + [b"1e-400"])


def test_range_bound_parse():
    assert RangeBound.parse(b"100") == RangeBound(100.0, False)
    assert RangeBound.parse(b"(100") == RangeBound(100.0, True)
    assert RangeBound.parse(b"-inf") == RangeBound(float("-inf"), False)
    assert RangeBound.parse(b"(+inf") == RangeBound(float("inf"), True)
    # Range bounds go through plain strtod in Redis, so overflow is +inf.
    assert RangeBound.parse(b"1e400") == RangeBound(float("inf"), False)
    for raw in (b"nan", b"(nan", b"abc", b"(", b"", b"(1_0", b"( 1"):
        with pytest.raises(CommandError) as excinfo:
            RangeBound.parse(raw)
        assert excinfo.value.message == "ERR min or max is not a float"


def test_parse_int_strictness():
    assert parse_int(b"42") == 42
    assert parse_int(b"-7") == -7
    assert parse_int(b"+7") == 7
    for raw in (b"", b"abc", b"1.5", b" 1", b"1 ", b"1_0", b"0x10", b"99999999999999999999",
                b"1" * 5000):
        with pytest.raises(CommandError):
            parse_int(raw)


# -- sorted set structure (chunked sorted list vs naive resort) ------------


def test_sortedset_add_remove_len():
    zset = SortedSet()
    assert zset.add(1.0, b"a") is True
    assert zset.add(1.0, b"a") is False
    assert zset.add(2.0, b"a") is False  # rescore
    assert len(zset) == 1
    assert zset.score(b"a") == 2.0
    assert zset.remove(b"a") is True
    assert zset.remove(b"a") is False
    assert len(zset) == 0


@settings(max_examples=200)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["add", "remove"]),
            st.floats(allow_nan=False, width=64),
            st.binary(min_size=1, max_size=3),
        ),
        max_size=60,
    ),
    low=st.floats(allow_nan=False, width=64),
    high=st.floats(allow_nan=False, width=64),
    low_open=st.booleans(),
    high_open=st.booleans(),
)
def test_sortedset_matches_naive_model(ops, low, high, low_open, high_open):
    zset = SortedSet()
    naive: dict[bytes, float] = {}
    for op, score, member in ops:
        if op == "add":
            assert zset.add(score, member) == (member not in naive)
            naive[member] = score
        else:
            assert zset.remove(member) == (member in naive)
            naive.pop(member, None)
    assert len(zset) == len(naive)
    low_bound = RangeBound(low, low_open)
    high_bound = RangeBound(high, high_open)
    expected = [
        member
        for score, member in sorted((s, m) for m, s in naive.items())
        if (score > low if low_open else score >= low)
        and (score < high if high_open else score <= high)
    ]
    assert zset.range_by_score(low_bound, high_bound) == expected
    assert list(zset.items()) == sorted((s, m) for m, s in naive.items())


def test_sortedset_large_ordering_is_exact():
    rng = random.Random(7)
    zset = SortedSet()
    naive = {}
    for i in range(2000):
        member = f"m{rng.randrange(500)}".encode()
        score = rng.uniform(-1000, 1000)
        zset.add(score, member)
        naive[member] = score
        if rng.random() < 0.2:
            victim = f"m{rng.randrange(500)}".encode()
            zset.remove(victim)
            naive.pop(victim, None)
    assert list(zset.items()) == sorted((s, m) for m, s in naive.items())


def test_sortedset_churn_across_chunk_splits_and_drops(monkeypatch):
    # A tiny chunk load makes a few operations enough to split or empty a chunk.
    monkeypatch.setattr(datastore, "_CHUNK_LOAD", 8)
    rng = random.Random(2024)
    specials = [0.0, -0.0, math.inf, -math.inf, 1.5, -1.5]
    members = [b"m%d" % i for i in range(300)]
    zset = SortedSet()
    naive: dict[bytes, float] = {}
    # Members added with rising scores, oldest first: appending them splits
    # the last chunk, and removing them empties the chunks they filled.
    ticks: deque[bytes] = deque()

    def pick_score() -> float:
        roll = rng.random()
        if roll < 0.4:
            return rng.choice(specials)
        if roll < 0.8:
            return rng.randrange(-50, 50) / 4
        return rng.uniform(-1.0, len(ticks) / 4 + 1.0)

    def naive_add(score: float, member: bytes) -> bool:
        new = member not in naive
        if naive.get(member) != score:  # 0.0 against -0.0 is no rescore
            naive[member] = score
        return new

    def check() -> None:
        ordered = sorted((s, m) for m, s in naive.items())
        assert list(zset.items()) == ordered
        assert len(zset) == len(naive)
        assert {m: repr(zset.score(m)) for m in naive} == {m: repr(s) for m, s in naive.items()}
        assert all(0 < len(chunk) <= 16 for chunk in zset._chunks)
        # Underfilled chunks are merged, so a shrinking set sheds chunks too.
        assert len(zset._chunks) <= len(zset) / (datastore._CHUNK_LOAD // 2) + 1
        for _ in range(8):
            low = RangeBound(pick_score(), rng.random() < 0.5)
            high = RangeBound(pick_score(), rng.random() < 0.5)
            assert zset.range_by_score(low, high) == [
                m
                for s, m in ordered
                if (s > low.value if low.exclusive else s >= low.value)
                and (s < high.value if high.exclusive else s <= high.value)
            ]

    ops = tick = splits = drops = big_batches = small_batches = 0
    while ops < 50_000:
        # Alternate growing and shrinking phases.
        add_share = 0.75 if ops // 1000 % 2 else 0.25
        chunks_before = len(zset._chunks)
        roll = rng.random()
        if roll < 0.005:
            # A batch with repeated members: each pair applies in turn.
            if rng.random() < 0.5:
                size = rng.randrange(len(naive) // 4, len(naive) + 40) + 1
                big_batches += 1
            else:
                size = rng.randrange(1, max(2, len(naive) // 4))
                small_batches += size * 4 < len(naive)
            batch = [(pick_score(), rng.choice(members)) for _ in range(size)]
            expected = sum(naive_add(score, member) for score, member in batch)
            assert zset.update(batch) == expected
            check()
            continue
        if roll < add_share:
            if rng.random() < 0.5:
                tick += 1
                member, score = b"t%d" % tick, tick / 4
                ticks.append(member)
            else:
                member, score = rng.choice(members), pick_score()
            assert zset.add(score, member) == naive_add(score, member)
        else:
            if ticks and rng.random() < 0.5:
                member = ticks.popleft()
            else:
                member = rng.choice(members)
            assert zset.remove(member) == (naive.pop(member, None) is not None)
        ops += 1
        splits += len(zset._chunks) > chunks_before
        drops += len(zset._chunks) < chunks_before
        if ops % 250 == 0:
            check()
    check()
    assert splits > 1000 and drops > 1000
    assert big_batches > 50 and small_batches > 50
    # Grow by single adds, then shrink in random order to a few members:
    # underfilled chunks must keep merging all the way down.
    for i in range(2000):
        score, member = rng.random(), b"g%d" % i
        assert zset.add(score, member) == naive_add(score, member)
    doomed = list(naive)
    rng.shuffle(doomed)
    for member in doomed[10:]:
        assert zset.remove(member)
        del naive[member]
        assert len(zset._chunks) <= len(zset) / (datastore._CHUNK_LOAD // 2) + 1
    check()


# -- keyspace-wide ----------------------------------------------------------


def test_delete_and_exists(store):
    store.set(b"a", b"1")
    store.sadd(b"b", b"x")
    store.lpush(b"c", b"y")
    assert store.exists(b"a", b"b", b"missing", b"a") == 3  # repeats count
    assert store.delete(b"a", b"missing", b"b") == 2
    assert store.exists(b"a", b"b") == 0
    assert store.kind(b"c") == "list"


def test_flushall_clears_everything(store):
    store.set(b"a", b"1")
    store.zadd(b"z", [(1.0, b"m")])
    store.flushall()
    assert store.keys() == []


def test_wrongtype_never_mutates(store):
    store.set(b"s", b"value")
    before = store.get(b"s")
    for attack in (
        lambda: store.sadd(b"s", b"m"),
        lambda: store.lpush(b"s", b"m"),
        lambda: store.hset(b"s", b"f", b"v"),
        lambda: store.zadd(b"s", [(1.0, b"m")]),
        lambda: store.llen(b"s"),
        lambda: store.zrangebyscore(b"s", _bound(b"0"), _bound(b"1")),
    ):
        with pytest.raises(WrongTypeError):
            attack()
    assert store.get(b"s") == before
    assert store.kind(b"s") == "string"


def test_binary_safe_keys_fields_members(store):
    key = b"\x00weird\xffkey\r\n"
    store.hset(key, b"\x00f", b"\xffv")
    assert store.hget(key, b"\x00f") == b"\xffv"
    store.sadd(b"bin", b"\x00", b"\x01")
    assert store.sinter(b"bin") == [b"\x00", b"\x01"]
