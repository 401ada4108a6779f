"""Engine vs naive oracle: random sequences and a stateful hypothesis machine."""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from model_harness import describe_failure, first_mismatch, gen_sequence
from oracle import Oracle, replies_equal

from miniredis.datastore import SortedSet
from miniredis.protocol import Array, BulkString, Error, Integer
from miniredis.router import LocalSession, Router


# Examples of the stateful machine; the random-sequence count scales with it
# (300 at the default). Raise it for a deeper run.
_MODEL_EXAMPLES = int(os.environ.get("MINIREDIS_MODEL_EXAMPLES", "60"))


def test_random_sequences_smoke():
    rng = random.Random(0xBEEF)
    for _ in range(_MODEL_EXAMPLES * 5):
        commands = gen_sequence(rng, rng.randint(1, 60))
        if first_mismatch(commands) is not None:
            pytest.fail(describe_failure(0xBEEF, commands))


def test_shrinker_reduces_a_planted_divergence():
    # a sequence that must NOT fail, as a sanity check of the harness itself
    commands = [[b"SET", b"k", b"v"], [b"GET", b"k"]]
    assert first_mismatch(commands) is None


@pytest.mark.parametrize(
    "score,accepted",
    [
        (b"1e400", False),
        (b"-1e400", False),
        (b"1.8e308", False),
        (b"inf", True),
        (b"-inf", True),
        (b"infinity", True),
        (b"1.7976931348623157e308", True),
        # strtod's underflow to zero is ERANGE too; a spelled zero is not.
        (b"1e-400", False),
        (b"-1e-400", False),
        (b"0.00001e-320", False),
        (b"0x1p-1080", False),
        (b"0e-400", True),
        (b"-0.0e-999", True),
        (b"5e-324", True),
        # Hex floats, as strtod reads them; a hex overflow is refused too.
        (b"0x10", True),
        (b"-0X1.8P1", True),
        (b"0x.8", True),
        (b"0x1p5000", False),
        (b"0x", False),
        (b"0x1p", False),
    ],
)
def test_zadd_score_overflow_in_engine_and_oracle(score, accepted):
    argv = [b"ZADD", b"z", score, b"m"]
    expected = Integer(1) if accepted else Error("ERR value is not a valid float")
    assert Router().replies(LocalSession(), argv) == [expected]
    assert Oracle().apply(argv) == expected


def test_zrangebyscore_overflowing_bound_is_infinity():
    router, session, oracle = Router(), LocalSession(), Oracle()
    zadd = [b"ZADD", b"z", b"inf", b"m"]
    router.dispatch(session, zadd)
    oracle.apply(zadd)
    query = [b"ZRANGEBYSCORE", b"z", b"1e400", b"+inf"]
    expected = Array((BulkString(b"m"),))
    assert router.replies(session, query) == [expected]
    assert oracle.apply(query) == expected


@pytest.mark.parametrize(
    "low,high,members",
    [
        # A bound that underflows reads as 0, as zslParseRange's strtod does.
        (b"1e-400", b"+inf", [b"zero", b"sixteen"]),
        (b"(1e-400", b"+inf", [b"sixteen"]),
        (b"0x10", b"0x10", [b"sixteen"]),
        (b"-0x1p5000", b"(0x1.0p4", [b"zero"]),
    ],
)
def test_zrangebyscore_hex_and_underflowing_bounds(low, high, members):
    router, session, oracle = Router(), LocalSession(), Oracle()
    zadd = [b"ZADD", b"z", b"0", b"zero", b"16", b"sixteen"]
    router.dispatch(session, zadd)
    oracle.apply(zadd)
    query = [b"ZRANGEBYSCORE", b"z", low, high]
    expected = Array(tuple(BulkString(m) for m in members))
    assert router.replies(session, query) == [expected]
    assert oracle.apply(query) == expected


_keys = st.sampled_from([b"k%d" % i for i in range(6)])
_values = st.one_of(st.sampled_from([b"a", b"bb", b"\x00\xff"]), st.binary(max_size=5))
_fields = st.sampled_from([b"f0", b"f1", b"f2"])
_members = st.one_of(st.sampled_from([b"m0", b"m1", b"m2"]), st.binary(max_size=4))
_scores = st.one_of(
    st.sampled_from(
        [b"-inf", b"+inf", b"0", b"1", b"2.5", b"1e400", b"1e-400", b"0x10", b"0x1p-1080"]
    ),
    st.floats(allow_nan=False, width=64).map(lambda f: repr(f).encode()),
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(
        lambda f: f.hex().encode()
    ),
)
_ints = st.integers(-20, 20).map(lambda i: b"%d" % i)


class EngineMatchesOracle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.router = Router()
        self.session = LocalSession()
        self.oracle = Oracle()

    def check(self, argv: list[bytes]) -> None:
        engine = self.router.replies(self.session, argv)
        expected = self.oracle.apply(argv)
        assert len(engine) == 1
        assert replies_equal(argv, engine[0], expected), (argv, engine[0], expected)

    @rule(key=_keys, value=_values)
    def set_string(self, key, value):
        self.check([b"SET", key, value])

    @rule(key=_keys)
    def get_string(self, key):
        self.check([b"GET", key])

    @rule(key=_keys, field=_fields, value=_values)
    def hset(self, key, field, value):
        self.check([b"HSET", key, field, value])

    @rule(key=_keys, field=_fields)
    def hget(self, key, field):
        self.check([b"HGET", key, field])

    @rule(key=_keys, field=_fields)
    def hdel(self, key, field):
        self.check([b"HDEL", key, field])

    @rule(key=_keys, members=st.lists(_members, min_size=1, max_size=3))
    def sadd(self, key, members):
        self.check([b"SADD", key] + members)

    @rule(key=_keys, members=st.lists(_members, min_size=1, max_size=3))
    def srem(self, key, members):
        self.check([b"SREM", key] + members)

    @rule(left=_keys, right=_keys)
    def sinter(self, left, right):
        self.check([b"SINTER", left, right])

    @rule(left=_keys, right=_keys)
    def sdiff(self, left, right):
        self.check([b"SDIFF", left, right])

    @rule(key=_keys, values=st.lists(_values, min_size=1, max_size=3))
    def lpush(self, key, values):
        self.check([b"LPUSH", key] + values)

    @rule(key=_keys, index=_ints)
    def lindex(self, key, index):
        self.check([b"LINDEX", key, index])

    @rule(key=_keys, start=_ints, stop=_ints)
    def lrange(self, key, start, stop):
        self.check([b"LRANGE", key, start, stop])

    @rule(key=_keys, score=_scores, member=_members)
    def zadd(self, key, score, member):
        self.check([b"ZADD", key, score, member])

    @rule(key=_keys, low=_scores, high=_scores, open_low=st.booleans())
    def zrangebyscore(self, key, low, high, open_low):
        low_arg = b"(" + low if open_low else low
        self.check([b"ZRANGEBYSCORE", key, low_arg, high])

    @rule(key=_keys)
    def delete(self, key):
        self.check([b"DEL", key])

    @rule(keys=st.lists(_keys, min_size=1, max_size=3))
    def exists(self, keys):
        self.check([b"EXISTS"] + keys)

    @invariant()
    def no_empty_collections_linger(self):
        # structural rule: a collection key disappears with its last element
        for key, value in self.router.store._data.items():
            if not isinstance(value, bytes):
                assert len(value) > 0, f"empty {type(value).__name__} under {key!r}"

    @invariant()
    def sorted_set_index_is_coherent(self):
        for value in self.router.store._data.values():
            if isinstance(value, SortedSet):
                listed = list(value.items())
                assert len(listed) == len(value)
                assert listed == sorted(listed)
                assert all(value.score(member) == score for score, member in listed)


EngineMatchesOracleTest = EngineMatchesOracle.TestCase
EngineMatchesOracleTest.settings = settings(max_examples=_MODEL_EXAMPLES, stateful_step_count=40)
