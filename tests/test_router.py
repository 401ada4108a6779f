"""Dispatch behavior: names, arity, error texts, subscriber-mode gating."""

from __future__ import annotations

import random
import time
import tracemalloc

import pytest

from miniredis.protocol import (
    Array,
    BulkString,
    Error,
    Integer,
    SimpleString,
    StreamDecoder,
    encode,
)
from miniredis.router import SUBSCRIBER_MODE_ERROR, LocalSession, Router


@pytest.fixture
def router():
    return Router()


@pytest.fixture
def session():
    return LocalSession()


def one(replies):
    assert len(replies) == 1
    return replies[0]


def test_command_names_are_case_insensitive(router, session):
    assert one(router.replies(session, [b"set", b"ice-cream", b"hazelnut"])) == SimpleString("OK")
    assert one(router.replies(session, [b"GET", b"ice-cream"])) == BulkString(b"hazelnut")
    assert one(router.replies(session, [b"GeT", b"ice-cream"])) == BulkString(b"hazelnut")


def test_keys_stay_case_sensitive_through_dispatch(router, session):
    router.dispatch(session, [b"SET", b"Key", b"a"])
    assert one(router.replies(session, [b"GET", b"key"])) == BulkString(None)


def test_unknown_command_echoes_name_as_sent(router, session):
    assert one(router.replies(session, [b"Bogus", b"x"])) == Error(
        "ERR unknown command 'Bogus'"
    )


def test_unknown_command_name_is_escaped(router, session):
    reply = one(router.replies(session, [b"BO\r\nGUS"]))
    assert isinstance(reply, Error)
    encode(reply)  # must stay encodable: no raw CR/LF smuggled in


def test_wrong_arity_message_uses_lowercase_name(router, session):
    assert one(router.replies(session, [b"GET"])) == Error(
        "ERR wrong number of arguments for 'get' command"
    )
    assert one(router.replies(session, [b"HSET", b"h", b"f"])) == Error(
        "ERR wrong number of arguments for 'hset' command"
    )
    assert one(router.replies(session, [b"SET", b"k", b"v", b"extra"])) == Error(
        "ERR wrong number of arguments for 'set' command"
    )
    assert one(router.replies(session, [b"ZRANGEBYSCORE", b"z", b"0"])) == Error(
        "ERR wrong number of arguments for 'zrangebyscore' command"
    )


# name: (min args, max args or None, allowed while subscribed), as Redis has them.
COMMAND_TABLE = {
    "PING": (0, 1, True),
    "QUIT": (0, 0, True),
    "COMMAND": (0, None, False),
    "SET": (2, 2, False),
    "GET": (1, 1, False),
    "HSET": (3, 3, False),
    "HGET": (2, 2, False),
    "HEXISTS": (2, 2, False),
    "HDEL": (2, None, False),
    "SADD": (2, None, False),
    "SREM": (2, None, False),
    "SINTER": (1, None, False),
    "SUNION": (1, None, False),
    "SDIFF": (1, None, False),
    "LPUSH": (2, None, False),
    "LLEN": (1, 1, False),
    "LINDEX": (2, 2, False),
    "LRANGE": (3, 3, False),
    "ZADD": (3, None, False),
    "ZRANGEBYSCORE": (3, 3, False),
    "DEL": (1, None, False),
    "EXISTS": (1, None, False),
    "FLUSHALL": (0, 0, False),
    "SUBSCRIBE": (1, None, True),
    "UNSUBSCRIBE": (0, None, True),
    "PUBLISH": (2, 2, False),
}


@pytest.mark.parametrize("name", sorted(COMMAND_TABLE))
def test_every_command_arity_and_subscriber_flag(name):
    low, high, while_subscribed = COMMAND_TABLE[name]
    arity_error = Error(f"ERR wrong number of arguments for '{name.lower()}' command")
    counts = ([low - 1] if low > 0 else []) + ([high + 1] if high is not None else [])
    for count in counts:
        reply = one(Router().replies(LocalSession(), [name.encode()] + [b"1"] * count))
        assert reply == arity_error, count

    router, subscriber = Router(), LocalSession()
    router.dispatch(subscriber, [b"SUBSCRIBE", b"ch"])
    # Arity is checked before subscriber mode.
    for count in counts:
        replies = router.replies(subscriber, [name.encode()] + [b"1"] * count)
        assert one(replies) == arity_error, count
    replies = router.replies(subscriber, [name.encode()] + [b"1"] * low)
    if while_subscribed:
        assert Error(SUBSCRIBER_MODE_ERROR) not in replies
    else:
        assert one(replies) == Error(SUBSCRIBER_MODE_ERROR)


def test_empty_argv_produces_no_reply(router, session):
    assert router.replies(session, []) == []


def test_ping_and_ping_echo(router, session):
    assert one(router.replies(session, [b"PING"])) == SimpleString("PONG")
    assert one(router.replies(session, [b"PING", b"hello"])) == BulkString(b"hello")


def test_quit_flags_the_session(router, session):
    assert one(router.replies(session, [b"QUIT"])) == SimpleString("OK")
    assert session.close_requested


def test_command_stub_returns_empty_array(router, session):
    assert one(router.replies(session, [b"COMMAND"])) == Array(())
    assert one(router.replies(session, [b"COMMAND", b"DOCS"])) == Array(())


def test_wrongtype_travels_as_error_reply_and_leaves_state(router, session):
    router.dispatch(session, [b"SET", b"s", b"v"])
    reply = one(router.replies(session, [b"SADD", b"s", b"m"]))
    assert reply == Error(
        "WRONGTYPE Operation against a key holding the wrong kind of value"
    )
    assert one(router.replies(session, [b"GET", b"s"])) == BulkString(b"v")


def test_zadd_odd_pairs_is_syntax_error(router, session):
    assert one(router.replies(session, [b"ZADD", b"z", b"1", b"a", b"2"])) == Error(
        "ERR syntax error"
    )
    # nothing was applied
    assert one(
        router.replies(session, [b"ZRANGEBYSCORE", b"z", b"-inf", b"+inf"])
    ) == Array(())


def test_zadd_rejects_nan_score_before_applying_anything(router, session):
    reply = one(router.replies(session, [b"ZADD", b"z", b"1", b"a", b"nan", b"b"]))
    assert reply == Error("ERR value is not a valid float")
    assert one(
        router.replies(session, [b"ZRANGEBYSCORE", b"z", b"-inf", b"+inf"])
    ) == Array(())


@pytest.mark.parametrize("bad", [b"nan", b"1e400", b"1e-400", b" 1", b"1_0", b"x", b""])
def test_zadd_with_one_bad_score_anywhere_leaves_the_key_untouched(router, session, bad):
    router.dispatch(session, [b"ZADD", b"z", b"1", b"a", b"2", b"b"])
    full = router.dispatch(session, [b"ZRANGEBYSCORE", b"z", b"-inf", b"+inf"])
    for at in range(6):
        scores = [b"%d" % (10 + i) for i in range(6)]
        scores[at] = bad
        argv = [b"ZADD", b"z"]
        for i, score in enumerate(scores):
            argv += [score, b"a" if i == 0 else b"n%d" % i]
        assert router.dispatch(session, argv) == b"-ERR value is not a valid float\r\n"
        assert router.dispatch(session, [b"ZRANGEBYSCORE", b"z", b"-inf", b"+inf"]) == full
        assert router.dispatch(session, [b"ZRANGEBYSCORE", b"z", b"1", b"1"]) == b"*1\r\n$1\r\na\r\n"


def test_zrangebyscore_bad_bound_message(router, session):
    router.dispatch(session, [b"ZADD", b"z", b"1", b"a"])
    assert one(router.replies(session, [b"ZRANGEBYSCORE", b"z", b"abc", b"2"])) == Error(
        "ERR min or max is not a float"
    )


def test_lindex_bad_integer_message(router, session):
    router.dispatch(session, [b"LPUSH", b"l", b"a"])
    assert one(router.replies(session, [b"LINDEX", b"l", b"1.5"])) == Error(
        "ERR value is not an integer or out of range"
    )


def test_set_algebra_replies_are_sorted_bulk_arrays(router, session):
    router.dispatch(session, [b"SADD", b"s", b"zebra", b"ant", b"mole"])
    reply = one(router.replies(session, [b"SUNION", b"s"]))
    assert reply == Array((BulkString(b"ant"), BulkString(b"mole"), BulkString(b"zebra")))


def test_exec_line_runs_interactive_style_transcripts(router):
    assert router.exec_line("SET ice-cream chocolate") == [SimpleString("OK")]
    assert router.exec_line("GET ice-cream") == [BulkString(b"chocolate")]
    assert router.exec_line(b'HSET myhash def "some text"') == [Integer(1)]
    assert router.exec_line("HGET myhash def") == [BulkString(b"some text")]
    assert router.exec_line("HEXISTS myhash xyz") == [Integer(0)]
    assert router.exec_line("") == []
    assert router.exec_line("   ") == []


def test_exec_line_reports_bad_quoting_without_raising(router):
    replies = router.exec_line(b'GET "oops')
    assert len(replies) == 1
    assert isinstance(replies[0], Error)
    assert replies[0].text.startswith("ERR Protocol error:")


def test_exec_line_accepts_explicit_session(router):
    session = LocalSession()
    router.exec_line("SUBSCRIBE ch1", session=session)
    assert router.broker.subscription_count(session) == 1


def test_subscriber_mode_gates_store_commands(router, session):
    acks = router.replies(session, [b"SUBSCRIBE", b"ch1", b"ch2"])
    assert acks == [
        Array((BulkString(b"subscribe"), BulkString(b"ch1"), Integer(1))),
        Array((BulkString(b"subscribe"), BulkString(b"ch2"), Integer(2))),
    ]
    assert one(router.replies(session, [b"GET", b"k"])) == Error(SUBSCRIBER_MODE_ERROR)
    assert one(router.replies(session, [b"PUBLISH", b"ch1", b"m"])) == Error(
        SUBSCRIBER_MODE_ERROR
    )
    # the allowed four still work
    assert one(router.replies(session, [b"PING"])) == SimpleString("PONG")
    assert one(router.replies(session, [b"QUIT"])) == SimpleString("OK")
    replies = router.replies(session, [b"UNSUBSCRIBE"])
    assert [r.items[1] for r in replies] == [BulkString(b"ch1"), BulkString(b"ch2")]
    # back to normal mode once the last channel is gone
    assert one(router.replies(session, [b"GET", b"k"])) == BulkString(None)


def test_subscriber_mode_allows_further_subscribes(router, session):
    router.dispatch(session, [b"SUBSCRIBE", b"a"])
    acks = router.replies(session, [b"SUBSCRIBE", b"b"])
    assert acks[0].items[2] == Integer(2)


def test_publish_returns_receiver_count(router):
    alice, bob, carol = LocalSession(), LocalSession(), LocalSession()
    router.dispatch(alice, [b"SUBSCRIBE", b"ch1"])
    router.dispatch(bob, [b"SUBSCRIBE", b"ch1"])
    reply = one(router.replies(carol, [b"PUBLISH", b"ch1", b"x"]))
    assert reply == Integer(2)
    expected = Array((BulkString(b"message"), BulkString(b"ch1"), BulkString(b"x")))
    assert alice.pushed == [expected]
    assert bob.pushed == [expected]


def test_every_command_dispatches_under_random_casing(router):
    rng = random.Random(20260815)
    probes = {
        "PING": [],
        "SET": [b"k", b"v"],
        "GET": [b"k"],
        "HSET": [b"h", b"f", b"v"],
        "HGET": [b"h", b"f"],
        "HEXISTS": [b"h", b"f"],
        "HDEL": [b"h", b"f"],
        "SADD": [b"s", b"m"],
        "SREM": [b"s", b"m"],
        "SINTER": [b"s"],
        "SUNION": [b"s"],
        "SDIFF": [b"s"],
        "LPUSH": [b"l", b"v"],
        "LLEN": [b"l"],
        "LINDEX": [b"l", b"0"],
        "LRANGE": [b"l", b"0", b"-1"],
        "ZADD": [b"z", b"1", b"m"],
        "ZRANGEBYSCORE": [b"z", b"-inf", b"+inf"],
        "DEL": [b"k"],
        "EXISTS": [b"k"],
        "FLUSHALL": [],
        "PUBLISH": [b"ch", b"m"],
        "SUBSCRIBE": [b"ch"],
        "UNSUBSCRIBE": [],
        "QUIT": [],
        "COMMAND": [],
    }
    assert sorted(probes) == sorted(COMMAND_TABLE) == router.commands()
    for name, args in probes.items():
        for _ in range(4):
            cased = "".join(
                c.lower() if rng.random() < 0.5 else c.upper() for c in name
            ).encode()
            # both runs start from identical state: fresh everything
            upper = Router().replies(LocalSession(), [name.encode()] + args)
            mixed = Router().replies(LocalSession(), [cased] + args)
            assert [encode(r) for r in mixed] == [encode(r) for r in upper], name


# -- reply framing ------------------------------------------------------------

# One of each key type, for the calls below.
_KEYS = (
    [b"SET", b"str", b"v"],
    [b"HSET", b"hash", b"f", b"v"],
    [b"SADD", b"set", b"a", b"b"],
    [b"LPUSH", b"list", b"a", b"b"],
    [b"ZADD", b"zset", b"1", b"a", b"2", b"b"],
)

# name: (calls that succeed, calls that answer an error: a wrong type or an
# unparsable number); arity errors are derived from COMMAND_TABLE.
_FRAMING_CALLS = {
    "PING": ([[], [b"hi"]], []),
    "QUIT": ([[]], []),
    "COMMAND": ([[], [b"DOCS"]], []),
    "SET": ([[b"str", b"w"], [b"new", b"x" * 300]], []),
    "GET": ([[b"str"], [b"nokey"]], [[b"hash"]]),
    "HSET": ([[b"hash", b"g", b"v"]], [[b"str", b"f", b"v"]]),
    "HGET": ([[b"hash", b"f"], [b"hash", b"nofield"]], [[b"set", b"f"]]),
    "HEXISTS": ([[b"hash", b"f"], [b"nokey", b"f"]], [[b"list", b"f"]]),
    "HDEL": ([[b"hash", b"f", b"g"]], [[b"str", b"f"]]),
    "SADD": ([[b"set", b"c"]], [[b"hash", b"m"]]),
    "SREM": ([[b"set", b"a"]], [[b"zset", b"a"]]),
    "SINTER": ([[b"set", b"set"], [b"set", b"nokey"]], [[b"set", b"str"]]),
    "SUNION": ([[b"set", b"nokey"]], [[b"list"]]),
    "SDIFF": ([[b"set"]], [[b"zset"]]),
    "LPUSH": ([[b"list", b"c", b"d"]], [[b"set", b"x"]]),
    "LLEN": ([[b"list"], [b"nokey"]], [[b"str"]]),
    "LINDEX": ([[b"list", b"0"], [b"list", b"9"]], [[b"str", b"0"], [b"list", b"1.5"]]),
    "LRANGE": ([[b"list", b"0", b"-1"]], [[b"hash", b"0", b"-1"], [b"list", b"x", b"1"]]),
    "ZADD": (
        [[b"zset", b"3", b"c"]],
        [[b"list", b"1", b"m"], [b"zset", b"nan", b"m"], [b"zset", b"1", b"a", b"2"]],
    ),
    "ZRANGEBYSCORE": (
        [[b"zset", b"-inf", b"+inf"], [b"zset", b"(1", b"2"]],
        [[b"set", b"0", b"1"], [b"zset", b"abc", b"1"]],
    ),
    "DEL": ([[b"str", b"nokey"]], []),
    "EXISTS": ([[b"str", b"hash", b"nokey"]], []),
    "FLUSHALL": ([[]], []),
    "SUBSCRIBE": ([[b"a", b"b"]], []),
    "UNSUBSCRIBE": ([[], [b"a"]], []),
    "PUBLISH": ([[b"ch", b"m"]], []),
}


def _canonical(out: bytes) -> bytes:
    """``out`` decoded and encoded again; equal to ``out`` if it is canonical."""
    values = StreamDecoder().feed(out)
    assert values, out
    return b"".join(map(encode, values))


@pytest.mark.parametrize("name", sorted(_FRAMING_CALLS))
def test_every_reply_is_framed_canonically(name):
    assert sorted(_FRAMING_CALLS) == Router().commands()
    low, high, _ = COMMAND_TABLE[name]
    valid, failing = _FRAMING_CALLS[name]
    arity = [[b"x"] * (low - 1)] if low else []
    arity += [[b"x"] * (high + 1)] if high is not None else []
    cases = [(args, False) for args in valid] + [(args, True) for args in failing + arity]
    for args, is_error in cases:
        router = Router()
        for argv in _KEYS:
            router.dispatch(LocalSession(), argv)
        out = router.dispatch(LocalSession(), [name.encode(), *args])
        assert out == _canonical(out), args
        errors = [isinstance(value, Error) for value in StreamDecoder().feed(out)]
        assert all(errors) if is_error else not any(errors), (args, out)


@pytest.mark.parametrize("size", [0, 255, 256, 1 << 20])
def test_bulk_replies_are_framed_at_every_header_size(router, session, size):
    value = (b"\r\n" + bytes(range(256)) * (size // 256 + 1))[:size]
    router.dispatch(session, [b"SET", b"k", value])
    router.dispatch(session, [b"HSET", b"h", b"f", value])
    router.dispatch(session, [b"LPUSH", b"l", value])
    wire = b"$" + str(size).encode() + b"\r\n" + value + b"\r\n"
    for argv in ([b"GET", b"k"], [b"HGET", b"h", b"f"], [b"LINDEX", b"l", b"0"], [b"PING", value]):
        out = router.dispatch(session, argv)
        assert out == wire == _canonical(out), argv[0]
    assert router.dispatch(session, [b"LRANGE", b"l", b"0", b"0"]) == b"*1\r\n" + wire


def test_null_bulk_and_empty_array_wire_forms(router, session):
    for argv in ([b"GET", b"k"], [b"HGET", b"h", b"f"], [b"LINDEX", b"l", b"0"]):
        assert router.dispatch(session, argv) == b"$-1\r\n"
    assert router.dispatch(session, [b"COMMAND"]) == b"*0\r\n"
    assert router.dispatch(session, [b"SUNION", b"nokey"]) == b"*0\r\n"


@pytest.mark.parametrize(
    "name,shown",
    [
        (b"GE\xdf", "GE\\xdf"),
        (b"\xb5", "\\xb5"),
        (b"g\xe9t", "g\\xe9t"),
        (b"get\xff", "get\\xff"),
        (b"\xdfet", "\\xdfet"),
    ],
)
def test_non_ascii_names_are_unknown_and_shown_as_sent(router, session, name, shown):
    out = router.dispatch(session, [name, b"k"])
    assert out == b"-ERR unknown command '" + shown.encode() + b"'\r\n"
    assert out == _canonical(out)


def test_large_bulk_reply_costs_about_one_copy():
    # Framing a large value with %-formatting (b"...%b" % value) copies it
    # several times slower than joining the header, value and CRLF.
    value = bytes(4 << 20)
    router, session = Router(), LocalSession()
    router.dispatch(session, [b"SET", b"k", value])
    parts = (b"$%d\r\n" % len(value), value, b"\r\n")
    turns = {
        "dispatch": lambda: router.dispatch(session, [b"GET", b"k"]),
        "join": lambda: b"".join(parts),
    }
    best = dict.fromkeys(turns, float("inf"))  # CPU time of this thread
    for i in range(5):
        for name in sorted(turns, reverse=i % 2 == 1):
            start = time.thread_time()
            out = turns[name]()
            best[name] = min(best[name], time.thread_time() - start)
            assert out == b"".join(parts)
            del out
    assert best["dispatch"] < 3 * best["join"], best
    # Counted: the reply allocates one copy of the value and a few bytes more.
    tracemalloc.start()
    try:
        out = router.dispatch(session, [b"GET", b"k"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == b"".join(parts)
    assert peak <= 1.1 * len(value), (peak, len(value))
