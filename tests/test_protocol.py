"""Wire codec: frozen golden bytes, incremental decoding, framing errors.

The golden byte strings below are written out by hand from the wire
grammar and must never be computed by the code under test.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import os
import pickle
import random
import time
import tracemalloc
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miniredis import protocol
from miniredis.cli import _quote
from miniredis.errors import InlineCommandError, ProtocolError
from miniredis.protocol import (
    INT64_MAX,
    INT64_MIN,
    Array,
    BulkString,
    DecodeLimits,
    Error,
    Integer,
    RequestDecoder,
    SimpleString,
    StreamDecoder,
    encode,
    encode_command,
    tokenize_inline,
)
from miniredis.router import LocalSession, Router

GOLDEN = [
    (SimpleString("OK"), b"+OK\r\n"),
    (SimpleString("PONG"), b"+PONG\r\n"),
    (SimpleString(""), b"+\r\n"),
    (Error("ERR unknown command 'FOO'"), b"-ERR unknown command 'FOO'\r\n"),
    (
        Error("WRONGTYPE Operation against a key holding the wrong kind of value"),
        b"-WRONGTYPE Operation against a key holding the wrong kind of value\r\n",
    ),
    (Integer(0), b":0\r\n"),
    (Integer(3), b":3\r\n"),
    (Integer(-1), b":-1\r\n"),
    (Integer(INT64_MAX), b":9223372036854775807\r\n"),
    (Integer(INT64_MIN), b":-9223372036854775808\r\n"),
    (BulkString(b""), b"$0\r\n\r\n"),
    (BulkString(b"chocolate"), b"$9\r\nchocolate\r\n"),
    (BulkString(b"some text"), b"$9\r\nsome text\r\n"),
    (BulkString(b"\x00\xff\r\n"), b"$4\r\n\x00\xff\r\n\r\n"),
    (BulkString(None), b"$-1\r\n"),
    (Array(()), b"*0\r\n"),
    (Array(None), b"*-1\r\n"),
    (Array((BulkString(b"PING"),)), b"*1\r\n$4\r\nPING\r\n"),
    (
        Array((BulkString(b"SET"), BulkString(b"ice-cream"), BulkString(b"chocolate"))),
        b"*3\r\n$3\r\nSET\r\n$9\r\nice-cream\r\n$9\r\nchocolate\r\n",
    ),
    (
        Array((BulkString(b"subscribe"), BulkString(b"ch1"), Integer(1))),
        b"*3\r\n$9\r\nsubscribe\r\n$3\r\nch1\r\n:1\r\n",
    ),
    (
        Array((Integer(1), Array((SimpleString("a"), BulkString(None))))),
        b"*2\r\n:1\r\n*2\r\n+a\r\n$-1\r\n",
    ),
]


@pytest.mark.parametrize("value,wire", GOLDEN, ids=repr)
def test_encode_golden(value, wire):
    assert encode(value) == wire


@pytest.mark.parametrize("value,wire", GOLDEN, ids=repr)
def test_decode_golden(value, wire):
    assert StreamDecoder().feed(wire) == [value]


@pytest.mark.parametrize("value,wire", GOLDEN, ids=repr)
def test_decode_golden_byte_at_a_time(value, wire):
    decoder = StreamDecoder()
    seen = []
    for i in range(len(wire)):
        seen.extend(decoder.feed(wire[i : i + 1]))
    assert seen == [value]
    assert decoder.pending_bytes == 0


def test_encode_rejects_newlines_in_line_replies():
    with pytest.raises(ValueError):
        encode(SimpleString("a\r\nb"))
    with pytest.raises(ValueError):
        encode(Error("bad\nvalue"))


def test_encode_rejects_oversized_integer():
    with pytest.raises(ValueError):
        encode(Integer(INT64_MAX + 1))


def test_encode_rejects_non_protocol_value():
    with pytest.raises(TypeError):
        encode("OK")  # type: ignore[arg-type]


def test_array_coerces_list_items_to_tuple():
    assert Array([Integer(1)]) == Array((Integer(1),))


def test_feed_returns_multiple_values_from_one_chunk():
    wire = b"+OK\r\n:7\r\n$2\r\nhi\r\n"
    assert StreamDecoder().feed(wire) == [SimpleString("OK"), Integer(7), BulkString(b"hi")]


def test_feed_buffers_partial_frames():
    decoder = StreamDecoder()
    assert decoder.feed(b"$9\r\nchoc") == []
    assert decoder.pending_bytes == 8
    assert decoder.feed(b"olate\r\n") == [BulkString(b"chocolate")]
    assert decoder.pending_bytes == 0


def test_feed_split_inside_header():
    decoder = StreamDecoder()
    assert decoder.feed(b"*2\r\n$4\r\nPI") == []
    assert decoder.pending_bytes == 10  # includes the headers already decoded
    assert decoder.feed(b"NG\r\n:5\r\n") == [Array((BulkString(b"PING"), Integer(5)))]


def test_unicode_simple_string_roundtrip():
    value = SimpleString("héllo wörld")
    assert StreamDecoder().feed(encode(value)) == [value]


def _feed_until_error(decoder, wire: bytes, whole: bool) -> ProtocolError:
    """Feed ``wire`` at once or byte by byte; return the ProtocolError."""
    chunks = [wire] if whole else [wire[i : i + 1] for i in range(len(wire))]
    for chunk in chunks:
        try:
            for item in decoder.feed(chunk):
                if isinstance(item, ProtocolError):
                    return item
        except ProtocolError as exc:
            return exc
    raise AssertionError("no ProtocolError raised")


@pytest.mark.parametrize(
    "wire,offset",
    [
        (b"?oops\r\n", 0),
        (b":abc\r\n", 0),
        (b":1_0\r\n", 0),
        (b": 1\r\n", 0),
        (b":9223372036854775808\r\n", 0),
        pytest.param(b":" + b"1" * 5000 + b"\r\n", 0, id="5000-digit integer"),
        (b"$-2\r\n", 0),
        (b"$2x\r\nab\r\n", 0),
        (b"*-5\r\n", 0),
        (b"+OK\r\n:x\r\n", 5),
        (b"$5\r\nhelloXY", 9),
        (b"+O\rK\r\n", 0),
        (b"+O\nK\r\n", 0),
        (b"*2\r\n*1\r\n:1\r\n$1\r\nab\r\n", 17),
    ],
)
def test_decode_errors_carry_absolute_offsets(wire, offset):
    for whole in (True, False):
        assert _feed_until_error(StreamDecoder(), wire, whole).offset == offset


def test_offset_survives_chunked_feeding():
    decoder = StreamDecoder()
    decoder.feed(b"+OK\r\n")
    decoder.feed(b"+FINE\r\n")
    with pytest.raises(ProtocolError) as excinfo:
        decoder.feed(b"!\r\n")
    assert excinfo.value.offset == 12


def test_invalid_utf8_in_simple_string():
    with pytest.raises(ProtocolError):
        StreamDecoder().feed(b"+\xff\xfe\r\n")


def test_decoder_is_poisoned_after_error():
    decoder = StreamDecoder()
    with pytest.raises(ProtocolError):
        decoder.feed(b"?\r\n")
    with pytest.raises(RuntimeError):
        decoder.feed(b"+OK\r\n")


def test_bulk_length_limit():
    decoder = StreamDecoder(DecodeLimits(max_bulk_length=8))
    with pytest.raises(ProtocolError, match="bulk length exceeds limit"):
        decoder.feed(b"$9\r\n")


def test_array_length_limit():
    decoder = StreamDecoder(DecodeLimits(max_array_length=4))
    with pytest.raises(ProtocolError, match="array length exceeds limit"):
        decoder.feed(b"*5\r\n")


def test_depth_limit():
    decoder = StreamDecoder(DecodeLimits(max_depth=3))
    assert decoder.feed(b"*1\r\n" * 3 + b":1\r\n") == [
        Array((Array((Array((Integer(1),)),)),))
    ]
    with pytest.raises(ProtocolError, match="depth"):
        StreamDecoder(DecodeLimits(max_depth=3)).feed(b"*1\r\n" * 4 + b":1\r\n")


def test_default_depth_limit_is_generous():
    wire = b"*1\r\n" * 32 + b":1\r\n"
    values = StreamDecoder().feed(wire)
    assert len(values) == 1
    with pytest.raises(ProtocolError, match="depth"):
        StreamDecoder().feed(b"*1\r\n" * 33 + b":1\r\n")


def test_unterminated_line_is_bounded():
    decoder = StreamDecoder(DecodeLimits(max_line_length=64))
    with pytest.raises(ProtocolError, match="line exceeds maximum length"):
        decoder.feed(b"+" + b"x" * 200)


def test_null_bulk_and_null_array_split_feeds():
    decoder = StreamDecoder()
    assert decoder.feed(b"$-") == []
    assert decoder.feed(b"1\r\n*") == [BulkString(None)]
    assert decoder.feed(b"-1\r\n") == [Array(None)]


# -- request decoding (server side) ---------------------------------------


def test_request_multibulk():
    decoder = RequestDecoder()
    items = decoder.feed(b"*3\r\n$3\r\nSET\r\n$1\r\na\r\n$1\r\nb\r\n")
    assert items == [[b"SET", b"a", b"b"]]


def test_request_pipelined_mixed_framings():
    decoder = RequestDecoder()
    items = decoder.feed(b"*1\r\n$4\r\nPING\r\nGET ice-cream\r\n*1\r\n$4\r\nPING\r\n")
    assert items == [[b"PING"], [b"GET", b"ice-cream"], [b"PING"]]


def test_request_inline_quoting():
    decoder = RequestDecoder()
    items = decoder.feed(b'HSET myhash def "some text"\r\n')
    assert items == [[b"HSET", b"myhash", b"def", b"some text"]]


def test_request_inline_bare_lf():
    assert RequestDecoder().feed(b"PING\n") == [[b"PING"]]


def test_request_empty_inline_line_is_skipped():
    assert RequestDecoder().feed(b"\r\n \t\r\nPING\r\n") == [[b"PING"]]


def test_request_empty_array_is_skipped():
    assert RequestDecoder().feed(b"*0\r\nPING\r\n") == [[b"PING"]]


def test_request_unbalanced_quote_keeps_stream_alive():
    decoder = RequestDecoder()
    items = decoder.feed(b'GET "oops\r\nPING\r\n')
    assert len(items) == 2
    assert isinstance(items[0], InlineCommandError)
    assert items[1] == [b"PING"]
    # the decoder is still usable afterwards
    assert decoder.feed(b"GET k\r\n") == [[b"GET", b"k"]]


def test_request_non_bulk_element_is_fatal():
    decoder = RequestDecoder()
    items = decoder.feed(b"*1\r\n:5\r\n")
    assert len(items) == 1
    assert isinstance(items[0], ProtocolError)
    assert "expected '$'" in items[0].reason
    with pytest.raises(RuntimeError):
        decoder.feed(b"PING\r\n")


def test_request_null_bulk_element_is_fatal():
    items = RequestDecoder().feed(b"*1\r\n$-1\r\n")
    assert isinstance(items[0], ProtocolError)


def test_request_decoded_commands_before_error_are_kept():
    items = RequestDecoder().feed(b"*1\r\n$4\r\nPING\r\n*1\r\n:5\r\n")
    assert items[0] == [b"PING"]
    assert isinstance(items[1], ProtocolError)


def test_request_chunked_multibulk():
    decoder = RequestDecoder()
    wire = b"*2\r\n$3\r\nGET\r\n$9\r\nice-cream\r\n"
    collected = []
    for i in range(0, len(wire), 3):
        collected.extend(decoder.feed(wire[i : i + 3]))
    assert collected == [[b"GET", b"ice-cream"]]


def test_request_binary_safe_arguments():
    payload = bytes(range(256))
    wire = b"*3\r\n$4\r\nHSET\r\n$1\r\nk\r\n$256\r\n" + payload + b"\r\n"
    assert RequestDecoder().feed(wire) == [[b"HSET", b"k", payload]]


@pytest.mark.parametrize(
    "wire,offset,reason",
    [
        (b"*x\r\n", 0, "invalid multibulk length"),
        (b"*1\r\n:5\r\n", 4, "expected '$'"),
        (b"*1\r\n$-1\r\n", 4, "invalid bulk length"),
        (b"PING\r\n*1\r\n$3\r\nabcXY", 17, "missing trailing CRLF"),
        (b"*1\r\n$4\r\nPING\r\n*1\r\n$" + b"9" * 80, 19, "line exceeds"),
        (b"PING\r\n" + b"x" * 80, 6, "too big inline request"),
    ],
)
def test_request_errors_carry_absolute_offsets(wire, offset, reason):
    for whole in (True, False):
        decoder = RequestDecoder(DecodeLimits(max_line_length=64))
        error = _feed_until_error(decoder, wire, whole)
        assert error.offset == offset
        assert reason in error.reason


@pytest.mark.parametrize("whole", [True, False], ids=["whole", "byte-by-byte"])
def test_long_inline_line_is_refused_however_it_is_cut(whole):
    wire = b"SET k " + b"x" * 200 + b"\n"
    error = _feed_until_error(RequestDecoder(DecodeLimits(max_line_length=64)), wire, whole)
    assert (error.reason, error.offset) == ("too big inline request", 0)


@pytest.mark.parametrize("cls", [RequestDecoder, StreamDecoder])
def test_header_of_exactly_max_line_length_is_accepted_however_it_is_cut(cls):
    # The CR of the terminating CRLF is not part of the line: a header
    # arriving byte by byte must not be refused while only its CR is here.
    wire = b"*1\r\n$0004\r\nPING\r\n" if cls is RequestDecoder else b":1234\r\n"
    whole = cls(DecodeLimits(max_line_length=4)).feed(wire)
    decoder = cls(DecodeLimits(max_line_length=4))
    assert [item for i in range(len(wire)) for item in decoder.feed(wire[i : i + 1])] == whole
    assert whole in ([[b"PING"]], [Integer(1234)])


def _best_chunked_decode_s(
    decoder_cls, wire: bytes, chunk: int = 1024, values: int = 1, repeats: int = 5
) -> float:
    best = float("inf")
    for _ in range(repeats):
        decoder = decoder_cls()
        # This thread's CPU time: time the machine gives other processes
        # does not count, so a busy neighbour cannot skew the ratios.
        start = time.thread_time()
        decoded = []
        for i in range(0, len(wire), chunk):
            decoded.extend(decoder.feed(wire[i : i + chunk]))
        best = min(best, time.thread_time() - start)
        assert len(decoded) == values
        assert not any(isinstance(value, Exception) for value in decoded)
    return best


def _many_bulk_frame(n: int) -> bytes:
    return encode(Array(tuple(BulkString(b"m%06d" % i) for i in range(n))))


@pytest.mark.parametrize("decoder_cls", [RequestDecoder, StreamDecoder])
def test_chunked_decoding_scales_linearly(decoder_cls):
    # A frame arriving in many reads must cost time linear in its size:
    # 4x the elements should take ~4x the time, where re-parsing the
    # frame from its start on every read would take ~16x.
    n = 2000
    small = _best_chunked_decode_s(decoder_cls, _many_bulk_frame(n))
    large = _best_chunked_decode_s(decoder_cls, _many_bulk_frame(4 * n))
    assert large / small < 8


def _alternating_crlf_frame(n: int) -> bytes:
    return _bulk_frame(
        [(b"a\r\nb%05d" % i if i % 2 else b"m%06d" % i, b"%d") for i in range(n)]
    )


def _zero_padded_frame(n: int) -> bytes:
    return _bulk_frame([(b"m%015d" % i, b"%03d") for i in range(n)])  # $016


def _big_bodies_frame(n: int) -> bytes:
    return _bulk_frame([(bytes([65 + i % 26]) * 100_000, b"%d") for i in range(n)])


def _nine_argument_frames(n: int) -> bytes:
    argv = (b"ZADD", b"z", b"1", b"a", b"2", b"b", b"3", b"c", b"d")
    return encode(Array(tuple(map(BulkString, argv)))) * n


def _pipeline(argvs) -> bytes:
    return b"".join(encode(Array(tuple(map(BulkString, argv)))) for argv in argvs)


def _long_argument_pipeline(n: int) -> bytes:
    return _pipeline((b"SET", b"k%05d" % i, b"v" * 300) for i in range(n))


def _crlf_argument_pipeline(n: int) -> bytes:
    return _pipeline((b"SET", b"k%05d" % i, b"a\r\nb") for i in range(n))


def _wide_array_pipeline(n: int) -> bytes:
    return _pipeline([b"SADD", b"s"] + [b"%d" % (j % 10) for j in range(298)] for _ in range(n))


def _inline_between_commands(n: int) -> bytes:
    return b"".join(b"PING\r\n" + _pipeline([(b"GET", b"k%05d" % i)]) for i in range(n))


# Frame shapes on which the split, filling an array or taking commands,
# stops early or gains little: (build(n), n, bytes per feed, values
# decoded).
_HOSTILE_SHAPES = {
    "alternate-bodies-hold-crlf": (_alternating_crlf_frame, 2000, 1 << 30, lambda n: 1),
    "zero-padded-headers": (_zero_padded_frame, 2000, 1 << 30, lambda n: 1),
    "100kb-bodies-in-64kib-reads": (_big_bodies_frame, 25, 1 << 16, lambda n: 1),
    "nine-argument-frames": (_nine_argument_frames, 5000, 1 << 30, lambda n: n),
    "300-byte-arguments": (_long_argument_pipeline, 2000, 1 << 16, lambda n: n),
    "arguments-hold-crlf": (_crlf_argument_pipeline, 2000, 1 << 16, lambda n: n),
    "300-item-arrays": (_wide_array_pipeline, 100, 1 << 16, lambda n: n),
    "inline-between-commands": (_inline_between_commands, 2000, 1 << 16, lambda n: 2 * n),
}


@contextlib.contextmanager
def _state_machine_only():
    """Switch off the split in both modes, so the per-item loop and the
    state machine take everything."""
    def split(self, buf, view, pos, items, due):
        return pos

    with mock.patch.object(protocol._Decoder, "_split", split):
        yield


def _cases(shapes):
    return [
        pytest.param(cls, shape, id=f"{cls.__name__}-{shape}")
        for cls in (RequestDecoder, StreamDecoder)
        for shape in shapes
        # Inline commands are not RESP values.
        if cls is RequestDecoder or not shape.startswith("inline")
    ]


@pytest.mark.parametrize("decoder_cls,shape", _cases(_HOSTILE_SHAPES))
def test_hostile_frame_shapes_decode_in_linear_time(decoder_cls, shape):
    # A split that fails and is retried at every item or command, or a window
    # copied again on every read, shows here: as superlinear growth, or as a
    # cost several times that of the per-item loop and the state machine (the
    # split switched off). The three decodes take turns, so heap growth and
    # drift hit all alike.
    build, n, chunk, values = _HOSTILE_SHAPES[shape]
    small, large = build(n), build(4 * n)
    # Built and dropped: once a block this size is freed, the C allocator
    # keeps freed decode output for reuse rather than unmapping it, so the
    # larger decode does not alone pay fresh page faults on every repeat.
    build(4 * n)
    cases = {
        "small": (small, values(n), contextlib.nullcontext),
        "large": (large, values(4 * n), contextlib.nullcontext),
        "loop only": (small, values(n), _state_machine_only),
    }
    best = dict.fromkeys(cases, float("inf"))
    for _ in range(5):
        for name, (wire, count, tiers) in cases.items():
            with tiers():
                taken = _best_chunked_decode_s(decoder_cls, wire, chunk, count, 1)
            best[name] = min(best[name], taken)
    assert best["large"] / best["small"] < 8, best
    assert best["small"] / best["loop only"] < 2, best


class _CountingView:
    """Stands in for the decoder's memoryview inside ``_split`` and counts
    the bytes its slices copy. Each slice is released at once: one still
    held would make the decoder's ``del buf[:pos]`` raise BufferError."""

    def __init__(self, view: memoryview, counts: dict):
        self._view, self._counts = view, counts

    def __getitem__(self, index):
        with self._view[index] as part:
            data = part.tobytes()
        self._counts["copied"] += len(data)
        return memoryview(data)


# The hostile shapes, and the frame of test_chunked_decoding_scales_linearly.
_COUNTED_SHAPES = {
    **_HOSTILE_SHAPES,
    "many-items-in-1kib-reads": (_many_bulk_frame, 2000, 1 << 10, lambda n: 1),
}


@pytest.mark.parametrize("decoder_cls,shape", _cases(_COUNTED_SHAPES))
def test_frame_shapes_decode_with_linear_work(decoder_cls, shape):
    # The work the timing guards above measure, counted instead, so CPU
    # contention cannot trip it: the bytes the split's windows copy, and the
    # splits that took nothing. A back-off that never grew would copy a
    # window per item or command (7-21 times the input on four shapes) and
    # miss once per item.
    build, n, chunk, values = _COUNTED_SHAPES[shape]
    split = protocol._Decoder._split
    for size in (n, 4 * n):
        wire = build(size)
        counts = {"copied": 0, "empty": 0}

        def spy(self, buf, view, pos, items, due):
            before = len(items)
            after = split(self, buf, _CountingView(view, counts), pos, items, due)
            counts["empty"] += len(items) == before
            return after

        decoder = decoder_cls()
        with mock.patch.object(protocol._Decoder, "_split", spy):
            reads = [wire[i : i + chunk] for i in range(0, len(wire), chunk)]
            decoded = [value for read in reads for value in decoder.feed(read)]
        assert len(decoded) == values(size)
        assert counts["copied"] <= 2 * len(wire), (size, counts, len(wire))
        # At most one miss per value decoded or read taken, plus the doublings
        # of one back-off.
        assert counts["empty"] <= values(size) + len(reads) + 32, (size, counts)


def _reads(wire: bytes, size: int = 1 << 16) -> list[bytes]:
    return [wire[i : i + size] for i in range(0, len(wire), size)]


@pytest.mark.parametrize("cls", [RequestDecoder, StreamDecoder])
def test_split_back_off_does_not_outlive_its_frame(cls):
    # A 10 000-member array in which every other member holds CRLF makes the
    # split stand aside for stretches that double to thousands of items. The
    # frames after it must find the split afresh: it takes at least 90 % of
    # their commands (RequestDecoder) or items (StreamDecoder).
    members = [b"a\r\nb" if i % 2 else b"m%06d" % i for i in range(10_000)]
    hostile = bytes(encode_command([b"SADD", b"s", *members]))
    if cls is RequestDecoder:
        batch = [(b"GET", b"k%02d" % j) for j in range(16)]
        batch += [(b"SET", b"k%02d" % j, b"v" * 16) for j in range(16)]
        feeds = [_pipeline(batch)] * 64
        want = [list(argv) for argv in batch] * 64
        total = len(want)
    else:
        plain = [b"m%06d" % i for i in range(10_000)]
        feeds = _reads(bytes(encode_command(plain)))
        want = [Array(tuple(map(BulkString, plain)))]
        total = len(plain)
    argv = [b"SADD", b"s", *members]
    decoder = cls()
    assert [item for read in _reads(hostile) for item in decoder.feed(read)] == (
        [argv] if cls is RequestDecoder else [Array(tuple(map(BulkString, argv)))]
    )
    taken = 0
    split = protocol._Decoder._split

    def spy(self, buf, view, pos, items, due):
        nonlocal taken
        before = len(items)
        after = split(self, buf, view, pos, items, due)
        if (cls is StreamDecoder) == bool(due):  # items, or commands
            taken += len(items) - before
        return after

    with mock.patch.object(protocol._Decoder, "_split", spy):
        assert [item for feed in feeds for item in decoder.feed(feed)] == want
    assert taken >= 0.9 * total, (taken, total)


def test_decoder_keeps_no_reference_to_an_array_it_returned():
    # The split's back-off ends with its array. A decoder that held on to the
    # array until the next one would keep every item of a large reply alive
    # after the caller dropped it.
    decoder = StreamDecoder()
    [value] = decoder.feed(bytes(encode_command([b"m%04d" % i for i in range(1000)])))
    first = weakref.ref(value.items[0])
    del value
    assert first() is None


# -- inline tokenizer -------------------------------------------------------


@pytest.mark.parametrize(
    "line,tokens",
    [
        (b"PING", [b"PING"]),
        (b"GET ice-cream", [b"GET", b"ice-cream"]),
        (b"  SET   a  b  ", [b"SET", b"a", b"b"]),
        (b'HSET h f "some text"', [b"HSET", b"h", b"f", b"some text"]),
        (b'SET a "tab\\there"', [b"SET", b"a", b"tab\there"]),
        (b'SET a "q\\"uote"', [b"SET", b"a", b'q"uote']),
        (b"SET a 'single quoted'", [b"SET", b"a", b"single quoted"]),
        (b"SET a 'don\\'t'", [b"SET", b"a", b"don't"]),
        (b"", []),
        (b"   ", []),
        (b'""', [b""]),
        (b'SET a "\\x41\\x7a"', [b"SET", b"a", b"Az"]),
        (b'"\\x00\\xFF\\xfe"', [b"\x00\xff\xfe"]),
        (b'"\\x4"', [b"x4"]),
        (b'"\\x4g"', [b"x4g"]),
        (b'"\\x"', [b"x"]),
        (b"'\\x41'", [b"\\x41"]),
        (b"\\x41", [b"\\x41"]),
        (b"'a\\b'", [b"a\\b"]),
        (b'"\\X41"', [b"X41"]),
        (b"\tSET\t \ta\tb \t", [b"SET", b"a", b"b"]),
        (b"'' \"\"\t''", [b"", b"", b""]),
        (b"a\x00b\xff c\xff", [b"a\x00b\xff", b"c\xff"]),
        (b"a\"b c'd\"", [b'a"b', b"c'd\""]),
    ],
)
def test_tokenize_inline(line, tokens):
    assert tokenize_inline(line) == tokens


@pytest.mark.parametrize(
    "line",
    [
        b'GET "unterminated',
        b"GET 'nope",
        b'GET "a"b',
        b'SET "x" "y',
        b"'a\\'",
        b'"a\\"',
        b'"a"b',
        b"'a'b",
        b"'a'\"b\"",
    ],
)
def test_tokenize_inline_rejects_bad_quoting(line):
    with pytest.raises(InlineCommandError):
        tokenize_inline(line)


# Examples of the quoting round trip; a deeper run sets it higher.
_QUOTING_EXAMPLES = int(os.environ.get("MINIREDIS_QUOTING_EXAMPLES", "200"))


@given(tokens=st.lists(st.binary(max_size=16), max_size=6), data=st.data())
@settings(max_examples=_QUOTING_EXAMPLES)
def test_tokens_printed_by_the_cli_read_back_however_they_are_spaced(tokens, data):
    edge, gap = st.text(" \t", max_size=3), st.text(" \t", min_size=1, max_size=3)
    line = data.draw(edge)
    for i, token in enumerate(tokens):
        line += (data.draw(gap) if i else "") + _quote(token)
    line += data.draw(edge)
    assert tokenize_inline(line.encode()) == tokens


# -- properties --------------------------------------------------------


def _line_text():
    return st.text(
        alphabet=st.characters(blacklist_characters="\r\n", blacklist_categories=("Cs",)),
        max_size=24,
    )


def protocol_values():
    scalars = st.one_of(
        st.builds(SimpleString, _line_text()),
        st.builds(Error, _line_text()),
        st.builds(Integer, st.integers(INT64_MIN, INT64_MAX)),
        st.builds(BulkString, st.none() | st.binary(max_size=48)),
    )
    return st.recursive(
        scalars,
        lambda children: st.builds(
            Array, st.none() | st.lists(children, max_size=5).map(tuple)
        ),
        max_leaves=24,
    )


@given(value=protocol_values())
def test_roundtrip_single_feed(value):
    assert StreamDecoder().feed(encode(value)) == [value]


@given(value=protocol_values(), data=st.data())
@settings(max_examples=200)
def test_roundtrip_any_chunking(value, data):
    wire = encode(value)
    cuts = sorted(
        data.draw(st.lists(st.integers(0, len(wire)), max_size=8), label="cuts")
    )
    decoder = StreamDecoder()
    seen = []
    previous = 0
    for cut in cuts + [len(wire)]:
        seen.extend(decoder.feed(wire[previous:cut]))
        previous = cut
    assert seen == [value]
    assert decoder.pending_bytes == 0


@given(values=st.lists(protocol_values(), min_size=1, max_size=5))
def test_concatenated_stream_decodes_in_order(values):
    wire = b"".join(encode(v) for v in values)
    assert StreamDecoder().feed(wire) == values


@given(
    argvs=st.lists(
        st.lists(st.binary(max_size=300), min_size=1, max_size=6), min_size=1, max_size=5
    ),
    data=st.data(),
)
@settings(max_examples=200)
def test_request_roundtrip_any_chunking(argvs, data):
    wire = b"".join(encode(Array(tuple(BulkString(a) for a in argv))) for argv in argvs)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(wire)), max_size=12)))
    decoder = RequestDecoder()
    seen = []
    previous = 0
    for cut in cuts + [len(wire)]:
        seen.extend(decoder.feed(wire[previous:cut]))
        previous = cut
    assert seen == argvs


# -- the bulk-item loop against the state machine ---------------------------

_SMALL_LIMIT_VALUES = {
    "max_bulk_length": [5, 40, DecodeLimits.max_bulk_length],
    "max_array_length": [3, 16, 64],
    "max_depth": [2, 32],
    "max_line_length": [1, 2, 3, 8, 64],
}
_SMALL_LIMITS = st.builds(
    DecodeLimits, **{name: st.sampled_from(values) for name, values in _SMALL_LIMIT_VALUES.items()}
)

# How a bulk header spells its length: plainly, zero-padded (up to past the
# 18 digits the per-item loop takes), or in forms only the state machine
# may judge.
_STYLES = [b"%d", b"0%d", b"%020d", b"00000000000000000%d", b"+%d", b" %d", b"%d_"]
_HEADER_STYLES = st.sampled_from(_STYLES)


def _bulk_frame(members_and_styles) -> bytes:
    """An array of bulk strings, each header spelled in its own style."""
    parts = [b"*%d\r\n" % len(members_and_styles)]
    for member, style in members_and_styles:
        parts.append(b"$" + style % len(member) + b"\r\n" + member + b"\r\n")
    return b"".join(parts)


# Bodies: mostly short binary; one in eight either looks like CRLFs, a
# header or an array start to a splitter, or is 256 bytes or more, so its
# header is not in the split's table.
_ODD_BODIES = st.one_of(
    st.sampled_from([b"\r\n", b"$3\r\nabc", b"*1\r\n"]),
    st.binary(min_size=256, max_size=300),
)
_BODIES = st.integers(0, 7).flatmap(
    lambda k: _ODD_BODIES if k == 0 else st.binary(max_size=12)
)


@st.composite
def _bulk_frames(draw) -> bytes:
    """2 to 40 items, so splits (from 8 items due) start, stop and
    resume: plain headers, with any number of them respelled in the other
    styles (a few, often, so runs of plain headers are common)."""
    size = draw(st.integers(2, 40))
    bodies = draw(st.lists(_BODIES, min_size=size, max_size=size))
    styles = [b"%d"] * len(bodies)
    for at in draw(st.lists(st.integers(0, len(bodies) - 1), max_size=len(bodies))):
        styles[at] = draw(_HEADER_STYLES)
    return _bulk_frame(list(zip(bodies, styles)))


_BULK_FRAMES = _bulk_frames()

_PIECES = [
    b"$", b"*", b"\r", b"\n", b":", b"x", b"9", b" ", b"\r\n", b"$-1\r\n", b"$3x\r\n",
    b"$+3\r\n", b"*-5\r\n", b"$" + b"9" * 19 + b"\r\n", b"$0003\r\n", b"*2\r\n",
    b"PING\r\n", b"\"a b\" c\n", b"'x" + b"\n", b"y" * 70,
]

_MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(["replace", "drop", "insert"]),
        st.integers(0, 1 << 16),
        st.sampled_from(_PIECES),
    ),
    max_size=3,
)


def _mutate(wire: bytes, mutations) -> bytes:
    buf = bytearray(wire)
    for kind, at, piece in mutations:
        i = at % (len(buf) + 1)
        if kind == "drop":
            del buf[i : i + 1]
        elif kind == "replace":
            buf[i : i + 1] = piece[:1]
        else:
            buf[i:i] = piece
    return bytes(buf)


def _as_plain(item):
    if isinstance(item, InlineCommandError):
        return ("inline", str(item))
    return item


def _feed_trace(decoder, wire: bytes, cuts: list[int]):
    """Feed ``wire`` cut at ``cuts``. Return, per feed that returned, its end
    offset, every item so far and ``pending_bytes``; the fatal error as
    (reason, offset, end offset of the feed that surfaced it), or None; and
    every item returned, those of a feed that also returned the error
    included."""
    trace, seen, start = [], [], 0
    for end in cuts + [len(wire)]:
        try:
            got = decoder.feed(wire[start:end])
        except ProtocolError as exc:  # StreamDecoder raises
            return trace, (exc.reason, exc.offset, end), seen
        if got and isinstance(got[-1], ProtocolError):  # RequestDecoder returns it
            exc = got.pop()
            seen += map(_as_plain, got)
            return trace, (exc.reason, exc.offset, end), seen
        seen += map(_as_plain, got)
        trace.append((end, list(seen), getattr(decoder, "pending_bytes", None)))
        start = end
    return trace, None, seen


def _assert_cut_independent(cls, limits, wire, cuts):
    """Whole, byte by byte and at ``cuts``: the same items, pending bytes and
    fatal error, each a function of how many bytes have arrived."""
    ref_trace, ref_error, ref_seen = _feed_trace(cls(limits), wire, list(range(1, len(wire))))
    by_end = {0: ([], 0 if cls is StreamDecoder else None)}
    by_end.update((end, (items, pending)) for end, items, pending in ref_trace)
    for feeding in ([], sorted(cuts)):
        trace, error, seen = _feed_trace(cls(limits), wire, feeding)
        for end, items, pending in trace:
            assert by_end[end] == (items, pending), (end, wire)
        if ref_error is None:
            assert error is None
            assert trace[-1][1:] == ref_trace[-1][1:]
        else:
            reason, offset, surfaced = ref_error
            assert error is not None, wire
            assert error[:2] == (reason, offset), wire
            # Raised by the first feed that brought the byte exposing it.
            assert error[2] == min(e for e in feeding + [len(wire)] if e >= surfaced)
            if cls is RequestDecoder:  # which returns the items before it too
                assert seen == ref_seen, wire


# Examples per cut-independence property; a deeper run sets it higher.
_CUT_EXAMPLES = int(os.environ.get("MINIREDIS_CUT_EXAMPLES", "300"))


@given(
    limits=_SMALL_LIMITS,
    frames=st.lists(
        st.one_of(_BULK_FRAMES, protocol_values().map(encode)), min_size=1, max_size=4
    ),
    mutations=_MUTATIONS,
    cuts=st.lists(st.integers(0, 400), max_size=8),
)
@settings(max_examples=_CUT_EXAMPLES, deadline=None)
def test_stream_decoding_is_cut_independent_on_valid_and_corrupt_streams(
    limits, frames, mutations, cuts
):
    wire = _mutate(b"".join(frames), mutations)
    cuts = [c for c in cuts if c <= len(wire)]
    _assert_cut_independent(StreamDecoder, limits, wire, cuts)


_INLINE = st.lists(
    st.sampled_from([b"PING", b"GET k", b"\"a", b"x" * 40]), max_size=2
).map(lambda lines: b"".join(line + b"\r\n" for line in lines))


@given(
    limits=_SMALL_LIMITS,
    frames=st.lists(_BULK_FRAMES, min_size=1, max_size=4),
    inline=_INLINE,
    mutations=_MUTATIONS,
    cuts=st.lists(st.integers(0, 400), max_size=8),
)
@settings(max_examples=_CUT_EXAMPLES, deadline=None)
def test_request_decoding_is_cut_independent_on_valid_and_corrupt_streams(
    limits, frames, inline, mutations, cuts
):
    wire = _mutate(inline + b"".join(frames), mutations)
    cuts = [c for c in cuts if c <= len(wire)]
    _assert_cut_independent(RequestDecoder, limits, wire, cuts)


@contextlib.contextmanager
def _narrow_windows():
    """Split windows of 24 to 48 bytes, in both modes."""
    with mock.patch.object(protocol, "_RUN_WINDOW", 24), mock.patch.object(
        protocol, "_RUN_WINDOW_MAX", 48
    ):
        yield


@pytest.mark.parametrize("cls", [RequestDecoder, StreamDecoder])
@given(
    limits=_SMALL_LIMITS,
    frames=st.lists(_BULK_FRAMES, min_size=1, max_size=4),
    mutations=_MUTATIONS,
    cuts=st.lists(st.integers(0, 400), max_size=8),
)
@settings(max_examples=_CUT_EXAMPLES // 2, deadline=None)
def test_decoding_is_cut_independent_when_split_runs_cross_window_edges(
    cls, limits, frames, mutations, cuts
):
    # Windows of a few dozen bytes end most splits inside an item.
    wire = _mutate(b"".join(frames), mutations)
    cuts = [c for c in cuts if c <= len(wire)]
    with _narrow_windows():
        _assert_cut_independent(cls, limits, wire, cuts)


# Pipelines of small commands, which the split takes at command starts.
# Arguments are mostly short; one in eight is 250 to 260 bytes (across the
# 256-byte edge of the split's header table) or looks like CRLFs, a header or
# an array start.
_ARGUMENTS = st.integers(0, 7).flatmap(
    lambda k: st.one_of(
        st.binary(min_size=250, max_size=260), st.sampled_from([b"\r\n", b"$3\r\nabc", b"*1\r\n"])
    )
    if k == 0
    else st.binary(max_size=8)
)


@st.composite
def _pipelines(draw) -> bytes:
    """10 to 60 commands of 1 to 4 arguments with plain headers, but for one
    header in sixteen respelled and one command in ten an inline line."""
    parts = []
    for _ in range(draw(st.integers(10, 60))):
        if draw(st.integers(0, 9)) == 0:
            parts.append(draw(st.sampled_from([b"PING", b"GET k", b'"a', b""])) + b"\r\n")
            continue
        argv = draw(st.lists(_ARGUMENTS, min_size=1, max_size=4))
        styles = [draw(_HEADER_STYLES) if draw(st.integers(0, 15)) == 0 else b"%d" for _ in argv]
        parts.append(_bulk_frame(list(zip(argv, styles))))
    return b"".join(parts)


@pytest.mark.parametrize("narrow", [False, True], ids=["default-window", "narrow-window"])
@given(
    limits=_SMALL_LIMITS,
    wire=_pipelines(),
    mutations=_MUTATIONS,
    cuts=st.lists(st.integers(0, 1 << 16), max_size=8),
)
@settings(max_examples=_CUT_EXAMPLES, deadline=None)
def test_pipeline_decoding_is_cut_independent_on_valid_and_corrupt_streams(
    narrow, limits, wire, mutations, cuts
):
    # Narrow windows end most command-mode splits inside a command.
    wire = _mutate(wire, mutations)
    cuts = [c % (len(wire) + 1) for c in cuts]
    with _narrow_windows() if narrow else contextlib.nullcontext():
        _assert_cut_independent(RequestDecoder, limits, wire, cuts)


# Streams long enough for the split's window to reach its 16 KiB cap, which
# the few-KiB inputs of the properties above seldom do.


def _long_stream(rng: random.Random, cls) -> bytes:
    """64 to 256 KiB of arrays of 1 to 300 bulk items, most of them short
    commands, then up to three mutations. Bodies are short, 240 to 600 bytes
    or hold CRLF, in shares drawn per stream, and one header in 32 is zero
    padded. Inline lines (requests) or other values, also inside arrays
    (replies), come in between."""
    odd, wide = rng.choice([0.001, 0.01, 0.05, 0.2]), rng.choice([0.01, 0.1, 0.3])
    others = [b":7\r\n", b"+OK\r\n", b"$2\r\nhi\r\n", b"$-1\r\n", b"*-1\r\n", b"*1\r\n$1\r\nx\r\n"]
    between = [b"PING\r\n", b"GET k\n", b'"a\r\n'] if cls is RequestDecoder else others
    parts, size = [], rng.randint(64 << 10, 256 << 10)
    while size > 0:
        if rng.random() < 0.1:
            parts.append(rng.choice(between))
            size -= len(parts[-1])
            continue
        count = rng.randint(9, 300) if rng.random() < wide else rng.randint(1, 8)
        parts.append(b"*%d\r\n" % count)
        for _ in range(count):
            kind = rng.random() / odd
            if cls is StreamDecoder and kind < 0.1:
                parts.append(rng.choice(others))
                continue
            if kind < 0.6:
                body = rng.randbytes(rng.randint(240, 600))
            elif kind < 1:
                body = rng.choice([b"\r\n", b"a\r\nb", b"$3\r\nabc", b"*1\r\n"])
            else:
                body = rng.randbytes(rng.randint(0, 16))
            # Zero-padded: valid, but not a header the split takes.
            style = rng.choice(_STYLES[1:4]) if rng.random() < 1 / 32 else b"%d"
            parts.append(b"$" + style % len(body) + b"\r\n" + body + b"\r\n")
            size -= len(body) + 8
    wire = b"".join(parts)
    kinds = ["replace", "drop", "insert"]
    mutations = [
        (rng.choice(kinds), rng.randrange(len(wire) + 1), rng.choice(_PIECES))
        for _ in range(rng.randint(0, 3))
    ]
    return _mutate(wire, mutations)


@pytest.mark.parametrize("seed", range(_CUT_EXAMPLES // 30))
@pytest.mark.parametrize("cls", [RequestDecoder, StreamDecoder])
def test_long_streams_decode_alike_with_the_split_on_and_off(cls, seed):
    # The split takes only what the per-item loop and the state machine
    # would take anyway: at the same cuts, the same items, pending bytes,
    # fatal error and offset, whether the split runs or not.
    rng = random.Random(seed)
    wire = _long_stream(rng, cls)
    cuts = sorted(rng.sample(range(1, len(wire)), rng.randint(16, 256)))
    small = DecodeLimits(**{name: rng.choice(v) for name, v in _SMALL_LIMIT_VALUES.items()})
    for limits in (DecodeLimits(), small):
        split_on = _feed_trace(cls(limits), wire, cuts)
        with _state_machine_only():
            assert _feed_trace(cls(limits), wire, cuts) == split_on


def _whole_feed(cls, limits, wire):
    """Items and fatal error of one whole feed, checked against byte by byte."""
    _assert_cut_independent(cls, limits, wire, [])
    _, error, seen = _feed_trace(cls(limits), wire, [])
    return seen, error


# Each frame below reaches a split with a pair it must leave to the state
# machine; the split keeps every limit and framing check it relies on.


@pytest.mark.parametrize("cls", [RequestDecoder, StreamDecoder])
def test_split_run_leaves_headers_over_max_line_length(cls):
    # Four one-byte items first: the state machine and the per-item loop
    # take at most two, and a run that pays over the next two widens the
    # window to hold a whole 1 000-byte item, whose 4-digit header is over
    # the limit of 3.
    items = [b"a", b"b", b"c", b"d"] + [b"x" * 1000] * 8
    wire = _bulk_frame([(item, b"%d") for item in items])
    _, error = _whole_feed(cls, DecodeLimits(max_line_length=3), wire)
    assert error == ("line exceeds maximum length", wire.index(b"$1000") + 1, len(wire))


@pytest.mark.parametrize(
    "cls,reason",
    [
        (RequestDecoder, "invalid bulk length"),
        (StreamDecoder, "bulk length exceeds limit"),
    ],
)
def test_split_run_leaves_bodies_over_max_bulk_length(cls, reason):
    items = [b"m%d" % i for i in range(12)]
    items[8] = b"y" * 41
    wire = _bulk_frame([(item, b"%d") for item in items])
    _, error = _whole_feed(cls, DecodeLimits(max_bulk_length=40), wire)
    assert error == (reason, wire.index(b"$41\r\n"), len(wire))


# In the two frames below the 10th item's header line is followed by a
# one-byte line, so a run that judged headers by their digits alone would
# take the pair for a one-byte bulk string.


def test_split_run_leaves_an_integer_item_to_the_state_machine():
    members = [BulkString(b"m%d" % i) for i in range(10)]
    bulks = [encode(member) for member in members]
    wire = b"*12\r\n" + b"".join(bulks[:9]) + b":1\r\n+\r\n" + bulks[9]
    values, error = _whole_feed(StreamDecoder, DecodeLimits(), wire)
    assert error is None
    assert values == [Array((*members[:9], Integer(1), SimpleString(""), members[9]))]


def test_split_stops_at_the_end_of_its_array():
    # After the array's last item comes a bulk reply, framed as plainly as
    # an item: the split must not take it into the array.
    items = tuple(BulkString(b"m%d" % i) for i in range(10))
    wire = encode(Array(items)) + encode(BulkString(b"hi"))
    values, error = _whole_feed(StreamDecoder, DecodeLimits(), wire)
    assert (values, error) == ([Array(items), BulkString(b"hi")], None)


def test_split_run_leaves_a_nested_array_to_the_state_machine():
    bulks = [encode(BulkString(b"m%d" % i)) for i in range(11)]
    wire = b"*12\r\n" + b"".join(bulks[:9]) + b"*1\r\nx\r\n" + b"".join(bulks[9:])
    _, error = _whole_feed(RequestDecoder, DecodeLimits(), wire)
    assert error == ("expected '$', got b'*'", wire.index(b"*1\r\n"), len(wire))


# Each pipeline below reaches the split at a command start with a command just
# over a limit after eight plain ones, all inside its first window: the split
# must take those eight, stop at that command's first byte, and leave the
# refusal to the state machine.


def _eight_then(limits: DecodeLimits, bad_argv: list[bytes], marker: bytes):
    good = [(b"GET", b"k%02d" % i) for i in range(8)]
    wire = _pipeline(good + [bad_argv] + good)
    return limits, wire, [list(argv) for argv in good], len(_pipeline(good)), marker


_OVER_LIMITS = {
    "tag-over-max-array-length": (
        _eight_then(DecodeLimits(max_array_length=3), [b"DEL", b"a", b"b", b"c"], b"*4"),
        "invalid multibulk length",
        0,
    ),
    "body-over-max-bulk-length": (
        _eight_then(DecodeLimits(max_bulk_length=40), [b"SET", b"k", b"v" * 41], b"$41"),
        "invalid bulk length",
        0,
    ),
    "header-over-max-line-length": (
        _eight_then(DecodeLimits(max_line_length=2), [b"SET", b"k", b"v" * 100], b"$100"),
        "line exceeds maximum length",
        1,
    ),
    "tag-over-max-line-length": (
        _eight_then(DecodeLimits(max_line_length=1), [b"DEL"] + [b"k"] * 9, b"*10"),
        "line exceeds maximum length",
        1,
    ),
}


@pytest.mark.parametrize("case", list(_OVER_LIMITS))
def test_command_tier_leaves_commands_over_limits_to_the_state_machine(case):
    (limits, wire, taken, bad, marker), reason, skip = _OVER_LIMITS[case]
    stops = []
    split = protocol._Decoder._split

    def spy(self, buf, view, pos, items, due):
        after = split(self, buf, view, pos, items, due)
        if not due:  # a command start
            stops.append(self._base + after)
        return after

    with mock.patch.object(protocol._Decoder, "_split", spy):
        items, error = _whole_feed(RequestDecoder, limits, wire)
    assert items == taken
    assert bad in stops  # the split stopped right at the command over the limit
    assert error == (reason, wire.index(marker, bad) + skip, len(wire))
    with _state_machine_only():
        assert _whole_feed(RequestDecoder, limits, wire) == (items, error)


# -- member-array replies ---------------------------------------------------

_MEMBER_LISTS = [
    pytest.param((), id="empty"),
    pytest.param((b"one",), id="single"),
    pytest.param(tuple(b"m%05d" % i for i in range(10_000)), id="10000"),
    pytest.param((b"a\r\nb", b"$3\r\nxyz", b"", b"\x00\xff*1\r\n"), id="binary"),
    # encode_command joins more than 8 members of one size with one header.
    pytest.param((b"",) * 9, id="equal-empty"),
    pytest.param(tuple(b"%016x" % i for i in range(9)), id="equal-9"),
    pytest.param(tuple(b"%03d" % i for i in range(256)), id="equal-256"),
    pytest.param(tuple(b"%03d" % i for i in range(257)), id="equal-257"),
    pytest.param(tuple(b"%03d" % i for i in range(513)), id="equal-513"),
    pytest.param(tuple(bytes([i]) * 300 for i in range(9)), id="equal-long"),
    pytest.param((b"ab",) + tuple(b"%03d" % i for i in range(8)) + (b"cd",), id="equal-ends-only"),
    pytest.param((b"ab",) * 300 + (b"a",) + (b"cd",) * 300, id="one-short-in-the-middle"),
]


@pytest.mark.parametrize("members", _MEMBER_LISTS)
def test_member_array_encodes_like_the_wrapped_array(members):
    wrapped = Array(tuple(BulkString(m) for m in members))
    assert encode_command(members) == encode(wrapped)
    assert StreamDecoder().feed(encode_command(members)) == [wrapped]


@pytest.mark.parametrize("members", _MEMBER_LISTS)
def test_member_array_equals_the_wrapped_array_both_ways(members):
    # A member reply as the router frames it (LRANGE), in bytes and as the
    # value those bytes decode to.
    router, session = Router(), LocalSession()
    if members:
        router.dispatch(session, [b"LPUSH", b"l", *reversed(members)])
    argv = [b"LRANGE", b"l", b"0", b"-1"]
    wrapped = Array(tuple(BulkString(m) for m in members))
    assert router.dispatch(session, argv) == encode(wrapped)
    (value,) = router.replies(session, argv)
    assert value == wrapped and wrapped == value
    assert not (value != wrapped or wrapped != value)
    assert hash(value) == hash(wrapped)
    assert value.items == wrapped.items and isinstance(value, Array)
    if len(set(members)) > 1:
        reordered = Array(tuple(BulkString(m) for m in reversed(members)))
        assert value != reordered and reordered != value
    assert value != Array(None) and Array(None) != value
    assert value != BulkString(None)


def test_framing_equal_size_members_allocates_about_one_frame():
    # One join of all the members would borrow an 80-byte buffer record per
    # member, 3.5 times this frame; joined in runs, the peak stays near the
    # frame, as it did when the frame grew member by member.
    members = [b"%016x" % i for i in range(10_000)]
    frame_size = len(encode(Array(tuple(map(BulkString, members)))))
    tracemalloc.start()
    try:
        frame = encode_command(members)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(frame) == frame_size
    assert peak <= 1.25 * frame_size, (peak, frame_size)


# -- the value types ----------------------------------------------------------

_VALUES = [
    pytest.param(SimpleString, "OK", id="SimpleString"),
    pytest.param(Error, "ERR bad", id="Error"),
    pytest.param(Integer, 42, id="Integer"),
    pytest.param(BulkString, b"payload", id="BulkString"),
    pytest.param(Array, (BulkString(b"a"), Integer(1), Array(None)), id="Array"),
]


@pytest.mark.parametrize("cls,field", _VALUES)
def test_value_types_compare_within_their_type(cls, field):
    value = cls(field)
    assert value == cls(field) and not value != cls(field)
    assert hash(value) == hash(cls(field)) == hash((field,))
    for other in {SimpleString, Error, Integer, BulkString, Array} - {cls}:
        twin = object.__new__(other)  # the same field value in another type
        object.__setattr__(twin, dataclasses.fields(other)[0].name, field)
        assert value != twin and twin != value
    name = dataclasses.fields(cls)[0].name
    assert repr(value) == f"{cls.__name__}({name}={field!r})"


@pytest.mark.parametrize("cls,field", _VALUES)
def test_value_types_are_frozen_and_weakly_referable(cls, field):
    value = cls(field)
    name = dataclasses.fields(cls)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, name, field)
    with pytest.raises((dataclasses.FrozenInstanceError, AttributeError)):
        value.other = field
    ref = weakref.ref(value)
    assert ref() is value
    del value
    assert ref() is None


@pytest.mark.parametrize("cls,field", _VALUES)
def test_value_types_survive_pickle_and_copy(cls, field):
    value = cls(field)
    for protocol_version in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(value, protocol_version))
        assert again == value and type(again) is cls
    assert copy.copy(value) == value and copy.deepcopy(value) == value
    assert type(copy.deepcopy(value)) is cls


def test_decoded_bulk_items_equal_constructed_ones():
    # The decoder builds array items without __init__; they must be the same
    # values as constructed ones in every respect a caller can see.
    members = [b"%016x" % i for i in range(1000)] + [b"", b"x" * 300]
    [value] = StreamDecoder().feed(bytes(encode_command(members)))
    assert value == Array(tuple(BulkString(m) for m in members))
    for item, member in zip(value.items, members):
        assert type(item) is BulkString and item == BulkString(member)
        assert hash(item) == hash(BulkString(member)) and repr(item) == repr(BulkString(member))
        with pytest.raises(dataclasses.FrozenInstanceError):
            item.payload = b"changed"
    assert pickle.loads(pickle.dumps(value)) == value
