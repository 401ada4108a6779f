"""Client connection, the packed-row matrix codec, and the blob helpers."""

from __future__ import annotations

import math
import socket
import struct

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from miniredis import client
from miniredis.client import (
    Connection,
    _encode_arg,
    decode_row,
    encode_row,
    format_float,
    hget_blob,
    hset_blob,
    zadd_matrix,
    zrangebyscore_matrix,
)
from miniredis.errors import ReplyError, RowDecodeError
from miniredis.protocol import Array, BulkString, Error, Integer, SimpleString, encode


# -- wire client -------------------------------------------------------------


def test_execute_roundtrip(conn):
    assert conn.execute("SET", "k", "v") == SimpleString("OK")
    assert conn.execute("GET", "k") == BulkString(b"v")
    assert conn.execute("GET", "missing") == BulkString(None)


def test_argument_coercion(conn):
    assert conn.execute("SET", b"bytes", 42) == SimpleString("OK")
    assert conn.execute("GET", "bytes") == BulkString(b"42")
    conn.execute("ZADD", "z", 1.5, "m")
    reply = conn.execute("ZRANGEBYSCORE", "z", 1.5, 1.5)
    assert reply.items == (BulkString(b"m"),)


def test_bool_arguments_are_refused(conn):
    with pytest.raises(TypeError):
        conn.send_command("SET", "k", True)


def test_execute_returns_error_replies(conn):
    reply = conn.execute("GET")
    assert isinstance(reply, Error)


def test_call_raises_on_error_reply(conn):
    with pytest.raises(ReplyError, match="wrong number of arguments"):
        conn.call("GET")


def test_pipelining_preserves_order(conn):
    for i in range(20):
        conn.send_command("LPUSH", "pipe", str(i))
    replies = [conn.read_reply() for _ in range(20)]
    assert replies == [Integer(i + 1) for i in range(20)]


def _sent(*args) -> tuple[bytes, bytes]:
    """What ``send_command(*args)`` writes to the socket, and the generic
    encoder's frame of the same arguments."""
    expected = encode(Array(tuple(BulkString(_encode_arg(a)) for a in args)))
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(5)
        with Connection("127.0.0.1", listener.getsockname()[1], timeout=5) as conn:
            peer, _ = listener.accept()
            with peer:
                peer.settimeout(5)
                conn.send_command(*args)
                sent = b""
                while len(sent) < len(expected):
                    chunk = peer.recv(65536)
                    if not chunk:
                        break
                    sent += chunk
    return sent, expected


def test_send_command_frames_like_the_generic_encoder():
    sent, expected = _sent(
        "HSET", b"k\x00\r\n", bytearray(b"$3\r\n"), "h\u00e9", 42, -7, 1.5, 1e20, b""
    )
    assert sent == expected


class _Bytes(bytes):
    pass


def test_send_command_sends_a_bytes_argv_as_it_is():
    argv = [b"SADD", b"s"] + [b"%016x" % i for i in range(1000)]
    with mock.patch.object(client, "_encode_arg", wraps=_encode_arg) as spy:
        sent, expected = _sent(*argv)
        assert sent == expected and spy.call_count == 0
        # Anything but exact bytes still goes through _encode_arg.
        sent, expected = _sent(b"SET", _Bytes(b"k"), b"v")
        assert sent == expected and spy.call_count == 3
        with pytest.raises(TypeError):
            _sent(b"SET", b"k", True)


def test_connection_refused_raises_oserror():
    with pytest.raises(OSError):
        Connection("127.0.0.1", 1)  # nothing listens on port 1


# -- float formatting ---------------------------------------------------------


@pytest.mark.parametrize(
    "value,text",
    [
        (100.0, "100"),
        (-3.0, "-3"),
        (0.0, "0"),
        (1.5, "1.5"),
        (0.1, "0.1"),
        (float("inf"), "inf"),
        (float("-inf"), "-inf"),
        (1e100, "1e+100"),
    ],
)
def test_format_float(value, text):
    assert format_float(value) == text


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_format_float_roundtrips_exactly(value):
    assert float(format_float(value)) == value


# -- matrix codec -------------------------------------------------------------


def test_encode_row_golden_bytes():
    # count as big-endian u32, then each column as big-endian float64
    assert encode_row([1.0]) == b"\x00\x00\x00\x01" + struct.pack(">d", 1.0)
    assert encode_row([100.0, 1.0, 2.0, 3.0]) == struct.pack(
        ">Idddd", 4, 100.0, 1.0, 2.0, 3.0
    )


def test_encode_row_is_deterministic():
    assert encode_row([1.5, 2.5]) == encode_row((1.5, 2.5))


def test_decode_row_inverts_encode_row():
    row = [100.0, 1.0, 2.0, 3.0]
    assert list(decode_row(encode_row(row))) == row


@given(
    st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=12)
)
def test_row_roundtrip_is_exact_for_all_floats(row):
    decoded = decode_row(encode_row(row))
    # compare bit patterns: -0.0 and 0.0 must survive as themselves
    assert [struct.pack(">d", v) for v in decoded] == [
        struct.pack(">d", v) for v in row
    ]


@pytest.mark.parametrize(
    "member",
    [b"", b"abc", b"\x00\x00\x00\x02" + b"x" * 8, b"\x00\x00\x00\x01"],
)
def test_decode_row_rejects_garbage_and_names_the_member(member):
    with pytest.raises(RowDecodeError) as excinfo:
        decode_row(member)
    assert member[:4].hex() in str(excinfo.value) or "too short" in str(excinfo.value)


def test_zadd_matrix_and_range_roundtrip(conn):
    assert zadd_matrix(conn, "myz", [[100.0, 1.0, 2.0, 3.0]]) == 1
    assert zadd_matrix(conn, "myz", [[105.0, 2.0, 2.0, 4.0]]) == 1
    rows = zrangebyscore_matrix(conn, "myz", 90, 120)
    assert rows == [[100.0, 1.0, 2.0, 3.0], [105.0, 2.0, 2.0, 4.0]]


def test_zrange_matrix_reply_is_an_array_of_bulk_strings(conn, monkeypatch):
    # The server frames member arrays without wrapping each member; the
    # client must still decode the plain Array-of-BulkString form.
    rows = [[float(i), float(i) * 2] for i in range(300)]
    zadd_matrix(conn, "z", rows)
    replies = []
    call = conn.call

    def recording_call(*args):
        replies.append(call(*args))
        return replies[-1]

    monkeypatch.setattr(conn, "call", recording_call)
    assert zrangebyscore_matrix(conn, "z", "-inf", "+inf") == rows
    (reply,) = replies
    assert type(reply) is Array and len(reply.items) == 300
    assert all(type(item) is BulkString for item in reply.items)


def test_zadd_matrix_readd_counts_zero(conn):
    row = [100.0, 1.0, 2.0, 3.0]
    assert zadd_matrix(conn, "z", [row]) == 1
    assert zadd_matrix(conn, "z", [row]) == 0  # identical row, same member


def test_zrange_matrix_bound_forms(conn):
    zadd_matrix(conn, "z", [[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
    assert zrangebyscore_matrix(conn, "z", "(1", "+inf") == [[2.0, 20.0], [3.0, 30.0]]
    assert zrangebyscore_matrix(conn, "z", "-inf", "inf") == [
        [1.0, 10.0],
        [2.0, 20.0],
        [3.0, 30.0],
    ]
    assert zrangebyscore_matrix(conn, "z", 2, 2) == [[2.0, 20.0]]
    assert zrangebyscore_matrix(conn, "z", 5, 9) == []


def test_ragged_matrix_fails_before_any_send(conn):
    with pytest.raises(ValueError, match="ragged"):
        zadd_matrix(conn, "never", [[1.0, 2.0], [3.0]])
    assert conn.execute("EXISTS", "never") == Integer(0)


def test_matrix_without_columns_fails_before_any_send(conn):
    with pytest.raises(ValueError, match="at least one column"):
        zadd_matrix(conn, "never", [[], []])
    assert conn.execute("EXISTS", "never") == Integer(0)


class _Counted:
    """A cell that counts how often it is converted to float."""

    conversions = 0

    def __init__(self, value: float):
        self.value = value

    def __float__(self) -> float:
        _Counted.conversions += 1
        return self.value


def test_zadd_matrix_converts_each_value_once_and_encodes_each_row_once(conn):
    rows = [[_Counted(float(i)), _Counted(i / 3), "2.5"] for i in range(50)]
    _Counted.conversions = 0
    with mock.patch.object(client, "encode_row", wraps=encode_row) as spy:
        assert zadd_matrix(conn, "z", rows) == 50
    assert _Counted.conversions == 100 and spy.call_count == 50
    assert zrangebyscore_matrix(conn, "z", "-inf", "+inf") == [
        [float(i), i / 3, 2.5] for i in range(50)
    ]


def test_empty_matrix_is_a_quiet_noop(conn):
    assert zadd_matrix(conn, "never", []) == 0
    assert conn.execute("EXISTS", "never") == Integer(0)


# One server for all examples is fine: DEL resets the only key touched.
@settings(max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rows=st.lists(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=3,
            max_size=3,
        ),
        min_size=1,
        max_size=8,
    )
)
def test_matrix_survives_storage_exactly(server, rows):
    with Connection(server.host, server.port) as conn:
        conn.execute("DEL", "m")
        zadd_matrix(conn, "m", rows)
        stored = zrangebyscore_matrix(conn, "m", "-inf", "+inf")
    unique = {encode_row(r): r for r in rows}  # identical rows collapse
    expected = [
        list(decode_row(member))
        for member in sorted(
            unique, key=lambda m: (decode_row(m)[0], m)
        )
    ]
    assert stored == expected


def test_matrix_scores_order_rows(conn):
    zadd_matrix(conn, "z", [[5.0, 1.0], [1.0, 2.0], [3.0, 3.0]])
    rows = zrangebyscore_matrix(conn, "z", "-inf", "+inf")
    assert [r[0] for r in rows] == [1.0, 3.0, 5.0]


def test_matrix_rejects_wrongtype_key(conn):
    conn.execute("SET", "s", "x")
    with pytest.raises(ReplyError, match="WRONGTYPE"):
        zadd_matrix(conn, "s", [[1.0, 2.0]])


# -- blob helpers -------------------------------------------------------------


def test_blob_roundtrip_with_hostile_bytes(conn):
    payload = b"\r\n\x00\xff" + bytes(range(256)) + b"$9\r\ntrap\r\n"
    assert hset_blob(conn, "npt", "object", payload) == 1
    assert hget_blob(conn, "npt", "object") == payload


def test_blob_overwrite_returns_zero(conn):
    assert hset_blob(conn, "h", "f", b"one") == 1
    assert hset_blob(conn, "h", "f", b"two") == 0
    assert hget_blob(conn, "h", "f") == b"two"


def test_blob_missing_field_is_none(conn):
    assert hget_blob(conn, "h", "missing") is None
    assert hget_blob(conn, "missing-key", "f") is None


def test_blob_empty_payload(conn):
    assert hset_blob(conn, "h", "empty", b"") == 1
    assert hget_blob(conn, "h", "empty") == b""


def test_blob_wrongtype_surfaces_as_reply_error(conn):
    conn.execute("LPUSH", "l", "x")
    with pytest.raises(ReplyError, match="WRONGTYPE"):
        hset_blob(conn, "l", "f", b"v")
