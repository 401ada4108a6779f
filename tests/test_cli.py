"""Command-line client: rendering, one-shot runs, helpers, the REPL."""

from __future__ import annotations

import io
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from miniredis import cli
from miniredis.cli import (
    build_parser,
    main,
    parse_target,
    pump_subscription,
    render,
    repl,
    run_once,
)
from miniredis.client import Connection
from miniredis.protocol import (
    Array,
    BulkString,
    Error,
    Integer,
    SimpleString,
    tokenize_inline,
)


def run(conn, *tokens, raw=True):
    out = io.BytesIO()
    err = io.StringIO()
    code = run_once(conn, [t if isinstance(t, bytes) else t.encode() for t in tokens], out, err, raw=raw)
    return code, out.getvalue(), err.getvalue()


# -- rendering ---------------------------------------------------------------


@pytest.mark.parametrize(
    "value,expected",
    [
        (SimpleString("OK"), b"OK\n"),
        (Integer(3), b"3\n"),
        (BulkString(b"chocolate"), b"chocolate\n"),
        (BulkString(b""), b"\n"),
        (BulkString(None), b"\n"),
        (Error("ERR boom"), b"(error) ERR boom\n"),
        (Array(None), b"\n"),
        (Array(()), b""),
        (
            Array((BulkString(b"vanilla"), BulkString(b"strawberry"))),
            b"vanilla\nstrawberry\n",
        ),
        (BulkString(b"bin\x00\xff"), b"bin\x00\xff\n"),
    ],
)
def test_render_raw(value, expected):
    assert render(value, raw=True) == expected


@pytest.mark.parametrize(
    "value,expected",
    [
        (SimpleString("OK"), b"OK\n"),
        (Integer(3), b"(integer) 3\n"),
        (BulkString(b"chocolate"), b'"chocolate"\n'),
        (BulkString(None), b"(nil)\n"),
        (Error("ERR boom"), b"(error) ERR boom\n"),
        (Array(()), b"(empty array)\n"),
        (
            Array((BulkString(b"a"), Integer(2))),
            b'1) "a"\n2) (integer) 2\n',
        ),
        (BulkString(b'say "hi"\n'), b'"say \\"hi\\"\\n"\n'),
        (BulkString(b"\x00\xff"), b'"\\x00\\xff"\n'),
        (
            Array((BulkString(b"x"), Array((Integer(1), Integer(2))))),
            b'1) "x"\n2) 1) (integer) 1\n   2) (integer) 2\n',
        ),
    ],
)
def test_render_human(value, expected):
    assert render(value, raw=False) == expected


def test_human_bulk_strings_read_back_at_the_prompt():
    # The prompt's tokenizer reads every quoted form the renderer prints.
    for payload in [bytes([b]) for b in range(256)] + [bytes(range(256))]:
        printed = render(BulkString(payload), raw=False)
        assert tokenize_inline(printed.rstrip(b"\n")) == [payload], printed


# -- argument handling ---------------------------------------------------------


def test_parser_uses_dash_h_for_host():
    args = build_parser().parse_args(["-h", "example.org", "-p", "7000", "GET", "k"])
    assert args.host == "example.org"
    assert args.port == 7000
    assert args.tokens == ["GET", "k"]


def test_parse_target_forms():
    assert parse_target("example.org:7000", 6379) == ("example.org", 7000)
    assert parse_target("example.org", 6379) == ("example.org", 6379)
    assert parse_target("::1", 6379) == ("::1", 6379)
    assert parse_target("fe80::1:2", 6379) == ("fe80::1:2", 6379)
    assert parse_target("[::1]:7000", 6379) == ("::1", 7000)
    assert parse_target("[::1]", 6379) == ("::1", 6379)
    assert parse_target("[localhost]:7000", 6379) == ("localhost", 7000)
    for bad in ("example.org:abc", "[::1]:abc", "[::1]:", "[::1", "[::1]7000"):
        with pytest.raises(ValueError):
            parse_target(bad, 6379)


def test_main_reports_connection_failure(capsys):
    assert main(["-p", "1", "PING"]) == 1
    assert "Could not connect" in capsys.readouterr().err


# -- one-shot ------------------------------------------------------------------


def test_one_shot_transcript_bytes(conn):
    assert run(conn, "SET", "ice-cream", "chocolate") == (0, b"OK\n", "")
    assert run(conn, "GET", "ice-cream") == (0, b"chocolate\n", "")
    assert run(conn, "LPUSH", "mylist", "chocolate") == (0, b"1\n", "")
    assert run(conn, "LPUSH", "mylist", "strawberry", "vanilla") == (0, b"3\n", "")
    assert run(conn, "LRANGE", "mylist", "0", "1") == (
        0,
        b"vanilla\nstrawberry\n",
        "",
    )


def test_one_shot_error_reply_is_exit_zero(conn):
    code, out, err = run(conn, "GET")
    assert code == 0
    assert out.startswith(b"(error) ERR wrong number of arguments")


def test_one_shot_human_mode(conn):
    conn.execute("SET", "k", "v")
    code, out, _ = run(conn, "GET", "k", raw=False)
    assert (code, out) == (0, b'"v"\n')


def test_one_shot_nil_raw_is_blank_line(conn):
    assert run(conn, "GET", "missing") == (0, b"\n", "")


# -- matrix and blob helpers -----------------------------------------------


def test_zadd_and_zrange_matrix_helpers(conn):
    code, out, _ = run(conn, "zadd-matrix", "myz", "100 1 2 3")
    assert (code, out) == (0, b"1\n")
    code, out, _ = run(conn, "zadd-matrix", "myz", "105,2,2,4")
    assert (code, out) == (0, b"1\n")
    code, out, _ = run(conn, "zrange-matrix", "myz", "90", "120")
    assert (code, out) == (0, b"100 1 2 3\n105 2 2 4\n")
    code, out, _ = run(conn, "zrange-matrix", "myz", "101", "104")
    assert (code, out) == (0, b"")


def test_zadd_matrix_usage_errors(conn):
    code, _, err = run(conn, "zadd-matrix", "myz")
    assert code == 1 and "usage" in err
    code, _, err = run(conn, "zadd-matrix", "myz", "1 2", "3")
    assert code == 1 and "ragged" in err
    code, _, err = run(conn, "zadd-matrix", "myz", "not numbers")
    assert code == 1


def test_zrange_matrix_rejects_foreign_members(conn):
    conn.execute("ZADD", "alien", "1", "not-a-packed-row")
    code, _, err = run(conn, "zrange-matrix", "alien", "-inf", "+inf")
    assert code == 1
    assert "member" in err


def test_blob_helpers_via_files(conn, tmp_path):
    payload = bytes(range(256)) + b"\r\n$5\r\n"
    source = tmp_path / "in.bin"
    source.write_bytes(payload)
    code, out, _ = run(conn, "hset-blob", "npt", "object", str(source))
    assert (code, out) == (0, b"1\n")

    code, out, _ = run(conn, "hget-blob", "npt", "object")
    assert (code, out) == (0, payload)

    sink = tmp_path / "out.bin"
    code, out, _ = run(conn, "hget-blob", "npt", "object", str(sink))
    assert code == 0 and out == b""
    assert sink.read_bytes() == payload


def test_hget_blob_missing_field(conn):
    code, out, err = run(conn, "hget-blob", "nope", "nothing")
    assert code == 1
    assert out == b""
    assert "(nil)" in err


def test_helper_wrongtype_is_reported(conn):
    conn.execute("SET", "s", "x")
    code, _, err = run(conn, "zadd-matrix", "s", "1 2")
    assert code == 1
    assert "WRONGTYPE" in err


# -- subscriptions -------------------------------------------------------------


def test_pump_subscription_streams_frames(server, conn):
    out = io.BytesIO()
    conn.send_command("SUBSCRIBE", "ch1")

    def publish_soon():
        with Connection(server.host, server.port) as pub:
            pub.execute("PUBLISH", "ch1", "x")
            pub.execute("PUBLISH", "ch1", "y")

    publisher = threading.Thread(target=publish_soon)
    publisher.start()
    frames = pump_subscription(conn, out, raw=True, max_frames=3)
    publisher.join()
    assert frames == 3
    lines = out.getvalue().splitlines()
    # ack, then both messages in order
    assert lines[0:3] == [b"subscribe", b"ch1", b"1"]
    assert lines[3:6] == [b"message", b"ch1", b"x"]
    assert lines[6:9] == [b"message", b"ch1", b"y"]


def test_one_shot_subscribe_leaves_channels_after_ctrl_c(server, conn, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "pump_subscription", interrupted)
    assert run(conn, "SUBSCRIBE", "ch")[0] == 0
    # conn is still open, but no longer subscribed to anything.
    with Connection(server.host, server.port) as publisher:
        assert publisher.execute("PUBLISH", "ch", "x") == Integer(0)


# -- REPL ------------------------------------------------------------------


def repl_session(conn, script: str) -> bytes:
    out = io.BytesIO()
    code = repl(conn, io.StringIO(script), out)
    assert code == 0
    return out.getvalue()


def test_repl_roundtrip(conn):
    out = repl_session(conn, "SET k v\nGET k\nexit\n")
    prompt = f"{conn.host}:{conn.port}> ".encode()
    assert out.count(prompt) == 3
    assert b"OK\n" in out
    assert b'"v"\n' in out


def test_repl_quoted_arguments(conn):
    out = repl_session(conn, 'HSET myhash def "some text"\nHGET myhash def\nexit\n')
    assert b"(integer) 1\n" in out
    assert b'"some text"\n' in out


def test_repl_handles_unknown_and_empty_lines(conn):
    out = repl_session(conn, "\n   \nBOGUS\nexit\n")
    assert b"(error) ERR unknown command 'BOGUS'\n" in out


def test_repl_bad_quoting_stays_alive(conn):
    out = repl_session(conn, 'GET "oops\nPING\nexit\n')
    assert b"Invalid argument(s)\n" in out
    assert b"PONG\n" in out


def test_repl_eof_exits_cleanly(conn):
    out = repl_session(conn, "PING\n")
    assert b"PONG\n" in out


def test_repl_matrix_helpers(conn):
    out = repl_session(conn, "zadd-matrix z 1,2\nzrange-matrix z 0 5\nexit\n")
    assert b"(integer) 1\n" in out
    assert b"1 2\n" in out


def test_repl_reports_lost_connection(conn):
    conn.close()
    out = io.BytesIO()
    assert repl(conn, io.StringIO("PING\n"), out) == 1
    assert b"Connection lost: " in out.getvalue()


def test_repl_ends_when_a_helper_finds_the_connection_lost(server, conn):
    # A helper on a dead connection ends the prompt like any command does,
    # rather than printing an error and prompting again.
    server.stop()
    out = io.BytesIO()
    script = "zadd-matrix z 1,2\nhget-blob k f\nPING\n"
    assert repl(conn, io.StringIO(script), out) == 1
    prompt = f"{conn.host}:{conn.port}> ".encode()
    assert out.getvalue().count(prompt) == 1
    assert b"Connection lost: " in out.getvalue()


def test_helper_file_errors_are_not_a_lost_connection(conn, tmp_path, capsys):
    missing = tmp_path / "missing.bin"
    code, out, err = run(conn, "hset-blob", "k", "f", str(missing))
    assert (code, out) == (1, b"")
    assert err.startswith("miniredis-cli: [Errno 2] No such file or directory")
    out = repl_session(conn, f"hset-blob k f {missing}\nPING\nexit\n")
    assert b"Connection lost" not in out
    assert b"PONG\n" in out
    assert "No such file or directory" in capsys.readouterr().err


def run_cli(server, *args: str, stdin: bytes) -> subprocess.CompletedProcess:
    """``python -m miniredis.cli`` against ``server``, fed ``stdin`` through a pipe."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    command = [sys.executable, "-m", "miniredis.cli", "-h", server.host, "-p", str(server.port)]
    command += args
    return subprocess.run(command, input=stdin, capture_output=True, env=env, timeout=30)


def test_prompt_refuses_hset_blob_without_a_file(server, conn):
    # Piped into the prompt, stdin holds the commands that follow hset-blob,
    # already buffered by the prompt's reader: there is no payload to read,
    # so nothing may be stored, and the prompt carries on.
    done = run_cli(server, stdin=b"hset-blob k f\nPING\nHGET k f\nexit\n")
    assert done.returncode == 0
    assert b"(integer)" not in done.stdout
    assert b"PONG\n(nil)\n" in done.stdout.replace(f"{server.host}:{server.port}> ".encode(), b"")
    assert b"miniredis-cli: usage at the prompt: hset-blob KEY FIELD FILE" in done.stderr
    assert conn.execute("EXISTS", "k") == Integer(0)


def test_one_shot_hset_blob_reads_its_payload_from_stdin(server, conn):
    payload = bytes(range(256)) + b"\r\nPING\r\n"
    done = run_cli(server, "hset-blob", "k", "f", stdin=payload)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"1\n", b"")
    assert conn.execute("HGET", "k", "f") == BulkString(payload)


def test_repl_reports_a_wrong_shaped_helper_reply_and_carries_on(capsys):
    class WrongShapes:
        host, port = "stub", 0

        def call(self, *args):
            return SimpleString("OK")

        def execute(self, *args):
            return SimpleString("PONG")

    out = io.BytesIO()
    assert repl(WrongShapes(), io.StringIO("hget-blob k f\nPING\nexit\n"), out) == 0
    assert b"PONG\n" in out.getvalue()
    err = capsys.readouterr().err
    assert "miniredis-cli: unexpected reply to HGET: SimpleString(text='OK') is not a BulkString" in err
