"""TCP behavior: framing on real sockets, session lifecycle, limits, config."""

from __future__ import annotations

import asyncio
import gc
import os
import queue
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

import miniredis
from miniredis.client import Connection
from miniredis.protocol import Integer
from miniredis.server import (
    Server,
    ServerConfig,
    ServerThread,
    build_config,
    config_from_argv,
    load_config_file,
    main,
)


def connect_raw(server, timeout: float = 5.0) -> socket.socket:
    sock = socket.create_connection((server.host, server.port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def recv_exactly(sock: socket.socket, n: int) -> bytes:
    chunks = b""
    while len(chunks) < n:
        data = sock.recv(n - len(chunks))
        if not data:
            break
        chunks += data
    return chunks


def recv_until_closed(sock: socket.socket) -> bytes:
    data = b""
    while True:
        try:
            chunk = sock.recv(65536)
        except socket.timeout:
            break
        if not chunk:
            break
        data += chunk
    return data


def test_ping_pong_over_tcp(server):
    with connect_raw(server) as sock:
        sock.sendall(b"*1\r\n$4\r\nPING\r\n")
        assert recv_exactly(sock, 7) == b"+PONG\r\n"


def test_pipelined_commands_reply_in_order_exact_bytes(server):
    with connect_raw(server) as sock:
        sock.sendall(
            b"*3\r\n$3\r\nSET\r\n$1\r\na\r\n$1\r\n1\r\n" b"*2\r\n$3\r\nGET\r\n$1\r\na\r\n"
        )
        expected = b"+OK\r\n$1\r\n1\r\n"
        assert recv_exactly(sock, len(expected)) == expected


def test_large_pipeline_one_in_one_out(server):
    count = 500
    burst = b"".join(
        b"*3\r\n$5\r\nLPUSH\r\n$1\r\nl\r\n$%d\r\n%d\r\n" % (len(b"%d" % i), i)
        for i in range(count)
    )
    with connect_raw(server) as sock:
        sock.sendall(burst)
        expected = b"".join(b":%d\r\n" % (i + 1) for i in range(count))
        assert recv_exactly(sock, len(expected)) == expected


def resp_command(*args: bytes) -> bytes:
    return b"*%d\r\n" % len(args) + b"".join(b"$%d\r\n%s\r\n" % (len(a), a) for a in args)


def test_pipelined_replies_are_coalesced_into_few_writes(monkeypatch):
    writes = []
    original = asyncio.StreamWriter.write

    def counting_write(writer, data):
        writes.append(len(data))
        return original(writer, data)

    monkeypatch.setattr(asyncio.StreamWriter, "write", counting_write)
    with ServerThread(ServerConfig(port=0)) as srv, connect_raw(srv) as sock:
        sock.sendall(b"*1\r\n$4\r\nPING\r\n" * 200)
        assert recv_exactly(sock, 7 * 200) == b"+PONG\r\n" * 200
        assert sum(writes) == 7 * 200
        assert len(writes) < 20


def test_pipeline_ending_in_quit_flushes_earlier_replies_and_skips_the_rest(server):
    with connect_raw(server) as sock:
        sock.sendall(
            resp_command(b"SET", b"k", b"v")
            + resp_command(b"GET", b"k")
            + resp_command(b"QUIT")
            + resp_command(b"PING")
        )
        sock.settimeout(5)
        assert recv_until_closed(sock) == b"+OK\r\n$1\r\nv\r\n+OK\r\n"


def test_pipeline_ending_in_malformed_frame_flushes_replies_then_error(server):
    with connect_raw(server) as sock:
        sock.sendall(
            resp_command(b"SET", b"k", b"v") + resp_command(b"GET", b"k") + b"*1\r\n:5\r\n"
        )
        sock.settimeout(5)
        data = recv_until_closed(sock)
        assert data.startswith(b"+OK\r\n$1\r\nv\r\n-ERR Protocol error: expected '$'")
        assert data.endswith(b"\r\n") and data.count(b"\r\n") == 4


def test_pipelined_large_replies_span_several_flushes(server):
    values = [bytes([65 + i]) * (100 * 1024 + i) for i in range(4)]
    with connect_raw(server) as sock:
        sock.sendall(b"".join(resp_command(b"SET", b"k%d" % i, v) for i, v in enumerate(values)))
        assert recv_exactly(sock, 20) == b"+OK\r\n" * 4
        sock.sendall(b"".join(resp_command(b"GET", b"k%d" % i) for i in range(4)) * 2)
        expected = b"".join(b"$%d\r\n%s\r\n" % (len(v), v) for v in values) * 2
        assert recv_exactly(sock, len(expected)) == expected


def test_pipelined_subscribe_and_ping_reply_in_order(server):
    with connect_raw(server) as sock:
        sock.sendall(resp_command(b"SUBSCRIBE", b"a", b"b") + resp_command(b"PING"))
        expected = (
            b"*3\r\n$9\r\nsubscribe\r\n$1\r\na\r\n:1\r\n"
            b"*3\r\n$9\r\nsubscribe\r\n$1\r\nb\r\n:2\r\n"
            b"+PONG\r\n"
        )
        assert recv_exactly(sock, len(expected)) == expected
        with Connection(server.host, server.port) as pub:
            pub.execute("PUBLISH", "b", "hi")
        message = b"*3\r\n$7\r\nmessage\r\n$1\r\nb\r\n$2\r\nhi\r\n"
        assert recv_exactly(sock, len(message)) == message


def test_inline_commands_over_tcp(server):
    with connect_raw(server) as sock:
        sock.sendall(b"PING\r\n")
        assert recv_exactly(sock, 7) == b"+PONG\r\n"
        sock.sendall(b'HSET myhash def "some text"\r\n')
        assert recv_exactly(sock, 4) == b":1\r\n"
        sock.sendall(b"HGET myhash def\r\n")
        assert recv_exactly(sock, 15) == b"$9\r\nsome text\r\n"


def test_unbalanced_quote_replies_error_but_keeps_connection(server):
    with connect_raw(server) as sock:
        sock.sendall(b'GET "oops\r\n')
        reply = recv_exactly(sock, len(b"-ERR Protocol error: unbalanced quotes in request\r\n"))
        assert reply == b"-ERR Protocol error: unbalanced quotes in request\r\n"
        sock.sendall(b"PING\r\n")
        assert recv_exactly(sock, 7) == b"+PONG\r\n"


def test_malformed_frame_replies_error_then_closes(server):
    with connect_raw(server) as sock:
        sock.sendall(b"*1\r\n:5\r\n")
        sock.settimeout(5)
        data = recv_until_closed(sock)
        assert data.startswith(b"-ERR Protocol error: expected '$'")
        assert data.endswith(b"\r\n")
    # the server survives and accepts new sessions
    with connect_raw(server) as sock:
        sock.sendall(b"PING\r\n")
        assert recv_exactly(sock, 7) == b"+PONG\r\n"


def test_partial_frame_then_disconnect_changes_nothing(server):
    with connect_raw(server) as sock:
        sock.sendall(b"*3\r\n$3\r\nSET\r\n$1\r\na\r\n$5\r\nhel")  # torn mid-bulk
    with connect_raw(server) as sock:
        sock.sendall(b"*2\r\n$3\r\nGET\r\n$1\r\na\r\n")
        assert recv_exactly(sock, 5) == b"$-1\r\n"


def test_trickled_large_frame_does_not_stall_other_clients(server):
    # A 100 000-member SADD arriving in small reads must cost the server
    # time linear in its size; re-parsing the partial frame on every read
    # held the event loop for minutes and starved the second connection.
    members = 100_000
    wire = b"".join(
        [b"*%d\r\n$4\r\nSADD\r\n$1\r\ns\r\n" % (members + 2)]
        + [b"$7\r\nm%06d\r\n" % i for i in range(members)]
    )
    deadline = time.monotonic() + 30
    with connect_raw(server) as slow, connect_raw(server) as other:
        for i in range(0, len(wire), 4096):
            slow.sendall(wire[i : i + 4096])
            other.settimeout(max(deadline - time.monotonic(), 0.001))
            other.sendall(b"PING\r\n")
            assert recv_exactly(other, 7) == b"+PONG\r\n"
        slow.settimeout(max(deadline - time.monotonic(), 0.001))
        assert recv_exactly(slow, 9) == b":100000\r\n"


def test_quit_gets_ok_then_close(server):
    with connect_raw(server) as sock:
        sock.sendall(b"*1\r\n$4\r\nQUIT\r\n")
        sock.settimeout(5)
        assert recv_until_closed(sock) == b"+OK\r\n"


def test_maxclients_rejects_with_error(server_factory=None):
    with ServerThread(ServerConfig(port=0, maxclients=1)) as srv:
        first = socket.create_connection((srv.host, srv.port), timeout=5)
        try:
            first.sendall(b"PING\r\n")
            assert recv_exactly(first, 7) == b"+PONG\r\n"
            second = socket.create_connection((srv.host, srv.port), timeout=5)
            second.settimeout(5)
            try:
                data = recv_until_closed(second)
                assert data == b"-ERR max number of clients reached\r\n"
            finally:
                second.close()
            # the first session keeps working
            first.sendall(b"PING\r\n")
            assert recv_exactly(first, 7) == b"+PONG\r\n"
        finally:
            first.close()


def test_disconnect_frees_a_client_slot():
    with ServerThread(ServerConfig(port=0, maxclients=1)) as srv:
        first = socket.create_connection((srv.host, srv.port), timeout=5)
        first.sendall(b"*1\r\n$4\r\nQUIT\r\n")
        first.settimeout(5)
        recv_until_closed(first)
        first.close()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            probe = socket.create_connection((srv.host, srv.port), timeout=5)
            probe.settimeout(2)
            probe.sendall(b"PING\r\n")
            try:
                if recv_exactly(probe, 7) == b"+PONG\r\n":
                    probe.close()
                    return
            finally:
                probe.close()
            time.sleep(0.05)
        pytest.fail("slot was never freed")


def test_bind_failure_raises_and_main_reports(server):
    taken = server.port
    with pytest.raises(OSError):
        ServerThread(ServerConfig(bind=server.host, port=taken)).start()
    assert main(["--bind", server.host, "--port", str(taken)]) == 1


def test_graceful_stop_flushes_pending_replies():
    srv = ServerThread(ServerConfig(port=0))
    srv.start()
    try:
        sock = socket.create_connection((srv.host, srv.port), timeout=5)
        sock.sendall(b"*1\r\n$4\r\nPING\r\n")
        assert recv_exactly(sock, 7) == b"+PONG\r\n"
        sock.sendall(b"*1\r\n$4\r\nPING\r\n")
    finally:
        srv.stop()
    sock.settimeout(5)
    # whatever was queued arrives, then EOF
    rest = recv_until_closed(sock)
    assert rest in (b"", b"+PONG\r\n")
    sock.close()


def test_connection_handler_started_after_stop_began_closes_at_once():
    # A connection accepted just before the listener closed can have its
    # handler start only once stop() is under way; it must not register a
    # session that nothing would close.
    async def scenario():
        server = Server(ServerConfig(port=0))
        await server.start()
        ours, theirs = socket.socketpair()
        stopping = asyncio.create_task(server.stop())
        await asyncio.sleep(0)  # stop() has begun
        reader, writer = await asyncio.open_connection(sock=ours)
        try:
            await asyncio.wait_for(server._on_client(reader, writer), timeout=2)
            assert not server._sessions
            theirs.settimeout(2)
            assert theirs.recv(1) == b""  # closed, not left waiting for a command
        finally:
            writer.close()
            theirs.close()
            await stopping

    asyncio.run(scenario())


def test_stop_leaves_no_accepted_connection_to_the_garbage_collector():
    # A connection accepted in the loop pass where stop() closes the listener
    # used to fail to get a transport and leak its socket (ResourceWarning).
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for _ in range(20):
            with ServerThread(ServerConfig(port=0)) as srv:
                socket.create_connection((srv.host, srv.port), timeout=5).close()
            gc.collect()
    assert not [w.message for w in caught if issubclass(w.category, ResourceWarning)]


def test_subscriber_eof_is_noticed_by_broker(server):
    sub = connect_raw(server)
    sub.sendall(b"*2\r\n$9\r\nSUBSCRIBE\r\n$3\r\nch1\r\n")
    recv_exactly(sub, len(b"*3\r\n$9\r\nsubscribe\r\n$3\r\nch1\r\n:1\r\n"))
    with Connection(server.host, server.port) as pub:
        from miniredis.protocol import Integer

        assert pub.execute("PUBLISH", "ch1", "x") == Integer(1)
        sub.close()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            if pub.execute("PUBLISH", "ch1", "y") == Integer(0):
                return
            time.sleep(0.05)
    pytest.fail("dropped subscriber still counted")


def test_output_queue_overflow_disconnects_slow_subscriber():
    config = ServerConfig(port=0, output_queue_limit=1024)
    with ServerThread(config) as srv:
        sub = socket.create_connection((srv.host, srv.port), timeout=5)
        sub.sendall(b"*2\r\n$9\r\nSUBSCRIBE\r\n$2\r\nch\r\n")
        with Connection(srv.host, srv.port) as pub:
            # a single frame bigger than the whole queue budget
            pub.execute("PUBLISH", "ch", b"x" * 4096)
            sub.settimeout(5)
            data = recv_until_closed(sub)  # server hangs up on the laggard
            assert data == b"" or len(data) < 5000
        sub.close()
        # and the server itself is fine
        with Connection(srv.host, srv.port) as probe:
            from miniredis.protocol import SimpleString

            assert probe.execute("PING") == SimpleString("PONG")


def test_output_queue_overflow_runs_no_further_command():
    # Once a reply overflows the output queue the session is cut, and the
    # commands after it in the same read must not run.
    with ServerThread(ServerConfig(port=0, output_queue_limit=1024)) as srv:
        with Connection(srv.host, srv.port) as conn:
            conn.execute("SET", "big", b"x" * 4096)
        with connect_raw(srv) as sock:
            sock.sendall(resp_command(b"GET", b"big") + resp_command(b"SET", b"flag", b"1"))
            sock.settimeout(5)
            assert recv_until_closed(sock) == b""
        with Connection(srv.host, srv.port) as conn:
            assert conn.execute("EXISTS", "flag") == Integer(0)


def test_binary_values_over_tcp(conn):
    payload = bytes(range(256)) * 4
    from miniredis.protocol import BulkString, SimpleString

    assert conn.execute("SET", b"bin", payload) == SimpleString("OK")
    assert conn.execute("GET", b"bin") == BulkString(payload)


def test_server_address_resolves_ephemeral_port(server):
    assert server.port != 0
    assert server.host == "127.0.0.1"


# -- configuration -----------------------------------------------------------


def test_load_config_file(tmp_path):
    path = tmp_path / "server.conf"
    path.write_text(
        "# comment line\n"
        "\n"
        "bind 0.0.0.0\n"
        "port 7000\n"
        "maxclients 50\n"
        "loglevel debug\n"
    )
    assert load_config_file(str(path)) == {
        "bind": "0.0.0.0",
        "port": "7000",
        "maxclients": "50",
        "loglevel": "debug",
    }


def test_load_config_file_rejects_dangling_key(tmp_path):
    path = tmp_path / "server.conf"
    path.write_text("port\n")
    with pytest.raises(ValueError, match="expected 'key value'"):
        load_config_file(str(path))


@pytest.mark.parametrize(
    "line,pair",
    [
        ("port\t7000", ("port", "7000")),
        ('bind "127.0.0.1"', ("bind", "127.0.0.1")),
        ("\tloglevel \t 'debug' ", ("loglevel", "debug")),
        ('bind "::1"', ("bind", "::1")),
    ],
)
def test_config_lines_split_like_inline_commands(line, pair, tmp_path):
    path = tmp_path / "server.conf"
    path.write_text(line + "\n")
    assert load_config_file(str(path)) == dict([pair])


@pytest.mark.parametrize(
    "line", ["port 7000 7001", 'bind "127.0.0.1', "bind '::1'x", "port 7000 # not a comment"]
)
def test_load_config_file_names_the_file_and_line_it_refuses(line, tmp_path):
    path = tmp_path / "server.conf"
    path.write_text(f"# first\nport 7000\n{line}\n")
    message = f"{path}:3: expected 'key value', got {line!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_config_file(str(path))


def test_empty_bind_is_refused_from_flag_and_file(tmp_path, capsys):
    # asyncio reads an empty host as every interface.
    path = tmp_path / "server.conf"
    path.write_text('bind ""\n')
    for argv in (["--bind", ""], ["--config", str(path)]):
        with pytest.raises(ValueError, match="bind must name an address"):
            config_from_argv(argv)
        assert main(argv) == 1
        assert "bind must name an address" in capsys.readouterr().err


def test_build_config_flags_beat_file(tmp_path):
    path = tmp_path / "server.conf"
    path.write_text("port 7000\nmaxclients 50\nloglevel debug\noutput_queue_limit 2048\n")
    flags = ["--port", "7001", "--loglevel", "warning", "--max-array-length", "9"]
    # A flag wins over the file whether it comes before or after --config.
    for argv in (["--config", str(path), *flags], [*flags, "--config", str(path)]):
        config = config_from_argv(argv)
        assert config.port == 7001
        assert config.maxclients == 50  # file survives
        assert config.output_queue_limit == 2048  # underscore spelling in the file
        assert config.loglevel == "warning"
        assert config.max_array_length == 9
        assert config.bind == "127.0.0.1"  # default
    argv = ["--config", str(path), "--output-queue-limit", "4096"]
    assert config_from_argv(argv).output_queue_limit == 4096


def _config_or_error(make):
    try:
        return make()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("name", [f.name for f in fields(ServerConfig)])
def test_every_config_key_parses_alike_as_flag_and_file_line(name, tmp_path):
    key = name.replace("_", "-")
    path = tmp_path / "server.conf"
    outcomes = set()
    for text in ("7000", "6_379", " 7000", "abc", "-1", "0", "verbose", "chatty", "::1"):
        from_flag = _config_or_error(lambda: config_from_argv(["--" + key, text]))
        assert from_flag == _config_or_error(lambda: build_config({key: text}))
        if text == text.strip():  # a file line's value is stripped
            path.write_text(f"{key} {text}\n")
            assert from_flag == _config_or_error(lambda: config_from_argv(["--config", str(path)]))
        outcomes.add(from_flag if isinstance(from_flag, str) else getattr(from_flag, name))
    if name == "bind":
        assert outcomes >= {"7000", " 7000", "::1"}
    elif name == "loglevel":
        assert "verbose" in outcomes and "unknown loglevel 'chatty'" in str(outcomes)
    else:
        assert 7000 in outcomes
        assert f"configuration key {key} expects an integer, got '6_379'" in outcomes
        assert f"configuration key {key} expects an integer, got ' 7000'" in outcomes


def test_server_help_lists_every_config_key(capsys):
    with pytest.raises(SystemExit) as exit_info:
        config_from_argv(["--help"])
    assert exit_info.value.code == 0
    usage = capsys.readouterr().out
    for field in fields(ServerConfig):
        assert f"--{field.name.replace('_', '-')} VALUE" in usage


def test_build_config_rejects_unknown_key():
    for key in ("bogus", "max-depth", "max-bulk"):
        with pytest.raises(ValueError, match="unknown configuration key"):
            build_config({key: "4"})
        with pytest.raises(SystemExit):  # no flag for it either, not even by prefix
            config_from_argv(["--" + key, "4"])


def test_build_config_rejects_non_integer():
    for text in ("abc", "6_379"):
        with pytest.raises(ValueError, match="expects an integer"):
            build_config({"port": text})


@pytest.mark.parametrize(
    "kwargs",
    [
        {"port": -1},
        {"port": 65536},
        {"maxclients": 0},
        {"loglevel": "chatty"},
        {"bind": ""},
    ],
)
def test_server_config_validation(kwargs):
    with pytest.raises(ValueError):
        ServerConfig(**kwargs)


def test_decode_limits_flow_into_sessions():
    config = ServerConfig(port=0, max_bulk_length=16)
    with ServerThread(config) as srv:
        sock = socket.create_connection((srv.host, srv.port), timeout=5)
        sock.sendall(b"*2\r\n$3\r\nGET\r\n$99\r\n")
        sock.settimeout(5)
        data = recv_until_closed(sock)
        assert data.startswith(b"-ERR Protocol error:")
        sock.close()


def test_main_rejects_bad_config(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("port notanumber\n")
    assert main(["--config", str(path)]) == 1


@pytest.mark.skipif(
    not hasattr(signal, "SIGTERM") or sys.platform == "win32",
    reason="needs SIGTERM and loop.add_signal_handler",
)
def test_server_binary_stops_cleanly_on_sigterm():
    src = str(Path(miniredis.__file__).resolve().parent.parent)
    path = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    # -W: importing the package must not import miniredis.server before runpy
    # executes it as __main__, which warns.
    command = [sys.executable, "-W", "error::RuntimeWarning", "-m", "miniredis.server"]
    command += ["--port", "0", "--loglevel", "verbose"]
    log_lines: queue.Queue[str | None] = queue.Queue()
    seen: list[str] = []
    with subprocess.Popen(
        command, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env, text=True
    ) as proc:

        def pump_log() -> None:
            for line in proc.stderr:
                log_lines.put(line)
            log_lines.put(None)

        pump = threading.Thread(target=pump_log, daemon=True)
        pump.start()

        def next_line() -> str | None:
            line = log_lines.get(timeout=10)
            if line is not None:
                seen.append(line)
            return line

        try:
            address = None
            while address is None:
                line = next_line()
                assert line is not None, "server exited early:\n" + "".join(seen)
                address = re.search(r"listening on (\S+):(\d+)", line)
            host, port = address.group(1), int(address.group(2))
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(b"*1\r\n$4\r\nPING\r\n")
                assert recv_exactly(sock, 7) == b"+PONG\r\n"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0
            while next_line() is not None:
                pass
            assert any("server stopped" in line for line in seen), "".join(seen)
        finally:
            if proc.poll() is None:
                proc.kill()
            pump.join(timeout=10)
