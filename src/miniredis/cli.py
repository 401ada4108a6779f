"""Command-line client: one-shot commands, a small REPL, matrix and blob
helpers.

Output has two shapes. Raw mode prints reply payloads bare, one line per
element, the way transcripts show them. Human mode decorates: integers as
"(integer) N", bulk strings quoted, arrays numbered. One-shot default is
raw when stdout is piped and human on a terminal; --raw and --human force
it either way.
"""

from __future__ import annotations

import argparse
import socket
import sys
from typing import BinaryIO

from .client import (
    Connection,
    decode_row,
    format_float,
    hget_blob,
    hset_blob,
    zadd_matrix,
    zrangebyscore_matrix,
)
from .errors import InlineCommandError, ReplyError, RowDecodeError
from .protocol import (
    Array,
    BulkString,
    Error,
    Integer,
    ProtocolValue,
    SimpleString,
    tokenize_inline,
)

HELPER_NAMES = (b"zadd-matrix", b"zrange-matrix", b"hset-blob", b"hget-blob")


def render(value: ProtocolValue, raw: bool) -> bytes:
    if raw:
        return _render_raw(value)
    return "\n".join(_human_lines(value)).encode("utf-8", "surrogateescape") + b"\n"


def _render_raw(value: ProtocolValue) -> bytes:
    if isinstance(value, SimpleString):
        return value.text.encode("utf-8") + b"\n"
    if isinstance(value, Error):
        return b"(error) " + value.text.encode("utf-8") + b"\n"
    if isinstance(value, Integer):
        return b"%d\n" % value.value
    if isinstance(value, BulkString):
        return b"\n" if value.payload is None else value.payload + b"\n"
    if value.items is None:
        return b"\n"
    return b"".join(_render_raw(item) for item in value.items)


def _human_lines(value: ProtocolValue) -> list[str]:
    if isinstance(value, SimpleString):
        return [value.text]
    if isinstance(value, Error):
        return ["(error) " + value.text]
    if isinstance(value, Integer):
        return [f"(integer) {value.value}"]
    if isinstance(value, BulkString):
        return ["(nil)" if value.payload is None else _quote(value.payload)]
    if value.items is None:
        return ["(nil)"]
    if not value.items:
        return ["(empty array)"]
    lines: list[str] = []
    for i, item in enumerate(value.items, 1):
        head = f"{i}) "
        sub = _human_lines(item)
        lines.append(head + sub[0])
        lines.extend(" " * len(head) + extra for extra in sub[1:])
    return lines


# How each byte prints inside a quoted bulk string.
_QUOTED = {byte: chr(byte) if 0x20 <= byte < 0x7F else f"\\x{byte:02x}" for byte in range(256)} | {
    ord('"'): '\\"', ord("\\"): "\\\\", ord("\n"): "\\n", ord("\r"): "\\r", ord("\t"): "\\t"
}


def _quote(payload: bytes) -> str:
    return '"' + "".join(map(_QUOTED.__getitem__, payload)) + '"'


def build_parser() -> argparse.ArgumentParser:
    # -h is taken by host, as users of this kind of client expect.
    parser = argparse.ArgumentParser(
        prog="miniredis-cli",
        description="Command-line client for the miniredis server.",
        add_help=False,
    )
    parser.add_argument("-h", "--host", default="localhost", metavar="HOST")
    parser.add_argument("-p", "--port", type=int, default=6379, metavar="PORT")
    parser.add_argument(
        "--target",
        metavar="HOST[:PORT]",
        help="connect to HOST[:PORT] or [IPV6-ADDRESS][:PORT]; overrides -h and -p",
    )
    parser.add_argument(
        "--raw", action="store_true", help="bare payloads, one element per line"
    )
    parser.add_argument(
        "--human", action="store_true", help="decorated output even when piped"
    )
    parser.add_argument("--help", action="help", help="show this help and exit")
    parser.add_argument(
        "tokens",
        nargs=argparse.REMAINDER,
        metavar="CMD [ARG ...]",
        help="command to run once; omit for an interactive prompt",
    )
    return parser


def parse_target(target: str, default_port: int) -> tuple[str, int]:
    """``host[:port]`` or ``[host][:port]``; a bare address with colons is a host."""
    if target.startswith("["):
        host, bracket, port_text = target[1:].partition("]")
        if not bracket or port_text[:1] not in ("", ":"):
            raise ValueError(f"bad --target {target!r}: expected [host]:port")
        port_text = port_text[1:] if port_text else None
    elif target.count(":") == 1:
        host, _, port_text = target.partition(":")
    else:
        host, port_text = target, None
    if port_text is None:
        return host, default_port
    try:
        return host, int(port_text)
    except ValueError:
        raise ValueError(f"bad --target {target!r}: port must be an integer") from None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    host, port = args.host, args.port
    if args.target:
        try:
            host, port = parse_target(args.target, port)
        except ValueError as exc:
            print(f"miniredis-cli: {exc}", file=sys.stderr)
            return 1
    if args.raw:
        raw = True
    elif args.human:
        raw = False
    else:
        raw = not sys.stdout.isatty()
    try:
        conn = Connection(host, port)
    except OSError as exc:
        print(f"Could not connect to {host}:{port}: {exc}", file=sys.stderr)
        return 1
    with conn:
        tokens = [t.encode("utf-8", "surrogateescape") for t in args.tokens]
        if not tokens:
            # The prompt defaults to decorated output, like any interactive client.
            return repl(conn, sys.stdin, sys.stdout.buffer, raw=args.raw)
        return run_once(conn, tokens, sys.stdout.buffer, sys.stderr, raw=raw)


def run_once(
    conn: Connection,
    tokens: list[bytes],
    out: BinaryIO,
    err,
    raw: bool,
) -> int:
    """Run one command (or helper) and print its reply. Exit status 0
    covers error replies too; only usage and transport failures are 1."""
    try:
        return _run_command(conn, tokens, out, err, raw, getattr(sys.stdin, "buffer", None))
    except OSError as exc:
        print(f"miniredis-cli: {exc}", file=err)
        return 1


def _run_command(
    conn: Connection, tokens: list[bytes], out: BinaryIO, err, raw: bool, stdin: BinaryIO | None
) -> int:
    """The path both modes share. Transport errors (OSError) propagate."""
    name = tokens[0].lower()
    if name in HELPER_NAMES:
        return _run_helper(conn, name, tokens[1:], out, err, raw, stdin)
    if name == b"subscribe":
        _subscribe(conn, tokens, out, raw)
    else:
        out.write(render(conn.execute(*tokens), raw))
        out.flush()
    return 0


def _subscribe(conn: Connection, tokens: list[bytes], out: BinaryIO, raw: bool) -> None:
    """Stream frames until Ctrl-C, then leave every channel."""
    conn.send_command(*tokens)
    try:
        pump_subscription(conn, out, raw)
    except KeyboardInterrupt:
        out.write(b"\n")
    conn.send_command(b"UNSUBSCRIBE")
    conn.settimeout(2.0)
    try:
        while True:
            frame = conn.read_reply()
            if (
                isinstance(frame, Array)
                and frame.items
                and frame.items[0] == BulkString(b"unsubscribe")
                and isinstance(frame.items[2], Integer)
                and frame.items[2].value == 0
            ):
                break
    except OSError:
        pass
    finally:
        conn.settimeout(None)


def pump_subscription(
    conn: Connection,
    out: BinaryIO,
    raw: bool,
    max_frames: int | None = None,
) -> int:
    """Print subscription frames as they arrive; returns how many."""
    conn.settimeout(0.25)  # so Ctrl-C gets a look-in between frames
    printed = 0
    try:
        while max_frames is None or printed < max_frames:
            try:
                frame = conn.read_reply()
            except socket.timeout:
                continue
            out.write(render(frame, raw))
            out.flush()
            printed += 1
    finally:
        conn.settimeout(None)
    return printed


def _parse_row(token: bytes) -> list[float]:
    cells = token.replace(b",", b" ").split()
    if not cells:
        raise ValueError("empty matrix row")
    return [float(c) for c in cells]


def _run_helper(
    conn: Connection, name: bytes, rest: list[bytes], out: BinaryIO, err, raw: bool,
    stdin: BinaryIO | None,
) -> int:
    try:
        if name == b"zadd-matrix":
            if len(rest) < 2:
                raise ValueError("usage: zadd-matrix KEY ROW [ROW ...]")
            rows = [_parse_row(token) for token in rest[1:]]
            added = zadd_matrix(conn, rest[0], rows)
            out.write(render(Integer(added), raw))
        elif name == b"zrange-matrix":
            if len(rest) != 3:
                raise ValueError("usage: zrange-matrix KEY MIN MAX")
            rows = zrangebyscore_matrix(conn, rest[0], rest[1], rest[2])
            for row in rows:
                line = " ".join(format_float(v) for v in row)
                out.write(line.encode("ascii") + b"\n")
        elif name == b"hset-blob":
            if len(rest) not in (2, 3):
                raise ValueError("usage: hset-blob KEY FIELD [FILE]")
            payload = _read_payload(rest[2] if len(rest) == 3 else b"-", stdin)
            created = hset_blob(conn, rest[0], rest[1], payload)
            out.write(render(Integer(created), raw))
        elif name == b"hget-blob":
            if len(rest) not in (2, 3):
                raise ValueError("usage: hget-blob KEY FIELD [FILE]")
            payload = hget_blob(conn, rest[0], rest[1])
            if payload is None:
                print("(nil)", file=err)
                return 1
            _write_payload(rest[2] if len(rest) == 3 else b"-", payload, out)
    # A FILE argument's faults; any other OSError is the connection's, and ends a REPL.
    except (ValueError, RowDecodeError, ReplyError, FileNotFoundError, IsADirectoryError,
            PermissionError) as exc:
        print(f"miniredis-cli: {exc}", file=err)
        return 1
    out.flush()
    return 0


def _read_payload(source: bytes, stdin: BinaryIO | None) -> bytes:
    if source != b"-":
        with open(source, "rb") as handle:
            return handle.read()
    if stdin is None:  # the prompt's stdin holds the commands that follow
        raise ValueError("usage at the prompt: hset-blob KEY FIELD FILE")
    return stdin.read()


def _write_payload(sink: bytes, payload: bytes, out: BinaryIO) -> None:
    if sink == b"-":
        out.write(payload)
        return
    with open(sink, "wb") as handle:
        handle.write(payload)


def repl(conn: Connection, stdin, out: BinaryIO, raw: bool = False) -> int:
    """Interactive prompt. 'exit' or 'quit' (or EOF) leaves."""
    prompt = f"{conn.host}:{conn.port}> ".encode()
    while True:
        out.write(prompt)
        out.flush()
        line = stdin.readline()
        if not line:
            out.write(b"\n")
            return 0
        try:
            tokens = tokenize_inline(line.strip().encode("utf-8", "surrogateescape"))
        except InlineCommandError:
            out.write(b"Invalid argument(s)\n")
            continue
        if not tokens:
            continue
        word = tokens[0].lower()
        if word in (b"exit", b"quit"):
            return 0
        try:
            _run_command(conn, tokens, out, sys.stderr, raw, None)  # stdin holds the commands
        except OSError as exc:
            out.write(f"Connection lost: {exc}\n".encode())
            return 1


if __name__ == "__main__":
    sys.exit(main())
