"""Command table and dispatch: decoded argv in, reply wire bytes out.

The command table is data: one row per command name holding the fewest
and the most arguments it takes (None means variadic), whether a session
in subscriber mode may send it, and the handler that runs it. Most
handlers only forward the arguments to a KeyStore or Broker method and
frame its result as reply bytes (a bulk string, an integer, +OK or an
array of members), with no reply value built on the way; the Broker frames
its own subscribe and unsubscribe acks. The set algebra (SINTER, SUNION,
SDIFF) replies with its members sorted by bytes, an order the KeyStore
keeps per set, so no reply sorts its members.

Command names are matched case-insensitively; keys, fields, members and
payloads pass through untouched as bytes. Dispatch never raises for a bad
command: every failure becomes an ``encode_error`` reply, and the keyspace
is left exactly as it was. Errors come in a fixed order: unknown command,
wrong arity, subscriber mode, then whatever the handler raises. dispatch()
returns the bytes owed to the calling session (one reply for most
commands, one ack per channel for subscribe and unsubscribe); replies()
decodes them into values for callers that read replies rather than send
them (exec_line, whose inline-error frame is decoded alike, and tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .datastore import KeyStore, RangeBound, parse_int, parse_scores
from .errors import CommandError, InlineCommandError
from .protocol import (
    ProtocolValue,
    StreamDecoder,
    encode_bulk,
    encode_command,
    encode_error,
    encode_int,
    tokenize_inline,
)
from .pubsub import Broker

SUBSCRIBER_MODE_ERROR = (
    "ERR only SUBSCRIBE / UNSUBSCRIBE / PING / QUIT allowed in this context"
)

_OK = b"+OK\r\n"
_PONG = b"+PONG\r\n"


@dataclass(eq=False)  # sessions are identities, keep object hashing
class LocalSession:
    """In-process stand-in for a connection (embedding, tests).

    Pushed frames (pub/sub deliveries) pile up in ``pushed``.
    """

    pushed: list[ProtocolValue] = field(default_factory=list)
    close_requested: bool = False

    def deliver_frame(self, value: ProtocolValue) -> None:
        self.pushed.append(value)


class Router:
    """Binds one KeyStore and one Broker behind the command surface."""

    def __init__(self, store: KeyStore | None = None, broker: Broker | None = None):
        self.store = store = store or KeyStore()
        self.broker = broker = broker or Broker()
        self._local = LocalSession()
        # name: (min args, max args or None, allowed while subscribed, handler)
        self._commands: dict[bytes, tuple[int, int | None, bool, Callable]] = {
            b"PING": (0, 1, True, _ping),
            b"QUIT": (0, 0, True, _quit),
            b"COMMAND": (0, None, False, _command),
            b"SET": (2, 2, False, _forward(store.set, _ok)),
            b"GET": (1, 1, False, _forward(store.get, encode_bulk)),
            b"HSET": (3, 3, False, _forward(store.hset, encode_int)),
            b"HGET": (2, 2, False, _forward(store.hget, encode_bulk)),
            b"HEXISTS": (2, 2, False, _forward(store.hexists, encode_int)),
            b"HDEL": (2, None, False, _forward(store.hdel, encode_int)),
            b"SADD": (2, None, False, _forward(store.sadd, encode_int)),
            b"SREM": (2, None, False, _forward(store.srem, encode_int)),
            b"SINTER": (1, None, False, _forward(store.sinter, encode_command)),
            b"SUNION": (1, None, False, _forward(store.sunion, encode_command)),
            b"SDIFF": (1, None, False, _forward(store.sdiff, encode_command)),
            b"LPUSH": (2, None, False, _forward(store.lpush, encode_int)),
            b"LLEN": (1, 1, False, _forward(store.llen, encode_int)),
            b"LINDEX": (2, 2, False, self._lindex),
            b"LRANGE": (3, 3, False, self._lrange),
            b"ZADD": (3, None, False, self._zadd),
            b"ZRANGEBYSCORE": (3, 3, False, self._zrangebyscore),
            b"DEL": (1, None, False, _forward(store.delete, encode_int)),
            b"EXISTS": (1, None, False, _forward(store.exists, encode_int)),
            b"FLUSHALL": (0, 0, False, _forward(store.flushall, _ok)),
            b"SUBSCRIBE": (1, None, True, broker.subscribe),
            b"UNSUBSCRIBE": (0, None, True, broker.unsubscribe),
            b"PUBLISH": (2, 2, False, _forward(broker.publish, encode_int)),
        }

    def dispatch(self, session, argv: list[bytes]) -> bytes:
        """Run one command; returns the reply bytes owed to ``session``."""
        if not argv:
            return b""
        commands = self._commands
        # Clients mostly send names in capitals: look the raw name up first.
        row = commands.get(argv[0]) or commands.get(argv[0].upper())
        if row is None:
            shown = argv[0].decode("latin-1").encode("unicode_escape").decode("ascii")
            return encode_error(f"ERR unknown command '{shown}'")
        min_args, max_args, while_subscribed, handler = row
        args = argv[1:]
        if len(args) < min_args or (max_args is not None and len(args) > max_args):
            name = argv[0].lower().decode("ascii")
            return encode_error(f"ERR wrong number of arguments for '{name}' command")
        if not while_subscribed and self.broker.subscription_count(session):
            return encode_error(SUBSCRIBER_MODE_ERROR)
        try:
            return handler(session, args)
        except CommandError as exc:
            return encode_error(exc.message)

    def replies(self, session, argv: list[bytes]) -> list[ProtocolValue]:
        """``dispatch``, with its reply bytes decoded into values."""
        return StreamDecoder().feed(self.dispatch(session, argv))

    def exec_line(self, line: bytes | str, session=None) -> list[ProtocolValue]:
        """Tokenize one command line and dispatch it (catch-all entry)."""
        if isinstance(line, str):
            line = line.encode("utf-8")
        try:
            tokens = tokenize_inline(line)
        except InlineCommandError as exc:
            return StreamDecoder().feed(encode_error(f"ERR Protocol error: {exc}"))
        return self.replies(session if session is not None else self._local, tokens)

    def commands(self) -> list[str]:
        """Registered command names, for the curious."""
        return sorted(name.decode("ascii") for name in self._commands)

    # -- handlers that parse their arguments -------------------------------

    def _lindex(self, session, args):
        return encode_bulk(self.store.lindex(args[0], parse_int(args[1])))

    def _lrange(self, session, args):
        start, stop = parse_int(args[1]), parse_int(args[2])
        return encode_command(self.store.lrange(args[0], start, stop))

    def _zadd(self, session, args):
        if len(args) % 2 == 0:
            raise CommandError("ERR syntax error")
        # Validate every score before touching the keyspace.
        pairs = list(zip(parse_scores(args[1::2]), args[2::2]))
        return encode_int(self.store.zadd(args[0], pairs))

    def _zrangebyscore(self, session, args):
        low, high = RangeBound.parse(args[1]), RangeBound.parse(args[2])
        return encode_command(self.store.zrangebyscore(args[0], low, high))


def _forward(method: Callable, frame: Callable) -> Callable:
    """Handler that passes every argument to ``method`` and frames its result."""
    return lambda session, args: frame(method(*args))


def _ok(_result) -> bytes:
    return _OK


def _ping(session, args):
    return encode_bulk(args[0]) if args else _PONG


def _quit(session, args):
    session.close_requested = True
    return _OK


def _command(session, args):
    # Tolerant stub so client handshakes at connect time do not wedge.
    return b"*0\r\n"
