"""Command table and dispatch: decoded argv in, reply frames out.

The command table is data: one row per command name holding the fewest
and the most arguments it takes (None means variadic), whether a session
in subscriber mode may send it, and the handler that runs it. Most
handlers only forward the arguments to a KeyStore or Broker method and
wrap its result as a reply; the few with logic of their own stay short.

Command names are matched case-insensitively; keys, fields, members and
payloads pass through untouched as bytes. Dispatch never raises for a bad
command: every failure becomes an error reply, and the keyspace is left
exactly as it was. Errors come in a fixed order: unknown command, wrong
arity, subscriber mode, then whatever the handler raises. dispatch()
returns the frames owed to the calling session (one for most commands,
one ack per channel for subscribe and unsubscribe).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from .datastore import KeyStore, RangeBound, parse_int, parse_score
from .errors import CommandError, InlineCommandError
from .protocol import (
    OK,
    PONG,
    Array,
    BulkString,
    Error,
    Integer,
    MemberArray,
    ProtocolValue,
    tokenize_inline,
)
from .pubsub import Broker

SUBSCRIBER_MODE_ERROR = (
    "ERR only SUBSCRIBE / UNSUBSCRIBE / PING / QUIT allowed in this context"
)


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
        self._commands: dict[str, tuple[int, int | None, bool, Callable]] = {
            "PING": (0, 1, True, _ping),
            "QUIT": (0, 0, True, _quit),
            "COMMAND": (0, None, False, _command),
            "SET": (2, 2, False, _forward(store.set, _ok)),
            "GET": (1, 1, False, _forward(store.get, BulkString)),
            "HSET": (3, 3, False, _forward(store.hset, Integer)),
            "HGET": (2, 2, False, _forward(store.hget, BulkString)),
            "HEXISTS": (2, 2, False, _forward(store.hexists, Integer)),
            "HDEL": (2, None, False, _forward(store.hdel, Integer)),
            "SADD": (2, None, False, _forward(store.sadd, Integer)),
            "SREM": (2, None, False, _forward(store.srem, Integer)),
            "SINTER": (1, None, False, _forward(store.sinter, _member_array)),
            "SUNION": (1, None, False, _forward(store.sunion, _member_array)),
            "SDIFF": (1, None, False, _forward(store.sdiff, _member_array)),
            "LPUSH": (2, None, False, _forward(store.lpush, Integer)),
            "LLEN": (1, 1, False, _forward(store.llen, Integer)),
            "LINDEX": (2, 2, False, self._lindex),
            "LRANGE": (3, 3, False, self._lrange),
            "ZADD": (3, None, False, self._zadd),
            "ZRANGEBYSCORE": (3, 3, False, self._zrangebyscore),
            "DEL": (1, None, False, _forward(store.delete, Integer)),
            "EXISTS": (1, None, False, _forward(store.exists, Integer)),
            "FLUSHALL": (0, 0, False, _forward(store.flushall, _ok)),
            "SUBSCRIBE": (1, None, True, broker.subscribe),
            "UNSUBSCRIBE": (0, None, True, broker.unsubscribe),
            "PUBLISH": (2, 2, False, _forward(broker.publish, Integer)),
        }

    def dispatch(self, session, argv: list[bytes]) -> list[ProtocolValue]:
        if not argv:
            return []
        name = argv[0].decode("latin-1").upper()
        row = self._commands.get(name)
        if row is None:
            shown = argv[0].decode("latin-1").encode("unicode_escape").decode("ascii")
            return [Error(f"ERR unknown command '{shown}'")]
        min_args, max_args, while_subscribed, handler = row
        args = argv[1:]
        if len(args) < min_args or (max_args is not None and len(args) > max_args):
            return [
                Error(f"ERR wrong number of arguments for '{name.lower()}' command")
            ]
        if not while_subscribed and self.broker.subscription_count(session):
            return [Error(SUBSCRIBER_MODE_ERROR)]
        try:
            reply = handler(session, args)
        except CommandError as exc:
            return [Error(exc.message)]
        return reply if isinstance(reply, list) else [reply]

    def exec_line(self, line: bytes | str, session=None) -> list[ProtocolValue]:
        """Tokenize one command line and dispatch it (catch-all entry)."""
        if isinstance(line, str):
            line = line.encode("utf-8")
        try:
            tokens = tokenize_inline(line)
        except InlineCommandError as exc:
            return [Error(f"ERR Protocol error: {exc}")]
        if not tokens:
            return []
        return self.dispatch(session if session is not None else self._local, tokens)

    def commands(self) -> list[str]:
        """Registered command names, for the curious."""
        return sorted(self._commands)

    # -- handlers that parse their arguments -------------------------------

    def _lindex(self, session, args):
        return BulkString(self.store.lindex(args[0], parse_int(args[1])))

    def _lrange(self, session, args):
        start, stop = parse_int(args[1]), parse_int(args[2])
        return _bulk_array(self.store.lrange(args[0], start, stop))

    def _zadd(self, session, args):
        if len(args) % 2 == 0:
            raise CommandError("ERR syntax error")
        # Validate every score before touching the keyspace.
        pairs = list(zip(map(parse_score, args[1::2]), args[2::2]))
        return Integer(self.store.zadd(args[0], pairs))

    def _zrangebyscore(self, session, args):
        low, high = RangeBound.parse(args[1]), RangeBound.parse(args[2])
        return _bulk_array(self.store.zrangebyscore(args[0], low, high))


def _forward(method: Callable, wrap: Callable) -> Callable:
    """Handler that passes every argument to ``method`` and wraps its result."""
    return lambda session, args: wrap(method(*args))


def _ok(_result) -> ProtocolValue:
    return OK


def _ping(session, args):
    return BulkString(args[0]) if args else PONG


def _quit(session, args):
    session.close_requested = True
    return OK


def _command(session, args):
    # Tolerant stub so client handshakes at connect time do not wedge.
    return Array(())


def _bulk_array(items: Iterable[bytes]) -> Array:
    return MemberArray(tuple(items))


def _member_array(members: set[bytes]) -> Array:
    # Set algebra has no inherent order; sort so replies are deterministic.
    return _bulk_array(sorted(members))
