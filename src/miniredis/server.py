"""TCP front end: session lifecycle, configuration, and the server binary.

Concurrency model: any number of connections, one logical executor. All
command dispatch runs on the event loop with no awaits in between, so
commands from different sessions serialize naturally and each one sees a
consistent keyspace. Replies and protocol errors are framed as wire bytes;
only pub/sub message deliveries go through ``encode``.
Per session, the replies to everything one socket read decodes are joined
into one chunk (handed over early every 64 KiB) and queued; a dedicated
writer task writes each chunk with one write. A session whose queue
outgrows its limit is disconnected rather than stalling everyone else, and
runs no further command.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import logging
import signal
import sys
import threading
from dataclasses import dataclass, fields
from typing import get_type_hints

from .errors import InlineCommandError, ProtocolError
from .protocol import (
    DEFAULT_LIMITS, DecodeLimits, RequestDecoder, encode, encode_error, strict_int, tokenize_inline
)
from .router import Router

log = logging.getLogger("miniredis.server")

LOG_LEVELS = {
    "debug": logging.DEBUG,
    "verbose": logging.INFO,
    "notice": logging.INFO,
    "warning": logging.WARNING,
}

# The replies to one socket read are queued as one chunk, handed over early
# once they reach this many bytes so a long pipeline is not buffered whole.
FLUSH_BYTES = 64 * 1024


@dataclass
class ServerConfig:
    """Everything the server can be told at startup.

    Each field is a config-file key and a ``--key`` flag, dashed. ``port=0``
    binds an ephemeral port; real deployments use 1..65535.
    """

    bind: str = "127.0.0.1"
    port: int = 6379
    maxclients: int = 10000
    loglevel: str = "notice"
    output_queue_limit: int = 32 * 1024 * 1024
    max_bulk_length: int = DEFAULT_LIMITS.max_bulk_length
    max_array_length: int = DEFAULT_LIMITS.max_array_length

    def __post_init__(self) -> None:
        if not self.bind:  # asyncio would listen on every interface
            raise ValueError("bind must name an address")
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port out of range: {self.port}")
        if self.maxclients < 1:
            raise ValueError(f"maxclients must be positive: {self.maxclients}")
        if self.loglevel not in LOG_LEVELS:
            allowed = ", ".join(sorted(LOG_LEVELS))
            raise ValueError(f"unknown loglevel {self.loglevel!r} (use one of {allowed})")
        for name in ("output_queue_limit", "max_bulk_length", "max_array_length"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


def load_config_file(path: str) -> dict[str, str]:
    """Parse ``key value`` lines split like inline commands, '#' lines skipped; keys dashed."""
    pairs: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                key, value = (token.decode() for token in tokenize_inline(line.encode()))
            except (InlineCommandError, ValueError):
                raise ValueError(f"{path}:{lineno}: expected 'key value', got {line!r}") from None
            pairs[key.lower().replace("_", "-")] = value
    return pairs


def build_config(pairs: dict[str, str]) -> ServerConfig:
    """Defaults, then ``key: text`` pairs in order; a later pair wins."""
    types = get_type_hints(ServerConfig)
    kwargs: dict[str, object] = {}
    for key, text in pairs.items():
        name = key.replace("-", "_")
        if name not in types:
            raise ValueError(f"unknown configuration key: {key}")
        value = strict_int(text.encode("utf-8")) if types[name] is int else text
        if value is None:
            raise ValueError(f"configuration key {key} expects an integer, got {text!r}")
        kwargs[name] = value
    return ServerConfig(**kwargs)


class Session:
    """One client connection and its outbound queue."""

    _ids = itertools.count(1)

    def __init__(
        self, writer: asyncio.StreamWriter, limits: DecodeLimits, queue_limit: int
    ):
        self.id = next(self._ids)
        self.writer = writer
        self.peer = writer.get_extra_info("peername")
        self.decoder = RequestDecoder(limits)
        self.queue: asyncio.Queue[bytes | None] = asyncio.Queue()
        self.queue_limit = queue_limit
        self.queued_bytes = 0
        self.close_requested = False  # set by QUIT
        self.closing = False

    def deliver_frame(self, value) -> None:
        self.send_bytes(encode(value))

    def send_bytes(self, data: bytes) -> None:
        """Queue one complete reply; overflow disconnects the session."""
        if self.closing:
            return
        self.queued_bytes += len(data)
        if self.queued_bytes > self.queue_limit:
            log.warning(
                "session %d from %s: output queue over %d bytes, disconnecting",
                self.id,
                self.peer,
                self.queue_limit,
            )
            self.request_close()
            return
        self.queue.put_nowait(data)

    def request_close(self) -> None:
        if not self.closing:
            self.closing = True
            self.queue.put_nowait(None)


def _flush(session: Session, parts: list[bytes]) -> None:
    """Queue the buffered replies as one chunk and empty the buffer."""
    if parts:
        session.send_bytes(b"".join(parts))  # a lone part is passed on uncopied
        parts.clear()


class Server:
    """Accepts connections and funnels every command through one Router."""

    def __init__(self, config: ServerConfig | None = None):
        self.config = config or ServerConfig()
        self.router = Router()
        self._limits = DecodeLimits(self.config.max_bulk_length, self.config.max_array_length)
        # Each live session and the task running its connection handler.
        self._sessions: dict[Session, asyncio.Task] = {}
        self._listener: asyncio.base_events.Server | None = None
        self._stopping = False

    @property
    def address(self) -> tuple[str, int]:
        """The actually bound (host, port); resolves port 0."""
        assert self._listener is not None, "server is not started"
        sockname = self._listener.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def start(self) -> None:
        self._listener = await asyncio.start_server(
            self._on_client, self.config.bind, self.config.port
        )
        log.info("listening on %s:%d", *self.address)

    async def stop(self) -> None:
        """Stop accepting, flush queued replies, close every session."""
        self._stopping = True
        if self._listener is not None:
            # Stop accepting, then give connections already accepted one loop
            # pass to build their transports: one built after close() fails
            # inside asyncio (3.11) and leaves its socket to the collector.
            loop = asyncio.get_running_loop()
            for sock in self._listener.sockets:
                loop.remove_reader(sock.fileno())
            await asyncio.sleep(0)
            self._listener.close()
            await self._listener.wait_closed()
            self._listener = None
        for session in self._sessions:
            session.request_close()
        if self._sessions:
            _, pending = await asyncio.wait(list(self._sessions.values()), timeout=5)
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
        log.info("server stopped")

    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._stopping:
            # Accepted before the listener closed, but started after stop()
            # began closing sessions: no one would close this one.
            writer.close()
            return
        if len(self._sessions) >= self.config.maxclients:
            writer.write(encode_error("ERR max number of clients reached"))
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()
            return
        session = Session(writer, self._limits, self.config.output_queue_limit)
        self._sessions[session] = asyncio.current_task()
        log.info("session %d connected from %s", session.id, session.peer)
        writer_task = asyncio.create_task(self._writer_loop(session))
        try:
            await self._reader_loop(session, reader)
        finally:
            self.router.broker.drop_session(session)
            session.request_close()
            try:
                await writer_task
            except asyncio.CancelledError:
                pass
            del self._sessions[session]
            log.info("session %d closed", session.id)

    async def _reader_loop(self, session: Session, reader: asyncio.StreamReader) -> None:
        while not session.closing:
            try:
                data = await reader.read(65536)
            except (ConnectionError, OSError):
                return
            if not data:
                return
            # The replies to one read are queued together, as one chunk. They
            # stay in order with pub/sub deliveries: nothing awaits between
            # decoding and the flush, so no other session runs meanwhile, and a
            # subscribed session cannot PUBLISH, so it cannot deliver to itself.
            parts: list[bytes] = []
            size = 0
            try:
                for item in session.decoder.feed(data):
                    if isinstance(item, InlineCommandError):
                        out = encode_error(f"ERR Protocol error: {item}")
                    elif isinstance(item, ProtocolError):
                        # Fatal framing error: tell the client, then hang up.
                        log.info("session %d protocol error: %s", session.id, item)
                        parts.append(encode_error(f"ERR Protocol error: {item.reason}"))
                        return
                    else:
                        out = self.router.dispatch(session, item)
                    parts.append(out)
                    size += len(out)
                    # Hand over early at FLUSH_BYTES, and as soon as the output
                    # queue would overflow, so an overflowing session is cut
                    # before its next command runs.
                    if size >= FLUSH_BYTES or size + session.queued_bytes > session.queue_limit:
                        _flush(session, parts)
                        size = 0
                    if session.close_requested or session.closing:
                        return
            finally:
                _flush(session, parts)

    async def _writer_loop(self, session: Session) -> None:
        writer = session.writer
        try:
            while True:
                data = await session.queue.get()
                if data is None:
                    break
                writer.write(data)
                await writer.drain()
                session.queued_bytes -= len(data)
        except (ConnectionError, OSError):
            pass
        finally:
            session.closing = True
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


async def _serve_until_signalled(config: ServerConfig) -> None:
    server = Server(config)
    await server.start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stop.set)
    try:
        await stop.wait()
    finally:
        log.info("shutting down")
        await server.stop()


def serve(config: ServerConfig) -> None:
    """Run until SIGINT or SIGTERM, then drain sessions and return."""
    asyncio.run(_serve_until_signalled(config))


class ServerThread:
    """A Server on its own event-loop thread; for tests and embedding.

    Usage::

        with ServerThread() as srv:
            ... connect to (srv.host, srv.port) ...
    """

    def __init__(self, config: ServerConfig | None = None):
        self.config = config or ServerConfig(port=0)
        self.server: Server | None = None
        self.host = ""
        self.port = 0
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._run()),
            name="miniredis-server",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout=10):
            raise RuntimeError("server thread did not start in time")
        if self._startup_error is not None:
            self._thread.join(timeout=10)
            raise self._startup_error
        return self

    async def _run(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = Server(self.config)
        try:
            await server.start()
        except OSError as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self.server = server
        self.host, self.port = server.address
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await server.stop()

    def stop(self) -> None:
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and self._thread and self._thread.is_alive():
            loop.call_soon_threadsafe(stop.set)
        if self._thread is not None:
            self._thread.join(timeout=10)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def config_from_argv(argv: list[str] | None = None) -> ServerConfig:
    """``--config FILE`` plus one ``--key VALUE`` flag per config-file key.

    Flags are laid over the file's pairs as text, so ``build_config`` parses
    both alike and a flag wins over the file wherever it stands.
    """
    parser = argparse.ArgumentParser(
        prog="miniredis-server",
        description="In-memory data-structure server speaking RESP2.",
        allow_abbrev=False,
    )
    parser.add_argument("--config", metavar="FILE", help="'key value' per line; flags win over it")
    for field in fields(ServerConfig):
        key = field.name.replace("_", "-")
        parser.add_argument(
            "--" + key, dest=key, metavar="VALUE", help=f"default: {field.default}"
        )
    flags = vars(parser.parse_args(argv))
    path = flags.pop("config")
    pairs = load_config_file(path) if path else {}
    pairs.update((key, text) for key, text in flags.items() if text is not None)
    return build_config(pairs)


def main(argv: list[str] | None = None) -> int:
    try:
        config = config_from_argv(argv)
    except (OSError, ValueError) as exc:
        print(f"miniredis-server: {exc}", file=sys.stderr)
        return 1
    logging.basicConfig(
        level=LOG_LEVELS[config.loglevel],
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    try:
        serve(config)
    except OSError as exc:
        print(
            f"miniredis-server: cannot listen on {config.bind}:{config.port}: {exc}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
