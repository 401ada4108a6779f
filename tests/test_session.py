"""Sessions driven with no socket and no event loop: a stateful model check.

Three ``Session``s share one ``Router``; one of them has a small output
queue limit. Each step hands a session a pipeline cut into reads at random
points, drains a queue the way the server's writer task does, or ends a
session the way the server does once its reader stops. Pipelines
mix ``model_harness.gen_command`` traffic with SUBSCRIBE, UNSUBSCRIBE and
PUBLISH, QUIT, a fatal frame and a non-fatal inline line. A model beside
the sessions predicts every reply from ``tests/oracle.py``, every pub/sub
delivery in publish order, and the reply at which each session closes.
"""

from __future__ import annotations

import itertools
import os

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from model_harness import DEFAULT_KEYS, gen_command
from oracle import _ARITY, Oracle, replies_equal

from miniredis.protocol import (
    DEFAULT_LIMITS, Array, BulkString, Error, Integer, SimpleString, StreamDecoder, encode,
    encode_command,
)
from miniredis.router import SUBSCRIBER_MODE_ERROR, Router
from miniredis.server import FLUSH_BYTES, Session

# Stateful examples; the deep CI run raises it tenfold.
_EXAMPLES = int(os.environ.get("MINIREDIS_MODEL_EXAMPLES", "60"))

CHANNELS = [b"ch0", b"ch1"]
PAYLOADS = [b"", b"hi", b"\x00\r\n*3", b"p" * 40]
BIG_LIMIT = 1 << 20

# Frames that are not commands, and what the session answers to each. A fatal
# frame is refused at its fifth byte, where ':' stands for '$'.
FATAL = (b"*1\r\n:5\r\n", "fatal")
FATAL_REPLY = Error("ERR Protocol error: expected '$', got b':'")
INLINE_BAD = (b'GET "oops\r\n', "inline")
INLINE_REPLY = Error("ERR Protocol error: unbalanced quotes in request")


def command(argv: list[bytes]) -> tuple[bytes, list[bytes]]:
    return bytes(encode_command(argv)), argv


def gen_pubsub(rng) -> list[bytes]:
    roll = rng.randrange(3)
    if roll == 0:
        return [b"SUBSCRIBE", *rng.sample(CHANNELS, rng.randint(1, 2))]
    if roll == 1:
        return [b"UNSUBSCRIBE", *rng.sample(CHANNELS, rng.randint(0, 2))]
    return [b"PUBLISH", rng.choice(CHANNELS), rng.choice(PAYLOADS)]


def ack(kind: bytes, channel: bytes | None, count: int) -> Array:
    return Array((BulkString(kind), BulkString(channel), Integer(count)))


def keyspace(store) -> dict:
    """The engine's keyspace in the oracle's shape: key -> (kind, plain value)."""
    shown = {}
    for key, value in store._data.items():
        kind = store.kind(key)
        if kind == "zset":
            value = {member: score for score, member in value.items()}
        elif kind != "string":
            value = {"hash": dict, "set": set, "list": list}[kind](value)
        shown[key] = (kind, value)
    return shown


class StubWriter:
    """All a Session asks of its writer."""

    def get_extra_info(self, name: str):
        return None


class Client:
    """One Session and what the model expects of it."""

    def __init__(self, router: Router, limit: int):
        self.session = Session(StubWriter(), router, DEFAULT_LIMITS, limit)
        self.limit = limit  # the session's queue_limit
        self.expected: list[tuple[list[bytes], object]] = []  # (argv, reply) queued, in order
        self.undrained = 0  # bytes of ``expected`` not yet drained
        self.channels: set[bytes] = set()
        self.reason: str | None = None  # the close the model predicts
        self.decoder = StreamDecoder()
        self.drained: list = []  # what the drained bytes decode to
        self.ended = False  # the writer's None was drained

    def queue(self, replies: list, size: int) -> None:
        """One chunk handed over: queued whole, or the overflow that closes."""
        if self.reason is None and replies:
            if self.undrained + size > self.limit:
                self.reason = "output queue overflow"
            else:
                self.expected += replies
                self.undrained += size

    def take(self) -> bool:
        """Pop one chunk as the writer task does; False once the queue is empty."""
        queue = self.session.queue
        if queue.empty():
            return False
        chunk = queue.get_nowait()
        assert not self.ended, "something was queued after the close"
        if chunk is None:
            assert self.session.close_reason is not None
            self.ended = True
            return True
        self.session.queued_bytes -= len(chunk)
        self.undrained -= len(chunk)
        self.drained += self.decoder.feed(chunk)
        return True

    def check_drained(self) -> None:
        assert len(self.drained) <= len(self.expected)
        for got, (argv, want) in zip(self.drained, self.expected):
            assert replies_equal(argv, got, want), (argv, got, want)

    def drain_and_check(self) -> None:
        while self.take():
            pass
        self.check_drained()
        assert len(self.drained) == len(self.expected)
        assert self.ended == (self.reason is not None)


class SessionsMatchModel(RuleBasedStateMachine):
    @initialize(small_limit=st.integers(24, 400))
    def open_sessions(self, small_limit):
        self.router = Router()
        self.oracle = Oracle()
        limits = (BIG_LIMIT, BIG_LIMIT, small_limit)
        self.clients = [Client(self.router, limit) for limit in limits]

    # -- the model ----------------------------------------------------------

    def expect(self, client: Client, argv: list[bytes]) -> list:
        """The replies ``argv`` earns; applies it to the oracle and the channels."""
        name = argv[0].upper()
        if name == b"QUIT":
            return [SimpleString("OK")]
        if name == b"SUBSCRIBE":
            acks = []
            for channel in argv[1:]:
                client.channels.add(channel)
                acks.append(ack(b"subscribe", channel, len(client.channels)))
            return acks
        if name == b"UNSUBSCRIBE":
            named = argv[1:] or sorted(client.channels)
            if not named:
                return [ack(b"unsubscribe", None, 0)]
            acks = []
            for channel in named:
                client.channels.discard(channel)
                acks.append(ack(b"unsubscribe", channel, len(client.channels)))
            return acks
        if client.channels and name != b"PING":
            # Unknown names and wrong arity are refused first, as the oracle does.
            arity = _ARITY.get(name.decode("latin-1"), (2, 2) if name == b"PUBLISH" else None)
            if arity is not None:
                low, high = arity
                if low <= len(argv) - 1 and (high is None or len(argv) - 1 <= high):
                    return [Error(SUBSCRIBER_MODE_ERROR)]
        if name == b"PUBLISH":
            frame = Array((BulkString(b"message"), BulkString(argv[1]), BulkString(argv[2])))
            receivers = [other for other in self.clients if argv[1] in other.channels]
            for other in receivers:
                other.queue([(argv, frame)], len(encode(frame)))
            return [Integer(len(receivers))]
        return [self.oracle.apply(argv)]

    def predict(self, client: Client, frames: list) -> None:
        """What one read that completes ``frames`` queues, and whether it closes."""
        pending: list = []
        size = 0
        reason = None
        for _, what in frames:
            if reason or client.reason:
                break
            if what == "fatal":
                replies, reason = [(None, FATAL_REPLY)], "protocol error"
            elif what == "inline":
                replies = [(None, INLINE_REPLY)]
            else:
                replies = [(what, value) for value in self.expect(client, what)]
                if what[0].upper() == b"QUIT":
                    reason = "QUIT"
            pending += replies
            size += sum(len(encode(value)) for _, value in replies)
            if size >= FLUSH_BYTES or size + client.undrained > client.limit:
                client.queue(pending, size)
                pending, size = [], 0
        client.queue(pending, size)
        if reason and client.reason is None:
            client.reason = reason

    # -- driving the sessions -----------------------------------------------

    def send(self, client: Client, frames: list, cuts: list[int]) -> None:
        """Hand ``client`` the frames as reads split at ``cuts``."""
        data = b"".join(wire for wire, _ in frames)
        # Where each frame is handled: its end, or a fatal frame's fifth byte.
        offsets = [0] + list(itertools.accumulate(len(wire) for wire, _ in frames))
        dues = [
            start + (5 if what == "fatal" else len(wire))
            for start, (wire, what) in zip(offsets, frames)
        ]
        bounds = sorted({cut % len(data) for cut in cuts} - {0} | {len(data)})
        start = handled = 0
        for bound in bounds:
            ready = []
            while handled < len(frames) and dues[handled] <= bound:
                ready.append(frames[handled])
                handled += 1
            closed, queued = client.reason is not None, client.session.queue.qsize()
            client.session.receive(data[start:bound])
            if closed:
                assert client.session.queue.qsize() == queued, "a closed session queued a reply"
            self.predict(client, ready)
            start = bound

    @rule(
        who=st.integers(0, 2),
        rng=st.randoms(use_true_random=False),
        cuts=st.lists(st.integers(0, 1000), max_size=4),
    )
    def pipeline(self, who, rng, cuts):
        frames = [
            command(gen_pubsub(rng) if rng.random() < 0.25 else gen_command(rng, DEFAULT_KEYS))
            for _ in range(rng.randint(1, 8))
        ]
        for frame, odds in ((command([b"QUIT"]), 0.1), (INLINE_BAD, 0.2), (FATAL, 0.05)):
            if rng.random() < odds:
                frames.insert(rng.randint(0, len(frames)), frame)
        self.send(self.clients[who], frames, cuts)

    @rule(who=st.integers(0, 2), channels=st.lists(st.sampled_from(CHANNELS), min_size=1))
    def subscribe(self, who, channels):
        self.send(self.clients[who], [command([b"SUBSCRIBE", *channels])], [])

    @rule(
        who=st.integers(0, 2),
        channel=st.sampled_from(CHANNELS),
        payloads=st.lists(st.sampled_from(PAYLOADS), min_size=1, max_size=4),
        cuts=st.lists(st.integers(0, 1000), max_size=2),
    )
    def publish(self, who, channel, payloads, cuts):
        frames = [command([b"PUBLISH", channel, payload]) for payload in payloads]
        self.send(self.clients[who], frames, cuts)

    @rule(over=st.integers(0, 1), key=st.sampled_from(DEFAULT_KEYS), split=st.booleans())
    def fill_to_the_limit(self, over, key, split):
        # A PING whose reply leaves the small session's queue exactly full, or
        # one byte over it, then a SET, in the same read or the next: the SET
        # runs only if the PING did not overflow.
        client = self.clients[2]
        room = client.limit - client.undrained + over
        lengths = {n + len(str(n)) + 5: n for n in range(room)}  # $<n>\r\n<n bytes>\r\n
        if room in lengths:
            ping = command([b"PING", b"p" * lengths[room]])
            cuts = [len(ping[0])] if split else []
            self.send(client, [ping, command([b"SET", key, b"filled"])], cuts)

    @rule(who=st.integers(0, 2), chunks=st.integers(1, 4))
    def drain(self, who, chunks):
        client = self.clients[who]
        for _ in range(chunks):
            if not client.take():
                break

    @rule(who=st.integers(0, 2))
    def hang_up(self, who):
        # What the server does once a session's reader stops, at EOF or some
        # turns after a close; a new client then takes the slot.
        client = self.clients[who]
        self.router.broker.drop_session(client.session)
        client.session.close("connection closed")
        client.reason = client.reason or "connection closed"
        client.drain_and_check()
        self.clients[who] = Client(self.router, client.limit)

    # -- checks -------------------------------------------------------------

    @invariant()
    def keyspace_matches_the_oracle(self):
        # The model applies nothing after a close, so neither may a session.
        assert keyspace(self.router.store) == self.oracle.data

    @invariant()
    def sessions_match_the_model(self):
        for client in self.clients:
            session = client.session
            if client.reason is None:
                assert session.close_reason is None
                assert session.queued_bytes == client.undrained <= session.queue_limit
            else:
                assert session.close_reason is not None
                assert session.close_reason.startswith(client.reason), session.close_reason
            client.check_drained()

    def teardown(self):
        for client in getattr(self, "clients", ()):
            client.drain_and_check()


SessionsMatchModelTest = SessionsMatchModel.TestCase
SessionsMatchModelTest.settings = settings(
    max_examples=_EXAMPLES, stateful_step_count=30, deadline=None
)
