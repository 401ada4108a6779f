"""The three traffic mixes, their inputs, and the model that checks replies.

Every input is drawn from ``random.Random(seed)`` before the server starts.
The expected replies come from the benchmark's own model of the keyspace
(plain dicts, sets, lists and ``sorted()``), never from miniredis code.

A workload runs in rounds: a fixed sequence of operations generated once.
The measured phases always finish the round they are in, so every run
attempts whole rounds of the same operations. In ``kv-small`` and
``collections`` each round is made of units that leave the keyspace as they
found it (a temporary key is written, read and deleted; an overwritten
value is put back), so one set of expected replies holds for every round.
"""

from __future__ import annotations

import itertools
import math
import random
import socket
import struct
from array import array
from collections import deque
from time import perf_counter_ns
from typing import NamedTuple

import resp
from miniredis import client, protocol

HOST = "127.0.0.1"
TIMEOUT_S = 30.0


class Check:
    """Counts operations attempted and failed; keeps the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, total: int, bad: int = 0, note: str = "") -> None:
        self.attempted += total
        self.failed += bad
        if bad and len(self.notes) < 5:
            self.notes.append(note[:300])

    def expect(self, ok: bool, note: str) -> None:
        self.record(1, 0 if ok else 1, note)


def ladder(rng: random.Random, count: int, low: float, high: float) -> list[int]:
    """``count`` sizes on a geometric ladder from ``low`` to ``high``.

    The seed moves each rung by at most a twentieth of a step, so a round
    does nearly the same work on every seed while its contents change.
    """
    step = math.log(high / low) / (count - 1)
    return [int(low * math.exp(step * (i + 0.1 * (rng.random() - 0.5)))) for i in range(count)]


# Window widths, as shares of a key's score range or length; None is all of it.
WINDOW_SHARES = (0.01, 0.05, 0.2, 0.5, None)


def pack_row(row) -> bytes:
    """The packed-row member layout: u32 column count, then binary64 columns."""
    return struct.pack(">I%dd" % len(row), len(row), *row)


def score_text(score: float) -> bytes:
    return repr(score).encode()


def bound_admits(bound: bytes, score: float, low: bool) -> bool:
    """Does ``score`` clear this ZRANGEBYSCORE bound (model side)?"""
    exclusive = bound.startswith(b"(")
    value = float(bound[1:] if exclusive else bound)
    if low:
        return score > value if exclusive else score >= value
    return score < value if exclusive else score <= value


def window(pairs, low: bytes, high: bytes) -> list:
    """Members of sorted (score, member) pairs inside [low, high]."""
    return [
        member
        for score, member in sorted(pairs)
        if bound_admits(low, score, True) and bound_admits(high, score, False)
    ]


def score_window(rng: random.Random, lo: float, hi: float, share) -> tuple[bytes, bytes]:
    """ZRANGEBYSCORE bounds covering ``share`` of [lo, hi], ends open or closed."""
    if share is None:
        return b"-inf", b"+inf"
    width = (hi - lo) * share
    start = rng.uniform(lo, hi - width)
    low, high = score_text(start), score_text(start + width)
    if rng.random() < 0.5:
        low = b"(" + low
    if rng.random() < 0.5:
        high = b"(" + high
    return low, high


def index_window(rng: random.Random, n: int, share) -> tuple[int, int]:
    """LRANGE start/stop covering ``share`` of n items, sometimes as negative indexes."""
    if share is None:
        return 0, -1
    count = max(1, int(n * share))
    start = rng.randrange(n - count + 1)
    stop = start + count - 1
    if rng.random() < 0.3:
        start -= n
    if rng.random() < 0.3:
        stop -= n
    return start, stop


def lrange_model(items: list, start: int, stop: int) -> list:
    """LRANGE on a Python list, with Redis's index rules."""
    n = len(items)
    if start < 0:
        start = max(n + start, 0)
    if stop < 0:
        stop += n
    return items[start : min(stop, n - 1) + 1]


def connect_raw(port: int) -> socket.socket:
    sock = socket.create_connection((HOST, port), timeout=TIMEOUT_S)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def recv_exact(sock: socket.socket, size: int) -> bytearray:
    buf = bytearray(size)
    view = memoryview(buf)
    got = 0
    while got < size:
        count = sock.recv_into(view[got:])
        if not count:
            raise ConnectionError("server closed the connection")
        got += count
    return buf


def check_pipeline(got: bytes, want: bytes, count: int, check: Check) -> None:
    """Compare a batch of reply bytes; on a mismatch, count each bad reply."""
    if got == want:
        check.record(count)
        return
    got_values, _ = resp.parse_all(got)
    want_values, _ = resp.parse_all(want)
    bad = sum(1 for i, value in enumerate(want_values) if i >= len(got_values) or got_values[i] != value)
    check.record(count, max(bad, 1), f"pipeline reply mismatch: got {bytes(got[:120])!r}")


class Subscriber:
    """A raw subscriber connection that checks each delivery exactly, in order."""

    def __init__(self, sock: socket.socket, check: Check):
        self.sock = sock
        self.check = check
        self.pending: deque[bytes] = deque()
        self.buf = bytearray()

    @classmethod
    def connect(cls, port: int, channel: bytes, check: Check) -> "Subscriber":
        sub = cls(connect_raw(port), check)
        sub.sock.sendall(resp.command(b"SUBSCRIBE", channel))
        ack = b"*3\r\n" + resp.bulk(b"subscribe") + resp.bulk(channel) + resp.integer(1)
        check.expect(recv_exact(sub.sock, len(ack)) == ack, "subscribe ack")
        return sub

    def expect(self, frames) -> None:
        self.pending.extend(frames)

    def poll(self, wait: bool = False) -> None:
        """Match what has arrived; with ``wait``, until nothing is owed."""
        while self.pending:
            try:
                data = self.sock.recv(1 << 16, 0 if wait else socket.MSG_DONTWAIT)
            except BlockingIOError:
                return
            if not data:
                raise ConnectionError("subscriber connection closed")
            self.buf += data
            while self.pending and len(self.buf) >= len(self.pending[0]):
                frame = self.pending.popleft()
                ok = self.buf[: len(frame)] == frame
                del self.buf[: len(frame)]
                self.check.expect(ok, f"pub/sub delivery mismatch, wanted {frame[:80]!r}")

    def close(self) -> None:
        self.sock.close()


# -- kv-small ---------------------------------------------------------------


class _Cmd(NamedTuple):
    frame: bytes
    reply: bytes
    payload: int
    message: bytes | None  # the frame the subscriber must receive


class _Batch(NamedTuple):
    frames: bytes
    replies: bytes
    count: int
    payload: int
    messages: list[bytes]


class KvSmall:
    """Small strings and hash fields, mostly reads, a few PUBLISHes."""

    name = "kv-small"
    STRINGS = 80_000
    HASHES = 20_000
    ROUND_COMMANDS = 8192
    DEPTH = 32
    PRELOAD_DEPTH = 512
    CHANNEL = b"bench:events"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.values = [rng.randbytes(rng.randint(8, 64)) for _ in range(self.STRINGS)]
        self.hashes = [
            {b"f%d" % j: rng.randbytes(rng.randint(8, 64)) for j in range(rng.randint(1, 3))}
            for _ in range(self.HASHES)
        ]
        preload = [
            (resp.command(b"SET", b"k:%d" % i, v), resp.OK) for i, v in enumerate(self.values)
        ]
        for i, fields in enumerate(self.hashes):
            preload += [
                (resp.command(b"HSET", b"h:%d" % i, f, v), resp.integer(1)) for f, v in fields.items()
            ]
        self.preload = [
            (b"".join(c[0] for c in chunk), b"".join(c[1] for c in chunk), len(chunk))
            for chunk in _chunks(preload, self.PRELOAD_DEPTH)
        ]
        cmds: list[_Cmd] = []
        while len(cmds) < self.ROUND_COMMANDS:
            cmds += self._unit(rng)
        while len(cmds) % self.DEPTH:
            cmds += self._get(rng)
        self.cmds = cmds
        self.batches = [
            _Batch(
                b"".join(c.frame for c in chunk),
                b"".join(c.reply for c in chunk),
                len(chunk),
                sum(c.payload for c in chunk),
                [c.message for c in chunk if c.message],
            )
            for chunk in _chunks(cmds, self.DEPTH)
        ]
        self.round_payload = sum(c.payload for c in cmds)
        self.sock: socket.socket | None = None
        self.sub: Subscriber | None = None

    # Each unit returns its commands with their expected replies; a unit that
    # writes restores what it changed, so replies hold for every round.
    def _get(self, rng):
        i = rng.randrange(self.STRINGS)
        v = self.values[i]
        return [_Cmd(resp.command(b"GET", b"k:%d" % i), resp.bulk(v), len(v), None)]

    def _unit(self, rng):
        kind = rng.choices(
            ("get", "miss", "hget", "exists", "set", "hset", "del", "publish"),
            weights=(30, 4, 18, 10, 9, 6, 4, 3),
        )[0]
        i = rng.randrange(self.STRINGS)
        key, value = b"k:%d" % i, self.values[i]
        if kind == "get":
            return self._get(rng)
        if kind == "miss":
            return [_Cmd(resp.command(b"GET", b"nokey:%d" % i), resp.bulk(None), 0, None)]
        if kind == "hget":
            h = rng.randrange(self.HASHES)
            field = b"f%d" % rng.randrange(4)
            got = self.hashes[h].get(field)
            return [_Cmd(resp.command(b"HGET", b"h:%d" % h, field), resp.bulk(got), len(got or b""), None)]
        if kind == "exists":
            keys = [rng.choice((b"k:%d", b"h:%d", b"nokey:%d")) % rng.randrange(self.HASHES) for _ in range(rng.randint(1, 3))]
            present = sum(1 for k in keys if not k.startswith(b"nokey"))
            return [_Cmd(resp.command(b"EXISTS", *keys), resp.integer(present), 0, None)]
        if kind == "set":
            new = rng.randbytes(rng.randint(8, 64))
            return [
                _Cmd(resp.command(b"SET", key, new), resp.OK, len(new), None),
                _Cmd(resp.command(b"GET", key), resp.bulk(new), len(new), None),
                _Cmd(resp.command(b"SET", key, value), resp.OK, len(value), None),
            ]
        if kind == "hset":
            h = rng.randrange(self.HASHES)
            field, old = rng.choice(list(self.hashes[h].items()))
            new = rng.randbytes(rng.randint(8, 64))
            hkey = b"h:%d" % h
            return [
                _Cmd(resp.command(b"HSET", hkey, field, new), resp.integer(0), len(new), None),
                _Cmd(resp.command(b"HGET", hkey, field), resp.bulk(new), len(new), None),
                _Cmd(resp.command(b"HSET", hkey, field, old), resp.integer(0), len(old), None),
            ]
        if kind == "del":
            return [
                _Cmd(resp.command(b"DEL", key), resp.integer(1), 0, None),
                _Cmd(resp.command(b"EXISTS", key), resp.integer(0), 0, None),
                _Cmd(resp.command(b"SET", key, value), resp.OK, len(value), None),
            ]
        payload = rng.randbytes(rng.randint(8, 64))
        message = b"*3\r\n" + resp.bulk(b"message") + resp.bulk(self.CHANNEL) + resp.bulk(payload)
        return [_Cmd(resp.command(b"PUBLISH", self.CHANNEL, payload), resp.integer(1), 2 * len(payload), message)]

    def setup(self, port: int, check: Check) -> None:
        self.sub = Subscriber.connect(port, self.CHANNEL, check)
        self.sock = connect_raw(port)
        for frames, replies, count in self.preload:
            self.sock.sendall(frames)
            check_pipeline(recv_exact(self.sock, len(replies)), replies, count, check)

    def round(self, check: Check) -> tuple[int, int]:
        """One round, pipelined; returns (commands, payload bytes)."""
        sock, sub = self.sock, self.sub
        for batch in self.batches:
            sock.sendall(batch.frames)
            check_pipeline(recv_exact(sock, len(batch.replies)), batch.replies, batch.count, check)
            if batch.messages:
                sub.expect(batch.messages)
                sub.poll()
        sub.poll(wait=True)
        return len(self.cmds), self.round_payload

    def latency_round(self, check: Check, samples: list[int]) -> None:
        """One round with one command outstanding, each one timed."""
        sock, sub = self.sock, self.sub
        for cmd in self.cmds:
            t0 = perf_counter_ns()
            sock.sendall(cmd.frame)
            got = recv_exact(sock, len(cmd.reply))
            samples.append(perf_counter_ns() - t0)
            check_pipeline(got, cmd.reply, 1, check)
            if cmd.message:
                sub.expect((cmd.message,))
                sub.poll()
        sub.poll(wait=True)

    def close(self) -> None:
        for conn in (self.sock, self.sub):
            if conn is not None:
                conn.close()
        self.sock = self.sub = None


def _chunks(items: list, size: int):
    for i in range(0, len(items), size):
        yield items[i : i + size]


# -- helpers shared by the client-driven workloads ---------------------------


def plain(value):
    """A client reply as plain Python: int, bytes/None, list, or ('-', text)."""
    if isinstance(value, protocol.Integer):
        return value.value
    if isinstance(value, protocol.BulkString):
        return value.payload
    if isinstance(value, protocol.Array):
        if value.items is None:
            return None
        bulk = protocol.BulkString
        return [item.payload if type(item) is bulk else plain(item) for item in value.items]
    if isinstance(value, protocol.Error):
        return ("-", value.text)
    return ("+", value.text)


def matches(got, kind: str, want) -> bool:
    """Compare a plain reply with the model: exact, or as a set of members."""
    if kind == "set":
        return isinstance(got, list) and len(got) == len(want) and set(got) == want
    return got == want




# -- payload-cache ------------------------------------------------------------


class PayloadCache:
    """Large opaque blobs and wide packed-float rows through the client helpers.

    Every call goes through ``hset_blob``/``hget_blob``/``zadd_matrix``/
    ``zrangebyscore_matrix`` one at a time, as users call them. Each slot has
    two versions and each round overwrites every slot once, so the model is
    just which version each slot holds.
    """

    name = "payload-cache"
    BLOBS = 16
    MATRICES = 6

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.blobs = [(rng.randbytes(n), rng.randbytes(n)) for n in ladder(rng, self.BLOBS, 4096, 1 << 20)]
        self.blob_at = [(b"blob:%d" % (i % 4), b"part:%d" % i) for i in range(self.BLOBS)]
        self.matrices = []
        shares = itertools.cycle(WINDOW_SHARES)
        rows_ladder = ladder(rng, self.MATRICES, 16, 256)
        width_ladder = ladder(rng, self.MATRICES, 32, 384)
        for j, (rows, width) in enumerate(zip(rows_ladder, width_ladder)):
            versions, windows = [], []
            for _ in range(2):
                matrix = [
                    array("d", [rng.uniform(0, 1000)] + [rng.uniform(-1e6, 1e6) for _ in range(width - 1)])
                    for _ in range(rows)
                ]
                pairs = [(row[0], pack_row(row)) for row in matrix]
                versions.append(matrix)
                bounds = [score_window(rng, 0, 1000, next(shares)) for _ in range(2)]
                windows.append([(low, high, window(pairs, low, high)) for low, high in bounds])
            self.matrices.append((b"matrix:%d" % j, versions, windows, 4 + 8 * width))
        ops = [(kind, i) for i in range(self.BLOBS) for kind in ("hget", "hset", "hget")]
        ops += [(kind, j) for j in range(self.MATRICES) for kind in ("range0", "rewrite", "range1")]
        rng.shuffle(ops)
        self.ops = ops
        self.conn = None

    def setup(self, port: int, check: Check) -> None:
        self.conn = client.Connection(HOST, port, timeout=TIMEOUT_S)
        self.version = [0] * self.BLOBS
        self.matrix_version = [0] * self.MATRICES
        for (key, field), (blob, _) in zip(self.blob_at, self.blobs):
            check.expect(client.hset_blob(self.conn, key, field, blob) == 1, "preload hset_blob")
        for key, versions, _, _ in self.matrices:
            rows = versions[0]
            check.expect(client.zadd_matrix(self.conn, key, rows) == len(rows), "preload zadd_matrix")

    def _step(self, kind: str, i: int, check: Check, samples: list[int] | None) -> tuple[int, int]:
        """Run one op; returns (commands, payload bytes). Times each command
        into ``samples`` when given."""
        conn = self.conn
        t0 = perf_counter_ns()
        if kind == "hget":
            key, field = self.blob_at[i]
            want = self.blobs[i][self.version[i]]
            got = client.hget_blob(conn, key, field)
            check.expect(got == want, f"hget_blob {key!r} {field!r}: {len(got or b'')} bytes, want {len(want)}")
            ops, size = 1, len(want)
        elif kind == "hset":
            key, field = self.blob_at[i]
            self.version[i] ^= 1
            blob = self.blobs[i][self.version[i]]
            check.expect(client.hset_blob(conn, key, field, blob) == 0, "hset_blob overwrite")
            ops, size = 1, len(blob)
        elif kind == "rewrite":
            key, versions, _, member = self.matrices[i]
            self.matrix_version[i] ^= 1
            rows = versions[self.matrix_version[i]]
            check.expect(plain(conn.execute("DEL", key)) == 1, f"DEL {key!r}")
            if samples is not None:
                now = perf_counter_ns()
                samples.append(now - t0)
                t0 = now
            added = client.zadd_matrix(conn, key, rows)
            check.expect(added == len(rows), f"zadd_matrix {key!r}: {added}")
            ops, size = 2, len(rows) * member
        else:
            key, _, windows, member = self.matrices[i]
            low, high, want = windows[self.matrix_version[i]][kind == "range1"]
            rows = client.zrangebyscore_matrix(conn, key, low, high)
            ok = [pack_row(row) for row in rows] == want
            check.expect(ok, f"zrangebyscore_matrix {key!r} {low!r} {high!r}: {len(rows)} rows, want {len(want)}")
            ops, size = 1, len(want) * member
        if samples is not None:
            samples.append(perf_counter_ns() - t0)
        return ops, size

    def round(self, check: Check) -> tuple[int, int]:
        ops = size = 0
        for kind, i in self.ops:
            n, b = self._step(kind, i, check, None)
            ops += n
            size += b
        return ops, size

    def latency_round(self, check: Check, samples: list[int]) -> None:
        for kind, i in self.ops:
            self._step(kind, i, check, samples)

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


# -- collections ----------------------------------------------------------------


class Collections:
    """Sets, lists and sorted sets with 10^2..10^4 members per command.

    Commands go through ``Connection.send_command``/``read_reply`` in
    pipelined batches of ``DEPTH``; narrow matrices go through the
    ``zadd_matrix``/``zrangebyscore_matrix`` helpers between batches.
    """

    name = "collections"
    DEPTH = 8
    UNIVERSE = 20_000
    LOW, HIGH = 100, 10_000

    def __init__(self, seed: int):
        rng = random.Random(seed)
        universe = list(dict.fromkeys(b"%016x" % rng.getrandbits(64) for _ in range(self.UNIVERSE)))
        # Preloaded keys in ladder order: s:0 is the smallest set, s:5 the largest.
        self.sets = [set(rng.sample(universe, n)) for n in ladder(rng, 6, self.LOW, self.HIGH)]
        self.lists = [[rng.randbytes(rng.randint(4, 24)) for _ in range(n)] for n in ladder(rng, 3, self.LOW, self.HIGH)]
        self.zsets = [self._pairs(rng, rng.sample(universe, n), i % 2 == 0) for i, n in enumerate(ladder(rng, 3, self.LOW, self.HIGH))]
        preload = [((b"SADD", b"s:%d" % i, *sorted(s)), len(s)) for i, s in enumerate(self.sets)]
        preload += [((b"LPUSH", b"l:%d" % i, *items), len(items)) for i, items in enumerate(self.lists)]
        preload += [((b"ZADD", b"z:%d" % i, *self._zadd_args(p)), len(p)) for i, p in enumerate(self.zsets)]
        self.preload = preload
        # LPUSH makes each value the new head, so the model list is reversed.
        self.list_model = [items[::-1] for items in self.lists]

        self._shares = itertools.cycle(WINDOW_SHARES)
        units = [self._sadd_unit(rng, universe, k, n) for k, n in enumerate(ladder(rng, 4, self.LOW, self.HIGH))]
        units += [self._lpush_unit(rng, n) for n in ladder(rng, 3, self.LOW, self.HIGH)]
        units += [self._zadd_unit(rng, universe, k, n) for k, n in enumerate(ladder(rng, 3, self.LOW, self.HIGH))]
        units += [self._matrix_unit(rng, n) for n in ladder(rng, 2, self.LOW, 3000)]
        units += [
            self._set_read(b"SINTER", 5, 4), self._set_read(b"SUNION", 3, 5), self._set_read(b"SDIFF", 5, 2),
            self._lrange_read(rng, 2), self._lrange_read(rng, 1), self._zrange_read(rng, 2), self._zrange_read(rng, 1),
        ]
        rng.shuffle(units)
        # Steps: ("pipe", [(argv, kind, want, payload)...]) or ("matrix", ...).
        self.steps = []
        pipe = []
        for unit in units:
            for item in unit:
                if item[0] == "matrix":
                    if pipe:
                        self.steps.append(("pipe", pipe))
                        pipe = []
                    self.steps.append(item)
                    continue
                pipe.append(item)
                if len(pipe) == self.DEPTH:
                    self.steps.append(("pipe", pipe))
                    pipe = []
        if pipe:
            self.steps.append(("pipe", pipe))
        self.conn = None

    @staticmethod
    def _pairs(rng, members, ties: bool):
        # Integer scores with many ties on some keys, so member order matters.
        if ties:
            top = max(1, len(members) // 8)
            return [(float(rng.randint(0, top)), m) for m in members]
        return [(rng.uniform(-1e4, 1e4), m) for m in members]

    @staticmethod
    def _zadd_args(pairs):
        args = []
        for score, member in pairs:
            args += [b"%d" % score if score.is_integer() else score_text(score), member]
        return args

    def _sadd_unit(self, rng, universe, k, n):
        members = rng.sample(universe, n)
        group = set(members)
        a, b, c = 5 - k, 4 - k, 3 - k
        inter, union, diff = group & self.sets[a], group | self.sets[b], group - self.sets[c]
        return [
            ((b"SADD", b"tmp:set", *members), "exact", n, sum(map(len, members))),
            ((b"SINTER", b"tmp:set", b"s:%d" % a), "set", inter, sum(map(len, inter))),
            ((b"SUNION", b"tmp:set", b"s:%d" % b), "set", union, sum(map(len, union))),
            ((b"SDIFF", b"tmp:set", b"s:%d" % c), "set", diff, sum(map(len, diff))),
            ((b"DEL", b"tmp:set"), "exact", 1, 0),
        ]

    def _lpush_unit(self, rng, n):
        values = [rng.randbytes(rng.randint(4, 24)) for _ in range(n)]
        unit = [((b"LPUSH", b"tmp:list", *values), "exact", n, sum(map(len, values)))]
        for _ in range(2):
            unit.append(self._lrange(rng, b"tmp:list", values[::-1]))
        return unit + [((b"DEL", b"tmp:list"), "exact", 1, 0)]

    def _lrange(self, rng, key, model):
        start, stop = index_window(rng, len(model), next(self._shares))
        want = lrange_model(model, start, stop)
        return ((b"LRANGE", key, b"%d" % start, b"%d" % stop), "exact", want, sum(map(len, want)))

    def _zrange(self, rng, key, pairs):
        low, high = score_window(rng, min(pairs)[0], max(pairs)[0], next(self._shares))
        want = window(pairs, low, high)
        return ((b"ZRANGEBYSCORE", key, low, high), "exact", want, sum(map(len, want)))

    def _zadd_unit(self, rng, universe, k, n):
        pairs = self._pairs(rng, rng.sample(universe, n), k % 2 == 0)
        unit = [((b"ZADD", b"tmp:zset", *self._zadd_args(pairs)), "exact", n, sum(len(m) for _, m in pairs))]
        unit += [self._zrange(rng, b"tmp:zset", pairs) for _ in range(2)]
        return unit + [((b"DEL", b"tmp:zset"), "exact", 1, 0)]

    def _matrix_unit(self, rng, rows):
        width = rng.randint(2, 4)
        matrix = [[rng.uniform(-1e3, 1e3) for _ in range(width)] for _ in range(rows)]
        pairs = [(row[0], pack_row(row)) for row in matrix]
        low, high = score_window(rng, -1e3, 1e3, next(self._shares))
        return [
            ("matrix", matrix, low, high, window(pairs, low, high), 4 + 8 * width),
            ((b"DEL", b"tmp:matrix"), "exact", 1, 0),
        ]

    def _set_read(self, name, a, b):
        op = {b"SINTER": set.intersection, b"SUNION": set.union, b"SDIFF": set.difference}[name]
        want = op(self.sets[a], self.sets[b])
        return [((name, b"s:%d" % a, b"s:%d" % b), "set", want, sum(map(len, want)))]

    def _lrange_read(self, rng, i):
        return [self._lrange(rng, b"l:%d" % i, self.list_model[i])]

    def _zrange_read(self, rng, i):
        return [self._zrange(rng, b"z:%d" % i, self.zsets[i])]

    def setup(self, port: int, check: Check) -> None:
        self.conn = client.Connection(HOST, port, timeout=TIMEOUT_S)
        for argv, _ in self.preload:
            self.conn.send_command(*argv)
        for argv, want in self.preload:
            got = plain(self.conn.read_reply())
            check.expect(got == want, f"preload {argv[0]!r} {argv[1]!r}: {got!r}")

    def _matrix(self, step, check: Check, samples: list[int] | None) -> int:
        _, matrix, low, high, want, member = step
        t0 = perf_counter_ns()
        added = client.zadd_matrix(self.conn, b"tmp:matrix", matrix)
        t1 = perf_counter_ns()
        rows = client.zrangebyscore_matrix(self.conn, b"tmp:matrix", low, high)
        if samples is not None:
            samples += [t1 - t0, perf_counter_ns() - t1]
        check.expect(added == len(matrix), f"zadd_matrix: {added}")
        ok = [pack_row(row) for row in rows] == want
        check.expect(ok, f"zrangebyscore_matrix {low!r} {high!r}: {len(rows)} rows, want {len(want)}")
        return (len(matrix) + len(want)) * member

    @staticmethod
    def _check(reply, argv, kind, want, check: Check) -> None:
        got = plain(reply)
        if matches(got, kind, want):
            check.record(1)
        else:
            shown = f"{len(got)} items" if isinstance(got, list) else repr(got)
            check.record(1, 1, f"{argv[0]!r} {argv[1]!r}: got {shown}")

    def round(self, check: Check) -> tuple[int, int]:
        conn = self.conn
        ops = size = 0
        for step in self.steps:
            if step[0] == "matrix":
                size += self._matrix(step, check, None)
                ops += 2
                continue
            for argv, _, _, _ in step[1]:
                conn.send_command(*argv)
            for argv, kind, want, payload in step[1]:
                self._check(conn.read_reply(), argv, kind, want, check)
                size += payload
            ops += len(step[1])
        return ops, size

    def latency_round(self, check: Check, samples: list[int]) -> None:
        conn = self.conn
        for step in self.steps:
            if step[0] == "matrix":
                self._matrix(step, check, samples)
                continue
            for argv, kind, want, _ in step[1]:
                t0 = perf_counter_ns()
                conn.send_command(*argv)
                reply = conn.read_reply()
                samples.append(perf_counter_ns() - t0)
                self._check(reply, argv, kind, want, check)

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


WORKLOADS = {w.name: w for w in (KvSmall, PayloadCache, Collections)}
