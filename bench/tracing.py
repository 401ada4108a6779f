"""Spans recorded around miniredis's public entry points, from outside it.

``Tracer.wrap`` replaces a function or method with one that records a span
(name, parent, phase, start, end, and two counts) while a phase is open.
Start and end are the thread's CPU clock, not the wall clock: on a shared
machine another tenant can hold the core in the middle of a span, and CPU
time leaves that out. Spans are appended to flat arrays in memory and
written out once, at the end. The same tracer runs in the server process
(see traced_server.py) and in the load generator, for the client layer.
"""

from __future__ import annotations

import asyncio
import functools
import json
from array import array
from collections import deque
from time import monotonic_ns, thread_time_ns

# Array typecodes, in the order they are written to a span file.
_FIELDS = (
    ("sid", "q"),
    ("name", "B"),
    ("parent", "q"),
    ("phase", "B"),
    ("start", "q"),
    ("end", "q"),
    ("n", "q"),
    ("nbytes", "q"),
    ("wait_phase", "B"),
    ("wait_ns", "q"),
)


def _one(args, result):
    return 1, 0


class Tracer:
    def __init__(self) -> None:
        # 0: not recording; otherwise the number of the measured phase.
        self.phase = 0
        self.names: list[str] = []
        self.arrays = {field: array(code) for field, code in _FIELDS}
        self._stack: list[int] = []
        self._next_sid = 0
        # Per StreamWriter: when each reply still in the session queue was queued.
        self.queued_at: dict[object, deque[int]] = {}

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span_fn(self, fn, name: str, measure=_one):
        """``fn`` wrapped so each call while a phase is open records one span."""
        nid = self._name_id(name)
        arrays, stack = self.arrays, self._stack
        sids, names, parents, phases = arrays["sid"], arrays["name"], arrays["parent"], arrays["phase"]
        starts, ends, ns, nbytes = arrays["start"], arrays["end"], arrays["n"], arrays["nbytes"]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            phase = self.phase
            if not phase:
                return fn(*args, **kwargs)
            sid = self._next_sid
            self._next_sid = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            start = thread_time_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = thread_time_ns()
                stack.pop()
                count, size = measure(args, result) if result is not None else (1, 0)
                sids.append(sid)
                names.append(nid)
                parents.append(parent)
                phases.append(phase)
                starts.append(start)
                ends.append(end)
                ns.append(count)
                nbytes.append(size)

        return traced

    def wrap(self, owner, attr: str, name: str, measure=_one) -> None:
        setattr(owner, attr, self.span_fn(getattr(owner, attr), name, measure))

    def dump(self, path) -> None:
        header = {
            "names": self.names,
            "lengths": {field: len(arr) for field, arr in self.arrays.items()},
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for field, _ in _FIELDS:
                self.arrays[field].tofile(handle)


def load(path) -> tuple[list[str], dict[str, array]]:
    """Read a file written by ``Tracer.dump``."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        arrays = {}
        for field, code in _FIELDS:
            arr = array(code)
            arr.fromfile(handle, header["lengths"][field])
            arrays[field] = arr
    return header["names"], arrays


# -- where the spans go -----------------------------------------------------

DATASTORE_FAMILIES = {
    "string": ("set", "get"),
    "hash": ("hset", "hget", "hexists", "hdel"),
    "set": ("sadd", "srem", "sinter", "sunion", "sdiff"),
    "list": ("lpush", "llen", "lindex", "lrange"),
    "keyspace": ("delete", "exists", "flushall"),
}


def install_server_wrappers(tracer: Tracer) -> None:
    """Wrap every server-side layer; call before the server starts."""
    from miniredis import datastore, protocol, pubsub, router, server

    tracer.wrap(
        protocol.RequestDecoder, "feed", "protocol.decode",
        lambda args, result: (len(result), len(args[1])),
    )
    tracer.wrap(router.Router, "dispatch", "router.dispatch")
    # server.py encodes replies and pub/sub frames through its own `encode` name.
    tracer.wrap(server, "encode", "protocol.encode", lambda args, result: (1, len(result)))
    for family, methods in DATASTORE_FAMILIES.items():
        for method in methods:
            tracer.wrap(datastore.KeyStore, method, "datastore." + family)
    tracer.wrap(
        datastore.KeyStore, "zadd", "datastore.zset", lambda args, result: (len(args[2]), 0)
    )
    tracer.wrap(
        datastore.KeyStore, "zrangebyscore", "datastore.zset",
        lambda args, result: (len(result), 0),
    )
    tracer.wrap(pubsub.Broker, "publish", "pubsub.publish")

    traced_send = tracer.span_fn(server.Session.send_bytes, "server.send_bytes")

    def send_bytes(session, data):
        before = session.queue.qsize()
        traced_send(session, data)
        if session.queue.qsize() > before:
            tracer.queued_at.setdefault(session.writer, deque()).append(monotonic_ns())

    server.Session.send_bytes = send_bytes

    traced_write = tracer.span_fn(asyncio.StreamWriter.write, "server.write")
    wait_phase, wait_ns = tracer.arrays["wait_phase"], tracer.arrays["wait_ns"]

    def write(writer, data):
        queued = tracer.queued_at.get(writer)
        if queued:
            since = queued.popleft()
            if tracer.phase:
                wait_phase.append(tracer.phase)
                wait_ns.append(monotonic_ns() - since)
        return traced_write(writer, data)

    asyncio.StreamWriter.write = write


def install_client_wrappers(tracer: Tracer) -> None:
    """Wrap the client layer inside the load generator's own process."""
    from miniredis import client, protocol

    tracer.wrap(client.Connection, "send_command", "client.send")
    tracer.wrap(
        protocol.StreamDecoder, "feed", "client.decode",
        lambda args, result: (len(result), len(args[1])),
    )
    tracer.wrap(client, "encode_row", "client.row_codec")
    tracer.wrap(client, "decode_row", "client.row_codec")
    for helper in ("hset_blob", "hget_blob", "zadd_matrix", "zrangebyscore_matrix"):
        tracer.wrap(client, helper, "client.helper")
