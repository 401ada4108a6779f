"""The benchmark's tracer still finds the server and client code it wraps.

``bench/tracing.py`` wraps miniredis functions by name from outside
``src/``, and the benchmark refuses a run in which a per-layer metric has
no spans. This test installs both sets of wrappers, drives one SUBSCRIBE and
one PUBLISH through a real server, and checks that the spans the pub/sub and
session metrics are built from were recorded, so a change that moves one of
those seams fails here rather than only in a traced benchmark run.
"""

from __future__ import annotations

import asyncio
import importlib.util
from pathlib import Path

from miniredis import client, datastore, protocol, pubsub, router, server
from miniredis.client import Connection
from miniredis.protocol import Array, BulkString, Integer
from miniredis.server import ServerThread

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _restore_wrapped_attributes(monkeypatch) -> None:
    """Have monkeypatch put back every function of the objects the tracer
    wraps, so the wrappers do not outlive this test."""
    owners = [
        asyncio.StreamWriter, client, client.Connection, datastore, datastore.KeyStore,
        protocol, protocol.RequestDecoder, protocol.StreamDecoder, pubsub, pubsub.Broker,
        router, router.Router, server, server.Session,
    ]
    for owner in owners:
        for name, value in list(vars(owner).items()):
            if callable(value) and not name.startswith("__"):
                monkeypatch.setattr(owner, name, value)


def test_tracer_records_every_pubsub_and_session_seam(monkeypatch):
    tracing = _load_tracing()
    _restore_wrapped_attributes(monkeypatch)
    tracer = tracing.Tracer()
    tracing.install_server_wrappers(tracer)
    tracing.install_client_wrappers(tracer)
    tracer.phase = 1
    with ServerThread() as srv:
        with Connection(srv.host, srv.port) as sub, Connection(srv.host, srv.port) as pub:
            sub.send_command("SUBSCRIBE", "ch")
            assert sub.read_reply() == Array(
                (BulkString(b"subscribe"), BulkString(b"ch"), Integer(1))
            )
            assert pub.execute("PUBLISH", "ch", "x") == Integer(1)
            assert sub.read_reply() == Array(
                (BulkString(b"message"), BulkString(b"ch"), BulkString(b"x"))
            )
    tracer.phase = 0
    recorded = {tracer.names[nid] for nid in tracer.arrays["name"]}
    expected = {
        "protocol.encode", "server.send_bytes", "server.write", "router.dispatch", "pubsub.publish"
    }
    assert expected <= recorded, expected - recorded
    assert len(tracer.arrays["wait_ns"]) >= 1
