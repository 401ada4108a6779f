"""Per-layer metrics from recorded spans, and the probe that fills gaps.

A layer's self time is its spans' duration minus the time covered by their
direct child spans. Each metric is taken over the traced throughput phase
(``server.queue_wait_us`` over the one-at-a-time latency phase, where a
reply waits only for the writer). A workload that never calls a layer, such
as ``payload-cache`` and pub/sub, takes that layer's figure from the probe:
a short fixed mix, run after the workload, that calls every layer.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass

import resp
import workloads
from miniredis import client

MIB = 1 << 20
PROBE_ROUNDS = 200
# The traced run's phases, numbered from 1 in this order.
PHASES = ("throughput", "latency", "probe")


@dataclass
class Totals:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    n: int = 0
    nbytes: int = 0


def summarize(arrays, names):
    """Per phase: totals per span name, and the summed duration of the
    top-level spans. Missing phases and names read as zero totals."""
    sids, parents, starts, ends = arrays["sid"], arrays["parent"], arrays["start"], arrays["end"]
    child_ns: dict[int, int] = {}
    for parent, start, end in zip(parents, starts, ends):
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
    totals: dict[int, dict[str, Totals]] = defaultdict(lambda: defaultdict(Totals))
    top_ns: dict[int, int] = defaultdict(int)
    for sid, nid, parent, phase, start, end, n, nbytes in zip(
        sids, arrays["name"], parents, arrays["phase"], starts, ends, arrays["n"], arrays["nbytes"]
    ):
        t = totals[phase][names[nid]]
        duration = end - start
        t.calls += 1
        t.total_ns += duration
        t.self_ns += duration - child_ns.get(sid, 0)
        t.n += n
        t.nbytes += nbytes
        if parent < 0:
            top_ns[phase] += duration
    return totals, top_ns


def _ratio(num, den, scale=1.0):
    return num * scale / den if den else None


def _metrics(srv: dict[str, Totals], cli: dict[str, Totals], waits: list[int], loop_ns):
    """Every per-layer metric for one phase; None where the layer was idle.

    ``srv`` and ``cli`` map span names to totals and hand out zero totals
    for names with no spans.
    """
    decode, encode, dispatch = srv["protocol.decode"], srv["protocol.encode"], srv["router.dispatch"]
    us = 1e-3
    out = {
        "protocol.decode_us_per_cmd": (_ratio(decode.self_ns, decode.n, us), "us"),
        "protocol.decode_us_per_mib": (_ratio(decode.self_ns, decode.nbytes / MIB, us), "us/MiB"),
        "protocol.encode_us_per_reply": (_ratio(encode.self_ns, encode.calls, us), "us"),
        "router.dispatch_self_us_per_cmd": (_ratio(dispatch.self_ns, dispatch.calls, us), "us"),
    }
    for family in ("string", "hash", "set", "list", "zset"):
        t = srv["datastore." + family]
        out[f"datastore.{family}_us_per_call"] = (_ratio(t.total_ns, t.calls, us), "us")
    zset = srv["datastore.zset"]
    out["datastore.zset_us_per_member"] = (_ratio(zset.total_ns, zset.n, us), "us")
    publish = srv["pubsub.publish"]
    out["pubsub.publish_us_per_msg"] = (_ratio(publish.total_ns, publish.calls, us), "us")
    out["server.reads_per_cmd"] = (_ratio(decode.calls, decode.n), "count")
    out["server.writes_per_reply"] = (_ratio(srv["server.write"].calls, encode.calls), "count")
    out["server.queue_wait_us"] = (statistics.fmean(waits) * us if waits else None, "us")
    out["server.loop_self_us_per_cmd"] = (
        _ratio(loop_ns, decode.n, us) if loop_ns is not None else None, "us")
    send, cdecode, rows = cli["client.send"], cli["client.decode"], cli["client.row_codec"]
    out["client.send_us_per_cmd"] = (_ratio(send.total_ns, send.calls, us), "us")
    out["client.decode_us_per_mib"] = (_ratio(cdecode.self_ns, cdecode.nbytes / MIB, us), "us/MiB")
    out["client.row_codec_us_per_row"] = (_ratio(rows.total_ns, rows.n, us), "us")
    return out


def layer_metrics(server_trace, client_trace, cpu_ns):
    """Per-layer metrics: throughput phase first, the probe where it is idle.

    ``cpu_ns`` is the server's CPU time over the throughput phase.
    """
    srv_names, srv = server_trace
    cli_names, cli = client_trace
    srv_totals, top_ns = summarize(srv, srv_names)
    cli_totals, _ = summarize(cli, cli_names)
    per_phase = {}
    for phase, label in enumerate(PHASES, 1):
        waits = [w for p, w in zip(srv["wait_phase"], srv["wait_ns"]) if p == phase]
        loop_ns = cpu_ns - top_ns[phase] if label == "throughput" else None
        per_phase[label] = _metrics(srv_totals[phase], cli_totals[phase], waits, loop_ns)
    metrics = {}
    for name, (_, unit) in per_phase["throughput"].items():
        first = "latency" if name == "server.queue_wait_us" else "throughput"
        value = per_phase[first][name][0]
        if value is None:
            value = per_phase["probe"][name][0]
        if value is None:
            raise RuntimeError(f"no spans for per-layer metric {name}")
        metrics[name] = (value, unit)
    print(f"spans server={len(srv['sid'])} client={len(cli['sid'])}")
    return metrics


def probe(port: int, check: workloads.Check) -> None:
    """A fixed small mix that calls every layer, replies checked as usual."""
    conn = client.Connection(workloads.HOST, port, timeout=workloads.TIMEOUT_S)
    sub = workloads.Subscriber.connect(port, b"probe:events", check)
    blob = bytes(range(256)) * 16
    rows = [[3.0, 1.5, -2.0], [1.0, 0.25, 8.0], [2.0, -0.5, 1e300]]
    packed = [workloads.pack_row(row) for row in sorted(rows)]  # distinct scores
    script = [
        (("SET", "probe:s", "v"), "OK"),
        (("GET", "probe:s"), b"v"),
        (("HSET", "probe:h", "f", "v"), 1),
        (("HGET", "probe:h", "f"), b"v"),
        (("SADD", "probe:set", "a", "b", "c"), 3),
        (("SINTER", "probe:set", "probe:set"), {b"a", b"b", b"c"}),
        (("LPUSH", "probe:list", "a", "b", "c"), 3),
        (("LRANGE", "probe:list", "0", "-1"), [b"c", b"b", b"a"]),
        (("PUBLISH", "probe:events", "ping"), 1),
        (("DEL", "probe:s", "probe:h", "probe:set", "probe:list"), 4),
    ]
    message = b"*3\r\n" + resp.bulk(b"message") + resp.bulk(b"probe:events") + resp.bulk(b"ping")
    try:
        for _ in range(PROBE_ROUNDS):
            for argv, want in script:
                got = workloads.plain(conn.execute(*argv))
                if isinstance(want, set):
                    ok = workloads.matches(got, "set", want)
                else:
                    ok = got == (("+", want) if isinstance(want, str) else want)
                check.expect(ok, f"probe {argv[0]}: {got!r}")
            sub.expect((message,))
            check.expect(client.hset_blob(conn, "probe:b", "f", blob) == 1, "probe hset_blob")
            check.expect(client.hget_blob(conn, "probe:b", "f") == blob, "probe hget_blob")
            check.expect(client.zadd_matrix(conn, "probe:m", rows) == 3, "probe zadd_matrix")
            got = client.zrangebyscore_matrix(conn, "probe:m", "-inf", "+inf")
            check.expect([workloads.pack_row(r) for r in got] == packed, "probe zrangebyscore_matrix")
            check.expect(workloads.plain(conn.execute("DEL", "probe:b", "probe:m")) == 2, "probe DEL")
        sub.poll(wait=True)
    finally:
        conn.close()
        sub.close()
