"""miniredis benchmark: one workload against a real server process.

Usage (from the repository root):

    python3 bench/run.py --workload kv-small --seed 1 --seconds 20 --trace 0

The server is ``python -m miniredis.server`` (the ``miniredis-server`` entry
point) run from ``src/`` on an ephemeral loopback port, in its own process.
The load generator is this single process, with at most two connections and
no extra threads. All load is closed loop.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the workload
once untraced and once against a server with span wrappers installed, and
prints the per-layer metrics plus the tracing overhead. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
THROUGHPUT_SHARE = 0.6  # of --seconds in a traced run; the latency phase gets the rest
MIB = 1 << 20


class ServerProcess:
    """One miniredis-server process; its log tells the ephemeral port."""

    def __init__(self, rundir: Path, tag: str, traced: bool):
        self.log_path = rundir / f"server-{os.getpid()}-{tag}.log"
        self.span_path = rundir / f"spans-{os.getpid()}-{tag}.bin"
        env = os.environ.copy()
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        args = ["--port", "0", "--loglevel", "notice"]
        if traced:
            cmd = [sys.executable, str(ROOT / "bench" / "traced_server.py"), str(self.span_path)]
        else:
            cmd = [sys.executable, "-m", "miniredis.server"]
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                cmd + args, stdout=subprocess.DEVNULL, stderr=log, env=env, cwd=ROOT
            )
        try:
            self.port = self._wait_for_port()
        except BaseException:
            self.stop()
            raise

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            text = self.log_path.read_text(errors="replace")
            found = re.search(r"listening on \S+?:(\d+)", text)
            if found:
                return int(found.group(1))
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited during start-up:\n{text}")
            time.sleep(0.001)
        raise RuntimeError("server did not report its port within 30 s")

    def cpu_ns(self) -> int:
        """CPU time of the server's event-loop thread, in ns.

        /proc/<pid>/schedstat holds the same user plus system time as the
        utime and stime fields of /proc/<pid>/stat, at nanosecond rather than
        10 ms resolution, which a round of a few tens of ms needs.
        """
        with open(f"/proc/{self.proc.pid}/schedstat") as handle:
            return int(handle.read().split()[0])

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM missing from /proc status")

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def stop(self) -> None:
        """SIGTERM (the server flushes and exits), then wait; kill if stuck."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log_path.unlink(missing_ok=True)


def start_server(workload, rundir, check, tag, traced=False):
    """Launch a server and pre-load it; returns (server, seconds taken)."""
    t0 = time.perf_counter()
    server = ServerProcess(rundir, tag, traced)
    try:
        workload.setup(server.port, check)
    except BaseException:
        workload.close()
        server.stop()
        raise
    return server, time.perf_counter() - t0


def throughput_round(workload, server, check):
    """One pipelined round: (commands, payload bytes, seconds, server CPU ns)."""
    cpu0, t0 = server.cpu_ns(), time.perf_counter()
    ops, size = workload.round(check)
    return ops, size, time.perf_counter() - t0, server.cpu_ns() - cpu0


def throughput_phase(workload, server, seconds, check):
    """Pipelined rounds until ``seconds`` have passed, always whole rounds."""
    rounds = []
    deadline = time.monotonic() + seconds
    while True:
        rounds.append(throughput_round(workload, server, check))
        if time.monotonic() >= deadline:
            return rounds


def latency_phase(workload, seconds, check) -> list[int]:
    """Rounds with one command outstanding; each command's latency in ns."""
    samples: list[int] = []
    deadline = time.monotonic() + seconds
    while True:
        workload.latency_round(check, samples)
        if time.monotonic() >= deadline:
            return samples


def interleaved(workload, server, seconds, check):
    """Alternate pipelined and one-at-a-time rounds until ``seconds`` pass.

    Both kinds of round then sample the whole run, so a slow spell of the
    shared machine weighs on both alike instead of on whichever phase it hit.
    """
    rounds, samples = [], []
    deadline = time.monotonic() + seconds
    while True:
        rounds.append(throughput_round(workload, server, check))
        workload.latency_round(check, samples)
        if time.monotonic() >= deadline:
            return rounds, samples


def throughput(rounds) -> tuple[float, float, float]:
    """Commands/s, payload MiB/s and server CPU us per command over all rounds."""
    ops = sum(r[0] for r in rounds)
    seconds = sum(r[2] for r in rounds)
    return ops / seconds, sum(r[1] for r in rounds) / MIB / seconds, sum(r[3] for r in rounds) / 1000 / ops


def plain_run(workload, rundir, seconds, check):
    """Set up several times, then the throughput and latency phases."""
    setups = []
    for i in range(SETUP_REPEATS):
        server, took = start_server(workload, rundir, check, f"setup{i}")
        setups.append(took)
        if i < SETUP_REPEATS - 1:
            workload.close()
            server.stop()
    try:
        rounds, samples = interleaved(workload, server, seconds, check)
        rss = server.peak_rss_mib()
    finally:
        workload.close()
        server.stop()
    p99 = statistics.quantiles(samples, n=100, method="inclusive")[98]
    beyond = sum(1 for s in samples if s > p99)
    # p99 is printed for reference only: collections has too few samples (README).
    print(
        f"latency_p99_us={p99 / 1000:.1f} samples={len(samples)} beyond_p99={beyond}"
        f" rounds={len(rounds)} setups_s={[round(s, 4) for s in setups]}"
    )
    ops_per_s, mib_per_s, cpu_us = throughput(rounds)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ops_per_s, "ops/s"),
        "payload_mib_s": (mib_per_s, "MiB/s"),
        "latency_p50_us": (statistics.median(samples) / 1000, "us"),
        "server_cpu_us_per_op": (cpu_us, "us"),
        "server_rss_mib": (rss, "MiB"),
    }


def traced_run(workload, rundir, seconds, check):
    """An untraced pass for reference, then the same phases traced."""
    import layers
    import tracing

    server, _ = start_server(workload, rundir, check, "untraced")
    try:
        reference = throughput_phase(workload, server, seconds * THROUGHPUT_SHARE, check)
    finally:
        workload.close()
        server.stop()

    tracer = tracing.Tracer()
    tracing.install_client_wrappers(tracer)
    server, _ = start_server(workload, rundir, check, "traced", traced=True)

    def next_phase():
        server.signal(signal.SIGUSR1)
        tracer.phase += 1

    try:
        next_phase()
        rounds = throughput_phase(workload, server, seconds * THROUGHPUT_SHARE, check)
        next_phase()
        latency_phase(workload, seconds * (1 - THROUGHPUT_SHARE), check)
        workload.close()
        next_phase()
        layers.probe(server.port, check)
        tracer.phase = 0
        server.signal(signal.SIGUSR2)
    finally:
        workload.close()
        server.stop()
    server_trace = tracing.load(server.span_path)
    server.span_path.unlink()
    metrics = layers.layer_metrics(server_trace, (tracer.names, tracer.arrays), sum(r[3] for r in rounds))
    traced, untraced = throughput(rounds)[0], throughput(reference)[0]
    metrics["trace.overhead_pct"] = ((untraced / traced - 1) * 100, "%")
    print(f"untraced_ops_per_s={untraced:.1f} traced_ops_per_s={traced:.1f}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "miniredis" / "server.py").is_file():
        print(f"bench: no miniredis sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # SIGTERM unwinds through the `finally` blocks that stop the server.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    rundir = ROOT / ".bench_run"
    rundir.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    check = workloads.Check()
    run = traced_run if args.trace else plain_run
    metrics = run(workload, rundir, args.seconds, check)
    for note in check.notes:
        print(f"FAILED: {note}", file=sys.stderr)
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
