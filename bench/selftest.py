"""Self-test of the benchmark's reply checks: corrupted replies must count as failed.

Usage (from the repository root): python3 bench/selftest.py

Each case feeds one correct and one deliberately corrupted reply through the
same check the workloads use, over a socket pair where bytes are involved,
and requires exactly the corrupted one to be counted as failed.
"""

from __future__ import annotations

import socket
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import resp  # noqa: E402
import workloads  # noqa: E402
from miniredis import protocol  # noqa: E402


def corrupt(data: bytes, offset: int) -> bytes:
    return data[:offset] + bytes([data[offset] ^ 0x01]) + data[offset + 1 :]


def pipeline_case() -> workloads.Check:
    """kv-small: three pipelined replies, the middle bulk string corrupted."""
    want = resp.OK + resp.bulk(b"value-123") + resp.integer(2)
    bad = corrupt(want, len(resp.OK) + 6)
    check = workloads.Check()
    left, right = socket.socketpair()
    with left, right:
        for sent in (want, bad):
            right.sendall(sent)
            workloads.check_pipeline(workloads.recv_exact(left, len(want)), want, 3, check)
    return check


def subscriber_case() -> workloads.Check:
    """kv-small: two deliveries, the second payload corrupted."""
    check = workloads.Check()
    left, right = socket.socketpair()
    sub = workloads.Subscriber(left, check)
    frames = [b"*3\r\n" + resp.bulk(b"message") + resp.bulk(b"ch") + resp.bulk(p) for p in (b"one", b"two")]
    with left, right:
        sub.expect(frames)
        right.sendall(frames[0] + corrupt(frames[1], len(frames[1]) - 3))
        sub.poll(wait=True)
    return check


def client_case() -> workloads.Check:
    """collections: a set-algebra reply and an LRANGE reply, one member corrupted each."""
    check = workloads.Check()
    members = [b"alpha", b"beta", b"gamma"]
    for kind, want in (("set", set(members)), ("exact", members)):
        for reply in (resp.array(members[::-1] if kind == "set" else members),
                      corrupt(resp.array(members), 12)):
            (value,) = protocol.StreamDecoder().feed(reply)
            check.expect(workloads.matches(workloads.plain(value), kind, want), f"{kind} reply")
    return check


def row_case() -> workloads.Check:
    """payload-cache: a packed row must come back bit-exact."""
    check = workloads.Check()
    row = [1.5, -0.0, 1e300]
    want = workloads.pack_row(row)
    for got in (row, [1.5, 0.0, 1e300]):  # -0.0 == 0.0, but not bit-exact
        check.expect(workloads.pack_row(got) == want, "packed row")
    return check


def main() -> int:
    cases = {
        "pipeline": (pipeline_case, 6, 1),
        "subscriber": (subscriber_case, 2, 1),
        "client": (client_case, 4, 2),
        "row": (row_case, 2, 1),
    }
    ok = True
    for name, (case, attempted, failed) in cases.items():
        check = case()
        good = (check.attempted, check.failed) == (attempted, failed)
        ok &= good
        print(f"{name}: attempted={check.attempted} failed={check.failed} "
              f"(want {attempted}/{failed}) {'ok' if good else 'WRONG'}")
    print("selftest", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
