"""miniredis-server with the benchmark's span wrappers installed.

Usage: traced_server.py SPAN_FILE [miniredis-server options]

Each SIGUSR1 opens the next measured phase (1, 2, ...) and SIGUSR2 stops
recording, so spans carry the phase they belong to and pre-loading the
keyspace records nothing. Spans are written to SPAN_FILE when the server
exits after SIGTERM.
"""

import signal
import sys

from tracing import Tracer, install_server_wrappers


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install_server_wrappers(tracer)
    signal.signal(signal.SIGUSR1, lambda *_: setattr(tracer, "phase", tracer.phase + 1))
    signal.signal(signal.SIGUSR2, lambda *_: setattr(tracer, "phase", 0))
    from miniredis import server

    try:
        return server.main(argv)
    finally:
        tracer.phase = 0
        tracer.dump(span_file)


if __name__ == "__main__":
    sys.exit(main())
