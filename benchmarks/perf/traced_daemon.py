"""Launcher for the traced ``serve_open`` run.

Does what ``python -m repro serve --shards 1`` does — one call to
``repro.service.daemon.serve_main`` — after wrapping the daemon's public
codec and service callables in span timers.  The totals are printed as a
``SPANS {json}`` line on SIGUSR1 (the generator asks at phase
boundaries and takes differences) and once more after the drain.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from envelope import SRC, apply_thread_pins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--shards", type=int, default=1, choices=[1])
    parser.add_argument("--window", type=float, default=0.005)
    parser.add_argument("--deadline", type=float, default=0.050)
    parser.add_argument("--max-inflight", type=int, default=4096)
    args = parser.parse_args(argv)

    apply_thread_pins()
    sys.path.insert(0, str(SRC))
    from layers import install_daemon
    from repro.service.daemon import serve_main
    from spans import Tracer

    tracer = Tracer()
    install_daemon(tracer)

    def dump(*_signal_args) -> None:
        sys.stdout.write("SPANS " + json.dumps(tracer.snapshot()) + "\n")
        sys.stdout.flush()

    signal.signal(signal.SIGUSR1, dump)
    try:
        code = serve_main(host=args.host, port=args.port,
                          batch_window_s=args.window,
                          deadline_s=args.deadline,
                          max_inflight=args.max_inflight, shards=1)
    finally:
        tracer.uninstall()
    dump()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
