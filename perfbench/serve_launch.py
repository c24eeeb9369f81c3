"""Launch ``repro serve`` in this process, optionally traced.

Usage::

    python3 serve_launch.py PACE.json [--trace-out SPANS.json] serve ARGS...

SIGINT is reset to raise ``KeyboardInterrupt`` (a parent started in the
background may have left it ignored), which is how ``run_server`` shuts
down cleanly.  The server is pinned to one CPU and a pace meter
(pace.py) samples its speed from the first line; the samples are
written to PACE.json when the server stops.  With ``--trace-out`` the layer wrappers, the
live-engine and service ones included, are installed before the server
starts, and the spans are written out after it stops.
"""

from __future__ import annotations

import signal
import sys

from pace import PINNED_PERIOD_S, PaceMeter, pin_to_one_cpu


def main(argv) -> int:
    pin_to_one_cpu()
    meter = PaceMeter(PINNED_PERIOD_S).start()
    signal.signal(signal.SIGINT, signal.default_int_handler)
    pace_out, argv = argv[0], argv[1:]
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    try:
        from repro.cli import main as cli_main

        if trace_out is None:
            return cli_main(argv)

        import tracing

        recorder = tracing.SpanRecorder()
        installation = tracing.install(recorder, service=True)
        try:
            return cli_main(argv)
        finally:
            installation.uninstall()
            recorder.dump(trace_out)
    finally:
        meter.stop()
        meter.dump(pace_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
