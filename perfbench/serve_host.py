"""``repro serve`` with the benchmark's span probes installed.

Usage: ``python serve_host.py TRACE_DIR serve [repro serve flags...]``

Runs the program's own CLI entry point in this process after wrapping
its layer functions (see ``probes.py``).  Forked attempt workers write
their spans themselves; this process writes its own to
``TRACE_DIR/server.json`` once the service has drained and stopped.
"""

from __future__ import annotations

import sys

from probes import install
from tracing import Recorder


def main() -> int:
    trace_dir, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder(trace_dir)
    install(recorder, serve=True)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        recorder.dump("server.json")


if __name__ == "__main__":
    sys.exit(main())
