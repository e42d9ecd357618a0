"""The ``serve-read`` server process: ``repro.server`` on an OS-assigned port.

Run as ``python3 perfbench/serve.py --ready-file F --result-file R
[--trace]`` from the repository root.  It binds ``127.0.0.1:0``, writes
``host:port`` to the ready file (atomically), and serves until SIGTERM or
SIGINT.  On the way out it writes the result file: its own peak RSS, the
message-log fault counters of every served cluster and, with ``--trace``,
its spans (the wrappers are installed before the app is built).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ready-file", required=True)
    parser.add_argument("--result-file", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))

    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())

    tracer = None
    if args.trace:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer, server=True)

    from repro.server import create_app, serve_background

    app = create_app()
    server, thread = serve_background(app)
    try:
        host, port = server.server_address[:2]
        partial = args.ready_file + ".tmp"
        with open(partial, "w", encoding="utf-8") as handle:
            handle.write(f"{host}:{port}\n")
        os.replace(partial, args.ready_file)
        stop.wait()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)
    faults = {}
    for served in app.manager.clusters():
        log = served.cluster.network.message_log
        faults[served.name] = {
            "dropped": log.dropped, "duplicated": log.duplicated, "delayed": log.delayed
        }
    app.manager.close()
    result = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "faults": faults,
    }
    if tracer is not None:
        result["spans"] = [span.as_dict() for span in tracer.spans]
        result["counters"] = tracer.counters
    partial = args.result_file + ".tmp"
    with open(partial, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    os.replace(partial, args.result_file)
    return 0


if __name__ == "__main__":
    sys.exit(main())
