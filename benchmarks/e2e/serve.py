"""Run ``repro serve`` for one service-mix round, traced or not.

``run.py`` starts ``python benchmarks/e2e/serve.py PARAMS`` with
``PYTHONPATH=src`` (PARAMS as for ``worker.py``).  The server prints its
``serving on`` line once warm; on SIGINT it stops, and this launcher
prints one JSON line: the server's peak RSS and, when traced, its layer
metrics (the trace and layer table go to PARAMS' ``stem``), or else the
host-speed probes (``calibrate``) it ran from start to stop.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
from pathlib import Path

import calibrate
import workloads as bench
from worker import environment


def main() -> int:
    params = json.loads(sys.argv[1])
    # run.py stops the server with SIGINT, but a process started from a
    # non-interactive shell's background job inherits SIGINT ignored, and
    # the server would then never stop.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    collector = meter = None
    if params["trace"]:
        import repro.cli  # noqa: F401 - loads every module the wrappers patch
        import spans

        collector, missing = spans.install(Path(params["spool"]))
    else:
        meter = calibrate.Meter().start()
    from repro.cli import main as cli

    code = cli(["serve", "--port", "0", "--warm",
                "--workloads", ",".join(bench.SERVICE_APPS)])
    result = {
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": environment(),
    }
    if meter is not None:
        meter.stop()
        result.update(meter.reading())
    if collector is not None:
        result["layers"] = spans.finish(collector, None, Path(params["stem"]))
        result["missing_targets"] = missing
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
