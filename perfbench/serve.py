"""Launch ``repro-serve`` from a bare checkout, optionally traced.

Usage: ``python3 perfbench/serve.py REPORT TRACE -- <repro-serve arguments>``

Puts the checkout's ``src/`` on the path, times the import of the server
module, installs the span wrappers of :mod:`tracing` when ``TRACE`` is
``1``, and calls :func:`repro.service.server.main`.  When the server has
shut down it writes ``REPORT`` (JSON: exit code, import time, peak RSS
and the recorded spans) and exits with the server's code.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    report_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        print("usage: serve.py REPORT 0|1 -- ARGS...", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    from repro.service import server

    import_s = time.perf_counter() - t0
    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    code = server.main(argv)
    report = {
        "exit": code,
        "import_s": import_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer else [],
    }
    Path(report_path).write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
