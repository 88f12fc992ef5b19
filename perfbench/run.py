"""Benchmark of the consolidation planner: one workload per run, one JSON line out.

Usage::

    python3 perfbench/run.py --workload plan-hit --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

Runs from the root of a bare checkout: it puts ``src/`` on the path itself
and writes only under ``perfbench/_run/``, which it removes again.  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

from common import HERE, LAYER_METRICS, SRC, fingerprint

WORKLOADS = ("plan-hit", "plan-miss", "paper-des", "erlang-grid")
SELF_CHECK_SECONDS = 2


def run_workload(workload: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    run_dir = HERE / "_run" / f"{workload}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        if workload in ("plan-hit", "plan-miss"):
            import plan

            return plan.run(workload, seed, seconds, trace, run_dir)
        if workload == "paper-des":
            import des

            return des.run(seed, seconds, trace, quick)
        import grid

        return grid.run(seed, seconds, trace)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def result_line(result: dict, trace: bool) -> dict:
    if trace:
        layers = result["layers"]
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit} for name, unit in LAYER_METRICS}
    else:
        metrics = {name: {"value": float(v), "unit": u} for name, (v, u) in result["metrics"].items()}
    return {
        "correct": not result["problems"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def report(workload: str, result: dict, line: dict) -> None:
    """Human-readable lines ahead of the JSON result.

    A traced run prints its end-to-end figures too: their gap to an
    untraced run's is the tracing overhead.
    """
    print(f"workload {workload}: {result['attempted']} attempted, {result['failed']} failed; "
          f"{result['samples']} timed operations")
    for problem in result["problems"]:
        print(f"INCORRECT: {problem}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, unit in LAYER_METRICS if "layers" in result else ():
        print(f"  {name} = {result['layers'].get(name, 0.0):.6g} {unit}")


def self_check() -> int:
    """The reference tests, then every workload briefly, traced and not, all checks on.

    Each workload runs in its own process, as in a normal run, so imports,
    wrappers and peak memory of one run cannot leak into the next.
    """
    import test_reference

    for name in dir(test_reference):
        if name.startswith("test_"):
            getattr(test_reference, name)()
    print("reference tests passed")
    ok = True
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            t = time.monotonic()
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                 "--seconds", str(SELF_CHECK_SECONDS), "--trace", trace, "--quick"],
                capture_output=True, text=True, timeout=600,
            )
            lines = out.stdout.strip().splitlines()
            line = json.loads(lines[-1]) if out.returncode == 0 and lines else {}
            good = line.get("correct") is True and line.get("failed") == 0
            ok &= good
            print(f"{workload} trace={trace}: {'ok' if good else 'FAILED'} "
                  f"in {time.monotonic() - t:.1f} s")
            if not good:
                print(out.stdout + out.stderr)
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload briefly with all checks on")
    # paper-des with only its shortest experiment; used by --self-check.
    parser.add_argument("--quick", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no repro package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # SIGTERM unwinds like Ctrl-C, so every child process is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    line = result_line(result, bool(args.trace))
    report(args.workload, result, line)
    print("environment " + json.dumps(fingerprint(), sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
