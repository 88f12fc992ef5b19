"""Helpers shared by the workloads: statistics, set-up timing, fingerprint."""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up is measured this many times per run and reported as the median.
SETUP_REPEATS = 3

# Per-layer metrics of the traced run: (name, unit).  A layer a workload
# does not reach reads 0.
LAYER_METRICS = [
    ("service.handle_us", "us"),
    ("service.outside_app_us", "us"),
    ("service.plan_cache_hit_ratio", "ratio"),
    ("service.self_s", "s"),
    ("core.solve_us", "us"),
    ("core.solves", "count"),
    ("core.self_s", "s"),
    ("parallel.erlang_cache_hit_ratio", "ratio"),
    ("parallel.min_servers_grid_us", "us"),
    ("parallel.self_s", "s"),
    ("queueing.min_servers_calls", "count"),
    ("queueing.min_servers_points", "count"),
    ("queueing.min_servers_us_per_point", "us"),
    ("queueing.self_s", "s"),
    ("simulation.loss_network_s", "s"),
    ("simulation.arrivals", "count"),
    ("simulation.us_per_arrival", "us"),
    ("control.tick_us", "us"),
    ("control.ticks", "count"),
    ("control.self_s", "s"),
    ("experiments.fig11_s", "s"),
    ("experiments.ext-multiservice_s", "s"),
    ("experiments.ext-dynamic_s", "s"),
    ("experiments.self_s", "s"),
    ("setup.import_s", "s"),
]


def p90(ordered) -> float:
    """Nearest-rank 90th percentile of an ascending sequence."""
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def latency_metrics(seconds) -> dict:
    """``latency_p50_ms`` and ``latency_p90_ms`` of per-operation times."""
    ordered = sorted(seconds)
    return {
        "latency_p50_ms": (statistics.median(ordered) * 1e3, "ms"),
        "latency_p90_ms": (p90(ordered) * 1e3, "ms"),
    }


def windowed_metrics(done, t0: float, t1: float) -> dict:
    """Closed-loop metrics of ``(t_done, seconds)`` operations, per 1 s window.

    Each metric is the median over the complete 1 s windows of ``[t0, t1)``,
    so a burst of host noise that hits a few windows does not move it.  A
    window's throughput is its completions per second between its first
    and last completion.
    """
    windows: list[list[tuple[float, float]]] = [[] for _ in range(int(t1 - t0))]
    for t_done, seconds in done:
        k = int(t_done - t0)
        if k < len(windows):
            windows[k].append((t_done, seconds))
    if min(len(w) for w in windows) < 2:
        raise ValueError("a 1 s window completed fewer than two operations")
    durations = [sorted(s for _, s in w) for w in windows]
    return {
        "latency_p50_ms": (statistics.median(statistics.median(d) for d in durations) * 1e3, "ms"),
        "latency_p90_ms": (statistics.median(p90(d) for d in durations) * 1e3, "ms"),
        "throughput_per_s": (statistics.median((len(w) - 1) / (w[-1][0] - w[0][0]) for w in windows), "1/s"),
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def import_seconds(module: str) -> float:
    """Time of the first ``import module`` in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        f"import {module}; print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip())


def median_import_seconds(module: str) -> float:
    return statistics.median(import_seconds(module) for _ in range(SETUP_REPEATS))


def commit() -> str:
    """HEAD commit of the checkout, or ``unknown`` outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": commit(),
    }
