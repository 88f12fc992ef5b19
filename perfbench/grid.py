"""``erlang-grid``: the public batched ``repro.queueing.min_servers`` on large grids.

Each batch is a seeded ``(B, rho)`` outer grid: :data:`TARGETS` blocking
targets, log-uniform in 1e-4..1e-1, against :data:`LOADS` offered loads,
uniform in 0.01..2000 Erlangs (a fleet of one to about two thousand hosts),
solved in one call.
"""

from __future__ import annotations

import resource
import statistics
import sys
import time

import numpy as np

import reference
import tracing
from common import latency_metrics, median_import_seconds

TARGETS = 5
LOADS = 4000
SAMPLED = 40  # points per batch checked against the reference recurrence


def batch(seed: int, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Loads ascending (shape ``(1, LOADS)``), targets descending (``(TARGETS, 1)``)."""
    rng = np.random.default_rng([seed, index])
    rho = np.sort(rng.uniform(0.01, 2000.0, LOADS))
    target = np.sort(10.0 ** rng.uniform(-4.0, -1.0, TARGETS))[::-1]
    return rho[None, :], target[:, None].copy()


def check(seed: int, index: int, rho, target, counts) -> list[str]:
    problems = []
    if counts.shape != (TARGETS, LOADS):
        return [f"batch {index}: shape {counts.shape}, expected {(TARGETS, LOADS)}"]
    if (np.diff(counts, axis=1) < 0).any():
        problems.append(f"batch {index}: a count decreases as the load rises")
    if (np.diff(counts, axis=0) < 0).any():
        problems.append(f"batch {index}: a count increases as the blocking target rises")
    pick = np.random.default_rng([seed, index, 1])
    for i, j in zip(pick.integers(0, TARGETS, SAMPLED), pick.integers(0, LOADS, SAMPLED)):
        want = reference.min_servers(float(rho[0, j]), float(target[i, 0]))
        if counts[i, j] != want:
            problems.append(f"batch {index}: rho={rho[0, j]!r} B={target[i, 0]!r} gives {counts[i, j]}, reference {want}")
    return problems


def run(seed: int, seconds: float, trace: bool) -> dict:
    setup_s = median_import_seconds("repro.queueing")
    t0 = time.perf_counter()
    import repro.queueing as queueing

    import_s = time.perf_counter() - t0
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    done = []
    times: list[float] = []
    attempted = failed = 0
    problems: list[str] = []
    deadline = time.monotonic() + seconds
    index = 0
    while not done or time.monotonic() < deadline:
        rho, target = batch(seed, index)
        attempted += rho.size * target.size
        t = time.perf_counter()
        try:
            counts = queueing.min_servers(rho, target)
        except Exception as exc:  # a batch that raises fails all its points
            failed += rho.size * target.size
            print(f"failed: batch {index} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            counts = None
        times.append(time.perf_counter() - t)
        # Counts stay below 2**16 here; keeping them compact holds the
        # run's memory nearly independent of how many batches it finished.
        done.append(counts if counts is None or counts.max() >= 2**16 else counts.astype(np.uint16))
        index += 1

    for index, counts in enumerate(done):
        if counts is not None:
            problems.extend(check(seed, index, *batch(seed, index), counts))

    out = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            **latency_metrics(times),
            # Every call solves the same number of points; the median call
            # rate is robust to a burst of host noise during a few calls.
            "throughput_per_s": (TARGETS * LOADS / statistics.median(times), "1/s"),
        },
        "samples": len(done),
    }
    if trace:
        layers = tracing.summarize(tracer.spans)
        layers["setup.import_s"] = import_s
        out["layers"] = layers
    return out
