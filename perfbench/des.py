"""``paper-des``: the fast-mode experiments a reproducer waits for, in process.

One round runs ``fig11`` (the paper's Group 2, 8 -> 4 servers),
``ext-multiservice`` and ``ext-dynamic`` with the run's seed, serially, on
a cold Erlang cache, as ``repro-experiments`` does in a fresh process.
"""

from __future__ import annotations

import inspect
import math
import resource
import sys
import time

import reference
import tracing
from common import latency_metrics, median_import_seconds

EXPERIMENTS = ("fig11", "ext-multiservice", "ext-dynamic")
# A round this short is what the self-check runs.
QUICK_EXPERIMENTS = ("ext-dynamic",)
RUNNER = "repro.experiments.runner"


def expected_arrivals(service, horizon: float, rate_schedule) -> float:
    """Mean arrival count of one service of a loss-network run on ``[0, horizon]``."""
    steps = (rate_schedule or {}).get(service.name)
    if not steps:
        return service.arrival_rate * horizon
    steps = sorted((float(t), float(r)) for t, r in steps)
    times = [t for t, _ in steps] + [horizon]
    return sum(
        r * max(0.0, min(times[i + 1], horizon) - min(t, horizon))
        for i, (t, r) in enumerate(steps)
    )


def capture_loss_networks(sink: list) -> None:
    """Record the inputs and arrival counts of every ``LossNetwork.run``."""
    from repro.simulation.loss_network import LossNetwork

    original = LossNetwork.run

    def run(self, horizon, rng, capacity_schedule=(), rate_schedule=None, control=None):
        result = original(self, horizon, rng, capacity_schedule, rate_schedule, control)
        for s in self.services:
            sink.append((s.name, expected_arrivals(s, horizon, rate_schedule), result.per_service_arrived[s.name]))
        return result

    LossNetwork.run = run


def fig11_reference() -> tuple[int, int]:
    """The paper's Group 2 ``(M, N)`` by the benchmark's own Erlang-B."""
    from repro.experiments.casestudy import GROUP2

    inputs = GROUP2.inputs()
    services = [
        {
            "name": s.name,
            "arrival_rate": s.arrival_rate,
            "service_rates": {k.value: v for k, v in s.service_rates.items() if not math.isinf(v)},
            "impact_factors": {k.value: v for k, v in s.impact_factors.items()},
        }
        for s in inputs.services
    ]
    b = inputs.loss_probability
    m = sum(max(reference.min_servers(r, b) for r in reference.dedicated_loads(s)) for s in services)
    n = max(reference.min_servers(r, b) for r in reference.pooled_loads(services, "paper"))
    return m, n


def check(name: str, result) -> list[str]:
    s = result.summary
    if name == "fig11":
        problems = []
        m, n = fig11_reference()
        if (m, n) != (8, 4):
            problems.append(f"reference Erlang-B gives M={m}, N={n} for Group 2, paper publishes 8 -> 4")
        got = (s["dedicated_servers"], s["model_predicted_N"], [r["servers"] for r in result.rows])
        if got != (8, 4, [8, 4]):
            problems.append(f"fig11 reports M, N, deployments {got}, paper publishes 8, 4, [8, 4]")
        return problems
    if name == "ext-dynamic":
        hours = (s["oracle_server_hours"], s["reactive_server_hours"], s["static_server_hours"])
        if not hours[0] <= hours[1] <= hours[2]:
            return [f"ext-dynamic server-hours oracle/reactive/static {hours} are not ordered"]
    return []


def run(seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    setup_s = median_import_seconds(RUNNER)
    t0 = time.perf_counter()
    from repro.experiments import runner  # noqa: F401  (registers every experiment)
    from repro.experiments.base import get_experiment
    from repro.parallel.cache import shared_cache

    import_s = time.perf_counter() - t0

    arrivals: list[tuple[str, float, int]] = []
    capture_loss_networks(arrivals)
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    names = QUICK_EXPERIMENTS if quick else EXPERIMENTS
    walls = []
    attempted = failed = 0
    problems: list[str] = []
    cache_hits = cache_misses = 0
    deadline = time.monotonic() + seconds
    while not walls or time.monotonic() < deadline:
        shared_cache().clear()  # each round starts cold, like a fresh process
        round_start = time.perf_counter()
        results = {}
        for name in names:
            fn = get_experiment(name)
            kwargs = {"seed": seed, "fast": True}
            if "jobs" in inspect.signature(fn).parameters:
                kwargs["jobs"] = 1
            attempted += 1
            try:
                if tracer:
                    results[name] = tracer.call(tracing.EXPERIMENT_PREFIX + name, fn, (), kwargs)
                else:
                    results[name] = fn(**kwargs)
            except Exception as exc:  # an experiment that raises is a failed operation
                failed += 1
                print(f"failed: {name} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        walls.append(time.perf_counter() - round_start)
        stats = shared_cache().stats()
        cache_hits += stats["hits"]
        cache_misses += stats["misses"]
        for name, result in results.items():
            problems.extend(check(name, result))

    for name, expected, got in arrivals:
        lo, hi = reference.poisson_band(expected)
        if not lo <= got <= hi:
            problems.append(f"{name}: {got} arrivals, outside the Poisson band of mean {expected:.1f}")

    out = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            **latency_metrics(walls),
            "throughput_per_s": (len(walls) / sum(walls), "1/s"),
        },
        "samples": len(walls),
    }
    if trace:
        layers = tracing.summarize(tracer.spans)
        layers["parallel.erlang_cache_hit_ratio"] = cache_hits / max(cache_hits + cache_misses, 1)
        layers["setup.import_s"] = import_s
        out["layers"] = layers
    return out
