"""Independent Erlang-B reference used by the benchmark's correctness checks.

Written from the paper's equations, sharing no code with ``repro``:

- Eq. 2, the Erlang loss recurrence ``E_0 = 1``,
  ``E_n = rho*E_{n-1} / (n + rho*E_{n-1})``;
- the Fig. 4 inversion: the smallest ``n`` with ``E_n(rho) <= B``;
- Eq. 3, dedicated load ``rho_ij = lambda_i / mu_ij``;
- Eq. 4-5, pooled load ``rho'_j = lambda / mu'_j`` with ``mu'_j`` the
  arrival-weighted mixture of virtualized rates (``load_model="paper"``)
  or the rate whose reciprocal is the mixture's mean service time
  (``load_model="offered"``).
"""

from __future__ import annotations

import math

# The planner's Erlang cache keys loads rounded to 9 decimals, so two loads
# closer than this can share one cached answer.
RHO_ROUNDING = 1e-9


def erlang_b(n: int, rho: float) -> float:
    """``E_n(rho)`` by the recurrence of Eq. 2."""
    b = 1.0
    for k in range(1, n + 1):
        b = rho * b / (k + rho * b)
    return b


def min_servers(rho: float, target: float) -> int:
    """Smallest ``n`` with ``E_n(rho) <= target`` (0 for no load)."""
    if rho <= 0.0:
        return 0
    b = 1.0
    n = 0
    while b > target:
        n += 1
        b = rho * b / (n + rho * b)
    return n


def accepted_counts(rho: float, target: float) -> set[int]:
    """Every server count a correct inversion of ``(rho, target)`` may give.

    The minimal ``n`` itself, and the neighbour a cached answer for a load
    within :data:`RHO_ROUNDING` of ``rho`` would give.
    """
    if rho <= 0.0:
        return {0}
    span = RHO_ROUNDING * max(1.0, rho)
    return {
        min_servers(max(rho - span, 0.0), target),
        min_servers(rho, target),
        min_servers(rho + span, target),
    }


def dedicated_loads(service: dict) -> list[float]:
    """Eq. 3 for every resource one service of a deployment touches."""
    lam = float(service["arrival_rate"])
    return [lam / float(mu) for mu in service["service_rates"].values()]


def pooled_loads(services: list[dict], load_model: str) -> list[float]:
    """Eq. 4-5: ``rho'_j`` for every resource any service touches."""
    resources: list[str] = []
    for s in services:
        for r in s["service_rates"]:
            if r not in resources:
                resources.append(r)
    lam = sum(float(s["arrival_rate"]) for s in services)
    loads = []
    for r in resources:
        if load_model == "paper":
            weighted = 0.0
            untouched = False
            for s in services:
                if r not in s["service_rates"]:
                    untouched = True  # an infinite-rate term: no constraint
                    break
                mu = float(s["service_rates"][r]) * float(s.get("impact_factors", {}).get(r, 1.0))
                weighted += float(s["arrival_rate"]) * mu
            loads.append(0.0 if untouched else lam / (weighted / lam))
        else:
            time = sum(
                float(s["arrival_rate"])
                / (float(s["service_rates"][r]) * float(s.get("impact_factors", {}).get(r, 1.0)))
                for s in services
                if r in s["service_rates"]
            )
            loads.append(time)
    return loads


def check_plan(doc: dict, response: dict) -> list[str]:
    """Problems found in one ``/plan`` response; empty when it is correct."""
    target = float(doc["loss_probability"])
    load_model = doc.get("load_model", "paper")
    problems = []
    breakdown = response.get("dedicated_breakdown", {})
    for s in doc["services"]:
        got = breakdown.get(s["name"])
        if not _is_max_of(got, [accepted_counts(r, target) for r in dedicated_loads(s)]):
            problems.append(f"dedicated {s['name']}: got {got}, load(s) {dedicated_loads(s)}")
    pooled = pooled_loads(doc["services"], load_model)
    got = response.get("consolidated_servers")
    if not _is_max_of(got, [accepted_counts(r, target) for r in pooled]):
        problems.append(f"consolidated: got {got}, pooled load(s) {pooled}")
    if response.get("dedicated_servers") != sum(breakdown.values()):
        problems.append("dedicated_servers is not the sum of dedicated_breakdown")
    return problems


def _is_max_of(got, choices: list[set[int]]) -> bool:
    """Whether ``got`` is ``max_j c_j`` for some pick ``c_j`` from each set."""
    if not isinstance(got, int):
        return False
    return any(got in c for c in choices) and all(min(c) <= got for c in choices)


def poisson_band(mean: float, z: float = 6.0) -> tuple[float, float]:
    """Counts a Poisson variate of this mean falls outside with p < 1e-8."""
    half = z * math.sqrt(max(mean, 1.0))
    return mean - half, mean + half
