"""Tests of the benchmark's own Erlang-B reference against hand-computed values.

Run with ``python -m pytest perfbench``; ``perfbench/run.py --self-check``
runs them too.
"""

from reference import accepted_counts, check_plan, erlang_b, min_servers, pooled_loads


def test_erlang_b_hand_values():
    assert erlang_b(0, 1.0) == 1.0
    assert erlang_b(1, 1.0) == 0.5  # E_1(1) = 1/(1+1)
    assert abs(erlang_b(2, 1.0) - 0.2) < 1e-15  # E_2(1) = (1/2)/(2+1/2)
    assert abs(erlang_b(2, 2.0) - 0.4) < 1e-15  # E_2(2) = 2/(1+2+2)


def test_min_servers_hand_values():
    assert min_servers(0.0, 0.01) == 0
    assert min_servers(1.0, 0.5) == 1
    assert min_servers(1.0, 0.49) == 2
    assert min_servers(1.0, 0.2) == 2
    assert min_servers(1.0, 0.19) == 3  # E_3(1) = 1/16


def test_accepted_counts_is_the_minimum_away_from_a_boundary():
    assert accepted_counts(1.0, 0.3) == {2}


def test_pooled_loads_follow_eq4_and_eq5():
    services = [
        {"name": "a", "arrival_rate": 10.0, "service_rates": {"cpu": 5.0}},
        {"name": "b", "arrival_rate": 30.0, "service_rates": {"cpu": 15.0},
         "impact_factors": {"cpu": 0.5}},
    ]
    # paper: mu' = (10*5 + 30*7.5)/40 = 6.875, rho' = 40/6.875
    assert abs(pooled_loads(services, "paper")[0] - 40.0 / 6.875) < 1e-12
    # offered: rho' = 10/5 + 30/7.5 = 6
    assert abs(pooled_loads(services, "offered")[0] - 6.0) < 1e-12
    services[1]["service_rates"] = {"disk_io": 15.0}
    assert pooled_loads(services, "paper") == [0.0, 0.0]


def test_check_plan_accepts_the_minimum_and_rejects_its_neighbours():
    doc = {
        "loss_probability": 0.3,
        "services": [{"name": "a", "arrival_rate": 2.0, "service_rates": {"cpu": 2.0}}],
    }
    good = {"dedicated_breakdown": {"a": 2}, "dedicated_servers": 2, "consolidated_servers": 2}
    assert check_plan(doc, good) == []
    bad = {"dedicated_breakdown": {"a": 3}, "dedicated_servers": 3, "consolidated_servers": 1}
    assert len(check_plan(doc, bad)) == 2
