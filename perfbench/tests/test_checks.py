"""A corrupted result must count as a failed operation."""

import types

from perfbench import workloads as w

BALANCED = {
    "driver.pushed_weight": 100.0,
    "driver.pulled_weight": 90.0,
    "driver.queued_weight": 6.0,
    "driver.shed_weight": 3.0,
    "driver.lost_weight": 1.0,
}


def _probes(count, ledger_ok=True):
    return [w.Trial(wall_s=1.0, pulled_weight=1.0, ledger_ok=ledger_ok) for _ in range(count)]


def test_ledger_balance():
    assert w.ledger_balanced(BALANCED)
    assert not w.ledger_balanced(dict(BALANCED, **{"driver.pulled_weight": 89.0}))
    assert not w.ledger_balanced(dict(BALANCED, **{"driver.lost_weight": 1.5}))


def test_clean_search_passes():
    report = '{"sustainable_rate": 400000.0}\n'
    assert w.check_search("s", (0.35e6, 0.45e6), 0.4e6, report, report, _probes(8)) == (8, 0, [])


def test_tampered_search_report_fails_every_probe():
    report = '{"sustainable_rate": 400000.0}\n'
    tampered = report.replace("400000.0", "400000.1")
    attempted, failed, problems = w.check_search(
        "s", (0.35e6, 0.45e6), 0.4e6, report, tampered, _probes(8)
    )
    assert (attempted, failed) == (8, 8)
    assert "differs" in problems[0]


def test_search_rate_outside_band_fails():
    report = "{}\n"
    _, failed, _ = w.check_search("s", (0.35e6, 0.45e6), float("nan"), report, report, _probes(3))
    assert failed == 3


def test_ledger_imbalance_fails_its_probe():
    report = "{}\n"
    probes = _probes(4) + _probes(1, ledger_ok=False)
    attempted, failed, problems = w.check_search(
        "s", (0.35e6, 0.45e6), 0.4e6, report, report, probes
    )
    assert (attempted, failed) == (5, 1)
    assert "ledger" in problems[0]


def _broker_results(direct_ingest=0.897e6, brokered_ingest=0.698e6, direct_mean=0.072, brokered_mean=2.47):
    return {
        "direct": {"failed": None, "mean_ingest_rate": direct_ingest, "event_latency": {"mean": direct_mean}},
        "brokered": {"failed": None, "mean_ingest_rate": brokered_ingest, "event_latency": {"mean": brokered_mean}},
    }


def _broker_trials(direct_ok=True, brokered_ok=True):
    return {
        "direct": w.Trial(1.0, 1.0, direct_ok),
        "brokered": w.Trial(1.0, 1.0, brokered_ok),
    }


def test_broker_pair_checks():
    assert w.check_broker(_broker_results(), _broker_trials()) == (2, 0, [])
    assert w.check_broker(_broker_results(), _broker_trials(brokered_ok=False))[1] == 1
    assert w.check_broker(_broker_results(brokered_ingest=0.8e6), _broker_trials())[1] == 1
    assert w.check_broker(_broker_results(brokered_mean=0.3), _broker_trials())[1] == 1
    assert w.check_broker(_broker_results(direct_ingest=0.5e6), _broker_trials())[1] == 1


def _chaos_plan(cells):
    return types.SimpleNamespace(cells=cells, config=types.SimpleNamespace(seed=0))


def _chaos_digests(cells):
    return {f"cell{i}": {"violations": []} for i in range(cells)}


def test_chaos_violation_fails_its_cell():
    digests = _chaos_digests(3)
    digests["cell1"]["violations"] = ["cell1: driver ledger imbalance"]
    assert w.check_chaos(_chaos_plan(3), digests, "r", "r")[:2] == (3, 1)


def test_chaos_cell_missing_from_the_journal_fails():
    attempted, failed, problems = w.check_chaos(_chaos_plan(3), _chaos_digests(2), "r", "r")
    assert (attempted, failed) == (3, 1)
    assert "2 of 3" in problems[0]


def test_chaos_report_that_does_not_replay_fails_the_grid():
    plan = _chaos_plan(3)
    digests = _chaos_digests(3)
    assert w.check_chaos(plan, digests, "r", "r") == (3, 0, [])
    assert w.check_chaos(plan, digests, "r", "r2")[:2] == (3, 3)


def test_timed_cell_adds_only_its_key_and_restores_the_harness():
    from repro.recovery import chaos

    config = chaos.ChaosConfig(seed=3, rounds=1, detector="phi", gray_faults=True)
    payload = (config, "flink", config.policies[0], 0)
    body, run = chaos._chaos_cell_task, chaos.run_experiment
    with w.timed_cells():
        assert chaos._chaos_cell_task is w.timed_cell
        timed = w.timed_cell(payload)
    assert chaos._chaos_cell_task is body and chaos.run_experiment is run
    bench = timed.pop(w.BENCH_KEY)
    assert bench["wall_s"] > 0 and bench["pulled_weight"] > 0
    assert timed == body(payload)
