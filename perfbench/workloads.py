"""The three benchmark workloads and their correctness checks.

Each workload runs in *passes*.  One pass is a fixed amount of work
built from a seed: ``prepare`` builds its specs or grid, journals and
fingerprints (the part a cold start pays before the first trial), and
``run_pass`` runs it, timing only the trials' harness calls, and then
checks what came out.  Every pass is counted in operations (a probe, a
trial or a grid cell); an operation fails if it raises, if the driver's
weight ledger (``pushed == pulled + queued + shed + lost``) or the chaos
invariants do not hold, or if its simulated headline result leaves the
band stated below.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pathlib
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Relative tolerance of the driver ledger check (the chaos harness uses
#: the same share of the pushed weight).
LEDGER_REL_TOL = 1e-9

SEARCH_HIGH_RATE = 1.6e6
SEARCH_REL_TOL = 0.05
SEARCH_MAX_TRIALS = 12
SEARCH_PROBE_S = 120.0
#: ``(name, engine, query, sustainable-rate band in events/s)``.
SEARCHES = (
    ("flink-agg", "flink", "aggregation", (1.15e6, 1.25e6)),
    ("flink-join", "flink", "join", (0.75e6, 0.90e6)),
)

BROKER_RATE = 0.9e6
BROKER_TRIAL_S = 20.0
DIRECT_MIN_INGEST = 0.85e6
BROKERED_MAX_INGEST = 0.75e6
BROKERED_MIN_LATENCY_RATIO = 5.0

CHAOS_ROUNDS = 3
CHAOS_DETECTOR = "phi"
#: Names of the chaos harness's default policies the grid runs: all but
#: ``standby``.  Two open defects fail a standby cell on roughly one grid
#: in twenty each, so most sets of runs would report a failed cell (see
#: the known findings in README.md):
#:
#: - a late crash (39-45 s of 60) leaves storm's replay rebalance too
#:   little time, and the backlog is still 20-26 s old at the end
#:   (``repro chaos --engines storm --seed 968811696 --rounds 3
#:   --detector phi --gray``);
#: - a restart and two crashes make ``_apply_crash`` plan a crash with
#:   no active worker, and the trial raises ``ValueError`` out of the
#:   harness (``repro chaos --engines flink --seed 93704270 --rounds 1
#:   --detector phi --gray``).
CHAOS_POLICIES = ("baseline", "shed")
#: Key under which a benchmark grid cell adds its wall time and ingested
#: weight to the chaos digest (the scorecard reads only its own keys).
BENCH_KEY = "perfbench"


class ReplayMiss(RuntimeError):
    """A resumed search tried to run a probe its journal should hold."""


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pass_seed(seed: int, index: int) -> int:
    """The seed of pass ``index`` of a run seeded ``seed``."""
    state = np.random.SeedSequence([int(seed), int(index)]).generate_state(1)
    return int(state[0] % 1_000_000_007)


def ledger_balanced(diagnostics: Dict[str, float]) -> bool:
    pushed = diagnostics.get("driver.pushed_weight", 0.0)
    rest = (
        diagnostics.get("driver.pulled_weight", 0.0)
        + diagnostics.get("driver.queued_weight", 0.0)
        + diagnostics.get("driver.shed_weight", 0.0)
        + diagnostics.get("driver.lost_weight", 0.0)
    )
    return abs(pushed - rest) <= LEDGER_REL_TOL * max(1.0, pushed)


@dataclass
class Trial:
    """What the benchmark keeps of one live trial."""

    wall_s: float
    pulled_weight: float
    ledger_ok: bool


@dataclass
class Outcome:
    """Everything one run measured and checked, summed over passes."""

    wall_s: float = 0.0
    trials: List[Trial] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    reports: List[Tuple[str, str]] = field(default_factory=list)
    journals: List[pathlib.Path] = field(default_factory=list)

    @property
    def pulled_weight(self) -> float:
        return sum(trial.pulled_weight for trial in self.trials)

    def count(self, attempted: int, failed: int, problems: List[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)

    def report(self, label: str, text: str) -> None:
        self.reports.append((label, sha256(text)))


def _timed_runner(trials: List[Trial]) -> Callable:
    """A ``run`` callable for the harness that times each trial."""
    from repro.core import experiment

    def run(spec):
        start = time.perf_counter()
        result = experiment.run_experiment(spec)
        diagnostics = result.diagnostics
        trials.append(
            Trial(
                wall_s=time.perf_counter() - start,
                pulled_weight=diagnostics.get("driver.pulled_weight", 0.0),
                ledger_ok=ledger_balanced(diagnostics),
            )
        )
        return result

    return run


def journal_bytes(paths: List[pathlib.Path]) -> int:
    return sum(path.stat().st_size for path in paths if path.exists())


# -- search-paper -----------------------------------------------------------


@dataclass
class SearchPlan:
    name: str
    spec: object
    band: Tuple[float, float]
    fingerprint: str
    journal: object


def prepare_search(seed: int, workdir: pathlib.Path) -> List[SearchPlan]:
    from repro.core import sustainable
    from repro.core.experiment import ExperimentSpec
    from repro.core.generator import GeneratorConfig
    from repro.metrology.journal import TrialJournal
    from repro.workloads.queries import (
        PAPER_DEFAULT_WINDOW,
        WindowedAggregationQuery,
        WindowedJoinQuery,
    )

    queries = {
        "aggregation": WindowedAggregationQuery,
        "join": WindowedJoinQuery,
    }
    plans = []
    for name, engine, query, band in SEARCHES:
        spec = ExperimentSpec(
            engine=engine,
            query=queries[query](window=PAPER_DEFAULT_WINDOW),
            workers=2,
            duration_s=SEARCH_PROBE_S,
            generator=GeneratorConfig(instances=2),
            seed=seed,
            monitor_resources=False,
        )
        fingerprint = sustainable.search_fingerprint(
            spec,
            high_rate=SEARCH_HIGH_RATE,
            low_rate=0.0,
            rel_tol=SEARCH_REL_TOL,
            criteria=sustainable.SustainabilityCriteria(),
            max_trials=SEARCH_MAX_TRIALS,
        )
        journal = TrialJournal(
            workdir / f"search-{name}-{seed}.json", fingerprint=fingerprint
        )
        plans.append(SearchPlan(name, spec, band, fingerprint, journal))
    return plans


def _search(plan: SearchPlan, run: Callable, journal) -> object:
    from repro.core import sustainable

    return sustainable.find_sustainable_throughput(
        plan.spec,
        high_rate=SEARCH_HIGH_RATE,
        rel_tol=SEARCH_REL_TOL,
        criteria=sustainable.SustainabilityCriteria(),
        max_trials=SEARCH_MAX_TRIALS,
        run=run,
        journal=journal,
    )


def _search_report(search) -> str:
    from repro.analysis.export import search_to_dict

    return json.dumps(search_to_dict(search), indent=2, sort_keys=True) + "\n"


def check_search(
    name: str,
    band: Tuple[float, float],
    rate: float,
    report: str,
    replayed: str,
    probes: List[Trial],
) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` of one search.  A probe fails on
    its own ledger; a search whose rate leaves ``band`` or whose report
    does not replay byte for byte fails every probe it ran."""
    problems = [
        f"{name}: probe {index} driver ledger imbalance"
        for index, probe in enumerate(probes)
        if not probe.ledger_ok
    ]
    failed = len(problems)
    low, high = band
    if not (low <= rate <= high):
        problems.append(
            f"{name}: sustainable rate {rate / 1e6:.4f} M/s outside "
            f"[{low / 1e6:.3f}, {high / 1e6:.3f}] M/s"
        )
    if replayed != report:
        problems.append(f"{name}: report replayed from its journal differs")
    if len(problems) > failed:
        failed = len(probes)
    return len(probes), failed, problems


def run_search_pass(plans: List[SearchPlan], outcome: Outcome, workers: int = 1) -> None:
    """Both searches, serially (a search fans out only with ``--jobs``),
    each replayed from its journal afterwards."""
    from repro.metrology.journal import TrialJournal

    def must_replay(spec):
        raise ReplayMiss(f"probe at {spec.label()} was not journaled")

    for plan in plans:
        probes: List[Trial] = []
        start = time.perf_counter()
        try:
            search = _search(plan, _timed_runner(probes), plan.journal)
        except Exception:  # the operation raised: count it, keep going
            outcome.wall_s += time.perf_counter() - start
            outcome.trials.extend(probes)
            outcome.count(
                len(probes) + 1, len(probes) + 1,
                [f"{plan.name}: search raised\n{traceback.format_exc()}"],
            )
            continue
        outcome.wall_s += time.perf_counter() - start
        outcome.trials.extend(probes)
        outcome.journals.append(plan.journal.path)
        report = _search_report(search)
        outcome.report(plan.name, report)
        try:
            journal = TrialJournal(
                plan.journal.path, fingerprint=plan.fingerprint, resume=True
            )
            replayed = _search_report(_search(plan, must_replay, journal))
        except ReplayMiss as miss:
            replayed = f"replay ran a live probe: {miss}"
        outcome.count(
            *check_search(
                plan.name, plan.band, search.sustainable_rate, report,
                replayed, probes,
            )
        )


# -- broker-ablation --------------------------------------------------------


def prepare_broker(seed: int, workdir: pathlib.Path) -> List[Tuple[str, object]]:
    from repro.core.broker import BrokerSpec
    from repro.core.experiment import ExperimentSpec
    from repro.core.generator import GeneratorConfig
    from repro.workloads.queries import PAPER_DEFAULT_WINDOW, WindowedAggregationQuery

    direct = ExperimentSpec(
        engine="flink",
        query=WindowedAggregationQuery(window=PAPER_DEFAULT_WINDOW),
        workers=2,
        profile=BROKER_RATE,
        duration_s=BROKER_TRIAL_S,
        generator=GeneratorConfig(instances=2),
        seed=seed,
        monitor_resources=False,
    )
    return [("direct", direct), ("brokered", replace(direct, broker=BrokerSpec()))]


def check_broker(
    results: Dict[str, dict], trials: Dict[str, Trial]
) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` of one direct/brokered pair."""
    direct, brokered = results["direct"], results["brokered"]
    found: Dict[str, List[str]] = {"direct": [], "brokered": []}
    for name, problems in found.items():
        if results[name]["failed"]:
            problems.append(f"SUT failure: {results[name]['failed']}")
        if not trials[name].ledger_ok:
            problems.append("driver ledger imbalance")
    if not direct["mean_ingest_rate"] > DIRECT_MIN_INGEST:
        found["direct"].append(
            f"ingest {direct['mean_ingest_rate'] / 1e6:.3f} M/s "
            f"not above {DIRECT_MIN_INGEST / 1e6:.2f} M/s"
        )
    if not brokered["mean_ingest_rate"] < BROKERED_MAX_INGEST:
        found["brokered"].append(
            f"ingest {brokered['mean_ingest_rate'] / 1e6:.3f} M/s "
            f"not below {BROKERED_MAX_INGEST / 1e6:.2f} M/s"
        )
    ratio = brokered["event_latency"]["mean"] / direct["event_latency"]["mean"]
    if not ratio > BROKERED_MIN_LATENCY_RATIO:
        found["brokered"].append(
            f"mean latency only {ratio:.2f}x the direct one "
            f"(need > {BROKERED_MIN_LATENCY_RATIO:g}x)"
        )
    problems = [f"{name}: {p}" for name, ps in found.items() for p in ps]
    return 2, sum(1 for ps in found.values() if ps), problems


def run_broker_pass(
    pair: List[Tuple[str, object]], outcome: Outcome, workers: int = 1
) -> None:
    """The direct trial, then the brokered one."""
    trials: List[Trial] = []
    run = _timed_runner(trials)
    results: Dict[str, dict] = {}
    for name, spec in pair:
        start = time.perf_counter()
        try:
            result = run(spec)
        except Exception:
            outcome.wall_s += time.perf_counter() - start
            outcome.trials.extend(trials)
            outcome.count(
                2, 2, [f"{name} trial raised\n{traceback.format_exc()}"]
            )
            return
        outcome.wall_s += time.perf_counter() - start
        results[name] = {
            "failed": result.failure,
            "mean_ingest_rate": result.mean_ingest_rate,
            "event_latency": result.event_latency.to_dict(),
        }
    outcome.trials.extend(trials)
    report = json.dumps(results, indent=2, sort_keys=True) + "\n"
    outcome.report(f"broker-pair seed={pair[0][1].seed}", report)
    outcome.count(*check_broker(results, dict(zip(("direct", "brokered"), trials))))


# -- chaos-gray -------------------------------------------------------------


@dataclass
class ChaosPlan:
    config: object
    fingerprint: str
    journal: object

    @property
    def cells(self) -> int:
        config = self.config
        return config.rounds * len(config.engines) * len(config.policies)


def prepare_chaos(seed: int, workdir: pathlib.Path) -> ChaosPlan:
    from repro.metrology.journal import TrialJournal
    from repro.recovery import chaos

    config = chaos.ChaosConfig(
        seed=seed,
        rounds=CHAOS_ROUNDS,
        policies=tuple(
            policy for policy in chaos.DEFAULT_POLICIES
            if policy.name in CHAOS_POLICIES
        ),
        detector=CHAOS_DETECTOR,
        gray_faults=True,
    )
    fingerprint = chaos.chaos_fingerprint(config)
    journal = TrialJournal(workdir / f"chaos-{seed}.json", fingerprint=fingerprint)
    return ChaosPlan(config, fingerprint, journal)


#: The chaos harness's own cell body while :func:`timed_cells` is active.
_cell_body: Optional[Callable] = None


def timed_cell(payload) -> Dict[str, object]:
    """The chaos harness's cell body, plus the cell's wall time and
    ingested weight under :data:`BENCH_KEY` (the scorecard reads only its
    own keys).  The ingested weight is the one figure the digest lacks,
    so the body's ``run_experiment`` is shadowed for the call to read it
    from the trial result."""
    from repro.recovery import chaos

    body = _cell_body or chaos._chaos_cell_task
    run = chaos.run_experiment
    pulled: List[float] = []

    def counted(spec):
        result = run(spec)
        pulled.append(result.diagnostics.get("driver.pulled_weight", 0.0))
        return result

    chaos.run_experiment = counted
    start = time.perf_counter()
    try:
        digest = body(payload)
    finally:
        wall_s = time.perf_counter() - start
        chaos.run_experiment = run
    digest[BENCH_KEY] = {"wall_s": wall_s, "pulled_weight": sum(pulled)}
    return digest


@contextlib.contextmanager
def timed_cells():
    """While active, ``run_chaos`` runs every cell through
    :func:`timed_cell`.  A forked scheduler worker inherits the swap; a
    spawned one finds :func:`timed_cell` by reference and the original
    body on the freshly imported module."""
    global _cell_body
    from repro.recovery import chaos

    _cell_body = chaos._chaos_cell_task
    chaos._chaos_cell_task = timed_cell
    try:
        yield
    finally:
        chaos._chaos_cell_task = _cell_body
        _cell_body = None


def journal_entries(path: pathlib.Path) -> Dict[str, dict]:
    """The digests a chaos journal holds, keyed by cell."""
    return dict(json.loads(path.read_text()).get("entries", {}))


def check_chaos(
    plan: ChaosPlan, digests: Dict[str, dict], report: str, replayed: Optional[str]
) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` of one grid: a cell fails on any
    chaos invariant (the driver ledger is one) or if the journal lacks
    it; a grid whose report does not replay byte for byte from its
    journal fails every cell."""
    problems = []
    failed = 0
    for digest in digests.values():
        if digest["violations"]:
            failed += 1
            problems.extend(digest["violations"])
    if len(digests) != plan.cells:
        failed += abs(plan.cells - len(digests))
        problems.append(
            f"chaos seed={plan.config.seed}: journal holds {len(digests)} "
            f"of {plan.cells} cells"
        )
    if replayed != report:
        problems.append(
            f"chaos seed={plan.config.seed}: report replayed from its "
            "journal differs"
        )
        failed = plan.cells
    return plan.cells, min(failed, plan.cells), problems


def replay_chaos(plan: ChaosPlan) -> str:
    """The chaos harness's report with every cell replayed from the
    journal the pass wrote (a live cell here is a journal miss)."""
    from repro.metrology.journal import TrialJournal
    from repro.recovery import chaos

    journal = TrialJournal(
        plan.journal.path, fingerprint=plan.fingerprint, resume=True
    )
    report = chaos.run_chaos(plan.config, journal=journal, workers=1).to_json()
    if journal.misses:
        return f"replay ran {journal.misses} live cells"
    return report


def run_chaos_pass(plan: ChaosPlan, outcome: Outcome, workers: int = 1) -> None:
    """The grid through the chaos harness (``run_chaos``) over
    ``workers`` scheduler processes, then replayed from its journal."""
    from repro.recovery import chaos

    start = time.perf_counter()
    try:
        with timed_cells():
            report = chaos.run_chaos(plan.config, journal=plan.journal, workers=workers)
    except Exception:
        outcome.wall_s += time.perf_counter() - start
        outcome.count(
            plan.cells, plan.cells,
            [f"chaos grid raised\n{traceback.format_exc()}"],
        )
        return
    outcome.wall_s += time.perf_counter() - start
    digests = journal_entries(plan.journal.path)
    for digest in digests.values():
        bench = digest[BENCH_KEY]
        outcome.trials.append(
            Trial(
                wall_s=bench["wall_s"],
                pulled_weight=bench["pulled_weight"],
                # The ledger is one of the chaos invariants, counted there.
                ledger_ok=True,
            )
        )
    outcome.journals.append(plan.journal.path)
    text = report.to_json()
    outcome.report(f"chaos seed={plan.config.seed}", text)
    outcome.count(*check_chaos(plan, digests, text, replay_chaos(plan)))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    operation: str
    pass_s: float
    """Wall seconds of one pass on the reference host; a run makes
    ``seconds / pass_s`` passes, rounded half up (at least one)."""
    prepare: Callable[[int, pathlib.Path], object]
    run_pass: Callable[..., None]
    """``run_pass(prepared, outcome, workers)``: run and check one pass."""
    pooled: bool = False
    """Whether ``workers`` fans the pass over scheduler processes (the
    traced run then also times that pool from the parent)."""

    def passes(self, seconds: float) -> int:
        return max(1, int(seconds / self.pass_s + 0.5))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "search-paper",
            "Definition 5 searches on dense 64-row blocks: window and join "
            "stores, bisection with assess, journal writes",
            "probe",
            12.5,
            prepare_search,
            run_search_pass,
        ),
        Workload(
            "broker-ablation",
            "the only path feeding 1-row blocks, one simulator event per "
            "record per delay class",
            "trial",
            5.5,
            prepare_broker,
            run_broker_pass,
        ),
        Workload(
            "chaos-gray",
            "fault injection, recovery metrology, detection plane, grid "
            "harness and the scheduler pool with shard journals",
            "grid cell",
            5.0,
            prepare_chaos,
            run_chaos_pass,
            pooled=True,
        ),
    )
}
