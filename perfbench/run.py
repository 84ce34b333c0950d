"""The repository benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` is the timed run: it
makes ``S / pass_s`` passes (rounded, at least one) of the workload with no
layer wrapper installed (chaos-gray only times each grid cell, see
``workloads.timed_cell``) and reports the end-to-end metrics.  ``--trace 1`` is the
traced run: the same pass untraced, with every layer entry point
wrapped (see ``layers.py``) and untraced again, and -- for chaos-gray -- one
pass over the scheduler pool timed from the parent; it reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is the JSON result; everything above it is for people.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
#: Cold starts per timed run; their median is ``setup_s``.
SETUP_SAMPLES = 15
#: Scheduler processes for the pooled workload (at most ``nproc``).
POOL_WORKERS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cold_start(workload: str, seed: int, workdir: pathlib.Path) -> float:
    """Seconds from spawning a fresh interpreter to its ``ready`` line."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    command = [
        sys.executable,
        str(ROOT / "perfbench" / "setup_probe.py"),
        workload,
        str(seed),
        str(workdir),
    ]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, env=env, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"cold start of {workload} failed (exit {code})")
    return elapsed


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def print_outcome(outcome) -> None:
    for label, digest in outcome.reports:
        print(f"report sha256 {label}: {digest}")
    for problem in outcome.problems:
        print(f"FAILED {problem}")


def timed_run(args, workload, work: pathlib.Path, workers: int):
    import numpy as np

    from perfbench import stats
    from perfbench.workloads import Outcome, pass_seed

    passes = workload.passes(args.seconds)
    plan = stats.spread_plan(SETUP_SAMPLES, passes + 1)
    outcome = Outcome()
    setup = []
    seeds = [pass_seed(args.seed, index) for index in range(passes)]
    marks = [0]  # where each pass's trials start in outcome.trials
    for index in range(passes + 1):
        for _ in range(plan[index]):
            probe_dir = work / f"cold-{len(setup)}"
            setup.append(cold_start(workload.name, seeds[0], probe_dir))
        if index < passes:
            prepared = workload.prepare(seeds[index], work / f"pass-{index}")
            workload.run_pass(prepared, outcome, workers)
            marks.append(len(outcome.trials))
    walls = [trial.wall_s for trial in outcome.trials]
    trial_p50 = stats.median_of_pass_medians(walls, marks)
    print(f"passes: {passes} (seeds {', '.join(map(str, seeds))})")
    print(
        f"operations: {outcome.attempted} {workload.operation}s, "
        f"{outcome.failed} failed"
    )
    print("setup samples (s): " + " ".join(f"{s:.4f}" for s in setup))
    print(
        f"trials: {len(walls)}, p50 {statistics.median(walls):.4f} s, "
        f"median of the {passes} pass medians {trial_p50:.4f} s"
    )
    top = stats.highest_percentile(len(walls))
    if top is not None and top > 50.0:
        print(f"  p{top:g} {np.percentile(walls, top):.4f} s (>= 10 samples beyond)")
    print_outcome(outcome)
    wall = outcome.wall_s
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(wall, "s"),
        "sim_events_per_s": metric(outcome.pulled_weight / wall, "1/s"),
        "trial_p50_s": metric(trial_p50, "s"),
        "peak_rss_mb": metric(stats.peak_rss_mb(), "MB"),
    }
    return outcome, metrics


def traced_run(args, workload, work: pathlib.Path, workers: int):
    from perfbench import layers
    from perfbench.spans import SpanRecorder
    from perfbench.workloads import Outcome, journal_bytes, pass_seed

    seed = pass_seed(args.seed, 0)
    # Untraced before and after the traced pass, so a steady drift in
    # host speed cancels out of the overhead.
    before, after = Outcome(), Outcome()
    workload.run_pass(workload.prepare(seed, work / "before"), before, 1)
    recorder = SpanRecorder()
    traced = Outcome()
    with recorder.installed(layers.TARGETS):
        prepared = workload.prepare(seed, work / "traced")
        workload.run_pass(prepared, traced, 1)
    workload.run_pass(workload.prepare(seed, work / "after"), after, 1)
    outcomes = [before, traced, after]
    untraced_s = (before.wall_s + after.wall_s) / 2.0
    totals = recorder.layer_totals()
    none = {"total_s": 0.0}
    sched_run_s = totals.get("sched.run", none)["total_s"]
    merge_s = totals.get("journal.merge", none)["total_s"]
    efficiency = 0.0
    # A pooled workload's timed run fans over the scheduler: time that
    # pool from the parent.
    if workload.pooled:
        pool_recorder = SpanRecorder()
        pooled = Outcome()
        with pool_recorder.installed(layers.POOL_TARGETS):
            workload.run_pass(workload.prepare(seed, work / "pool"), pooled, workers)
        outcomes.append(pooled)
        pool_totals = pool_recorder.layer_totals()
        sched_run_s = pool_totals.get("sched.run", none)["total_s"]
        merge_s = pool_totals.get("journal.merge", none)["total_s"]
        serial_s = sum(trial.wall_s for trial in pooled.trials)
        efficiency = serial_s / (workers * sched_run_s) if sched_run_s else 0.0
    build_s, finalize_s = recorder.gaps("trial", "driver.run")
    overhead = traced.wall_s - untraced_s
    extra = {
        "trial.build_s": build_s,
        "trial.finalize_s": finalize_s,
        "journal.bytes": float(journal_bytes(traced.journals)),
        "journal.merge_s": merge_s,
        "sched.run_s": sched_run_s,
        "sched.parallel_efficiency": efficiency,
        "trace.spans": float(len(recorder)),
        "trace.untraced_wall_s": untraced_s,
        "trace.traced_wall_s": traced.wall_s,
        "trace.overhead_s": overhead,
        "trace.overhead_frac": overhead / untraced_s,
    }
    values = layers.layer_metrics(recorder, extra)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.npz"
    recorder.save(spans_path)
    combined = Outcome()
    digests = {tuple(o.reports) for o in outcomes}
    for outcome in outcomes:
        combined.count(outcome.attempted, outcome.failed, outcome.problems)
    if len(digests) != 1:
        combined.count(0, traced.attempted, ["traced, untraced and pooled reports differ"])
    combined.reports = traced.reports
    print(f"traced pass seed {seed}; spans written to {spans_path.relative_to(ROOT)}")
    for name in recorder.missing:
        print(f"not wrapped (entry point missing): {name}")
    print(
        f"operations: {combined.attempted} {workload.operation}s "
        f"over {len(outcomes)} executions, {combined.failed} failed"
    )
    print("\n".join(layers.render_table(values, traced.wall_s)))
    print_outcome(combined)
    metrics = {name: metric(value, unit) for name, (value, unit) in values.items()}
    return combined, metrics


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro package under {ROOT / 'src'}; run it from "
            "a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import stats
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    facts = stats.host_facts()
    workers = min(POOL_WORKERS, int(facts["nproc"]))
    print(f"workload {workload.name}: {workload.why}")
    print("host: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    speed_before = stats.host_speed_probe()
    try:
        run = traced_run if args.trace else timed_run
        outcome, metrics = run(args, workload, work, workers)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    speed_after = stats.host_speed_probe()
    print(
        f"host speed probe (fixed loop, information only): "
        f"{speed_before:.2f} ms before, {speed_after:.2f} ms after"
    )
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
