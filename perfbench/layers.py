"""The layer map of the traced run: which entry points are wrapped, and
how their spans and counters become the per-layer metrics.

Every ``*_s`` metric is the layer's self time (its spans minus their
wrapped children), except ``sched.run_s``, which is the pool's wall
time as the parent sees it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from perfbench.spans import SpanRecorder, Target


def _one_row(args: tuple) -> int:
    return 1


def _block_rows(args: tuple) -> int:
    return len(args[1])


_STORES = "repro.engines.operators"

#: Entry points wrapped by the full traced run, grouped by layer.
TARGETS: Tuple[Target, ...] = (
    # window/join stores
    Target(f"{_STORES}.window", "KeyedWindowStore", "add", "stores.add", rows=_one_row),
    Target(f"{_STORES}.join", "JoinWindowStore", "add", "stores.add", rows=_one_row),
    Target(f"{_STORES}.aggregate", "BatchPartialAggregator", "add", "stores.add", rows=_one_row),
    Target(f"{_STORES}.columnar", "ColumnarWindowStore", "add", "stores.add", rows=_one_row),
    Target(f"{_STORES}.columnar", "ColumnarWindowStore", "add_block", "stores.add", rows=_block_rows),
    Target(f"{_STORES}.columnar", "ColumnarJoinStore", "add_block", "stores.add", rows=_block_rows),
    Target(f"{_STORES}.columnar", "ColumnarBatchPartials", "add", "stores.add", rows=_one_row),
    Target(f"{_STORES}.columnar", "ColumnarBatchPartials", "add_block", "stores.add", rows=_block_rows),
    Target(f"{_STORES}.window", "KeyedWindowStore", "close", "stores.close"),
    Target(f"{_STORES}.join", "JoinWindowStore", "close", "stores.close"),
    Target(f"{_STORES}.columnar", "ColumnarWindowStore", "close", "stores.close"),
    Target(f"{_STORES}.aggregate", "BatchPartialAggregator", "drain", "stores.close"),
    Target(f"{_STORES}.columnar", "ColumnarBatchPartials", "drain", "stores.close"),
    # message broker (only the broker-ablation workload has one)
    Target("repro.core.broker", "BrokerStage", "_forward", "broker.forward"),
    Target("repro.core.broker", "BrokerStage", "_deliver", "broker.deliver"),
    # engine tick and storm's in-flight drain
    Target("repro.engines.base", "StreamingEngine", "_tick", "engine.tick"),
    Target("repro.engines.storm", "StormEngine", "_drain_inflight", "engine.storm_drain"),
    # driver queues
    Target("repro.core.queues", "DriverQueue", "push", "queues.push", rows=_one_row),
    Target("repro.core.queues", "DriverQueue", "push_block", "queues.push", rows=_block_rows),
    Target("repro.core.queues", "DriverQueue", "pull", "queues.pull"),
    Target("repro.core.queues", "DriverQueue", "pull_blocks", "queues.pull"),
    # generator
    Target("repro.core.generator", "DataGenerator", "_tick", "generator.tick"),
    # simulator
    Target("repro.sim.simulator", "Simulator", "run_until", "sim.run"),
    Target("repro.sim.simulator", "Simulator", "schedule_at", "sim.schedule", kind="count"),
    Target("repro.sim.network", "DataPlane", "allocate", "sim.network"),
    # sink and latency collector
    Target("repro.engines.operators.sink", "Sink", "emit", "sink.emit"),
    Target("repro.core.latency", "LatencyCollector", "summary", "collector.summary"),
    # one trial: run_experiment as each harness calls it, and driver.run
    Target("repro.core.experiment", None, "run_experiment", "trial"),
    Target("repro.recovery.chaos", None, "run_experiment", "trial"),
    Target("repro.core.driver", "BenchmarkDriver", "run", "driver.run"),
    # faults and the detection plane
    Target("repro.engines.base", "StreamingEngine", "inject_fault", "faults.inject"),
    Target("repro.core.driver", "BenchmarkDriver", "inject_fault", "faults.inject"),
    Target("repro.detect.plane", "DetectionPlane", "_tick", "detect.tick"),
    Target("repro.detect.plane", "DetectionPlane", "finalize", "detect.finalize"),
    # the sustainable-throughput search
    Target("repro.core.sustainable", None, "assess", "sustainable.assess"),
    Target("repro.core.sustainable", None, "find_sustainable_throughput", "harness"),
    # journal, scheduler and the chaos harness
    Target("repro.metrology.journal", "TrialJournal", "__init__", "journal.open"),
    Target("repro.metrology.journal", "TrialJournal", "record", "journal.record"),
    Target("repro.metrology.journal", "TrialJournal", "merge_shards", "journal.merge"),
    Target("repro.sched.pool", "TrialScheduler", "run", "sched.run"),
    Target("repro.recovery.chaos", None, "run_chaos", "harness"),
)

#: The few entry points timed from the parent while a worker pool runs
#: (wrapping more would only add cost inside the forked workers).
POOL_TARGETS: Tuple[Target, ...] = (
    Target("repro.metrology.journal", "TrialJournal", "merge_shards", "journal.merge"),
    Target("repro.sched.pool", "TrialScheduler", "run", "sched.run"),
)

#: ``metric -> (unit, how it is read)``; the order is the printed order.
#: ``("self", "a+b")`` summed self time of the layers, ``("calls", layer)``
#: span count, ``("counter", name)`` a counter,
#: ``("per_call", layer)`` rows per call, ``("extra", name)`` a value
#: the workload measured itself.
METRICS: Tuple[Tuple[str, str, Tuple[str, str]], ...] = (
    ("stores.add_s", "s", ("self", "stores.add")),
    ("stores.add_calls", "count", ("calls", "stores.add")),
    ("stores.rows_per_add", "rows", ("per_call", "stores.add")),
    ("stores.close_s", "s", ("self", "stores.close")),
    ("broker.forward_s", "s", ("self", "broker.forward")),
    ("broker.deliver_s", "s", ("self", "broker.deliver")),
    ("broker.deliver_calls", "count", ("calls", "broker.deliver")),
    ("engine.tick_self_s", "s", ("self", "engine.tick")),
    ("engine.ticks", "count", ("calls", "engine.tick")),
    ("engine.storm_drain_s", "s", ("self", "engine.storm_drain")),
    ("engine.storm_drain_calls", "count", ("calls", "engine.storm_drain")),
    ("queues.push_s", "s", ("self", "queues.push")),
    ("queues.pull_s", "s", ("self", "queues.pull")),
    ("queues.push_calls", "count", ("calls", "queues.push")),
    ("queues.rows_per_push", "rows", ("per_call", "queues.push")),
    ("generator.tick_s", "s", ("self", "generator.tick")),
    ("generator.ticks", "count", ("calls", "generator.tick")),
    ("sim.dispatch_self_s", "s", ("self", "sim.run")),
    ("sim.events_scheduled", "count", ("counter", "sim.schedule.calls")),
    ("sim.network_s", "s", ("self", "sim.network")),
    ("sink.emit_s", "s", ("self", "sink.emit")),
    ("collector.summary_s", "s", ("self", "collector.summary")),
    ("trial.build_s", "s", ("extra", "trial.build_s")),
    ("trial.finalize_s", "s", ("extra", "trial.finalize_s")),
    ("faults.inject_s", "s", ("self", "faults.inject")),
    ("faults.injected", "count", ("calls", "faults.inject")),
    ("detect.tick_s", "s", ("self", "detect.tick")),
    ("detect.finalize_s", "s", ("self", "detect.finalize")),
    ("sustainable.assess_s", "s", ("self", "sustainable.assess")),
    ("sustainable.probes", "count", ("calls", "sustainable.assess")),
    ("journal.open_s", "s", ("self", "journal.open")),
    ("journal.record_s", "s", ("self", "journal.record")),
    ("journal.records", "count", ("calls", "journal.record")),
    ("journal.bytes", "bytes", ("extra", "journal.bytes")),
    ("journal.merge_s", "s", ("extra", "journal.merge_s")),
    ("sched.run_s", "s", ("extra", "sched.run_s")),
    ("sched.parallel_efficiency", "ratio", ("extra", "sched.parallel_efficiency")),
    ("harness.self_s", "s", ("self", "harness+sched.run")),
    ("trace.spans", "count", ("extra", "trace.spans")),
    ("trace.untraced_wall_s", "s", ("extra", "trace.untraced_wall_s")),
    ("trace.traced_wall_s", "s", ("extra", "trace.traced_wall_s")),
    ("trace.overhead_s", "s", ("extra", "trace.overhead_s")),
    ("trace.overhead_frac", "ratio", ("extra", "trace.overhead_frac")),
)


def layer_metrics(
    recorder: SpanRecorder, extra: Dict[str, float]
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``{name: (value, unit)}``; a layer the
    workload never entered reads 0."""
    totals = recorder.layer_totals()
    empty = {"self_s": 0.0, "total_s": 0.0, "calls": 0.0}
    out: Dict[str, Tuple[float, str]] = {}
    for name, unit, (how, key) in METRICS:
        layer = totals.get(key, empty)
        if how == "self":
            value = sum(totals.get(k, empty)["self_s"] for k in key.split("+"))
        elif how == "calls":
            value = layer["calls"]
        elif how == "counter":
            value = recorder.counters.get(key, 0.0)
        elif how == "per_call":
            rows = recorder.counters.get(f"{key}.rows", 0.0)
            value = rows / layer["calls"] if layer["calls"] else 0.0
        else:
            value = extra.get(key, 0.0)
        out[name] = (float(value), unit)
    return out


def render_table(metrics: Dict[str, Tuple[float, str]], wall_s: float) -> List[str]:
    """The per-layer table: value, unit and -- for self times -- the
    share of the traced wall time."""
    lines = [f"{'metric':<28} {'value':>14} {'unit':<6} {'share':>7}"]
    for name, (value, unit) in metrics.items():
        share = ""
        if unit == "s" and wall_s > 0 and not name.startswith(("trace.", "sched.")):
            share = f"{100.0 * value / wall_s:6.1f}%"
        lines.append(f"{name:<28} {value:>14.6g} {unit:<6} {share:>7}")
    return lines
