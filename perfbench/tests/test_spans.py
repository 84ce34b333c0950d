"""Self-time arithmetic and wrapper hygiene of the span recorder."""

import numpy as np
import pytest

from perfbench import layers
from perfbench.spans import SpanRecorder, Target, _resolve_owner, self_times


def test_self_time_of_nested_spans():
    # root [0, 10] > mid [1, 7] > leaf [2, 5]
    names = np.array([0, 1, 2])
    starts = np.array([0.0, 1.0, 2.0])
    ends = np.array([10.0, 7.0, 5.0])
    parents = np.array([-1, 0, 1])
    assert self_times(names, starts, ends, parents).tolist() == [4.0, 3.0, 3.0]


def test_self_time_of_sibling_spans():
    # root [0, 10] with children [1, 3] and [4, 8]; the second has [5, 6]
    names = np.array([0, 1, 1, 2])
    starts = np.array([0.0, 1.0, 4.0, 5.0])
    ends = np.array([10.0, 3.0, 8.0, 6.0])
    parents = np.array([-1, 0, 0, 2])
    assert self_times(names, starts, ends, parents).tolist() == [4.0, 2.0, 3.0, 1.0]


class _Clock:
    """A perf_counter stand-in that advances one second per read."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class Pipeline:
    def outer(self):
        self.inner()
        self.inner()

    def inner(self):
        pass


def test_layer_totals_from_recorded_spans(monkeypatch):
    monkeypatch.setattr("perfbench.spans.time.perf_counter", _Clock())
    recorder = SpanRecorder()
    targets = (
        Target(__name__, "Pipeline", "outer", "outer"),
        Target(__name__, "Pipeline", "inner", "inner"),
    )
    with recorder.installed(targets):
        Pipeline().outer()  # outer opens at 1, inner 2..3 and 4..5, outer closes at 6
    totals = recorder.layer_totals()
    assert totals["outer"] == {"self_s": 3.0, "total_s": 5.0, "calls": 1.0}
    assert totals["inner"] == {"self_s": 2.0, "total_s": 2.0, "calls": 2.0}
    # outer ran 1 s before its first inner call and 1 s after its last.
    assert recorder.gaps("outer", "inner") == (1.0, 1.0)
    assert recorder.gaps("outer", "absent") == (0.0, 0.0)


class Store:
    def add(self, row):
        return self.add_block([row])

    def add_block(self, block):
        return len(block)


def _store_targets():
    module = __name__
    return (
        Target(module, "Store", "add", "stores.add", rows=lambda args: 1),
        Target(module, "Store", "add_block", "stores.add", rows=lambda args: len(args[1])),
    )


def test_same_layer_reentry_is_one_span():
    recorder = SpanRecorder()
    with recorder.installed(_store_targets()):
        store = Store()
        store.add(7)
        store.add_block([1, 2, 3])
    assert len(recorder) == 2
    assert recorder.counters["stores.add.rows"] == 4
    assert recorder.layer_totals()["stores.add"]["calls"] == 2.0


def _originals(targets):
    found = {}
    for target in targets:
        owner = _resolve_owner(target)
        if owner is not None and target.attr in vars(owner):
            found[(id(owner), target.attr)] = (owner, vars(owner)[target.attr])
    return found


def test_uninstall_restores_every_method():
    before = _originals(layers.TARGETS)
    assert before, "no layer entry point resolved"
    recorder = SpanRecorder()
    with recorder.installed(layers.TARGETS):
        changed = [
            attr for (_, attr), (owner, original) in before.items()
            if vars(owner)[attr] is original
        ]
        assert changed == []
    for (_, attr), (owner, original) in before.items():
        assert vars(owner)[attr] is original


def test_uninstall_restores_after_an_error():
    before = _originals(_store_targets())
    recorder = SpanRecorder()
    with pytest.raises(ZeroDivisionError):
        with recorder.installed(_store_targets()):
            1 / 0
    for (_, attr), (owner, original) in before.items():
        assert vars(owner)[attr] is original


def test_missing_entry_point_is_listed_not_fatal():
    recorder = SpanRecorder()
    targets = (
        Target(__name__, "Store", "no_such_method", "x"),
        Target("no_such_module_anywhere", None, "f", "y"),
    )
    with recorder.installed(targets):
        pass
    assert len(recorder.missing) == 2


def test_every_layer_target_resolves():
    recorder = SpanRecorder()
    with recorder.installed(layers.TARGETS + layers.POOL_TARGETS):
        pass
    assert recorder.missing == []


def test_layer_metrics_cover_the_table():
    recorder = SpanRecorder()
    values = layers.layer_metrics(recorder, {})
    assert list(values) == [name for name, _, _ in layers.METRICS]
    assert all(value == 0.0 for value, _ in values.values())
