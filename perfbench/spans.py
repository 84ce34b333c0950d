"""Outside-in span recorder for the traced benchmark run.

The recorder never touches the program's source.  It wraps entry
points of the layers (public methods, or the bound method the simulator
dispatches each tick) by replacing the attribute on its class or module
for the duration of a ``with recorder.installed(targets):`` block, and
puts every original back on exit.

Each wrapped call records one span -- layer name, start, end, parent
span -- into flat arrays kept in memory; :meth:`SpanRecorder.save`
writes them out when the benchmark ends.  A layer's self time is its
spans' duration minus the time their direct child spans cover
(:func:`self_times`).  A call into a layer from inside a span of the
same layer (``add`` delegating to ``add_block``) is not a new span:
it is part of the outer call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

_ABSENT = object()


@dataclass(frozen=True)
class Target:
    """One entry point to wrap: ``module[.owner].attr`` -> ``layer``.

    ``kind`` is ``"span"`` (time the call) or ``"count"`` (only count
    it, for per-event entry points too hot to time).  ``rows`` maps the
    call's positional arguments to the number of rows it carries; the
    total lands in the ``<layer>.rows`` counter.
    """

    module: str
    owner: Optional[str]
    attr: str
    layer: str
    kind: str = "span"
    rows: Optional[Callable[[tuple], int]] = None


def self_times(
    names: np.ndarray, starts: np.ndarray, ends: np.ndarray, parents: np.ndarray
) -> np.ndarray:
    """Per-span self time: duration minus the direct children's
    durations.  Children of one span run one after another inside it,
    so their durations add up to the time they cover."""
    durations = ends - starts
    has_parent = parents >= 0
    child = np.bincount(
        parents[has_parent],
        weights=durations[has_parent],
        minlength=len(durations),
    )
    return durations - child


class SpanRecorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []
        self.missing: List[str] = []

    def layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def __len__(self) -> int:
        return len(self.names)

    # -- recording ----------------------------------------------------------

    def _open(self, layer_id: int) -> int:
        index = len(self.names)
        self.names.append(layer_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn: Callable, target: Target) -> Callable:
        """The replacement for ``fn`` that records ``target``'s layer."""
        counters = self.counters
        if target.kind == "count":
            key = f"{target.layer}.calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counters[key] = counters.get(key, 0.0) + 1.0
                return fn(*args, **kwargs)

            return counted
        layer_id = self.layer_id(target.layer)
        stack, names = self._stack, self.names
        rows, rows_key = target.rows, f"{target.layer}.rows"
        open_span, close_span = self._open, self._close

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if stack and names[stack[-1]] == layer_id:
                return fn(*args, **kwargs)
            if rows is not None:
                counters[rows_key] = counters.get(rows_key, 0.0) + rows(args)
            index = open_span(layer_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(index)

        return timed

    # -- installing wrappers ---------------------------------------------------

    @contextlib.contextmanager
    def installed(self, targets: Sequence[Target]) -> Iterator["SpanRecorder"]:
        """Wrap every resolvable target; restore every original on exit.

        A target whose module, owner or attribute no longer exists is
        listed in :attr:`missing` and skipped, so a refactor of the
        program shows up as a missing layer instead of a crash.
        """
        patches: List[Tuple[object, str, object]] = []
        try:
            for target in targets:
                owner = _resolve_owner(target)
                original = (
                    vars(owner).get(target.attr, _ABSENT)
                    if owner is not None
                    else _ABSENT
                )
                if original is _ABSENT or not callable(original):
                    self.missing.append(_target_name(target))
                    continue
                patches.append((owner, target.attr, original))
                setattr(owner, target.attr, self.wrap(original, target))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.frombuffer(self.names, dtype=np.int32),
            np.frombuffer(self.starts, dtype=np.float64),
            np.frombuffer(self.ends, dtype=np.float64),
            np.frombuffer(self.parents, dtype=np.int32),
        )

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"self_s", "total_s", "calls"}}`` over all spans."""
        names, starts, ends, parents = self.arrays()
        if self._stack:
            raise RuntimeError("layer totals read while spans are open")
        own = self_times(names, starts, ends, parents)
        count = len(self.layers)
        self_s = np.bincount(names, weights=own, minlength=count)
        total_s = np.bincount(names, weights=ends - starts, minlength=count)
        calls = np.bincount(names, minlength=count)
        return {
            layer: {
                "self_s": float(self_s[i]),
                "total_s": float(total_s[i]),
                "calls": float(calls[i]),
            }
            for i, layer in enumerate(self.layers)
        }

    def gaps(self, parent_layer: str, child_layer: str) -> Tuple[float, float]:
        """Summed time in ``parent_layer`` spans before their first and
        after their last direct ``child_layer`` span (trial build and
        finalize around ``driver.run``)."""
        if parent_layer not in self._layer_ids or child_layer not in self._layer_ids:
            return 0.0, 0.0
        names, starts, ends, parents = self.arrays()
        children = np.flatnonzero(
            (names == self._layer_ids[child_layer])
            & (parents >= 0)
            & (names[np.maximum(parents, 0)] == self._layer_ids[parent_layer])
        )
        owner = parents[children]
        first = np.full(len(names), np.inf)
        last = np.full(len(names), -np.inf)
        np.minimum.at(first, owner, starts[children])
        np.maximum.at(last, owner, ends[children])
        owners = np.unique(owner)
        before = (first[owners] - starts[owners]).sum()
        after = (ends[owners] - last[owners]).sum()
        return float(before), float(after)

    def save(self, path) -> None:
        """Write every span and counter (NumPy ``.npz``)."""
        names, starts, ends, parents = self.arrays()
        np.savez_compressed(
            path,
            layers=np.array(self.layers),
            names=names,
            starts=starts,
            ends=ends,
            parents=parents,
            counter_names=np.array(sorted(self.counters)),
            counter_values=np.array(
                [self.counters[k] for k in sorted(self.counters)]
            ),
        )


def _target_name(target: Target) -> str:
    owner = f".{target.owner}" if target.owner else ""
    return f"{target.module}{owner}.{target.attr}"


def _resolve_owner(target: Target) -> Optional[object]:
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    for part in (target.owner or "").split("."):
        if part:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
    return owner
