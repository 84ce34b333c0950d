"""Small statistics and host facts the benchmark reports."""

from __future__ import annotations

import os
import platform
import statistics
import time
from typing import Dict, List, Optional

#: Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def highest_percentile(count: int, beyond: int = 10) -> Optional[float]:
    """The highest ladder percentile with at least ``beyond`` samples
    above it among ``count`` samples, or ``None`` if even the median has
    fewer."""
    best = None
    for p in PERCENTILE_LADDER:
        if count * (1.0 - p / 100.0) >= beyond - 1e-9:
            best = p
    return best


def median_of_pass_medians(walls: List[float], marks: List[int]) -> float:
    """The median over passes of each pass's median trial time; pass
    *k* holds ``walls[marks[k]:marks[k + 1]]``.  A pass mixes trials of
    different kinds (broker-ablation: one direct and one brokered), so
    the plain median of all trials falls between the kinds' extremes,
    where one slow or fast trial moves it; a pass's median does not
    depend on such a single trial."""
    medians = [
        statistics.median(walls[start:end])
        for start, end in zip(marks, marks[1:])
        if end > start
    ]
    return statistics.median(medians)


def host_speed_probe(loops: int = 5) -> float:
    """Median milliseconds of a fixed pure-Python loop.  Information
    only: it shows how fast the host ran, and scales no metric."""
    samples: List[float] = []
    for _ in range(loops):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak resident set of this process and of any waited-for child
    (worker pools, cold-start probes), whichever is larger."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def host_facts() -> Dict[str, str]:
    """What the numbers depend on besides the code."""
    import numpy

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    return {
        "nproc": str(cpus),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "PYTHONDONTWRITEBYTECODE": "set" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "unset",
    }


def spread_plan(samples: int, gaps: int) -> List[int]:
    """How many of ``samples`` cold starts to run in each of ``gaps``
    slots (before, between and after the timed units), round robin from
    the first slot, so they sample the whole run."""
    plan = [0] * gaps
    for i in range(samples):
        plan[i % gaps] += 1
    return plan

