"""Shared pieces of the workloads: measurement records and statistics."""

from __future__ import annotations

import math
import resource
import statistics
from dataclasses import dataclass, field

# Ladder of percentiles a tail may be reported at; the highest one with at
# least ten samples beyond it is used.
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class Metric:
    value: float
    unit: str
    samples: int = 1
    note: str = ""


@dataclass
class Outcome:
    """What one benchmark invocation measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, Metric] = field(default_factory=dict)
    info: dict[str, object] = field(default_factory=dict)
    tracer: object = None  # the traced run's span recorder

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)


def nearest_rank(ordered: list[float], percentile: float) -> float:
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: list[float]) -> tuple[float, str]:
    """(value, label) at the highest ladder percentile with at least ten
    samples beyond it; the maximum when there are too few samples."""
    ordered = sorted(values)
    for percentile in TAIL_LADDER:
        beyond = len(ordered) - math.ceil(percentile / 100.0 * len(ordered))
        if beyond >= 10:
            return nearest_rank(ordered, percentile), f"p{percentile:g}"
    return ordered[-1], "max"


def median(values: list[float]) -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

