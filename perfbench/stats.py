"""Order statistics and span self-time for the benchmark reports."""

from __future__ import annotations

import math

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; otherwise the highest percentile that has them is used.
TAIL_SAMPLES = 10


def quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[min(rank, len(ordered) - 1)]


def tail_q(n: int, q: float = 0.99) -> float:
    """The highest quantile <= *q* with TAIL_SAMPLES samples beyond it
    (never below the median)."""
    if n <= 0:
        return q
    return max(0.5, min(q, 1.0 - TAIL_SAMPLES / n))


def summary(values, scale: float = 1.0) -> dict:
    """Median and supported tail of *values*, multiplied by *scale*."""
    n = len(values)
    q = tail_q(n)
    return {"p50": quantile(values, 0.5) * scale,
            "tail": quantile(values, q) * scale,
            "tail_q": q, "n": n}


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus the part of its
    interval that its child spans cover.

    *spans* are ``(name, start, end, parent_id, op, span_id)`` tuples.
    Children on pool threads may overlap each other, so the covered
    part is the union of their intervals, clipped to the parent's.
    """
    by_id = {span[5]: span for span in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _, _ in spans:
        if parent in by_id:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for span_id, (_, start, end, _, _, _) in by_id.items():
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span_id] = (end - start) - covered
    return result
