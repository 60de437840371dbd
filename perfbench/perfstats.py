"""Arithmetic the benchmark reports with: percentiles, spreads, self times.

Kept free of ``repro`` imports so the benchmark's own tests can check it
without running a workload.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

__all__ = [
    "TAIL_PERCENTILES",
    "percentile",
    "tail",
    "spread",
    "compare",
    "self_times",
    "self_over_wall",
    "hypervolume",
]

#: Candidate tail percentiles, lowest first.  The reported tail is the highest
#: one with at least ten samples beyond it; a fixed ladder keeps the reported
#: percentile from shifting with every small change in the sample count.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (the usual "type 7" definition)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, samples)`` of the tail latency of ``values``.

    The tail is the highest percentile of :data:`TAIL_PERCENTILES` that leaves
    at least ten samples beyond it.  With fewer than 20 samples no percentile
    qualifies and the median is reported, marked by its percentile of 50.
    """
    values = list(values)
    chosen = TAIL_PERCENTILES[0]
    for pct in TAIL_PERCENTILES:
        if math.floor(len(values) * (1.0 - pct / 100.0) + 1e-9) >= 10:
            chosen = pct
    return percentile(values, chosen), chosen, len(values)


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def compare(parent, change, bound: float, better: str) -> dict:
    """Median-to-median comparison of one metric against its bound.

    ``worse_by`` is the change's median relative to the parent's, signed so
    that a positive share is a regression; the metric regressed when that
    share exceeds ``bound``.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    relative = (change_median - parent_median) / abs(parent_median)
    worse_by = relative if better == "lower" else -relative
    return {
        "parent_median": parent_median,
        "change_median": change_median,
        "worse_by": worse_by,
        "regressed": worse_by > bound,
    }


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


def self_times(spans) -> dict[str, tuple[float, int]]:
    """Per span name: ``(summed self seconds, calls)``.

    A span's self time is its duration minus the part of it that its child
    spans cover.  Children on other threads may overlap each other; their
    union is what is subtracted, so a parent waiting on two parallel tasks
    is charged only for the time neither was running.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for span in spans:
        duration = span.end - span.start
        covered = _covered(children.get(span.span_id, ()), span.start, span.end)
        entry = totals[span.name]
        entry[0] += duration - covered
        entry[1] += 1
    return {name: (seconds, calls) for name, (seconds, calls) in totals.items()}


def self_over_wall(spans, root_names) -> float:
    """Summed self time of the spans under root spans, over the roots' wall clock.

    Roots are parentless spans named in ``root_names``.  Single-threaded,
    the self times partition each root's duration and the ratio is 1; with
    work on several threads it is the average number of them busy at once.
    """
    by_id = {span.span_id: span for span in spans}
    roots = {span.span_id: span for span in spans if span.parent is None and span.name in root_names}
    members = []
    for span in spans:
        node = span
        while node.parent is not None and node.parent in by_id:
            node = by_id[node.parent]
        if node.span_id in roots:
            members.append(span)
    wall = sum(root.end - root.start for root in roots.values())
    total = sum(seconds for seconds, _calls in self_times(members).values())
    return total / wall if wall else 0.0


def hypervolume(points) -> float:
    """Area dominated by 2-D maximisation points, measured from the origin."""
    area = 0.0
    best_y = 0.0
    for x, y in sorted(points, reverse=True):
        if y > best_y and x > 0:
            area += x * (y - best_y)
            best_y = y
    return area
