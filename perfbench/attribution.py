"""Self-time attribution over a tree of spans.

A span's self time is its duration minus the part of that interval its
child spans cover.  When children overlap one another (an engine batch
on the executor thread overlapping the event loop's idle wait), each
instant goes to one child only: to the child of lowest ``priority``,
then to the earliest.  So the self times of all spans add up exactly to
the covered duration of the root spans, and nothing is counted twice.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

Interval = tuple[float, float]


@dataclass
class Span:
    """One timed call: which layer ran, when, and under which parent."""

    span_id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    #: Among overlapping siblings the lowest priority keeps the overlap.
    priority: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _merge(intervals: list[Interval]) -> list[Interval]:
    out: list[Interval] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if out and start <= out[-1][1]:
            if end > out[-1][1]:
                out[-1] = (out[-1][0], end)
        else:
            out.append((start, end))
    return out


def _subtract(a: list[Interval], b: list[Interval]) -> list[Interval]:
    out: list[Interval] = []
    j = 0
    for start, end in a:
        while j < len(b) and b[j][1] <= start:
            j += 1
        k = j
        cur = start
        while k < len(b) and b[k][0] < end:
            if b[k][0] > cur:
                out.append((cur, b[k][0]))
            cur = max(cur, b[k][1])
            k += 1
        if cur < end:
            out.append((cur, end))
    return out


def _measure(intervals: list[Interval]) -> float:
    return sum(end - start for start, end in intervals)


def _clip(region: list[Interval], ends: list[float], start: float, end: float) -> list[Interval]:
    """``region`` (sorted, disjoint) intersected with ``[start, end)``."""
    out: list[Interval] = []
    k = bisect.bisect_right(ends, start)
    while k < len(region) and region[k][0] < end:
        lo, hi = max(region[k][0], start), min(region[k][1], end)
        if lo < hi:
            out.append((lo, hi))
        k += 1
    return out


def attribute(spans: list[Span]) -> dict[str, float]:
    """Seconds owned by each layer; they sum to the roots' covered time."""
    by_id = {s.span_id: s for s in spans}
    children: dict[int | None, list[Span]] = {}
    for s in spans:
        parent = s.parent if s.parent in by_id else None
        children.setdefault(parent, []).append(s)
    owned: dict[str, float] = {}

    def visit(span: Span, region: list[Interval]) -> None:
        claimed: list[Interval] = []
        kids = children.get(span.span_id, [])
        for priority in sorted({k.priority for k in kids}):
            group = sorted(
                (k for k in kids if k.priority == priority), key=lambda k: k.start
            )
            free = _subtract(region, claimed)
            ends = [hi for _, hi in free]
            taken: list[Interval] = []
            floor = float("-inf")
            for kid in group:
                # Overlapping siblings of one priority: the earlier keeps it.
                start = max(kid.start, floor)
                floor = max(floor, kid.end)
                kid_region = _clip(free, ends, start, kid.end) if start < kid.end else []
                taken.extend(kid_region)
                visit(kid, kid_region)
            claimed = _merge(claimed + taken)
        owned[span.layer] = owned.get(span.layer, 0.0) + _measure(region) - _measure(claimed)

    for root in children.get(None, []):
        visit(root, [(root.start, root.end)] if root.end > root.start else [])
    return owned
