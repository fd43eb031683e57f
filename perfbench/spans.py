"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer: its name, start, end, the span that
caused it, and counts recorded at that boundary (rows in/out). When a
SparkContext is given, every span runs under its own Spark job group so
its jobs and stages can be counted from ``statusTracker`` afterwards.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    own_jobs: int = 0
    own_stages: int = 0

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def covered_length(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, child_intervals) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (end - start) - covered_length(start, end, child_intervals)


class Tracer:
    """Records nested spans; one Spark job group per span."""

    def __init__(self, sc=None):
        self.sc = sc
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, parent, time.perf_counter(), counts=dict(counts))
        self.spans.append(s)
        self._stack.append(s.id)
        self._set_group(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            self._set_group(parent)

    def _set_group(self, span_id: int | None) -> None:
        if self.sc is None:
            return
        if span_id is None:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
        else:
            self.sc.setJobGroup(f"perfbench-span-{span_id}", self.spans[span_id].name)

    def collect_spark_counts(self, settle_s: float = 0.2, tries: int = 20) -> None:
        """Fill each span's own Spark job and stage counts.

        The status store is fed by Spark's asynchronous listener bus, so
        the counts are read until two reads agree.
        """
        if self.sc is None:
            return
        tracker = self.sc.statusTracker()
        prev = None
        for _ in range(tries):
            counts = []
            for s in self.spans:
                jobs = tracker.getJobIdsForGroup(f"perfbench-span-{s.id}")
                stages = 0
                for j in jobs:
                    info = tracker.getJobInfo(j)
                    stages += len(info.stageIds) if info is not None else 0
                counts.append((len(jobs), stages))
            if counts == prev:
                break
            prev = counts
            time.sleep(settle_s)
        for s, (jobs, stages) in zip(self.spans, prev):
            s.own_jobs, s.own_stages = jobs, stages

    # -- derived views ------------------------------------------------------
    def children(self, span_id: int) -> list[Span]:
        return [s for s in self.spans if s.parent == span_id]

    def self_s(self, span: Span) -> float:
        return self_time(
            span.start, span.end, [(c.start, c.end) for c in self.children(span.id)]
        )

    def inclusive(self, span: Span, attr: str) -> int:
        """A Spark count of a span plus those of all its descendants."""
        return getattr(span, attr) + sum(
            self.inclusive(c, attr) for c in self.children(span.id)
        )

    def to_json(self) -> list[dict]:
        return [
            {
                "id": s.id, "name": s.name, "parent": s.parent,
                "start": s.start, "end": s.end, "counts": s.counts,
                "spark_jobs": s.own_jobs, "spark_stages": s.own_stages,
            }
            for s in self.spans
        ]
