"""In-memory spans recorded by the benchmark around its calls into nucsim.

A span is (name, layer, start, end, parent, op): ``parent`` is the index of
the enclosing span, or None, and ``op`` the id of the operation it belongs
to.  Nothing inside ``src/`` is instrumented; every span wraps one call the
benchmark makes into a layer's public function.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op")

    def __init__(self, name: str, layer: str, start: float, parent: int | None, op: int | None):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op

    @property
    def dur(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.name, self.layer, self.start, self.end, self.parent, self.op]


class Tracer:
    """Collects spans; one op at a time is open."""

    FIELDS = ("name", "layer", "start", "end", "parent", "op")

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.op: int | None = None
        self._op_first = 0

    def begin_op(self, op: int) -> None:
        self.op = op
        self._op_first = len(self.spans)

    @contextmanager
    def span(self, name: str, layer: str):
        parent = self._open[-1] if self._open else None
        rec = Span(name, layer, time.perf_counter(), parent, self.op)
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def op_spans(self) -> list[Span]:
        """Spans of the op opened by the last :meth:`begin_op`."""
        return self.spans[self._op_first:]

    def op_total(self, name: str) -> float:
        return sum(s.dur for s in self.op_spans() if s.name == name)

    def op_durations(self, prefix: str) -> dict[str, list[float]]:
        """Durations of this op's spans whose name starts with ``prefix``."""
        out: dict[str, list[float]] = defaultdict(list)
        for s in self.op_spans():
            if s.name.startswith(prefix):
                out[s.name].append(s.dur)
        return out


def self_time(spans: list[Span], op_workload: dict[int, str]) -> dict[str, dict[str, float]]:
    """Seconds per workload and layer that no child span covers.

    Children nest strictly inside their parent, so the covered part of a
    parent's interval is the sum of its children's durations.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.dur
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        out[op_workload[s.op]][s.layer] += s.dur - covered[i]
    return {w: dict(layers) for w, layers in out.items()}
