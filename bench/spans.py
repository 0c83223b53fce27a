"""In-memory spans recorded around the benchmark's calls into gwstack."""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter


class NoTrace:
    """Tracing off: a plain call."""

    op = None

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, n):
        pass


class Tracer:
    """Records ``(name, start, end, parent, op)`` for every call, and counts.

    Spans stay in memory until the run writes them out.  ``parent`` is
    the index of the enclosing span, or None; ``op`` is the op id the
    span belongs to ("setup" during set-up).
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.op = None

    def call(self, name, fn, *args):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def count(self, name, n):
        self.counts[name] += n

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        """Self time per layer: each span's duration minus its children's.

        One thread runs every span, so children never overlap and their
        durations can simply be subtracted.
        """
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        out: dict[str, float] = defaultdict(float)
        for (name, *_), t in zip(self.spans, own):
            out[name.split(".", 1)[0]] += t
        return out

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]
