"""Call spans recorded around the program's functions, and their arithmetic.

A span is ``[name, parent, start, end, work]``: ``parent`` is the index of
the enclosing span in the same list (-1 for none) and ``work`` a count read
from the call's arguments. Spans stay in memory until `Tracer.drain`.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

NAME, PARENT, START, END, WORK = range(5)


class Tracer:
    """Owns the span list and the stack of open spans."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._clock = clock

    def _open(self, name: str, work: int) -> list:
        span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, work]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = self._clock()
        return span

    def _close(self, span: list) -> None:
        span[END] = self._clock()
        self._stack.pop()

    def wrap(self, name: str, fn, work=None):
        """`fn` with one span per call; `work(args, kwargs)` gives the span's count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, work(args, kwargs) if work else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def wrap_generator(self, name: str, fn):
        """Generator function `fn` with one span per item produced."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                span = self._open(name, 0)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                yield item

        return traced

    def drain(self) -> list[list]:
        if self._stack:
            raise RuntimeError("drain() while spans are open")
        spans, self.spans = self.spans, []
        return spans


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        clipped = [(max(lo, s[START]), min(hi, s[END])) for lo, hi in children[i]]
        covered = union_length([(lo, hi) for lo, hi in clipped if hi > lo])
        out.append(s[END] - s[START] - covered)
    return out


def count_under(spans, name: str, ancestor: str) -> int:
    """Number of spans called `name` that have a span called `ancestor` above them."""
    total = 0
    for s in spans:
        if s[NAME] != name:
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != ancestor:
            p = spans[p][PARENT]
        total += p >= 0
    return total


def layer_stats(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_s and the summed work count."""
    stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "work": 0})
    for s, own in zip(spans, self_times(spans)):
        st = stats[s[NAME]]
        st["calls"] += 1
        st["self_s"] += own
        st["work"] += s[WORK]
    return dict(stats)
