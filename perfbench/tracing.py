"""Spans and counters recorded around the benchmark's calls into fdl.

A span has a name, a start and an end (time.perf_counter seconds), the
index of the span that encloses it, and the id of the goal it belongs to;
all spans of one goal share that id. Counters are summed by name. Both stay
in memory until the run ends and `write` puts the spans out as JSON lines.

A span's self time is its duration minus the durations of its children.
The benchmark's calls into fdl do not overlap, so that is the part of the
span its children do not cover.
"""

import contextlib
import json
import time
from collections import Counter


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, goal id]
        self.counters = Counter()
        self.goal = None
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None,
               self._open[-1] if self._open else -1, self.goal]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def count(self, name, n=1):
        self.counters[name] += n

    def self_ms(self) -> Counter:
        """Self time in ms, summed per span name."""
        out = Counter()
        for name, start, end, parent, _ in self.spans:
            ms = (end - start) * 1000.0
            out[name] += ms
            if parent >= 0:
                out[self.spans[parent][0]] -= ms
        return out

    def total_ms(self, name) -> float:
        return sum((end - start) * 1000.0
                   for n, start, end, _, _ in self.spans if n == name)

    def calls(self) -> Counter:
        return Counter(rec[0] for rec in self.spans)

    def write(self, path):
        with open(path, 'w') as fh:
            for i, (name, start, end, parent, goal) in enumerate(self.spans):
                fh.write(json.dumps({'id': i, 'name': name, 'start': start,
                                     'end': end, 'parent': parent,
                                     'goal': goal}) + '\n')
            fh.write(json.dumps({'counters': dict(self.counters)}) + '\n')


class NullTracer:
    """Stands in for a Tracer when the run measures end to end."""

    enabled = False
    goal = None
    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def count(self, name, n=1):
        pass
