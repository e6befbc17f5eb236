"""In-memory spans and counters recorded around calls into quineset.

A span is ``[name, start, end, parent, round]``: times in seconds from the
tracer's creation, ``parent`` the index of the enclosing span or ``None``,
``round`` the label of the round or set-up repetition it belongs to. Counters
are totals per name and round. Calls too frequent to keep one span each
(``specify`` runs tens of thousands of times a round) are kept as a time
total and a call count. Nothing is written until the run ends.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []
        self.counters = {}
        self.round = None
        self._stack = []

    @contextmanager
    def span(self, name):
        """Record a span; the body receives its index into ``spans``."""
        index = len(self.spans)
        record = [name, time.perf_counter() - self.origin, None,
                  self._stack[-1] if self._stack else None, self.round]
        self._stack.append(index)
        self.spans.append(record)
        try:
            yield index
        finally:
            self._stack.pop()
            record[2] = time.perf_counter() - self.origin

    def count(self, name, value):
        key = (name, self.round)
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, module, attr, name_of):
        """Record a span per call of ``module.attr``, named ``name_of(result)``."""
        inner = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(attr) as index:
                result = inner(*args, **kwargs)
            tracer.spans[index][0] = name_of(result)
            return result

        setattr(module, attr, traced)

    def tally(self, module, attr, name_of):
        """Add up the calls to ``module.attr`` and their time, per round.

        ``name_of(suffix)`` names the counters, asked at each call.
        """
        inner = getattr(module, attr)
        tracer = self

        def tallied(*args, **kwargs):
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                tracer.count(name_of("_s"), time.perf_counter() - start)
                tracer.count(name_of("_calls"), 1)

        setattr(module, attr, tallied)

    def export(self):
        return {
            "spans": self.spans,
            "counters": [[name, rnd, value] for (name, rnd), value in self.counters.items()],
        }


def null_span(_name):
    return nullcontext()


def layer_medians(exported):
    """Median over rounds of each span name's total time and each counter."""
    totals = {}
    for name, start, end, _parent, rnd in exported["spans"]:
        totals[(name, rnd)] = totals.get((name, rnd), 0.0) + (end - start)
    for name, rnd, value in exported["counters"]:
        totals[(name, rnd)] = totals.get((name, rnd), 0) + value
    per_name = {}
    for (name, _rnd), value in totals.items():
        per_name.setdefault(name, []).append(value)
    return {name: statistics.median(values) for name, values in per_name.items()}
