"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent).  Spans are opened by wrappers that the
benchmark installs around library functions from outside; the library itself
is not instrumented.  A span's self time is its duration minus the time its
child spans cover (calls are single-threaded and properly nested, so the
children of one span never overlap).
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter


class Recorder:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()  # counters bumped by the wrappers' hooks
        self.maxima = defaultdict(float)
        self.enabled = False
        self._stack = []

    def layer_of_parent(self):
        """Layer (name prefix) of the innermost open span, or None."""
        if not self._stack:
            return None
        return self.spans[self._stack[-1]][0].split(".", 1)[0]

    def wrap(self, owner, attr, name, before=None, after=None):
        """Replace ``owner.attr`` by a wrapper that records a span ``name``.

        ``before(args, kwargs)`` may return replacement (args, kwargs);
        ``after(args, kwargs, result, nested)`` runs once the call returned,
        outside the span, with ``nested`` true when the caller was a span of
        the same layer.
        """
        fn = getattr(owner, attr)
        layer = name.split(".", 1)[0]
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            nested = rec.layer_of_parent() == layer
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(rec.spans)
            span = [name, 0.0, 0.0, rec._stack[-1] if rec._stack else -1]
            rec.spans.append(span)
            rec._stack.append(idx)
            span[1] = rec.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = rec.clock()
                rec._stack.pop()
            if after is not None:
                after(args, kwargs, result, nested)
            return result

        setattr(owner, attr, wrapper)

    def self_times(self):
        """{span name: summed self time}."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] += (end - start) - covered
        return out

    def durations(self, names):
        """Inclusive durations of the spans named in ``names``."""
        return [s[2] - s[1] for s in self.spans if s[0] in names]

    def root_time(self):
        """Time covered by spans that have no parent span."""
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0)

    def write(self, path):
        """One JSON array [name, start, end, parent] per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
