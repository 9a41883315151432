"""In-memory span tracer that wraps qdbench's public functions from outside.

Nothing inside the package is edited: each wrapper replaces a function at the
name its caller looks up (a module attribute, a class attribute, or the name
another module bound with ``from ... import``) and is removed again by
:meth:`Tracer.uninstall`.  A span is ``(name, start, end, parent, info)``;
``parent`` is the index of the enclosing span on the same thread, or -1.

A layer's self time is its span durations minus the time covered by their
direct child spans, so the self times of all spans in a tree add up to the
duration of its root.  The analysis methods expect every span to be closed,
i.e. no wrapped call still running.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict

CLOCK = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._local = threading.local()
        self._patches: list = []

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn, info=None):
        """Return ``fn`` wrapped in a span; ``info(args, kwargs, result)`` may
        attach a small record (a size, a status) to the span."""
        spans = self.spans
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            result = None
            t0 = CLOCK()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = CLOCK()
                stack.pop()
                spans[idx] = (name, t0, t1, parent,
                              info(args, kwargs, result) if info is not None else None)

        return traced

    def patch(self, owner, attr: str, name: str, info=None) -> None:
        """Replace ``owner.attr`` by a traced version until :meth:`uninstall`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, info))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> list:
        """Self time of every span, index-aligned with ``self.spans``."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        return [(s[2] - s[1]) - child_time[i] for i, s in enumerate(self.spans)]

    def has_ancestor(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def totals(self) -> dict:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        selfs = self.self_times()
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, span in enumerate(self.spans):
            rec = out[span[0]]
            rec["calls"] += 1
            rec["total_s"] += span[2] - span[1]
            rec["self_s"] += selfs[i]
        return dict(out)

    def root_seconds(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0)

    def write_jsonl(self, path) -> None:
        """One JSON object per span, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0 - origin,
                                     "end": t1 - origin, "parent": parent,
                                     "info": info}) + "\n")


def calibrate_overhead(repeats: int = 20000) -> float:
    """Seconds a wrapper adds to one call, measured on a no-op function."""
    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("noop", noop)
    best_plain = best_traced = float("inf")
    for _ in range(3):
        t0 = CLOCK()
        for _ in range(repeats):
            noop()
        best_plain = min(best_plain, CLOCK() - t0)
        tracer.spans.clear()
        t0 = CLOCK()
        for _ in range(repeats):
            traced()
        best_traced = min(best_traced, CLOCK() - t0)
    return max(0.0, (best_traced - best_plain) / repeats)
