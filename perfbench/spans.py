"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's side, around calls into public
functions of ``mris`` (and the eigensolvers it calls).  A wrapper replaces a
function in every namespace that holds it, so a call is traced whether the
caller wrote ``module.f(...)`` or imported ``f`` by name.  Nothing under
``src/`` is changed.

A span is ``(id, name, start, end, parent)``.  The self time of a span is its
duration minus the part of its interval that its child spans cover.
"""

import functools
import sys
import threading
import time


class SpanRecorder:
    """Collects spans and counters in memory."""

    def __init__(self):
        self.spans = []                  # [id, name, start, end, parent]
        self.counters = {}
        self.enabled = True
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name):
        stack = self._stack()
        span = [len(self.spans), name, time.perf_counter(), None,
                stack[-1][0] if stack else None]
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span):
        span[3] = time.perf_counter()
        self._stack().pop()

    def count(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name, fn, counter=None):
        """``fn`` recorded as span ``name``; ``counter(args, kwargs, result)``
        returns ``{counter_name: increment}`` after each call."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if counter is not None:
                for key, inc in counter(args, kwargs, result).items():
                    self.count(key, inc)
            return result
        return traced


def covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans):
    """Per span name: calls, total and self seconds, and the calls that had
    children (for a cache, the misses) with their total seconds."""
    children = {}
    for sid, _name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, name, start, end, _parent in spans:
        dur = end - start
        kids = children.get(sid, ())
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                    "parent_calls": 0, "parent_total_s": 0.0})
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - covered(kids, start, end)
        if kids:
            row["parent_calls"] += 1
            row["parent_total_s"] += dur
    return out


def install(recorder, targets, namespaces):
    """Wrap each ``(owner, attr, span_name, counter)`` target.

    The wrapper replaces the original object under ``owner.attr`` and under
    every name in ``namespaces`` (module objects) bound to the same object,
    so callers that imported the name directly are traced too.
    """
    for owner, attr, name, counter in targets:
        original = getattr(owner, attr)
        wrapped = recorder.wrap(name, original, counter)
        for ns in [owner] + [ns for ns in namespaces if ns is not owner]:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapped)


def mris_namespaces():
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "mris" or name.startswith("mris.")]


def self_test():
    """Self-time arithmetic on a hand-built tree.  Returns a list of errors.

    root [0, 10] has children a [1, 4] and b [3, 6] (overlapping, as from two
    threads) and c [8, 12] (running past the root's end); a has child a1
    [2, 3].  Self times: root 10 - |[1,6] u [8,10]| = 3, a 3 - 1 = 2,
    a1 1, b 3, c 4.
    """
    spans = [
        [0, "root", 0.0, 10.0, None],
        [1, "a", 1.0, 4.0, 0],
        [2, "a1", 2.0, 3.0, 1],
        [3, "b", 3.0, 6.0, 0],
        [4, "c", 8.0, 12.0, 0],
    ]
    want = {"root": 3.0, "a": 2.0, "a1": 1.0, "b": 3.0, "c": 4.0}
    got = {k: v["self_s"] for k, v in summarize(spans).items()}
    errors = [f"self time of {k}: {got.get(k)} != {v}"
              for k, v in want.items() if abs(got.get(k, -1.0) - v) > 1e-12]
    if summarize(spans)["a"]["parent_calls"] != 1:
        errors.append("span a should count as a call with children")
    if covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.5, 5.5) != 3.0:
        errors.append("interval union is wrong")
    return errors
