"""In-memory spans recorded around calls into the package's public functions.

The package itself is not instrumented: `Tracer.patch` replaces a module or
class attribute with a wrapper that records one span per call, so only calls
that look the attribute up at call time are seen.  Spans are kept in memory
and written out once, when the repetition ends.
"""

from __future__ import annotations

import functools
import gzip
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Spans as [name, start, end, parent index, request id].

    A span opened inside another is its child; a span without an explicit
    request id inherits its parent's.  Calls run on one thread, so children
    never overlap and a span's self time is its duration minus the sum of
    its children's durations.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []

    def _open(self, name, request):
        parent = self._stack[-1] if self._stack else -1
        if request is None and parent >= 0:
            request = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, parent, request])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, request=None):
        index = self._open(name, request)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name, fn, request_of=None, count_of=None):
        """`fn` recording a span per call; `request_of(*args)` names the
        request, `count_of(result)` adds to the counter of the same name."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name, request_of(*args) if request_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count_of is not None:
                self.counts[name] += count_of(result)
            return result

        return traced

    def patch(self, owner, attr, name, request_of=None, count_of=None):
        """Replace `owner.attr` (or `owner[attr]` for a dict) by a traced wrapper."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(name, original, request_of, count_of)
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, original, request_of, count_of))
        self._patched.append((owner, attr, original))

    def unpatch(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def stats(self):
        """{name: {"calls", "s", "self_s", "max_ms"}} over all closed spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _request in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for index, (name, start, end, _parent, _request) in enumerate(self.spans):
            duration = end - start
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "max_ms": 0.0})
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - child_time[index]
            entry["max_ms"] = max(entry["max_ms"], 1000.0 * duration)
        return out

    def children_of(self, name):
        """{child name: call count} over spans whose parent is named `name`."""
        out = defaultdict(int)
        for child, _start, _end, parent, _request in self.spans:
            if parent >= 0 and self.spans[parent][0] == name:
                out[child] += 1
        return dict(out)

    def time_by_request(self, name):
        """{request id: summed duration} of the spans named `name`."""
        out = defaultdict(float)
        for span_name, start, end, _parent, request in self.spans:
            if span_name == name:
                out[request] += end - start
        return dict(out)

    def dump(self, path):
        """Write every span as gzip-compressed JSON."""
        names = sorted({span[0] for span in self.spans})
        ids = {name: i for i, name in enumerate(names)}
        rows = [[ids[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "names": names, "spans": rows}, fh)
