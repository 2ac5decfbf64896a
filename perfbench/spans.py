"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into the engine's public functions by
wrapping them from here; the engine itself is not modified.  A span is
``(name, start, end, parent, op)``: ``parent`` is the index of the span
open on the same thread when this one started (-1 for none) and ``op`` is
the identifier of the benchmark operation in flight.  Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent, op]
        self.op = -1                  # current benchmark operation id
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # ---- recording -----------------------------------------------------

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def begin(self, name: str) -> int:
        st = self._stack()
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           st[-1] if st else -1, self.op])
        st.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def wrap(self, owner, attr: str, name: str, before=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.  ``before``,
        when given, is called with the same arguments just before the span
        opens (used to probe cache state from outside)."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = tracer.begin(name)
            try:
                return orig(*args, **kwargs)
            finally:
                tracer.end(idx)

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def unwrap_all(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # ---- reporting -----------------------------------------------------

    def self_times(self) -> list[float | None]:
        """Per span, its duration minus its direct children's (None while
        the span is open)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[2] is not None and s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        return [None if s[2] is None else s[2] - s[1] - child[i]
                for i, s in enumerate(self.spans)]

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, f)

    @staticmethod
    def span_cost_s(n: int = 20000) -> float:
        """Added cost of one wrapped call over a direct call, in seconds."""

        class Box:
            def f(self):
                return None

        direct = Box()
        t0 = time.perf_counter()
        for _ in range(n):
            direct.f()
        bare = time.perf_counter() - t0
        t = Tracer()
        t.wrap(Box, "f", "noop")
        t0 = time.perf_counter()
        for _ in range(n):
            direct.f()
        return max(0.0, (time.perf_counter() - t0 - bare) / n)
