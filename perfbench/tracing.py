"""In-memory spans around calls into dltf's modules.

A traced run replaces module attributes (``trainer.update_Z``,
``encoder.max_k_columns``, ...) with wrappers. Callers inside dltf look
those names up in their module's globals at call time, so the wrappers
see every call without any change to dltf. Each wrapper records a span
(name, start, end, parent, pass) and counts calls; ``restore`` puts the
original functions back.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans: list = []   # [name, start, end, parent index, pass id]
        self.counts: Counter = Counter()
        self.pass_id = -1
        self._stack: list[int] = []
        self._patched: list = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_id])
        self._stack.append(idx)
        self.counts[name] += 1
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, module, attr: str) -> None:
        """Record a span named ``<module>.<attr>`` for every call made
        through the module attribute."""
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def wrap_all(self, targets) -> None:
        """Wrap every ``(module, attribute names)`` pair of targets."""
        for module, attrs in targets:
            for attr in attrs:
                self.wrap(module, attr)

    def restore(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pass"],
                       "spans": self.spans, "calls": dict(self.counts)}, fh)


class SpanIndex:
    """Queries over the finished spans of one pass."""

    def __init__(self, spans: list, pass_id: int):
        self.all = spans
        self.ids = [i for i, s in enumerate(spans) if s[4] == pass_id]
        self.children: dict = {}
        for i in self.ids:
            self.children.setdefault(spans[i][3], []).append(i)

    def named(self, name: str) -> list[int]:
        return [i for i in self.ids if self.all[i][0] == name]

    def duration(self, i: int) -> float:
        s = self.all[i]
        return s[2] - s[1]

    def total(self, name: str, under: str | None = None) -> float:
        return sum(self.duration(i) for i in self.named(name)
                   if under is None or self.has_ancestor(i, under))

    def count(self, name: str, under: str | None = None) -> int:
        return sum(1 for i in self.named(name)
                   if under is None or self.has_ancestor(i, under))

    def self_time(self, i: int) -> float:
        return self.duration(i) - sum(self.duration(c) for c in self.children.get(i, []))

    def child_count(self, i: int, name: str) -> int:
        return sum(1 for c in self.children.get(i, []) if self.all[c][0] == name)

    def has_ancestor(self, i: int, name: str) -> bool:
        p = self.all[i][3]
        while p >= 0:
            if self.all[p][0] == name:
                return True
            p = self.all[p][3]
        return False
