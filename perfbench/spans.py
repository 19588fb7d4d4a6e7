"""In-memory spans around the benchmark's own calls into the package.

A span records its name (``<module>.<call>``), start and end from
``time.perf_counter``, the index of the span open around it, and the op it
belongs to. Spans stay in memory until the run ends and are then written
out in one file. The untraced run uses ``NULL`` instead, whose spans cost one
attribute lookup and a no-op context manager.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.op = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self._open[-1] if self._open else None, self.op]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[tuple[float, str]]:
        """(duration, op) of every span with this name."""
        return [(s[2] - s[1], s[4]) for s in self.spans if s[0] == name]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def layer_self_seconds(self, op_prefix: str) -> dict[str, float]:
        """Self time per layer (the part of a span name before the first dot),
        summed over the spans of ops whose id starts with ``op_prefix``."""
        out: dict[str, float] = {}
        for s, own in zip(self.spans, self.self_times()):
            if isinstance(s[4], str) and s[4].startswith(op_prefix):
                layer = s[0].split(".", 1)[0]
                out[layer] = out.get(layer, 0.0) + own
        return out

    def records(self) -> list[dict]:
        return [
            {"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4]}
            for i, s in enumerate(self.spans)
        ]


class _NullTracer:
    op = None

    def span(self, name: str):
        return _NOTHING


_NOTHING = nullcontext()
NULL = _NullTracer()
