"""Spans recorded by the benchmark around the calls it makes into twdesign.

Nothing inside ``src/`` is patched or traced: each span wraps one call the
benchmark itself makes (or a group of them, such as a study cell), so a
layer's time is seen from outside.  Spans stay in memory and are written
out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Records spans (name, start, end, parent span, and the ``context``
    fields such as the pass and the study cell they belong to).

    ``span`` yields the span's record so a caller can attach what the call
    returned (node counts, say); it yields None while tracing is off.
    ``overhead_s`` accumulates the time spent in the tracer's own
    bookkeeping, outside every span's start and end.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.context: dict = {}
        self.overhead_s = 0.0

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        entered = time.perf_counter()
        sid = len(self.spans)
        rec = {
            "id": sid,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            **self.context,
            "start": None,
            "end": None,
        }
        rec.update(attrs)
        self.spans.append(rec)
        self._stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self.overhead_s += rec["start"] - entered + time.perf_counter() - rec["end"]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it covered by its children.

    Children of one parent never overlap (one caller, closed loop), so the
    covered part is the sum of the children's durations.
    """
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out
