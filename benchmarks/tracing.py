"""In-memory spans around the benchmark's calls into ``jointmix``.

A span records its name, start, end, the span that encloses it and the run
id shared by every span of one benchmark run.  Spans stay in memory and are
written out once, when the run ends.  Self time is a span's duration minus
the part of its interval covered by its direct children.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path


class Tracer:
    """Collects nested spans of one single-threaded run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "run_id": self.run_id, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> list[float]:
        """Self time of every span, indexed like ``spans``."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = []
        for s in self.spans:
            covered, reach = 0.0, s["start"]
            for lo, hi in sorted(children.get(s["id"], [])):
                lo = max(lo, reach)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(s["end"] - s["start"] - covered)
        return out

    def summary(self) -> dict[str, dict]:
        """Per span name: count, total and median duration, and total self time."""
        out: dict[str, dict] = {}
        for s, own in zip(self.spans, self.self_times()):
            rec = out.setdefault(s["name"], {"count": 0, "durations": [], "self_s": 0.0})
            rec["count"] += 1
            rec["durations"].append(s["end"] - s["start"])
            rec["self_s"] += own
        return {name: {"count": rec["count"], "total_s": sum(rec["durations"]),
                       "median_s": statistics.median(rec["durations"]), "self_s": rec["self_s"]}
                for name, rec in out.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self.self_times()
        doc = {"run_id": self.run_id,
               "spans": [dict(s, self_s=t) for s, t in zip(self.spans, own)],
               "summary": self.summary()}
        path.write_text(json.dumps(doc, indent=1) + "\n")


class NullTracer:
    """Stand-in for untraced runs: spans cost one call and record nothing."""

    def span(self, name: str):
        return nullcontext()


def span_cost(samples: int = 20_000) -> float:
    """Mean wall cost of opening and closing one empty span, in seconds."""
    tracer = Tracer("span-cost")
    start = time.perf_counter()
    for _ in range(samples):
        with tracer.span("empty"):
            pass
    return (time.perf_counter() - start) / samples
