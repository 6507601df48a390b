"""Host-side instrumentation of the benchmark: spans and the per-layer ledger.

Two independent views of where host time goes:

* :class:`Spans` records one span per call the benchmark makes into a
  layer of the simulator (import, config, ``System(...)``, ``run()``,
  ``canonical_json``, ``RunCache.store/load``, each parallel run result).
  Spans stay in memory and are written once, at the end, as a Chrome
  trace-event document.
* :func:`layer_ledger` groups a ``cProfile`` profile by ``repro.<module>``
  into per-layer self time and call counts, and reconciles their sum with
  the profiled wall time.
"""

from __future__ import annotations

import json
import pstats
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

#: ``repro`` top-level modules reported as layers, in ledger order.
LAYERS = (
    "engine", "cpu", "workloads", "controller", "channel", "dram",
    "prefetch", "stats", "check", "timeline", "faults", "power",
    "serialize", "experiments",
)

#: Sub-layer reported on its own as well as inside its parent layer:
#: per-prefetch lifecycle tracking, which only the observed workload arms.
LIFECYCLE_FILE = ("prefetch", "lifecycle.py")

#: Accepted range for (sum of layer self times) / (profiled wall time).
#: cProfile books its own per-call bookkeeping outside every function, so
#: the ledger covers slightly less than the wall time it was taken over.
LEDGER_SHARE_BOUNDS = (0.75, 1.05)


class Spans:
    """In-memory span recorder; export with :meth:`chrome_trace`."""

    def __init__(self, origin: float) -> None:
        self.origin = origin
        self._events: List[dict] = []
        self._stack: List[int] = []
        self._next_id = 1

    @contextmanager
    def span(self, name: str, layer: str, **args: object) -> Iterator[None]:
        """Record ``name`` around the body, parented to the enclosing span."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.add(name, layer, start, end, span_id=span_id, parent=parent, **args)

    def add(
        self, name: str, layer: str, start: float, end: float,
        tid: int = 1, span_id: Optional[int] = None, parent: Optional[int] = None,
        **args: object,
    ) -> None:
        """Record a span whose times were taken elsewhere (worker runs)."""
        if span_id is None:
            span_id = self._next_id
            self._next_id += 1
        if parent is None:
            parent = self._stack[-1] if self._stack else 0
        self._events.append({
            "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": tid,
            "ts": max(start - self.origin, 0.0) * 1e6,
            "dur": max(end - start, 0.0) * 1e6,
            "args": {"id": span_id, "parent": parent, **args},
        })

    def chrome_trace(self, workload: str) -> dict:
        meta = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "ts": 0,
             "args": {"name": f"perfbench {workload}"}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1, "ts": 0,
             "args": {"name": "benchmark"}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 2, "ts": 0,
             "args": {"name": "worker runs"}},
        ]
        events = sorted(self._events, key=lambda e: (e["ts"], -e["dur"]))
        return {"traceEvents": meta + events, "displayTimeUnit": "ms"}

    def write(self, path: Path, workload: str) -> List[str]:
        """Write the Chrome trace; return the schema problems found."""
        from repro.telemetry.export import validate_chrome_trace

        doc = self.chrome_trace(workload)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        return validate_chrome_trace(json.loads(path.read_text(encoding="utf-8")))


def layer_ledger(
    profile: pstats.Stats, package_dir: Path, wall_s: float, requests: int
) -> Dict[str, float]:
    """Per-layer self seconds and calls from one profile.

    Functions under ``package_dir/<module>`` belong to layer ``<module>``
    when it is in :data:`LAYERS`; C functions belong to ``builtins``; the
    rest (other ``repro`` modules, the standard library, this benchmark)
    to ``other``.  ``requests`` is the number of memory requests the
    profiled simulation served, the base of the controller ratios.
    """
    prefix = str(package_dir) + "/"
    self_s = dict.fromkeys(LAYERS + ("builtins", "other"), 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    lifecycle_s, lifecycle_calls = 0.0, 0
    estimates = selects = 0
    for (filename, _line, func), (_cc, ncalls, tottime, _ct, _callers) in (
        profile.stats.items()  # type: ignore[attr-defined]
    ):
        if filename == "~":
            self_s["builtins"] += tottime
            continue
        parts = filename[len(prefix):].split("/") if filename.startswith(prefix) else []
        layer = parts[0].removesuffix(".py") if parts else ""
        if layer not in calls:
            self_s["other"] += tottime
            continue
        self_s[layer] += tottime
        calls[layer] += ncalls
        if tuple(parts) == LIFECYCLE_FILE:
            lifecycle_s += tottime
            lifecycle_calls += ncalls
        if layer == "controller" and func == "_estimate":
            estimates += ncalls
        elif parts == ["controller", "scheduler.py"] and func == "select":
            selects += ncalls
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.calls"] = calls[layer]
    metrics["prefetch.lifecycle.self_s"] = lifecycle_s
    metrics["prefetch.lifecycle.calls"] = lifecycle_calls
    metrics["builtins.self_s"] = self_s["builtins"]
    metrics["other.self_s"] = self_s["other"]
    metrics["controller.estimate_per_request"] = estimates / requests if requests else 0.0
    metrics["controller.select_per_request"] = selects / requests if requests else 0.0
    metrics["trace.ledger_share"] = sum(self_s.values()) / wall_s
    return metrics
