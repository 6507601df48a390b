"""The bench subsystem's only wall-clock access point.

Everything in :mod:`repro.bench` measures *host* time — that is the
quantity under study — but the determinism lint (``repro.check lint``)
rightly treats stray wall-clock reads as a smell.  Concentrating every
read here keeps the rest of the benchmarking code clock-free and makes
the suppression surface exactly one module wide.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Tuple, TypeVar

T = TypeVar("T")


def perf_counter_s() -> float:
    """Monotonic wall-clock seconds (the trial timer)."""
    return time.perf_counter()  # det: allow — bench measures wall time by design


def timed(fn: Callable[..., T], *args: Any, **kwargs: Any) -> Tuple[T, float]:
    """Call ``fn`` and return ``(result, elapsed wall seconds)``."""
    start = perf_counter_s()
    result = fn(*args, **kwargs)
    return result, perf_counter_s() - start


def utc_timestamp() -> str:
    """ISO-8601 UTC timestamp for BENCH file metadata."""
    stamp = time.gmtime(time.time())  # det: allow — BENCH metadata timestamp
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", stamp)
