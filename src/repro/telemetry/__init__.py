"""Observability layer: request tracing, metrics registry, exporters.

Quickstart::

    from repro.telemetry import Tracer, build_capture, write_chrome_trace
    from repro.system import System

    tracer = Tracer()
    machine = System(config, programs, tracer=tracer)
    result = machine.run()
    capture = build_capture(
        result, tracer, check_events=machine.controller.collect_check_events()
    )
    write_chrome_trace("trace.json", capture)   # open in Perfetto

From the shell: ``python -m repro run --trace-out cap.jsonl`` records a
capture and ``python -m repro trace export cap.jsonl`` renders it; see
``docs/OBSERVABILITY.md``.
"""

from repro.telemetry.export import (
    TelemetryCapture,
    build_capture,
    chrome_trace,
    load_capture,
    save_capture,
    summarize_capture,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry_from_stats,
)
from repro.telemetry.spans import (
    PF_OUTCOMES,
    PF_PHASES,
    PHASES,
    PrefetchTrace,
    RequestTrace,
    Tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PF_OUTCOMES",
    "PF_PHASES",
    "PHASES",
    "PrefetchTrace",
    "RequestTrace",
    "TelemetryCapture",
    "Tracer",
    "build_capture",
    "chrome_trace",
    "load_capture",
    "registry_from_stats",
    "save_capture",
    "summarize_capture",
    "validate_chrome_trace",
    "write_chrome_trace",
]
