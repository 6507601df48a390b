"""Telemetry capture persistence and Chrome trace-event export.

Two output formats:

* **capture JSONL** — the raw recording: a header line (version, run
  metadata, final metrics snapshot) followed by one record per request
  trace, DRAM/frame command (same short field codes as the
  :mod:`repro.check.trace` files), profiler site and timeline window.
  Older captures may also hold ``sample`` records from the retired
  fixed-period queue sampler; :func:`load_capture` skips them.
* **Chrome trace-event JSON** — ``{"traceEvents": [...]}``, loadable in
  Perfetto / ``chrome://tracing``: one process per channel/DIMM with a
  thread per bank (command and burst spans), one process per channel's
  link pair, and a "requests" process with per-core async lifecycle spans
  plus instant events for scheduling stalls.

:func:`validate_chrome_trace` is the schema check CI runs on exported
traces (required keys, known phases, monotonic timestamps, balanced async
begin/end pairs).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.check.trace import CheckEvent, event_to_record, record_to_event
from repro.stats.collector import ELIDED_WINDOW_COLUMNS
from repro.telemetry.registry import registry_from_stats
from repro.telemetry.spans import PrefetchTrace, RequestTrace, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system import SimulationResult
    from repro.timeline.records import TimelineResult

CAPTURE_VERSION = 1
CAPTURE_FORMAT = "repro-telemetry"

#: Chrome trace-event phases this exporter emits ("C" = counter tracks
#: from the windowed timeline).
_EMITTED_PHASES = {"M", "X", "i", "b", "e", "n", "C"}

#: pid layout: fixed bases keep ids deterministic and human-guessable.
_PID_REQUESTS = 1
_PID_DIMM_BASE = 100
_PID_LINKS_BASE = 2000
_PID_PROFILER = 3000
_PID_TIMELINE = 4000


@dataclass
class TelemetryCapture:
    """Everything recorded about one traced run."""

    meta: Dict[str, object] = field(default_factory=dict)
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)
    requests: List[RequestTrace] = field(default_factory=list)
    prefetches: List[PrefetchTrace] = field(default_factory=list)
    commands: List[CheckEvent] = field(default_factory=list)
    profile: List[Dict[str, object]] = field(default_factory=list)
    #: Encoded WindowRecord dicts from a timeline-enabled run.
    timeline: List[Dict[str, object]] = field(default_factory=list)


def run_meta(result: "SimulationResult") -> Dict[str, object]:
    """Run metadata the exporters need (geometry, timing, workload)."""
    from repro.dram.timing import TimingPs

    memory = result.config.memory
    timing = TimingPs.from_config(
        memory.timings, memory.dram_clock_ps, memory.burst_clocks,
        tfaw_ns=memory.tFAW_ns,
    )
    return {
        "kind": memory.kind.value,
        "device": memory.device,
        "physical_channels": memory.physical_channels,
        "dimms_per_channel": memory.dimms_per_channel,
        "ranks_per_dimm": memory.ranks_per_dimm,
        "banks_per_dimm": memory.banks_per_dimm,
        "data_rate_mts": memory.data_rate_mts,
        "frame_ps": memory.frame_ps,
        "clock_ps": memory.dram_clock_ps,
        "tRCD_ps": timing.tRCD,
        "tCL_ps": timing.tCL,
        "tWL_ps": timing.tWL,
        "burst_ps": timing.burst,
        "prefetch_enabled": memory.prefetch.enabled,
        "region_cachelines": memory.prefetch.region_cachelines,
        "programs": list(result.programs),
        "instructions_per_core": result.config.instructions_per_core,
        "seed": result.config.seed,
        "elapsed_ps": result.elapsed_ps,
        "events_fired": result.events_fired,
    }


def build_capture(
    result: "SimulationResult",
    tracer: Tracer,
    check_events: Optional[List[CheckEvent]] = None,
    profile: Optional[List[Dict[str, object]]] = None,
) -> TelemetryCapture:
    """Assemble a capture from a finished traced run.

    ``check_events`` is the journalled command stream
    (``controller.collect_check_events()``); tracing enables journalling
    automatically, so it is available on every traced run.
    """
    from repro.serialize import encode_value

    metrics = registry_from_stats(result.mem).snapshot()
    metrics.update(tracer.registry.snapshot())
    meta = run_meta(result)
    meta["traced_requests"] = len(tracer.requests)
    meta["dropped_requests"] = tracer.dropped
    meta["traced_prefetches"] = len(tracer.prefetches)
    meta["dropped_prefetches"] = tracer.dropped_prefetches
    timeline: List[Dict[str, object]] = []
    if result.timeline is not None:
        meta["timeline_window_ps"] = result.timeline.window_ps
        timeline = [encode_value(w) for w in result.timeline.windows]
    return TelemetryCapture(
        meta=meta,
        metrics=metrics,
        requests=tracer.traces(),
        prefetches=list(tracer.prefetches),
        commands=sorted(check_events or [], key=lambda e: e.time_ps),
        profile=list(profile or []),
        timeline=timeline,
    )


# ----------------------------------------------------------------------
# Capture JSONL persistence
# ----------------------------------------------------------------------


def save_capture(path: Union[str, Path], capture: TelemetryCapture) -> int:
    """Write a capture as self-describing JSONL; returns records written."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        header = {
            "version": CAPTURE_VERSION,
            "format": CAPTURE_FORMAT,
            "meta": capture.meta,
            "metrics": capture.metrics,
        }
        handle.write(json.dumps(header) + "\n")
        for trace in capture.requests:
            handle.write(json.dumps(trace.to_record()) + "\n")
            count += 1
        for pf_trace in capture.prefetches:
            handle.write(json.dumps(pf_trace.to_record()) + "\n")
            count += 1
        for event in capture.commands:
            record: Dict[str, object] = {"type": "cmd"}
            record.update(event_to_record(event))
            handle.write(json.dumps(record) + "\n")
            count += 1
        for site in capture.profile:
            handle.write(json.dumps({"type": "profile", **site}) + "\n")
            count += 1
        for window in capture.timeline:
            handle.write(json.dumps({"type": "window", **window}) + "\n")
            count += 1
    return count


def load_capture(path: Union[str, Path]) -> TelemetryCapture:
    """Load a capture written by :func:`save_capture`."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        if header.get("format") != CAPTURE_FORMAT:
            raise ValueError(f"{path}: not a telemetry capture")
        if header.get("version") != CAPTURE_VERSION:
            raise ValueError(
                f"{path}: unsupported capture version {header.get('version')!r}"
            )
        capture = TelemetryCapture(
            meta=header.get("meta", {}), metrics=header.get("metrics", {})
        )
        for line_no, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            record = json.loads(line)
            kind = record.pop("type", None)
            try:
                if kind == "req":
                    capture.requests.append(RequestTrace.from_record(record))
                elif kind == "pf":
                    capture.prefetches.append(PrefetchTrace.from_record(record))
                elif kind == "cmd":
                    capture.commands.append(record_to_event(record))
                elif kind == "sample":
                    continue  # retired fixed-period queue sampler
                elif kind == "profile":
                    capture.profile.append(record)
                elif kind == "window":
                    capture.timeline.append(record)
                else:
                    raise ValueError(f"unknown record type {kind!r}")
            except (TypeError, ValueError, KeyError) as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
    capture.commands.sort(key=lambda e: e.time_ps)
    return capture


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------


def _us(time_ps: int) -> float:
    """Picoseconds -> the trace-event microsecond time base."""
    return time_ps / 1e6


def _meta_event(pid: int, tid: Optional[int], name: str, label: str) -> Dict[str, object]:
    event: Dict[str, object] = {
        "ph": "M", "name": name, "pid": pid, "tid": tid if tid is not None else 0,
        "ts": 0, "args": {"name": label},
    }
    return event


def chrome_trace(capture: TelemetryCapture) -> Dict[str, object]:
    """Render a capture as a Chrome trace-event document."""
    meta = capture.meta
    dimms = int(meta.get("dimms_per_channel", 1)) or 1
    banks_per_dimm = int(meta.get("banks_per_dimm", 4)) or 4
    tRCD = int(meta.get("tRCD_ps", 0))
    tCL = int(meta.get("tCL_ps", 0))
    tWL = int(meta.get("tWL_ps", 0))
    burst = int(meta.get("burst_ps", 0))
    frame_ps = int(meta.get("frame_ps", 0))

    events: List[Dict[str, object]] = []
    named_pids: Dict[int, str] = {}
    named_tids: Dict[tuple, str] = {}

    def ensure_process(pid: int, label: str) -> None:
        if pid not in named_pids:
            named_pids[pid] = label

    def ensure_thread(pid: int, tid: int, label: str) -> None:
        if (pid, tid) not in named_tids:
            named_tids[(pid, tid)] = label

    # -- request lifecycle spans (async events, one track per core) -----
    ensure_process(_PID_REQUESTS, "requests")
    for trace in capture.requests:
        arrival = trace.phase_time("arrival")
        complete = trace.phase_time("complete")
        if arrival is None or complete is None:
            continue
        tid = max(0, trace.core_id)
        ensure_thread(_PID_REQUESTS, tid, f"core{tid}")
        where = (
            f"ch{trace.channel}.d{trace.dimm}.b{trace.bank}"
            if trace.channel >= 0 else "unmapped"
        )
        args = {
            "line_addr": trace.line_addr,
            "where": where,
            "amb_hit": trace.amb_hit,
            "row_hit": trace.row_hit,
            "phases_ps": {name: t for name, t in trace.phases},
        }
        ident = f"0x{trace.req_id:x}"
        common = {"cat": "request", "id": ident, "pid": _PID_REQUESTS, "tid": tid}
        events.append({
            "ph": "b", "name": trace.kind, "ts": _us(arrival), "args": args,
            **common,
        })
        for phase, time_ps in trace.phases:
            if phase in ("arrival", "complete"):
                continue
            events.append({
                "ph": "n", "name": phase, "ts": _us(time_ps), **common,
            })
        events.append({
            "ph": "e", "name": trace.kind, "ts": _us(complete), **common,
        })
        queue_delay = trace.queue_delay_ps
        if queue_delay:
            issue = trace.phase_time("issue")
            assert issue is not None
            events.append({
                "ph": "i", "s": "t", "name": "scheduling stall",
                "cat": "stall", "pid": _PID_REQUESTS, "tid": tid,
                "ts": _us(issue),
                "args": {"queue_delay_ns": queue_delay / 1000.0},
            })

    # -- per-bank command/burst spans and link activity -----------------
    for event in capture.commands:
        if event.is_dram_command:
            pid = _PID_DIMM_BASE + event.channel * dimms + max(0, event.dimm)
            ensure_process(pid, f"ch{event.channel}.dimm{event.dimm}")
            tid = max(0, event.rank) * banks_per_dimm + max(0, event.bank)
            ensure_thread(pid, tid, f"rank{event.rank}.bank{event.bank}")
            common = {"cat": "dram", "pid": pid, "tid": tid}
            args = {"row": event.row}
            if event.kind == "ACT":
                events.append({
                    "ph": "X", "name": "ACT", "ts": _us(event.time_ps),
                    "dur": _us(tRCD), "args": args, **common,
                })
            elif event.kind == "RD":
                events.append({
                    "ph": "X", "name": "RD burst",
                    "ts": _us(event.time_ps + tCL), "dur": _us(burst),
                    "args": args, **common,
                })
            elif event.kind == "WR":
                events.append({
                    "ph": "X", "name": "WR burst",
                    "ts": _us(event.time_ps + tWL), "dur": _us(burst),
                    "args": args, **common,
                })
            else:  # PRE
                events.append({
                    "ph": "i", "s": "t", "name": "PRE",
                    "ts": _us(event.time_ps), "args": args, **common,
                })
        else:
            pid = _PID_LINKS_BASE + event.channel
            ensure_process(pid, f"ch{event.channel}.links")
            tid = 0 if event.kind == "NB_LINE" else 1
            ensure_thread(pid, tid, "north" if tid == 0 else "south")
            frames = event.frames if event.kind == "NB_LINE" else 1
            events.append({
                "ph": "X", "name": event.kind, "ts": _us(event.time_ps),
                "dur": _us(frames * frame_ps), "cat": "link",
                "pid": pid, "tid": tid,
                "args": {"frames": frames},
            })

    # -- event-loop profiler attribution track --------------------------
    # Wall-time stacks from the EventLoopProfiler, rendered as one
    # synthetic thread per subsystem bucket with stacks packed end to end
    # (timestamps here are accumulated wall microseconds, not model time).
    stack_records = [r for r in capture.profile if "stack" in r]
    if stack_records:
        ensure_process(_PID_PROFILER, "event-loop profiler (wall time)")
        subsystem_tids: Dict[str, int] = {}
        offsets: Dict[int, float] = {}
        for record in stack_records:
            stack = [str(frame) for frame in record.get("stack", [])]
            if not stack:
                continue
            subsystem = str(record.get("subsystem", "other"))
            tid = subsystem_tids.setdefault(subsystem, len(subsystem_tids))
            ensure_thread(_PID_PROFILER, tid, subsystem)
            wall_us = float(record.get("wall_s", 0.0)) * 1e6
            start = offsets.get(tid, 0.0)
            offsets[tid] = start + wall_us
            events.append({
                "ph": "X", "name": stack[-1], "cat": "profile",
                "pid": _PID_PROFILER, "tid": tid,
                "ts": start, "dur": wall_us,
                "args": {
                    "stack": ";".join(stack),
                    "events": int(record.get("events", 0)),
                },
            })

    # -- timeline counter tracks (windowed bandwidth / power / queue) ---
    if capture.timeline:
        ensure_process(_PID_TIMELINE, "timeline (windowed counters)")
        for window in capture.timeline:
            start_ps = int(window.get("start_ps", 0))
            duration = int(window.get("end_ps", 0)) - start_ps
            if duration <= 0:
                continue
            traffic = int(window.get("bytes_read", 0)) + int(
                window.get("bytes_written", 0)
            )
            dynamic_nj = (
                float(window.get("energy_act_nj", 0.0))
                + float(window.get("energy_rd_nj", 0.0))
                + float(window.get("energy_wr_nj", 0.0))
                + float(window.get("energy_refresh_nj", 0.0))
            )
            background_nj = float(window.get("energy_background_nj", 0.0))
            duration_ns = duration / 1000.0
            common = {"ph": "C", "pid": _PID_TIMELINE, "tid": 0,
                      "cat": "timeline", "ts": _us(start_ps)}
            events.append({
                "name": "bandwidth",
                "args": {"GB/s": traffic / duration_ns}, **common,
            })
            events.append({
                "name": "queue depth",
                "args": {"requests": int(window.get("queue_depth", 0))},
                **common,
            })
            events.append({
                "name": "power",
                "args": {"dynamic W": dynamic_nj / duration_ns,
                         "background W": background_nj / duration_ns},
                **common,
            })
            events.append({
                "name": "power-down",
                "args": {
                    "fraction": int(window.get("powerdown_ps", 0)) / duration
                }, **common,
            })
            # Lifecycle taxonomy track — only when the window carries the
            # pf_* fields (they are elided from the encoding at their
            # defaults, i.e. whenever lifecycle tracking was off).
            if not ELIDED_WINDOW_COLUMNS.isdisjoint(window):
                events.append({
                    "name": "prefetch lifecycle",
                    "args": {
                        "issued": int(window.get("pf_issued", 0)),
                        "used": int(window.get("pf_used", 0)),
                        "late": int(window.get("pf_late_unused", 0)),
                        "evicted": int(window.get("pf_evicted_unused", 0)),
                        "invalidated": int(window.get("pf_invalidated", 0)),
                    }, **common,
                })

    events.sort(key=lambda e: (e["ts"], e["pid"], e["tid"]))  # type: ignore[index]
    metadata: List[Dict[str, object]] = []
    for pid in sorted(named_pids):
        metadata.append(_meta_event(pid, None, "process_name", named_pids[pid]))
    for (pid, tid) in sorted(named_tids):
        metadata.append(
            _meta_event(pid, tid, "thread_name", named_tids[(pid, tid)])
        )
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ns",
        "otherData": {
            "tool": "repro.telemetry",
            "format_version": CAPTURE_VERSION,
            "meta": meta,
        },
    }


def write_chrome_trace(path: Union[str, Path], capture: TelemetryCapture) -> Dict[str, object]:
    """Export and write the Chrome trace; returns the document written."""
    doc = chrome_trace(capture)
    Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return doc


def validate_chrome_trace(doc: object) -> List[str]:
    """Schema-check an exported Chrome trace document.

    Returns a list of problems (empty = valid): required keys present,
    known phases, non-negative and monotonically non-decreasing
    timestamps, non-negative durations, balanced async begin/end pairs.
    """
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents list"]
    if not events:
        return ["traceEvents is empty"]
    last_ts: Optional[float] = None
    open_async: Dict[tuple, int] = {}
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("ph", "pid", "tid", "ts", "name"):
            if key not in event:
                problems.append(f"{where}: missing required key {key!r}")
        ph = event.get("ph")
        if ph not in _EMITTED_PHASES:
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: bad timestamp {ts!r}")
            continue
        if ph != "M":
            if last_ts is not None and ts < last_ts:
                problems.append(
                    f"{where}: timestamp {ts} not monotonic (prev {last_ts})"
                )
            last_ts = ts
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: complete event with bad dur {dur!r}")
        if ph in ("b", "e", "n"):
            if "id" not in event or "cat" not in event:
                problems.append(f"{where}: async event missing id/cat")
                continue
            key = (event["cat"], event["id"])
            if ph == "b":
                open_async[key] = open_async.get(key, 0) + 1
            elif ph == "e":
                if open_async.get(key, 0) <= 0:
                    problems.append(f"{where}: async end without begin {key}")
                else:
                    open_async[key] -= 1
    dangling = sum(1 for count in open_async.values() if count > 0)
    if dangling:
        problems.append(f"{dangling} async span(s) never ended")
    return problems


# ----------------------------------------------------------------------
# Text summary
# ----------------------------------------------------------------------


def summarize_capture(capture: TelemetryCapture, top_sites: int = 10) -> str:
    """Human-readable digest of a capture: phases, metrics, hot sites."""
    from repro.telemetry.registry import Histogram

    lines: List[str] = []
    meta = capture.meta
    lines.append(
        f"capture: {meta.get('kind', '?')}, "
        f"{meta.get('physical_channels', '?')} physical channels, "
        f"programs {meta.get('programs', [])}, "
        f"{len(capture.requests)} request traces, "
        f"{len(capture.commands)} command events"
    )
    if meta.get("dropped_requests"):
        lines.append(f"  (bounded recording: {meta['dropped_requests']} requests dropped)")

    completed = [t for t in capture.requests if t.completed]
    if completed:
        by_kind: Dict[str, int] = {}
        amb_hits = 0
        hist = Histogram("latency", "")
        queue = Histogram("queue", "")
        for trace in completed:
            by_kind[trace.kind] = by_kind.get(trace.kind, 0) + 1
            if trace.amb_hit:
                amb_hits += 1
            latency = trace.latency_ps
            if latency is not None:
                hist.observe(latency)
            delay = trace.queue_delay_ps
            if delay is not None:
                queue.observe(delay)
        kinds = ", ".join(f"{k}={v}" for k, v in sorted(by_kind.items()))
        lines.append(f"completed: {len(completed)} ({kinds}), {amb_hits} AMB hits")
        lines.append(
            f"latency ns: mean {hist.mean / 1000:.1f}, "
            f"p50 {hist.percentile(50) / 1000:.1f}, "
            f"p95 {hist.percentile(95) / 1000:.1f}, "
            f"p99 {hist.percentile(99) / 1000:.1f}"
        )
        lines.append(
            f"queue delay ns: mean {queue.mean / 1000:.1f}, "
            f"p95 {queue.percentile(95) / 1000:.1f}"
        )

    if capture.prefetches:
        outcomes: Dict[str, int] = {}
        fill_sum = 0
        filled = 0
        for pf in capture.prefetches:
            outcomes[pf.outcome or "open"] = outcomes.get(pf.outcome or "open", 0) + 1
            fill_ps = pf.fill_latency_ps
            if fill_ps is not None:
                fill_sum += fill_ps
                filled += 1
        breakdown = ", ".join(
            f"{name}={count}" for name, count in sorted(outcomes.items())
        )
        line = f"prefetch traces: {len(capture.prefetches)} ({breakdown})"
        if filled:
            line += f", mean fill latency {fill_sum / filled / 1000:.1f} ns"
        lines.append(line)

    if capture.metrics:
        lines.append("metrics:")
        for name in sorted(capture.metrics):
            snap = capture.metrics[name]
            if snap.get("type") == "histogram":
                lines.append(
                    f"  {name}: count={snap.get('count')} mean={snap.get('mean'):.0f} "
                    f"p95={snap.get('p95'):.0f}"
                )
            else:
                lines.append(f"  {name}: {snap.get('value')}")

    site_records = [s for s in capture.profile if "site" in s]
    if site_records:
        subsystems: Dict[str, float] = {}
        for record in site_records:
            name = str(record.get("subsystem", "other"))
            subsystems[name] = subsystems.get(name, 0.0) + float(
                record.get("wall_s", 0.0)
            )
        total_wall = sum(subsystems.values())
        if total_wall > 0:
            shares = ", ".join(
                f"{name} {wall / total_wall:.0%}"
                for name, wall in sorted(
                    subsystems.items(), key=lambda item: -item[1]
                )
            )
            lines.append(f"subsystem wall time: {shares}")
        lines.append(f"event-loop profile (top {top_sites} by wall time):")
        ranked = sorted(
            site_records,
            key=lambda s: (-float(s.get("wall_s", 0.0)), str(s.get("site", ""))),
        )
        for site in ranked[:top_sites]:
            lines.append(
                f"  {site.get('site', '?'):<60} "
                f"{int(site.get('events', 0)):>9} events "
                f"{float(site.get('wall_s', 0.0)) * 1000:>8.1f} ms"
            )
    return "\n".join(lines)
