"""Telemetry tests: metrics registry, span lifecycle, capture round-trip,
Chrome-trace schema, event-loop profiler, and the zero-overhead guard."""

import dataclasses
import json

import pytest

from repro.config import fbdimm_amb_prefetch, fbdimm_baseline
from repro.controller.transaction import MemoryRequest, RequestKind
from repro.engine.profiler import EventLoopProfiler, callback_site
from repro.engine.simulator import Simulator
from repro.stats.collector import MemSystemStats
from repro.system import System
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RequestTrace,
    Tracer,
    build_capture,
    chrome_trace,
    load_capture,
    registry_from_stats,
    save_capture,
    summarize_capture,
    validate_chrome_trace,
    write_chrome_trace,
)


def traced_run(programs=("swim",), insts=6_000, config=None, profile=False,
               max_requests=200_000):
    """One small run with a tracer attached; returns (machine, result, tracer)."""
    config = dataclasses.replace(
        config or fbdimm_amb_prefetch(len(programs)),
        instructions_per_core=insts,
    )
    tracer = Tracer(max_requests=max_requests)
    machine = System(config, list(programs), tracer=tracer)
    if profile:
        machine.sim.profiler = EventLoopProfiler()
    return machine, machine.run(), tracer


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------


class TestRegistry:
    def test_counter_monotonic(self):
        c = Counter("reads")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Gauge("depth")
        g.set(3.5)
        g.set(1.0)
        assert g.value == 1.0

    def test_histogram_buckets_are_log2(self):
        h = Histogram("lat")
        for value in (0, 1, 2, 3, 4, 1000):
            h.observe(value)
        assert h.count == 6
        assert h.sum == 1010
        assert h.min == 0 and h.max == 1000
        uppers = [upper for upper, _ in h.buckets()]
        assert uppers == sorted(uppers)
        # 0 lands in the dedicated zero bucket, 1000 in (512, 1024].
        assert uppers[0] == 0
        assert uppers[-1] == 1024

    def test_histogram_percentiles_clamped_to_max(self):
        h = Histogram("lat")
        for _ in range(99):
            h.observe(100)
        h.observe(1000)
        assert h.percentile(50) <= 128  # bucket upper bound of 100
        assert h.percentile(100) == 1000  # clamped to observed max
        assert h.mean == pytest.approx((99 * 100 + 1000) / 100)

    def test_histogram_rejects_negative(self):
        with pytest.raises(ValueError):
            Histogram("lat").observe(-1)

    def test_empty_histogram_snapshot(self):
        snap = Histogram("lat").snapshot()
        assert snap["count"] == 0
        assert snap["p99"] == 0.0

    def test_get_or_create_and_type_conflict(self):
        reg = MetricsRegistry()
        a = reg.counter("x")
        assert reg.counter("x") is a
        with pytest.raises(TypeError):
            reg.gauge("x")
        assert "x" in reg
        assert len(reg) == 1

    def test_snapshot_and_json_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("a", "help a").inc(2)
        reg.histogram("h").observe(7)
        doc = json.loads(reg.to_json())
        assert doc["a"]["value"] == 2
        assert doc["h"]["count"] == 1
        records = reg.to_records()
        assert [r["name"] for r in records] == ["a", "h"]

    def test_registry_from_stats_without_breaking_stats(self):
        stats = MemSystemStats()
        stats.record_read_completion(
            latency_ps=63_000, queue_delay_ps=1_000, is_demand=True,
            amb_hit=True, line_bytes=64, core_id=0,
        )
        stats.record_write_completion(64)
        reg = registry_from_stats(stats)
        snap = reg.snapshot()
        assert snap["mem.demand_reads"]["value"] == 1
        assert snap["mem.writes"]["value"] == 1
        assert snap["mem.amb_hits"]["value"] == 1
        assert snap["mem.core0.queue_delay_sum_ps"]["value"] == 1_000
        # Adapter reads but never mutates the stats object.
        assert stats.demand_reads == 1


# ----------------------------------------------------------------------
# Request spans
# ----------------------------------------------------------------------


def _request(kind=RequestKind.DEMAND_READ, core_id=0, line_addr=0x40):
    return MemoryRequest(kind=kind, line_addr=line_addr, core_id=core_id,
                         arrival=0)


class TestRequestTrace:
    def test_phase_order_and_derived_times(self):
        trace = RequestTrace(req_id=1, kind="read", core_id=0, line_addr=4)
        trace.mark("arrival", 0)
        trace.mark("schedulable", 12_000)
        trace.mark("issue", 20_000)
        trace.mark("complete", 63_000)
        assert trace.completed
        assert trace.latency_ps == 63_000
        assert trace.queue_delay_ps == 8_000
        assert trace.phase_time("data") is None

    def test_unknown_phase_rejected(self):
        trace = RequestTrace(req_id=1, kind="read", core_id=0, line_addr=4)
        with pytest.raises(ValueError):
            trace.mark("teleported", 5)

    def test_record_roundtrip(self):
        trace = RequestTrace(req_id=7, kind="write", core_id=2, line_addr=99,
                             channel=1, dimm=3, rank=0, bank=2, amb_hit=True)
        trace.mark("arrival", 10)
        trace.mark("complete", 50)
        back = RequestTrace.from_record(trace.to_record())
        assert back == trace

    def test_record_elides_defaults(self):
        trace = RequestTrace(req_id=7, kind="read", core_id=0, line_addr=1)
        record = trace.to_record()
        assert "ch" not in record and "amb" not in record


class TestTracerLifecycle:
    def test_hooks_build_a_full_span(self):
        tracer = Tracer()
        req = _request()
        tracer.on_arrival(req, 0, backlogged=False)
        req.schedulable_at = 12_000
        tracer.on_schedulable(req, 12_000)
        req.issue_time = 20_000
        tracer.on_issue(req, 20_000)
        tracer.on_data(req, 55_000)
        tracer.on_complete(req, 63_000)
        [trace] = tracer.completed_traces()
        assert [name for name, _ in trace.phases] == [
            "arrival", "schedulable", "issue", "data", "complete"
        ]
        snap = tracer.registry.snapshot()
        assert snap["trace.latency_ps"]["count"] == 1
        assert snap["trace.queue_delay_ps"]["max"] == 8_000
        assert snap["trace.stalled_requests"]["value"] == 1

    def test_backlogged_request_gets_queued_phase(self):
        tracer = Tracer()
        req = _request()
        tracer.on_arrival(req, 5, backlogged=True)
        assert tracer.traces()[0].phase_time("queued") == 5

    def test_bounded_recording_keeps_exact_histograms(self):
        tracer = Tracer(max_requests=1)
        first, second = _request(), _request()
        tracer.on_arrival(first, 0, backlogged=False)
        tracer.on_arrival(second, 0, backlogged=False)
        assert tracer.dropped == 1
        assert len(tracer.traces()) == 1
        # The dropped request still feeds the aggregate histograms.
        second.schedulable_at = 0
        second.issue_time = 10
        tracer.on_complete(second, 50)
        assert tracer.registry.snapshot()["trace.latency_ps"]["count"] == 1

    def test_real_run_traces_every_completion(self):
        machine, result, tracer = traced_run()
        completed = tracer.completed_traces()
        finished = result.mem.demand_reads + result.mem.sw_prefetch_reads \
            + result.mem.writes
        assert len(completed) >= finished  # warm-up resets stats, not traces
        reads = [t for t in completed if t.kind == "read"]
        assert reads and all(t.channel >= 0 and t.bank >= 0 for t in reads)
        assert any(t.amb_hit for t in completed)


# ----------------------------------------------------------------------
# Capture + exporters
# ----------------------------------------------------------------------


class TestCaptureAndChromeTrace:
    def _capture(self, **kwargs):
        machine, result, tracer = traced_run(**kwargs)
        return build_capture(
            result, tracer,
            check_events=machine.controller.collect_check_events(),
        )

    def test_capture_roundtrip(self, tmp_path):
        capture = self._capture()
        path = tmp_path / "cap.jsonl"
        written = save_capture(path, capture)
        assert written == len(capture.requests) + len(capture.commands)
        back = load_capture(path)
        assert back.meta["kind"] == "fbdimm"
        assert len(back.requests) == len(capture.requests)
        assert len(back.commands) == len(capture.commands)
        assert back.metrics.keys() == capture.metrics.keys()

    def test_load_skips_retired_sample_records(self, tmp_path):
        # Captures from the retired fixed-period queue sampler interleave
        # "sample" records; they still load, with the samples dropped.
        capture = self._capture()
        path = tmp_path / "cap.jsonl"
        save_capture(path, capture)
        header, *records = path.read_text().splitlines()
        sample = {"type": "sample", "time_ps": 50_000, "queued_requests": 3,
                  "inflight_reads": 2, "inflight_writes": 1, "backlog": 0}
        path.write_text("\n".join([header, json.dumps(sample), *records]) + "\n")
        back = load_capture(path)
        assert len(back.requests) == len(capture.requests)
        assert len(back.commands) == len(capture.commands)
        assert not hasattr(back, "samples")

    def test_load_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"version": 1, "params": {}}\n')
        with pytest.raises(ValueError):
            load_capture(path)

    def test_chrome_trace_passes_own_validator(self):
        capture = self._capture(programs=("swim", "mgrid"))
        doc = chrome_trace(capture)
        assert validate_chrome_trace(doc) == []
        events = doc["traceEvents"]
        names = {e["name"] for e in events}
        # Per-bank command spans and per-request lifecycle spans both present.
        assert "ACT" in names and "RD burst" in names
        assert "read" in names
        phases = {e["ph"] for e in events}
        assert {"M", "X", "b", "e"} <= phases
        cats = {e.get("cat") for e in events}
        assert {"request", "dram", "link"} <= cats

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        capture = self._capture()
        path = tmp_path / "trace.json"
        write_chrome_trace(path, capture)
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []

    def test_validator_catches_breakage(self):
        capture = self._capture()
        doc = chrome_trace(capture)
        assert validate_chrome_trace({"traceEvents": []})
        assert validate_chrome_trace([1, 2]) == ["document is not a JSON object"]
        broken = {"traceEvents": [dict(doc["traceEvents"][0], ph="Z")]}
        assert any("unknown phase" in p for p in validate_chrome_trace(broken))
        dangling = {"traceEvents": [
            {"ph": "b", "pid": 1, "tid": 0, "ts": 0, "name": "r",
             "cat": "request", "id": "0x1"},
        ]}
        assert any("never ended" in p for p in validate_chrome_trace(dangling))

    def test_summary_mentions_key_facts(self):
        capture = self._capture()
        text = summarize_capture(capture)
        assert "request traces" in text
        assert "latency ns" in text
        assert "AMB hits" in text


# ----------------------------------------------------------------------
# Event-loop profiler
# ----------------------------------------------------------------------


class TestProfiler:
    def test_sites_attributed_and_ranked(self):
        sim = Simulator()
        sim.profiler = EventLoopProfiler()

        def tick():
            pass

        for delay in (1, 2, 3):
            sim.schedule(delay, tick)
        sim.run()
        assert sim.events_fired == 3
        profile = sim.profiler
        assert profile.total_events == 3
        [site] = profile.ranked()
        assert site.events == 3
        assert "tick" in site.site
        assert "events" in profile.report()
        assert profile.to_records()[0]["events"] == 3

    def test_callback_site_unwraps_bound_methods(self):
        class Widget:
            def poke(self):
                pass

        assert callback_site(Widget().poke).endswith("Widget.poke")

    def test_profiled_run_is_bit_identical(self):
        config = dataclasses.replace(
            fbdimm_amb_prefetch(1), instructions_per_core=4_000
        )
        plain = System(config, ["swim"]).run()
        profiled_machine = System(config, ["swim"])
        profiled_machine.sim.profiler = EventLoopProfiler()
        profiled = profiled_machine.run()
        assert profiled.events_fired == plain.events_fired
        assert profiled.elapsed_ps == plain.elapsed_ps
        assert profiled.core_ipcs == plain.core_ipcs
        assert profiled_machine.sim.profiler.total_events == plain.events_fired


# ----------------------------------------------------------------------
# Zero-overhead guard: tracing must never change the simulation
# ----------------------------------------------------------------------


class TestOverheadGuard:
    @pytest.mark.parametrize("build", [fbdimm_amb_prefetch, fbdimm_baseline])
    def test_traced_run_is_bit_identical_to_plain(self, build):
        config = dataclasses.replace(build(2), instructions_per_core=5_000)
        programs = ["swim", "mgrid"]
        plain = System(config, programs).run()
        traced = System(config, programs, tracer=Tracer()).run()
        assert traced.events_fired == plain.events_fired
        assert traced.elapsed_ps == plain.elapsed_ps
        assert traced.core_ipcs == plain.core_ipcs
        assert traced.core_instructions == plain.core_instructions
        assert dataclasses.asdict(traced.mem) == dataclasses.asdict(plain.mem)
