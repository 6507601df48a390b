"""The benchmark's workloads and how one run of each is measured.

Every workload is a closed batch job in one process: the modelled cores
are closed-loop (bounded by their ROB and MSHRs), the modelled caches
start empty (``warmup_instructions=0``, as in the figure runs), and the
seed reaches the simulator only as ``SystemConfig.seed``.  Three
workloads repeat one simulation until the run's time is used; the fourth
reproduces a fixed slice of the quick figure plans through
``ExperimentContext``.  Only public calls of the simulator are used.
"""

from __future__ import annotations

import cProfile
import collections
import dataclasses
import gc
import itertools
import json
import os
import pstats
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

from ledger import Spans, layer_ledger

#: Figure 7's average AP improvement per core count, in percent (paper).
PAPER_AP_GAIN_PCT = {1: 16.0, 2: 19.4, 4: 16.3, 8: 15.0}

#: Cache round trips timed per run (serialize and run-cache metrics).
ROUND_TRIPS = 7

#: Trace events drained per run for ``workloads.trace_events_per_s``.
TRACE_EVENTS = 200_000

#: Minimum repetitions of the timed unit, whatever ``--seconds`` says.
MIN_REPS = 3


class Checks:
    """Output checks; each one is an attempted operation that may fail."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


def check_result(checks: Checks, result, label: str, observed: bool) -> None:
    """The accounting identities every run must satisfy."""
    mem = result.mem
    line = result.config.memory.cacheline_bytes
    checks.expect(f"{label}: bytes_read == line * reads",
                  mem.bytes_read == line * (mem.demand_reads + mem.sw_prefetch_reads))
    checks.expect(f"{label}: bytes_written == line * writes",
                  mem.bytes_written == line * mem.writes)
    checks.expect(f"{label}: column_accesses == column_reads + column_writes",
                  mem.column_accesses == mem.column_reads + mem.column_writes)
    if observed:
        checks.expect(f"{label}: protocol checker clean", result.protocol_violations == [])
        outcomes = (mem.pf_used + mem.pf_evicted_unused + mem.pf_late_unused
                    + mem.pf_invalidated + mem.pf_resident_at_end)
        checks.expect(f"{label}: pf_issued == sum of pf outcomes",
                      mem.pf_issued == outcomes)
        checks.expect(f"{label}: faults_corrupted == retried_ok + dropped",
                      mem.faults_corrupted == mem.faults_retried_ok + mem.faults_dropped)


def requests_of(results: Sequence) -> int:
    return sum(r.mem.demand_reads + r.mem.sw_prefetch_reads + r.mem.writes
               for r in results)


def modelled(results: Sequence) -> Dict[str, float]:
    """Modelled (simulated-time) outputs, summed or pooled over ``results``."""
    def total(field: str) -> int:
        return sum(getattr(r.mem, field) for r in results)

    reads = total("demand_reads") + total("sw_prefetch_reads")
    row_accesses = total("row_hits") + total("row_misses")
    elapsed_ns = total("elapsed_ps") / 1000.0
    queued = reads + total("writes")
    return {
        "sim_ipc": statistics.fmean(sum(r.core_ipcs) for r in results),
        "sim_read_latency_ns": total("demand_latency_sum_ps") / total("demand_reads") / 1000.0,
        "engine.events": sum(r.events_fired for r in results),
        "cpu.rob_stalls": sum(s.rob_stalls for r in results for s in r.core_stats),
        "cpu.mshr_stalls": sum(s.mshr_stalls for r in results for s in r.core_stats),
        "controller.queue_delay_ns": total("queue_delay_sum_ps") / queued / 1000.0,
        "dram.activates": total("activates"),
        "dram.row_hit_rate": total("row_hits") / row_accesses if row_accesses else 0.0,
        "channel.read_gbs": total("bytes_read") / elapsed_ns if elapsed_ns else 0.0,
        "prefetch.coverage": total("amb_hits") / reads,
        "prefetch.amb_hits": total("amb_hits"),
        "prefetch.accuracy": (total("pf_used") / total("pf_issued")
                              if total("pf_issued") else 0.0),
        "faults.retried_ok": total("faults_retried_ok"),
        "faults.retry_latency_ns": total("fault_retry_latency_ps") / 1000.0,
    }


def nearest_rank(values: Sequence[float], percentile: float) -> float:
    ordered = sorted(values)
    index = max(0, min(len(ordered) - 1, -(-len(ordered) * percentile // 100) - 1))
    return ordered[int(index)]


def drain_rate(programs: Sequence[str], seed: int, software_prefetch: bool) -> float:
    """Trace events per host second drawn from ``make_trace``."""
    from repro.workloads.spec import make_trace

    per_core = TRACE_EVENTS // len(programs)
    start = time.perf_counter()
    for core_id, program in enumerate(programs):
        trace = iter(make_trace(program, seed=seed, core_id=core_id,
                                software_prefetch=software_prefetch))
        collections.deque(itertools.islice(trace, per_core), maxlen=0)
    return per_core * len(programs) / (time.perf_counter() - start)


def timed(fn: Callable, *args: object) -> Tuple[object, float]:
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def cache_round_trips(
    results: Sequence, keys: Sequence[str], root: Path, spans: Spans, checks: Checks,
) -> Dict[str, float]:
    """Time encode, decode, ``RunCache.store`` and ``RunCache.load``.

    Each result is stored under its run key, loaded back and re-rendered;
    the reload must encode byte-identically.  Times are per result, ms.
    """
    from repro.experiments.runcache import RunCache
    from repro.system import SimulationResult

    def decode(text: str) -> SimulationResult:
        return SimulationResult.from_dict(json.loads(text))

    cache = RunCache(root)
    rounds = max(1, ROUND_TRIPS // len(results))
    encodes, decodes, stores, loads = [], [], [], []
    for _ in range(rounds):
        for result, key in zip(results, keys):
            with spans.span("canonical_json", "serialize"):
                text, seconds = timed(result.canonical_json)
            encodes.append(seconds)
            _, seconds = timed(decode, text)
            decodes.append(seconds)
            with spans.span("RunCache.store", "experiments"):
                _, seconds = timed(cache.store, key, result)
            stores.append(seconds)
            with spans.span("RunCache.load", "experiments"):
                loaded, seconds = timed(cache.load, key)
            loads.append(seconds)
            checks.expect("cache reload encodes byte-identically",
                          loaded is not None and loaded.canonical_json() == text)
    return {
        "serialize.encode_ms": statistics.median(encodes) * 1e3,
        "serialize.decode_ms": statistics.median(decodes) * 1e3,
        "experiments.cache_store_ms": statistics.median(stores) * 1e3,
        "experiments.cache_load_ms": statistics.median(loads) * 1e3,
    }


def profiled(fn: Callable[[], object]) -> Tuple[object, float, pstats.Stats]:
    """Run ``fn`` under cProfile; forked worker processes run unprofiled."""
    profile = cProfile.Profile()
    os.register_at_fork(after_in_child=profile.disable)
    start = time.perf_counter()
    profile.enable()
    value = fn()
    profile.disable()
    wall = time.perf_counter() - start
    return value, wall, pstats.Stats(profile)


def package_dir() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


# ----------------------------------------------------------------------
# Single-system workloads
# ----------------------------------------------------------------------


def _fbd_ap_8c_sat():
    from repro.config import fbdimm_amb_prefetch

    return fbdimm_amb_prefetch(num_cores=8)


def _ddr2_1c_light():
    from repro.config import ddr2_baseline

    return ddr2_baseline(num_cores=1, logic_channels=1)


def _fbd_ap_4c_observed():
    from repro.config import AmbPrefetchConfig, fbdimm_amb_prefetch

    config = fbdimm_amb_prefetch(
        num_cores=4, prefetch=AmbPrefetchConfig(lifecycle=True), logic_channels=4
    )
    config = dataclasses.replace(config, check_protocol=True)
    return config.with_timeline(window_ns=1000.0).with_faults(error_rate=1e-2)


@dataclass(frozen=True)
class SystemWorkload:
    """One machine and one mix, simulated again and again.

    ``instructions`` is per core and per repetition; a repetition is one
    ``System(...)`` plus ``run()`` and is the timed unit.  Each repetition
    is followed by a warm pass that serves the run from the run cache
    ``warm_serves`` times, sized so one warm pass takes about 0.1 s.
    """

    name: str
    mix: str
    build: Callable[[], object]
    instructions: int
    warm_serves: int
    observed: bool = False

    def prepare(self, seed: int, spans: Spans, scratch: Path):
        with spans.span("import", "import"):
            import repro.experiments.runcache  # noqa: F401
            from repro.system import System
            from repro.workloads.multiprog import workload_programs
        with spans.span("config", "config"):
            config = dataclasses.replace(
                self.build(), instructions_per_core=self.instructions,
                warmup_instructions=0, seed=seed,
            )
            programs = workload_programs(self.mix)
        with spans.span("System(...)", "system"):
            system = System(config, programs)
        return config, programs, system

    def measure(self, seed: int, seconds: float, traced: bool, spans: Spans,
                checks: Checks, scratch: Path) -> Dict[str, float]:
        config, programs, system = self.prepare(seed, spans, scratch)
        from repro.experiments.runcache import RunCache, run_key
        from repro.system import System

        cache = RunCache(scratch / "cache")
        key = run_key(config, programs)
        walls: List[float] = []
        warm_walls: List[float] = []
        expected = ""
        start = time.perf_counter()
        deadline = start + (seconds / 2 if traced else seconds)
        while len(walls) < MIN_REPS or time.perf_counter() < deadline:
            if system is None:
                with spans.span("System(...)", "system"):
                    system = System(config, programs)
            gc.collect()
            with spans.span("run()", "engine", rep=len(walls)):
                result, wall = timed(system.run)
            system = None
            walls.append(wall)
            with spans.span("canonical_json", "serialize"):
                text = result.canonical_json()
            if not expected:
                expected = text
                with spans.span("RunCache.store", "experiments"):
                    cache.store(key, result)
            checks.expect(f"{self.name}: canonical result identical across reps",
                          text == expected)
            check_result(checks, result, f"{self.name} rep {len(walls)}", self.observed)
            warm_walls.append(self._warm_pass(cache, key, expected, spans, checks))
        loop_wall = time.perf_counter() - start

        run_wall = statistics.fmean(walls)
        metrics = modelled([result])
        metrics["sim_kips"] = sum(result.core_instructions) / run_wall / 1e3
        metrics["reproduce_runs_per_s"] = 1.0 / run_wall
        metrics["reproduce_warm_s"] = statistics.fmean(warm_walls)
        metrics["experiments.run_p50_s"] = statistics.median(walls)
        metrics["experiments.run_p87_s"] = nearest_rank(walls, 87)
        metrics["experiments.worker_busy_share"] = sum(walls) / loop_wall
        metrics["ap_gain_err_pp"] = 0.0  # no Figure 7 pair in this workload
        if traced:
            with spans.span("System(...)", "system"):
                system = System(config, programs)
            gc.collect()
            with spans.span("run() [profiled]", "engine"):
                traced_result, traced_wall, profile = profiled(system.run)
            checks.expect(f"{self.name}: traced result identical to untraced",
                          traced_result.canonical_json() == expected)
            metrics.update(layer_ledger(profile, package_dir(), traced_wall,
                                        requests_of([traced_result])))
            metrics["trace.overhead_ratio"] = traced_wall / run_wall
            metrics["workloads.trace_events_per_s"] = drain_rate(
                programs, seed, config.software_prefetch)
            metrics.update(cache_round_trips([result], [key], scratch / "round-trips",
                                             spans, checks))
        return metrics

    def _warm_pass(self, cache, key: str, expected: str, spans: Spans,
                   checks: Checks) -> float:
        """Mean host time to serve the run from the warm cache and re-render it."""
        rendered = []
        gc.collect()
        start = time.perf_counter()
        with spans.span("warm pass", "experiments"):
            for _ in range(self.warm_serves):
                loaded = cache.load(key)
                rendered.append(loaded.canonical_json() if loaded is not None else None)
        wall = time.perf_counter() - start
        checks.expect("warm pass renders byte-identically",
                      rendered == [expected] * self.warm_serves)
        return wall / self.warm_serves


# ----------------------------------------------------------------------
# Figure-reproduction workload
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ReproduceWorkload:
    """A fixed slice of the quick figure plans, cold then warm.

    Each repetition simulates the slice into an empty run cache with
    ``jobs=min(2, nproc)`` worker processes and renders its tables (the
    cold pass), then serves the same slice from that cache and renders the
    tables again (the warm pass, repeated ``warm_passes`` times).
    """

    name: str
    instructions: int = 40_000
    warm_passes: int = 5

    @property
    def jobs(self) -> int:
        return min(2, os.cpu_count() or 1)

    def _figures(self):
        from repro.experiments import fig07_amb_speedup, fig08_coverage, fig13_power

        return fig07_amb_speedup, fig08_coverage, fig13_power

    def context(self, seed: int, cache_root: Path, progress=None):
        from repro.experiments.runcache import RunCache
        from repro.experiments.runner import ExperimentContext

        return ExperimentContext(
            instructions=self.instructions, seed=seed, quick=True,
            jobs=self.jobs, cache=RunCache(cache_root), progress=progress,
        )

    def prepare(self, seed: int, spans: Spans, scratch: Path):
        with spans.span("import", "import"):
            fig07, fig08, fig13 = self._figures()
        with spans.span("plan", "experiments"):
            ctx = self.context(seed, scratch / "cache-0")
            pairs = fig07.plan(ctx) + fig08.plan(ctx) + fig13.plan(ctx)
        return pairs

    def render(self, ctx) -> Tuple[str, list]:
        fig07, fig08, fig13 = self._figures()
        table7 = fig07.run(ctx)
        summary = fig07.group_means(table7)
        tables = (table7, summary, fig08.run(ctx), fig13.run(ctx))
        return "\n\n".join(t.format() for t in tables), summary.rows

    def cold_pass(self, seed: int, pairs, root: Path, spans: Spans):
        """Simulate the slice into an empty cache; return its outcome."""
        worker_walls: List[float] = []

        def progress(run) -> None:
            now = time.perf_counter()
            worker_walls.append(run.wall_s)
            spans.add("worker run", "experiments", now - run.wall_s, now, tid=2,
                      programs="+".join(run.programs), events=run.events)

        ctx = self.context(seed, root, progress)
        gc.collect()
        start = time.perf_counter()
        with spans.span("ExperimentContext.prefetch", "experiments"):
            counts = ctx.prefetch(pairs)
        with spans.span("render tables", "experiments"):
            text, summary = self.render(ctx)
        wall = time.perf_counter() - start
        unique = list({id(r): r for r in (ctx.run(c, p) for c, p in pairs)}.values())
        return wall, counts, text, summary, unique, worker_walls

    def warm_pass(self, seed: int, pairs, root: Path, spans: Spans):
        ctx = self.context(seed, root)
        gc.collect()
        start = time.perf_counter()
        with spans.span("warm pass", "experiments"):
            counts = ctx.prefetch(pairs)
            text, _ = self.render(ctx)
        return time.perf_counter() - start, counts, text

    def measure(self, seed: int, seconds: float, traced: bool, spans: Spans,
                checks: Checks, scratch: Path) -> Dict[str, float]:
        pairs = self.prepare(seed, spans, scratch)
        cold_walls, warm_walls, run_walls, busy = [], [], [], []
        texts = set()
        first = None
        start = time.perf_counter()
        deadline = start + (seconds / 2 if traced else seconds)
        rep = 0
        while rep < 1 or time.perf_counter() < deadline:
            root = scratch / f"cache-{rep}"
            cold = self.cold_pass(seed, pairs, root, spans)
            wall, counts, text, _, unique, worker = cold
            first = first or cold
            cold_walls.append(wall)
            run_walls.extend(worker)
            busy.append(sum(worker) / (self.jobs * wall))
            texts.add(text)
            checks.expect("cold pass simulates every unique run",
                          counts["fresh"] == len(unique) == len(worker))
            for _ in range(self.warm_passes):
                warm_wall, warm_counts, warm_text = self.warm_pass(seed, pairs, root, spans)
                warm_walls.append(warm_wall)
                checks.expect("warm pass simulates nothing", warm_counts["fresh"] == 0)
                checks.expect("warm pass renders tables byte-identically",
                              warm_text == text)
            shutil.rmtree(root, ignore_errors=True)
            rep += 1
        checks.expect("cold passes render identical tables", len(texts) == 1)

        _, _, _, summary, unique, _ = first
        for index, result in enumerate(unique):
            check_result(checks, result, f"{self.name} run {index}", observed=False)
        cold_wall = statistics.fmean(cold_walls)
        metrics = modelled(unique)
        insts = sum(sum(r.core_instructions) for r in unique)
        metrics["sim_kips"] = insts / cold_wall / 1e3
        metrics["reproduce_runs_per_s"] = len(unique) / cold_wall
        metrics["reproduce_warm_s"] = statistics.fmean(warm_walls)
        metrics["ap_gain_err_pp"] = statistics.fmean(
            abs(row["improvement"] * 100 - PAPER_AP_GAIN_PCT[row["cores"]])
            for row in summary
        )
        metrics["experiments.run_p50_s"] = statistics.median(run_walls)
        metrics["experiments.run_p87_s"] = nearest_rank(run_walls, 87)
        metrics["experiments.worker_busy_share"] = statistics.median(busy)
        if traced:
            from repro.experiments.runcache import run_key
            from repro.workloads.multiprog import SINGLE_CORE

            outcome, traced_wall, profile = profiled(
                lambda: self.cold_pass(seed, pairs, scratch / "cache-traced", spans))
            checks.expect("traced cold pass renders identical tables",
                          outcome[2] in texts)
            metrics.update(layer_ledger(profile, package_dir(), traced_wall,
                                        requests_of(unique)))
            metrics["trace.overhead_ratio"] = traced_wall / cold_wall
            metrics["workloads.trace_events_per_s"] = drain_rate(SINGLE_CORE, seed, True)
            metrics.update(cache_round_trips(
                unique, [run_key(r.config, r.programs) for r in unique],
                scratch / "round-trips", spans, checks,
            ))
        return metrics


WORKLOADS = {
    workload.name: workload
    for workload in (
        SystemWorkload("fbd-ap-8c-sat", "8C-1", _fbd_ap_8c_sat, 200_000, 20),
        SystemWorkload("ddr2-1c-light", "vortex", _ddr2_1c_light, 3_000_000, 30),
        SystemWorkload("fbd-ap-4c-observed", "4C-3", _fbd_ap_4c_observed, 300_000, 2,
                       observed=True),
        ReproduceWorkload("reproduce-quick"),
    )
}
