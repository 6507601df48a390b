"""Command-line entry point: regenerate any (or every) paper result.

Usage::

    python -m repro.experiments <experiment> [--insts N] [--seed S] [--quick]
    python -m repro.experiments all --quick --jobs 4

Experiments: latency, fig04 .. fig13, ablations.

Each experiment first *plans* its full set of independent runs, which are
fanned out across ``--jobs`` worker processes and served from / written to
the persistent run cache (``.repro-cache/`` by default; ``--no-cache``
disables it).  Results are bit-identical at any job count — see
docs/PARALLEL.md.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import TYPE_CHECKING, Iterable, List, Optional

from repro.experiments import (
    ExperimentContext,
)
from repro.experiments import (
    ablations,
    hw_prefetch,
    prefetch_location,
    validation,
    fig04_smt_speedup,
    fig05_bw_latency,
    fig06_bandwidth_impact,
    fig07_amb_speedup,
    fig08_coverage,
    fig09_decomposition,
    fig10_bw_latency_ap,
    fig11_sensitivity,
    fig12_sw_prefetch,
    fig13_power,
    latency_breakdown,
)

if TYPE_CHECKING:
    from repro.experiments.runner import RunProgress

EXPERIMENTS = {
    "latency": lambda ctx: [latency_breakdown.run(ctx)],
    "fig04": lambda ctx: (
        lambda t: [t, fig04_smt_speedup.group_means(t)]
    )(fig04_smt_speedup.run(ctx)),
    "fig05": lambda ctx: (
        lambda t: [t, fig05_bw_latency.group_means(t)]
    )(fig05_bw_latency.run(ctx)),
    "fig06": lambda ctx: (
        lambda t: [t, fig06_bandwidth_impact.group_gains(t)]
    )(fig06_bandwidth_impact.run(ctx)),
    "fig07": lambda ctx: (
        lambda t: [t, fig07_amb_speedup.group_means(t)]
    )(fig07_amb_speedup.run(ctx)),
    "fig08": lambda ctx: [fig08_coverage.run(ctx)],
    "fig09": lambda ctx: [fig09_decomposition.run(ctx)],
    "fig10": lambda ctx: [fig10_bw_latency_ap.run(ctx)],
    "fig11": lambda ctx: [fig11_sensitivity.run(ctx)],
    "fig12": lambda ctx: [fig12_sw_prefetch.run(ctx)],
    "fig13": lambda ctx: [fig13_power.run(ctx)],
    "ablations": lambda ctx: [
        ablations.run_vrl(ctx),
        ablations.run_page_interleave(ctx),
        ablations.run_replacement(ctx),
    ],
    "location": lambda ctx: [prefetch_location.run(ctx)],
    "hwprefetch": lambda ctx: [hw_prefetch.run(ctx)],
    "validation": lambda ctx: [
        validation.run_saturation(ctx),
        validation.run_pointer_chase(ctx),
    ],
}

#: Run enumeration per experiment, for the parallel/cached prefetch pass.
PLANS = {
    "latency": latency_breakdown.plan,
    "fig04": fig04_smt_speedup.plan,
    "fig05": fig05_bw_latency.plan,
    "fig06": fig06_bandwidth_impact.plan,
    "fig07": fig07_amb_speedup.plan,
    "fig08": fig08_coverage.plan,
    "fig09": fig09_decomposition.plan,
    "fig10": fig10_bw_latency_ap.plan,
    "fig11": fig11_sensitivity.plan,
    "fig12": fig12_sw_prefetch.plan,
    "fig13": fig13_power.plan,
    "ablations": ablations.plan,
    "location": prefetch_location.plan,
    "hwprefetch": hw_prefetch.plan,
    "validation": validation.plan,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS) + ["all"])
    parser.add_argument("--insts", type=int, default=40_000,
                        help="instructions per core per run (default 40k)")
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--quick", action="store_true",
                        help="subset of workloads per core-count group")
    parser.add_argument("--export", metavar="DIR",
                        help="also write each table as CSV and Markdown")
    parser.add_argument("--trace-out", metavar="DIR",
                        help="record a telemetry capture per fresh run")
    parser.add_argument("--heartbeat", type=float, default=10.0, metavar="SEC",
                        help="progress heartbeat period (0 = silent)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for independent runs")
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the persistent run cache entirely")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="run-cache directory (default .repro-cache)")
    parser.add_argument("--cache-report", metavar="PATH",
                        help="write cache/run statistics as JSON (CI artifact)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    export_dir = None
    if args.export:
        from pathlib import Path

        export_dir = Path(args.export)
        export_dir.mkdir(parents=True, exist_ok=True)

    cache = None
    if not args.no_cache:
        from repro.experiments.runcache import DEFAULT_CACHE_DIR, RunCache

        cache = RunCache(args.cache_dir or DEFAULT_CACHE_DIR)

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    heartbeat = _make_heartbeat(args.heartbeat, names)
    ctx = ExperimentContext(
        instructions=args.insts, seed=args.seed, quick=args.quick,
        progress=heartbeat, trace_dir=args.trace_out or None,
        jobs=args.jobs, cache=cache,
    )
    invocation_start = time.time()  # det: allow — progress reporting
    pairs = [pair for name in names for pair in PLANS[name](ctx)]
    if pairs:
        heartbeat.begin("prefetch")
        counts = ctx.prefetch(pairs)
        print(
            f"[prefetch: {counts['fresh']} simulated (--jobs {ctx.jobs}), "
            f"{counts['disk']} served from cache]\n"
        )
    for position, name in enumerate(names):
        heartbeat.begin(name)
        start = time.time()  # det: allow — progress reporting, not model time
        tables = EXPERIMENTS[name](ctx)
        for index, table in enumerate(tables):
            print(table.format())
            print()
            if export_dir is not None:
                from repro.experiments.export import write_csv, write_markdown

                stem = name if len(tables) == 1 else f"{name}-{index}"
                write_csv(table, export_dir / f"{stem}.csv")
                write_markdown(table, export_dir / f"{stem}.md")
        elapsed = time.time() - start  # det: allow — progress reporting
        done = position + 1
        remaining = len(names) - done
        eta = ""
        if remaining:
            total = time.time() - invocation_start  # det: allow — progress
            eta = f", ETA ~{total / done * remaining:.0f}s for {remaining} more"
        print(f"[{name}: {elapsed:.1f}s, {ctx.runs_executed} fresh runs{eta}]\n")
    served = ctx.disk_hits + ctx.fresh_runs
    fraction = ctx.disk_hits / served if served else 0.0
    if ctx.cache is not None:
        summary = ctx.cache.summary()
        print(
            f"[cache: {ctx.fresh_runs} simulated, {ctx.disk_hits} from disk "
            f"({fraction:.0%}), {summary['entries']} entries "
            f"({summary['bytes'] / 1e6:.1f} MB) in {summary['root']}]"
        )
    if args.cache_report:
        import json as _json
        from pathlib import Path as _Path

        report = {
            "experiments": names,
            "jobs": ctx.jobs,
            "fresh_runs": ctx.fresh_runs,
            "disk_hits": ctx.disk_hits,
            "served_from_cache_fraction": fraction,
            "cache": ctx.cache.summary() if ctx.cache is not None else None,
        }
        _Path(args.cache_report).write_text(_json.dumps(report, indent=2) + "\n")
    return 0


class _Heartbeat:
    """Throttled progress reporter fed by ExperimentContext's callback."""

    def __init__(self, period_s: float, names: Iterable[str]) -> None:
        self.period_s = period_s
        self.names = list(names)
        self.experiment = ""
        self.start = time.time()  # det: allow — progress reporting
        self.last_print = self.start
        self.runs_at_start = 0

    def begin(self, name: str) -> None:
        """A new experiment is starting; reset the per-experiment counters."""
        self.experiment = name
        self.last_print = time.time()  # det: allow — progress reporting

    def __call__(self, progress: RunProgress) -> None:
        if self.period_s <= 0:
            return
        now = time.time()  # det: allow — progress reporting
        if now - self.last_print < self.period_s:
            return
        self.last_print = now
        wall = max(now - self.start, 1e-9)
        rate = progress.total_events / wall
        position = (
            self.names.index(self.experiment) + 1
            if self.experiment in self.names else 0
        )
        print(
            f"  [heartbeat {self.experiment} ({position}/{len(self.names)}): "
            f"{progress.runs} runs, {progress.total_events / 1e6:.1f}M events, "
            f"{rate / 1e3:.0f}k events/s; last run "
            f"'{'+'.join(progress.programs)}' {progress.wall_s:.1f}s]",
            flush=True,
        )


def _make_heartbeat(period_s: float, names: Iterable[str]) -> _Heartbeat:
    return _Heartbeat(period_s, names)


if __name__ == "__main__":
    sys.exit(main())
