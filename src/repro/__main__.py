"""Command-line interface.

Usage::

    python -m repro run --workload 4C-1 --system fbd-ap
    python -m repro compare --workload 8C-1 --insts 50000
    python -m repro list

``run`` simulates one system and prints a full report; ``compare`` runs
DDR2, FB-DIMM and FB-DIMM+AP side by side; ``list`` shows the available
programs and Table 3 workload mixes.  ``faults``, ``sweep``, ``cache``,
``trace``, ``timeline``, ``prefetch`` and ``bench`` are the other
subcommands.  Every simulating subcommand takes the same run knobs
(:func:`run_arguments`) and every observed run goes through
:func:`observed_run`.  Regenerating the paper's figures lives under
``python -m repro.experiments``.

Exit codes: 0 ok, 1 failed check (validation, regression, conservation),
2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.analysis.latency import LatencyDistribution
from repro.analysis.report import run_report
from repro.analysis.utilisation import channel_utilisation_report
from repro.config import (
    AmbPrefetchConfig,
    Associativity,
    SystemConfig,
    ddr2_baseline,
    fbdimm_amb_prefetch,
    fbdimm_baseline,
)
from repro.dram.devices import device_names
from repro.system import System, run_system
from repro.workloads.multiprog import SINGLE_CORE, WORKLOADS, workload_programs

if TYPE_CHECKING:
    from repro.engine.profiler import EventLoopProfiler
    from repro.system import SimulationResult
    from repro.telemetry import TelemetryCapture

SYSTEMS = ("ddr2", "fbd", "fbd-ap")

ASSOCIATIVITIES = {
    "direct": Associativity.DIRECT,
    "2way": Associativity.TWO_WAY,
    "4way": Associativity.FOUR_WAY,
    "full": Associativity.FULL,
}

#: Callback sites ``run --profile`` lists when given no count.
PROFILE_TOP = 15


def run_arguments() -> argparse.ArgumentParser:
    """The run knobs every simulating subcommand shares, as a parent parser."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--workload", default="4C-1",
                        help="a program name or a Table 3 mix (see 'list')")
    shared.add_argument("--insts", type=int, default=50_000,
                        help="instructions per core")
    shared.add_argument("--seed", type=int, default=12345)
    shared.add_argument("--no-sw-prefetch", action="store_true")
    shared.add_argument("--device", choices=device_names(), default="ddr2-667",
                        help="DRAM device generation preset "
                             "(see docs/DEVICES.md)")
    shared.add_argument("--k", type=int, default=4,
                        help="region cachelines for fbd-ap")
    shared.add_argument("--entries", type=int, default=64,
                        help="AMB prefetch-cache entries for fbd-ap")
    shared.add_argument("--assoc", choices=sorted(ASSOCIATIVITIES),
                        default="full",
                        help="AMB prefetch-cache associativity for fbd-ap")
    return shared


def _build_config(args: argparse.Namespace, system: str) -> SystemConfig:
    """``system``'s configuration with the shared run knobs applied."""
    cores = len(workload_programs(args.workload))
    if system == "ddr2":
        config = ddr2_baseline(num_cores=cores)
    elif system == "fbd":
        config = fbdimm_baseline(num_cores=cores)
    else:
        prefetch = AmbPrefetchConfig(
            region_cachelines=args.k,
            cache_entries=args.entries,
            associativity=ASSOCIATIVITIES[args.assoc],
        )
        config = fbdimm_amb_prefetch(num_cores=cores, prefetch=prefetch)
    if args.device != "ddr2-667":
        config = config.with_device(args.device)
    return dataclasses.replace(
        config,
        instructions_per_core=args.insts,
        seed=args.seed,
        software_prefetch=not args.no_sw_prefetch,
    )


def observed_run(
    config: SystemConfig,
    programs: Sequence[str],
    *,
    trace: bool = False,
    profile: bool = False,
    latency: bool = False,
) -> Tuple[SimulationResult, Optional[TelemetryCapture],
           Optional[EventLoopProfiler]]:
    """Run one system with the requested observers attached.

    ``trace`` attaches a :class:`~repro.telemetry.Tracer` and assembles
    the run's telemetry capture, which carries the profile records too
    when ``profile`` attaches an event-loop profiler.  ``latency`` keeps
    every demand read's latency for the distribution report.  Returns the
    result, the capture (``None`` unless tracing) and the profiler
    (``None`` unless profiling).
    """
    tracer = None
    if trace:
        from repro.telemetry import Tracer

        tracer = Tracer()
    machine = System(config, programs, tracer=tracer)
    profiler = None
    if profile:
        from repro.engine.profiler import EventLoopProfiler

        profiler = EventLoopProfiler()
        machine.sim.profiler = profiler
    if latency:
        machine.controller.stats.enable_latency_capture()
    result = machine.run()
    capture = None
    if tracer is not None:
        from repro.telemetry import build_capture

        capture = build_capture(
            result, tracer,
            check_events=machine.controller.collect_check_events(),
            profile=(profiler.to_records() + profiler.stack_records()
                     if profiler is not None else None),
        )
    return result, capture, profiler


def save_trace(path: str, capture: TelemetryCapture) -> None:
    """Write a ``--trace-out`` capture and say so."""
    from repro.telemetry import save_capture

    records = save_capture(path, capture)
    print(f"[trace: {records} records -> {path}]")


def cmd_run(args: argparse.Namespace) -> int:
    config = _build_config(args, args.system)
    if args.timeline_ns is not None:
        config = config.with_timeline(window_ns=args.timeline_ns)
    top = args.profile
    if top is None and args.flame:
        top = PROFILE_TOP
    result, capture, profiler = observed_run(
        config, workload_programs(args.workload),
        trace=bool(args.trace_out), profile=top is not None,
        latency=args.latency,
    )
    if capture is not None:
        save_trace(args.trace_out, capture)
    print(run_report(result))
    if profiler is not None:
        print()
        print(profiler.tree_report(limit=top))
        if args.flame:
            _write_flame(args.flame, profiler)
    if args.latency:
        dist = LatencyDistribution.from_stats(result.mem)
        print(f"\nlatency distribution: {dist.format()}")
    if args.utilisation:
        print("\nlink utilisation:")
        for row in channel_utilisation_report(result.mem):
            print(f"  {row.name:<24} {row.busy_fraction:6.1%}")
    return 0


def _write_flame(path: str, profiler: EventLoopProfiler) -> None:
    from pathlib import Path

    from repro.engine.profiler import parse_collapsed

    lines = profiler.to_collapsed()
    text = "\n".join(lines) + ("\n" if lines else "")
    # Round-trip through the parser: a file we cannot re-read is a bug.
    parse_collapsed(text)
    Path(path).write_text(text, encoding="utf-8")
    print(f"\nflame stacks -> {path} ({len(lines)} stacks; "
          f"feed to flamegraph.pl / speedscope)")


def _compare_results(args: argparse.Namespace) -> List[SimulationResult]:
    """One result per system, fanned out across --jobs processes."""
    programs = tuple(workload_programs(args.workload))
    pairs = [(_build_config(args, system), programs) for system in SYSTEMS]
    if args.jobs > 1:
        from repro.experiments.parallel import execute_runs

        return execute_runs(pairs, jobs=args.jobs)
    return [run_system(config, programs) for config, programs in pairs]


def cmd_compare(args: argparse.Namespace) -> int:
    print(f"workload {args.workload}, {args.insts} instructions/core\n")
    header = (
        f"{'system':<8} {'sum IPC':>8} {'latency':>9} {'bandwidth':>10} "
        f"{'ACT':>7} {'coverage':>9}"
    )
    print(header)
    print("-" * len(header))
    baseline_ipc: Optional[float] = None
    for system, result in zip(SYSTEMS, _compare_results(args)):
        total_ipc = sum(result.core_ipcs)
        if system == "ddr2":
            baseline_ipc = total_ipc
        print(
            f"{system:<8} {total_ipc:>8.3f} "
            f"{result.avg_read_latency_ns:>7.1f}ns "
            f"{result.utilized_bandwidth_gbs:>7.2f}GB/s "
            f"{result.mem.activates:>7} {result.prefetch_coverage:>9.3f}"
        )
    if baseline_ipc:
        print(f"\n(speedups are relative to DDR2 = {baseline_ipc:.3f} sum-IPC)")
    return 0


def cmd_list(_args: argparse.Namespace) -> int:
    print("programs (single-core workloads):")
    print(" ", ", ".join(SINGLE_CORE))
    print("\nmultiprogrammed workloads (Table 3):")
    for name, programs in WORKLOADS.items():
        print(f"  {name:<5} {', '.join(programs)}")
    return 0


#: Sweepable axes for the ``sweep`` subcommand and how each value parses.
SWEEP_AXES = {
    "k": int,
    "entries": int,
    "assoc": str,
    "rate": int,
    "channels": int,
    "device": str,
}


def _parse_axes(specs: List[str]) -> Dict[str, List[object]]:
    """Parse ["k=2,4,8", "rate=667,800"] into {"k": [2,4,8], ...}."""
    axes: Dict[str, List[object]] = {}
    for spec in specs:
        if "=" not in spec:
            raise SystemExit(f"bad axis {spec!r}; expected name=v1,v2,...")
        name, _, values = spec.partition("=")
        if name not in SWEEP_AXES:
            raise SystemExit(
                f"unknown axis {name!r}; choices: {sorted(SWEEP_AXES)}"
            )
        cast = SWEEP_AXES[name]
        axes[name] = [cast(v) for v in values.split(",") if v]
        if not axes[name]:
            raise SystemExit(f"axis {name!r} has no values")
    if not axes:
        raise SystemExit("sweep needs at least one axis (e.g. k=2,4,8)")
    return axes


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.charts import bar_chart
    from repro.experiments.runner import ExperimentContext
    from repro.experiments.sweep import Sweep

    axes = _parse_axes(args.axes)
    programs = workload_programs(args.workload)
    cores = len(programs)

    def build(k: int = 4, entries: int = 64, assoc: str = "full",
              rate: int = 667, channels: int = 2,
              device: str = "ddr2-667") -> SystemConfig:
        prefetch = AmbPrefetchConfig(
            region_cachelines=k,
            cache_entries=entries,
            associativity=ASSOCIATIVITIES[assoc],
        )
        config = fbdimm_amb_prefetch(
            num_cores=cores,
            prefetch=prefetch,
            logic_channels=channels,
        )
        if device != "ddr2-667":
            # The device preset fixes its own data rate; an explicit
            # rate axis still overrides it below.
            config = config.with_device(device)
        if device == "ddr2-667" or "rate" in axes:
            config = config.with_memory(data_rate_mts=rate)
        return config

    sweep = Sweep(
        axes=axes, build=build, workload=args.workload, metric_name="sum_ipc"
    )
    cache = None if args.no_cache else args.cache_dir
    ctx = ExperimentContext(
        instructions=args.insts, seed=args.seed, jobs=args.jobs, cache=cache
    )
    table = sweep.run(ctx, metric=lambda r: sum(r.core_ipcs))
    print(table.format())
    print()
    print(bar_chart(table, "sum_ipc", label_columns=list(axes), width=40))
    if ctx.cache is not None:
        print(
            f"\n[cache: {ctx.fresh_runs} simulated, "
            f"{ctx.disk_hits} served from {ctx.cache.root}]"
        )
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults.sweep import fault_sweep, format_sweep

    try:
        rates = [float(v) for v in args.rates.split(",") if v]
    except ValueError as exc:
        raise SystemExit(f"bad --rates value: {exc}") from exc
    if not rates:
        raise SystemExit("--rates needs at least one error rate")
    programs = workload_programs(args.workload)
    config = _build_config(args, args.system)
    config = dataclasses.replace(
        config, faults=dataclasses.replace(config.faults, seed=args.fault_seed)
    )
    points = fault_sweep(
        config,
        programs,
        rates,
        amb_bitflip_rate=args.bitflip,
        jobs=args.jobs,
    )
    print(
        f"workload {args.workload}, system {args.system}, "
        f"{args.insts} instructions/core, fault seed {args.fault_seed}\n"
    )
    print(format_sweep(points))
    print("\n(dIPC is relative to the fault-free baseline; 'retry ns' is "
          "link latency added by replays)")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.experiments.runcache import RunCache

    cache = RunCache(args.cache_dir)
    if args.action == "stats":
        summary = cache.summary()
        print(f"cache root    {summary['root']}")
        print(f"entries       {summary['entries']}")
        print(f"size          {summary['bytes'] / 1e6:.2f} MB")
        print(f"quarantined   {summary['quarantined']}")
        print(f"code salt     {summary['salt']}")
        print(f"format        v{summary['format']}")
    else:  # purge
        removed = cache.purge()
        print(f"removed {removed} cache entries from {cache.root}")
    return 0


def cmd_trace_summarize(args: argparse.Namespace) -> int:
    from repro.telemetry import load_capture, summarize_capture

    print(summarize_capture(load_capture(args.capture), top_sites=args.top))
    return 0


def cmd_trace_export(args: argparse.Namespace) -> int:
    from repro.telemetry import (
        load_capture,
        validate_chrome_trace,
        write_chrome_trace,
    )

    doc = write_chrome_trace(args.out, load_capture(args.capture))
    problems = validate_chrome_trace(doc)
    events = doc["traceEvents"]
    print(f"wrote {args.out}: {len(events)} trace events")  # type: ignore[arg-type]
    if problems:
        for problem in problems[:20]:
            print(f"  INVALID: {problem}", file=sys.stderr)
        print(f"{len(problems)} schema problem(s)", file=sys.stderr)
        return 1
    print("schema: OK (load it in Perfetto / chrome://tracing)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="FB-DIMM / AMB-prefetching simulator (ISPASS 2007 repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = run_arguments()

    run_p = sub.add_parser("run", parents=[shared], help="simulate one system")
    run_p.add_argument("--system", choices=SYSTEMS, default="fbd-ap")
    run_p.add_argument("--latency", action="store_true",
                       help="capture and print the latency distribution")
    run_p.add_argument("--utilisation", action="store_true",
                       help="print per-link busy fractions")
    run_p.add_argument("--trace-out", metavar="PATH",
                       help="record a telemetry capture (see 'trace')")
    run_p.add_argument("--profile", nargs="?", const=PROFILE_TOP, default=None,
                       type=int, metavar="N",
                       help="profile the event loop; print the top-N "
                            f"callback sites (default {PROFILE_TOP}) and add "
                            "the profile to the --trace-out capture")
    run_p.add_argument("--flame", metavar="PATH",
                       help="write the profile as collapsed flame stacks "
                            "(implies --profile)")
    run_p.add_argument("--timeline-ns", type=float, default=None,
                       metavar="NS",
                       help="record the windowed timeline (window length "
                            "in sim-time ns; see docs/TIMELINE.md)")
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", parents=[shared],
                           help="DDR2 vs FBD vs FBD-AP")
    cmp_p.set_defaults(func=cmd_compare)

    list_p = sub.add_parser("list", help="show programs and workloads")
    list_p.set_defaults(func=cmd_list)

    sweep_p = sub.add_parser(
        "sweep", help="sweep fbd-ap knobs, e.g. sweep k=2,4,8 rate=667,800"
    )
    sweep_p.add_argument("axes", nargs="+",
                         help=f"axis=v1,v2,... from {sorted(SWEEP_AXES)}")
    sweep_p.add_argument("--workload", default="4C-1")
    sweep_p.add_argument("--insts", type=int, default=20_000)
    sweep_p.add_argument("--seed", type=int, default=12345)
    sweep_p.add_argument("--no-cache", action="store_true",
                         help="skip the persistent run cache")
    sweep_p.add_argument("--cache-dir", default=".repro-cache",
                         help="run-cache directory")
    sweep_p.set_defaults(func=cmd_sweep)

    faults_p = sub.add_parser(
        "faults", parents=[shared],
        help="sweep link error rates (repro.faults injection)",
    )
    faults_p.add_argument("--system", choices=("fbd", "fbd-ap"),
                          default="fbd-ap")
    faults_p.add_argument("--rates", default="1e-6,1e-4,1e-2",
                          help="comma-separated frame error rates")
    faults_p.add_argument("--bitflip", type=float, default=None,
                          help="AMB-cache bit-flip rate (default: same as "
                               "the link error rate)")
    faults_p.add_argument("--fault-seed", type=int, default=0xFBD1,
                          help="seed of the fault-decision streams")
    faults_p.set_defaults(func=cmd_faults)

    for runs_p in (cmp_p, sweep_p, faults_p):
        runs_p.add_argument("--jobs", type=int, default=1,
                            help="worker processes for independent runs")

    cache_p = sub.add_parser(
        "cache", help="inspect or purge the persistent run cache"
    )
    cache_p.add_argument("action", choices=("stats", "purge"))
    cache_p.add_argument("--cache-dir", default=".repro-cache")
    cache_p.set_defaults(func=cmd_cache)

    trace_p = sub.add_parser(
        "trace", help="summarize or export a 'run --trace-out' capture "
                      "(see docs/OBSERVABILITY.md)"
    )
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)
    sum_p = trace_sub.add_parser("summarize", help="digest of a capture file")
    sum_p.add_argument("capture", help="capture JSONL from 'run --trace-out'")
    sum_p.add_argument("--top", type=int, default=10,
                       help="profiler sites to show")
    sum_p.set_defaults(func=cmd_trace_summarize)
    exp_p = trace_sub.add_parser(
        "export", help="capture -> schema-validated Chrome trace-event JSON"
    )
    exp_p.add_argument("capture", help="capture JSONL from 'run --trace-out'")
    exp_p.add_argument("-o", "--out", default="trace.json",
                       help="Chrome trace JSON path")
    exp_p.set_defaults(func=cmd_trace_export)

    from repro.bench.cli import configure_parser as configure_bench_parser
    from repro.prefetch.cli import configure_parser as configure_prefetch_parser
    from repro.timeline.cli import configure_parser as configure_timeline_parser

    configure_bench_parser(sub.add_parser(
        "bench", help="performance benchmarking (see docs/BENCHMARKING.md)"
    ))
    configure_timeline_parser(sub.add_parser(
        "timeline", help="windowed sim-time telemetry (see docs/TIMELINE.md)"
    ), shared)
    configure_prefetch_parser(sub.add_parser(
        "prefetch",
        help="prefetch lifecycle observability (see docs/PREFETCH.md)",
    ), shared)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        # Missing or garbage input files and unwritable outputs fail
        # cleanly: 2 = usage/IO error, matching the repro.check CLI.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
