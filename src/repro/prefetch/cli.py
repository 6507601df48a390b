"""``repro prefetch`` — lifecycle observability runs and policy listing.

Subcommands::

    repro prefetch report --workload 4C-1 --k 4 [--json] [--trace-out pf.jsonl]
    repro prefetch policies

``report`` runs the FB-DIMM + AMB-prefetch system with lifecycle
tracking enabled (``AmbPrefetchConfig.lifecycle=True``) and prints the
outcome taxonomy, the derived accuracy / coverage / pollution /
timeliness metrics, and the conservation check.  Exit codes: 0 ok,
1 conservation violation, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from repro.prefetch.lifecycle import conservation_delta
from repro.prefetch.policy import policy_names
from repro.prefetch.report import lifecycle_report, lifecycle_summary


def cmd_report(args: argparse.Namespace) -> int:
    from repro.__main__ import _build_config, observed_run, save_trace
    from repro.workloads.multiprog import workload_programs

    config = _build_config(args, "fbd-ap")
    config = dataclasses.replace(
        config,
        memory=dataclasses.replace(
            config.memory,
            prefetch=dataclasses.replace(
                config.memory.prefetch, policy=args.policy, lifecycle=True
            ),
        ),
    )
    result, capture, _ = observed_run(
        config, workload_programs(args.workload), trace=bool(args.trace_out)
    )
    if capture is not None:
        save_trace(args.trace_out, capture)
    label = f"{args.workload}, K={args.k}, policy={args.policy}"
    if args.json:
        print(json.dumps(lifecycle_summary(result.mem), indent=2, sort_keys=True))
    else:
        print(lifecycle_report(result.mem, label=label))
    delta = conservation_delta(result.mem)
    if delta != 0:
        print(f"error: conservation invariant violated (delta {delta:+d})",
              file=sys.stderr)
        return 1
    return 0


def cmd_policies(_args: argparse.Namespace) -> int:
    print("registered prefetch policies (repro.prefetch.policy):")
    for name in policy_names():
        print(f"  {name}")
    return 0


def configure_parser(
    parser: argparse.ArgumentParser, shared: argparse.ArgumentParser
) -> None:
    """Attach the prefetch subcommands; ``shared`` holds the run knobs."""
    sub = parser.add_subparsers(dest="prefetch_command", required=True)

    report_p = sub.add_parser(
        "report", parents=[shared],
        help="run fbd-ap with lifecycle tracking on and print the taxonomy",
    )
    report_p.add_argument("--policy", choices=policy_names(),
                          default="region",
                          help="prefetch policy behind the PrefetchPolicy "
                               "boundary")
    report_p.add_argument("--json", action="store_true",
                          help="print the summary as JSON instead of text")
    report_p.add_argument("--trace-out", metavar="PATH", default=None,
                          help="also record a telemetry capture with "
                               "per-prefetch lifecycle spans")
    report_p.set_defaults(func=cmd_report)

    policies_p = sub.add_parser(
        "policies", help="list registered prefetch policies"
    )
    policies_p.set_defaults(func=cmd_policies)
