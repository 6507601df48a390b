"""Figure 13: DRAM dynamic power of AMB-prefetching variants, relative to
FB-DIMM without prefetching.

AMB-cache hits skip the activate/precharge pair (the 4x-cost operation);
group fetches add extra column accesses.  The balance point the paper
finds: savings for K <= 4, eroding (and possibly negative at 8 cores) for
K = 8; larger/more associative buffers save a little more.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.config import AmbPrefetchConfig, Associativity, fbdimm_amb_prefetch, fbdimm_baseline
from repro.experiments.runner import ExperimentContext, ResultTable, mean
from repro.power.energy import relative_dynamic_power_from_commands

VARIANTS: List[Tuple[str, AmbPrefetchConfig]] = [
    ("#CL=2", AmbPrefetchConfig(region_cachelines=2)),
    ("#CL=4 (default)", AmbPrefetchConfig()),
    ("#CL=8", AmbPrefetchConfig(region_cachelines=8)),
    ("#entry=128", AmbPrefetchConfig(cache_entries=128)),
    ("4-way/64", AmbPrefetchConfig(associativity=Associativity.FOUR_WAY)),
]

CORE_COUNTS = (1, 4, 8)


def plan(ctx: ExperimentContext) -> list:
    """Every run Figure 13 needs (relative power needs no references)."""
    pairs = []
    for _, prefetch in VARIANTS:
        for cores in CORE_COUNTS:
            for workload in ctx.workloads_for(cores):
                programs = tuple(ctx.programs_of(workload))
                pairs.append((fbdimm_baseline(num_cores=cores), programs))
                pairs.append(
                    (fbdimm_amb_prefetch(num_cores=cores, prefetch=prefetch), programs)
                )
    return pairs


def run(ctx: ExperimentContext) -> ResultTable:
    """Relative dynamic power plus ACT/CAS count deltas per variant."""
    table = ResultTable(
        title="Figure 13: relative DRAM dynamic power (FBD = 1.0)",
        columns=[
            "variant", "cores", "relative_power",
            "act_change", "cas_change",
        ],
    )
    for label, prefetch in VARIANTS:
        for cores in CORE_COUNTS:
            powers, act_changes, cas_changes = [], [], []
            for workload in ctx.workloads_for(cores):
                programs = ctx.programs_of(workload)
                base = ctx.run(fbdimm_baseline(num_cores=cores), programs)
                ap = ctx.run(
                    fbdimm_amb_prefetch(num_cores=cores, prefetch=prefetch), programs
                )
                # The per-command accountant (RD/WR split + refreshes)
                # reduces exactly to the old aggregate PowerModel on
                # refresh-free runs, so the figure's numbers are
                # unchanged — pinned by tests/test_timeline.py.
                powers.append(
                    relative_dynamic_power_from_commands(ap.mem, base.mem)
                )
                act_changes.append(ap.mem.activates / max(1, base.mem.activates) - 1.0)
                cas_changes.append(
                    ap.mem.column_accesses / max(1, base.mem.column_accesses) - 1.0
                )
            table.add(
                variant=label,
                cores=cores,
                relative_power=mean(powers),
                act_change=mean(act_changes),
                cas_change=mean(cas_changes),
            )
    return table
