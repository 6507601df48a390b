"""Figure 11: sensitivity of FBD-AP performance to its configuration.

Varies interleave granularity (#CL 2/4/8), AMB-cache size (32/64/128
entries) and tag-store associativity (direct/2-way/full), each normalised
to the default (#CL=4, 64 entries, fully associative).

Expected shapes: 1-2 cores prefer larger #CL while 4-8 cores peak at 4;
32 vs 64 vs 128 entries are close; 2-way associativity reaches ~98 % of
full while direct-mapped loses several percent, worse at high core counts.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.config import AmbPrefetchConfig, Associativity, fbdimm_amb_prefetch
from repro.experiments.runner import ExperimentContext, ResultTable, mean

VARIANTS: List[Tuple[str, AmbPrefetchConfig]] = [
    ("#CL=2", AmbPrefetchConfig(region_cachelines=2)),
    ("#CL=4 (default)", AmbPrefetchConfig()),
    ("#CL=8", AmbPrefetchConfig(region_cachelines=8)),
    ("#entry=32", AmbPrefetchConfig(cache_entries=32)),
    ("#entry=64 (default)", AmbPrefetchConfig()),
    ("#entry=128", AmbPrefetchConfig(cache_entries=128)),
    ("Set=direct", AmbPrefetchConfig(associativity=Associativity.DIRECT)),
    ("Set=2", AmbPrefetchConfig(associativity=Associativity.TWO_WAY)),
    ("Set=full (default)", AmbPrefetchConfig()),
]

CORE_COUNTS = (1, 2, 4, 8)


def plan(ctx: ExperimentContext) -> list:
    """Every run Figure 11 needs, for :meth:`ExperimentContext.prefetch`."""
    pairs = ctx.reference_plan()
    for cores in CORE_COUNTS:
        for workload in ctx.workloads_for(cores):
            programs = tuple(ctx.programs_of(workload))
            pairs.append((fbdimm_amb_prefetch(num_cores=cores), programs))
            for _, prefetch in VARIANTS:
                config = fbdimm_amb_prefetch(num_cores=cores, prefetch=prefetch)
                pairs.append((config, programs))
    return pairs


def run(ctx: ExperimentContext) -> ResultTable:
    """Average speedup of each variant, normalised to the default config."""
    table = ResultTable(
        title="Figure 11: AP sensitivity (normalised to default)",
        columns=["variant", "cores", "normalised"],
    )
    defaults = {}
    for cores in CORE_COUNTS:
        values = []
        for workload in ctx.workloads_for(cores):
            programs = ctx.programs_of(workload)
            result = ctx.run(fbdimm_amb_prefetch(num_cores=cores), programs)
            values.append(ctx.smt_speedup(result))
        defaults[cores] = mean(values)

    for label, prefetch in VARIANTS:
        for cores in CORE_COUNTS:
            values = []
            for workload in ctx.workloads_for(cores):
                programs = ctx.programs_of(workload)
                config = fbdimm_amb_prefetch(num_cores=cores, prefetch=prefetch)
                values.append(ctx.smt_speedup(ctx.run(config, programs)))
            table.add(
                variant=label, cores=cores, normalised=mean(values) / defaults[cores]
            )
    return table
