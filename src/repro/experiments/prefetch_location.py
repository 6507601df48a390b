"""Ablation: where should the prefetch buffer live?

The paper's central design argument (Sections 1 and 6): prefetching to the
memory controller (Lin, Reinhardt and Burger's scheme) reduces hit latency
more, but every miss drags the whole region across the channel — the
resource multi-core processors are short of.  AMB prefetching buffers
*behind* the channel and only moves lines that are actually demanded.

Expected shape: CONTROLLER placement matches or slightly beats AMB at one
core (bandwidth to spare, 12 ns hits) and falls well behind at eight cores
(K x northbound traffic per miss).
"""

from __future__ import annotations

from repro.config import (
    AmbPrefetchConfig,
    PrefetchLocation,
    fbdimm_amb_prefetch,
    fbdimm_baseline,
)
from repro.experiments.runner import ExperimentContext, ResultTable, mean

CORE_COUNTS = (1, 4, 8)

MC_PREFETCH = AmbPrefetchConfig(location=PrefetchLocation.CONTROLLER)


def plan(ctx: ExperimentContext) -> list:
    """Every run this ablation needs, for :meth:`ExperimentContext.prefetch`."""
    pairs = ctx.reference_plan()
    for cores in CORE_COUNTS:
        for workload in ctx.workloads_for(cores):
            programs = tuple(ctx.programs_of(workload))
            pairs.append((fbdimm_baseline(num_cores=cores), programs))
            pairs.append((fbdimm_amb_prefetch(num_cores=cores), programs))
            pairs.append(
                (fbdimm_amb_prefetch(num_cores=cores, prefetch=MC_PREFETCH),
                 programs)
            )
    return pairs


def run(ctx: ExperimentContext) -> ResultTable:
    """Average speedup over plain FBD for both buffer placements."""
    table = ResultTable(
        title="Ablation: AMB-side vs controller-side prefetch buffering",
        columns=[
            "cores", "amb_speedup", "controller_speedup",
            "amb_bw_gbs", "controller_bw_gbs",
        ],
    )
    for cores in CORE_COUNTS:
        amb_gain, mc_gain, amb_bw, mc_bw = [], [], [], []
        for workload in ctx.workloads_for(cores):
            programs = ctx.programs_of(workload)
            base = ctx.smt_speedup(ctx.run(fbdimm_baseline(num_cores=cores), programs))
            amb = ctx.run(fbdimm_amb_prefetch(num_cores=cores), programs)
            mc = ctx.run(
                fbdimm_amb_prefetch(num_cores=cores, prefetch=MC_PREFETCH), programs
            )
            amb_gain.append(ctx.smt_speedup(amb) / base)
            mc_gain.append(ctx.smt_speedup(mc) / base)
            amb_bw.append(amb.utilized_bandwidth_gbs)
            mc_bw.append(mc.utilized_bandwidth_gbs)
        table.add(
            cores=cores,
            amb_speedup=mean(amb_gain),
            controller_speedup=mean(mc_gain),
            amb_bw_gbs=mean(amb_bw),
            controller_bw_gbs=mean(mc_bw),
        )
    return table
