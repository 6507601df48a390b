"""Ablation: AMB prefetching under a hardware stream prefetcher.

The paper evaluates AP with *software* prefetching only, arguing that
hardware prefetching would behave similarly (Section 5.4) but declining to
evaluate it because of design-variant explosion.  This ablation runs the
simplest reliable hardware scheme — a tagged next-line stream prefetcher at
the L2 — instead of software prefetching, and measures whether AP's gain
survives, which is the paper's conjecture.
"""

from __future__ import annotations

import dataclasses

from repro.config import SystemConfig, fbdimm_amb_prefetch, fbdimm_baseline
from repro.experiments.runner import ExperimentContext, ResultTable, mean

CORE_COUNTS = (1, 4)
HW_DEGREE = 4


def _with_hw(config: SystemConfig) -> SystemConfig:
    config = dataclasses.replace(config, software_prefetch=False)
    return config.with_cpu(hw_prefetch_degree=HW_DEGREE)


def plan(ctx: ExperimentContext) -> list:
    """Every run this ablation needs, for :meth:`ExperimentContext.prefetch`."""
    pairs = ctx.reference_plan()
    for cores in CORE_COUNTS:
        for workload in ctx.workloads_for(cores):
            programs = tuple(ctx.programs_of(workload))
            for factory in (fbdimm_baseline, fbdimm_amb_prefetch):
                pairs.append((factory(num_cores=cores), programs))
                pairs.append((_with_hw(factory(num_cores=cores)), programs))
    return pairs


def run(ctx: ExperimentContext) -> ResultTable:
    """AP improvement with SW prefetching vs with a HW stream prefetcher."""
    table = ResultTable(
        title="Ablation: AP gain under software vs hardware prefetching",
        columns=["cores", "ap_gain_with_sw", "ap_gain_with_hw"],
    )
    for cores in CORE_COUNTS:
        sw_gains, hw_gains = [], []
        for workload in ctx.workloads_for(cores):
            programs = ctx.programs_of(workload)
            base_sw = ctx.smt_speedup(
                ctx.run(fbdimm_baseline(num_cores=cores), programs)
            )
            ap_sw = ctx.smt_speedup(
                ctx.run(fbdimm_amb_prefetch(num_cores=cores), programs)
            )
            sw_gains.append(ap_sw / base_sw)
            base_hw = ctx.smt_speedup(
                ctx.run(_with_hw(fbdimm_baseline(num_cores=cores)), programs)
            )
            ap_hw = ctx.smt_speedup(
                ctx.run(_with_hw(fbdimm_amb_prefetch(num_cores=cores)), programs)
            )
            hw_gains.append(ap_hw / base_hw)
        table.add(
            cores=cores,
            ap_gain_with_sw=mean(sw_gains) - 1.0,
            ap_gain_with_hw=mean(hw_gains) - 1.0,
        )
    return table
