"""Substrate validation with open-loop synthetic workloads.

Before trusting the SPEC-profile results, these experiments confirm the
memory substrate behaves like the hardware it models:

* **stream saturation** — enough sequential streams must drive a channel
  near its theoretical data-bus efficiency;
* **latency vs load** — average latency must sit at the idle value under
  light load and grow smoothly toward saturation (the classic
  characterisation curve);
* **pointer chase** — a fully dependent access chain must observe ~idle
  latency per access regardless of the system's bandwidth.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.config import SystemConfig, fbdimm_baseline
from repro.experiments.runner import ExperimentContext, ResultTable
from repro.system import System
from repro.workloads.synthetic import SyntheticSpec, pointer_chase, stream


def _run_streams(
    config: SystemConfig, num_streams: int, gap_insts: int, instructions: int
) -> "tuple[float, float]":
    """(utilised bandwidth GB/s, avg latency ns) for N stream cores."""
    config = dataclasses.replace(
        config,
        cpu=dataclasses.replace(config.cpu, num_cores=num_streams),
        instructions_per_core=instructions,
        software_prefetch=False,
    )
    # Stagger the start lines: bare (i << 26) offsets are congruent mod
    # the interleave rotation, which would phase-lock every stream onto
    # the same bank sequence.
    traces = [
        stream(
            SyntheticSpec(gap_insts=gap_insts, seed=i),
            base_line=(i << 26) + i * 13,
        )
        for i in range(num_streams)
    ]
    result = System.from_traces(
        config, traces, base_ipcs=[2.0] * num_streams
    ).run()
    return result.utilized_bandwidth_gbs, result.avg_read_latency_ns


def plan(ctx: Optional[ExperimentContext] = None) -> list:
    """Nothing to prefetch: validation builds systems from raw synthetic
    traces, which are not addressable by the (config, programs) run key."""
    return []


def run_saturation(ctx: Optional[ExperimentContext] = None) -> ResultTable:
    """Bandwidth and latency as offered load rises (more stream cores)."""
    instructions = ctx.instructions if ctx else 30_000
    table = ResultTable(
        title="Validation: stream load vs bandwidth and latency (FB-DIMM)",
        columns=["stream_cores", "bandwidth_gbs", "latency_ns", "peak_fraction"],
    )
    base = fbdimm_baseline()
    peak = base.memory.peak_bandwidth_gbs()
    for cores in (1, 2, 4, 8):
        bandwidth, latency = _run_streams(base, cores, gap_insts=12, instructions=instructions)
        table.add(
            stream_cores=cores,
            bandwidth_gbs=bandwidth,
            latency_ns=latency,
            peak_fraction=bandwidth / peak,
        )
    return table


def run_pointer_chase(ctx: Optional[ExperimentContext] = None) -> ResultTable:
    """A dependent chain must see roughly the idle latency per access."""
    instructions = ctx.instructions if ctx else 30_000
    table = ResultTable(
        title="Validation: pointer chase sees idle latency",
        columns=["system", "latency_ns"],
    )
    for label, config in (("fbdimm", fbdimm_baseline()),):
        config = dataclasses.replace(
            config, instructions_per_core=instructions, software_prefetch=False
        )
        trace = pointer_chase(SyntheticSpec(seed=7))
        result = System.from_traces(config, [trace], base_ipcs=[2.0]).run()
        table.add(system=label, latency_ns=result.avg_read_latency_ns)
    return table
