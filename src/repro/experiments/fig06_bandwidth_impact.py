"""Figure 6: performance impact of channel data rate and channel count.

Sweeps the data rate over {533, 667, 800} MT/s and the number of *logic*
channels over {1, 2, 4} for both DDR2 and FB-DIMM, reporting the average
SMT speedup per core count.  Expected shape: performance rises with
bandwidth everywhere; channel count matters far more for 8 cores than for
one; FB-DIMM's relative standing improves with core count.
"""

from __future__ import annotations

from repro.config import ddr2_baseline, fbdimm_baseline
from repro.experiments.runner import ExperimentContext, ResultTable, mean

DATA_RATES = (533, 667, 800)
LOGIC_CHANNELS = (1, 2, 4)
CORE_COUNTS = (1, 4, 8)


def plan(ctx: ExperimentContext) -> list:
    """Every run Figure 6 needs, for :meth:`ExperimentContext.prefetch`."""
    pairs = ctx.reference_plan()
    for factory in (ddr2_baseline, fbdimm_baseline):
        for rate in DATA_RATES:
            for channels in LOGIC_CHANNELS:
                for cores in CORE_COUNTS:
                    for workload in ctx.workloads_for(cores):
                        programs = tuple(ctx.programs_of(workload))
                        config = factory(
                            num_cores=cores,
                            data_rate_mts=rate,
                            logic_channels=channels,
                        )
                        pairs.append((config, programs))
    return pairs


def run(ctx: ExperimentContext) -> ResultTable:
    """Average SMT speedup for each (rate, channels, system, cores) cell."""
    table = ResultTable(
        title="Figure 6: bandwidth impact (avg SMT speedup)",
        columns=["system", "data_rate", "logic_channels", "cores", "speedup"],
    )
    for system_name, factory in (("ddr2", ddr2_baseline), ("fbdimm", fbdimm_baseline)):
        for rate in DATA_RATES:
            for channels in LOGIC_CHANNELS:
                for cores in CORE_COUNTS:
                    speedups = []
                    for workload in ctx.workloads_for(cores):
                        programs = ctx.programs_of(workload)
                        config = factory(
                            num_cores=cores,
                            data_rate_mts=rate,
                            logic_channels=channels,
                        )
                        result = ctx.run(config, programs)
                        speedups.append(ctx.smt_speedup(result))
                    table.add(
                        system=system_name,
                        data_rate=rate,
                        logic_channels=channels,
                        cores=cores,
                        speedup=mean(speedups),
                    )
    return table


def group_gains(table: ResultTable) -> ResultTable:
    """FB-DIMM's speedup gains per core count (the paper's summary sentences)."""
    summary = ResultTable(
        title="Figure 6 summary: FB-DIMM speedup gain per core count",
        columns=["cores", "rate_533_to_667", "channels_1_to_2", "channels_2_to_4"],
    )
    for cores in CORE_COUNTS:
        if not any(row["cores"] == cores for row in table.rows):
            continue
        summary.add(
            cores=cores,
            rate_533_to_667=gain(table, "fbdimm", cores),
            channels_1_to_2=channel_gain(table, "fbdimm", cores),
            channels_2_to_4=channel_gain(table, "fbdimm", cores, ch_from=2, ch_to=4),
        )
    return summary


def gain(table: ResultTable, system: str, cores: int, *,
         rate_from: int = 533, rate_to: int = 667, channels: int = 2) -> float:
    """Speedup gain from raising the data rate at fixed channel count."""
    lo = _cell(table, system, rate_from, channels, cores)
    hi = _cell(table, system, rate_to, channels, cores)
    return hi / lo


def channel_gain(table: ResultTable, system: str, cores: int, *,
                 ch_from: int = 1, ch_to: int = 2, rate: int = 667) -> float:
    """Speedup gain from adding logic channels at fixed data rate."""
    lo = _cell(table, system, rate, ch_from, cores)
    hi = _cell(table, system, rate, ch_to, cores)
    return hi / lo


def _cell(table: ResultTable, system: str, rate: int, channels: int, cores: int) -> float:
    for row in table.rows:
        if (
            row["system"] == system
            and row["data_rate"] == rate
            and row["logic_channels"] == channels
            and row["cores"] == cores
        ):
            return float(row["speedup"])
    raise KeyError((system, rate, channels, cores))
