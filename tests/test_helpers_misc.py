"""Tests for helper APIs: figure helper functions, context speedups,
frame edge cases, and result conveniences."""

import dataclasses

import pytest

from repro.channel.frames import SouthboundLink
from repro.config import ddr2_baseline, fbdimm_amb_prefetch, fbdimm_baseline
from repro.experiments import fig06_bandwidth_impact as fig06
from repro.experiments.runner import ExperimentContext, ResultTable
from repro.system import System, run_system
from repro.workloads.synthetic import SyntheticSpec, stream

FRAME = 6000


class TestFig06Helpers:
    def table(self):
        t = ResultTable(title="t", columns=[
            "system", "data_rate", "logic_channels", "cores", "speedup",
        ])
        for rate, speed in ((533, 1.0), (667, 1.2), (800, 1.3)):
            t.add(system="fbdimm", data_rate=rate, logic_channels=2,
                  cores=4, speedup=speed)
        t.add(system="fbdimm", data_rate=667, logic_channels=1, cores=4,
              speedup=0.8)
        t.add(system="fbdimm", data_rate=667, logic_channels=4, cores=4,
              speedup=1.5)
        return t

    def test_gain(self):
        assert fig06.gain(self.table(), "fbdimm", 4) == pytest.approx(1.2)

    def test_channel_gain(self):
        assert fig06.channel_gain(self.table(), "fbdimm", 4) == pytest.approx(1.5)

    def test_missing_cell_raises(self):
        with pytest.raises(KeyError):
            fig06.gain(self.table(), "ddr2", 4)

    def test_group_gains_summarises_each_core_count(self):
        summary = fig06.group_gains(self.table())
        [row] = summary.rows
        assert row["cores"] == 4
        assert row["rate_533_to_667"] == pytest.approx(1.2)
        assert row["channels_1_to_2"] == pytest.approx(1.5)
        assert row["channels_2_to_4"] == pytest.approx(1.25)


class TestContextSpeedupVs:
    def test_speedup_vs_baseline(self):
        ctx = ExperimentContext(instructions=3_000)
        ratio = ctx.speedup_vs(
            fbdimm_amb_prefetch(), fbdimm_baseline(), workload="swim"
        )
        assert 0.8 < ratio < 1.6

    def test_multiprogram_workload_fixes_core_count(self):
        ctx = ExperimentContext(instructions=3_000)
        ratio = ctx.speedup_vs(
            fbdimm_baseline(), ddr2_baseline(), workload="2C-6"
        )
        assert ratio > 0


class TestSouthboundWriteEdges:
    def test_write_waits_for_frame_boundary(self):
        link = SouthboundLink("s", FRAME)
        start, end = link.reserve_write_data(FRAME - 1, 1)
        assert start == FRAME
        assert end == 2 * FRAME

    def test_back_to_back_writes_pack_tightly(self):
        link = SouthboundLink("s", FRAME)
        _, first_end = link.reserve_write_data(0, 4)
        second_start, _ = link.reserve_write_data(0, 4)
        assert second_start == first_end

    def test_interleaved_commands_and_writes_preserve_capacity(self):
        link = SouthboundLink("s", FRAME)
        link.reserve_write_data(0, 4)
        # One command per data frame rides along; the fifth spills over.
        for expected in (0, FRAME, 2 * FRAME, 3 * FRAME, 4 * FRAME):
            assert link.reserve_command(0) == expected


class TestResultConveniences:
    def test_ipc_by_program_with_custom_labels(self):
        config = dataclasses.replace(
            fbdimm_baseline(2), instructions_per_core=2_000
        )
        system = System.from_traces(
            config,
            [stream(SyntheticSpec(seed=1)),
             stream(SyntheticSpec(seed=2), base_line=1 << 30)],
            base_ipcs=[2.0, 1.0],
            labels=["fast", "slow"],
        )
        result = system.run()
        assert set(result.ipc_by_program) == {"fast", "slow"}
        assert result.ipc_by_program["fast"] > result.ipc_by_program["slow"]

    def test_events_fired_reported(self):
        config = dataclasses.replace(
            fbdimm_baseline(1), instructions_per_core=2_000
        )
        result = run_system(config, ["vpr"])
        assert result.events_fired > 10

    def test_result_properties_without_traffic(self):
        """A compute-only run must not divide by zero anywhere."""
        config = dataclasses.replace(
            fbdimm_baseline(1), instructions_per_core=100
        )
        result = System.from_traces(
            config, [iter([])], base_ipcs=[2.0]
        ).run()
        assert result.mem.demand_reads == 0
        assert result.avg_read_latency_ns == 0.0
        assert result.utilized_bandwidth_gbs == 0.0
        assert result.prefetch_coverage == 0.0
        assert result.prefetch_efficiency == 0.0
