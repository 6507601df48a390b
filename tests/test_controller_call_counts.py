"""Deterministic call-count gate for the channel controllers' scheduling.

Wall time cannot be hard-gated on shared CI machines, but for a given
tree, budget and seed the number of scheduler probes, scans and prunes is
exact.  This pins ceilings on three of them, so that a change that
re-introduces per-kick re-probing fails here, whatever the machine's
speed.

Before the probe cache, the select memo and lazy pruning, these runs made
29,772 ``_estimate`` / 6,210 ``select`` / 4,405 ``_prune`` calls (8C-1)
and 2,005 / 1,950 / 1,891 (vortex).  When a change lowers a count, lower
its ceiling with it.
"""

import collections
import dataclasses

import pytest

from repro.config import ddr2_baseline, fbdimm_amb_prefetch
from repro.controller.channel_controller import (
    Ddr2ChannelController,
    FbdimmChannelController,
)
from repro.controller.scheduler import HitFirstScheduler
from repro.system import System
from repro.workloads.multiprog import workload_programs

SEED = 12345

#: (config, mix, instructions per core, {method: ceiling}).
CASES = {
    "fbd-ap-8C-1": (
        fbdimm_amb_prefetch(num_cores=8), "8C-1", 20_000,
        {"_estimate": 6295, "select": 4944, "_prune": 1905},
    ),
    "ddr2-vortex": (
        ddr2_baseline(num_cores=1, logic_channels=1), "vortex", 200_000,
        {"_estimate": 1662, "select": 1850, "_prune": 1644},
    ),
}


def _count_calls(monkeypatch, config, mix, instructions):
    counts = collections.Counter()

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for owner in (FbdimmChannelController, Ddr2ChannelController):
        counting(owner, "_estimate")
        counting(owner, "_prune")
    counting(HitFirstScheduler, "select")
    config = dataclasses.replace(
        config, instructions_per_core=instructions, warmup_instructions=0,
        seed=SEED,
    )
    System(config, workload_programs(mix)).run()
    return counts


@pytest.mark.parametrize("name", sorted(CASES))
def test_scheduling_call_counts_stay_under_ceilings(monkeypatch, name):
    config, mix, instructions, ceilings = CASES[name]
    counts = _count_calls(monkeypatch, config, mix, instructions)
    for method, ceiling in ceilings.items():
        assert counts[method] <= ceiling, (
            f"{name}: {method} called {counts[method]} times, ceiling {ceiling}"
        )
