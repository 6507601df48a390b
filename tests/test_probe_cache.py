"""The scheduler's probe cache, select memo and their invalidation.

A queued request caches its last probe (raw earliest start and hit flag)
under the epoch of the DIMM/AMB it maps to, and a kick reuses the last
future-ready pick without a scan while nothing it depends on changed.
Both are exact only if every state change the probes read bumps an
epoch.  The oracle below re-derives every decision from scratch at each
scan and at each memo reuse, over runs that reach every bump site; the
unit tests pin each bump site on a bare controller.
"""

import dataclasses
from collections import deque

import pytest

from repro.config import (
    AmbPrefetchConfig,
    InterleaveScheme,
    PagePolicy,
    PrefetchLocation,
    SystemConfig,
    ddr2_baseline,
    fbdimm_amb_prefetch,
    fbdimm_baseline,
)
from repro.controller.controller import MemoryController
from repro.controller.scheduler import SCAN_WINDOW, HitFirstScheduler
from repro.controller.transaction import MemoryRequest, RequestKind
from repro.engine.simulator import Simulator
from repro.system import System

SEED = 12345
TWO = ("wupwise", "swim")
FOUR = ("wupwise", "swim", "mgrid", "applu")


class Oracle:
    """Checks every select and every memo reuse of a system's channels."""

    def __init__(self, system: System) -> None:
        self.selects = 0
        self.entries_checked = 0
        self.memo_reuses = 0
        for channel in system.controller.channels:
            self._arm(channel)

    def _fresh_select(self, channel, now, reads, writes):
        """What select returns with every probe taken from scratch."""
        scheduler = channel.scheduler
        fresh = HitFirstScheduler(
            scheduler.write_drain_threshold, units=len(scheduler.epochs)
        )
        fresh._draining_writes = scheduler._draining_writes
        fresh.epochs[:] = [-2] * len(scheduler.epochs)  # never a cache hit
        queued = [req for queue in (reads, writes) for req in queue]
        saved = [(req.probe_epoch, req.probe_start, req.probe_hit) for req in queued]
        try:
            return fresh.select(now, reads, writes, channel._estimate, channel._is_hit)
        finally:
            for req, (epoch, start, hit) in zip(queued, saved):
                req.probe_epoch, req.probe_start, req.probe_hit = epoch, start, hit

    def _arm(self, channel) -> None:
        real_select = channel._select
        real_kick = channel._kick
        epochs = channel.scheduler.epochs

        def passed_queues():
            reads = (channel.read_q
                     if channel.inflight_reads < channel.max_read_inflight
                     else channel._EMPTY)
            writes = (channel.write_q
                      if channel.inflight_writes < channel.max_write_inflight
                      else channel._EMPTY)
            return reads, writes

        def checked_select(now, reads, writes, estimate, row_hit):
            expected = self._fresh_select(channel, now, reads, writes)
            choice = real_select(now, reads, writes, estimate, row_hit)
            assert _same(choice, expected)
            for queue in (reads, writes):
                for position, req in enumerate(queue):
                    if position >= SCAN_WINDOW:
                        break
                    if req.probe_epoch == epochs[req.unit]:
                        assert req.probe_start == max(
                            channel._estimate(req), req.schedulable_at)
                        assert req.probe_hit == channel._is_hit(req)
                        self.entries_checked += 1
            self.selects += 1
            return choice

        def checked_kick():
            reads, writes = passed_queues()
            expected = None
            if reads or writes:
                expected = self._fresh_select(
                    channel, channel.sim.now, reads, writes
                )
            selects = self.selects
            real_kick()
            if expected is not None and self.selects == selects:
                # No scan ran for non-empty queues: the memo was reused.
                self.memo_reuses += 1
                assert _same(channel._memo_choice, expected)

        channel._select = checked_select
        channel._kick = checked_kick


def _same(choice, expected) -> bool:
    if choice is None or expected is None:
        return choice is expected
    return (choice[0] is expected[0] and choice[1] == expected[1]
            and choice[2] == expected[2])


def _run_checked(config: SystemConfig, programs, instructions: int = 30_000):
    config = dataclasses.replace(
        config, instructions_per_core=instructions, seed=SEED
    )
    system = System(config, programs)
    oracle = Oracle(system)
    result = system.run()
    assert oracle.selects > 0 and oracle.entries_checked > 0
    return result, oracle


ORACLE_CASES = {
    "ddr2-1ch": (ddr2_baseline(num_cores=2, logic_channels=1), TWO),
    "fbd-4ch": (fbdimm_baseline(num_cores=4, logic_channels=4), FOUR),
    "fbd-4ch-ap": (fbdimm_amb_prefetch(num_cores=4, logic_channels=4), FOUR),
    "fbd-8c-ap": (fbdimm_amb_prefetch(num_cores=8), FOUR * 2),
    "fbd-ap-timeline": (
        fbdimm_amb_prefetch(num_cores=4, logic_channels=4)
        .with_timeline(window_ns=1000.0), FOUR),
    "fbd-ap-lifecycle": (
        fbdimm_amb_prefetch(num_cores=4, prefetch=AmbPrefetchConfig(lifecycle=True)),
        FOUR),
    "fbd-ap-faults": (
        fbdimm_amb_prefetch(num_cores=4, logic_channels=4)
        .with_faults(error_rate=1e-2), FOUR),
    "fbd-ap-controller-buffer": (
        fbdimm_amb_prefetch(
            num_cores=4,
            prefetch=AmbPrefetchConfig(location=PrefetchLocation.CONTROLLER),
        ), FOUR),
    # 8-line regions over cacheline interleave: one region spans two
    # DIMMs of a channel, so a group fetch changes another unit's probes.
    "fbd-ap-controller-buffer-cacheline": (
        fbdimm_amb_prefetch(
            num_cores=4, interleave=InterleaveScheme.CACHELINE,
            prefetch=AmbPrefetchConfig(
                region_cachelines=8, location=PrefetchLocation.CONTROLLER
            ),
        ), FOUR),
    "fbd-ap-open-page": (
        fbdimm_amb_prefetch(num_cores=4, interleave=InterleaveScheme.PAGE,
                            page_policy=PagePolicy.OPEN_PAGE), FOUR),
    "ddr2-open-page": (
        ddr2_baseline(num_cores=2).with_memory(
            interleave=InterleaveScheme.PAGE, page_policy=PagePolicy.OPEN_PAGE
        ), TWO),
    # Refresh-enabled presets, with tREFI cut to 1.2 us (still a multiple
    # of every bin's tCK) so these short runs refresh every rank often.
    "ddr3-refresh": (
        ddr2_baseline(num_cores=2).with_device("ddr3-1333")
        .with_memory(refresh_interval_ns=1200.0), TWO),
    "ddr4-fbd-ap-refresh": (
        fbdimm_amb_prefetch(num_cores=4).with_device("ddr4-2400")
        .with_memory(refresh_interval_ns=1200.0), FOUR),
    "lpddr4-open-page-refresh": (
        fbdimm_baseline(num_cores=2).with_memory(
            interleave=InterleaveScheme.PAGE, page_policy=PagePolicy.OPEN_PAGE
        ).with_device("lpddr4-2400").with_memory(refresh_interval_ns=1200.0),
        TWO),
}


class TestOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_cached_scheduling_matches_fresh_probes(self, name):
        config, programs = ORACLE_CASES[name]
        _run_checked(config, programs)

    def test_memo_is_reused_under_saturation(self):
        _, oracle = _run_checked(*ORACLE_CASES["fbd-8c-ap"])
        assert oracle.memo_reuses > 0

    def test_degraded_mode_flip_is_covered(self):
        config = fbdimm_amb_prefetch(num_cores=4, logic_channels=2).with_faults(
            error_rate=0.3, degraded_threshold=2
        )
        result, _ = _run_checked(config, FOUR)
        assert result.mem.fault_degraded_entries > 0

    @pytest.mark.parametrize("name", ["ddr3-refresh", "ddr4-fbd-ap-refresh",
                                      "lpddr4-open-page-refresh"])
    def test_refresh_is_covered(self, name):
        result, _ = _run_checked(*ORACLE_CASES[name])
        assert result.mem.refreshes > 0


# ----------------------------------------------------------------------
# Bump sites, one by one, on a bare controller.


class Bare:
    """One memory controller with hand-placed requests on channel 0."""

    def __init__(self, config: SystemConfig) -> None:
        self.sim = Simulator()
        self.controller = MemoryController(
            self.sim, config.memory, faults=config.faults
        )
        self.channel = self.controller.channels[0]

    def request(self, dimm: int, skip: int = 0):
        """A read of a line on channel 0, ``dimm``, not yet queued."""
        mapper = self.controller.mapper
        line = 0
        while True:
            mapped = mapper.map(line)
            if mapped.channel == 0 and mapped.dimm == dimm:
                if skip == 0:
                    break
                skip -= 1
            line += 1
        return self.read_of(line)

    def read_of(self, line: int):
        req = MemoryRequest(
            kind=RequestKind.DEMAND_READ, line_addr=line, core_id=0, arrival=0
        )
        req.mapped = self.controller.mapper.map(line)
        req.unit = req.mapped.dimm
        req.schedulable_at = 0
        return req

    def probe(self, *reqs) -> None:
        """Cache a probe of each request through the channel's scheduler."""
        channel = self.channel
        for req in reqs:
            channel._select(self.sim.now, deque([req]), deque(),
                            channel._estimate, channel._is_hit)

    def fresh(self, req) -> bool:
        return req.probe_epoch == self.channel.scheduler.epochs[req.unit]


class TestBumpSites:
    def test_issue_bumps_only_its_unit(self):
        bare = Bare(fbdimm_baseline())
        issued, same, other = bare.request(0), bare.request(0, skip=1), bare.request(1)
        bare.probe(same, other)
        bare.channel.read_q.append(issued)
        bare.channel._kick()
        assert issued.issue_time == 0
        assert not bare.fresh(same)
        assert bare.fresh(other)

    def test_amb_fill_commit_bumps_its_unit(self):
        bare = Bare(fbdimm_amb_prefetch())
        issued, other = bare.request(0), bare.request(1)
        # The next line of the same region: a pending fill of ``issued``.
        neighbour = bare.read_of(issued.line_addr + 1)
        assert neighbour.unit == 0
        bare.channel.read_q.append(issued)
        bare.channel._kick()
        bare.probe(neighbour, other)
        assert bare.fresh(neighbour) and neighbour.probe_hit
        pending = neighbour.probe_start
        bare.sim.run()  # completion and the fill commit
        assert not bare.fresh(neighbour)
        assert bare.fresh(other)
        bare.probe(neighbour)
        assert neighbour.probe_start == 0 < pending  # now resident

    def test_controller_buffer_commit_bumps_every_unit(self):
        bare = Bare(fbdimm_amb_prefetch(
            prefetch=AmbPrefetchConfig(location=PrefetchLocation.CONTROLLER)
        ))
        issued, waiting = bare.request(0), bare.request(1)
        bare.channel.read_q.append(issued)
        bare.channel._kick()
        bare.probe(waiting)
        bare.sim.run()
        assert not bare.fresh(waiting)
        assert bare.channel.mc_table.occupancy() > 0

    def test_controller_buffer_fetch_bumps_every_unit(self):
        bare = Bare(fbdimm_amb_prefetch(
            interleave=InterleaveScheme.CACHELINE,
            prefetch=AmbPrefetchConfig(
                region_cachelines=8, location=PrefetchLocation.CONTROLLER
            ),
        ))
        issued = bare.request(0)
        # The same 8-line region's line on DIMM 1 of this channel.
        companion = bare.request(1)
        assert companion.line_addr // 8 == issued.line_addr // 8
        bare.probe(companion)
        assert not companion.probe_hit
        bare.channel.read_q.append(issued)
        bare.channel._kick()
        assert not bare.fresh(companion)
        bare.probe(companion)
        assert companion.probe_hit  # now pending in the controller buffer

    def test_refresh_bumps_the_refreshed_unit(self):
        bare = Bare(ddr2_baseline().with_device("ddr3-1333"))
        reqs = [bare.request(dimm) for dimm in range(len(bare.channel.dimms))]
        bare.probe(*reqs)
        interval = bare.channel.config.refresh_interval_ns
        # The first rank's refresh falls at one tREFI; the others are staggered.
        bare.sim.run(until=int(interval * 1000) + 1)
        assert not bare.fresh(reqs[0])
        assert all(bare.fresh(req) for req in reqs[1:])

    def test_degraded_flip_bumps_every_unit(self):
        bare = Bare(fbdimm_amb_prefetch().with_faults(
            error_rate=1e-3, degraded_threshold=2
        ))
        reqs = [bare.request(dimm) for dimm in range(len(bare.channel.ambs))]
        faults = bare.channel.faults
        faults._note_episode()
        bare.probe(*reqs)
        assert not faults.degraded
        faults._note_episode()
        assert faults.degraded
        assert not any(bare.fresh(req) for req in reqs)
