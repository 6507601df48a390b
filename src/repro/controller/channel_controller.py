"""Per-physical-channel issue engines.

A channel controller owns one physical channel's queues and resources and
turns scheduled requests into timed DRAM activity.  Two variants share the
queueing/scheduling skeleton:

* :class:`Ddr2ChannelController` — shared command + data bus, DIMMs directly
  on the channel;
* :class:`FbdimmChannelController` — southbound/northbound links, AMBs with
  optional AMB-cache prefetching.

Transactions are issued atomically: when the scheduler picks a request, the
controller computes the whole command/data timeline against the bank state
and bus reservations, then schedules a single completion event.  An
in-flight cap bounds how far ahead resources can be reserved, which is what
keeps the reordering window meaningful (like a real controller's finite
command pipeline).
"""

from __future__ import annotations

import dataclasses
from collections import deque
from functools import partial
from operator import attrgetter
from typing import (
    TYPE_CHECKING, Deque, Dict, Iterable, Optional, Sequence, Tuple, Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dram.bank import Bank
    from repro.prefetch.lifecycle import PrefetchLifecycle
    from repro.telemetry.spans import Tracer

from repro.channel.amb import Amb
from repro.channel.ddr2_bus import Ddr2Dimm
from repro.channel.fbdimm_link import FbdimmLinks
from repro.config import FaultConfig, MemoryConfig, PrefetchLocation
from repro.faults.retry import ChannelFaults
from repro.controller.prefetch_table import PrefetchTable, TableStats
from repro.controller.scheduler import HitFirstScheduler
from repro.controller.transaction import MemoryRequest, RequestKind
from repro.dram.bank import BankStats
from repro.dram.resources import BusResource, TaggedBusResource
from repro.dram.timing import TimingPs
from repro.engine.simulator import Simulator
from repro.stats.collector import DEVICE_COUNTERS, MemSystemStats


def _fold_pairs(
    attrs: Iterable[str], prefix: str
) -> Tuple[Tuple[str, str], ...]:
    """(source attribute, device counter) pairs of one per-unit stats type.

    A device counter folds the attribute named like it less ``prefix``.
    """
    names = set(attrs)
    return tuple(
        (name.removeprefix(prefix), name) for name in DEVICE_COUNTERS
        if name.removeprefix(prefix) in names
    )


#: Bank counters fold into the like-named device counters, RD/WR into
#: ``column_reads``/``column_writes``.  ``precharges`` mirrors
#: ``activates`` one-for-one under close page and folds nowhere.
_BANK_FOLD = _fold_pairs(BankStats.__slots__, "column_")
#: Tag-store counters fold into the ``pf_table_*`` device counters.
_TABLE_FOLD = _fold_pairs(
    (f.name for f in dataclasses.fields(TableStats)), "pf_table_"
)


def _fold(
    counters: Dict[str, int], pairs: Tuple[Tuple[str, str], ...],
    sources: Sequence[object],
) -> None:
    """Add each ``(attribute, counter)`` pair, summed over ``sources``."""
    for attr, name in pairs:
        counters[name] += sum(map(attrgetter(attr), sources))


class ChannelControllerBase:
    """Queueing, scheduling and completion plumbing shared by both kinds."""

    def __init__(
        self,
        sim: Simulator,
        config: MemoryConfig,
        timing: TimingPs,
        channel_id: int,
        stats: MemSystemStats,
    ) -> None:
        self.sim = sim
        self.config = config
        self.timing = timing
        self.channel_id = channel_id
        self.stats = stats
        self.read_q: Deque[MemoryRequest] = deque()
        self.write_q: Deque[MemoryRequest] = deque()
        self.scheduler = HitFirstScheduler(
            config.write_drain_threshold, units=config.dimms_per_channel
        )
        self._select = self.scheduler.select
        #: Probe epoch per DIMM/AMB (the scheduler's list), bumped through
        #: _bump/_bump_all wherever state _estimate/_is_hit read changes:
        #: an issue, a refresh, an AMB fill commit, a controller-buffer
        #: commit, a fault degraded-mode flip.  Each bump draws a fresh
        #: value from the channel version.
        self._epochs = self.scheduler.epochs
        self._version = 0
        #: Last future-ready pick, reused while now is below its horizon
        #: and (version, queue lengths) still equal the key it was made at.
        self._memo_horizon = 0
        self._memo_key = (-1, 0, 0)
        self._memo_choice: "Optional[tuple[MemoryRequest, int, bool]]" = None
        # Separate read/write in-flight caps: a write drain may not
        # monopolise the issue pipeline and starve ready reads (writes are
        # posted; reads are latency-critical).
        self.max_read_inflight = max(8, 2 * config.dimms_per_channel)
        self.max_write_inflight = max(4, config.dimms_per_channel)
        self.inflight_reads = 0
        self.inflight_writes = 0
        self._wake = None  # pending future kick event, at most one outstanding
        #: Tick for which a handle-free same-tick kick is already queued.
        #: A kick at the current time can never be preempted by an earlier
        #: one, so it needs no cancellation handle — only this dedupe mark.
        self._wake_now_tick = -1
        self._pruned_at = -1  # last tick _prune ran (before an issue)
        #: The channel's DIMMs (DDR2) or AMBs (FB-DIMM), set by the subclass.
        self.units: "Sequence[Union[Amb, Ddr2Dimm]]" = ()
        #: Optional request-lifecycle tracer (assigned by MemoryController);
        #: every hook site is a no-op when this stays None.
        self.tracer: "Optional[Tracer]" = None
        #: Optional per-prefetch lifecycle tracker (repro.prefetch);
        #: attached via attach_lifecycle, None keeps every hook free.
        self.lifecycle: "Optional[PrefetchLifecycle]" = None

    # -- queue interface -------------------------------------------------

    def submit(self, req: MemoryRequest) -> None:
        """Accept a mapped, schedulable request into this channel's queues."""
        req.unit = req.mapped.dimm
        if req.kind is RequestKind.WRITE:
            self.write_q.append(req)
        else:
            self.read_q.append(req)
        self._request_kick(self.sim.now)

    def queue_len(self) -> int:
        """Requests waiting (not yet issued) on this channel."""
        return len(self.read_q) + len(self.write_q)

    # -- scheduling loop --------------------------------------------------

    def _request_kick(self, time: int) -> None:
        now = self.sim.now
        if self._wake_now_tick == now:
            return  # a kick for this very tick is already queued
        wake = self._wake
        if wake is not None and not wake.cancelled:
            if wake.time <= time:
                return
            wake.cancel()
            self._wake = None
        if time <= now:
            self._wake_now_tick = now
            self.sim.schedule_fire(now, self._kick)
        else:
            self._wake = self.sim.schedule_at(time, self._kick)

    _EMPTY: Deque[MemoryRequest] = deque()

    def _bump(self, unit: int) -> None:
        """State behind ``unit``'s probes changed: its cached probes are stale."""
        self._version += 1
        self._epochs[unit] = self._version

    def _bump_all(self) -> None:
        self._version += 1
        epochs = self._epochs
        epochs[:] = [self._version] * len(epochs)  # in place: shared list

    def _kick(self) -> None:
        self._wake = None
        self._wake_now_tick = -1
        now = self.sim.now
        while True:
            reads = self.read_q if self.inflight_reads < self.max_read_inflight else self._EMPTY
            writes = (
                self.write_q
                if self.inflight_writes < self.max_write_inflight
                else self._EMPTY
            )
            if not reads and not writes:
                return
            # Same version and queue lengths mean the same queued requests
            # in the same unit states (queues only grow between issues, and
            # every issue bumps), and select's write-drain hysteresis is
            # idempotent at fixed lengths; below the horizon no scanned
            # candidate can have become ready.  So select would repeat the
            # last future-ready pick exactly.
            if now < self._memo_horizon and self._memo_key == (
                self._version, len(reads), len(writes)
            ):
                memo = self._memo_choice
                assert memo is not None
                req, est, from_writes = memo
            else:
                choice = self._select(
                    now, reads, writes, self._estimate, self._is_hit
                )
                if choice is None:
                    return
                req, est, from_writes = choice
                if est > now:
                    self._memo_horizon = self.scheduler.horizon
                    self._memo_key = (self._version, len(reads), len(writes))
                    self._memo_choice = choice
            if est > now:
                self._request_kick(est)
                return
            if self._pruned_at != now:
                # Only an issue searches or books reservations, so pruning
                # at the first issue of a tick equals pruning at every
                # kick: prune(t1) then prune(t2) == prune(t2).
                self._prune(now)
                self._pruned_at = now
            if from_writes:
                self.write_q.remove(req)
                self.inflight_writes += 1
            else:
                self.read_q.remove(req)
                self.inflight_reads += 1
            req.issue_time = now
            if self.tracer is not None:
                self.tracer.on_issue(req, now)
            self.stats.note_activity(now)
            self._issue(req)
            self._version = version = self._version + 1  # inlined _bump
            self._epochs[req.unit] = version

    def _start_refresh(self) -> None:
        """Arm periodic all-bank refresh per rank, staggered across ranks.

        Every tREFI each rank of the channel's ``units`` takes exactly one
        all-bank REF (a tRFC blackout on all its banks), with rank offsets
        spread across the interval so the whole channel never refreshes at
        once.

        Off by default (refresh_interval_ns == 0).  Note: once armed, the
        event queue never drains — run loops must stop via an explicit
        condition (System.run does; bare-controller tests should leave
        refresh off or use Simulator.run(until=...)).
        """
        from repro.engine.simulator import ns as to_ps

        interval = to_ps(self.config.refresh_interval_ns)
        if interval <= 0:
            return
        trfc = to_ps(self.config.refresh_cycle_ns)
        per_rank = self.config.banks_per_dimm
        rank_banks = [
            (unit, dimm.banks[r * per_rank:(r + 1) * per_rank])
            for unit, dimm in enumerate(self.units)
            for r in range(self.config.ranks_per_dimm)
        ]

        def loop(unit: int, banks: Sequence[Bank]) -> None:
            for bank in banks:
                bank.refresh(self.sim.now, trfc)
            self._bump(unit)
            self.sim.schedule_fire(self.sim.now + interval, partial(loop, unit, banks))

        for index, (unit, banks) in enumerate(rank_banks):
            offset = (interval * index) // max(1, len(rank_banks))
            self.sim.schedule_fire(offset + interval, partial(loop, unit, banks))

    def _finish_at(self, req: MemoryRequest, finish_time: int) -> None:
        """Schedule the completion event for an issued transaction."""
        self.sim.schedule_fire(finish_time, partial(self._complete, req))

    def _complete(self, req: MemoryRequest) -> None:
        now = self.sim.now
        stats = self.stats
        stats.note_activity(now)
        if req.kind is RequestKind.WRITE:
            self.inflight_writes -= 1
            stats.record_write_completion(self.config.cacheline_bytes)
        else:
            self.inflight_reads -= 1
            queue_delay = req.issue_time - req.schedulable_at
            # Positional on this per-read path: latency, queueing delay,
            # is_demand, amb_hit, line bytes, core.
            stats.record_read_completion(
                now - req.arrival,
                queue_delay if queue_delay > 0 else 0,
                req.kind is RequestKind.DEMAND_READ,
                req.amb_hit,
                self.config.cacheline_bytes,
                req.core_id,
            )
            if req.amb_hit and self.lifecycle is not None:
                # Counted at completion, exactly like amb_hits, so the
                # lifecycle-derived coverage matches the legacy figure.
                self.lifecycle.on_hit_completion()
        if self.tracer is not None:
            self.tracer.on_complete(req, now)
        req.complete(now)
        if self.read_q or self.write_q:
            self._request_kick(now)

    # -- protocol-checker support ------------------------------------------

    def _bank_check_events(self, dimm_id: int,
                           banks: Iterable[Bank]) -> "list":
        """Convert the banks' command logs into checker events."""
        from repro.check.trace import CheckEvent

        per_dimm = self.config.banks_per_dimm
        events = []
        for bank in banks:
            if not bank.command_log:
                continue
            for rec in bank.command_log:
                events.append(CheckEvent(
                    time_ps=rec.time_ps,
                    kind=rec.kind.value,
                    channel=self.channel_id,
                    dimm=dimm_id,
                    rank=rec.bank_id // per_dimm,
                    bank=rec.bank_id % per_dimm,
                    row=rec.row,
                ))
        return events

    def enable_protocol_trace(self) -> None:
        """Start journalling DRAM commands (and frames) for the checker."""
        raise NotImplementedError

    def collect_check_events(self) -> "list":
        """All journalled events so far, time-sorted."""
        raise NotImplementedError

    # -- hooks implemented per channel kind --------------------------------

    def _prune(self, now: int) -> None:
        """Drop expired bus reservations (keeps backfill searches short)."""
        raise NotImplementedError

    def _estimate(self, req: MemoryRequest) -> int:
        raise NotImplementedError

    def _is_hit(self, req: MemoryRequest) -> bool:
        raise NotImplementedError

    def _issue(self, req: MemoryRequest) -> None:
        raise NotImplementedError

    def collect_device_counters(self) -> Dict[str, int]:
        """Side-effect-free snapshot of this channel's device counters.

        The controller sums these over its channels for the timeline and
        baseline-subtracts them at finalize.
        """
        counters = dict.fromkeys(DEVICE_COUNTERS, 0)
        _fold(counters, _BANK_FOLD,
              [bank.stats for unit in self.units for bank in unit.banks])
        counters["column_accesses"] = (
            counters["column_reads"] + counters["column_writes"]
        )
        return counters

    def busy_ps(self) -> Dict[str, int]:
        """Occupancy of this channel's buses or links, by name."""
        raise NotImplementedError


class Ddr2ChannelController(ChannelControllerBase):
    """One conventional DDR2 channel: shared command and data buses."""

    def __init__(
        self,
        sim: Simulator,
        config: MemoryConfig,
        timing: TimingPs,
        channel_id: int,
        stats: MemSystemStats,
    ) -> None:
        super().__init__(sim, config, timing, channel_id, stats)
        gap = round(config.ddr2_switch_gap_clocks * timing.clock)
        self.data_bus = TaggedBusResource(f"ddr2-ch{channel_id}.data", switch_gap_ps=gap)
        self.command_bus = BusResource(f"ddr2-ch{channel_id}.cmd")
        self.dimms = [
            Ddr2Dimm(config, timing, channel_id, d, self.data_bus, self.command_bus)
            for d in range(config.dimms_per_channel)
        ]
        self.units = self.dimms
        self._start_refresh()

    def _prune(self, now: int) -> None:
        # Emptiness guards saved here beat the (very frequent) no-op calls.
        if len(self.data_bus._intervals) > 1:
            self.data_bus.prune_before(now)
        if self.command_bus._intervals:
            self.command_bus.prune_before(now)

    def _estimate(self, req: MemoryRequest) -> int:
        mapped = req.mapped
        dimm = self.dimms[mapped.dimm]
        rank = mapped.rank
        bank = dimm.banks[rank * dimm._banks_per_dimm + mapped.bank]
        return bank.earliest_start(0, mapped.row, dimm.rank_timers[rank])

    def _is_hit(self, req: MemoryRequest) -> bool:
        mapped = req.mapped
        dimm = self.dimms[mapped.dimm]
        return dimm.banks[
            mapped.rank * dimm._banks_per_dimm + mapped.bank
        ].is_row_hit(mapped.row)

    def _issue(self, req: MemoryRequest) -> None:
        dimm = self.dimms[req.mapped.dimm]
        result = (dimm.write_line(self.sim.now, req.mapped)
                  if req.kind is RequestKind.WRITE
                  else dimm.read_line(self.sim.now, req.mapped))
        req.row_hit = result.row_hit
        if self.tracer is not None:
            self.tracer.on_data(req, result.data_starts[0])
        self._finish_at(req, result.data_times[0])

    def enable_protocol_trace(self) -> None:
        for dimm in self.dimms:
            for bank in dimm.banks:
                bank.enable_trace()

    def collect_check_events(self) -> "list":
        events = []
        for dimm in self.dimms:
            events.extend(self._bank_check_events(dimm.dimm_id, dimm.banks))
        events.sort(key=lambda e: e.time_ps)
        return events

    def busy_ps(self) -> Dict[str, int]:
        return {self.data_bus.name: self.data_bus.busy_ps}


class FbdimmChannelController(ChannelControllerBase):
    """One FB-DIMM physical channel with daisy-chained AMBs.

    With ``config.prefetch.enabled`` the controller consults the prefetch
    information table before issuing: hits are served straight from the AMB
    cache (Section 3.2), misses become group fetches that fill it.
    """

    def __init__(
        self,
        sim: Simulator,
        config: MemoryConfig,
        timing: TimingPs,
        channel_id: int,
        stats: MemSystemStats,
        faults: Optional[FaultConfig] = None,
    ) -> None:
        super().__init__(sim, config, timing, channel_id, stats)
        self.links = FbdimmLinks(config, channel_id)
        self.ambs = [
            Amb(config, timing, channel_id, d) for d in range(config.dimms_per_channel)
        ]
        self.units = self.ambs
        self._start_refresh()
        self.prefetch = config.prefetch
        self._pf_enabled = config.prefetch.enabled
        self._region_lines = config.prefetch.region_cachelines
        #: CRC retry/replay engine (None keeps the exact seed timing path).
        self.faults: Optional[ChannelFaults] = None
        #: Request currently inside _issue — context for the retry tracer
        #: hook, which fires from deep inside the link layer.
        self._issuing: Optional[MemoryRequest] = None
        if faults is not None and faults.enabled:
            self.faults = ChannelFaults(faults, config.frame_ps, channel_id, stats)
            self.faults.on_retry = self._on_fault_retry
            # Degraded mode turns prefetch probes off channel-wide.
            self.faults.on_degraded = self._bump_all
            self.links.faults = self.faults
            for amb in self.ambs:
                amb.faults = self.faults
        # FBD-APFL (Figure 9): hits pay the full DRAM idle latency
        # (tRCD + tCL) but keep the bank idle.
        self.hit_extra_ps = (
            timing.tRCD + timing.tCL if self.prefetch.full_latency_hits else 0
        )
        # Controller-side buffering (PrefetchLocation.CONTROLLER): one tag
        # store per channel at the memory controller, with the same total
        # capacity as this channel's AMB caches would have had.
        self.mc_table: Optional[PrefetchTable] = None
        self.mc_pending: "dict[int, dict[int, int]]" = {}
        self.mc_prefetched_lines = 0
        if (
            self.prefetch.enabled
            and self.prefetch.location is PrefetchLocation.CONTROLLER
        ):
            scaled = dataclasses.replace(
                self.prefetch,
                cache_entries=self.prefetch.cache_entries
                * config.dimms_per_channel,
            )
            self.mc_table = PrefetchTable(scaled)

    def attach_lifecycle(self, lifecycle: "PrefetchLifecycle") -> None:
        """Arm per-prefetch lifecycle tracking on this channel.

        The tracker is shared across channels (one stats object); it hooks
        the controller's completion path, every AMB's fetch/fill path and
        each tag store's eviction path.
        """
        self.lifecycle = lifecycle
        for amb in self.ambs:
            amb.lifecycle = lifecycle
            if amb.table is not None:
                amb.table.lifecycle = lifecycle
        if self.mc_table is not None:
            self.mc_table.lifecycle = lifecycle

    def _prune(self, now: int) -> None:
        # Emptiness guards saved here beat the (very frequent) no-op calls.
        links = self.links
        if links.north._taken:
            links.north.prune_before(now)
        if links.south._frames:
            links.south.prune_before(now)
        for amb in self.ambs:
            bus = amb.data_bus
            if bus._intervals:
                bus.prune_before(now)

    # -- estimates ---------------------------------------------------------

    def _amb_for(self, req: MemoryRequest) -> Amb:
        return self.ambs[req.mapped.dimm]

    def _probe_cache(self, amb: Amb, line_addr: int) -> Optional[int]:
        """Stat-free availability probe used while scheduling."""
        if self.mc_table is not None:
            table, pending_fills = self.mc_table, self.mc_pending
        else:
            table, pending_fills = amb.table, amb.pending_fills
            if table is None:
                return None
        if table.contains(line_addr):
            return 0
        pending = pending_fills.get(line_addr // self._region_lines)
        return None if pending is None else pending.get(line_addr)

    def _prefetch_active(self) -> bool:
        """Prefetching is configured and the channel has not degraded.

        A channel that entered fault-degraded mode stops trusting (and
        stops filling) its prefetch caches: demand reads fall back to the
        plain FB-DIMM path until the end of the run.
        """
        if not self._pf_enabled:
            return False
        faults = self.faults
        return faults is None or not faults.degraded

    def _estimate(self, req: MemoryRequest) -> int:
        mapped = req.mapped
        amb = self.ambs[mapped.dimm]
        # Inlined _prefetch_active(): the AMB-cache (or controller-buffer)
        # availability time is the raw start of a prefetch hit.
        if req.kind is not RequestKind.WRITE and self._pf_enabled and (
            self.faults is None or not self.faults.degraded
        ):
            avail = self._probe_cache(amb, req.line_addr)
            if avail is not None:
                return avail
        bank = amb.banks[mapped.rank * amb._banks_per_dimm + mapped.bank]
        return bank.earliest_start(0, mapped.row, amb.rank_timers[mapped.rank])

    def _is_hit(self, req: MemoryRequest) -> bool:
        mapped = req.mapped
        amb = self.ambs[mapped.dimm]
        if req.kind is not RequestKind.WRITE and self._pf_enabled and (
            self.faults is None or not self.faults.degraded
        ):
            if self._probe_cache(amb, req.line_addr) is not None:
                return True
        return amb.banks[
            mapped.rank * amb._banks_per_dimm + mapped.bank
        ].is_row_hit(mapped.row)

    # -- issue paths ---------------------------------------------------------

    def _on_fault_retry(self, kind: str, time_ps: int, attempt: int) -> None:
        """ChannelFaults.on_retry hook: surface replays to the tracer."""
        if self.tracer is not None and self._issuing is not None:
            self.tracer.on_retry(self._issuing, time_ps)

    def _issue(self, req: MemoryRequest) -> None:
        self._issuing = req
        try:
            if req.kind is RequestKind.WRITE:
                self._issue_write(req)
            elif self._prefetch_active():
                self._issue_read_prefetching(req)
            else:
                self._issue_read_plain(req)
        finally:
            self._issuing = None

    def _issue_write(self, req: MemoryRequest) -> None:
        amb = self._amb_for(req)
        amb.invalidate(req.line_addr)
        if self.mc_table is not None:
            self.mc_table.invalidate(req.line_addr)
            region = req.line_addr // self.prefetch.region_cachelines
            pending = self.mc_pending.get(region)
            if pending is not None:
                pending.pop(req.line_addr, None)
            if self.lifecycle is not None:
                self.lifecycle.on_invalidate(req.line_addr)
        arrival = self.links.send_write_ps(self.sim.now, req.mapped.dimm)
        result = amb.write_line(arrival, req.mapped)
        req.row_hit = result.row_hit
        if self.tracer is not None:
            self.tracer.on_data(req, result.data_starts[0])
        self._finish_at(req, result.data_times[0])

    def _issue_read_plain(self, req: MemoryRequest) -> None:
        amb = self._amb_for(req)
        arrival = self.links.send_command_ps(self.sim.now)
        result = amb.read_line(arrival, req.mapped)
        req.row_hit = result.row_hit
        if self.tracer is not None:
            self.tracer.on_data(req, result.data_starts[0])
        ret = self.links.return_read(result.data_starts[0], req.mapped.dimm)
        self._finish_at(req, ret.critical_at_mc)

    def _issue_read_prefetching(self, req: MemoryRequest) -> None:
        if self.mc_table is not None:
            self._issue_read_mc_prefetching(req)
            return
        amb = self._amb_for(req)
        available = amb.cache_lookup(req.line_addr)
        arrival = self.links.send_command_ps(self.sim.now)
        if available is not None:
            req.amb_hit = True
            # FBD-APFL charges the hit the tRCD + tCL a miss would pay; it
            # is not additive with an in-flight fill's completion time.
            ready = max(arrival + self.hit_extra_ps, available)
            if self.tracer is not None:
                self.tracer.on_data(req, ready)
            ret = self.links.return_read(ready, req.mapped.dimm)
            self._finish_at(req, ret.critical_at_mc)
            return
        group = amb.group_fetch(arrival, req.mapped, req.line_addr)
        if self.tracer is not None:
            self.tracer.on_data(req, group.demanded_start)
        ret = self.links.return_read(group.demanded_start, req.mapped.dimm)
        region = req.line_addr // self.prefetch.region_cachelines
        self.sim.schedule_fire(
            group.last_fill, partial(self._commit_fills, amb, region)
        )
        self._finish_at(req, ret.critical_at_mc)

    def _commit_fills(self, amb: Amb, region: int) -> None:
        amb.commit_fills(region)
        self._bump(amb.dimm_id)

    def _issue_read_mc_prefetching(self, req: MemoryRequest) -> None:
        """PrefetchLocation.CONTROLLER: the whole region crosses the channel.

        Hits are served from the controller buffer with no channel activity
        at all; misses pay K northbound line transfers instead of one -
        exactly the channel-bandwidth cost the paper's AMB placement avoids.
        """
        assert self.mc_table is not None
        region = req.line_addr // self.prefetch.region_cachelines
        if self.mc_table.lookup(req.line_addr):
            req.amb_hit = True
            if self.lifecycle is not None:
                self.lifecycle.on_hit(req.line_addr)
            amb = self._amb_for(req)
            if amb.policy is not None:
                amb.policy.observe_hit(req.line_addr)
            if self.tracer is not None:
                self.tracer.on_data(req, self.sim.now)
            self._finish_at(req, self.sim.now)
            return
        pending = self.mc_pending.get(region)
        if pending is not None and req.line_addr in pending:
            self.mc_table.stats.hits += 1
            req.amb_hit = True
            if self.lifecycle is not None:
                self.lifecycle.on_late(req.line_addr)
            ready = max(self.sim.now, pending[req.line_addr])
            if self.tracer is not None:
                self.tracer.on_data(req, ready)
            self._finish_at(req, ready)
            return

        amb = self._amb_for(req)
        arrival = self.links.send_command_ps(self.sim.now)
        if amb.policy is not None:
            amb.policy.observe_miss(req.line_addr)
        order = amb.group_order(req.line_addr)
        result = amb.group_read(arrival, req.mapped, order)
        if self.tracer is not None:
            self.tracer.on_data(req, result.data_starts[0])
        fills: "dict[int, int]" = {}
        demanded_finish = 0
        for line, start in zip(order, result.data_starts):
            ret = self.links.return_read(start, req.mapped.dimm)
            if line == req.line_addr:
                demanded_finish = ret.critical_at_mc
            else:
                fills[line] = ret.full_at_mc
                self.stats.bytes_read += self.config.cacheline_bytes
        self.mc_prefetched_lines += len(fills)
        if fills:
            self.mc_pending[region] = fills
            # The buffer is channel-wide and the region's lines need not
            # map to this request's DIMM.
            self._bump_all()
            if self.lifecycle is not None:
                self.lifecycle.on_issue(fills)
            last_fill = max(fills.values())

            def commit(r: int = region) -> None:
                done = self.mc_pending.pop(r, None)
                if done:
                    if self.lifecycle is not None:
                        self.lifecycle.on_fill(done)
                    self.mc_table.insert(done.keys())
                    self._bump_all()  # inserts may evict any DIMM's line

            self.sim.schedule_fire(last_fill, commit)
        self._finish_at(req, demanded_finish)

    def enable_protocol_trace(self) -> None:
        for amb in self.ambs:
            for bank in amb.banks:
                bank.enable_trace()
        self.links.south.enable_journal()
        self.links.north.enable_journal()

    def collect_check_events(self) -> "list":
        from repro.check.trace import CheckEvent

        events = []
        for amb in self.ambs:
            events.extend(self._bank_check_events(amb.dimm_id, amb.banks))
        if self.links.south.journal is not None:
            for kind, start, retry in self.links.south.journal:
                events.append(CheckEvent(
                    time_ps=start,
                    kind="SB_CMD" if kind == "cmd" else "SB_DATA",
                    channel=self.channel_id,
                    retry=retry,
                ))
        if self.links.north.journal is not None:
            for _, start, frames, retry in self.links.north.journal:
                events.append(CheckEvent(
                    time_ps=start, kind="NB_LINE",
                    channel=self.channel_id, frames=frames,
                    retry=retry,
                ))
        events.sort(key=lambda e: e.time_ps)
        return events

    def collect_device_counters(self) -> Dict[str, int]:
        counters = super().collect_device_counters()
        counters["prefetched_lines"] += self.mc_prefetched_lines + sum(
            amb.prefetched_lines for amb in self.ambs
        )
        if self.lifecycle is not None:
            # Tag-store counters fold only under lifecycle observability,
            # keeping default-run stats (and their digests) untouched.
            tables = [amb.table for amb in self.ambs if amb.table is not None]
            if self.mc_table is not None:
                tables.append(self.mc_table)
            _fold(counters, _TABLE_FOLD, [table.stats for table in tables])
        return counters

    def busy_ps(self) -> Dict[str, int]:
        return {
            self.links.north.name: self.links.north.busy_ps,
            self.links.south.name: self.links.south.busy_ps,
        }
