"""Raw event counters accumulated while the memory system runs.

One :class:`MemSystemStats` instance is shared by every channel controller
of a system; the metrics module turns it into the paper's reported
quantities (average latency, utilised bandwidth, coverage, efficiency,
relative power).  Its :func:`counter` fields are the counter catalogue
(:data:`COUNTERS`) that every other counter surface is derived from.
"""

from __future__ import annotations

from dataclasses import Field, dataclass, field, fields
from typing import Any, ClassVar, Dict, FrozenSet, List, Optional, Tuple, Union

#: Counter sources: ``completion`` counters are fed as requests finish and
#: zeroed by :meth:`MemSystemStats.reset_measurement`; ``device`` counters
#: accumulate in the banks, links, tag stores and controller, are summed
#: over the channels, baseline-subtracted and folded in at finalize.
COMPLETION = "completion"
DEVICE = "device"


def counter(
    help: str, source: str, window: Union[bool, str] = False,
    elide: bool = False,
) -> int:
    """Declare one catalogue counter: an ``int`` field defaulting to 0.

    ``help`` is the metrics-registry help text and ``source`` is
    :data:`COMPLETION` or :data:`DEVICE`.  ``window`` makes the counter a
    per-window delta of the timeline: ``True`` keeps its name as the
    :class:`~repro.timeline.records.WindowRecord` column, a string renames
    it.  ``elide`` drops it from the canonical encoding while zero, so
    results of configurations that cannot produce it keep their digests.
    """
    return field(default=0, metadata={
        "help": help, "source": source, "window": window, "elide": elide,
    })


@dataclass
class MemSystemStats:
    """Counters for one simulated memory subsystem.

    Every scalar counter is declared once, below, with :func:`counter`;
    the measurement reset, the device fold, the timeline columns, the
    metrics registry and the canonical encoding are all derived from
    these declarations (:data:`COUNTERS`).
    """

    demand_reads: int = counter(
        "completed demand reads", COMPLETION, window=True)
    sw_prefetch_reads: int = counter(
        "completed software-prefetch reads", COMPLETION, window=True)
    writes: int = counter("retired writes", COMPLETION, window=True)
    amb_hits: int = counter(
        "reads served from an AMB cache", COMPLETION, window=True)
    prefetched_lines: int = counter(
        "lines written into AMB caches", DEVICE, window=True)
    read_latency_sum_ps: int = counter(
        "latency sum of all reads", COMPLETION)
    demand_latency_sum_ps: int = counter(
        "latency sum of demand reads", COMPLETION, window=True)
    queue_delay_sum_ps: int = counter(
        "schedulable-to-issue delay sum", COMPLETION, window=True)
    bytes_read: int = counter(
        "bytes crossing the channel toward the CPU", COMPLETION, window=True)
    bytes_written: int = counter(
        "write bytes crossing the channel", COMPLETION, window=True)
    activates: int = counter(
        "ACT/PRE pairs at the DRAM devices", DEVICE, window=True)
    column_accesses: int = counter("RD/WR column commands", DEVICE)
    column_reads: int = counter(
        "RD share of the column commands", DEVICE, window=True)
    column_writes: int = counter(
        "WR share of the column commands", DEVICE, window=True)
    refreshes: int = counter(
        "all-bank refreshes at the DRAM devices", DEVICE, window=True)
    row_hits: int = counter("open-page row-buffer hits", DEVICE, window=True)
    row_misses: int = counter(
        "open-page row-buffer misses", DEVICE, window=True)
    faw_stalls: int = counter(
        "ACTs delayed by the tFAW window", DEVICE, elide=True)
    faw_stall_ps: int = counter(
        "total ACT delay from the tFAW window", DEVICE, elide=True)
    # -- idle/power-down residency (fed only when the timeline is on) ----
    idle_ps: int = counter("whole-subsystem idle time", DEVICE, window=True)
    powerdown_ps: int = counter(
        "idle time past the power-down threshold", DEVICE, window=True)
    idle_gaps: int = counter("entries into the all-idle state", DEVICE)
    # -- fault injection (repro.faults; all zero when faults are off) ----
    faults_injected: int = counter(
        "corrupted transfer attempts on the links", COMPLETION)
    faults_corrupted: int = counter(
        "transfers that saw >= 1 corruption", COMPLETION)
    faults_retried_ok: int = counter(
        "corrupted transfers recovered by replay", COMPLETION,
        window="fault_retries")
    faults_dropped: int = counter(
        "transfers that exhausted the retry budget", COMPLETION)
    fault_retry_latency_ps: int = counter(
        "link latency added by replays", COMPLETION)
    fault_degraded_entries: int = counter(
        "channels that entered degraded mode", COMPLETION)
    amb_parity_errors: int = counter(
        "AMB-cache hits voided by parity", COMPLETION)
    # -- prefetch lifecycle taxonomy (repro.prefetch; fed only when
    # AmbPrefetchConfig.lifecycle is on, all zero otherwise) -------------
    pf_issued: int = counter(
        "prefetched-line instances booked by group fetches", COMPLETION,
        window=True, elide=True)
    pf_used: int = counter(
        "prefetch instances hit while resident", COMPLETION,
        window=True, elide=True)
    pf_evicted_unused: int = counter(
        "prefetch instances replaced before any hit", COMPLETION,
        window=True, elide=True)
    pf_late_unused: int = counter(
        "prefetch instances whose demand merged with the in-flight fill",
        COMPLETION, window=True, elide=True)
    pf_invalidated: int = counter(
        "prefetch instances dropped by writes/parity", COMPLETION,
        window=True, elide=True)
    pf_resident_at_end: int = counter(
        "prefetch instances still open at finalize", COMPLETION, elide=True)
    pf_hits: int = counter(
        "completed reads served from a prefetch buffer", COMPLETION,
        elide=True)
    # -- prefetch tag-store counters (same gate; device-side fold) -------
    pf_table_lookups: int = counter(
        "prefetch tag-store probes", DEVICE, elide=True)
    pf_table_hits: int = counter(
        "prefetch tag-store hits incl. fill merges", DEVICE, elide=True)
    pf_table_inserts: int = counter(
        "lines installed into prefetch tag stores", DEVICE, elide=True)
    pf_table_evictions: int = counter(
        "lines replaced out of prefetch tag stores", DEVICE, elide=True)
    pf_table_invalidations: int = counter(
        "tag-store lines dropped by writes/parity", DEVICE, elide=True)
    per_channel_busy_ps: Dict[str, int] = field(default_factory=dict)
    first_activity_ps: int = -1
    last_activity_ps: int = 0
    #: Per-request latency capture for histogram analysis; None (off) by
    #: default because most sweeps only need the sums.
    demand_latency_samples: Optional[List[int]] = None
    #: Per-core demand-read counters:
    #: core id -> [reads, latency_sum_ps, queue_delay_sum_ps].
    #: Shows which program of a mix suffers the queueing (interference).
    per_core_reads: Dict[int, List[int]] = field(default_factory=dict)

    #: Counters elided from the canonical encoding while zero (derived
    #: from the ``elide`` flags below the class).
    ENCODE_OPTIONAL_FIELDS: ClassVar[FrozenSet[str]] = frozenset()

    def enable_latency_capture(self) -> None:
        """Record every demand read's latency (for repro.analysis)."""
        if self.demand_latency_samples is None:
            self.demand_latency_samples = []

    def reset_measurement(self) -> None:
        """Zero all completion-side counters (warm-up discard).

        Device-side counters (activates etc.) accumulate inside the banks
        and are baseline-subtracted by the controller instead.
        """
        for name in COMPLETION_COUNTERS:
            setattr(self, name, 0)
        self.first_activity_ps = -1
        self.last_activity_ps = 0
        if self.demand_latency_samples is not None:
            self.demand_latency_samples = []
        self.per_core_reads = {}

    @property
    def total_reads(self) -> int:
        """Demand reads plus software-prefetch reads."""
        return self.demand_reads + self.sw_prefetch_reads

    def note_activity(self, time_ps: int) -> None:
        """Track the active window for bandwidth computation."""
        if self.first_activity_ps < 0:
            self.first_activity_ps = time_ps
        if time_ps > self.last_activity_ps:
            self.last_activity_ps = time_ps

    @property
    def elapsed_ps(self) -> int:
        """Length of the active window (0 when nothing happened)."""
        if self.first_activity_ps < 0:
            return 0
        return self.last_activity_ps - self.first_activity_ps

    def record_read_completion(
        self, latency_ps: int, queue_delay_ps: int, is_demand: bool, amb_hit: bool,
        line_bytes: int, core_id: int = -1,
    ) -> None:
        """Account one finished read transaction."""
        if is_demand:
            self.demand_reads += 1
            self.demand_latency_sum_ps += latency_ps
            if self.demand_latency_samples is not None:
                self.demand_latency_samples.append(latency_ps)
            if core_id >= 0:
                entry = self.per_core_reads.setdefault(core_id, [0, 0, 0])
                entry[0] += 1
                entry[1] += latency_ps
                entry[2] += queue_delay_ps
        else:
            self.sw_prefetch_reads += 1
        self.read_latency_sum_ps += latency_ps
        self.queue_delay_sum_ps += queue_delay_ps
        self.bytes_read += line_bytes
        if amb_hit:
            self.amb_hits += 1

    def record_write_completion(self, line_bytes: int) -> None:
        """Account one retired write."""
        self.writes += 1
        self.bytes_written += line_bytes


#: The counter catalogue: every :func:`counter` field, in declaration
#: (and metrics-registry) order.
COUNTERS: Tuple["Field[Any]", ...] = tuple(
    f for f in fields(MemSystemStats) if "source" in f.metadata
)
COMPLETION_COUNTERS = tuple(
    f.name for f in COUNTERS if f.metadata["source"] == COMPLETION
)
DEVICE_COUNTERS = tuple(
    f.name for f in COUNTERS if f.metadata["source"] == DEVICE
)
MemSystemStats.ENCODE_OPTIONAL_FIELDS = frozenset(
    f.name for f in COUNTERS if f.metadata["elide"]
)


def _column(f: "Field[Any]") -> str:
    window = f.metadata["window"]
    return f.name if window is True else str(window)


_WINDOWED = tuple(f for f in COUNTERS if f.metadata["window"])
#: (counter, WindowRecord column) of every windowed counter.
WINDOW_COLUMNS = tuple((f.name, _column(f)) for f in _WINDOWED)
#: WindowRecord columns elided from the canonical encoding while zero.
ELIDED_WINDOW_COLUMNS = frozenset(
    _column(f) for f in _WINDOWED if f.metadata["elide"]
)
