"""Request reordering policy: hit-first with read priority.

The simulated controller follows the paper's policy (Section 4.1): pending
row-buffer hits are scheduled before row-buffer misses (hit-first, after
Rixner et al.), and reads are scheduled before writes unless the number of
outstanding writes exceeds a threshold — with hysteresis, so the write
drain empties half the queue before reads regain priority.

Under close-page mode there are no row hits, so hit-first degrades to
earliest-bank-ready-first, which reorders around bank conflicts the same
way (FR-FCFS without the row-hit term).
"""

from __future__ import annotations

from typing import Callable, Deque, Optional, Tuple

from repro.controller.transaction import MemoryRequest

#: How deep into each queue the scheduler looks.  Real controllers have a
#: bounded associative search; 16 keeps the model O(1)-ish per decision.
SCAN_WINDOW = 16


class HitFirstScheduler:
    """Chooses the next request from a channel's read and write queues.

    ``select`` caches each probe in the request (``probe_start``,
    ``probe_hit``) under ``epochs[req.unit]``, so a candidate is probed
    again only after its unit's epoch moved.  The owner bumps an epoch
    whenever state the probes read changes (``units`` is the number of
    independent probe units — DIMMs or AMBs — on the channel); a bare
    scheduler has one unit.  The cached start is the *raw* earliest start:
    every probe is ``max(now, raw)`` for a fixed unit state, so clamping at
    scan time keeps the cache exact as time advances.
    """

    def __init__(self, write_drain_threshold: int, units: int = 1) -> None:
        self.write_drain_threshold = max(1, write_drain_threshold)
        self._draining_writes = False
        #: Probe epoch of each unit; a cache entry tagged with the current
        #: value is fresh.
        self.epochs = [0] * units
        #: After a select that found nothing ready: the earliest start
        #: among the candidates it scanned.  Until then none can become
        #: ready, so the same queues in the same state give the same pick.
        self.horizon = 0

    def _writes_win(self, reads: Deque[MemoryRequest], writes: Deque[MemoryRequest]) -> bool:
        # Idempotent at fixed queue lengths (threshold // 2 < threshold),
        # which is what lets a caller reuse a pick without calling select.
        if not writes:
            self._draining_writes = False
            return False
        if not reads:
            return True
        if self._draining_writes:
            if len(writes) <= self.write_drain_threshold // 2:
                self._draining_writes = False
        elif len(writes) >= self.write_drain_threshold:
            self._draining_writes = True
        return self._draining_writes

    def select(
        self,
        now: int,
        reads: Deque[MemoryRequest],
        writes: Deque[MemoryRequest],
        estimate: Callable[[MemoryRequest], int],
        row_hit: Callable[[MemoryRequest], bool],
    ) -> Optional[Tuple[MemoryRequest, int, bool]]:
        """Pick the best issueable request.

        Args:
            now: Current time.
            reads, writes: Per-kind FIFO queues (oldest first).
            estimate: Raw earliest time the request's commands could begin
                (the scan clamps it to ``now`` and ``schedulable_at``).
            row_hit: Whether the request would hit the open row (or the
                AMB cache, which the FB-DIMM controller treats as the
                ultimate "hit").

        Both probes run only for candidates whose cache entry is stale.

        Returns:
            (request, earliest_start, is_write_queue) for the winner, or
            None when both queues are empty.
        """
        if not reads and not writes:
            return None
        prefer_writes = self._writes_win(reads, writes)

        # Issueable-now requests always beat future-ready ones (a request
        # whose bank or fill frees later must not block the channel); among
        # the issueable, the preferred kind wins, then hits beat misses,
        # then oldest-first.  A ready request of the non-preferred kind
        # still issues when the preferred queue has nothing ready — this is
        # what lets FB-DIMM reads flow on the northbound link while a write
        # drain streams down the independent southbound link.
        #
        # That ranking — lexicographic over (ready, preferred, row-hit,
        # earliest-start, queue position) — lets the scan short-circuit:
        # every ready candidate has earliest-start == now exactly, so the
        # first ready row-hit in the preferred queue is globally optimal,
        # a ready preferred miss beats the whole other queue, and the
        # non-preferred queue's future candidates only matter when the
        # preferred queue is empty.  estimate/row_hit are side-effect-free
        # probes, so evaluating fewer of them (or reusing a fresh cached
        # answer) cannot change the outcome.
        if prefer_writes:
            first, first_is_write = writes, True
            second, second_is_write = reads, False
        else:
            first, first_is_write = reads, False
            second, second_is_write = writes, True

        epochs = self.epochs
        ready_req: Optional[MemoryRequest] = None
        futures: Optional[list] = None
        for position, req in enumerate(first):
            if position >= SCAN_WINDOW:
                break
            epoch = epochs[req.unit]
            if req.probe_epoch != epoch:
                start = estimate(req)
                if req.schedulable_at > start:
                    start = req.schedulable_at
                req.probe_start = start
                req.probe_hit = row_hit(req)
                req.probe_epoch = epoch
            else:
                start = req.probe_start
            if start <= now:
                if req.probe_hit:
                    return req, now, first_is_write
                if ready_req is None:
                    ready_req = req
            elif ready_req is None:
                if futures is None:
                    futures = []
                futures.append((start, position, req))
        if ready_req is not None:
            return ready_req, now, first_is_write

        ready2: Optional[MemoryRequest] = None
        futures2: Optional[list] = None
        for position, req in enumerate(second):
            if position >= SCAN_WINDOW:
                break
            epoch = epochs[req.unit]
            if req.probe_epoch != epoch:
                start = estimate(req)
                if req.schedulable_at > start:
                    start = req.schedulable_at
                req.probe_start = start
                req.probe_hit = row_hit(req)
                req.probe_epoch = epoch
            else:
                start = req.probe_start
            if start <= now:
                if req.probe_hit:
                    return req, now, second_is_write
                if ready2 is None:
                    ready2 = req
            elif ready2 is None:
                if futures2 is None:
                    futures2 = []
                futures2.append((start, position, req))
        if ready2 is not None:
            return ready2, now, second_is_write

        # Nothing scanned is ready: rank (row-hit, earliest start, queue
        # position).  (start, position) pairs are unique within a queue, so
        # min() over the entries never compares requests.
        if futures is not None:
            pool, pool_is_write = futures, first_is_write
        else:
            assert futures2 is not None
            pool, pool_is_write = futures2, second_is_write
        soonest = min(pool)
        horizon = soonest[0]
        if futures2 is not None and pool is futures:
            horizon = min(horizon, min(futures2)[0])
        self.horizon = horizon
        best = None
        for entry in pool:
            if entry[2].probe_hit and (best is None or entry < best):
                best = entry
        best_start, _, req = soonest if best is None else best
        return req, best_start, pool_is_write
