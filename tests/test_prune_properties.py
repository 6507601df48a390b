"""Pruning semantics of the bus and link reservation books.

The channel controllers prune expired reservations lazily — only before
the first issue at a tick — instead of at every kick.  That is exact
because nothing reserves between kicks and pruning composes: pruning at
``t1`` and then at ``t2 >= t1`` leaves the same book as pruning at ``t2``
alone.  These properties pin that composition for every book the
controllers prune.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.frames import NorthboundLink, SouthboundLink
from repro.dram.resources import BusResource, TaggedBusResource

FRAME_PS = 6000

_times = st.integers(min_value=0, max_value=200_000)
_bookings = st.lists(
    st.tuples(_times, st.integers(min_value=1, max_value=9000),
              st.sampled_from(["r0", "r1", "w0", "w1"])),
    max_size=25,
)
_prune_pair = st.tuples(_times, _times).map(sorted)


def _composes(book, prune_times, state):
    t1, t2 = prune_times
    twice, once = copy.deepcopy(book), copy.deepcopy(book)
    twice.prune_before(t1)
    twice.prune_before(t2)
    once.prune_before(t2)
    assert state(twice) == state(once)
    return twice, once


@settings(max_examples=200, deadline=None)
@given(bookings=_bookings, prune_times=_prune_pair,
       probe=st.tuples(_times, st.integers(min_value=1, max_value=9000)))
def test_bus_resource_prune_composes(bookings, prune_times, probe):
    bus = BusResource("b")
    for earliest, duration, _ in bookings:
        bus.reserve(earliest, duration)
    twice, once = _composes(bus, prune_times, lambda b: b._intervals)
    earliest = max(probe[0], prune_times[1])
    assert twice.probe(earliest, probe[1]) == once.probe(earliest, probe[1])


@settings(max_examples=200, deadline=None)
@given(bookings=_bookings, prune_times=_prune_pair,
       gap=st.integers(min_value=0, max_value=4000),
       probe=st.tuples(_times, st.integers(min_value=1, max_value=9000),
                       st.sampled_from(["r0", "w0", "x"])))
def test_tagged_bus_prune_composes(bookings, prune_times, gap, probe):
    bus = TaggedBusResource("d", switch_gap_ps=gap)
    for earliest, duration, tag in bookings:
        bus.reserve(earliest, duration, tag)
    twice, once = _composes(bus, prune_times, lambda b: b._intervals)
    earliest = max(probe[0], prune_times[1])
    assert (twice.probe(earliest, probe[1], probe[2])
            == once.probe(earliest, probe[1], probe[2]))


@settings(max_examples=200, deadline=None)
@given(bookings=_bookings, prune_times=_prune_pair)
def test_southbound_prune_composes(bookings, prune_times):
    link = SouthboundLink("s", FRAME_PS)
    for earliest, duration, tag in bookings:
        if tag.startswith("w"):
            link.reserve_write_data(earliest, 1 + duration % 4)
        else:
            link.reserve_command(earliest)
    twice, once = _composes(link, prune_times, lambda b: b._frames)
    earliest = prune_times[1]
    assert twice.reserve_command(earliest) == once.reserve_command(earliest)
    assert (twice.reserve_write_data(earliest, 4)
            == once.reserve_write_data(earliest, 4))


@settings(max_examples=200, deadline=None)
@given(bookings=_bookings, prune_times=_prune_pair,
       phase=st.integers(min_value=0, max_value=FRAME_PS - 1))
def test_northbound_prune_composes(bookings, prune_times, phase):
    link = NorthboundLink("n", FRAME_PS, phase_ps=phase)
    for earliest, duration, _ in bookings:
        link.reserve_line(earliest, 1 + duration % 3)
    twice, once = _composes(link, prune_times, lambda b: b._taken)
    earliest = prune_times[1]
    assert twice.reserve_line(earliest, 2) == once.reserve_line(earliest, 2)


@pytest.mark.xfail(strict=True, reason="TaggedBusResource.prune_before drops "
                   "an expired reservation whose switch gap is still live")
def test_tagged_prune_keeps_live_switch_gap():
    """Known defect: pruning forgets a switch gap that extends past now.

    ``prune_before(t)`` keeps only reservations ending after ``t`` (or the
    last one), so an expired reservation whose trailing switch gap still
    reaches past ``t`` is dropped and a later probe may start inside that
    gap.  Fixing it moves DDR2 data-bus timing and so changes the DDR2
    conformance digests; it is left to a change of its own, and this test
    turns into a pass (failing ``strict``) when that lands.
    """
    bus = TaggedBusResource("d", switch_gap_ps=5)
    bus.reserve(0, 10, "r")
    bus.reserve(50, 10, "w")
    assert bus.probe(12, 5, "w2") == 15
    bus.prune_before(12)
    assert bus.probe(12, 5, "w2") == 15
