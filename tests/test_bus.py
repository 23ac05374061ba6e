"""Link timelines: slot search, reservation, probe vs commit."""

from bisect import insort

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError, ValidationError
from repro.machine.topology import (
    TOPOLOGIES,
    IdealNetwork,
    Ring,
    SharedBus,
    make_interconnect,
)
from repro.sched.bus import EPS, LinkTimeline, LinkTimelines


class TestLinkTimeline:
    def test_empty_timeline_starts_at_ready(self):
        assert LinkTimeline().earliest_slot(5.0, 3.0) == 5.0

    def test_slot_after_busy_interval(self):
        tl = LinkTimeline()
        tl.reserve(0.0, 10.0)
        assert tl.earliest_slot(0.0, 3.0) == 10.0

    def test_gap_between_reservations_used(self):
        tl = LinkTimeline()
        tl.reserve(0.0, 5.0)
        tl.reserve(10.0, 5.0)
        assert tl.earliest_slot(0.0, 4.0) == 5.0
        assert tl.earliest_slot(0.0, 6.0) == 15.0  # gap too small

    def test_ready_inside_busy_interval(self):
        tl = LinkTimeline()
        tl.reserve(0.0, 10.0)
        assert tl.earliest_slot(4.0, 2.0) == 10.0

    def test_ready_inside_gap(self):
        tl = LinkTimeline()
        tl.reserve(0.0, 5.0)
        tl.reserve(20.0, 5.0)
        assert tl.earliest_slot(7.0, 3.0) == 7.0

    def test_overlapping_reserve_rejected(self):
        tl = LinkTimeline()
        tl.reserve(0.0, 10.0)
        with pytest.raises(SchedulingError):
            tl.reserve(5.0, 3.0)

    def test_adjacent_reservations_ok(self):
        tl = LinkTimeline()
        tl.reserve(0.0, 10.0)
        tl.reserve(10.0, 5.0)  # touching is fine
        assert tl.busy_time() == 15.0

    def test_zero_duration_noop(self):
        tl = LinkTimeline()
        tl.reserve(3.0, 0.0)
        assert tl.reservations() == []
        assert tl.earliest_slot(3.0, 0.0) == 3.0


class TestLinkTimelinesOnBus:
    def test_probe_does_not_reserve(self):
        links = LinkTimelines(SharedBus(4))
        a = links.probe_transfer(0, 1, 5.0, 0.0)
        b = links.probe_transfer(0, 1, 5.0, 0.0)
        assert a == b == 5.0

    def test_commit_serializes(self):
        links = LinkTimelines(SharedBus(4))
        first = links.commit_transfer(0, 1, 5.0, 0.0)
        second = links.commit_transfer(2, 3, 5.0, 0.0)
        assert first[0].start == 0.0 and first[0].finish == 5.0
        assert second[0].start == 5.0 and second[0].finish == 10.0

    def test_same_processor_free(self):
        links = LinkTimelines(SharedBus(4))
        assert links.probe_transfer(1, 1, 99.0, 7.0) == 7.0
        assert links.commit_transfer(1, 1, 99.0, 7.0) == []

    def test_zero_size_free(self):
        links = LinkTimelines(SharedBus(4))
        assert links.commit_transfer(0, 1, 0.0, 7.0) == []

    def test_busy_time_accounting(self):
        links = LinkTimelines(SharedBus(4))
        links.commit_transfer(0, 1, 5.0, 0.0)
        links.commit_transfer(1, 2, 3.0, 0.0)
        assert links.busy_time() == {"bus": 8.0}


class TestMultiHop:
    def test_store_and_forward_on_ring(self):
        links = LinkTimelines(Ring(6))
        hops = links.commit_transfer(0, 2, 4.0, 0.0)
        assert [h.link for h in hops] == ["ring(0,1)", "ring(1,2)"]
        assert hops[0].start == 0.0 and hops[0].finish == 4.0
        assert hops[1].start == 4.0 and hops[1].finish == 8.0

    def test_gap_before_shared_hop_reservation_used(self):
        links = LinkTimelines(Ring(6))
        links.commit_transfer(0, 2, 4.0, 0.0)  # ring(0,1)@[0,4], ring(1,2)@[4,8]
        hops = links.commit_transfer(1, 2, 4.0, 0.0)
        # The direct transfer fits in the idle window before the relayed hop.
        assert hops[0].link == "ring(1,2)"
        assert hops[0].start == 0.0

    def test_second_transfer_waits_for_shared_hop(self):
        links = LinkTimelines(Ring(6))
        links.commit_transfer(0, 2, 4.0, 0.0)  # ring(1,2) busy over [4,8]
        hops = links.commit_transfer(1, 2, 4.0, 2.0)
        # Ready at 2, the remaining gap [2,4) is too small: wait until 8.
        assert hops[0].start == 8.0

    def test_probe_matches_commit_when_uncontested(self):
        links = LinkTimelines(Ring(6))
        probed = links.probe_transfer(0, 3, 2.0, 1.0)
        hops = links.commit_transfer(0, 3, 2.0, 1.0)
        assert probed == hops[-1].finish == 7.0


class TestIdeal:
    def test_no_contention(self):
        links = LinkTimelines(IdealNetwork(4))
        a = links.commit_transfer(0, 1, 5.0, 0.0)
        b = links.commit_transfer(2, 1, 5.0, 0.0)
        assert a[0].start == b[0].start == 0.0
        assert links.probe_transfer(0, 1, 5.0, 10.0) == 15.0


# ----------------------------------------------------------------------
# Gap-search equivalence: the bisect-started search against a reference
# linear scan from the first reservation.
# ----------------------------------------------------------------------
def _reference_slot(busy, ready, duration):
    """First-fit gap search scanning every reservation."""
    if duration <= 0:
        return ready
    t = ready
    for start, finish in busy:
        if t + duration <= start + EPS:
            return t
        if finish > t:
            t = finish
    return t


def _reference_overlaps(busy, start, duration):
    finish = start + duration
    return any(start < f - EPS and s < finish - EPS for s, f in busy)


class _ReferenceLinks:
    """LinkTimelines rebuilt from ``Interconnect.route`` and the scan."""

    def __init__(self, interconnect):
        self.interconnect = interconnect
        self.busy = {}

    def probe(self, src, dst, size, ready):
        route = self.interconnect.route(src, dst)
        if not route or size <= 0:
            return ready
        hop = self.interconnect.hop_cost(size)
        if not self.interconnect.contended:
            return ready + hop * len(route)
        t = ready
        for link in route:
            t = _reference_slot(self.busy.get(link, []), t, hop) + hop
        return t

    def commit(self, src, dst, size, ready):
        route = self.interconnect.route(src, dst)
        if not route or size <= 0:
            return []
        hop = self.interconnect.hop_cost(size)
        hops = []
        t = ready
        for link in route:
            if self.interconnect.contended:
                busy = self.busy.setdefault(link, [])
                start = _reference_slot(busy, t, hop)
                insort(busy, (start, start + hop))
            else:
                start = t
            hops.append((link, start, start + hop))
            t = start + hop
        return hops


#: Durations mixing zero, sub-EPS, exactly-EPS, 1e-3 and unit scales.
_durations = st.one_of(
    st.just(0.0),
    st.sampled_from([1e-10, 3e-10, 5e-10, EPS, 2e-9, 1e-3, 2e-3]),
    st.floats(min_value=1e-11, max_value=5e-9),
    st.floats(min_value=0.1, max_value=8.0),
)
_readies = st.one_of(
    st.sampled_from([0.0, 1e-3, 2e-3, 1.0, 4.0]),
    st.floats(min_value=0.0, max_value=20.0),
)


def _near(data, timeline_busy):
    """A time at, or a hair beside, an existing reservation boundary, so
    touching (finish == start) and sub-EPS overlaps are drawn often."""
    if not timeline_busy:
        return data.draw(_readies)
    start, finish = data.draw(st.sampled_from(timeline_busy))
    base = data.draw(st.sampled_from([start, finish]))
    return max(0.0, base + data.draw(
        st.sampled_from([0.0, 0.0, -5e-10, 2e-10, 1e-9, -1e-3]))
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_earliest_slot_matches_linear_scan(data):
    timeline = LinkTimeline()
    reference = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=25))):
        ready = (_near(data, reference) if data.draw(st.booleans())
                 else data.draw(_readies))
        duration = data.draw(_durations)
        expected = _reference_slot(reference, ready, duration)
        assert timeline.earliest_slot(ready, duration) == expected
        action = data.draw(st.sampled_from(["commit", "query", "direct"]))
        if action == "commit":
            timeline.reserve(expected, duration)
            if duration > 0:
                insort(reference, (expected, expected + duration))
        elif action == "direct":
            start = _near(data, reference)
            if duration <= 0:
                timeline.reserve(start, duration)  # a no-op
            elif _reference_overlaps(reference, start, duration):
                with pytest.raises(SchedulingError):
                    timeline.reserve(start, duration)
            else:
                timeline.reserve(start, duration)
                insort(reference, (start, start + duration))
        assert timeline.reservations() == reference
    # Every query shape against the final reservation set.
    for start, finish in reference:
        for ready in (start, finish, finish - 5e-10, finish + 2e-10):
            for duration in (1e-10, EPS, 1e-3, 1.0):
                assert timeline.earliest_slot(ready, duration) == (
                    _reference_slot(reference, ready, duration)
                )


@settings(max_examples=100, deadline=None)
@given(
    topology=st.sampled_from(sorted(TOPOLOGIES)),
    n_processors=st.integers(min_value=1, max_value=7),
    cost_per_item=st.sampled_from([0.0, 0.5, 1.0]),
    data=st.data(),
)
def test_probe_and_commit_match_reference(topology, n_processors,
                                          cost_per_item, data):
    interconnect = make_interconnect(topology, n_processors,
                                     cost_per_item=cost_per_item)
    links = LinkTimelines(interconnect)
    reference = _ReferenceLinks(interconnect)
    procs = st.integers(min_value=0, max_value=n_processors - 1)
    for _ in range(data.draw(st.integers(min_value=1, max_value=30))):
        src, dst = data.draw(procs), data.draw(procs)
        size = data.draw(_durations)
        ready = data.draw(_readies)
        assert links.probe_transfer(src, dst, size, ready) == (
            reference.probe(src, dst, size, ready)
        )
        if data.draw(st.booleans()):
            hops = links.commit_transfer(src, dst, size, ready)
            assert [(h.link, h.start, h.finish) for h in hops] == (
                reference.commit(src, dst, size, ready)
            )


class TestSubEpsRegression:
    """1e-3 transfers beside sub-EPS ones on the bus: a gap search that
    started at the first reservation finishing after ``ready`` would skip
    a reservation whose early-fit test still fires, and answer 0.0010000005
    here instead of the full scan's 0.0010000006."""

    COMMITS = (
        (0.002000001, 1e-3),
        (0.0020000003, 1e-3),
        (0.0020000003, 2e-10),
        (0.0020000005, 1e-9),
        (0.0010000001, 5e-10),
        (0.0010000003, 2e-10),
    )

    def _bus(self):
        links = LinkTimelines(SharedBus(2))
        for ready, size in self.COMMITS:
            links.commit_transfer(0, 1, size, ready)
        return links

    def test_probe_matches_full_scan(self):
        links = self._bus()
        assert links.probe_transfer(0, 1, 1e-9, 0.0010000005) == (
            0.0010000006 + 1e-9
        )
        timeline = links.route(0, 1)[0]
        assert timeline.earliest_slot(0.0010000005, 1e-9) == 0.0010000006
        assert timeline.earliest_slot(0.0010000005, 1e-9) == _reference_slot(
            timeline.reservations(), 0.0010000005, 1e-9
        )

    def test_every_query_matches_full_scan(self):
        timeline = self._bus().route(1, 0)[0]
        busy = timeline.reservations()
        for ready in sorted({t for se in busy for t in se}):
            for duration in (1e-10, 5e-10, EPS, 1e-3):
                assert timeline.earliest_slot(ready, duration) == (
                    _reference_slot(busy, ready, duration)
                )


def test_route_table_rejects_out_of_range_processors():
    links = LinkTimelines(SharedBus(3))
    with pytest.raises(ValidationError):
        links.probe_transfer(0, 3, 1.0, 0.0)
    with pytest.raises(ValidationError):
        links.commit_transfer(-1, 0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        links.probe_transfer(0, 5, 0.0, 0.0)


def test_route_table_resolves_each_pair_once():
    calls = []

    class CountingBus(SharedBus):
        def route(self, src, dst):
            calls.append((src, dst))
            return super().route(src, dst)

    links = LinkTimelines(CountingBus(4))
    for _ in range(3):
        links.probe_transfer(0, 1, 2.0, 0.0)
        links.commit_transfer(0, 1, 2.0, 0.0)
    assert calls == [(0, 1)]
    assert links.route(0, 1) == links.route(2, 3)
    assert links.route(0, 1)[0] is links.route(3, 2)[0]
