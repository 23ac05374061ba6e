"""Link reservation: message scheduling on the interconnect.

The paper's bus is time-multiplexed with a cost of one time unit per data
item, and communication proceeds concurrently with computation. We model
each link (the single bus, or per-pair/per-hop links of other topologies)
as an exclusive timeline of reservations. A transfer over a multi-hop route
reserves each link in turn (store-and-forward).

The :class:`LinkTimelines` object supports *probing* (what would the
arrival time be?) separately from *committing* (actually reserve), which
the list scheduler uses to evaluate candidate processors without side
effects. Probing and committing use first-fit gap search, i.e. earliest-
available-slot — messages are served in the order consumers are scheduled,
which for the deadline-driven list scheduler means deadline order, the
deadline-based message scheduling the paper's run-time model calls for.

Route table
    :meth:`LinkTimelines.route` resolves each ``(src, dst)`` processor
    pair once, lazily, to a tuple of :class:`LinkTimeline` objects (each
    carrying its link name), so probes and commits do not re-route, re-check
    processor ids or look links up by name. The first resolution of a pair
    goes through :meth:`Interconnect.route`, so out-of-range ids still raise
    :class:`~repro.errors.ValidationError`. :meth:`LinkTimelines.fanout`
    groups one source's destinations by route; the list scheduler keys its
    per-placement probe memo on that grouping. ``Interconnect.route``
    itself stays uncached: the independent checkers in :mod:`repro.qa`
    replay schedules through it and must not share the table they check.

Monotone-finish invariant
    A :class:`LinkTimeline` keeps its reservations sorted by ``(start,
    finish)`` and a parallel list of their finishes. While the finishes are
    nondecreasing and every reservation lasts at least ``EPS``, the gap
    search may start at ``bisect_right(finishes, ready)``: every skipped
    reservation ends by ``ready``, so it cannot raise the candidate start,
    and it starts at least ``EPS`` before its finish, so the scan's
    early-return test (``t + duration <= start + EPS``) cannot fire on it
    once ``ready + duration > ready`` holds in floating point. Reservations
    may overlap by less than ``EPS``, which is what lets a sub-``EPS``
    reservation (or a directly reserved interval) break the order; the
    first such reservation clears the flag and the timeline falls back to
    the full scan from then on. Queries with ``duration < EPS``, or whose
    duration vanishes next to ``ready``, always use the full scan.
    ``reserve`` keeps its full overlap check.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import islice
from typing import Dict, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.machine.topology import Interconnect
from repro.sched.schedule import HopReservation
from repro.types import ProcessorId, Time

#: Numerical slack for float comparisons.
EPS = 1e-9


class LinkTimeline:
    """Reservations on one exclusive link, kept sorted by start time."""

    __slots__ = ("link", "_busy", "_finishes", "_monotone")

    def __init__(self, link: Optional[str] = None) -> None:
        #: Name of the link (``None`` for a free-standing timeline).
        self.link = link
        self._busy: List[Tuple[Time, Time]] = []
        #: ``_busy``'s finishes, in the same order.
        self._finishes: List[Time] = []
        #: Whether ``_finishes`` is nondecreasing and every reservation
        #: lasts at least ``EPS`` (module docstring: the bisect start).
        self._monotone = True

    def earliest_slot(self, ready: Time, duration: Time) -> Time:
        """Earliest start >= ready of a free interval of ``duration``."""
        if duration <= 0:
            return ready
        busy = self._busy
        if self._monotone and duration >= EPS and ready + duration > ready:
            first = bisect_right(self._finishes, ready)
            if first:
                busy = islice(busy, first, None)
        t = ready
        for start, finish in busy:
            if t + duration <= start + EPS:
                return t
            if finish > t:
                t = finish
        return t

    def reserve(self, start: Time, duration: Time) -> None:
        """Commit a reservation; it must not overlap existing ones."""
        if duration <= 0:
            return
        finish = start + duration
        for s, f in self._busy:
            if start < f - EPS and s < finish - EPS:
                raise SchedulingError(
                    f"link reservation [{start}, {finish}) overlaps [{s}, {f})"
                )
        at = bisect_right(self._busy, (start, finish))
        self._busy.insert(at, (start, finish))
        finishes = self._finishes
        finishes.insert(at, finish)
        if self._monotone and (
            duration < EPS
            or (at > 0 and finishes[at - 1] > finish)
            or (at + 1 < len(finishes) and finishes[at + 1] < finish)
        ):
            self._monotone = False

    def reservations(self) -> List[Tuple[Time, Time]]:
        return list(self._busy)

    def busy_time(self) -> Time:
        return sum(f - s for s, f in self._busy)


#: A resolved route: the timelines a transfer crosses, in hop order.
Route = Tuple[LinkTimeline, ...]


class LinkTimelines:
    """All link timelines of one interconnect, plus the route table."""

    def __init__(self, interconnect: Interconnect) -> None:
        self.interconnect = interconnect
        self._contended = interconnect.contended
        self._links: Dict[str, LinkTimeline] = {}
        self._routes: Dict[Tuple[ProcessorId, ProcessorId], Route] = {}
        self._fanouts: Dict[ProcessorId, Tuple[List[Route], List[int]]] = {}

    def route(self, src: ProcessorId, dst: ProcessorId) -> Route:
        """The timelines of the ``src`` → ``dst`` route (empty if equal),
        resolved through the interconnect on first use."""
        route = self._routes.get((src, dst))
        if route is None:
            route = tuple(
                self._timeline(link)
                for link in self.interconnect.route(src, dst)
            )
            self._routes[src, dst] = route
        return route

    def fanout(self, src: ProcessorId) -> Tuple[List[Route], List[int]]:
        """The routes out of ``src``, grouped: the distinct routes (the
        empty route to ``src`` itself first) and, per destination
        processor, the position of its route in that list. On the shared
        bus every remote destination shares one route."""
        fanout = self._fanouts.get(src)
        if fanout is None:
            routes: List[Route] = [()]
            position = {(): 0}
            route_index: List[int] = []
            for dst in range(self.interconnect.n_processors):
                route = self.route(src, dst)
                if route not in position:
                    position[route] = len(routes)
                    routes.append(route)
                route_index.append(position[route])
            fanout = self._fanouts[src] = (routes, route_index)
        return fanout

    def _timeline(self, link: str) -> LinkTimeline:
        if not self._contended:
            # Infinite capacity: the timeline only names the hop.
            return LinkTimeline(link)
        timeline = self._links.get(link)
        if timeline is None:
            timeline = LinkTimeline(link)
            self._links[link] = timeline
        return timeline

    def probe_route(self, route: Route, hop: Time, ready: Time) -> Time:
        """Arrival time over ``route`` of a transfer whose hops each take
        ``hop``, departing no earlier than ``ready``, without reserving
        anything."""
        if not route:
            return ready
        if not self._contended:
            return ready + hop * len(route)
        t = ready
        for timeline in route:
            t = timeline.earliest_slot(t, hop) + hop
        return t

    def probe_transfer(
        self, src_proc: int, dst_proc: int, size: Time, ready: Time
    ) -> Time:
        """Arrival time of a transfer departing no earlier than ``ready``,
        without reserving anything."""
        route = self.route(src_proc, dst_proc)
        if size <= 0:
            return ready
        return self.probe_route(route, self.interconnect.hop_cost(size), ready)

    def commit_transfer(
        self, src_proc: int, dst_proc: int, size: Time, ready: Time
    ) -> List[HopReservation]:
        """Reserve a transfer hop by hop; returns the hop reservations."""
        route = self.route(src_proc, dst_proc)
        if not route or size <= 0:
            return []
        hop = self.interconnect.hop_cost(size)
        reservations: List[HopReservation] = []
        t = ready
        for timeline in route:
            if self._contended:
                start = timeline.earliest_slot(t, hop)
                timeline.reserve(start, hop)
            else:
                start = t
            reservations.append(
                HopReservation(link=timeline.link, start=start, finish=start + hop)
            )
            t = start + hop
        return reservations

    def busy_time(self) -> Dict[str, Time]:
        """Total reserved time per routed link (diagnostics)."""
        return {link: tl.busy_time() for link, tl in self._links.items()}
