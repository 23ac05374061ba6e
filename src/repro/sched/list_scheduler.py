"""Deadline-driven list scheduling (paper Section 5.3).

The task-assignment algorithm of the evaluation: a deadline-driven variant
of the list scheduler of Lee, Hwang, Chow & Anger. At every step the
scheduler

1. picks, among *schedulable* subtasks (all predecessors scheduled), the one
   with the highest priority — by default the earliest distributed absolute
   deadline (EDF);
2. places it on the processor yielding the earliest start time, taking
   interprocessor message transfers (and their contention on the
   interconnect) into account, under a non-preemptive time-driven run-time
   model. Pinned subtasks (strict locality constraints) only consider their
   pinned processor.

Messages are reserved on the interconnect when their consumer is placed —
i.e. in consumer-priority order, which under EDF realizes deadline-ordered
message scheduling. Candidate processors are ranked by *probed* start times
(no reservations); the chosen processor's transfers are then committed, so
the final schedule is always consistent even when several transfers compete
for the same link.

``respect_release_times=True`` additionally delays every start to the
subtask's distributed release time, turning the distributed windows into a
time-triggered dispatch table. The default (``False``) is the greedy
packing standard in the list-scheduling literature; the distribution then
acts through the priority order and through the lateness measurement.

Priority order
    :meth:`ListScheduler.priority_order` computes every subtask's policy
    key once, up front, and sorts the dense ids by ``(key, node id)``.
    Every registered policy is a pure function of ``(node_id, graph,
    assignment)``, so this equals computing each key when its subtask
    becomes ready. The ready set is a heap of ranks in that order, which
    reproduces the "smallest key, ties on the node id" rule exactly. A
    NaN key raises :class:`~repro.errors.SchedulingError`: it would make
    the order partial, and equal orders must imply equal heap decisions.
    With ``respect_release_times=False`` the order is the only thing the
    schedule reads of the assignment; :func:`repro.feast.runner.run_trial`
    keys its schedule memo on it (DESIGN.md §13).

Placement kernel
    Candidate start times are probed in one pass over the incoming arcs,
    each arc updating every candidate processor. Per arc the probes are
    memoized on the resolved route
    (:meth:`repro.sched.bus.LinkTimelines.route`): the predecessor's
    finish, the message size and the untouched link timelines fix the
    arrival, so on the shared bus the ``n_processors`` remote probes of an
    arc collapse to one gap search, while multi-hop topologies, whose
    routes differ per destination, stay exact. See :mod:`repro.sched.bus`
    for the route table and the bisect-started gap search.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import List, Optional, Sequence, Tuple

from repro.core.annotations import DeadlineAssignment
from repro.core.pinning import validate_pins
from repro.errors import SchedulingError
from repro.graph.taskgraph import TaskGraph
from repro.machine.system import System
from repro.obs import runtime as obs
from repro.sched.bus import LinkTimelines
from repro.sched.policies import EarliestDeadlineFirst, SelectionPolicy
from repro.sched.schedule import Schedule, ScheduledMessage, ScheduledTask
from repro.types import ProcessorId, Time


class ListScheduler:
    """Assign and schedule a deadline-annotated task graph on a system."""

    def __init__(
        self,
        system: System,
        policy: Optional[SelectionPolicy] = None,
        respect_release_times: bool = False,
    ) -> None:
        self.system = system
        self.policy = policy if policy is not None else EarliestDeadlineFirst()
        self.respect_release_times = respect_release_times

    def priority_order(
        self, graph: TaskGraph, assignment: DeadlineAssignment
    ) -> List[int]:
        """Dense node ids sorted by ``(policy key, node id)``.

        The list scheduler always runs the ready subtask that comes first
        in this order. ``assignment`` must cover every subtask of
        ``graph``; a NaN key raises :class:`SchedulingError`.
        """
        validate_pins(graph, self.system.n_processors)
        ids = graph.index().ids
        windows = assignment.windows
        for node_id in ids:
            if node_id not in windows:
                raise SchedulingError(
                    f"deadline assignment misses subtask {node_id!r}; "
                    "run deadline distribution first"
                )
        policy_key = self.policy.key
        keys = [(policy_key(node_id, graph, assignment), node_id)
                for node_id in ids]
        for key, node_id in keys:
            for v in key:
                if v != v:
                    raise SchedulingError(
                        f"policy {self.policy.name} gave subtask "
                        f"{node_id!r} the NaN priority key {key!r}"
                    )
        return sorted(range(len(ids)), key=keys.__getitem__)

    def schedule(
        self,
        graph: TaskGraph,
        assignment: DeadlineAssignment,
        order: Optional[Sequence[int]] = None,
    ) -> Schedule:
        """Produce a complete non-preemptive schedule.

        ``assignment`` must cover every subtask of ``graph`` (it supplies
        the EDF priorities and, optionally, release times). ``order`` is
        :meth:`priority_order` of the same arguments, when the caller
        already has it.
        """
        if order is None:
            order = self.priority_order(graph, assignment)
        index = graph.index()
        schedule = Schedule(graph, self.system)
        links = LinkTimelines(self.system.interconnect)
        proc_available: List[Time] = [0.0] * self.system.n_processors
        # Per dense node id: finish time and processor of placed subtasks
        # (mirrors the Schedule, saving the per-query dict hops in the
        # probe/commit inner loops).
        finish_of: List[Time] = [0.0] * index.n_nodes
        proc_of: List[ProcessorId] = [-1] * index.n_nodes
        pending_preds: List[int] = [
            index.in_degree_of(j) for j in range(index.n_nodes)
        ]
        rank: List[int] = [0] * index.n_nodes
        for r, j in enumerate(order):
            rank[j] = r
        # The ready subtask of smallest rank runs next.
        ready = [rank[j] for j, k in enumerate(pending_preds) if k == 0]
        heapify(ready)

        while ready:
            j = order[heappop(ready)]
            self._place(
                j, graph, index, assignment, schedule, links,
                proc_available, finish_of, proc_of,
            )
            for k in range(index.succ_indptr[j], index.succ_indptr[j + 1]):
                s = index.succ_ids[k]
                pending_preds[s] -= 1
                if pending_preds[s] == 0:
                    heappush(ready, rank[s])

        if len(schedule.tasks) != graph.n_subtasks:
            raise SchedulingError(
                "scheduler finished with unplaced subtasks; "
                "the task graph is corrupt"
            )
        obs.count("list.schedules")
        obs.count("list.tasks_placed", len(schedule.tasks))
        obs.count("list.messages_placed", len(schedule.messages))
        return schedule

    # ------------------------------------------------------------------
    def _place(
        self,
        j: int,
        graph: TaskGraph,
        index,
        assignment: DeadlineAssignment,
        schedule: Schedule,
        links: LinkTimelines,
        proc_available: List[Time],
        finish_of: List[Time],
        proc_of: List[ProcessorId],
    ) -> None:
        ids = index.ids
        node_id = ids[j]
        sub = index.subtasks[j]
        candidates: Sequence[ProcessorId] = (
            (sub.pinned_to,) if sub.is_pinned  # type: ignore[assignment]
            else range(self.system.n_processors)
        )

        floor = (
            assignment.release(node_id) if self.respect_release_times else 0.0
        )
        # Incoming arcs as (pred dense id, message size) pairs, in
        # adjacency order.
        messages = index.edge_messages
        incoming = [
            (index.pred_ids[k], messages[index.pred_edges[k]].size)
            for k in range(index.pred_indptr[j], index.pred_indptr[j + 1])
        ]
        starts = self._probe_starts(
            candidates, incoming, links, proc_available, floor,
            finish_of, proc_of,
        )
        # Earliest start, ties toward the lower processor id.
        proc = candidates[starts.index(min(starts))]

        free = proc_available[proc]
        start = free if free > floor else floor
        for p, size in sorted(incoming, key=lambda it: (finish_of[it[0]], ids[it[0]])):
            finish = finish_of[p]
            pred_proc = proc_of[p]
            if pred_proc == proc or size <= 0:
                if finish > start:
                    start = finish
                continue
            hops = links.commit_transfer(pred_proc, proc, size, finish)
            schedule.place_message(
                ScheduledMessage(
                    src=ids[p],
                    dst=node_id,
                    src_processor=pred_proc,
                    dst_processor=proc,
                    size=size,
                    hops=tuple(hops),
                )
            )
            arrival = hops[-1].finish if hops else finish
            if arrival > start:
                start = arrival

        finish = start + self.system.execution_time(proc, sub.wcet)
        schedule.place_task(
            ScheduledTask(node_id=node_id, processor=proc, start=start, finish=finish)
        )
        proc_available[proc] = finish
        finish_of[j] = finish
        proc_of[j] = proc

    def _probe_starts(
        self,
        candidates: Sequence[ProcessorId],
        incoming: List[Tuple[int, Time]],
        links: LinkTimelines,
        proc_available: List[Time],
        floor: Time,
        finish_of: List[Time],
        proc_of: List[ProcessorId],
    ) -> List[Time]:
        """Estimated earliest start on each candidate, without reserving
        links.

        Transfers are probed independently, which can be optimistic when
        several of this subtask's messages would share a link; the commit
        path serializes them, so the schedule stays consistent either way.
        """
        every_processor = len(candidates) == len(proc_available)
        starts = [
            free if free > floor else floor
            for free in (
                proc_available if every_processor
                else [proc_available[proc] for proc in candidates]
            )
        ]
        hop_cost = links.interconnect.hop_cost
        probe_route = links.probe_route
        for p, size in incoming:
            finish = finish_of[p]
            if size <= 0:
                starts = [finish if finish > s else s for s in starts]
                continue
            hop = hop_cost(size)
            routes, route_index = links.fanout(proc_of[p])
            if every_processor:
                # The probe memo: one gap search per distinct route of
                # this arc (on the bus, one), shared by its destinations.
                probed = [probe_route(route, hop, finish) for route in routes]
                arrivals = [probed[r] for r in route_index]
            else:
                arrivals = [
                    probe_route(routes[route_index[proc]], hop, finish)
                    for proc in candidates
                ]
            starts = [a if a > s else s for s, a in zip(starts, arrivals)]
        return starts
