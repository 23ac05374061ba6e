"""Periodic task support: hyperperiod unrolling (paper Section 3).

The paper analyses non-periodic tasks and notes that a periodic system can
always be transformed into a non-periodic one over one hyperperiod: every
periodic task is instantiated once per period within ``[0, L)`` where ``L``
is the least common multiple of all periods. This module performs exactly
that transformation, so periodic applications can use the deadline
distribution and scheduling machinery unchanged.

Instance ``k`` of a task gets release ``k × period + release`` on its input
subtasks and absolute deadline ``k × period + deadline`` on its output
subtasks. Inter-task arcs between tasks of *different* periods connect
instance ``k`` of the producer to every consumer instance whose window
starts inside the producer instance's period (rate transition by sampling),
which preserves the paper's "precedence constraints and communication
between subtasks of tasks with different periods".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, Sequence

from repro.errors import ValidationError
from repro.graph.taskgraph import TaskGraph
from repro.types import NodeId, Time


@dataclass
class PeriodicTask:
    """One periodic task: a task graph released every ``period``.

    The embedded ``graph`` carries relative anchors: input subtasks'
    ``release`` values are offsets within the period, and output subtasks'
    ``end_to_end_deadline`` values are relative to the instance release
    (constrained deadline: must not exceed the period).
    """

    name: str
    graph: TaskGraph
    period: Time

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValidationError(f"task {self.name!r}: period must be > 0")
        self.graph.validate()
        for node_id in self.graph.output_subtasks():
            d = self.graph.node(node_id).end_to_end_deadline
            if d is not None and d > self.period:
                raise ValidationError(
                    f"task {self.name!r}: output {node_id!r} deadline {d} "
                    f"exceeds period {self.period} (constrained-deadline model)"
                )


@dataclass
class CrossTaskArc:
    """A precedence/communication arc between subtasks of two periodic tasks."""

    src_task: str
    src_node: NodeId
    dst_task: str
    dst_node: NodeId
    message_size: Time = 0.0


def hyperperiod(periods: Sequence[Time]) -> Time:
    """Least common multiple of (possibly fractional) periods."""
    if not periods:
        raise ValidationError("hyperperiod of an empty period set")
    # lcm of fractions = lcm(numerators) / gcd(denominators)
    fracs = [Fraction(p).limit_denominator(10**9) for p in periods]
    num = fracs[0].numerator
    den = fracs[0].denominator
    for f in fracs[1:]:
        num = num * f.numerator // gcd(num, f.numerator)
        den = gcd(den, f.denominator)
    return float(Fraction(num, den))


def unroll(
    tasks: Sequence[PeriodicTask],
    arcs: Sequence[CrossTaskArc] = (),
    name: str = "hyperperiod",
) -> TaskGraph:
    """Unroll a periodic task set into one non-periodic task graph.

    Returns a graph whose node ids are ``"{task}#{instance}:{node}"``.
    """
    if not tasks:
        raise ValidationError("cannot unroll an empty task set")
    names = [t.name for t in tasks]
    if len(set(names)) != len(names):
        raise ValidationError("periodic task names must be unique")
    by_name = {t.name: t for t in tasks}
    length = hyperperiod([t.period for t in tasks])
    out = TaskGraph(name=name)

    instances: Dict[str, int] = {}
    for task in tasks:
        count = int(round(length / task.period))
        instances[task.name] = count
        for k in range(count):
            offset = k * task.period
            for sub in task.graph.nodes():
                release = (
                    offset + sub.release
                    if sub.release is not None and not task.graph.predecessors(sub.node_id)
                    else None
                )
                deadline = (
                    offset + sub.end_to_end_deadline
                    if sub.end_to_end_deadline is not None
                    and not task.graph.successors(sub.node_id)
                    else None
                )
                out.add_subtask(
                    _instance_id(task.name, k, sub.node_id),
                    wcet=sub.wcet,
                    release=release,
                    end_to_end_deadline=deadline,
                    pinned_to=sub.pinned_to,
                )
            for msg in task.graph.messages():
                out.add_edge(
                    _instance_id(task.name, k, msg.src),
                    _instance_id(task.name, k, msg.dst),
                    message_size=msg.size,
                )

    for arc in arcs:
        _wire_cross_task_arc(out, by_name, instances, arc)
    return out


def _instance_id(task: str, k: int, node: NodeId) -> NodeId:
    return f"{task}#{k}:{node}"


def _wire_cross_task_arc(
    out: TaskGraph,
    by_name: Dict[str, PeriodicTask],
    instances: Dict[str, int],
    arc: CrossTaskArc,
) -> None:
    if arc.src_task not in by_name or arc.dst_task not in by_name:
        raise ValidationError(
            f"cross-task arc references unknown task(s): "
            f"{arc.src_task!r} -> {arc.dst_task!r}"
        )
    src_task = by_name[arc.src_task]
    dst_task = by_name[arc.dst_task]
    if arc.src_node not in src_task.graph:
        raise ValidationError(
            f"arc source node {arc.src_node!r} not in task {arc.src_task!r}"
        )
    if arc.dst_node not in dst_task.graph:
        raise ValidationError(
            f"arc destination node {arc.dst_node!r} not in task {arc.dst_task!r}"
        )
    # Producer instance k covers [k*Ps, (k+1)*Ps); connect it to every
    # consumer instance released inside that window (and released no
    # earlier than the producer instance itself).
    for k in range(instances[arc.src_task]):
        window_start = k * src_task.period
        window_end = (k + 1) * src_task.period
        for j in range(instances[arc.dst_task]):
            consumer_release = j * dst_task.period
            if window_start <= consumer_release < window_end:
                out.add_edge(
                    _instance_id(arc.src_task, k, arc.src_node),
                    _instance_id(arc.dst_task, j, arc.dst_node),
                    message_size=arc.message_size,
                )
