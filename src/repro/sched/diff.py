"""Schedule comparison: what changed between two schedules of one graph.

When an ablation (different metric, estimator, topology, policy) shifts
the lateness numbers, the next question is *why*. :func:`diff_schedules`
answers it structurally: which subtasks moved processors, whose start and
finish times shifted, how communication volume changed, and which subtask
is the new lateness bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.annotations import DeadlineAssignment
from repro.errors import ValidationError
from repro.sched.schedule import Schedule
from repro.types import NodeId, ProcessorId, Time


@dataclass(frozen=True)
class TaskDelta:
    """Per-subtask differences between two schedules."""

    node_id: NodeId
    processor_before: ProcessorId
    processor_after: ProcessorId
    start_delta: Time
    finish_delta: Time

    @property
    def migrated(self) -> bool:
        return self.processor_before != self.processor_after


@dataclass
class ScheduleDiff:
    """Structured difference between two schedules of the same graph."""

    deltas: List[TaskDelta] = field(default_factory=list)
    makespan_before: Time = 0.0
    makespan_after: Time = 0.0
    communication_before: Time = 0.0
    communication_after: Time = 0.0
    bottleneck_before: Optional[NodeId] = None
    bottleneck_after: Optional[NodeId] = None
    max_lateness_before: Optional[Time] = None
    max_lateness_after: Optional[Time] = None

    @property
    def migrations(self) -> List[TaskDelta]:
        """Subtasks placed on a different processor."""
        return [d for d in self.deltas if d.migrated]

    @property
    def makespan_delta(self) -> Time:
        return self.makespan_after - self.makespan_before

    @property
    def communication_delta(self) -> Time:
        return self.communication_after - self.communication_before

    def summary(self) -> str:
        """One-paragraph human-readable digest."""
        lines = [
            f"{len(self.migrations)}/{len(self.deltas)} subtasks migrated; "
            f"makespan {self.makespan_before:.1f} -> "
            f"{self.makespan_after:.1f} ({self.makespan_delta:+.1f}); "
            f"cross-processor volume {self.communication_before:.1f} -> "
            f"{self.communication_after:.1f} "
            f"({self.communication_delta:+.1f})"
        ]
        if self.max_lateness_before is not None:
            lines.append(
                f"max lateness {self.max_lateness_before:.1f} "
                f"({self.bottleneck_before}) -> "
                f"{self.max_lateness_after:.1f} ({self.bottleneck_after})"
            )
        return "; ".join(lines)


def diff_schedules(
    before: Schedule,
    after: Schedule,
    assignment_before: Optional[DeadlineAssignment] = None,
    assignment_after: Optional[DeadlineAssignment] = None,
) -> ScheduleDiff:
    """Compare two schedules of the same task graph.

    With the deadline assignments given, the diff also reports the
    lateness bottleneck (the argmax subtask) on each side — assignments
    may differ (that is usually the point of the comparison).
    """
    ids_before = set(before.tasks)
    ids_after = set(after.tasks)
    if ids_before != ids_after:
        raise ValidationError(
            "schedules cover different subtask sets: "
            f"{sorted(ids_before ^ ids_after)[:5]}"
        )
    diff = ScheduleDiff(
        makespan_before=before.makespan(),
        makespan_after=after.makespan(),
        communication_before=before.total_communication_volume(),
        communication_after=after.total_communication_volume(),
    )
    for node_id in sorted(ids_before):
        b = before.task(node_id)
        a = after.task(node_id)
        diff.deltas.append(
            TaskDelta(
                node_id=node_id,
                processor_before=b.processor,
                processor_after=a.processor,
                start_delta=a.start - b.start,
                finish_delta=a.finish - b.finish,
            )
        )
    if assignment_before is not None:
        diff.bottleneck_before, diff.max_lateness_before = _bottleneck(
            before, assignment_before
        )
    if assignment_after is not None:
        diff.bottleneck_after, diff.max_lateness_after = _bottleneck(
            after, assignment_after
        )
    return diff


def _bottleneck(
    schedule: Schedule, assignment: DeadlineAssignment
) -> Tuple[NodeId, Time]:
    worst: Optional[Tuple[Time, NodeId]] = None
    for node_id in schedule.tasks:
        lateness = schedule.finish_time(node_id) - assignment.absolute_deadline(
            node_id
        )
        if worst is None or (lateness, node_id) > worst:
            worst = (lateness, node_id)
    assert worst is not None
    return worst[1], worst[0]
