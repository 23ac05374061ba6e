"""Node types of the task-graph model (Section 3 of the paper).

A *subtask* is the unit of computation: it has a worst-case execution time
``wcet`` and, once deadline distribution has run, a release time and a
relative deadline. Subtasks at the boundary of the graph may carry *anchor*
values supplied by the application: input subtasks carry a release time and
output subtasks carry an end-to-end (absolute) deadline.

A *communication subtask* models the transfer of one message along a
precedence arc. It is not stored in the user-facing graph — users annotate
arcs with a message size — but is materialized by the deadline-distribution
and scheduling layers, where it behaves like a subtask whose "execution
time" is the (estimated or actual) communication cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ValidationError
from repro.types import NodeId, ProcessorId, Time


@dataclass
class Subtask:
    """A computation subtask: node of the task graph.

    Parameters
    ----------
    node_id:
        Unique identifier within its graph.
    wcet:
        Worst-case execution time, strictly positive.
    release:
        Application-supplied release time. Meaningful on input subtasks
        (nodes without predecessors); for interior nodes it is assigned by
        deadline distribution. ``None`` means "not (yet) assigned".
    end_to_end_deadline:
        Application-supplied absolute deadline. Meaningful on output
        subtasks (nodes without successors).
    pinned_to:
        Strict locality constraint: the processor this subtask *must* run
        on, or ``None`` when the assignment is relaxed (scheduler's choice).
    """

    node_id: NodeId
    wcet: Time
    release: Optional[Time] = None
    end_to_end_deadline: Optional[Time] = None
    pinned_to: Optional[ProcessorId] = None

    def __post_init__(self) -> None:
        if not self.node_id:
            raise ValidationError("subtask id must be a non-empty string")
        if self.wcet <= 0:
            raise ValidationError(
                f"subtask {self.node_id!r}: wcet must be > 0, got {self.wcet}"
            )
        if self.pinned_to is not None and self.pinned_to < 0:
            raise ValidationError(
                f"subtask {self.node_id!r}: pinned_to must be >= 0, got {self.pinned_to}"
            )

    @property
    def is_pinned(self) -> bool:
        """Whether this subtask has a strict locality constraint."""
        return self.pinned_to is not None


@dataclass
class Message:
    """Annotation of a precedence arc: the data flowing from src to dst.

    ``size`` is the number of data items; on the paper's shared bus each
    data item costs one time unit, so ``size`` doubles as the interprocessor
    communication cost. A size of 0 models a pure precedence constraint
    (control dependency without data transfer).
    """

    src: NodeId
    dst: NodeId
    size: Time = 0.0

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValidationError(
                f"message {self.src!r}->{self.dst!r}: size must be >= 0, got {self.size}"
            )

    @property
    def edge_id(self) -> tuple:
        return (self.src, self.dst)


@dataclass
class CommSubtask:
    """A materialized communication subtask χ_ij (paper Section 3).

    Created by the deadline-distribution or scheduling layers for an arc
    whose (estimated or actual) communication cost is non-negligible.
    ``cost`` plays the role of the execution time in path metrics and in
    window assignment.
    """

    src: NodeId
    dst: NodeId
    cost: Time
    release: Optional[Time] = None
    deadline: Optional[Time] = None  # absolute

    def __post_init__(self) -> None:
        if self.cost < 0:
            raise ValidationError(
                f"comm subtask {self.src!r}->{self.dst!r}: cost must be >= 0"
            )

    @property
    def comm_id(self) -> str:
        """Stable synthetic identifier, distinct from any subtask id."""
        return f"chi({self.src}->{self.dst})"
