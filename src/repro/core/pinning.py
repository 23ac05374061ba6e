"""Locality constraints: strict pins on a subset of subtasks (Section 1).

The paper's setting is *relaxed* locality: most subtasks may run anywhere,
but some — typically those bound to sensors and actuators in their physical
proximity — are pre-assigned to specific processors. This module provides
utilities for imposing such pins on a graph, so experiments can sweep the
"fraction of the system under strict constraints" axis.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.errors import ValidationError
from repro.graph.taskgraph import TaskGraph
from repro.types import NodeId, ProcessorId


def pin_subtasks(
    graph: TaskGraph, assignment: Dict[NodeId, ProcessorId]
) -> TaskGraph:
    """Return a copy of ``graph`` with the given subtasks pinned."""
    out = graph.copy()
    for node_id, proc in assignment.items():
        if node_id not in out:
            raise ValidationError(f"cannot pin unknown subtask {node_id!r}")
        if proc < 0:
            raise ValidationError(f"cannot pin {node_id!r} to processor {proc}")
        out.node(node_id).pinned_to = proc
    return out


def pin_random_fraction(
    graph: TaskGraph,
    fraction: float,
    n_processors: int,
    rng: Optional[random.Random] = None,
) -> TaskGraph:
    """Pin a uniformly random ``fraction`` of subtasks to random processors.

    ``fraction = 0`` returns an unpinned copy (fully relaxed);
    ``fraction = 1`` pins everything (strict locality, the BST setting).
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValidationError(f"fraction must be in [0, 1], got {fraction}")
    if n_processors < 1:
        raise ValidationError(f"n_processors must be >= 1, got {n_processors}")
    rng = rng if rng is not None else random.Random()
    ids = graph.node_ids()
    count = int(round(fraction * len(ids)))
    chosen = rng.sample(ids, count)
    return pin_subtasks(
        graph, {node_id: rng.randrange(n_processors) for node_id in chosen}
    )


def pin_boundary_subtasks(
    graph: TaskGraph,
    n_processors: int,
    rng: Optional[random.Random] = None,
) -> TaskGraph:
    """Pin exactly the input and output subtasks (sensor/actuator pattern).

    This is the paper's motivating example of strict constraints: tasks
    "constrained by demands of resources in their physical proximity such
    as sensors and actuators" — the graph's boundary.
    """
    if n_processors < 1:
        raise ValidationError(f"n_processors must be >= 1, got {n_processors}")
    rng = rng if rng is not None else random.Random()
    boundary = sorted(set(graph.input_subtasks()) | set(graph.output_subtasks()))
    return pin_subtasks(
        graph, {node_id: rng.randrange(n_processors) for node_id in boundary}
    )


def pinned_fraction(graph: TaskGraph) -> float:
    """Fraction of subtasks under strict locality constraints."""
    if graph.n_subtasks == 0:
        raise ValidationError("pinned fraction of an empty graph")
    return len(graph.pinned_subtasks()) / graph.n_subtasks


def validate_pins(graph: TaskGraph, n_processors: int) -> None:
    """Check every pin references an existing processor."""
    for node_id in graph.pinned_subtasks():
        proc = graph.node(node_id).pinned_to
        if proc is not None and proc >= n_processors:
            raise ValidationError(
                f"subtask {node_id!r} pinned to processor {proc}, but the "
                f"platform has only {n_processors} processors"
            )
