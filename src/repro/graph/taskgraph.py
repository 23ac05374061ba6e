"""The directed-acyclic task graph (Section 3 of the paper).

A :class:`TaskGraph` stores :class:`~repro.graph.node.Subtask` nodes and
:class:`~repro.graph.node.Message`-annotated precedence arcs. It offers the
structural queries every other layer needs: predecessors/successors,
input/output subtasks, topological order, reachability, and workload sums.

The graph is a plain mutable builder object; algorithms never mutate a graph
they were handed — deadline distribution returns a separate
:class:`~repro.core.annotations.DeadlineAssignment`, and scheduling returns a
:class:`~repro.sched.schedule.Schedule`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set

from repro.errors import (
    CycleError,
    DuplicateEdgeError,
    DuplicateNodeError,
    UnknownNodeError,
    ValidationError,
)
from repro.graph.indexed import GraphIndex
from repro.graph.node import Message, Subtask
from repro.types import EdgeId, NodeId, ProcessorId, Time


class TaskGraph:
    """A DAG of subtasks with message-annotated precedence arcs.

    Example
    -------
    >>> g = TaskGraph()
    >>> g.add_subtask("a", wcet=10, release=0.0)
    >>> g.add_subtask("b", wcet=20, end_to_end_deadline=100.0)
    >>> g.add_edge("a", "b", message_size=5)
    >>> g.predecessors("b")
    ['a']
    """

    def __init__(self, name: str = "taskgraph") -> None:
        self.name = name
        self._nodes: Dict[NodeId, Subtask] = {}
        self._messages: Dict[EdgeId, Message] = {}
        self._succ: Dict[NodeId, List[NodeId]] = {}
        self._pred: Dict[NodeId, List[NodeId]] = {}
        self._topo_cache: Optional[List[NodeId]] = None
        self._index_cache: Optional[GraphIndex] = None

    def _invalidate_caches(self) -> None:
        """Drop every derived structure after a structural mutation.

        Called by every structural mutator (``add_subtask`` / ``add_edge``
        / ``remove_subtask`` / ``remove_edge``); anything that caches a
        compiled view of the graph (topological order, :class:`GraphIndex`
        and the expanded-graph caches hanging off it) must be dropped
        here, or a
        mutation-after-query would silently corrupt downstream analyses.
        """
        self._topo_cache = None
        self._index_cache = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_subtask(
        self,
        node_id: NodeId,
        wcet: Time,
        release: Optional[Time] = None,
        end_to_end_deadline: Optional[Time] = None,
        pinned_to: Optional[ProcessorId] = None,
    ) -> Subtask:
        """Add a subtask node and return it.

        Raises :class:`DuplicateNodeError` if the id already exists.
        """
        if node_id in self._nodes:
            raise DuplicateNodeError(f"subtask {node_id!r} already in graph")
        node = Subtask(
            node_id=node_id,
            wcet=wcet,
            release=release,
            end_to_end_deadline=end_to_end_deadline,
            pinned_to=pinned_to,
        )
        self._nodes[node_id] = node
        self._succ[node_id] = []
        self._pred[node_id] = []
        self._invalidate_caches()
        return node

    def add_edge(self, src: NodeId, dst: NodeId, message_size: Time = 0.0) -> Message:
        """Add a precedence arc ``src -> dst`` carrying ``message_size`` data items.

        Raises
        ------
        UnknownNodeError
            If either endpoint has not been added.
        DuplicateEdgeError
            If the arc already exists.
        ValidationError
            If ``src == dst`` (self-loops are cycles by definition).
        """
        self._require(src)
        self._require(dst)
        if src == dst:
            raise ValidationError(f"self-loop on {src!r} is not allowed")
        edge = (src, dst)
        if edge in self._messages:
            raise DuplicateEdgeError(f"edge {src!r}->{dst!r} already in graph")
        message = Message(src=src, dst=dst, size=message_size)
        self._messages[edge] = message
        self._succ[src].append(dst)
        self._pred[dst].append(src)
        self._invalidate_caches()
        return message

    def remove_subtask(self, node_id: NodeId) -> Subtask:
        """Remove a subtask and every arc incident to it; return the node.

        Removal can orphan anchors: a node whose only predecessor is
        removed becomes an input subtask and then needs a release time to
        pass :meth:`validate` (likewise deadlines for new outputs) — the
        caller re-anchors, this method only edits structure. Raises
        :class:`UnknownNodeError` if the id is not present.
        """
        self._require(node_id)
        node = self._nodes.pop(node_id)
        for pred in self._pred.pop(node_id):
            self._succ[pred].remove(node_id)
            del self._messages[(pred, node_id)]
        for succ in self._succ.pop(node_id):
            self._pred[succ].remove(node_id)
            del self._messages[(node_id, succ)]
        self._invalidate_caches()
        return node

    def remove_edge(self, src: NodeId, dst: NodeId) -> Message:
        """Remove the arc ``src -> dst``; return its message.

        Both endpoints stay in the graph (re-anchor them if they became
        inputs/outputs). Raises :class:`UnknownNodeError` if the arc is
        not present.
        """
        edge = (src, dst)
        if edge not in self._messages:
            raise UnknownNodeError(f"edge {src!r}->{dst!r} not in graph")
        message = self._messages.pop(edge)
        self._succ[src].remove(dst)
        self._pred[dst].remove(src)
        self._invalidate_caches()
        return message

    def _require(self, node_id: NodeId) -> None:
        if node_id not in self._nodes:
            raise UnknownNodeError(f"subtask {node_id!r} not in graph")

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------
    def __contains__(self, node_id: object) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._nodes)

    @property
    def n_subtasks(self) -> int:
        return len(self._nodes)

    @property
    def n_edges(self) -> int:
        return len(self._messages)

    def node(self, node_id: NodeId) -> Subtask:
        self._require(node_id)
        return self._nodes[node_id]

    def nodes(self) -> List[Subtask]:
        """All subtasks, in insertion order."""
        return list(self._nodes.values())

    def node_ids(self) -> List[NodeId]:
        return list(self._nodes)

    def message(self, src: NodeId, dst: NodeId) -> Message:
        edge = (src, dst)
        if edge not in self._messages:
            raise UnknownNodeError(f"edge {src!r}->{dst!r} not in graph")
        return self._messages[edge]

    def messages(self) -> List[Message]:
        return list(self._messages.values())

    def edges(self) -> List[EdgeId]:
        return list(self._messages)

    def has_edge(self, src: NodeId, dst: NodeId) -> bool:
        return (src, dst) in self._messages

    def successors(self, node_id: NodeId) -> List[NodeId]:
        self._require(node_id)
        return list(self._succ[node_id])

    def predecessors(self, node_id: NodeId) -> List[NodeId]:
        self._require(node_id)
        return list(self._pred[node_id])

    def in_degree(self, node_id: NodeId) -> int:
        self._require(node_id)
        return len(self._pred[node_id])

    def out_degree(self, node_id: NodeId) -> int:
        self._require(node_id)
        return len(self._succ[node_id])

    def input_subtasks(self) -> List[NodeId]:
        """Nodes with no predecessors (paper: *input subtasks*)."""
        return [n for n in self._nodes if not self._pred[n]]

    def output_subtasks(self) -> List[NodeId]:
        """Nodes with no successors (paper: *output subtasks*)."""
        return [n for n in self._nodes if not self._succ[n]]

    def pinned_subtasks(self) -> List[NodeId]:
        """Nodes with strict locality constraints."""
        return [n for n, s in self._nodes.items() if s.is_pinned]

    # ------------------------------------------------------------------
    # Order and reachability
    # ------------------------------------------------------------------
    def index(self) -> GraphIndex:
        """The compiled :class:`~repro.graph.indexed.GraphIndex` view.

        Built on first access and cached until the next structural
        mutation (``add_subtask`` / ``add_edge`` / ``remove_subtask`` /
        ``remove_edge``); attribute mutation
        (costs, anchors, pins, message sizes) does not invalidate it —
        the index references the live node/message objects. Every
        analysis layer (paths, expanded graph, schedulers) walks the
        graph through this object.
        """
        if self._index_cache is None:
            self._index_cache = GraphIndex(self)
        return self._index_cache

    def topological_order(self) -> List[NodeId]:
        """Kahn topological order; raises :class:`CycleError` on cycles.

        Deterministic contract (unified across every layer, including the
        expanded graph's order over its own nodes): among simultaneously
        ready nodes, insertion order is preserved.
        """
        if self._topo_cache is None:
            index = self.index()
            self._topo_cache = [index.ids[i] for i in index.topological_order()]
        return list(self._topo_cache)

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
        except CycleError:
            return False
        return True

    def ancestors(self, node_id: NodeId) -> Set[NodeId]:
        """All transitive predecessors of ``node_id`` (excluding itself)."""
        self._require(node_id)
        out: Set[NodeId] = set()
        stack = list(self._pred[node_id])
        while stack:
            n = stack.pop()
            if n not in out:
                out.add(n)
                stack.extend(self._pred[n])
        return out

    def descendants(self, node_id: NodeId) -> Set[NodeId]:
        """All transitive successors of ``node_id`` (excluding itself)."""
        self._require(node_id)
        out: Set[NodeId] = set()
        stack = list(self._succ[node_id])
        while stack:
            n = stack.pop()
            if n not in out:
                out.add(n)
                stack.extend(self._succ[n])
        return out

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def total_workload(self) -> Time:
        """Sum of all subtask execution times (the paper's "accumulated
        task graph workload")."""
        return sum(s.wcet for s in self._nodes.values())

    def mean_execution_time(self) -> Time:
        """Mean subtask execution time (the paper's MET)."""
        if not self._nodes:
            raise ValidationError("mean execution time of an empty graph")
        return self.total_workload() / len(self._nodes)

    def total_message_volume(self) -> Time:
        """Sum of all message sizes."""
        return sum(m.size for m in self._messages.values())

    # ------------------------------------------------------------------
    # Validation and copying
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the invariants an analysis-ready graph must satisfy.

        * acyclic;
        * at least one node;
        * every input subtask has a release time;
        * every output subtask has an end-to-end deadline.
        """
        if not self._nodes:
            raise ValidationError("task graph is empty")
        self.topological_order()  # raises CycleError if cyclic
        for n in self.input_subtasks():
            if self._nodes[n].release is None:
                raise ValidationError(
                    f"input subtask {n!r} has no release time; deadline "
                    "distribution needs release anchors on all inputs"
                )
        for n in self.output_subtasks():
            if self._nodes[n].end_to_end_deadline is None:
                raise ValidationError(
                    f"output subtask {n!r} has no end-to-end deadline; "
                    "deadline distribution needs deadline anchors on all outputs"
                )

    def copy(self, name: Optional[str] = None) -> "TaskGraph":
        """Deep-enough copy: nodes and messages are re-created."""
        g = TaskGraph(name=name if name is not None else self.name)
        for s in self._nodes.values():
            g.add_subtask(
                s.node_id,
                wcet=s.wcet,
                release=s.release,
                end_to_end_deadline=s.end_to_end_deadline,
                pinned_to=s.pinned_to,
            )
        for m in self._messages.values():
            g.add_edge(m.src, m.dst, message_size=m.size)
        return g

    def __repr__(self) -> str:
        return (
            f"TaskGraph(name={self.name!r}, subtasks={self.n_subtasks}, "
            f"edges={self.n_edges})"
        )
