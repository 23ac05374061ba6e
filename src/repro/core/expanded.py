"""The expanded graph: computation + materialized communication subtasks.

Deadline distribution (paper Section 4.2) treats communication subtasks as
first-class path members whenever their estimated cost is non-negligible.
This module builds that view: every arc whose estimated cost is positive
becomes an :class:`ENode` of kind ``"comm"`` spliced between its endpoints;
zero-cost arcs remain plain edges. The expanded graph is an internal data
structure of the ``repro.core`` layer — users interact with
:class:`~repro.graph.taskgraph.TaskGraph` only.

Representation
--------------
The expansion is a thin integer-indexed overlay on the graph's compiled
:class:`~repro.graph.indexed.GraphIndex`: expanded node ``i`` for
``i < n_tasks`` *is* dense task id ``i`` of the index; materialized
communication subtasks follow, in edge insertion order. Successor /
predecessor adjacency, costs, anchors and the topological order are flat
arrays over those ids, which is what the critical-path search and the
slicer iterate. The string-keyed accessors (``successors("a")`` etc.) are
a compatibility surface over the same arrays.

The topological order follows the unified contract of
:mod:`repro.graph.indexed`: Kahn's algorithm, insertion order among
simultaneously ready nodes (task nodes in graph insertion order, comm
nodes in message insertion order).

Reuse
-----
An expansion depends only on (graph structure, node/message values,
estimator) — **not** on the slicing metric and not on the platform. Build
it through :meth:`ExpandedGraph.for_graph` and one instance is cached on
the graph's index and shared by every metric and every system size of a
trial; the cache keys on the estimator's :meth:`cache_key
<repro.core.commcost.CommCostEstimator.cache_key>` plus the index's value
fingerprint, so attribute mutation between calls rebuilds instead of
serving stale costs. Instances must be treated as immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.commcost import CommCostEstimator
from repro.graph.taskgraph import TaskGraph
from repro.obs import runtime as obs
from repro.types import EdgeId, NodeId, Time

#: Kind tags of expanded-graph nodes.
TASK = "task"
COMM = "comm"


@dataclass(frozen=True)
class ENode:
    """One node of the expanded graph.

    ``eid`` is unique across both kinds (comm nodes use the synthetic
    ``chi(src->dst)`` id). ``cost`` is the execution time for task nodes and
    the *estimated* communication cost for comm nodes. ``index`` is the
    node's dense id in the expansion's arrays.
    """

    eid: str
    kind: str
    cost: Time
    task_id: Optional[NodeId] = None
    edge: Optional[EdgeId] = None
    index: int = -1

    @property
    def is_task(self) -> bool:
        return self.kind == TASK

    @property
    def is_comm(self) -> bool:
        return self.kind == COMM


class ExpandedGraph:
    """Expanded view of a task graph under one comm-cost estimation."""

    def __init__(self, graph: TaskGraph, estimator: CommCostEstimator) -> None:
        self.graph = graph
        self.estimator = estimator
        self.nodes: Dict[str, ENode] = {}
        #: ENode per dense expanded id (tasks first, then comm nodes).
        self.by_index: List[ENode] = []
        #: Expanded-node id strings, by dense id.
        self.eids: List[str] = []
        #: Node cost per dense id.
        self.costs: List[Time] = []
        #: Flat adjacency over dense ids.
        self.succ_lists: List[List[int]] = []
        self.pred_lists: List[List[int]] = []
        #: Static anchors from the application (input releases, output
        #: end-to-end deadlines), keyed by expanded node id.
        self.static_release: Dict[str, Time] = {}
        self.static_deadline: Dict[str, Time] = {}
        #: Array form of the static anchors (value meaningful only where
        #: the ``has_*`` byte is set).
        self.release_anchor: List[Time] = []
        self.deadline_anchor: List[Time] = []
        self.has_release: bytearray = bytearray()
        self.has_deadline: bytearray = bytearray()
        self._build()

    # ------------------------------------------------------------------
    # Cached construction
    # ------------------------------------------------------------------
    @classmethod
    def for_graph(
        cls, graph: TaskGraph, estimator: CommCostEstimator
    ) -> "ExpandedGraph":
        """The expansion of ``graph`` under ``estimator``, cached.

        One expansion per (graph structure, values, estimator) is built
        and shared across metrics and platform sizes; estimators whose
        :meth:`~repro.core.commcost.CommCostEstimator.cache_key` is
        ``None`` (stateful ones, e.g. Oracle) are built fresh each call.
        """
        key = estimator.cache_key()
        if key is None:
            obs.count("expanded.cache.uncacheable")
            return cls(graph, estimator)
        index = graph.index()
        fingerprint = index.value_fingerprint()
        cached = index._expanded_cache.get(key)
        if cached is not None and cached[0] == fingerprint:
            expanded = cached[1]
            assert isinstance(expanded, cls)
            obs.count("expanded.cache.hits")
            return expanded
        obs.count("expanded.cache.misses")
        expanded = cls(graph, estimator)
        index._expanded_cache[key] = (fingerprint, expanded)
        return expanded

    def _build(self) -> None:
        graph = self.graph
        index = graph.index()
        self.index = index
        self.n_tasks = index.n_nodes

        for i, sub in enumerate(index.subtasks):
            enode = ENode(
                eid=sub.node_id, kind=TASK, cost=sub.wcet,
                task_id=sub.node_id, index=i,
            )
            self._append_node(enode)
        for e, message in enumerate(index.edge_messages):
            src, dst = index.edge_src[e], index.edge_dst[e]
            estimated = self.estimator.estimate(graph, message)
            if estimated > 0:
                comm = ENode(
                    eid=f"chi({message.src}->{message.dst})",
                    kind=COMM,
                    cost=estimated,
                    edge=(message.src, message.dst),
                    index=len(self.by_index),
                )
                self._append_node(comm)
                self.succ_lists[comm.index].append(dst)
                self.pred_lists[comm.index].append(src)
                self.succ_lists[src].append(comm.index)
                self.pred_lists[dst].append(comm.index)
            else:
                self.succ_lists[src].append(dst)
                self.pred_lists[dst].append(src)
        # Anchors come from ANY node carrying one, not just the boundary:
        # graph validation requires them on inputs/outputs, but interior
        # anchors (e.g. a periodic task's own deadline surviving an
        # unrolling that gave it downstream consumers) are honoured too —
        # a path may legitimately start or end at an interior anchor.
        for i, sub in enumerate(index.subtasks):
            if sub.release is not None:
                self.static_release[sub.node_id] = sub.release
                self.release_anchor[i] = sub.release
                self.has_release[i] = 1
            if sub.end_to_end_deadline is not None:
                self.static_deadline[sub.node_id] = sub.end_to_end_deadline
                self.deadline_anchor[i] = sub.end_to_end_deadline
                self.has_deadline[i] = 1
        self._topo = self._topological_order()
        #: Position of each dense id in :attr:`topo_indices` (the
        #: incremental critical-path search orders dirty nodes by it).
        self.topo_pos: List[int] = [0] * len(self._topo)
        for pos, i in enumerate(self._topo):
            self.topo_pos[i] = pos
        #: Deterministic tie-break helper: rank of each node's eid among
        #: all eids in lexicographic order (comparing rank sequences is
        #: exactly comparing eid sequences).
        rank = sorted(range(len(self.eids)), key=lambda i: self.eids[i])
        self.lex_rank: List[int] = [0] * len(rank)
        for r, i in enumerate(rank):
            self.lex_rank[i] = r

    def _append_node(self, enode: ENode) -> None:
        self.nodes[enode.eid] = enode
        self.by_index.append(enode)
        self.eids.append(enode.eid)
        self.costs.append(enode.cost)
        self.succ_lists.append([])
        self.pred_lists.append([])
        self.release_anchor.append(0.0)
        self.deadline_anchor.append(0.0)
        self.has_release.append(0)
        self.has_deadline.append(0)

    def _topological_order(self) -> List[int]:
        n = len(self.by_index)
        in_deg = [len(p) for p in self.pred_lists]
        order = [i for i in range(n) if in_deg[i] == 0]
        head = 0
        while head < len(order):
            i = order[head]
            head += 1
            for s in self.succ_lists[i]:
                in_deg[s] -= 1
                if in_deg[s] == 0:
                    order.append(s)
        # The underlying task graph is validated acyclic; splicing comm
        # nodes into arcs cannot create cycles.
        assert len(order) == n
        return order

    # ------------------------------------------------------------------
    # Integer API (the hot path)
    # ------------------------------------------------------------------
    @property
    def topo_indices(self) -> List[int]:
        """Dense ids in topological order (shared list — read-only)."""
        return self._topo

    # ------------------------------------------------------------------
    # String compatibility API
    # ------------------------------------------------------------------
    def topological_order(self) -> List[str]:
        return [self.eids[i] for i in self._topo]

    def successors(self, eid: str) -> List[str]:
        return [self.eids[i] for i in self.succ_lists[self.nodes[eid].index]]

    def predecessors(self, eid: str) -> List[str]:
        return [self.eids[i] for i in self.pred_lists[self.nodes[eid].index]]

    def node(self, eid: str) -> ENode:
        return self.nodes[eid]

    def task_nodes(self) -> List[ENode]:
        return [n for n in self.by_index if n.is_task]

    def comm_nodes(self) -> List[ENode]:
        return [n for n in self.by_index if n.is_comm]

    def __len__(self) -> int:
        return len(self.by_index)

    def __contains__(self, eid: object) -> bool:
        return eid in self.nodes
