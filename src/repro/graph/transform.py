"""Task-graph transformations.

Preprocessing utilities that keep the rest of the pipeline unchanged:

* :func:`merge_chains` — collapse maximal linear chains of subtasks into
  single subtasks (summed execution times; interior messages disappear —
  they would be same-processor anyway whenever merging is sound). A
  standard granularity-coarsening step before assignment.
* :func:`extract_subgraph` — the induced subgraph on a node subset, with
  boundary anchors synthesized from a reference deadline assignment, so a
  fragment of a distributed application can be re-analysed in isolation.
* :func:`critical_path_subgraph` — the heaviest execution path as a chain
  graph (what a single-processor analysis of the bottleneck sees).
* :func:`scale_workload` — multiply execution times and/or message sizes
  (the sensitivity analyses' scaling primitive, exposed for reuse).
* :func:`relabel` — rename every node through a mapping (namespacing
  before composition of graphs).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Set

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core uses graph)
    from repro.core.annotations import DeadlineAssignment

from repro.errors import ValidationError
from repro.graph import paths
from repro.graph.taskgraph import TaskGraph
from repro.types import NodeId


def merge_chains(graph: TaskGraph, separator: str = "+") -> TaskGraph:
    """Collapse maximal linear chains into single subtasks.

    A node joins its predecessor's chain when the predecessor has exactly
    one successor and the node exactly one predecessor, neither endpoint
    anchor conflicts (interior nodes must carry no release/deadline
    anchors of their own), and pins agree (both unpinned or same pin).
    Merged node ids are the joined member ids, e.g. ``"a+b+c"``.
    """
    chain_of: Dict[NodeId, List[NodeId]] = {}
    head_of: Dict[NodeId, NodeId] = {}
    for node_id in graph.topological_order():
        preds = graph.predecessors(node_id)
        mergeable = False
        if len(preds) == 1:
            pred = preds[0]
            node = graph.node(node_id)
            prev = graph.node(head_of.get(pred, pred))
            mergeable = (
                graph.out_degree(pred) == 1
                and node.release is None
                and graph.node(pred).end_to_end_deadline is None
                and node.pinned_to == prev.pinned_to
            )
        if mergeable:
            head = head_of[preds[0]]
            chain_of[head].append(node_id)
            head_of[node_id] = head
        else:
            chain_of[node_id] = [node_id]
            head_of[node_id] = node_id

    out = TaskGraph(name=f"{graph.name}-merged")
    merged_id: Dict[NodeId, NodeId] = {}
    for head, members in chain_of.items():
        new_id = separator.join(members)
        for member in members:
            merged_id[member] = new_id
        first = graph.node(members[0])
        last = graph.node(members[-1])
        out.add_subtask(
            new_id,
            wcet=sum(graph.node(m).wcet for m in members),
            release=first.release,
            end_to_end_deadline=last.end_to_end_deadline,
            pinned_to=first.pinned_to,
        )
    for message in graph.messages():
        src = merged_id[message.src]
        dst = merged_id[message.dst]
        if src == dst:
            continue  # interior chain message disappears
        if not out.has_edge(src, dst):
            out.add_edge(src, dst, message_size=message.size)
        else:
            out.message(src, dst).size += message.size
    return out


def extract_subgraph(
    graph: TaskGraph,
    nodes: Iterable[NodeId],
    assignment: Optional["DeadlineAssignment"] = None,
    name: Optional[str] = None,
) -> TaskGraph:
    """Induced subgraph on ``nodes``, anchored at its new boundary.

    Nodes that become inputs/outputs of the fragment need release/deadline
    anchors. With ``assignment`` given, boundary anchors come from the
    distributed windows (release of new inputs, absolute deadline of new
    outputs) — the fragment then stands alone for re-analysis. Without it,
    original anchors must already cover the boundary or validation fails.
    """
    subset: Set[NodeId] = set(nodes)
    unknown = subset - set(graph.node_ids())
    if unknown:
        raise ValidationError(
            f"cannot extract unknown subtasks: {sorted(unknown)[:5]}"
        )
    if not subset:
        raise ValidationError("cannot extract an empty subgraph")
    out = TaskGraph(
        name=name if name is not None else f"{graph.name}-sub{len(subset)}"
    )
    for node_id in graph.topological_order():
        if node_id not in subset:
            continue
        node = graph.node(node_id)
        becomes_input = all(p not in subset for p in graph.predecessors(node_id))
        becomes_output = all(s not in subset for s in graph.successors(node_id))
        release = node.release
        deadline = node.end_to_end_deadline
        if assignment is not None:
            if becomes_input and release is None:
                release = assignment.release(node_id)
            if becomes_output and deadline is None:
                deadline = assignment.absolute_deadline(node_id)
        out.add_subtask(
            node_id,
            wcet=node.wcet,
            release=release,
            end_to_end_deadline=deadline,
            pinned_to=node.pinned_to,
        )
    for message in graph.messages():
        if message.src in subset and message.dst in subset:
            out.add_edge(message.src, message.dst, message_size=message.size)
    return out


def critical_path_subgraph(
    graph: TaskGraph,
    assignment: Optional["DeadlineAssignment"] = None,
) -> TaskGraph:
    """The heaviest execution-time path, extracted as a chain graph."""
    return extract_subgraph(
        graph,
        paths.longest_path(graph),
        assignment=assignment,
        name=f"{graph.name}-critical",
    )


def scale_workload(
    graph: TaskGraph,
    execution_factor: float = 1.0,
    message_factor: Optional[float] = None,
    name: Optional[str] = None,
) -> TaskGraph:
    """Scale execution times (and message sizes) by constant factors.

    ``message_factor`` defaults to ``execution_factor`` (keeping CCR
    constant). Anchors are untouched: scaling against fixed deadlines is
    the sensitivity-analysis primitive.
    """
    if execution_factor <= 0:
        raise ValidationError("execution_factor must be > 0")
    message_factor = (
        message_factor if message_factor is not None else execution_factor
    )
    if message_factor < 0:
        raise ValidationError("message_factor must be >= 0")
    out = graph.copy(
        name=name if name is not None else f"{graph.name}@x{execution_factor:g}"
    )
    for node_id in out.node_ids():
        out.node(node_id).wcet = graph.node(node_id).wcet * execution_factor
    for src, dst in out.edges():
        out.message(src, dst).size = (
            graph.message(src, dst).size * message_factor
        )
    return out


def compose(
    fragments: Mapping[str, TaskGraph],
    arcs: Iterable[tuple] = (),
    name: str = "composed",
) -> TaskGraph:
    """Compose namespaced application fragments into one task graph.

    ``fragments`` maps a namespace to a graph; node ids become
    ``"{namespace}:{node}"``. ``arcs`` wires fragments together as
    ``(src_ns, src_node, dst_ns, dst_node, message_size)`` tuples. Anchors
    travel with their nodes — after composition, boundary-anchor coverage
    is re-checked by the usual :meth:`TaskGraph.validate` at use time
    (an output gaining a consumer keeps its deadline as an interior
    anchor, which the distribution layer honours).
    """
    if not fragments:
        raise ValidationError("cannot compose zero fragments")
    out = TaskGraph(name=name)
    for namespace, fragment in fragments.items():
        if ":" in namespace:
            raise ValidationError(
                f"fragment namespace {namespace!r} must not contain ':'"
            )
        part = relabel(fragment, prefix=f"{namespace}:")
        for node in part.nodes():
            out.add_subtask(
                node.node_id,
                wcet=node.wcet,
                release=node.release,
                end_to_end_deadline=node.end_to_end_deadline,
                pinned_to=node.pinned_to,
            )
        for message in part.messages():
            out.add_edge(message.src, message.dst, message_size=message.size)
    for arc in arcs:
        try:
            src_ns, src_node, dst_ns, dst_node, size = arc
        except ValueError:
            raise ValidationError(
                "compose arcs are (src_ns, src_node, dst_ns, dst_node, size) "
                f"tuples; got {arc!r}"
            ) from None
        out.add_edge(
            f"{src_ns}:{src_node}", f"{dst_ns}:{dst_node}", message_size=size
        )
    return out


def relabel(
    graph: TaskGraph,
    mapping: Optional[Mapping[NodeId, NodeId]] = None,
    prefix: str = "",
    name: Optional[str] = None,
) -> TaskGraph:
    """Rename nodes through ``mapping`` (or by prefixing every id).

    Useful for namespacing before composing graphs from fragments; the
    mapping must be injective over the graph's nodes.
    """
    if mapping is None:
        mapping = {n: f"{prefix}{n}" for n in graph.node_ids()}
    targets = [mapping.get(n, n) for n in graph.node_ids()]
    if len(set(targets)) != len(targets):
        raise ValidationError("relabel mapping is not injective")
    out = TaskGraph(name=name if name is not None else graph.name)
    for node in graph.nodes():
        out.add_subtask(
            mapping.get(node.node_id, node.node_id),
            wcet=node.wcet,
            release=node.release,
            end_to_end_deadline=node.end_to_end_deadline,
            pinned_to=node.pinned_to,
        )
    for message in graph.messages():
        out.add_edge(
            mapping.get(message.src, message.src),
            mapping.get(message.dst, message.dst),
            message_size=message.size,
        )
    return out
