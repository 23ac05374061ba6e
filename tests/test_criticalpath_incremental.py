"""The incremental critical-path search against the one-shot search.

:class:`~repro.core.criticalpath.CriticalPathSearch` keeps DP states and
per-node candidates between slices and recomputes only what a slice can
have changed. At every slicing iteration of a real distribution its
result must equal a fresh one-shot search over the same unassigned nodes
and the same anchors — for all four metrics (NORM exercises the Pareto
frontier) and over the edge regimes of :func:`tests.strategies.slicing_graphs`.
"""

import random
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from repro.core import slicer
from repro.core.commcost import make_estimator
from repro.core.criticalpath import (
    CriticalPathSearch,
    find_critical_path_indexed,
)
from repro.core.expanded import ExpandedGraph
from repro.core.metrics import make_metric
from repro.core.slicer import DeadlineDistributor, ast
from repro.graph import RandomGraphConfig, generate_task_graph
from repro.graph.taskgraph import TaskGraph
from repro.obs import Telemetry
from repro.obs import runtime as obs
from tests.strategies import default_settings, slicing_graphs


class CheckedSearch(CriticalPathSearch):
    """Compares every :meth:`best` with a fresh one-shot search."""

    def best(self):
        got = super().best()
        remaining = [
            i for i in self.expanded.topo_indices if self.unassigned[i]
        ]
        fresh = find_critical_path_indexed(
            self.expanded, self.metric, remaining,
            self.has_release, self.release_anchor,
            self.has_deadline, self.deadline_anchor,
            self.vcost,
        )
        assert (got, got.indices) == (fresh, fresh.indices)
        return got


def distribute_checked(graph, metric, comm="CCNE", n_processors=4):
    """Distribute ``graph``, checking every slice's search."""
    distributor = DeadlineDistributor(make_metric(metric), make_estimator(comm))
    with mock.patch.object(slicer, "CriticalPathSearch", CheckedSearch):
        return distributor.distribute(graph, n_processors=n_processors)


@default_settings(max_examples=60)
@given(
    graph=slicing_graphs(),
    metric=st.sampled_from(["NORM", "PURE", "THRES", "ADAPT"]),
    comm=st.sampled_from(["CCNE", "CCAA"]),
    n_processors=st.sampled_from([2, 8]),
)
def test_every_slice_matches_a_fresh_search(graph, metric, comm, n_processors):
    distribute_checked(graph, metric, comm, n_processors)


def chain_with_branch():
    """Slicing ``a-b-c-d`` gives ``x`` a release anchor and leaves ``y``
    (two hops below the path) with states that ran through ``b``: a
    search that refreshes only the sliced path's direct successors keeps
    ``y``'s stale states."""
    g = TaskGraph()
    g.add_subtask("a", wcet=2.0, release=0.0)
    g.add_subtask("b", wcet=30.0)
    g.add_subtask("c", wcet=30.0)
    g.add_subtask("d", wcet=2.0, end_to_end_deadline=100.0)
    g.add_subtask("x", wcet=5.0)
    g.add_subtask("y", wcet=5.0, end_to_end_deadline=100.0)
    for u, v in [("a", "b"), ("b", "c"), ("c", "d"), ("b", "x"), ("x", "y")]:
        g.add_edge(u, v)
    return g


def chain_with_anchored_feeder():
    """``p`` feeds ``c`` and carries its own (loose) deadline anchor of
    100; slicing ``a-b-c-d`` tightens it to ``c``'s release. ``p``'s
    states do not change, so only a re-score sees the tighter anchor."""
    g = TaskGraph()
    g.add_subtask("a", wcet=2.0, release=0.0)
    g.add_subtask("b", wcet=30.0)
    g.add_subtask("c", wcet=30.0)
    g.add_subtask("d", wcet=2.0, end_to_end_deadline=100.0)
    g.add_subtask("p", wcet=1.0, release=0.0, end_to_end_deadline=100.0)
    for u, v in [("a", "b"), ("b", "c"), ("c", "d"), ("p", "c")]:
        g.add_edge(u, v)
    return g


class TestPinnedGraphs:
    def test_descendants_beyond_direct_successors_are_refreshed(self):
        for metric in ("NORM", "PURE", "THRES", "ADAPT"):
            distribute_checked(chain_with_branch(), metric)

    def test_predecessors_with_tightened_deadline_anchors_are_rescored(self):
        for metric in ("NORM", "PURE", "THRES", "ADAPT"):
            distribute_checked(chain_with_anchored_feeder(), metric)


class TestCounters:
    def test_recomputed_plus_reused_is_the_from_scratch_visit_count(self):
        config = RandomGraphConfig(n_subtasks_range=(40, 40))
        graph = generate_task_graph(config, rng=random.Random(7))
        session = Telemetry()
        with obs.activate(session):
            assignment = ast("ADAPT").distribute(graph, n_processors=4)
        counters = session.metrics.counters
        left = len(ExpandedGraph.for_graph(graph, ast("ADAPT").estimator))
        visits = 0
        for record in assignment.slices:
            visits += left
            left -= len(record.nodes)
        recomputed = counters["slicer.dp_nodes_recomputed"]
        reused = counters["slicer.dp_nodes_reused"]
        assert recomputed + reused == visits
        assert reused > 0


def random_graph(seed, n=12, olr=1.5, ccr=1.0, met=1.0):
    config = RandomGraphConfig(
        n_subtasks_range=(n, n),
        depth_range=(2, min(5, n)),
        overall_laxity_ratio=olr,
        communication_to_computation_ratio=ccr,
        mean_execution_time=met,
    )
    return generate_task_graph(config, rng=random.Random(seed))


def check_all_metrics(graph):
    for metric in ("NORM", "PURE", "THRES", "ADAPT"):
        distribute_checked(graph, metric)


class TestDegenerateGraphs:
    def test_single_subtask(self):
        g = TaskGraph()
        g.add_subtask("solo", wcet=3.0, release=0.0,
                      end_to_end_deadline=10.0)
        check_all_metrics(g)

    def test_zero_edges(self):
        g = TaskGraph()
        for i in range(5):
            g.add_subtask(f"n{i}", wcet=1.0 + i, release=0.0,
                          end_to_end_deadline=20.0)
        check_all_metrics(g)

    def test_over_constrained(self):
        # Deadline below the path workload: the documented collapsed-
        # window regime, with negative candidate windows.
        g = TaskGraph()
        g.add_subtask("a", wcet=5.0, release=0.0)
        g.add_subtask("b", wcet=5.0)
        g.add_subtask("c", wcet=5.0, end_to_end_deadline=6.0)
        g.add_edge("a", "b", message_size=2.0)
        g.add_edge("b", "c", message_size=2.0)
        check_all_metrics(g)

    def test_near_zero_costs(self):
        check_all_metrics(random_graph(11, n=8, ccr=0.0, met=0.001))


class TestTieBreaks:
    """Exact ties resolve by (count, id sequence) among the cached
    candidates exactly as in a fresh scan; a near-tie within 1e-12 is
    not a tie."""

    @staticmethod
    def _two_arm(delta=0.0):
        g = TaskGraph()
        g.add_subtask("a", wcet=2.0, release=0.0)
        g.add_subtask("b1", wcet=4.0)
        g.add_subtask("b2", wcet=4.0 + delta)
        g.add_subtask("z", wcet=1.0, end_to_end_deadline=40.0)
        g.add_edge("a", "b1")
        g.add_edge("a", "b2")
        g.add_edge("b1", "z")
        g.add_edge("b2", "z")
        return g

    def test_exact_tie_resolves_to_the_smaller_id_sequence(self):
        assignment = distribute_checked(self._two_arm(), "PURE")
        assert "b1" in assignment.slices[0].nodes
        assert "b2" not in assignment.slices[0].nodes

    def test_near_tie_is_not_a_tie(self):
        check_all_metrics(self._two_arm(delta=1e-12))

    def test_tied_candidates_at_different_nodes(self):
        # Two outputs with equal-ratio, equal-count candidates: the heap
        # holds both at the same key and the id sequence must decide.
        g = TaskGraph()
        g.add_subtask("s", wcet=2.0, release=0.0)
        g.add_subtask("y", wcet=3.0, end_to_end_deadline=30.0)
        g.add_subtask("x", wcet=3.0, end_to_end_deadline=30.0)
        g.add_edge("s", "y")
        g.add_edge("s", "x")
        assignment = distribute_checked(g, "PURE")
        assert assignment.slices[0].nodes == ("s", "x")

    def test_long_chain_accumulation_order(self):
        # Non-associative float sums: a long chain of decimal costs
        # makes any reassociation of the left fold visible bit-wise.
        g = TaskGraph()
        prev = None
        for i in range(40):
            nid = f"c{i:02d}"
            g.add_subtask(nid, wcet=0.1 + 0.01 * (i % 7))
            if prev is not None:
                g.add_edge(prev, nid, message_size=0.3)
            prev = nid
        g.node("c00").release = 0.0
        g.node(prev).end_to_end_deadline = 50.0
        check_all_metrics(g)


class TestMutationRecompute:
    """Distribute, mutate the graph, distribute again: the search starts
    from the rebuilt expansion and matches a from-scratch copy."""

    @staticmethod
    def _same(graph, metric="PURE"):
        assert (distribute_checked(graph, metric).slices
                == distribute_checked(graph.copy(), metric).slices)

    def test_add_then_remove_subtask(self):
        g = random_graph(21)
        before = distribute_checked(g, "PURE").slices
        tail = g.node_ids()[-1]
        g.add_subtask("extra", wcet=2.5, end_to_end_deadline=90.0)
        g.add_edge(tail, "extra", message_size=1.0)
        self._same(g)
        assert distribute_checked(g, "PURE").slices != before
        g.remove_subtask("extra")
        assert distribute_checked(g, "PURE").slices == before

    def test_attribute_mutation_recomputes(self):
        g = random_graph(22)
        before = distribute_checked(g, "THRES").slices
        node = g.node(g.node_ids()[0])
        node.wcet = node.wcet * 1.5
        self._same(g, "THRES")
        assert distribute_checked(g, "THRES").slices != before

    def test_remove_edge_recomputes(self):
        g = TaskGraph()
        g.add_subtask("a", wcet=2.0, release=0.0)
        g.add_subtask("b", wcet=3.0, release=0.0)
        g.add_subtask("z", wcet=1.0, end_to_end_deadline=30.0)
        g.add_edge("a", "z", message_size=1.0)
        g.add_edge("b", "z", message_size=4.0)
        before = distribute_checked(g, "PURE").slices
        g.remove_edge("b", "z")
        g.node("b").end_to_end_deadline = 30.0  # re-anchor the new output
        self._same(g)
        assert distribute_checked(g, "PURE").slices != before
