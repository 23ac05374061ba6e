"""Shared hypothesis strategies for seeded random workloads.

The property-test modules all need the same three inputs — a generator
configuration spanning the paper's parameter space, a graph produced by
the library's own generator, and a raw hand-anchored DAG built
edge-by-edge — and had grown private copies of each. They live here once,
seeded and shrinkable, together with the shared hypothesis settings.

Everything routes randomness through drawn integer seeds feeding
``random.Random``, so hypothesis can shrink a failing workload to a
smaller seed and examples replay deterministically.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from repro.graph import RandomGraphConfig, generate_task_graph
from repro.graph.taskgraph import TaskGraph

#: Execution-time deviations of the paper's LDET / MDET / HDET scenarios.
DEVIATIONS = (0.25, 0.5, 0.99)


def default_settings(max_examples: int = 25) -> settings:
    """The suite's standard profile: seeded workloads are slow to build,
    so the per-example deadline is off and ``too_slow`` is suppressed."""
    return settings(
        max_examples=max_examples,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


@st.composite
def small_graph_configs(draw) -> RandomGraphConfig:
    """Generator configurations over the paper's Section 5.2 space,
    scaled down to graphs small enough for exhaustive checking."""
    n_lo = draw(st.integers(min_value=5, max_value=15))
    n_hi = n_lo + draw(st.integers(min_value=0, max_value=10))
    d_lo = draw(st.integers(min_value=2, max_value=4))
    # Every drawn depth must be placeable for every drawn subtask count.
    d_hi = d_lo + draw(st.integers(min_value=0, max_value=max(0, n_lo - d_lo)))
    d_hi = min(d_hi, n_lo)
    return RandomGraphConfig(
        n_subtasks_range=(n_lo, n_hi),
        depth_range=(d_lo, d_hi),
        execution_time_deviation=draw(st.sampled_from(DEVIATIONS)),
        overall_laxity_ratio=draw(st.sampled_from([1.1, 1.5, 3.0])),
        communication_to_computation_ratio=draw(
            st.sampled_from([0.0, 0.5, 1.0, 2.0])
        ),
        olr_basis=draw(st.sampled_from(["graph-workload", "path-workload"])),
    )


@st.composite
def stress_graph_configs(draw) -> RandomGraphConfig:
    """Configurations stressing the distribution pipeline's edge regimes:
    laxity ratios on *both* sides of feasibility (OLR < 1 forces the
    documented over-constrained collapsed-window regime), the
    communication-free case, and near-zero mean execution times."""
    n_lo = draw(st.integers(min_value=3, max_value=20))
    n_hi = n_lo + draw(st.integers(min_value=0, max_value=12))
    d_lo = min(draw(st.integers(min_value=2, max_value=4)), n_lo)
    d_hi = min(d_lo + draw(st.integers(min_value=0, max_value=3)), n_lo)
    return RandomGraphConfig(
        n_subtasks_range=(n_lo, n_hi),
        depth_range=(d_lo, d_hi),
        mean_execution_time=draw(st.sampled_from([0.001, 1.0, 20.0])),
        execution_time_deviation=draw(st.sampled_from(DEVIATIONS)),
        overall_laxity_ratio=draw(st.sampled_from([0.5, 0.9, 1.1, 2.0])),
        communication_to_computation_ratio=draw(
            st.sampled_from([0.0, 0.5, 2.0])
        ),
        olr_basis=draw(st.sampled_from(["graph-workload", "path-workload"])),
    )


@st.composite
def generated_graphs(draw, config_strategy=None) -> TaskGraph:
    """A graph from the library's own generator under a drawn config."""
    config = draw(
        config_strategy if config_strategy is not None
        else small_graph_configs()
    )
    seed = draw(st.integers(0, 10_000))
    return generate_task_graph(config, rng=random.Random(seed))


@st.composite
def slicing_graphs(draw) -> TaskGraph:
    """A stress-regime graph (:func:`stress_graph_configs`: OLR < 1,
    CCR = 0, 1e-3 METs) with a drawn share of subtasks pinned to
    processors and release / deadline anchors on drawn interior subtasks,
    so slices start and end inside the graph and pinned pairs change the
    communication estimates."""
    from repro.core.pinning import pin_random_fraction

    graph = draw(generated_graphs(config_strategy=stress_graph_configs()))
    rng = random.Random(draw(st.integers(0, 10_000)))
    graph = pin_random_fraction(
        graph, draw(st.sampled_from([0.0, 0.3, 1.0])), n_processors=3, rng=rng
    )
    share = draw(st.sampled_from([0.0, 0.2, 0.5]))
    inputs = set(graph.input_subtasks())
    outputs = set(graph.output_subtasks())
    horizon = max(graph.node(o).end_to_end_deadline for o in outputs)
    for node_id in graph.node_ids():
        if node_id in inputs or node_id in outputs:
            continue
        node = graph.node(node_id)
        if rng.random() < share:
            node.release = rng.uniform(0.0, 0.5 * horizon)
        if rng.random() < share:
            node.end_to_end_deadline = rng.uniform(0.25 * horizon, horizon)
    return graph


@st.composite
def workloads(draw) -> TaskGraph:
    """The extension modules' workload: a compact generated graph with
    varied deviation and CCR (fixed shape bracket)."""
    config = RandomGraphConfig(
        n_subtasks_range=(6, 16),
        depth_range=(2, 5),
        execution_time_deviation=draw(st.sampled_from(DEVIATIONS)),
        communication_to_computation_ratio=draw(
            st.sampled_from([0.0, 1.0, 2.0])
        ),
    )
    seed = draw(st.integers(0, 100_000))
    return generate_task_graph(config, rng=random.Random(seed))


@st.composite
def raw_dags(draw) -> TaskGraph:
    """A DAG built edge-by-edge (forward edges only), anchored by hand.

    Unlike :func:`generated_graphs` this is not constrained to the
    generator's level structure, so it reaches shapes (isolated nodes,
    long skip edges, arc-free graphs) the generator cannot emit.
    """
    n = draw(st.integers(min_value=2, max_value=12))
    g = TaskGraph()
    for i in range(n):
        g.add_subtask(
            f"n{i:02d}",
            wcet=draw(st.floats(min_value=0.5, max_value=50.0, allow_nan=False)),
        )
    ids = g.node_ids()
    for j in range(1, n):
        for i in range(j):
            if draw(st.booleans()) and draw(st.booleans()):
                g.add_edge(
                    ids[i],
                    ids[j],
                    message_size=draw(st.floats(min_value=0.0, max_value=30.0)),
                )
    deadline = 3.0 * g.total_workload() + 10.0
    for node_id in g.input_subtasks():
        g.node(node_id).release = 0.0
    for node_id in g.output_subtasks():
        g.node(node_id).end_to_end_deadline = deadline
    return g


#: Method specs the service property tests draw from (distinct labels).
JOB_METHOD_POOL = (
    {"label": "NORM", "metric": "NORM", "comm": "CCNE"},
    {"label": "PURE", "metric": "PURE", "comm": "CCNE"},
    {"label": "PURE/AA", "metric": "PURE", "comm": "CCAA"},
    {"label": "THRES", "metric": "THRES", "comm": "CCNE", "threshold_factor": 1.5},
    {"label": "EQS", "metric": "PURE", "comm": "CCNE", "baseline": "EQS"},
)


@st.composite
def job_documents(draw) -> dict:
    """A valid ``repro-job`` service document (see repro.serve.jobs).

    Spans both workload modes — generator parameters (including the
    OLR < 1 over-constrained and CCR = 0 communication-free degenerate
    regimes) and explicit inline ``repro-taskgraph`` documents — plus a
    drawn platform sweep and method set, while staying small enough
    that a server round trip is fast. The document is what goes over
    the wire; the matching oracle is ``compile_job`` + a direct
    in-process run.
    """
    from repro.graph.serialization import graph_to_dict

    n_methods = draw(st.integers(min_value=1, max_value=3))
    indices = draw(
        st.lists(
            st.integers(0, len(JOB_METHOD_POOL) - 1),
            min_size=n_methods, max_size=n_methods, unique=True,
        )
    )
    methods = [dict(JOB_METHOD_POOL[i]) for i in indices]
    platform = {
        "system_sizes": draw(
            st.lists(st.integers(2, 6), min_size=1, max_size=2, unique=True)
        ),
        "topology": draw(st.sampled_from(["bus", "ring", "fully-connected"])),
        "policy": draw(st.sampled_from(["EDF", "LLF"])),
        "speed_profile": draw(st.sampled_from(["uniform", "mixed"])),
    }
    document = {
        "format": "repro-job",
        "version": 1,
        "name": draw(st.sampled_from(["prop", "roundtrip", "svc"])),
        "platform": platform,
        "methods": methods,
    }
    if draw(st.booleans()):
        # generated workload, degenerate regimes included
        document["workload"] = {
            "n_graphs": draw(st.integers(min_value=1, max_value=3)),
            "scenarios": draw(
                st.lists(
                    st.sampled_from(["LDET", "MDET", "HDET"]),
                    min_size=1, max_size=2, unique=True,
                )
            ),
            "seed": draw(st.integers(0, 10_000)),
            "graph_config": {
                "n_subtasks_range": [5, 9],
                "depth_range": [2, 3],
                "degree_range": [1, 2],
                "overall_laxity_ratio": draw(
                    st.sampled_from([0.5, 0.9, 1.5, 3.0])
                ),
                "communication_to_computation_ratio": draw(
                    st.sampled_from([0.0, 0.5, 2.0])
                ),
                "olr_basis": draw(
                    st.sampled_from(["graph-workload", "path-workload"])
                ),
            },
        }
    else:
        config = RandomGraphConfig(
            n_subtasks_range=(5, 9),
            depth_range=(2, 3),
            degree_range=(1, 2),
            overall_laxity_ratio=draw(st.sampled_from([0.5, 1.5])),
            communication_to_computation_ratio=draw(st.sampled_from([0.0, 1.0])),
        )
        seed = draw(st.integers(0, 10_000))
        document["graphs"] = [
            graph_to_dict(generate_task_graph(config, rng=random.Random(seed + i)))
            for i in range(draw(st.integers(min_value=1, max_value=3)))
        ]
    return document
