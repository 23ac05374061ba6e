"""Random task-graph generator (paper Section 5.2).

The paper's workload: 128 task graphs per configuration, each with

* 40–60 subtasks,
* uniformly distributed execution times with mean execution time (MET) 20,
  deviating at most ±25 % (LDET), ±50 % (MDET) or ±99 % (HDET) from MET,
* graph depth chosen at random in 8–12 levels,
* per-subtask predecessor count chosen at random in 1–3,
* an end-to-end deadline per input-output pair such that the overall laxity
  ratio (OLR) between the deadline and the accumulated task-graph workload
  is 1.5,
* message sizes such that the communication-to-computation cost ratio (CCR)
  between the average message cost and the average execution time is 1.0.

The OLR sentence is ambiguous about its base ("accumulated task graph
workload"); :class:`RandomGraphConfig.olr_basis` selects the literal
graph-workload reading (default) or a per-path reading. See DESIGN.md §5.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.errors import GeneratorError
from repro.graph.taskgraph import TaskGraph
from repro.types import Time

#: Execution-time deviation of the paper's three scenarios.
LDET = 0.25
MDET = 0.50
HDET = 0.99

#: Scenario names, in the order the paper plots them.
SCENARIOS: Dict[str, float] = {"LDET": LDET, "MDET": MDET, "HDET": HDET}

#: Valid values of :attr:`RandomGraphConfig.olr_basis`.
OLR_BASES = ("graph-workload", "path-workload")


@dataclass(frozen=True)
class RandomGraphConfig:
    """Parameters of the random task-graph generator.

    Defaults reproduce the paper's Section 5.2 setup with the MDET
    execution-time scenario.
    """

    n_subtasks_range: Tuple[int, int] = (40, 60)
    mean_execution_time: Time = 20.0
    execution_time_deviation: float = MDET
    depth_range: Tuple[int, int] = (8, 12)
    degree_range: Tuple[int, int] = (1, 3)
    overall_laxity_ratio: float = 1.5
    olr_basis: str = "graph-workload"
    communication_to_computation_ratio: float = 1.0
    message_size_deviation: float = 0.5
    #: Probability that a predecessor is drawn from *any* earlier level
    #: instead of the immediately preceding one (longer-range edges).
    long_edge_probability: float = 0.2
    integer_times: bool = False

    def __post_init__(self) -> None:
        lo, hi = self.n_subtasks_range
        d_lo, d_hi = self.depth_range
        g_lo, g_hi = self.degree_range
        if lo < 1 or hi < lo:
            raise GeneratorError(f"bad n_subtasks_range {self.n_subtasks_range}")
        if d_lo < 1 or d_hi < d_lo:
            raise GeneratorError(f"bad depth_range {self.depth_range}")
        if g_lo < 1 or g_hi < g_lo:
            raise GeneratorError(f"bad degree_range {self.degree_range}")
        if self.mean_execution_time <= 0:
            raise GeneratorError("mean_execution_time must be > 0")
        if not 0 <= self.execution_time_deviation < 1:
            raise GeneratorError(
                "execution_time_deviation must be in [0, 1); "
                f"got {self.execution_time_deviation}"
            )
        if self.overall_laxity_ratio <= 0:
            raise GeneratorError("overall_laxity_ratio must be > 0")
        if self.olr_basis not in OLR_BASES:
            raise GeneratorError(
                f"olr_basis must be one of {OLR_BASES}, got {self.olr_basis!r}"
            )
        if self.communication_to_computation_ratio < 0:
            raise GeneratorError("communication_to_computation_ratio must be >= 0")
        if not 0 <= self.message_size_deviation < 1:
            raise GeneratorError("message_size_deviation must be in [0, 1)")
        if not 0 <= self.long_edge_probability <= 1:
            raise GeneratorError("long_edge_probability must be in [0, 1]")

    def with_scenario(self, scenario: str) -> "RandomGraphConfig":
        """Copy with the execution-time deviation of a named scenario
        (``"LDET"``, ``"MDET"`` or ``"HDET"``)."""
        if scenario not in SCENARIOS:
            raise GeneratorError(
                f"unknown scenario {scenario!r}; expected one of {list(SCENARIOS)}"
            )
        return replace(self, execution_time_deviation=SCENARIOS[scenario])


#: The paper's default configuration (choose a scenario with
#: :meth:`RandomGraphConfig.with_scenario`).
PAPER_CONFIG = RandomGraphConfig()


def generate_task_graph(
    config: RandomGraphConfig = PAPER_CONFIG,
    rng: Optional[random.Random] = None,
    name: Optional[str] = None,
) -> TaskGraph:
    """Generate one random task graph per ``config``.

    ``rng`` makes generation reproducible; pass ``random.Random(seed)``.
    """
    rng = rng if rng is not None else random.Random()
    n = rng.randint(*config.n_subtasks_range)
    depth = rng.randint(*config.depth_range)
    if n < depth:
        raise GeneratorError(
            f"cannot place {n} subtasks on {depth} levels (need n >= depth)"
        )
    graph = TaskGraph(name=name if name is not None else f"random-{n}x{depth}")

    levels = _assign_levels(n, depth, rng)
    _add_subtasks(graph, levels, config, rng)
    _wire_edges(graph, levels, config, rng)
    _assign_message_sizes(graph, config, rng)
    _anchor_deadlines(graph, config)
    graph.validate()
    return graph


def generate_task_graphs(
    count: int,
    config: RandomGraphConfig = PAPER_CONFIG,
    seed: int = 0,
) -> List[TaskGraph]:
    """Generate ``count`` independent graphs with derived per-graph seeds.

    Graph ``i`` is produced from ``random.Random(seed * 1_000_003 + i)`` so a
    sweep over configurations can reuse identical graph structures by fixing
    ``seed`` (paired-comparison experiments, as the paper's figure panels do).
    """
    return [
        generate_task_graph(
            config,
            rng=random.Random(seed * 1_000_003 + i),
            name=f"random-{seed}-{i}",
        )
        for i in range(count)
    ]


# ----------------------------------------------------------------------
# Generation phases
# ----------------------------------------------------------------------
def _assign_levels(n: int, depth: int, rng: random.Random) -> List[List[str]]:
    """Partition ``n`` node ids over ``depth`` non-empty levels."""
    counts = [1] * depth
    for _ in range(n - depth):
        counts[rng.randrange(depth)] += 1
    levels: List[List[str]] = []
    idx = 0
    for lvl, count in enumerate(counts):
        levels.append([f"t{idx + k:03d}" for k in range(count)])
        idx += count
    return levels


def _draw_execution_time(config: RandomGraphConfig, rng: random.Random) -> Time:
    met = config.mean_execution_time
    dev = config.execution_time_deviation
    c = rng.uniform(met * (1 - dev), met * (1 + dev))
    if config.integer_times:
        c = max(1.0, round(c))
    return c


def _add_subtasks(
    graph: TaskGraph,
    levels: List[List[str]],
    config: RandomGraphConfig,
    rng: random.Random,
) -> None:
    for level in levels:
        for node_id in level:
            graph.add_subtask(node_id, wcet=_draw_execution_time(config, rng))


def _wire_edges(
    graph: TaskGraph,
    levels: List[List[str]],
    config: RandomGraphConfig,
    rng: random.Random,
) -> None:
    """Connect levels so the realized depth equals ``len(levels)``.

    Every node below the first level draws 1–3 predecessors; at least one
    predecessor comes from the immediately preceding level, which pins the
    graph depth to the intended value. Nodes left without successors on
    non-final levels are attached forward so outputs sit on the last level.
    """
    g_lo, g_hi = config.degree_range
    for lvl in range(1, len(levels)):
        prev = levels[lvl - 1]
        earlier = [node for l in levels[:lvl] for node in l]
        for node in levels[lvl]:
            k = rng.randint(g_lo, min(g_hi, len(earlier)))
            preds = {rng.choice(prev)}
            while len(preds) < k:
                pool = (
                    earlier
                    if rng.random() < config.long_edge_probability
                    else prev
                )
                preds.add(rng.choice(pool))
            for p in sorted(preds):
                if not graph.has_edge(p, node):
                    graph.add_edge(p, node)
    # Forward-attach childless interior nodes.
    for lvl in range(len(levels) - 1):
        nxt = levels[lvl + 1]
        for node in levels[lvl]:
            if graph.out_degree(node) == 0:
                graph.add_edge(node, rng.choice(nxt))


def _assign_message_sizes(
    graph: TaskGraph, config: RandomGraphConfig, rng: random.Random
) -> None:
    """Draw message sizes with mean CCR × MET (paper: CCR between *average*
    message cost and *average* execution time)."""
    mean_size = (
        config.communication_to_computation_ratio * config.mean_execution_time
    )
    if mean_size <= 0:
        return
    dev = config.message_size_deviation
    for msg in graph.messages():
        size = rng.uniform(mean_size * (1 - dev), mean_size * (1 + dev))
        if config.integer_times:
            size = max(0.0, round(size))
        graph.message(msg.src, msg.dst).size = size


def _anchor_deadlines(graph: TaskGraph, config: RandomGraphConfig) -> None:
    """Release inputs at 0; anchor output deadlines per the OLR.

    ``graph-workload`` basis: every output gets
    ``D = OLR × total_workload`` (literal reading of the paper).
    ``path-workload`` basis: each output gets
    ``D = OLR × (heaviest execution-time path ending at it)``.
    """
    for node_id in graph.input_subtasks():
        graph.node(node_id).release = 0.0
    if config.olr_basis == "graph-workload":
        deadline = config.overall_laxity_ratio * graph.total_workload()
        for node_id in graph.output_subtasks():
            graph.node(node_id).end_to_end_deadline = deadline
        return
    heaviest = _heaviest_prefix(graph)
    for node_id in graph.output_subtasks():
        graph.node(node_id).end_to_end_deadline = (
            config.overall_laxity_ratio * heaviest[node_id]
        )


def _heaviest_prefix(graph: TaskGraph) -> Dict[str, Time]:
    """For each node, the heaviest execution-time path ending at it."""
    prefix: Dict[str, Time] = {}
    for n in graph.topological_order():
        best = max((prefix[p] for p in graph.predecessors(n)), default=0.0)
        prefix[n] = best + graph.node(n).wcet
    return prefix
