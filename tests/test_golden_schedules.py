"""Golden schedules: the list scheduler's placements are frozen.

Where :mod:`tests.test_golden_corpus` freezes the deadline distribution
and the end-to-end records of the default bus, this corpus freezes the
*schedules themselves* — every subtask's processor, start and finish in
placement order, and every message with each hop's link reservation —
over all five interconnects (``bus``, ``fully-connected``, ``ring``,
``mesh``, ``ideal``) × all five selection policies (``EDF``, ``LLF``,
``ERF``, ``LPT``, ``RANDOM``). Three workloads ride the grid:

* ``random``: an unpinned paper-style graph (MET 20, CCR 1);
* ``pinned``: the same graph with every third subtask pinned, so pinned
  placements meet multi-hop routes;
* ``tiny``: 1e-3 METs with messages of 1e-3, sub-``EPS`` and zero size,
  the regime where the bus's ``EPS`` slack decides gap fits.

Two extra cells cover release-time dispatch and a heterogeneous platform.
The snapshots were recorded before the placement kernel was optimized,
and the suite asserts exact equality (``==`` on floats) ever after.

Regenerate (only when an *intentional* schedule change lands) with::

    PYTHONPATH=src python -m tests.test_golden_schedules --regen
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.core import ast
from repro.graph import RandomGraphConfig, generate_task_graph
from repro.graph.taskgraph import TaskGraph
from repro.machine.system import System
from repro.machine.topology import make_interconnect
from repro.sched.list_scheduler import ListScheduler
from repro.sched.policies import make_policy

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "schedule_corpus.json")

SEED = 12031
N_PROCESSORS = 6
TOPOLOGIES = ("bus", "fully-connected", "ring", "mesh", "ideal")
POLICIES = ("EDF", "LLF", "ERF", "LPT", "RANDOM")
MIXED_SPEEDS = (1.0, 2.0, 1.0, 0.5, 1.0, 2.0)


def _graphs() -> Dict[str, TaskGraph]:
    """The corpus workloads, regenerated identically on every run."""
    base = generate_task_graph(
        RandomGraphConfig(n_subtasks_range=(28, 28), depth_range=(5, 6)),
        rng=random.Random(SEED), name="golden-sched-28",
    )
    pinned = base.copy(name="golden-sched-28-pinned")
    for i, node_id in enumerate(pinned.node_ids()):
        if i % 3 == 0:
            pinned.node(node_id).pinned_to = (5 * i) % N_PROCESSORS
    tiny = generate_task_graph(
        RandomGraphConfig(
            n_subtasks_range=(20, 20),
            depth_range=(4, 5),
            mean_execution_time=0.001,
        ),
        rng=random.Random(SEED + 1), name="golden-sched-tiny",
    )
    # A third of the messages carry a sub-EPS payload, a sixth none.
    for i, (src, dst) in enumerate(tiny.edges()):
        if i % 3 == 1:
            tiny.message(src, dst).size = 3e-10 * (1 + i % 4)
        elif i % 6 == 2:
            tiny.message(src, dst).size = 0.0
    return {"random": base, "pinned": pinned, "tiny": tiny}


def _cells() -> List[Tuple[str, str, str, str, bool, Optional[Sequence[float]]]]:
    """(key, graph, topology, policy, respect_release_times, speeds)."""
    cells = []
    for graph_name in ("random", "pinned", "tiny"):
        for topology in TOPOLOGIES:
            for policy in POLICIES:
                cells.append((f"{graph_name}|{topology}|{policy}",
                              graph_name, topology, policy, False, None))
    for topology in ("bus", "ring"):
        cells.append((f"random|{topology}|EDF|release",
                      "random", topology, "EDF", True, None))
    for topology in ("bus", "mesh"):
        cells.append((f"pinned|{topology}|EDF|mixed-speeds",
                      "pinned", topology, "EDF", False, MIXED_SPEEDS))
    return cells


def _snapshot(schedule) -> Dict[str, object]:
    """Exact, JSON-round-trippable image of one Schedule, in placement
    order (the order pins the ready-set tie-break)."""
    return {
        "tasks": [
            [t.node_id, t.processor, t.start, t.finish]
            for t in schedule.tasks.values()
        ],
        "messages": [
            [m.src, m.dst, m.src_processor, m.dst_processor, m.size,
             [[h.link, h.start, h.finish] for h in m.hops]]
            for m in schedule.messages.values()
        ],
    }


def build_corpus() -> Dict[str, object]:
    graphs = _graphs()
    assignments = {
        name: ast("ADAPT").distribute(graph, n_processors=N_PROCESSORS)
        for name, graph in graphs.items()
    }
    corpus: Dict[str, object] = {}
    for key, graph_name, topology, policy, release, speeds in _cells():
        system = System(
            N_PROCESSORS,
            interconnect=make_interconnect(topology, N_PROCESSORS),
            speeds=speeds,
        )
        scheduler = ListScheduler(
            system, policy=make_policy(policy),
            respect_release_times=release,
        )
        schedule = scheduler.schedule(graphs[graph_name],
                                      assignments[graph_name])
        schedule.validate()
        corpus[key] = _snapshot(schedule)
    return corpus


def _load_golden() -> Dict[str, object]:
    if not os.path.exists(GOLDEN_PATH):
        pytest.fail(
            f"golden schedules missing at {GOLDEN_PATH}; regenerate with "
            "`PYTHONPATH=src python -m tests.test_golden_schedules --regen`"
        )
    with open(GOLDEN_PATH) as fp:
        return json.load(fp)


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
def test_corpus_exercises_the_sub_eps_regime():
    tiny = _graphs()["tiny"]
    sizes = [m.size for m in tiny.messages()]
    assert any(0 < s < 1e-9 for s in sizes)
    assert any(s == 0 for s in sizes)
    assert any(s > 1e-9 for s in sizes)


def test_schedules_bit_identical():
    golden = _load_golden()
    fresh = json.loads(json.dumps(build_corpus()))
    assert set(fresh) == set(golden)
    for key in golden:
        assert fresh[key] == golden[key], f"schedule drifted for {key}"


# ----------------------------------------------------------------------
# Regeneration entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="golden schedule recorder")
    parser.add_argument("--regen", action="store_true", required=True)
    parser.parse_args(argv)
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    corpus = build_corpus()
    with open(GOLDEN_PATH, "w") as fp:
        fp.write("{\n")
        rows = [f" {json.dumps(k)}: {json.dumps(corpus[k], sort_keys=True)}"
                for k in sorted(corpus)]
        fp.write(",\n".join(rows))
        fp.write("\n}\n")
    print(f"recorded {len(corpus)} schedules -> {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
