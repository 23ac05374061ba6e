"""Time the deadline-distribution phase through the instrumentation layer.

This is the perf-trajectory probe the CI ``bench_runtime`` job runs on
every PR: it generates pinned-seed workloads, runs all four paper metrics
through :class:`~repro.core.slicer.DeadlineDistributor` across a system
size sweep — the exact shape of one experiment trial's distribute phase —
and reports wall-clock seconds per workload size via
:class:`~repro.feast.instrumentation.PhaseTimings`.

The workload mirrors the runner's reuse semantics (one distributor per
method, size-independent methods cached across the sweep), so the number
tracks what experiments actually pay.

Timings are best-of-N: per-run noise on shared runners dwarfs the
effect being measured otherwise.

Usage::

    PYTHONPATH=src python benchmarks/distribute_timing.py            # full
    PYTHONPATH=src python benchmarks/distribute_timing.py --quick    # CI
    PYTHONPATH=src python benchmarks/distribute_timing.py --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List

from repro.core import ast, bst
from repro.feast.instrumentation import Instrumentation
from repro.graph import RandomGraphConfig, generate_task_graph
import random

#: (label, distributor factory) — the four paper metrics with their
#: canonical estimators (BST: PURE/NORM, AST: THRES/ADAPT over CCNE).
METHODS = (
    ("PURE/CCNE", lambda: bst("PURE", "CCNE")),
    ("NORM/CCAA", lambda: bst("NORM", "CCAA")),
    ("THRES", lambda: ast("THRES")),
    ("ADAPT", lambda: ast("ADAPT")),
)

SIZES_FULL = (16, 32, 64, 128)
SIZES_QUICK = (16, 64)
SEED = 20260806


def _graphs(n_subtasks: int, count: int) -> List:
    config = RandomGraphConfig(
        n_subtasks_range=(n_subtasks, n_subtasks),
        depth_range=(max(2, n_subtasks // 8), max(3, n_subtasks // 6)),
    )
    return [
        generate_task_graph(config, rng=random.Random(SEED + i))
        for i in range(count)
    ]


def time_distribute(
    n_subtasks: int, n_graphs: int, system_sizes=(2, 4, 8, 16), repeats: int = 1
) -> Dict[str, float]:
    """Distribute-phase seconds for one workload size (best of ``repeats``)."""
    graphs = _graphs(n_subtasks, n_graphs)
    best = None
    for _ in range(repeats):
        inst = Instrumentation()
        for label, build in METHODS:
            distributor = build()
            size_dependent = label == "ADAPT"
            for graph in graphs:
                cached = None
                for n_processors in system_sizes:
                    if not size_dependent and cached is not None:
                        continue
                    with inst.phase("distribute"):
                        assignment = distributor.distribute(
                            graph, n_processors=n_processors
                        )
                    if not size_dependent:
                        cached = assignment
        seconds = inst.timings.distribute
        best = seconds if best is None else min(best, seconds)
    trials = len(METHODS) * n_graphs
    return {
        "n_subtasks": n_subtasks,
        "n_graphs": n_graphs,
        "distribute_seconds": best,
        "seconds_per_graph_method": best / trials,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI mode: fewer sizes and graphs (seconds, not minutes)",
    )
    parser.add_argument("--json", default=None, help="write timings as JSON")
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timing repeats per size (default: 3, quick: 1)",
    )
    args = parser.parse_args(argv)

    sizes = SIZES_QUICK if args.quick else SIZES_FULL
    n_graphs = 4 if args.quick else 8
    repeats = args.repeats if args.repeats is not None else (1 if args.quick else 3)

    rows = []
    began = time.perf_counter()
    for n_subtasks in sizes:
        row = time_distribute(n_subtasks, n_graphs, repeats=repeats)
        rows.append(row)
        print(
            f"n_subtasks={n_subtasks:<4} graphs={n_graphs} "
            f"distribute={row['distribute_seconds']:8.3f}s "
            f"({row['seconds_per_graph_method'] * 1e3:8.2f} ms/graph/method)"
        )
    elapsed = time.perf_counter() - began
    print(f"total {elapsed:.1f}s")

    if args.json:
        payload = {
            "benchmark": "distribute_phase",
            "seed": SEED,
            "methods": [label for label, _ in METHODS],
            "rows": rows,
        }
        with open(args.json, "w") as fp:
            json.dump(payload, fp, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
