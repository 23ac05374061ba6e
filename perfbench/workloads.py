"""The benchmark's workloads: pinned inputs, generated from a seed.

Every input the program sees is built here from the ``--seed`` the
benchmark was given; the program receives only the resulting
:class:`~repro.feast.config.ExperimentConfig` or job documents. Why each
workload is in the benchmark is written down in ``README.md``.
"""

from __future__ import annotations

from typing import Any, Dict, List

#: The seed whose records digests are pinned in ``expected.json``.
DEFAULT_SEED = 0


#: Workload name → kind: ``batch`` (``run_experiment(jobs=1)`` in a
#: fresh interpreter) or ``serve`` (open-loop load on ``repro serve``).
WORKLOADS: Dict[str, str] = {
    "figure5-serial": "batch",
    "adapt-large-ideal": "batch",
    "serve-open-loop": "serve",
}

#: Graphs per scenario of one figure5 experiment (81 trials per graph:
#: PURE/THRES/ADAPT × the paper's nine sizes × three scenarios).
FIGURE5_GRAPHS = 24

#: Graphs of one adapt-large-ideal experiment (nine trials per graph).
ADAPT_LARGE_GRAPHS = 48
ADAPT_LARGE_SUBTASKS = (120, 160)

#: Offered load of serve-open-loop on the service, jobs per second; the
#: benchmark's stand-in service takes as many again, between them. Well
#: below the knee: a job costs the server ~15 ms of one core (run,
#: journal, polls), and the two servers together stay under ~60% of a
#: core even when a neighbour slows it ~1.8×, so the run measures
#: latency, not a backlog.
SERVE_RATE = 10.0

#: Poll period of the service client while a job is unfinished.
SERVE_POLL_S = 0.005


def batch_config(workload: str, seed: int):
    """The experiment a batch workload runs for ``seed``."""
    from repro.feast.config import ExperimentConfig
    from repro.feast.experiments import ADAPT, figure5
    from repro.graph.generator import RandomGraphConfig

    if workload == "figure5-serial":
        return figure5(n_graphs=FIGURE5_GRAPHS, seed=seed)[0]
    if workload == "adapt-large-ideal":
        return ExperimentConfig(
            name="adapt-large-ideal",
            description="ADAPT on large HDET graphs, contention-free network",
            methods=(ADAPT,),
            graph_config=RandomGraphConfig(
                n_subtasks_range=ADAPT_LARGE_SUBTASKS),
            scenarios=("HDET",),
            n_graphs=ADAPT_LARGE_GRAPHS,
            seed=seed,
            topology="ideal",
        )
    raise ValueError(f"{workload!r} is not a batch workload")


def serve_document(seed: int, index: int) -> Dict[str, Any]:
    """Job ``index`` of serve-open-loop: the service's reference job.

    6–8-subtask graphs, two system sizes, one PURE method: about 7 ms of
    solver work, so the service's own layers dominate the job's time.

    The fields repeat ``reference_job`` of ``benchmarks/bench_service.py``
    on purpose: that script may be retired, and the benchmark's inputs
    must not change or break when it is. Only the name and the seed
    differ, both derived from the benchmark's ``--seed``.
    """
    return {
        "format": "repro-job",
        "version": 1,
        "name": f"pb-{seed}-{index}",
        "workload": {
            "n_graphs": 2,
            "scenarios": ["MDET"],
            "seed": seed * 100_003 + index,
            "graph_config": {
                "n_subtasks_range": [6, 8],
                "depth_range": [2, 3],
                "degree_range": [1, 2],
            },
        },
        "platform": {"system_sizes": [2, 3]},
        "methods": [{"label": "PURE", "metric": "PURE", "comm": "CCNE"}],
    }


def serve_documents(seed: int, count: int) -> List[Dict[str, Any]]:
    return [serve_document(seed, i) for i in range(count)]
