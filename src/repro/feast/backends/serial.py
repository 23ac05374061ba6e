"""In-process execution: the classic sweep loop and the serial backend.

Two serial modes live here, with different failure semantics:

* :func:`run_classic_serial` — the original 4-deep sweep loop
  (scenario → size → method → graph), fail-fast, per-*trial* progress.
  ``run_experiment(jobs=1)`` with no fault-tolerance features uses it;
  it predates the backend layer and stays because its per-trial progress
  granularity and raise-on-first-error contract are part of the public
  API.
* :class:`SerialBackend` — the chunked driver loop: same process, but
  work flows through the shared :class:`~.base.ChunkDriver`, so
  retry/quarantine, checkpoint journaling, and streaming all work with
  one worker. This is also the degraded mode of the pool backend and the
  engine inside every shard worker.

Both produce byte-identical records (the chunk loop is the serial loop
with its nesting permuted, which canonical assembly undoes).
"""

from __future__ import annotations

import time
from typing import Dict

from repro.errors import ExperimentError
from repro.obs import live as obs_live
from repro.obs import runtime as obs
from repro.core.annotations import DeadlineAssignment
from repro.feast.config import ExperimentConfig, speeds_for
from repro.feast.instrumentation import Instrumentation
from repro.feast.runner import (
    ExperimentResult,
    distribute_for_trial,
    graph_for_trial,
    make_record,
    run_trial,
)
from repro.machine.system import System
from repro.machine.topology import make_interconnect
from repro.feast.backends.base import (
    BackendOutcome,
    ChunkDriver,
    ExecutionBackend,
    ExecutionRequest,
)


class SerialBackend(ExecutionBackend):
    """Chunked in-process execution behind the backend interface.

    One chunk at a time, this process — but with the full supervised
    feature set (retry, quarantine, checkpoint/resume, streaming), which
    the classic loop lacks. Crash/hang protection needs worker
    processes and is unavailable here.
    """

    name = "serial"

    def run(self, request: ExecutionRequest) -> BackendOutcome:
        journal = None
        if request.checkpoint is not None:
            from repro.feast.persistence import CheckpointJournal

            journal = CheckpointJournal(request.checkpoint, request.config)
        driver = ChunkDriver(
            request.config,
            request.instrumentation,
            request.policy,
            journal=journal,
            on_chunk=request.on_chunk,
            keep_records=request.keep_records,
        )
        try:
            driver.run_in_process()
        finally:
            if journal is not None:
                journal.close()
        return driver.outcome()


def run_classic_serial(
    config: ExperimentConfig, inst: Instrumentation
) -> ExperimentResult:
    """The original fail-fast serial sweep (per-trial progress)."""
    started = time.perf_counter()
    result = ExperimentResult(config=config, timings=inst.timings, jobs=1)
    inst.start(config.n_trials)

    with obs.activate(inst.telemetry), obs.toplevel_span(
        "run", experiment=config.name, jobs=1, engine="serial"
    ):
        for scenario_no, scenario in enumerate(config.scenarios):
            graph_config = config.graph_config.with_scenario(scenario)
            # Coarse progress for live watchers: the classic loop has no
            # chunk completions, so one event per scenario stands in.
            obs_live.publish(
                "progress",
                scenario=scenario,
                index=scenario_no,
                trials=inst.trials_completed,
                replayed=False,
                done_chunks=scenario_no,
            )
            with obs.span("scenario", scenario=scenario):
                with inst.phase("generate"):
                    graphs = [
                        graph_for_trial(config, graph_config, scenario, i)
                        for i in range(config.n_graphs)
                    ]
                # Distributions reusable across the size sweep (non-ADAPT
                # methods), keyed by (method label, graph index).
                reusable: Dict[object, DeadlineAssignment] = {}
                for n_processors in config.system_sizes:
                    speeds = speeds_for(config.speed_profile, n_processors)
                    system = System(
                        n_processors,
                        interconnect=make_interconnect(
                            config.topology, n_processors
                        ),
                        speeds=speeds,
                    )
                    total_capacity = float(sum(speeds))
                    for method in config.methods:
                        distributor = method.build()
                        for index, graph in enumerate(graphs):
                            with obs.span(
                                "trial",
                                scenario=scenario,
                                index=index,
                                n_processors=n_processors,
                                method=method.label,
                            ):
                                began = time.perf_counter()
                                with inst.phase("distribute"):
                                    assignment = distribute_for_trial(
                                        method,
                                        distributor,
                                        graph,
                                        n_processors,
                                        total_capacity,
                                        reusable,
                                        (method.label, index),
                                    )
                                obs.observe(
                                    f"distribute.seconds.n{graph.n_subtasks}",
                                    time.perf_counter() - began,
                                )
                                with inst.phase("schedule"):
                                    metrics = run_trial(
                                        graph,
                                        assignment,
                                        system,
                                        policy_name=config.policy,
                                        respect_release_times=(
                                            config.respect_release_times
                                        ),
                                    )
                                obs.count("engine.trials_measured")
                            result.records.append(
                                make_record(
                                    config, scenario, n_processors, method,
                                    index, assignment, metrics,
                                )
                            )
                            inst.completed()

    if len(result.records) != config.n_trials:
        raise ExperimentError(
            f"experiment {config.name!r} produced {len(result.records)} "
            f"records but planned {config.n_trials}"
        )
    result.elapsed_seconds = time.perf_counter() - started
    inst.finish()
    return result
