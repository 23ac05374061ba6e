"""The experiment orchestrator over pluggable execution backends.

Historically this module *was* the parallel engine — work-unit
contract, process-pool supervisor, and canonical reassembly in one
file. The engine now lives in :mod:`repro.feast.backends` (the
work-unit contract in ``backends.work``, the shared chunk driver in
``backends.base``, one module per backend); what remains here is the
orchestration that every backend shares, plus re-exports of the moved
names so existing imports keep working.

:func:`run_parallel_experiment` is the supervised engine behind
``run_experiment``: it resolves the backend (``serial`` for one job,
``pool`` for many, or any registered name passed explicitly), opens the
run span, hands the backend an
:class:`~repro.feast.backends.ExecutionRequest`, and assembles the
returned chunks into canonical records — byte-identical across
backends, worker counts, and shard counts. See the package docstring of
:mod:`repro.feast.backends` for the guarantees, and DESIGN.md §9 for
the determinism argument.

Streaming
---------
``record_sink`` switches the engine into streaming mode: every
completed chunk's records are folded into the sink (in canonical
size → method order within the chunk) as the chunk completes —
including chunks replayed from a checkpoint — and then dropped, so
peak resident records are bounded by the chunk size, not the sweep
size. The result carries no record list (``records == []``,
``streamed_trials`` counts what flowed through); pair it with
:class:`repro.feast.aggregate.StreamingAggregator` for paper-scale
sweeps whose aggregates are all you keep.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

from repro.errors import ExperimentError
from repro.obs import live as obs_live
from repro.obs import runtime as obs
from repro.obs.resources import sample_resources
from repro.feast.config import ExperimentConfig
from repro.feast.instrumentation import Instrumentation
from repro.feast.runner import ExperimentResult, TrialRecord

# Re-exports: this module's original public (and commonly used) names,
# now implemented in repro.feast.backends.
from repro.feast.backends.base import (  # noqa: F401
    BackendOutcome,
    ChunkDriver,
    ExecutionBackend,
    ExecutionRequest,
    assemble_records,
)
from repro.feast.backends.work import (  # noqa: F401
    ChunkKey,
    ChunkResult,
    RetryPolicy,
    TrialSpec,
    default_jobs,
    execute_chunk,
    is_parallelizable,
    resolve_jobs,
    run_chunk,
)
from repro.feast.backends import make_backend  # noqa: F401

__all__ = [
    "BackendOutcome",
    "ChunkDriver",
    "ChunkKey",
    "ChunkResult",
    "ExecutionBackend",
    "ExecutionRequest",
    "RecordSink",
    "RetryPolicy",
    "TrialSpec",
    "assemble_records",
    "default_jobs",
    "execute_chunk",
    "is_parallelizable",
    "make_backend",
    "resolve_jobs",
    "run_chunk",
    "run_parallel_experiment",
]

#: Streaming record hook: called once per record, as chunks complete.
RecordSink = Callable[[TrialRecord], None]


def run_parallel_experiment(
    config: ExperimentConfig,
    jobs: Optional[int] = None,
    progress=None,
    instrumentation: Optional[Instrumentation] = None,
    checkpoint: Optional[str] = None,
    retry: Optional[RetryPolicy] = None,
    fallback_reason: Optional[str] = None,
    backend: Optional[str] = None,
    shards: int = 2,
    record_sink: Optional[RecordSink] = None,
) -> ExperimentResult:
    """Execute ``config`` on an execution backend, fault-tolerantly.

    Prefer calling :func:`repro.feast.runner.run_experiment`, which
    handles serial fallback; this is the engine behind it. ``backend``
    names a registered backend (default: ``"serial"`` when the resolved
    ``jobs`` is 1, else ``"pool"``); ``shards`` only matters to the
    ``subprocess`` backend. Records come back in canonical serial order
    regardless of backend; quarantined chunks' trials are omitted and
    listed in ``ExperimentResult.quarantined``. With ``record_sink``
    set, records stream through the sink instead (see module
    docstring).
    """
    started = time.perf_counter()
    n_jobs = resolve_jobs(jobs)
    backend_name = backend if backend is not None else (
        "serial" if n_jobs == 1 else "pool"
    )
    engine = make_backend(backend_name)

    inst = instrumentation if instrumentation is not None else Instrumentation()
    if progress is not None:
        inst.add_progress(progress)
    policy = retry if retry is not None else RetryPolicy.from_config(config)

    on_chunk = None
    keep_records = True
    if record_sink is not None:
        keep_records = False

        def on_chunk(key: ChunkKey, chunk) -> None:
            # Canonical order *within* the chunk; chunk arrival order is
            # backend-dependent, so sinks must be order-independent
            # across chunks (StreamingAggregator is).
            for n_processors in config.system_sizes:
                for method in config.methods:
                    record_sink(chunk.records[(n_processors, method.label)])

    request = ExecutionRequest(
        config=config,
        instrumentation=inst,
        policy=policy,
        checkpoint=checkpoint,
        jobs=n_jobs,
        shards=shards,
        supervised=True,
        on_chunk=on_chunk,
        keep_records=keep_records,
    )
    engine.prepare(request)
    inst.start(config.n_trials)

    parent_sample = (
        sample_resources() if inst.telemetry is not None else None
    )
    with obs.activate(inst.telemetry):
        with obs.toplevel_span(
            "run", experiment=config.name, jobs=n_jobs,
            engine=backend_name,
        ):
            outcome = engine.run(request)
        # Supervision outcomes become counters exactly once, here in
        # the parent (never inside drivers/workers, whose metrics are
        # adopted into this session and would double-count).
        for name, value in outcome.supervision.as_dict().items():
            if value:
                obs.count(f"supervision.{name}", value)
        if outcome.supervision.any():
            # One terminal supervision summary on the live stream, so a
            # watcher that missed the transitions still sees the totals.
            obs_live.publish(
                "supervision", event="summary", ident="run",
                detail=", ".join(
                    f"{name}={value}"
                    for name, value in outcome.supervision.as_dict().items()
                    if value
                ),
            )
        if parent_sample is not None:
            used = sample_resources().delta(parent_sample)
            obs.gauge("parent.rss_max_kb", used.rss_max_kb)
            inst.telemetry.resources.append(used)
    inst.finish()

    quarantined = sorted(
        outcome.quarantined,
        key=lambda k: (config.scenarios.index(k[0]), k[1]),
    )
    expected = config.n_trials - config.trials_per_graph * len(quarantined)
    records: List[TrialRecord] = []
    if keep_records:
        records = assemble_records(config, outcome.chunks, outcome.quarantined)
        if len(records) != expected:
            raise ExperimentError(
                f"experiment {config.name!r} produced {len(records)} records "
                f"but planned {expected}"
            )
    elif outcome.streamed_trials != expected:
        raise ExperimentError(
            f"experiment {config.name!r} streamed {outcome.streamed_trials} "
            f"records but planned {expected}"
        )
    if outcome.degraded_reason is not None and fallback_reason is None:
        fallback_reason = outcome.degraded_reason
    return ExperimentResult(
        config=config,
        records=records,
        elapsed_seconds=time.perf_counter() - started,
        timings=inst.timings,
        jobs=n_jobs,
        failures=list(outcome.failures),
        quarantined=quarantined,
        fallback_reason=fallback_reason,
        streamed_trials=outcome.streamed_trials,
        supervision=outcome.supervision,
    )
