"""Experiment execution: generate → distribute → schedule → measure.

:func:`run_experiment` executes an :class:`~repro.feast.config.ExperimentConfig`
and returns an :class:`ExperimentResult` holding one :class:`TrialRecord`
per (scenario, system size, method, graph). ``jobs > 1`` fans the trials
out over worker processes (:mod:`repro.feast.parallel`) and produces
records identical to a serial run.

Seeding / pairing contract
--------------------------
Graph ``index`` of scenario ``scenario`` is always generated from
``random.Random(trial_seed(config.seed, scenario, index))``, where the
seed folds a stable (process-independent) hash of the scenario name into
the experiment seed. Consequences, relied on throughout the harness:

* every method and every system size sees the *same* graphs — the paired
  design behind the paper's per-panel comparisons and the harness's
  paired statistics;
* different scenarios draw *independent* workloads (they differ in
  structure, not only in execution times);
* a worker process can regenerate any (scenario, index) graph locally
  from its seed — nothing large crosses the process boundary — and the
  regenerated graph is identical to the serial one;
* custom ``graph_factory`` callables receive exactly the same seeded rng
  stream as the built-in generator would for that (scenario, index).

Deadline distributions that do not depend on the system size (everything
except ADAPT) are computed once per (method, scenario, graph) — with *no*
platform arguments, so the cache cannot capture one sweep size's platform
— and re-stamped with the current platform when reused across the size
sweep.
"""

from __future__ import annotations

import hashlib
import random
import warnings
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover — annotation-only import
    from repro.feast.backends.base import SupervisionStats

from repro.core.annotations import DeadlineAssignment
from repro.errors import (
    ExperimentError,
    ExperimentWarning,
    QuarantinedTrialError,
)
from repro.feast.config import ExperimentConfig, MethodSpec
from repro.feast.instrumentation import (
    Instrumentation,
    PhaseTimings,
    ProgressFn,
    TrialFailure,
)
from repro.graph.generator import RandomGraphConfig, generate_task_graph
from repro.graph.taskgraph import TaskGraph
from repro.machine.system import System
from repro.sched.analysis import ScheduleMetrics, schedule_metrics
from repro.sched.list_scheduler import ListScheduler
from repro.sched.policies import make_policy

#: Seed-spreading multiplier (same prime the graph generator uses).
SEED_STRIDE = 1_000_003


def scenario_seed(seed: int, scenario: str) -> int:
    """Base seed of one scenario's graph batch.

    Folds a stable hash of the scenario name (blake2b, so identical in
    every process and on every platform — unlike builtin ``hash``) into
    the experiment seed, giving each scenario an independent workload.
    """
    digest = hashlib.blake2b(
        scenario.encode("utf-8"), digest_size=4
    ).digest()
    return seed * SEED_STRIDE + int.from_bytes(digest, "big")


def trial_seed(seed: int, scenario: str, index: int) -> int:
    """The rng seed generating graph ``index`` of ``scenario``.

    This is the whole pairing contract: any process, at any time, passing
    the same ``(seed, scenario, index)`` regenerates the same graph.
    """
    return scenario_seed(seed, scenario) * SEED_STRIDE + index


def graph_for_trial(
    config: ExperimentConfig,
    graph_config: RandomGraphConfig,
    scenario: str,
    index: int,
) -> TaskGraph:
    """Materialize graph ``index`` of ``scenario`` per the seeding contract.

    ``graph_config`` must already carry the scenario's execution-time
    deviation (``config.graph_config.with_scenario(scenario)``). Raises
    :class:`ExperimentError` when a custom factory returns anything but a
    single :class:`TaskGraph` — one call produces exactly one graph, so
    the record count always matches ``config.n_trials`` and progress can
    never exceed 100 %.

    A factory with a truthy ``needs_trial_coords`` attribute is called
    as ``factory(graph_config, rng, scenario=..., index=...)`` — the
    protocol for workloads that *select* a fixed graph per trial rather
    than generating one from the RNG.
    """
    rng = random.Random(trial_seed(config.seed, scenario, index))
    if config.graph_factory is not None:
        if getattr(config.graph_factory, "needs_trial_coords", False):
            # Index-aware factories (e.g. explicit workloads submitted
            # to repro.serve) select the graph by trial coordinates
            # instead of consuming the RNG.
            graph = config.graph_factory(
                graph_config, rng, scenario=scenario, index=index
            )
        else:
            graph = config.graph_factory(graph_config, rng)
        if not isinstance(graph, TaskGraph):
            raise ExperimentError(
                f"graph_factory must return one TaskGraph per call, got "
                f"{type(graph).__name__!r} for scenario {scenario!r} "
                f"index {index}"
            )
        return graph
    return generate_task_graph(
        graph_config,
        rng=rng,
        name=f"random-{scenario_seed(config.seed, scenario)}-{index}",
    )


@dataclass(frozen=True)
class TrialRecord:
    """Measurements of one (scenario, size, method, graph) trial."""

    experiment: str
    scenario: str
    n_processors: int
    method: str
    graph_index: int
    max_lateness: float
    mean_lateness: float
    n_late: int
    makespan: float
    mean_utilization: float
    min_laxity: float
    #: Against the application's end-to-end anchors (strategy-independent).
    max_end_to_end_lateness: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "experiment": self.experiment,
            "scenario": self.scenario,
            "n_processors": self.n_processors,
            "method": self.method,
            "graph_index": self.graph_index,
            "max_lateness": self.max_lateness,
            "mean_lateness": self.mean_lateness,
            "n_late": self.n_late,
            "makespan": self.makespan,
            "mean_utilization": self.mean_utilization,
            "min_laxity": self.min_laxity,
            "max_end_to_end_lateness": self.max_end_to_end_lateness,
        }


@dataclass
class ExperimentResult:
    """All trial records of one experiment run, plus bookkeeping."""

    config: ExperimentConfig
    records: List[TrialRecord] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: Per-phase wall-clock totals (summed across workers when parallel).
    timings: Optional[PhaseTimings] = None
    #: Worker processes the run used (1 = serial).
    jobs: int = 1
    #: Every fault event the run survived (crashes, timeouts, exceptions,
    #: slow trials, quarantines), in observation order. Empty on a clean
    #: run.
    failures: List[TrialFailure] = field(default_factory=list)
    #: (scenario, graph index) chunks that exhausted their retry budget;
    #: their trials are *missing* from ``records``. Empty on a clean run.
    quarantined: List[Tuple[str, int]] = field(default_factory=list)
    #: Why the run executed on fewer workers than requested (unpicklable
    #: config, repeated pool deaths, failing shards); ``None`` when
    #: nothing degraded.
    fallback_reason: Optional[str] = None
    #: Trials whose records were streamed into a ``record_sink`` instead
    #: of being kept on ``records`` (0 for non-streaming runs).
    streamed_trials: int = 0
    #: Liveness/failover accounting from the execution backend
    #: (:class:`repro.feast.backends.SupervisionStats`): stalls detected,
    #: kill escalations, relaunches, failovers, reassigned and replayed
    #: chunks. ``None`` on the classic unsupervised serial path.
    supervision: Optional["SupervisionStats"] = None

    @property
    def complete(self) -> bool:
        """Whether every planned trial produced a record."""
        return not self.quarantined

    def check(self) -> "ExperimentResult":
        """Return ``self``, or raise if any trials were quarantined.

        For callers that prefer the old fail-fast behavior over a
        partial result.
        """
        if self.quarantined:
            chunks = ", ".join(
                f"({scenario}, {index})"
                for scenario, index in self.quarantined
            )
            raise QuarantinedTrialError(
                f"experiment {self.config.name!r} quarantined "
                f"{len(self.quarantined)} chunk(s): {chunks}"
            )
        return self

    def filter(
        self,
        scenario: Optional[str] = None,
        method: Optional[str] = None,
        n_processors: Optional[int] = None,
    ) -> List[TrialRecord]:
        """Records matching all the given criteria."""
        out = self.records
        if scenario is not None:
            out = [r for r in out if r.scenario == scenario]
        if method is not None:
            out = [r for r in out if r.method == method]
        if n_processors is not None:
            out = [r for r in out if r.n_processors == n_processors]
        return list(out)

    def __len__(self) -> int:
        return len(self.records)


def run_trial(
    graph: TaskGraph,
    assignment: DeadlineAssignment,
    system: System,
    policy_name: str = "EDF",
    respect_release_times: bool = False,
) -> ScheduleMetrics:
    """Schedule one annotated graph and return its metrics."""
    scheduler = ListScheduler(
        system,
        policy=make_policy(policy_name),
        respect_release_times=respect_release_times,
    )
    schedule = scheduler.schedule(graph, assignment)
    return schedule_metrics(schedule, assignment)


def distribute_for_trial(
    method: MethodSpec,
    distributor,
    graph: TaskGraph,
    n_processors: int,
    total_capacity: float,
    cache: Dict[object, DeadlineAssignment],
    cache_key: object,
) -> DeadlineAssignment:
    """The deadline assignment of ``method`` on ``graph`` at one size.

    Size-dependent methods (ADAPT) are computed fresh for every platform.
    Size-independent methods are computed once *without* platform
    arguments and cached under ``cache_key``; reuses re-stamp the cached
    windows with the current platform, so the recorded
    ``DeadlineAssignment.n_processors`` always matches the trial's system
    (previously the cache froze the first sweep size's platform into
    every later size's metadata).

    Two reuse layers compose here: this cache skips whole *distributions*
    per (graph, method) across the size sweep, while below it the graph's
    :class:`~repro.graph.indexed.GraphIndex` shares one compiled structure
    and one :class:`~repro.core.expanded.ExpandedGraph` per estimator
    across *all* methods of the trial (so the size-dependent recomputes
    ADAPT forces still skip re-expanding the graph).
    """
    if method.needs_system_size:
        return distributor.distribute(
            graph,
            n_processors=n_processors,
            total_capacity=total_capacity,
        )
    assignment = cache.get(cache_key)
    if assignment is None:
        assignment = distributor.distribute(graph)
        cache[cache_key] = assignment
    return replace(assignment, n_processors=n_processors)


def make_record(
    config: ExperimentConfig,
    scenario: str,
    n_processors: int,
    method: MethodSpec,
    index: int,
    assignment: DeadlineAssignment,
    metrics: ScheduleMetrics,
) -> TrialRecord:
    """Package one trial's measurements (shared by serial and workers)."""
    return TrialRecord(
        experiment=config.name,
        scenario=scenario,
        n_processors=n_processors,
        method=method.label,
        graph_index=index,
        max_lateness=metrics.max_lateness,
        mean_lateness=metrics.mean_lateness,
        n_late=metrics.n_late,
        makespan=metrics.makespan,
        mean_utilization=metrics.mean_utilization,
        min_laxity=assignment.min_laxity(),
        max_end_to_end_lateness=metrics.max_end_to_end_lateness,
    )


def run_experiment(
    config: ExperimentConfig,
    progress: Optional[ProgressFn] = None,
    jobs: Optional[int] = 1,
    instrumentation: Optional[Instrumentation] = None,
    checkpoint: Optional[str] = None,
    retry=None,
    backend: Optional[str] = None,
    shards: int = 2,
    record_sink=None,
) -> ExperimentResult:
    """Execute every trial of ``config``.

    ``jobs`` selects the execution engine: ``1`` (default) runs the
    serial loop in-process; ``> 1`` fans trials out over that many worker
    processes; ``0`` or ``None`` uses all CPU cores. Parallel runs
    produce records identical to serial runs, in identical order. A
    config whose ``graph_factory`` cannot be pickled falls back to
    in-process execution regardless of ``jobs``, with an
    :class:`ExperimentWarning` and the reason recorded on
    ``result.fallback_reason``.

    ``backend`` selects an execution backend by registry name
    (:mod:`repro.feast.backends`: ``"serial"``, ``"pool"``,
    ``"subprocess"``, or anything registered) instead of deriving it
    from ``jobs``; ``shards`` sets the subprocess backend's shard
    count. Every backend produces byte-identical canonical records.

    ``checkpoint`` names a journal file (for the subprocess backend: a
    journal *directory*): completed work units are appended as they
    finish, and a rerun with the same config and path resumes where the
    previous run stopped — the resumed result is byte-identical to an
    uninterrupted run. ``retry`` overrides the
    :class:`~repro.feast.backends.RetryPolicy` derived from the config.
    Requesting any fault-tolerance feature (``checkpoint``, ``retry``,
    ``config.trial_timeout``), an explicit ``backend``, or streaming
    routes even a ``jobs=1`` run through the supervised engine; a plain
    ``jobs=1`` run keeps the classic serial loop, which raises on the
    first trial error.

    ``record_sink`` streams records (e.g. into a
    :class:`repro.feast.aggregate.StreamingAggregator`) instead of
    collecting them on the result — see
    :func:`repro.feast.parallel.run_parallel_experiment`.

    ``progress`` is a ``(done, total)`` callback; ``instrumentation``
    optionally supplies a preconfigured :class:`Instrumentation` (extra
    callbacks, shared timing accumulation). Both may be given.
    """
    from repro.feast.parallel import is_parallelizable, resolve_jobs

    inst = instrumentation if instrumentation is not None else Instrumentation()
    if progress is not None:
        inst.add_progress(progress)
    n_jobs = resolve_jobs(jobs)
    fallback_reason = None
    if n_jobs > 1 and backend is None and not is_parallelizable(config):
        fallback_reason = (
            f"experiment {config.name!r} carries an unpicklable "
            f"graph_factory; ran in-process instead of on {n_jobs} workers"
        )
        warnings.warn(fallback_reason, ExperimentWarning, stacklevel=2)
        n_jobs = 1
    supervised = (
        checkpoint is not None
        or retry is not None
        or config.trial_timeout is not None
        or backend is not None
        or record_sink is not None
    )
    if n_jobs > 1 or supervised or fallback_reason is not None:
        from repro.feast.parallel import run_parallel_experiment

        return run_parallel_experiment(
            config,
            jobs=n_jobs,
            instrumentation=inst,
            checkpoint=checkpoint,
            retry=retry,
            fallback_reason=fallback_reason,
            backend=backend,
            shards=shards,
            record_sink=record_sink,
        )
    from repro.feast.backends.serial import run_classic_serial

    return run_classic_serial(config, inst)
