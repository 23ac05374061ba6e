"""Benchmark-side span tracing around the program's public layer calls.

Nothing inside ``src/`` is changed: :func:`install` replaces the module
attributes the engine looks up at call time (``graph_for_trial`` in the
serial and chunk loops, ``ListScheduler.schedule``, ...) with wrappers
that record one span per call. Spans are kept in memory as tuples and
written out once, when the traced process ends.

A span is ``(id, parent, name, start, end, trial)``: ``parent`` is the
span open on the same thread when the call began, ``trial`` is the id
shared by every span of one trial (or one service job's chunk).
"""

from __future__ import annotations

import itertools
import json
import pickle
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span name → layer (the repository module it belongs to).
LAYER_OF = {
    "graph_for_trial": "graph",
    "distribute_for_trial": "core",
    "ListScheduler.schedule": "sched",
    "schedule_metrics": "sched",
    "make_record": "feast",
    "run_chunk": "feast",
    "CheckpointJournal.append": "persistence",
}

#: Layers whose self time counts as trial work (the layer shares).
TRIAL_LAYERS = ("graph", "core", "sched", "feast")

Span = Tuple[int, Optional[int], str, float, float, str]


class Tracer:
    """In-memory span recorder shared by every thread of one process."""

    def __init__(self, out_path: str, replay_every: int = 0) -> None:
        self.out_path = out_path
        self.spans: List[Span] = []
        #: Extra per-call facts gathered at the wrappers (not timings).
        self.facts: Dict[str, List[float]] = {}
        #: Every ``replay_every``-th schedule, kept for replay checks.
        self.replay_every = replay_every
        self.replay_sample: List[Tuple[Any, Any]] = []
        self._n_schedules = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def fact(self, name: str, value: float) -> None:
        self.facts.setdefault(name, []).append(value)

    def wrap(self, name: str, fn: Callable,
             trial_of: Optional[Callable[..., str]] = None,
             after: Optional[Callable[..., None]] = None) -> Callable:
        """``fn`` recording a span per call.

        ``trial_of(*args)`` names the trial the call starts (its spans
        and the spans after it on this thread share that id); ``after``
        sees ``(result, *args)`` once the span has closed.
        """
        local = self._local
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if trial_of is not None:
                local.trial = trial_of(*args, **kwargs)
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end,
                              getattr(local, "trial", "")))
            if after is not None:
                after(result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- output --------------------------------------------------------
    def check_replays(self) -> None:
        """Replay the sampled schedules through the independent checker."""
        from repro.qa import replay_schedule

        for schedule, assignment in self.replay_sample:
            report = replay_schedule(schedule, assignment)
            self.fact("replay_violations", len(report.violations))
        self.replay_sample.clear()

    def write(self, counters: Dict[str, float]) -> None:
        """Write this process's spans, facts and the engine's counters."""
        with open(self.out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "facts": self.facts,
                       "counters": counters}, fh)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark measures."""
    from repro.feast import runner
    from repro.feast.backends import serial, work
    from repro.feast.persistence import CheckpointJournal
    from repro.sched.list_scheduler import ListScheduler

    def graph_trial(config, graph_config, scenario, index):
        return f"{config.name}:{scenario}/{index}"

    def graph_done(graph, *args):
        tracer.fact("subtasks_per_graph", graph.n_subtasks)

    def distribute_trial(method, distributor, graph, n_processors, *rest):
        job = getattr(tracer._local, "job", "")
        return f"{job}{graph.name}/{method.label}/P{n_processors}"

    def schedule_done(schedule, scheduler, graph, assignment, *rest):
        tracer._n_schedules += 1
        if (tracer.replay_every
                and tracer._n_schedules % tracer.replay_every == 1):
            tracer.replay_sample.append((schedule, assignment))

    def chunk_trial(spec, *args, **kwargs):
        tracer._local.job = f"{spec.config.name}:"
        return f"{spec.config.name}:{spec.scenario}/{spec.index}"

    def chunk_done(chunk, spec, *args, **kwargs):
        tracer._local.job = ""
        tracer.fact("chunk_result_bytes", len(pickle.dumps(chunk)))

    graph = tracer.wrap("graph_for_trial", runner.graph_for_trial,
                        trial_of=graph_trial, after=graph_done)
    distribute = tracer.wrap("distribute_for_trial",
                             runner.distribute_for_trial,
                             trial_of=distribute_trial)
    record = tracer.wrap("make_record", runner.make_record)
    for module in (serial, work):
        module.graph_for_trial = graph
        module.distribute_for_trial = distribute
        module.make_record = record
    runner.schedule_metrics = tracer.wrap(
        "schedule_metrics", runner.schedule_metrics)
    ListScheduler.schedule = tracer.wrap(
        "ListScheduler.schedule", ListScheduler.schedule,
        after=schedule_done)
    work.run_chunk = tracer.wrap("run_chunk", work.run_chunk,
                                 trial_of=chunk_trial, after=chunk_done)
    CheckpointJournal.append = tracer.wrap(
        "CheckpointJournal.append", CheckpointJournal.append)


def load_trace(out_path: str) -> Tuple[
        List[Span], Dict[str, List[float]], Dict[str, float]]:
    """Spans, facts and counters a traced process wrote."""
    with open(out_path, encoding="utf-8") as fh:
        data = json.load(fh)
    spans = [tuple(span) for span in data["spans"]]
    return spans, data["facts"], data["counters"]


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Seconds of self time per span name.

    A span's self time is its duration minus the part of it covered by
    its children; children of one parent run on the parent's thread, one
    after another, so covered time is the sum of their durations.
    """
    covered: Dict[int, float] = {}
    for sid, parent, name, start, end, trial in spans:
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    totals: Dict[str, float] = {}
    for sid, parent, name, start, end, trial in spans:
        own = (end - start) - covered.get(sid, 0.0)
        totals[name] = totals.get(name, 0.0) + own
    return totals


def layer_self_times(spans: List[Span]) -> Dict[str, float]:
    """Self seconds per layer (see :data:`LAYER_OF`)."""
    layers: Dict[str, float] = {}
    for name, seconds in self_times(spans).items():
        layer = LAYER_OF[name]
        layers[layer] = layers.get(layer, 0.0) + seconds
    return layers
