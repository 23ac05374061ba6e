"""The order-keyed schedule memo of the trial loops.

While release times are ignored, the list scheduler reads a deadline
assignment only through :meth:`ListScheduler.priority_order`, so
:func:`repro.feast.runner.run_trial` schedules each distinct order of a
graph once per system and scores the stored summary against every
assignment that induces it. These tests pin that soundness argument
(equal orders give equal schedules), check memoized metrics against a
fresh schedule on real experiment sweeps, and count the memo's hits.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.annotations import DeadlineAssignment, Window
from repro.core.slicer import ast, bst
from repro.errors import SchedulingError
from repro.feast.config import speeds_for
from repro.feast.experiments import ext_policy, figure5
from repro.feast.instrumentation import Instrumentation
from repro.feast.runner import (
    distribute_for_trial,
    graph_for_trial,
    run_experiment,
    run_trial,
    schedule_memo,
)
from repro.graph.taskgraph import TaskGraph
from repro.machine.system import System
from repro.machine.topology import make_interconnect
from repro.obs import Telemetry
from repro.obs import runtime as obs
from repro.sched.analysis import schedule_metrics
from repro.sched.list_scheduler import ListScheduler
from repro.sched.policies import POLICIES, make_policy
from repro.sched.schedule import Schedule, ScheduledTask
from tests.strategies import default_settings, slicing_graphs

TOPOLOGIES = ("bus", "fully-connected", "ring", "mesh", "ideal")


def restretched(assignment: DeadlineAssignment) -> DeadlineAssignment:
    """Another assignment with the same EDF order: every deadline doubled
    (exact in floating point, so no two deadlines merge), every release
    moved."""
    return replace(
        assignment,
        windows={
            node_id: Window(
                release=0.5 * w.release + 1.0,
                absolute_deadline=2.0 * w.absolute_deadline,
                cost=w.cost,
            )
            for node_id, w in assignment.windows.items()
        },
    )


def image(schedule: Schedule):
    """Every placement and transfer, in placement order."""
    return list(schedule.tasks.items()), list(schedule.messages.items())


@default_settings(max_examples=40)
@given(
    graph=slicing_graphs(),
    topology=st.sampled_from(TOPOLOGIES),
    n_processors=st.sampled_from([3, 4]),
)
def test_equal_priority_orders_give_equal_schedules(
    graph, topology, n_processors
):
    system = System(
        n_processors, interconnect=make_interconnect(topology, n_processors)
    )
    assignments = [bst("PURE").distribute(graph)] + [
        ast(metric).distribute(graph, n_processors=n_processors)
        for metric in ("THRES", "ADAPT")
    ]
    assignments.append(restretched(assignments[0]))
    for name in POLICIES:
        scheduler = ListScheduler(system, policy=make_policy(name))
        seen = {}
        for assignment in assignments:
            order = tuple(scheduler.priority_order(graph, assignment))
            got = image(scheduler.schedule(graph, assignment))
            if order in seen:
                assert got == seen[order]
            seen[order] = got
        if name in ("EDF", "LPT", "RANDOM"):
            # The stretched copy keeps the EDF order; LPT and RANDOM
            # ignore the assignment, so every order was compared.
            assert len(seen) < len(assignments)


def sweep_trials(config):
    """Every trial of ``config`` as the serial loop runs it, with the
    memo it would use: (graph, assignment, system, memo, graph index)."""
    for scenario in config.scenarios:
        graph_config = config.graph_config.with_scenario(scenario)
        graphs = [
            graph_for_trial(config, graph_config, scenario, i)
            for i in range(config.n_graphs)
        ]
        reusable = {}
        for n_processors in config.system_sizes:
            system = System(
                n_processors,
                interconnect=make_interconnect(config.topology, n_processors),
                speeds=speeds_for(config.speed_profile, n_processors),
            )
            memo = schedule_memo(config)
            for method in config.methods:
                distributor = method.build()
                for index, graph in enumerate(graphs):
                    assignment = distribute_for_trial(
                        method, distributor, graph, n_processors,
                        float(n_processors), reusable, (method.label, index),
                    )
                    yield graph, assignment, system, memo, index


@pytest.mark.parametrize(
    "config",
    figure5(n_graphs=2, seed=5)
    + ext_policy(
        n_graphs=2, seed=5, policies=("EDF", "LLF", "ERF", "LPT", "RANDOM")
    ),
    ids=lambda c: c.name,
)
def test_memoized_metrics_equal_a_fresh_schedule(config):
    telemetry = Telemetry()
    n_trials = 0
    with obs.activate(telemetry):
        for graph, assignment, system, memo, index in sweep_trials(config):
            got = run_trial(
                graph, assignment, system, policy_name=config.policy,
                memo=memo, graph_key=index,
            )
            fresh = schedule_metrics(
                ListScheduler(system, policy=make_policy(config.policy))
                .schedule(graph, assignment),
                assignment,
            )
            assert got == fresh
            n_trials += 1
    counters = telemetry.metrics.counters
    hits = counters.get("list.schedule_memo_hits", 0)
    assert hits + counters["list.schedule_memo_misses"] == n_trials
    if config.policy in ("LPT", "RANDOM"):
        # The order ignores the assignment: every method after the first
        # hits the first one's schedule.
        per_method = n_trials // len(config.methods)
        assert hits == n_trials - per_method


def test_release_time_dispatch_bypasses_the_memo(chain_graph):
    assignment = bst("PURE").distribute(chain_graph)
    system = System(2)
    memo = {}
    telemetry = Telemetry()
    with obs.activate(telemetry):
        for _ in range(2):
            got = run_trial(
                chain_graph, assignment, system,
                respect_release_times=True, memo=memo, graph_key=0,
            )
    assert memo == {}
    counters = telemetry.metrics.counters
    assert "list.schedule_memo_hits" not in counters
    assert "list.schedule_memo_misses" not in counters
    assert counters["list.schedules"] == 2
    fresh = ListScheduler(system, respect_release_times=True).schedule(
        chain_graph, assignment
    )
    assert got == schedule_metrics(fresh, assignment)


def test_memo_keeps_graphs_apart(chain_graph):
    """Two graphs of one sweep cell can share a priority order (here
    both chains run a, b, c); the graph position keeps them apart."""
    slower = chain_graph.copy(name="slower-chain")
    slower.node("b").wcet = 35.0
    system = System(2)
    memo = {}
    for graph_key, graph in enumerate((chain_graph, slower)):
        assignment = bst("PURE").distribute(graph)
        got = run_trial(graph, assignment, system, memo=memo,
                        graph_key=graph_key)
        fresh = ListScheduler(system).schedule(graph, assignment)
        assert got == schedule_metrics(fresh, assignment)
    assert len(memo) == 2
    assert len({order for _, order in memo}) == 1


def test_nan_priority_key_is_rejected(chain_graph):
    assignment = bst("PURE").distribute(chain_graph)
    window = assignment.windows["b"]
    broken = replace(
        assignment,
        windows=dict(
            assignment.windows,
            b=Window(window.release, math.nan, window.cost),
        ),
    )
    scheduler = ListScheduler(System(2))
    with pytest.raises(SchedulingError, match="NaN"):
        scheduler.priority_order(chain_graph, broken)
    with pytest.raises(SchedulingError, match="NaN"):
        scheduler.schedule(chain_graph, broken)
    with pytest.raises(SchedulingError, match="NaN"):
        run_trial(chain_graph, broken, System(2), memo={}, graph_key=0)


def test_utilization_matches_per_processor_sums():
    g = TaskGraph()
    for node_id in ("c", "b", "a", "z", "m", "q"):
        g.add_subtask(node_id, wcet=1.0)
    s = Schedule(g, System(3))
    # Placed against tasks_on order, so a sum in placement order differs
    # in the last bit; "z" and "m" are zero-WCET and share a start time.
    for node_id, finish in (("c", 0.3), ("b", 0.2), ("a", 0.1)):
        s.place_task(ScheduledTask(node_id, 0, 0.0, finish))
    s.place_task(ScheduledTask("z", 0, 0.1, 0.1))
    s.place_task(ScheduledTask("m", 0, 0.1, 0.1))
    s.place_task(ScheduledTask("q", 1, 0.05, 0.05 + 1 / 3))
    horizon = s.makespan()
    expected = {
        p: sum(t.duration for t in s.tasks_on(p)) / horizon for p in range(3)
    }
    assert s.processor_utilization() == expected
    placed = sum(t.duration for t in s.tasks.values() if t.processor == 0)
    assert placed / horizon != expected[0]
    assert expected[2] == 0.0


def test_utilization_of_an_empty_horizon_is_zero():
    g = TaskGraph()
    g.add_subtask("a", wcet=1.0)
    s = Schedule(g, System(2))
    s.place_task(ScheduledTask("a", 1, 0.0, 0.0))
    assert s.processor_utilization() == {0: 0.0, 1: 0.0}


def counters_of(config, backend=None):
    inst = Instrumentation(telemetry=Telemetry())
    result = run_experiment(config, jobs=1, instrumentation=inst,
                            backend=backend)
    return result, inst.telemetry.metrics.counters


def test_memo_counters_cover_every_memoized_trial():
    """Both trial loops, the classic serial one and the chunk loop, count
    one lookup per trial and hit the same orders."""
    config = figure5(n_graphs=2, system_sizes=(2, 4, 16), seed=3)[0]
    hits_by_loop = []
    for backend in (None, "serial"):
        result, counters = counters_of(config, backend)
        hits = counters.get("list.schedule_memo_hits", 0)
        misses = counters["list.schedule_memo_misses"]
        assert hits + misses == len(result.records) == config.n_trials
        assert counters["list.schedules"] == misses
        hits_by_loop.append(hits)
    assert hits_by_loop[0] == hits_by_loop[1] > 0


def test_single_method_sweep_builds_no_memo():
    config = replace(figure5(n_graphs=2, system_sizes=(2, 4))[0],
                     methods=figure5()[0].methods[:1])
    assert schedule_memo(config) is None
    result, counters = counters_of(config)
    assert "list.schedule_memo_hits" not in counters
    assert "list.schedule_memo_misses" not in counters
    assert counters["list.schedules"] == len(result.records)


def test_figure5_benchmark_sweep_hit_count():
    """The benchmark's figure5-serial sweep at seed 0 repeats 423 of its
    1944 priority orders (PURE→THRES 180, PURE→ADAPT 179, THRES→ADAPT
    64)."""
    config = figure5(n_graphs=24, seed=0)[0]
    result, counters = counters_of(config)
    assert len(result.records) == 1944
    assert counters["list.schedule_memo_hits"] == 423
    assert counters["list.schedules"] == 1944 - 423
