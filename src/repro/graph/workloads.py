"""Realistic application workloads (paper Section 8's wished-for benchmarks).

The paper evaluates on random graphs and notes it "would like to evaluate
AST on a set of realistic benchmarks that do not only encompass small
comprehensible applications … but also larger applications". This module
provides that benchmark set: hand-built task graphs modelled after the
classic structures of three hard-real-time domains. They are *synthetic
but structured* — shapes, fan-outs and compute/communication balances
follow the domain's standard processing chains, while absolute numbers
are parameterized.

All builders honour the library's anchor conventions (inputs released at
0; outputs carry end-to-end deadlines derived from an overall laxity
ratio), so they drop into the experiment harness via ``graph_factory``.

* :func:`automotive_control` — an engine/vehicle control application:
  several sensor front-ends feeding fusion, mode logic and control-law
  computation, fanning out to actuators. Sensors/actuators optionally
  pinned (the paper's strict-subset motivation).
* :func:`radar_pipeline` — a pulse-Doppler radar chain: per-channel pulse
  compression in parallel, corner turn (all-to-all), Doppler filtering,
  CFAR detection, tracking. Wide parallel stages joined by heavy
  communication steps.
* :func:`video_encoder` — a macroblock-row encoder: per-row motion
  estimation / transform chains with row-to-row dependencies (the classic
  wavefront), entropy coding join.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.errors import GeneratorError
from repro.graph.taskgraph import TaskGraph


def _anchor(graph: TaskGraph, laxity_ratio: float) -> TaskGraph:
    """Release inputs at 0; outputs get OLR × total workload (the main
    evaluation's literal convention), shared across outputs."""
    if laxity_ratio <= 0:
        raise GeneratorError("laxity_ratio must be > 0")
    for node_id in graph.input_subtasks():
        graph.node(node_id).release = 0.0
    deadline = laxity_ratio * graph.total_workload()
    for node_id in graph.output_subtasks():
        graph.node(node_id).end_to_end_deadline = deadline
    graph.validate()
    return graph


def automotive_control(
    n_sensors: int = 6,
    n_actuators: int = 4,
    laxity_ratio: float = 1.5,
    pin_io: bool = True,
    io_processors: int = 2,
    rng: Optional[random.Random] = None,
) -> TaskGraph:
    """An engine/vehicle control application.

    Structure: ``n_sensors`` acquisition subtasks → per-sensor filtering →
    sensor fusion → (mode logic ∥ control law ∥ diagnostics) → command
    mixing → ``n_actuators`` actuation subtasks. With ``pin_io`` the
    acquisition and actuation subtasks are pinned round-robin onto the
    first ``io_processors`` processors — the paper's strict subset.
    """
    if n_sensors < 1 or n_actuators < 1:
        raise GeneratorError("need at least one sensor and one actuator")
    rng = rng if rng is not None else random.Random(0)
    g = TaskGraph(name=f"automotive-{n_sensors}s{n_actuators}a")

    fusion_inputs: List[str] = []
    for i in range(n_sensors):
        acq = f"acq{i}"
        flt = f"filt{i}"
        g.add_subtask(
            acq,
            wcet=rng.uniform(2.0, 4.0),
            pinned_to=(i % io_processors) if pin_io else None,
        )
        g.add_subtask(flt, wcet=rng.uniform(6.0, 12.0))
        g.add_edge(acq, flt, message_size=rng.uniform(2.0, 4.0))
        fusion_inputs.append(flt)

    g.add_subtask("fusion", wcet=rng.uniform(15.0, 25.0))
    for flt in fusion_inputs:
        g.add_edge(flt, "fusion", message_size=rng.uniform(2.0, 6.0))

    g.add_subtask("mode", wcet=rng.uniform(5.0, 9.0))
    g.add_subtask("control", wcet=rng.uniform(20.0, 35.0))
    g.add_subtask("diag", wcet=rng.uniform(8.0, 14.0))
    for stage in ("mode", "control", "diag"):
        g.add_edge("fusion", stage, message_size=rng.uniform(2.0, 5.0))

    g.add_subtask("mix", wcet=rng.uniform(6.0, 10.0))
    g.add_edge("mode", "mix", message_size=1.0)
    g.add_edge("control", "mix", message_size=rng.uniform(2.0, 4.0))

    for j in range(n_actuators):
        act = f"act{j}"
        g.add_subtask(
            act,
            wcet=rng.uniform(2.0, 4.0),
            pinned_to=(j % io_processors) if pin_io else None,
        )
        g.add_edge("mix", act, message_size=rng.uniform(1.0, 2.0))
    # Diagnostics log is an output of its own.
    g.add_subtask("log", wcet=rng.uniform(3.0, 6.0))
    g.add_edge("diag", "log", message_size=rng.uniform(1.0, 3.0))
    return _anchor(g, laxity_ratio)


def radar_pipeline(
    n_channels: int = 8,
    n_doppler_banks: int = 4,
    laxity_ratio: float = 1.5,
    rng: Optional[random.Random] = None,
) -> TaskGraph:
    """A pulse-Doppler radar processing chain.

    Structure: per-channel A/D + pulse compression (wide parallel stage),
    a corner-turn with all-to-all communication into ``n_doppler_banks``
    Doppler filter banks, CFAR detection per bank, and one tracker join.
    Heavy message sizes on the corner turn make this the communication-
    stress member of the benchmark set.
    """
    if n_channels < 1 or n_doppler_banks < 1:
        raise GeneratorError("need at least one channel and one bank")
    rng = rng if rng is not None else random.Random(0)
    g = TaskGraph(name=f"radar-{n_channels}ch{n_doppler_banks}bk")

    compressed: List[str] = []
    for i in range(n_channels):
        ad = f"ad{i}"
        pc = f"pc{i}"
        g.add_subtask(ad, wcet=rng.uniform(3.0, 5.0))
        g.add_subtask(pc, wcet=rng.uniform(18.0, 30.0))
        g.add_edge(ad, pc, message_size=rng.uniform(6.0, 10.0))
        compressed.append(pc)

    # Corner turn: every channel feeds every Doppler bank.
    banks: List[str] = []
    for b in range(n_doppler_banks):
        dop = f"dop{b}"
        g.add_subtask(dop, wcet=rng.uniform(20.0, 32.0))
        banks.append(dop)
        for pc in compressed:
            g.add_edge(pc, dop, message_size=rng.uniform(8.0, 14.0))

    cfars: List[str] = []
    for b, dop in enumerate(banks):
        cfar = f"cfar{b}"
        g.add_subtask(cfar, wcet=rng.uniform(10.0, 16.0))
        g.add_edge(dop, cfar, message_size=rng.uniform(3.0, 6.0))
        cfars.append(cfar)

    g.add_subtask("tracker", wcet=rng.uniform(12.0, 20.0))
    for cfar in cfars:
        g.add_edge(cfar, "tracker", message_size=rng.uniform(1.0, 3.0))
    return _anchor(g, laxity_ratio)


def video_encoder(
    n_rows: int = 6,
    stages_per_row: int = 3,
    laxity_ratio: float = 1.5,
    rng: Optional[random.Random] = None,
) -> TaskGraph:
    """A macroblock-row video encoder with wavefront dependencies.

    Structure: each of ``n_rows`` rows is a chain of ``stages_per_row``
    subtasks (motion estimation → transform/quantize → reconstruct); stage
    ``k`` of row ``r`` additionally depends on stage ``k`` of row
    ``r − 1`` (the wavefront), and all rows join in entropy coding. The
    wavefront bounds exploitable parallelism — the structure where the
    paper's small-system effects live.
    """
    if n_rows < 1 or stages_per_row < 1:
        raise GeneratorError("need at least one row and one stage")
    rng = rng if rng is not None else random.Random(0)
    g = TaskGraph(name=f"video-{n_rows}x{stages_per_row}")

    g.add_subtask("capture", wcet=rng.uniform(4.0, 8.0))
    stage_id: Dict[tuple, str] = {}
    for r in range(n_rows):
        for k in range(stages_per_row):
            node = f"r{r}s{k}"
            stage_id[(r, k)] = node
            g.add_subtask(node, wcet=rng.uniform(8.0, 20.0))
            if k == 0:
                g.add_edge("capture", node, message_size=rng.uniform(3.0, 6.0))
            else:
                g.add_edge(
                    stage_id[(r, k - 1)], node,
                    message_size=rng.uniform(2.0, 5.0),
                )
            if r > 0:
                g.add_edge(
                    stage_id[(r - 1, k)], node,
                    message_size=rng.uniform(1.0, 3.0),
                )

    g.add_subtask("entropy", wcet=rng.uniform(15.0, 25.0))
    for r in range(n_rows):
        g.add_edge(
            stage_id[(r, stages_per_row - 1)], "entropy",
            message_size=rng.uniform(2.0, 5.0),
        )
    return _anchor(g, laxity_ratio)


#: The benchmark set, by name (used by the ext-realistic experiment).
WORKLOADS = {
    "automotive": automotive_control,
    "radar": radar_pipeline,
    "video": video_encoder,
}


def make_workload(
    name: str, rng: Optional[random.Random] = None, **kwargs
) -> TaskGraph:
    """Instantiate a named realistic workload."""
    try:
        builder = WORKLOADS[name]
    except KeyError:
        raise GeneratorError(
            f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}"
        ) from None
    return builder(rng=rng, **kwargs)
