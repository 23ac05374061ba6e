"""``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python perfbench/serve_trace.py TRACE_OUT serve [repro serve
options]`` with ``src`` on ``PYTHONPATH``. Runs the ordinary ``repro
serve`` command line with the span wrappers on; every job's
``run_experiment`` call gets a :class:`repro.obs.Telemetry` session so
the engine's counters are collected. Spans, facts and summed counters
are written to ``TRACE_OUT`` on shutdown.
"""

from __future__ import annotations

import sys
import threading

import tracer as tracing

from repro.cli import main  # noqa: E402
from repro.feast.instrumentation import Instrumentation  # noqa: E402
from repro.obs import Telemetry  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.serve import queue  # noqa: E402

trace_out, argv = sys.argv[1], sys.argv[2:]
tracer = tracing.Tracer(trace_out, replay_every=50)
tracing.install(tracer)
counters = MetricsRegistry()
lock = threading.Lock()
base_run_experiment = queue.run_experiment


def run_experiment(config, **kwargs):
    inst = Instrumentation(telemetry=Telemetry())
    try:
        return base_run_experiment(config, instrumentation=inst, **kwargs)
    finally:
        with lock:
            counters.merge(inst.telemetry.metrics)


queue.run_experiment = run_experiment
code = main(argv)
tracer.check_replays()
tracer.write(counters.counters)
sys.exit(code)
