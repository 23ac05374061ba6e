"""One measured batch experiment, in a fresh interpreter.

Usage: ``python perfbench/child.py '<json spec>'`` with ``src`` on
``PYTHONPATH``. The spec names the workload, seed and mode:

* ``setup`` — import and build the config, time one calibration, then
  exit (a set-up probe; the first of a run fills its bytecode cache);
* ``run`` — one untraced ``run_experiment(jobs=1)`` call;
* ``traced`` — the same call with the benchmark's span wrappers
  installed and a :class:`repro.obs.Telemetry` session attached, so the
  engine's ``list.*``, ``slicer.*`` and ``expanded.cache.*`` counters
  are collected too.

After every trial (the serial loop reports each one to its progress
callback) the child times :func:`calibration.calibrate`, so that every
trial's time can be set against the speed the core had at that moment
(README.md, "Noise").

The last line of standard output is one JSON object: ``ready`` is the
``time.monotonic()`` reading just before ``run_experiment`` is called
(the parent took its own reading just before launching this process);
``wall`` the seconds the call took, calibrations included;
``calibration_s`` the seconds spent calibrating inside it; ``trial_s``
each trial's seconds, from the end of the previous calibration to its
record; ``cal_s`` one calibration time before the first trial and one
after each trial; ``digest`` the records digest and ``rss_mb`` the peak
RSS of this process.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import tracer as tracing
import workloads
from calibration import calibrate

spec = json.loads(sys.argv[1])
from repro.feast.instrumentation import Instrumentation  # noqa: E402
from repro.feast.runner import run_experiment  # noqa: E402
from repro.obs.registry import records_digest  # noqa: E402

config = workloads.batch_config(spec["workload"], spec["seed"])
mode = spec["mode"]


def delay_schedules(fraction: float) -> None:
    """Slow every ``ListScheduler.schedule`` call by ``fraction`` of it.

    The sensitivity self-check: the delay is spent busy, like extra
    scheduler work would be.
    """
    from repro.sched.list_scheduler import ListScheduler

    base = ListScheduler.schedule

    def slowed(self, *args, **kwargs):
        start = time.perf_counter()
        result = base(self, *args, **kwargs)
        until = time.perf_counter() + fraction * (time.perf_counter() - start)
        while time.perf_counter() < until:
            pass
        return result

    ListScheduler.schedule = slowed


def main() -> None:
    out = {}
    if mode == "setup":
        out["ready"] = time.monotonic()
        out["cal_s"] = [calibrate()]
        print(json.dumps(out))
        return
    if spec.get("sched_delay"):
        delay_schedules(float(spec["sched_delay"]))
    inst = None
    tracer = None
    if mode == "traced":
        from repro.obs import Telemetry

        tracer = tracing.Tracer(spec["trace_out"],
                                replay_every=spec.get("replay_every", 0))
        tracing.install(tracer)
        inst = Instrumentation(telemetry=Telemetry())
    trial_s = []
    cal_s = []
    calibrating = 0.0
    clock = time.perf_counter

    def progress(done: int, total: int) -> None:
        nonlocal last, calibrating
        now = clock()
        trial_s.append(now - last)
        cal_s.append(calibrate())
        last = clock()
        calibrating += last - now

    out["ready"] = time.monotonic()
    cal_s.append(calibrate())
    began = last = clock()
    result = run_experiment(config, progress=progress, jobs=1,
                            instrumentation=inst)
    out["wall"] = clock() - began
    out["calibration_s"] = calibrating
    out["trial_s"] = trial_s
    out["cal_s"] = cal_s
    out["trials"] = len(result.records)
    out["planned"] = config.n_trials
    out["digest"] = records_digest(result.records)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.check_replays()
        tracer.write(dict(inst.telemetry.metrics.counters))
    print(json.dumps(out))


main()
