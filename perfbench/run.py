"""The repository benchmark: one command, a named workload, a seed.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload figure5-serial --seed 0 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced;
``--trace 1`` runs the same inputs untraced and traced, in alternation,
and reports the per-layer metrics. Every metric is printed by name with
its unit and sample count, the run's machine context is printed and
saved under ``.perfbench/results/``, and the last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Outputs are checked on every run (see ``README.md``); any mismatch is
counted in ``failed`` and makes the command exit 1. The workloads and
the metric → layer → end-to-end predictions are in ``README.md``.
"""

from __future__ import annotations

import argparse
import json
from importlib import metadata
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import serve_load  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from calibration import CAL_REF_S  # noqa: E402
from workloads import WORKLOADS, DEFAULT_SEED  # noqa: E402

#: Scratch space of the benchmark, inside the checkout.
WORK = os.path.join(ROOT, ".perfbench")

#: Every ``REPLAY_EVERY``-th schedule of a traced run is replayed.
REPLAY_EVERY = 50

#: Service launches per serve run for the ``setup_s`` median (besides
#: the server that takes the load).
SERVER_SETUPS = 5

#: Set-up-only launches per batch run for the ``setup_s`` median, which
#: also takes the set-up of every measured repetition (only 3-6 fit in a
#: 30 s run, too few for a steady median).
BATCH_SETUPS = 8

#: The stand-in service's (``standin.py``) p50 and p95 latency on a quiet
#: core of the host the benchmark was written on. The service's p50 and
#: p95 are reported as its ratio to the stand-in's, times these (README.md,
#: "Noise"); any constants would do, runs are only compared with each other.
STANDIN_P50_S = 0.024
STANDIN_P95_S = 0.032

#: Serve jobs whose results are re-run in-process and compared.
SERVE_VERIFY_SAMPLE = 6

#: Seconds one batch child may take (a normal one takes under 10 s), so
#: that a hung program fails the run well inside the 180 s it may last.
CHILD_TIMEOUT_S = 40.0


# ----------------------------------------------------------------------
# Small statistics
# ----------------------------------------------------------------------
def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 1] (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def harrell_davis(values: List[float], q: float) -> float:
    """Harrell–Davis estimate of quantile ``q`` (0 when empty).

    A mean of all the order statistics, weighted by the beta(q(n+1),
    (1-q)(n+1)) density over each one's share of [0, 1], so the tail
    quantile of a few hundred latencies does not rest on the two values
    next to it. The weights are integrated numerically.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16
    weights = []
    for i in range(n):
        points = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1.0) * math.log(t)
                                    + (b - 1.0) * math.log1p(-t))
                           for t in points))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


# ----------------------------------------------------------------------
# Run context and hygiene
# ----------------------------------------------------------------------
def machine_context() -> Dict[str, Any]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_1m": os.getloadavg()[0],
        "commit": commit,
    }


def fresh_run_dir(workload: str) -> str:
    """A directory of this run alone: bytecode cache, traces, data."""
    path = os.path.join(WORK, "runs", f"{workload}-{uuid.uuid4().hex[:12]}")
    os.makedirs(path)
    return path


def child_env(run_dir: str) -> Dict[str, str]:
    """Environment of every process the benchmark starts.

    A bytecode cache private to this run means no run starts with
    another run's compiled modules; temporary files stay in the run
    directory, inside the checkout.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + HERE
    env["PYTHONPYCACHEPREFIX"] = os.path.join(run_dir, "pycache")
    env["TMPDIR"] = run_dir
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
def run_child(spec: Dict[str, Any], env: Dict[str, str]) -> Dict[str, Any]:
    """One fresh-interpreter experiment: the child's report.

    ``setup_s`` is added: from just before the launch to the child's
    ``ready`` reading.
    """
    command = [sys.executable, os.path.join(HERE, "child.py"),
               json.dumps(spec)]
    launched = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(
            f"child {spec['mode']} exited {done.returncode}: "
            f"{done.stderr.strip()[-600:]}"
        )
    rep = json.loads(done.stdout.strip().splitlines()[-1])
    rep["setup_s"] = rep["ready"] - launched
    return rep


def expected_digest(workload: str, seed: int) -> Optional[str]:
    if seed != DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)["records_digest"][workload]


class Checks:
    """Counts operations attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def op(self, ok: bool, problem: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok

    def fail(self, problem: str) -> None:
        self.op(False, problem)

    def replays(self, facts: Dict[str, Any]) -> None:
        """Every replayed schedule of a trace was valid, and there was one."""
        violations = facts.get("replay_violations", [])
        self.op(bool(violations) and not any(violations),
                f"replayed schedules: {len(violations)} checked, "
                f"{sum(violations)} violations")


def run_batch(name: str, seed: int, seconds: float, trace: bool,
              run_dir: str, checks: Checks, sched_delay: float = 0.0
              ) -> Tuple[Dict[str, Tuple[float, str, int]], Dict[str, Any]]:
    """Repeat the workload's experiment, each in a fresh interpreter.

    ``sched_delay`` slows every list-scheduler call by that fraction of
    its own time; only the sensitivity self-check sets it.
    """
    env = child_env(run_dir)
    base = {"workload": name, "seed": seed, "sched_delay": sched_delay}
    reference = expected_digest(name, seed)
    # Warm-up, not measured: fills this run's bytecode cache.
    run_child(dict(base, mode="setup"), env)
    setups = []
    for _ in range(BATCH_SETUPS):
        probe = run_child(dict(base, mode="setup"), env)
        setups.append(probe["setup_s"] * CAL_REF_S / probe["cal_s"][0])

    samples: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    started = time.monotonic()
    while time.monotonic() - started < seconds or not checks.attempted:
        try:
            rep = at_reference_speed(run_child(dict(base, mode="run"), env))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            checks.fail(f"untraced run: {exc}")
            continue
        if reference is None:
            reference = rep["digest"]
        if checks.op(rep["trials"] == rep["planned"] == len(rep["trial_s"])
                     and rep["digest"] == reference,
                     f"untraced run digest {rep['digest']} != {reference}"):
            samples.append(rep)
        if trace:
            out = os.path.join(run_dir, f"trace-{len(traced)}.json")
            try:
                rep_t = run_child(
                    dict(base, mode="traced", trace_out=out,
                         replay_every=REPLAY_EVERY), env)
            except (RuntimeError, subprocess.TimeoutExpired,
                    ValueError) as exc:
                checks.fail(f"traced run: {exc}")
                continue
            rep_t["untraced"] = rep
            rep_t["trace"] = tracing.load_trace(out)
            checks.replays(rep_t["trace"][1])
            if checks.op(rep_t["digest"] == rep["digest"],
                         f"traced digest {rep_t['digest']} != untraced "
                         f"{rep['digest']}"):
                traced.append(at_reference_speed(rep_t))

    summary = {"samples": samples, "digest": reference,
               "core_speed": median([s["speed"] for s in samples])}
    if not samples:
        return {}, summary
    if trace:
        return batch_layers(traced), summary
    n = len(samples)
    setups += [s["setup_ref_s"] for s in samples]
    # Each trial's median over the repetitions (same trials, same order).
    trial = [median(list(times))
             for times in zip(*(s["trial_ref_s"] for s in samples))]
    metrics = {
        "setup_s": (median(setups), "s", len(setups)),
        "trials_per_s": (len(trial) / sum(trial), "trials/s", n),
        "jobs_per_s": (median([1.0 / s["latency_ref_s"] for s in samples]),
                       "jobs/s", n),
        "submit_to_result_p50_s": (percentile(trial, 0.50), "s", len(trial)),
        "submit_to_result_p95_s": (percentile(trial, 0.95), "s", len(trial)),
        "peak_rss_mb": (median([s["rss_mb"] for s in samples]), "MiB", n),
    }
    return metrics, summary


def at_reference_speed(rep: Dict[str, Any]) -> Dict[str, Any]:
    """Add a repetition's times rescaled to a core of reference speed.

    Each trial's seconds are scaled by ``CAL_REF_S`` over the mean of the
    calibrations just before and just after it, the set-up by the first
    calibration, and whole-run figures (``speed``) by the median one.
    """
    cal = rep["cal_s"]
    rep["trial_ref_s"] = [t * 2.0 * CAL_REF_S / (a + b)
                          for t, a, b in zip(rep["trial_s"], cal, cal[1:])]
    rep["setup_ref_s"] = rep["setup_s"] * CAL_REF_S / cal[0]
    rep["latency_ref_s"] = rep["setup_ref_s"] + sum(rep["trial_ref_s"])
    rep["speed"] = CAL_REF_S / median(cal)
    return rep


def trial_layers(spans, facts, counters, n: int
                 ) -> Dict[str, Tuple[float, str, int]]:
    """graph/core/sched/feast metrics of one traced process's spans."""
    own = tracing.self_times(spans)
    calls: Dict[str, int] = {}
    for span in spans:
        calls[span[2]] = calls.get(span[2], 0) + 1
    layers = tracing.layer_self_times(spans)
    trial_total = sum(layers.get(layer, 0.0) for layer in tracing.TRIAL_LAYERS)
    distribute_s = own.get("distribute_for_trial", 0.0)
    schedule_s = own.get("ListScheduler.schedule", 0.0)
    n_calls = calls.get("distribute_for_trial", 0)
    computed = counters.get("slicer.distributions", 0.0)
    slices = counters.get("slicer.slices", 0.0)
    hits = counters.get("expanded.cache.hits", 0.0)
    lookups = hits + counters.get("expanded.cache.misses", 0.0)
    tasks = counters.get("list.tasks_placed", 0.0)
    chunks = [end - start for _, _, name, start, end, _ in spans
              if name == "run_chunk"]
    graph_sizes = facts.get("subtasks_per_graph", [])
    return {
        "graph.generate_s": (own.get("graph_for_trial", 0.0), "s", n),
        "graph.subtasks_per_graph": (
            sum(graph_sizes) / len(graph_sizes) if graph_sizes else 0.0,
            "count", len(graph_sizes)),
        "core.distribute_s": (distribute_s, "s", n),
        "core.distribute_calls": (n_calls, "count", n),
        "core.distributions_computed": (computed, "count", n),
        "core.distribution_reuse_ratio": (
            (n_calls - computed) / n_calls if n_calls else 0.0, "ratio", n),
        "core.slices": (slices, "count", n),
        "core.us_per_slice": (
            distribute_s * 1e6 / slices if slices else 0.0, "us", n),
        "core.expanded_cache_hit_ratio": (
            hits / lookups if lookups else 0.0, "ratio", n),
        "core.self_share": (
            layers.get("core", 0.0) / trial_total if trial_total else 0.0,
            "ratio", n),
        "sched.schedule_s": (schedule_s, "s", n),
        "sched.schedule_calls": (
            calls.get("ListScheduler.schedule", 0), "count", n),
        "sched.tasks_placed": (tasks, "count", n),
        "sched.messages_placed": (
            counters.get("list.messages_placed", 0.0), "count", n),
        "sched.us_per_task_placed": (
            schedule_s * 1e6 / tasks if tasks else 0.0, "us", n),
        "sched.metrics_s": (own.get("schedule_metrics", 0.0), "s", n),
        "sched.self_share": (
            layers.get("sched", 0.0) / trial_total if trial_total else 0.0,
            "ratio", n),
        "feast.record_s": (own.get("make_record", 0.0), "s", n),
        "feast.chunk_s_p50": (median(chunks), "s", len(chunks)),
        "feast.chunk_result_bytes": (
            median(facts.get("chunk_result_bytes", [])), "bytes",
            len(facts.get("chunk_result_bytes", []))),
    }


def batch_layers(traced: List[Dict[str, Any]]
                 ) -> Dict[str, Tuple[float, str, int]]:
    """Per-layer metrics: each one's median over the traced repetitions.

    Times are rescaled to the reference core speed by the repetition's
    median calibration; ``trace.overhead_frac`` sets each traced
    repetition against the untraced one run just before it.
    """
    per_rep = []
    for rep in traced:
        spans, facts, counters = rep["trace"]
        metrics = trial_layers(spans, facts, counters, 1)
        metrics["feast.engine_overhead_s"] = (
            rep["wall"] - rep["calibration_s"]
            - sum(tracing.self_times(spans).values()), "s", 1)
        for key, (value, unit, n) in metrics.items():
            if unit in ("s", "us"):
                metrics[key] = (value * rep["speed"], unit, n)
        plain = rep["untraced"]
        metrics["trace.overhead_frac"] = (
            (rep["wall"] - rep["calibration_s"]) * rep["speed"]
            / ((plain["wall"] - plain["calibration_s"]) * plain["speed"])
            - 1.0, "ratio", 1)
        per_rep.append(metrics)
    if not per_rep:
        return {}
    out = {key: (median([rep[key][0] for rep in per_rep]), unit,
                 len(per_rep))
           for key, (_, unit, _) in per_rep[0].items()}
    # The journal, the service and the load generator do not run in a
    # batch workload: zero work measured.
    for key, unit in SERVE_ONLY_LAYERS.items():
        out[key] = (0.0, unit, 0)
    return out


SERVE_ONLY_LAYERS = {
    "persistence.journal_append_s_p50": "s",
    "persistence.journal_bytes_per_job": "bytes",
    "serve.submit_s_p50": "s",
    "serve.poll_s_p50": "s",
    "serve.result_s_p50": "s",
    "serve.queue_wait_s_p50": "s",
    "serve.run_s_p50": "s",
    "serve.notify_lag_s_p50": "s",
    "serve.polls_per_job": "count",
    "serve.rejected": "count",
    "serve.queue_depth_max": "count",
    "loadgen.lag_p95_s": "s",
}


# ----------------------------------------------------------------------
# The service workload
# ----------------------------------------------------------------------
def serve_phase(seed: int, seconds: float, run_dir: str, label: str,
                checks: Checks, setups: int, trace_out: Optional[str] = None,
                standin: bool = False) -> Dict[str, Any]:
    """Launch servers, offer ``seconds`` of open-loop load to the last.

    With ``standin``, the stand-in service takes a job between every two
    of the service's, at the same rate; its outcomes are returned apart.
    """
    env = child_env(run_dir)
    n_jobs = max(1, int(round(workloads.SERVE_RATE * seconds)))
    documents = workloads.serve_documents(seed, n_jobs)
    # Job i of the generator is document i // targets; the service takes
    # the generator's even jobs when the stand-in takes the odd ones.
    targets = 2 if standin else 1
    sent = [doc for doc in documents for _ in range(targets)]
    step = max(1, n_jobs // SERVE_VERIFY_SAMPLE)
    sample = frozenset(i * targets for i in range(0, n_jobs, step))
    # Set-up is timed on servers of its own, each held to one core with
    # calibrations around it (README.md, "Noise"), then stopped; the
    # first only fills this run's bytecode cache.
    setup = []
    cores = sorted(os.sched_getaffinity(0))
    for attempt in range(setups + 1 if setups else 0):
        probe = serve_load.launch_server(
            ROOT, os.path.join(run_dir, f"{label}-setup-{attempt}"), env,
            cpu=cores[attempt % len(cores)])
        probe.stop()
        if attempt:
            setup.append(probe.setup_s * probe.speed)
    data_dir = os.path.join(run_dir, f"{label}-data")
    servers = [serve_load.launch_server(ROOT, data_dir, env,
                                        trace_out=trace_out)]
    try:
        if standin:
            servers.append(serve_load.launch_server(
                ROOT, os.path.join(run_dir, f"{label}-standin"), env,
                standin=True))
        generator = serve_load.LoadGenerator(
            [server.port for server in servers], sent,
            workloads.SERVE_RATE * targets, workloads.SERVE_POLL_S,
            len(cores), sample, scrape=trace_out is not None)
        outcomes = generator.run()
        rss_mb = servers[0].peak_rss_mb()
    finally:
        codes = [server.stop() for server in servers]
    for code, name in zip(codes, ("server", "stand-in")):
        checks.op(code == 0, f"{name} exited {code} on SIGTERM")
    for out in outcomes:
        checks.op(out.ok and out.n_records > 0,
                  f"{'stand-in ' if out.index % targets else ''}job "
                  f"{out.index // targets}: {out.error or out.state}")
    served = outcomes[::targets]
    for index, same in serve_load.verify_sample(sent, served):
        checks.op(same, f"job {index // targets}: service records differ "
                        f"from an in-process run_experiment of its document")
    journals = os.path.join(data_dir, "jobs")
    journal_bytes = [os.path.getsize(os.path.join(journals, f))
                     for f in os.listdir(journals) if f.endswith(".ckpt")]
    return {
        "setup": setup,
        "outcomes": served,
        "standin": outcomes[1::2] if standin else [],
        "rss_mb": rss_mb,
        "queue_depths": generator.queue_depths,
        "journal_bytes": journal_bytes,
        "n_jobs": n_jobs,
    }


def latencies(outcomes: List[Any]) -> List[float]:
    """Due time to ``done`` seen, seconds, of every job that succeeded."""
    return [o.seen - o.due for o in outcomes if o.ok]


def run_serve(seed: int, seconds: float, trace: bool, run_dir: str,
              checks: Checks
              ) -> Tuple[Dict[str, Tuple[float, str, int]], Dict[str, Any]]:
    if not trace:
        phase = serve_phase(seed, seconds, run_dir, "load", checks,
                            SERVER_SETUPS, standin=True)
        done = [o for o in phase["outcomes"] if o.ok]
        window = (max(o.seen for o in done) - min(o.due for o in done)
                  if done else 0.0)
        latency = latencies(done)
        reference = latencies(phase["standin"])
        n = len(done)
        trials = sum(o.n_records for o in done)
        raw = {
            "latency_p50_s": harrell_davis(latency, 0.50),
            "latency_p95_s": harrell_davis(latency, 0.95),
            "standin_p50_s": harrell_davis(reference, 0.50),
            "standin_p95_s": harrell_davis(reference, 0.95),
        }
        metrics = {
            "setup_s": (median(phase["setup"]), "s", len(phase["setup"])),
            "trials_per_s": (trials / window if window else 0.0,
                             "trials/s", trials),
            "jobs_per_s": (n / window if window else 0.0, "jobs/s", n),
            "submit_to_result_p50_s": (
                raw["latency_p50_s"] * STANDIN_P50_S / raw["standin_p50_s"]
                if reference else 0.0, "s", n),
            "submit_to_result_p95_s": (
                raw["latency_p95_s"] * STANDIN_P95_S / raw["standin_p95_s"]
                if reference else 0.0, "s", n),
            "peak_rss_mb": (phase["rss_mb"], "MiB", 1),
        }
        lag = [o.sent - o.due for o in phase["outcomes"] if o.sent]
        return metrics, dict(raw, **{
            "offered_rate": workloads.SERVE_RATE,
            "jobs": phase["n_jobs"],
            "standin_jobs": len(reference),
            "loadgen_lag_p95_s": percentile(lag, 0.95),
        })

    # Traced: the same documents, first untraced then traced, half the
    # time each; the traced server's spans give the per-layer numbers.
    half = seconds / 2.0
    trace_out = os.path.join(run_dir, "trace-serve.json")
    plain = serve_phase(seed, half, run_dir, "plain", checks, 0)
    traced = serve_phase(seed, half, run_dir, "traced", checks, 0, trace_out)
    for a, b in zip(plain["outcomes"], traced["outcomes"]):
        if a.ok and b.ok:
            checks.op(a.digest == b.digest,
                      f"job {a.index}: traced records differ from untraced")
    spans, facts, counters = tracing.load_trace(trace_out)
    checks.replays(facts)
    done = [o for o in traced["outcomes"] if o.ok]
    n = len(done)

    def job_p50(field: str) -> Tuple[float, str, int]:
        return median([getattr(o, field) for o in done]), "s", n

    plain_run = median([o.run_s for o in plain["outcomes"] if o.ok])
    appends = [end - start for _, _, name, start, end, _ in spans
               if name == "CheckpointJournal.append"]
    lag = [o.sent - o.due for o in traced["outcomes"] if o.sent]
    metrics = trial_layers(spans, facts, counters, 1)
    metrics.update({
        "feast.engine_overhead_s": (
            sum(o.run_s for o in plain["outcomes"] if o.ok)
            - sum(tracing.self_times(spans).values()), "s", n),
        "persistence.journal_append_s_p50": (
            median(appends), "s", len(appends)),
        "persistence.journal_bytes_per_job": (
            statistics.mean(traced["journal_bytes"])
            if traced["journal_bytes"] else 0.0, "bytes",
            len(traced["journal_bytes"])),
        "serve.submit_s_p50": job_p50("submit_s"),
        "serve.poll_s_p50": (
            median([s for o in done for s in o.poll_s]), "s",
            sum(len(o.poll_s) for o in done)),
        "serve.result_s_p50": job_p50("result_s"),
        "serve.queue_wait_s_p50": job_p50("queue_wait_s"),
        "serve.run_s_p50": job_p50("run_s"),
        "serve.notify_lag_s_p50": job_p50("notify_lag_s"),
        "serve.polls_per_job": (
            sum(o.polls for o in done) / n if n else 0.0, "count", n),
        "serve.rejected": (
            sum(1 for o in traced["outcomes"]
                if o.error.startswith("submit refused")), "count",
            traced["n_jobs"]),
        "serve.queue_depth_max": (
            max(traced["queue_depths"], default=0.0), "count",
            len(traced["queue_depths"])),
        "loadgen.lag_p95_s": (percentile(lag, 0.95), "s", len(lag)),
        "trace.overhead_frac": (
            job_p50("run_s")[0] / plain_run - 1.0 if plain_run else 0.0,
            "ratio", n),
    })
    return metrics, {"offered_rate": workloads.SERVE_RATE}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2

    context = machine_context()
    run_dir = fresh_run_dir(args.workload)
    checks = Checks()
    began = time.time()
    metrics: Dict[str, Tuple[float, str, int]] = {}
    details: Dict[str, Any] = {}
    try:
        if WORKLOADS[args.workload] == "batch":
            metrics, details = run_batch(args.workload, args.seed,
                                         args.seconds, bool(args.trace),
                                         run_dir, checks)
        else:
            metrics, details = run_serve(args.seed, args.seconds,
                                         bool(args.trace), run_dir, checks)
    except Exception as exc:  # a broken program: report it, not a traceback
        checks.fail(f"run aborted: {type(exc).__name__}: {exc}")
    finally:
        # Keep the spans of a traced run; drop caches and service data.
        for name in os.listdir(run_dir):
            path = os.path.join(run_dir, name)
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
            elif not name.startswith("trace-"):
                os.remove(path)

    attempted = max(1, checks.attempted)
    failed = checks.failed
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("context: " + json.dumps(context, sort_keys=True))
    for problem in checks.problems[:20]:
        print(f"FAILED: {problem}")
    if "core_speed" in details:
        print(f"core speed: {details['core_speed']:.3f} × the reference "
              f"(reference calibration time ÷ measured, median)")
    if "standin_p95_s" in details:
        print("as measured: service p50 {latency_p50_s:.6g} s, p95 "
              "{latency_p95_s:.6g} s; stand-in p50 {standin_p50_s:.6g} s, "
              "p95 {standin_p95_s:.6g} s".format(**details))
    print(f"failed_frac = {failed / attempted:.6g} ratio "
          f"(n={attempted} operations)")
    for key in sorted(metrics):
        value, unit, n = metrics[key]
        print(f"{key} = {value:.6g} {unit} (n={n})")

    result_dir = os.path.join(WORK, "results")
    os.makedirs(result_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(began))
    with open(os.path.join(
            result_dir,
            f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"),
            "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "context": context, "attempted": attempted, "failed": failed,
            "problems": checks.problems,
            "metrics": {k: {"value": v, "unit": u, "n": n}
                        for k, (v, u, n) in metrics.items()},
            "details": {k: v for k, v in details.items()
                        if k not in ("samples",)},
            "samples": [{k: v for k, v in s.items()
                         if k in ("setup_s", "wall", "calibration_s",
                                  "rss_mb", "speed", "latency_ref_s")}
                        for s in details.get("samples", [])],
        }, fh, indent=1, sort_keys=True, default=str)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in sorted(metrics.items())},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
