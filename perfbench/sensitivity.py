"""Sensitivity self-check: does a 10% slower list scheduler show?

Runs ``figure5-serial`` in pairs, once as is and once with every
``ListScheduler.schedule`` call slowed by 10% of its own time (busy
time, added from the benchmark side), alternating which side runs first,
each pair on its own seed. Prints both sides' medians and quartiles of
``trials_per_s`` and the shift relative to the run-to-run spread.

Usage: ``python3 perfbench/sensitivity.py`` (about ten minutes).
"""

from __future__ import annotations

import shutil
import statistics
import sys

import run

#: Share of its own time by which every list-scheduler call is slowed.
DELAY = 0.10

#: Pairs of runs, on seeds 100, 101, ...; and seconds measured per run,
#: the ``run_seconds`` of ``BENCHMARK.json``.
PAIRS = 5
SECONDS = 30.0


def measure(seed: int, seconds: float, delay: float) -> float:
    checks = run.Checks()
    run_dir = run.fresh_run_dir("sensitivity")
    try:
        metrics, _ = run.run_batch("figure5-serial", seed, seconds, False,
                                   run_dir, checks, sched_delay=delay)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if checks.failed:
        raise SystemExit(f"outputs wrong: {checks.problems}")
    return metrics["trials_per_s"][0]


def main() -> int:
    base, slowed = [], []
    for pair in range(PAIRS):
        seed = 100 + pair
        order = (0.0, DELAY) if pair % 2 == 0 else (DELAY, 0.0)
        for delay in order:
            value = measure(seed, SECONDS, delay)
            (slowed if delay else base).append(value)
            print(f"pair {pair} seed {seed} delay {delay:.2f}: "
                  f"trials_per_s {value:.2f}", flush=True)

    def describe(values):
        q1, _, q3 = statistics.quantiles(values, n=4)
        return statistics.median(values), q1, q3

    med_b, q1_b, q3_b = describe(base)
    med_s, q1_s, q3_s = describe(slowed)
    wins = sum(s < b for b, s in zip(base, slowed))
    print(f"as is:   median {med_b:.2f} trials/s (q1 {q1_b:.2f}, q3 {q3_b:.2f})")
    print(f"slowed:  median {med_s:.2f} trials/s (q1 {q1_s:.2f}, q3 {q3_s:.2f})")
    print(f"shift {(med_s - med_b) / med_b:+.2%} of the median; "
          f"spread (IQR) {(q3_b - q1_b) / med_b:.2%}; "
          f"slowed side lower in {wins}/{len(base)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
