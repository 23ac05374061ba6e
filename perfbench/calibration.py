"""A fixed piece of CPU work that tells how fast the core is right now.

On a shared host a core's speed swings as neighbours come and go
(README.md, "Noise"). The benchmark times :func:`calibrate` next to each
measured piece of the program's work and reports that work rescaled to a
core that runs the calibration in :data:`CAL_REF_S`. The calibration
belongs to the benchmark, not to the program, so a change to the program
never changes it.
"""

from __future__ import annotations

import random
import time

#: What :func:`calibrate` takes on an uncontended core of the host the
#: benchmark was written on. Any constant would do: runs are only ever
#: compared with each other.
CAL_REF_S = 170e-6

_rng = random.Random(1)
_N = 60
_PREDS = [sorted({_rng.randrange(i) for _ in range(min(i, 3))})
          for i in range(_N)]
_COST = [_rng.uniform(1.0, 20.0) for _ in range(_N)]


def _place_all() -> None:
    """Greedy earliest-start placement of a fixed 60-node DAG on 4 cores.

    Dict, list and float work of the kind the list scheduler does, so a
    slowed core slows it about as much as it slows the trials.
    """
    finish = {}
    available = [0.0] * 4
    for j in range(_N):
        best_start, best_p = None, 0
        for p in range(4):
            start = available[p]
            for q in _PREDS[j]:
                done, on = finish[q]
                arrive = done if on == p else done + 2.5
                if arrive > start:
                    start = arrive
            if best_start is None or start < best_start:
                best_start, best_p = start, p
        finish[j] = (best_start + _COST[j], best_p)
        available[best_p] = best_start + _COST[j]


def calibrate() -> float:
    """Seconds this core takes for the fixed calibration work."""
    start = time.perf_counter()
    _place_all()
    _place_all()
    return time.perf_counter() - start
