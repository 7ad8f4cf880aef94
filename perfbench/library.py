"""Timing of in-process `cli.run_*` calls, the library path of a cell.

`time_calls` runs in a fresh interpreter for every pass,

    python3 -m perfbench.library <workload> <seed> <seconds>

which writes its result to stdout as one pickle. A cell's cost in one
long-lived process depends on that process's memory layout and on the
machine's speed at that moment, so the benchmark keeps each call's
fastest time over many repetitions, made in separate processes spread
over the run. The program keeps no caches between calls, so a
repeated call does the same work as the first.
"""

from __future__ import annotations

import gc
import math
import pickle
import sys
from time import perf_counter

from .workloads import WORKLOADS

CELL_ENTRY_POINTS = ("run_vtev", "run_tev_p1", "run_qh_check", "run_certify")


def time_calls(workload: str, seed: int,
               seconds: float) -> tuple[list[float], list, int]:
    """Each call's fastest time in microseconds over repetitions of the
    whole call list for at least `seconds`, the first repetition's
    records as dicts, and the number of repetitions.

    The collector is paused while timing, as `timeit` does, so that a
    collection is not charged to whichever cell triggers it.
    """
    from tevdeg import cli

    fns = {name: getattr(cli, name) for name in CELL_ENTRY_POINTS}
    calls = [(fns[name], args) for name, args in WORKLOADS[workload](seed).calls]
    best = [math.inf] * len(calls)
    results = []
    reps = 0
    t_start = perf_counter()
    while reps == 0 or perf_counter() - t_start < seconds:
        gc.collect()
        gc.disable()
        try:
            for i, (fn, args) in enumerate(calls):
                t0 = perf_counter()
                result = fn(*args)
                best[i] = min(best[i], (perf_counter() - t0) * 1e6)
                if reps == 0:
                    results.append(result)
        finally:
            gc.enable()
        reps += 1
    records = [
        [r.to_dict() for r in result] if isinstance(result, list) else result.to_dict()
        for result in results
    ]
    return best, records, reps


def main() -> None:
    workload, seed, seconds = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    out = sys.stdout.buffer
    sys.stdout = sys.stderr  # keep stdout for the pickle alone
    result = time_calls(workload, seed, seconds)
    out.write(pickle.dumps(result))
    out.flush()


if __name__ == "__main__":
    main()
