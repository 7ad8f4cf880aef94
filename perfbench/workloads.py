"""Seeded workload generators.

A workload is a list of CLI sweeps plus the in-process `cli.run_*`
calls that time single cells. The number of cells in each sweep is
fixed, and the seed moves only what leaves a run's cost unchanged, so
that two seeds differ in which cells are computed, not in how much
work they are. Where a choice would change the cost (a cheap-grid
target, a ring-oracle rank or window shape), it is fixed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

DEFAULT_SEED = 1

# Cells per cheap-grid sweep: a 40 x 60 (g, d) window.
CHEAP_G, CHEAP_D = 40, 60
# cheap-grid targets, one sweep each.
CHEAP_PLAN = (
    ("certify", "p:1"),  # reaches schubert through tev_p1_binomial
    ("vtev", "p:2"),
    ("vtev", "hyp:3:7"),
    ("certify", "quadric:5"),
    ("certify", "custom:5:2:3:3:2,3"),  # the complete-intersection check
)
# The line-oracle window: 41 genera by 40 degrees.
LINE_G, LINE_D = 41, 40
# qh-check ranks, each swept over a (g_max + 1, d_max) window of 1200
# cells; the shapes are spread over the ranks.
RING_RANKS = (1, 2, 3, 5, 8)
RING_SHAPES = ((20, 60), (24, 50), (25, 48), (30, 40))
# In-process qh-check calls: a whole qh-check sweep is one call, so
# cell latency is timed on the 200 smallest windows of each of the
# workload's ranks, the 1000 calls a p99 needs.
RING_CALLS_PER_RANK = 200
RING_CALL_WINDOWS = sorted(
    ((g_max, d_max) for g_max in range(RING_CALLS_PER_RANK)
     for d_max in range(1, RING_CALLS_PER_RANK + 1)),
    key=lambda w: ((w[0] + 1) * w[1], w),
)[:RING_CALLS_PER_RANK]


@dataclass(frozen=True)
class Sweep:
    """One CLI invocation over a (g, d) grid.

    `command` is a tevdeg subcommand. For `qh-check` the grid is
    0..g_max by 1..d_max for rank `r`; otherwise it is
    g_min..g_max by d_min..d_max for `target` (or the line).
    """

    command: str
    g_min: int
    g_max: int
    d_min: int
    d_max: int
    target: str | None = None
    r: int | None = None

    @property
    def pooled(self) -> bool:
        """Whether the subcommand accepts --workers."""
        return self.command != "qh-check"

    @property
    def cells(self) -> int:
        return (self.g_max - self.g_min + 1) * (self.d_max - self.d_min + 1)

    def grid(self) -> list[tuple[int, int]]:
        return [
            (g, d)
            for g in range(self.g_min, self.g_max + 1)
            for d in range(self.d_min, self.d_max + 1)
        ]

    def argv(self, workers: int = 1) -> list[str]:
        if self.command == "qh-check":
            args = ["qh-check", "--r", str(self.r),
                    "--g-max", str(self.g_max), "--d-max", str(self.d_max)]
        else:
            args = [self.command]
            if self.target is not None:
                args += ["--target", self.target]
            if self.command == "tev-p1":
                args += ["--method", "both"]
            args += ["--sweep",
                     "--g-min", str(self.g_min), "--g-max", str(self.g_max),
                     "--d-min", str(self.d_min), "--d-max", str(self.d_max)]
            if workers > 1:
                args += ["--workers", str(workers)]
        return args + ["--json"]

    def calls(self) -> list[tuple[str, tuple]]:
        """The same cells as in-process `cli.run_*` calls."""
        if self.command == "qh-check":
            return [("run_qh_check", (self.r, self.g_max, self.d_max))]
        if self.command == "tev-p1":
            return [("run_tev_p1", (g, d, "both")) for g, d in self.grid()]
        name = "run_vtev" if self.command == "vtev" else "run_certify"
        return [(name, (self.target, g, d)) for g, d in self.grid()]


@dataclass(frozen=True)
class Workload:
    name: str
    sweeps: tuple[Sweep, ...]
    probe: tuple[str, ...]  # single-point CLI call timed for setup_s
    calls: tuple[tuple[str, tuple], ...]  # in-process cli.run_* calls

    @property
    def calls_mirror_sweeps(self) -> bool:
        """True when `calls` are exactly the sweeps' cells, in order."""
        return self.calls == tuple(c for s in self.sweeps for c in s.calls())


def _window(rng: random.Random, g_span: int, d_span: int,
            g_shift: int, d_shift: int) -> tuple[int, int, int, int]:
    g_min = rng.randrange(0, g_shift + 1)
    d_min = rng.randrange(1, d_shift + 2)
    return g_min, g_min + g_span - 1, d_min, d_min + d_span - 1


def cheap_grid(seed: int) -> Workload:
    rng = random.Random(seed)
    # Moving a 40 x 60 window by a few genera and degrees keeps the
    # share of well-posed cells and the output size within 1%.
    sweeps = tuple(
        Sweep(command, *_window(rng, CHEAP_G, CHEAP_D, 5, 9), target=target)
        for command, target in CHEAP_PLAN
    )
    probe = ("certify", "--target", "p:1",
             "--g", str(rng.randrange(0, 6)), "--d", str(rng.randrange(3, 9)),
             "--json")
    calls = tuple(c for sweep in sweeps for c in sweep.calls())
    return Workload("cheap-grid", sweeps, probe, calls)


def line_oracle(seed: int) -> Workload:
    rng = random.Random(seed)
    # Pieri work grows with both g and d; keeping g_min + d_min fixed
    # and g_min small holds a sweep's cost and its cell-time median
    # within 3% across seeds.
    g_min = rng.randrange(0, 5)
    d_min = 9 - g_min
    sweeps = (Sweep("tev-p1", g_min, g_min + LINE_G - 1, d_min, d_min + LINE_D - 1),)
    g = rng.randrange(0, 8)
    probe = ("tev-p1", "--g", str(g), "--d", str(g // 2 + rng.randrange(2, 6)),
             "--method", "both", "--json")
    calls = tuple(c for sweep in sweeps for c in sweep.calls())
    return Workload("line-oracle", sweeps, probe, calls)


def ring_oracle(seed: int) -> Workload:
    # A qh-check sweep's cost depends strongly on its rank and window,
    # so both are fixed; the seed orders the sweeps and the calls and
    # picks the probe's rank.
    rng = random.Random(seed)
    sweeps = [
        Sweep("qh-check", 0, g_cells - 1, 1, d_max, r=r)
        for r, (g_cells, d_max) in zip(RING_RANKS, itertools.cycle(RING_SHAPES))
    ]
    rng.shuffle(sweeps)
    calls = [
        ("run_qh_check", (r, g_max, d_max))
        for r in RING_RANKS
        for g_max, d_max in RING_CALL_WINDOWS
    ]
    rng.shuffle(calls)
    r = rng.choice(RING_RANKS)
    probe = ("qh-check", "--r", str(r), "--g-max", "2", "--d-max", str(2 * r),
             "--json")
    return Workload("ring-oracle", tuple(sweeps), probe, tuple(calls))


WORKLOADS = {
    "cheap-grid": cheap_grid,
    "line-oracle": line_oracle,
    "ring-oracle": ring_oracle,
}
