from perfbench.workloads import (
    CHEAP_PLAN, RING_RANKS, WORKLOADS, cheap_grid, line_oracle, ring_oracle,
)

SEEDS = range(1, 21)


def test_seed_keeps_what_sets_the_cost():
    # The seed may move cells around, but not change targets, ranks,
    # window shapes or cell counts, which set how much work a run is.
    for seed in SEEDS:
        cheap = cheap_grid(seed)
        assert [(s.command, s.target) for s in cheap.sweeps] == list(CHEAP_PLAN)
        assert {s.cells for s in cheap.sweeps} == {2400}

        (line,) = line_oracle(seed).sweeps
        assert line.g_min + line.d_min == 9 and line.cells == 41 * 40

        ring = ring_oracle(seed)
        assert sorted((s.r, s.g_max, s.d_max) for s in ring.sweeps) == sorted(
            (s.r, s.g_max, s.d_max) for s in ring_oracle(1).sweeps)
        assert sorted({args[0] for _, args in ring.calls}) == list(RING_RANKS)


def test_calls_mirror_sweeps_where_a_cell_is_a_call():
    for name in ("cheap-grid", "line-oracle"):
        assert WORKLOADS[name](3).calls_mirror_sweeps
    assert len(ring_oracle(3).calls) == 1000
