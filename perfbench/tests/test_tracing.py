from perfbench import run, tracing
from perfbench.workloads import Sweep, Workload


def test_self_time_subtracts_children(monkeypatch):
    # root [0, 10) with children [1, 3) and [4, 8); [4, 8) has child [5, 6)
    clock = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    monkeypatch.setattr(tracing, "perf_counter", lambda: next(clock))
    tracer = tracing.Tracer()
    root = tracer.begin("root")
    tracer.finish(tracer.begin("a"))
    b = tracer.begin("b")
    tracer.finish(tracer.begin("c"))
    tracer.finish(b)
    tracer.finish(root)
    assert list(tracer.parent) == [-1, 0, 0, 2]
    assert tracing.self_times(tracer) == [4.0, 2.0, 3.0, 1.0]


def test_span_totals_by_name():
    tracer = tracing.Tracer()
    outer = tracer.begin("a")
    inner = tracer.begin("b")
    tracer.finish(inner)
    tracer.finish(outer)
    calls, self_s = tracing.span_totals(tracer)
    assert calls == {"a": 1, "b": 1}
    assert self_s["a"] >= 0 and self_s["b"] >= 0
    assert tracer.parent[inner] == outer


def test_install_rebinds_every_binding_and_restores():
    import sys

    import tevdeg.cli

    # the package's `certify` attribute is the function, not the module
    certify_module = sys.modules["tevdeg.certify"]
    cli = sys.modules["tevdeg.cli"]
    original = sys.modules["tevdeg.closed_forms"].vtev
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        assert cli.vtev is not original
        assert certify_module.vtev is cli.vtev
        assert cli.run_vtev("p:2", 2, 2).status == "ok"
    assert cli.vtev is original and certify_module.vtev is original
    calls, _ = tracing.span_totals(tracer)
    assert calls["cli.run_cell"] == 1
    assert calls["closed_forms.vtev"] == 1
    assert set(tracer.cell) == {0}


TINY = Workload(
    "tiny",
    (
        Sweep("certify", 0, 3, 1, 8, target="p:1"),
        Sweep("vtev", 0, 3, 1, 8, target="hyp:3:7"),
        Sweep("tev-p1", 0, 6, 1, 6),
        Sweep("qh-check", 0, 3, 1, 9, r=2),
    ),
    ("vtev", "--target", "p:1", "--g", "1", "--d", "2", "--json"),
    (),
)


def traced_layers():
    bench = run.Bench(TINY, seed=0)
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        _, ranges = bench.main_pass(tracer)
    assert bench.tally.failed == 0
    return bench.layer_metrics(tracer, ranges)


def test_counts_repeat_exactly_across_traced_runs():
    first, second = traced_layers(), traced_layers()
    counts = {k: v for k, v in first.items() if run.is_count(k)}
    assert counts == {k: second[k] for k in counts}
    for name in ("calls", "tasks", "terms_in", "monomial_pairs", "ok_ratio",
                 "out_bits"):
        assert any(k.endswith("." + name) for k in counts)
    assert first["schubert.pieri_special.calls"] > 0
    assert first["quantum.q_mul.monomial_pairs"] > 0
    assert first["closed_forms.vtev.out_bits"] > 0
    if run.WORKERS > 1:
        assert first["cli.pool.tasks"] > 0
        assert first["cli.pool.result_bytes"] > 0


def test_metric_lists_match_the_manifest():
    import json

    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in manifest["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in manifest["per_layer"]] == list(run.per_layer_units())
    for m in manifest["end_to_end"] + manifest["per_layer"]:
        units = {**run.END_TO_END_UNITS, **run.per_layer_units()}
        assert m["unit"] == units[m["name"]]


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "ring-oracle", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
