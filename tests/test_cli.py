"""CLI behavior: grammar, records, serialization, exit codes, sweeps."""

from __future__ import annotations

import ast
import concurrent.futures
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import tevdeg

from tevdeg import (
    InvalidTarget,
    TargetKind,
    TargetParseError,
    TargetSpec,
    TevError,
    VTevResult,
    cli,
    closed_forms,
    make_problem,
    tev_p1_binomial,
)
from tevdeg.cli import main, parse_target, run_tev_p1, run_vtev
from tevdeg.targets import degree_step


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _json_records(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_parse_target_grammar():
    assert parse_target("p:3").kind is TargetKind.PROJECTIVE_SPACE
    assert parse_target("hyp:3:7").e == 3
    assert parse_target("hyp:2:5").kind is TargetKind.QUADRIC
    assert parse_target("quadric:4").r == 4
    gp = parse_target("gp:6:4:5:4")
    assert (gp.index, gp.s_bound, gp.t_bound) == (4, 5, 4)
    custom = parse_target("custom:7:6:6:6:3,2")
    assert custom.ci_degrees == (3, 2)
    for bad in ("", "p", "p:x", "hyp:3", "unknown:1", "p:1:2", "custom:1"):
        with pytest.raises(TargetParseError):
            parse_target(bad)
    # a field is ASCII digits with an optional leading minus, nothing else
    for bad in ("p:1_0", "p: 2", "p:2 ", "p:+2", "p:\u0662", "p:-", "p:--2",
                "hyp:3:\uff17", "custom:7:6:6:6:3,+2", "gp:6:4:5: 4"):
        with pytest.raises(TargetParseError):
            parse_target(bad)
    assert parse_target("p:007") == parse_target("p:7")
    with pytest.raises(InvalidTarget, match="needs r >= 1, got -2"):
        parse_target("p:-2")
    # a complete-intersection degree of 1 is the least allowed
    assert parse_target("custom:5:2:3:3:1,2").ci_degrees == (1, 2)
    with pytest.raises(InvalidTarget, match="degrees must be >= 1"):
        parse_target("custom:5:2:3:3:0,2")


def test_parse_target_keeps_the_last_256_texts():
    first = parse_target("quadric:9")
    assert parse_target("quadric:9") is first
    # 255 other texts later the spec is still kept; one more drops it
    for r in range(1000, 1255):
        parse_target(f"p:{r}")
    assert parse_target("quadric:9") is first
    for r in range(2000, 2256):
        parse_target(f"p:{r}")
    again = parse_target("quadric:9")
    assert again is not first and again == first


@pytest.mark.parametrize("text", ["p:x", "quadric:2", "custom:5:0", "gp:6:4:3:4"])
def test_parse_target_raises_afresh_for_bad_text(text):
    with pytest.raises(TevError) as first:
        parse_target(text)
    with pytest.raises(TevError) as second:
        parse_target(text)
    assert second.value is not first.value
    assert type(second.value) is type(first.value)
    assert str(second.value) == str(first.value)


def _outcome(build):
    """The spec `build()` returns, or the class and message it raises."""
    try:
        return build()
    except TevError as exc:
        return type(exc), str(exc)


def test_asserted_targets_parse_as_their_factories_build():
    # each gp: and custom: text gives the factory's spec, or its error
    fields = range(-1, 7)
    degree_lists = [None, (0,), (0, 2), (3, 0), (2, 0, 3), (2, 3)]
    checked = 0
    for r, index in itertools.product(fields, repeat=2):
        for head, factory in (("gp", TargetSpec.homogeneous), ("custom", TargetSpec.custom)):
            got = _outcome(lambda: parse_target(f"{head}:{r}:{index}"))
            assert got == _outcome(lambda: factory(r, index)), (head, r, index)
            checked += 1
        for s, t in itertools.product(fields, repeat=2):
            text = f"gp:{r}:{index}:{s}:{t}"
            got = _outcome(lambda: parse_target(text))
            assert got == _outcome(lambda: TargetSpec.homogeneous(r, index, s, t)), text
            checked += 1
            for degrees in degree_lists:
                text = f"custom:{r}:{index}:{s}:{t}"
                if degrees is not None:
                    text += ":" + ",".join(map(str, degrees))
                got = _outcome(lambda: parse_target(text))
                want = _outcome(lambda: TargetSpec.custom(r, index, s, t, degrees))
                assert got == want, text
                if isinstance(got, TargetSpec):
                    assert all(type(getattr(got, name)) is int
                               for name in ("r", "e", "index", "s_bound", "t_bound"))
                checked += 1
    assert checked == 2 * 8 * 8 + 8 ** 4 * (1 + len(degree_lists))


# a valid command line for each integer flag, whose value the test
# replaces
INT_FLAG_ARGV = {
    "vtev": ["vtev", "--target", "p:2", "--g", "1", "--d", "3"],
    "sweep": ["vtev", "--target", "p:2", "--sweep", "--g-min", "0", "--g-max", "1",
              "--d-min", "1", "--d-max", "3", "--workers", "1"],
    "qh-check": ["qh-check", "--r", "2", "--g-max", "1", "--d-max", "3"],
    "very-free": ["very-free", "--e", "3", "--r", "7", "--p", "5"],
}
INT_FLAGS = [
    pytest.param(argv, flag, id=f"{name}{flag}")
    for name, argv in INT_FLAG_ARGV.items()
    for flag in argv
    if flag.startswith("--") and flag not in ("--target", "--sweep")
]


@pytest.mark.parametrize("argv, flag", INT_FLAGS)
@pytest.mark.parametrize("text", ["1_0", " 2", "2 ", "+2", "\u0666", "\uff17", "", "x"])
def test_integer_flags_follow_the_grammar_rule(capsys, argv, flag, text):
    # the same rule as a grammar field; int() would take all but the
    # last two, and a bad value is a usage error naming the flag
    argv = list(argv)
    argv[argv.index(flag) + 1] = text
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--json"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: expected an integer, got {text!r}" in err


def test_integer_flags_take_leading_zeros(capsys):
    # as a grammar field does (`p:007` is `p:7`); a leading minus
    # reaches its DomainError record, as test_exit_code_per_error_kind checks
    code, padded = _run(capsys, ["vtev", "--target", "p:2", "--g", "003", "--d", "06", "--json"])
    assert code == 0
    assert padded == _run(capsys, ["vtev", "--target", "p:2", "--g", "3", "--d", "6", "--json"])[1]


def test_vtev_table_output(capsys):
    code, out = _run(capsys, ["vtev", "--target", "hyp:3:7", "--g", "1", "--d", "7"])
    assert code == 0
    assert "value = 10368" in out
    assert "n = 6" in out
    assert "factorization = 2^6 * 6^1 * 3^3" in out


def test_vtev_json_output(capsys):
    code, out = _run(
        capsys, ["vtev", "--target", "p:1", "--g", "2", "--d", "3", "--json"]
    )
    assert code == 0
    (record,) = _json_records(out)
    assert record["status"] == "ok"
    assert record["outputs"]["value"] == "4"
    assert record["inputs"] == {"target": "p:1", "g": "2", "d": "3"}
    assert record["error_kind"] is None


def test_vtev_quadric(capsys):
    code, out = _run(
        capsys, ["vtev", "--target", "quadric:3", "--g", "1", "--d", "3", "--json"]
    )
    assert code == 0
    (record,) = _json_records(out)
    assert record["outputs"]["value"] == "2"


def test_numbers_are_decimal_strings(capsys):
    # 201^40 has 93 digits; a float would mangle it
    code, out = _run(
        capsys,
        ["vtev", "--target", "p:200", "--g", "40", "--d", "8000", "--json"],
    )
    assert code == 0
    (record,) = _json_records(out)
    value = record["outputs"]["value"]
    assert isinstance(value, str)
    assert value == str(201 ** 40)


def test_exit_code_well_posedness(capsys):
    code, out = _run(capsys, ["vtev", "--target", "p:2", "--g", "0", "--d", "1"])
    assert code == 3
    assert "NonIntegerN" in out


def test_exit_code_parse_error(capsys):
    code, out = _run(capsys, ["vtev", "--target", "nope:1", "--g", "0", "--d", "1"])
    assert code == 2
    assert "TargetParseError" in out


def test_exit_code_hypothesis_violation(capsys):
    # well-posed problem, but no closed form for homogeneous targets
    code, out = _run(capsys, ["vtev", "--target", "gp:4:3", "--g", "1", "--d", "4"])
    assert code == 4
    assert "NoKnownFormula" in out


def test_exit_code_non_fano(capsys):
    code, out = _run(capsys, ["vtev", "--target", "hyp:9:5", "--g", "0", "--d", "1"])
    assert code == 3
    assert "NonFano" in out


def test_tev_p1_both_methods(capsys):
    code, out = _run(capsys, ["tev-p1", "--g", "3", "--d", "4", "--method", "both", "--json"])
    assert code == 0
    (record,) = _json_records(out)
    assert record["outputs"] == {"binomial": "8", "schubert": "8", "agree": "true"}


def test_tev_p1_default_method(capsys):
    code, out = _run(capsys, ["tev-p1", "--g", "0", "--d", "1", "--json"])
    assert code == 0
    (record,) = _json_records(out)
    assert record["outputs"]["value"] == "1"


def test_tev_p1_unknown_method_is_a_parse_error():
    record = run_tev_p1(1, 2, "x")
    assert (record.status, record.error_kind) == ("error", "TargetParseError")
    assert record.outputs == {"message": "unknown method 'x'"}


def test_tev_p1_underflow_exit(capsys):
    code, out = _run(capsys, ["tev-p1", "--g", "5", "--d", "2"])
    assert code == 4
    assert "DegreeUnderflow" in out


def test_tev_p1_line_domain_exit(capsys):
    for g, d in (("-1", "3"), ("0", "0")):
        code, out = _run(capsys, ["tev-p1", "--g", g, "--d", d, "--json"])
        assert code == 4
        (record,) = _json_records(out)
        assert record["status"] == "error"
        assert record["error_kind"] == "LineDomainError"


def test_tev_p1_sweep_records_bad_cells(capsys):
    code, out = _run(
        capsys,
        ["tev-p1", "--sweep", "--g-min", "-1", "--g-max", "1", "--d-max", "2",
         "--method", "both", "--json"],
    )
    assert code == 0
    records = _json_records(out)
    assert len(records) == 6
    kinds = [r["error_kind"] for r in records]
    assert kinds == ["LineDomainError"] * 2 + [None, None, "DegreeUnderflow", None]


def test_qh_check_summary(capsys):
    code, out = _run(capsys, ["qh-check", "--r", "1", "--g-max", "0", "--d-max", "1", "--json"])
    assert code == 0
    (record,) = _json_records(out)
    assert record["outputs"] == {"cases": "1", "mismatches": "0"}


def test_qh_check_per_case(capsys):
    code, out = _run(
        capsys,
        ["qh-check", "--r", "2", "--g-max", "2", "--d-max", "8", "--per-case", "--json"],
    )
    assert code == 0
    records = _json_records(out)
    summary = records[-1]
    assert summary["outputs"]["mismatches"] == "0"
    assert len(records) == int(summary["outputs"]["cases"]) + 1
    assert all(r["outputs"]["agree"] == "true" for r in records[:-1])


def test_qh_check_invalid_rank_is_one_record(capsys):
    code, out = _run(
        capsys, ["qh-check", "--r", "0", "--g-max", "2", "--d-max", "3", "--json"]
    )
    assert code == 2
    (record,) = _json_records(out)
    assert record["error_kind"] == "InvalidTarget"
    assert record["outputs"] == {"message": "projective space needs r >= 1, got 0"}


def test_qh_check_asks_only_about_integral_degrees(monkeypatch):
    asked = []

    def recording_make_problem(target, g, d):
        asked.append((g, d))
        return make_problem(target, g, d)

    monkeypatch.setattr(cli, "make_problem", recording_make_problem)
    *_, summary = cli.run_qh_check(3, 5, 13)
    # over P^3 only d = 3, 6, 9, 12 have an integral marking count
    assert asked == [(g, d) for g in range(6) for d in (3, 6, 9, 12)]
    assert summary.outputs["mismatches"] == "0"
    assert int(summary.outputs["cases"]) > 0


def test_certify_record(capsys):
    code, out = _run(capsys, ["certify", "--target", "p:1", "--g", "3", "--d", "3", "--json"])
    assert code == 0
    (record,) = _json_records(out)
    assert record["outputs"]["status"] == "NotEnumerative"
    assert record["outputs"]["vtev"] == "8"
    assert record["outputs"]["geometric"] == "4"
    assert "check_1" in record["outputs"]


def test_certify_not_well_posed_is_a_status_not_an_error(capsys):
    code, out = _run(capsys, ["certify", "--target", "p:2", "--g", "0", "--d", "1", "--json"])
    assert code == 0
    (record,) = _json_records(out)
    assert record["status"] == "ok"
    assert record["outputs"]["status"] == "NotWellPosed"


def test_very_free_record(capsys):
    code, out = _run(capsys, ["very-free", "--e", "3", "--r", "8", "--p", "5", "--json"])
    assert code == 0
    (record,) = _json_records(out)
    assert record["outputs"]["n"] == "8"
    assert record["outputs"]["d"] == "8"
    assert record["outputs"]["valuation"] == "0"
    assert record["outputs"]["conclusion"] == "true"


def test_very_free_false_conclusion_still_ok(capsys):
    code, out = _run(capsys, ["very-free", "--e", "3", "--r", "5", "--p", "7", "--json"])
    assert code == 0
    (record,) = _json_records(out)
    assert record["outputs"]["conclusion"] == "false"


def test_very_free_hypothesis_exit(capsys):
    code, out = _run(capsys, ["very-free", "--e", "2", "--r", "8", "--p", "5"])
    assert code == 4


def test_sweep_emits_lexicographic_grid(capsys):
    code, out = _run(
        capsys,
        ["vtev", "--target", "p:2", "--sweep", "--g-max", "2", "--d-max", "3", "--json"],
    )
    assert code == 0
    records = _json_records(out)
    assert len(records) == 9
    cells = [(int(r["inputs"]["g"]), int(r["inputs"]["d"])) for r in records]
    assert cells == sorted(cells)
    # odd d makes n fractional on P^2: structured error records, sweep still 0
    by_cell = {cell: rec for cell, rec in zip(cells, records)}
    assert by_cell[(0, 1)]["status"] == "error"
    assert by_cell[(0, 1)]["error_kind"] == "NonIntegerN"
    assert by_cell[(1, 2)]["outputs"]["value"] == "3"
    assert by_cell[(2, 2)]["outputs"]["value"] == "9"


def test_sweep_workers_preserve_order_and_content(capsys):
    argv = ["tev-p1", "--sweep", "--g-max", "3", "--d-max", "5",
            "--method", "both", "--json"]
    code, sequential = _run(capsys, argv)
    assert code == 0
    code, parallel = _run(capsys, argv + ["--workers", "2"])
    assert code == 0
    assert sequential == parallel


def test_sweep_workers_below_one_rejected(capsys):
    for workers in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["tev-p1", "--sweep", "--g-max", "0", "--d-max", "2",
                  "--workers", workers])
        assert exc.value.code == 2
        assert "--workers must be >= 1" in capsys.readouterr().err


# one usage error of each kind raised after the subcommand is parsed
POST_PARSE_USAGE_ERRORS = [
    (["vtev", "--target", "p:2", "--sweep", "--g-max", "3"],
     "--sweep needs --g-max and --d-max"),
    (["tev-p1", "--sweep", "--g-max", "0", "--d-max", "2", "--workers", "0"],
     "--workers must be >= 1, got 0"),
    (["certify", "--target", "p:2", "--sweep", "--g-min", "3", "--g-max", "0",
      "--d-max", "2"],
     "empty sweep grid: g in [3, 0], d in [1, 2]"),
    (["qh-check", "--r", "2", "--g-max", "-1", "--d-max", "5"],
     "empty qh-check grid: g in [0, -1], d in [1, 5]"),
    (["very-free", "--e", "3", "--r", "8", "--p", "5", "--out", "{missing}"],
     "cannot open --out {missing}: No such file or directory"),
]


@pytest.mark.parametrize(
    "argv, message", POST_PARSE_USAGE_ERRORS,
    ids=["window", "workers", "sweep-grid", "qh-check-grid", "out"],
)
def test_usage_errors_print_the_subcommands_usage(capsys, tmp_path, argv, message):
    missing = str(tmp_path / "missing" / "records.jsonl")
    argv = [arg.replace("{missing}", missing) for arg in argv]
    message = message.replace("{missing}", missing)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    command = argv[0]
    assert captured.err.startswith(f"usage: tevdeg {command} ")
    assert captured.err.splitlines()[-1] == f"tevdeg {command}: error: {message}"


# a prefix of a long flag is not that flag: each of these would run,
# some with other inputs than they seem to name, were prefixes accepted
ABBREVIATED_FLAGS = [
    ["tev-p1", "--g", "3", "--d", "4", "--meth", "both", "--js"],
    ["qh-check", "--r", "3", "--g", "2", "--d", "3", "--json"],
    ["vtev", "--targ", "p:2", "--g", "1", "--d", "2"],
    ["qh-check", "--r", "2", "--g-max", "1", "--d-max", "2", "--per"],
    ["very-free", "--e", "3", "--r", "8", "--p", "5", "--js"],
]


@pytest.mark.parametrize(
    "argv", ABBREVIATED_FLAGS,
    ids=["tev-p1-meth-js", "qh-check-g-d", "vtev-targ", "qh-check-per", "very-free-js"],
)
def test_a_flag_must_be_spelled_in_full(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: tevdeg {argv[0]} ")


@pytest.fixture
def pool_sizes(monkeypatch):
    """The `max_workers` of every process pool a sweep constructs, on a
    host that claims 8 CPUs, so the CPU cap never binds unless a test
    lowers it."""
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    # `_sweep` imports the pool class when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    return sizes


@pytest.fixture
def chunk_sizes(monkeypatch):
    """The `chunksize` every process pool a sweep constructs is mapped
    with, on a host that claims 8 CPUs."""
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def map(self, fn, *iterables, chunksize=1, **kwargs):
            sizes.append(chunksize)
            return super().map(fn, *iterables, chunksize=chunksize, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    return sizes


@pytest.mark.parametrize(
    "window, chunk",
    [
        # 41 x 40 cells, the line-oracle window: 1640 // (4 * 2)
        (("2", "42", "7", "46"), 205),
        # 64 x 64 cells: 4096 // (4 * 2) is the cap itself
        (("0", "63", "1", "64"), 512),
        # 65 x 64 cells would get chunks of 520
        (("0", "64", "1", "64"), 512),
    ],
    ids=["41x40", "64x64", "65x64"],
)
def test_pool_chunks_hold_at_most_512_cells(capsys, chunk_sizes, window, chunk):
    g_min, g_max, d_min, d_max = window
    argv = ["tev-p1", "--method", "schubert", "--sweep", "--g-min", g_min,
            "--g-max", g_max, "--d-min", d_min, "--d-max", d_max, "--json"]
    code, serial = _run(capsys, argv)
    assert code == 0 and chunk_sizes == []
    code, pooled = _run(capsys, argv + ["--workers", "2"])
    assert code == 0
    assert chunk_sizes == [chunk]
    assert pooled == serial


def test_sweep_workers_capped_at_cell_count(capsys, pool_sizes):
    argv = ["tev-p1", "--sweep", "--g-max", "0", "--d-max", "2",
            "--method", "both", "--json"]
    code, serial = _run(capsys, argv)
    assert code == 0 and pool_sizes == []
    code, pooled = _run(capsys, argv + ["--workers", "3"])
    assert code == 0
    assert pool_sizes == [2]
    assert pooled == serial


def test_sweep_workers_capped_at_cpu_count(capsys, monkeypatch, pool_sizes):
    # a pool starts every one of its processes at its first task
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ["tev-p1", "--sweep", "--g-max", "1", "--d-max", "3",
            "--method", "both", "--json"]
    code, serial = _run(capsys, argv)
    assert code == 0 and pool_sizes == []
    code, pooled = _run(capsys, argv + ["--workers", "64"])
    assert code == 0
    assert pool_sizes == [2]
    assert pooled == serial


# On P^2 the pool rule's bound g_max * r.bit_length() is 2 * g_max, so
# these two genera sit on either side of cli.POOL_MIN_SIZE.
_EDGE_G = cli.POOL_MIN_SIZE // 2


def _p2_edge_sweep(g):
    d = 2 * g // 3
    return ["vtev", "--target", "p:2", "--sweep", "--g-min", str(g),
            "--g-max", str(g), "--d-min", str(d), "--d-max", str(d + 3)]


# The cubic threefold's values outgrow max(g, d) * r: its bound is
# max(g, d) * 3 * 3, which reaches POOL_MIN_SIZE at this degree, the
# first there with an integral marking count.
_CUBIC_STEP = degree_step(TargetSpec.hypersurface(3, 3))
_CUBIC_D = -(-cli.POOL_MIN_SIZE // (9 * _CUBIC_STEP)) * _CUBIC_STEP
_CUBIC_SWEEP = ["vtev", "--target", "hyp:3:3", "--sweep", "--g-min", "1",
                "--g-max", "2", "--d-min", str(_CUBIC_D), "--d-max", str(_CUBIC_D)]


@pytest.mark.parametrize(
    "argv, pooled",
    [
        (["vtev", "--target", "p:2"], False),
        (["vtev", "--target", "hyp:3:7"], False),
        (["certify", "--target", "quadric:5"], False),
        (["certify", "--target", "p:1"], False),
        (["certify", "--target", "nope:1"], False),
        (["tev-p1", "--method", "binomial"], False),
        (["tev-p1", "--method", "schubert"], True),
        (["tev-p1", "--method", "both"], True),
        (_p2_edge_sweep(_EDGE_G - 1), False),
        (_p2_edge_sweep(_EDGE_G), True),
        (_CUBIC_SWEEP, True),
    ],
)
def test_workers_pool_only_sweeps_that_pay(capsys, pool_sizes, argv, pooled):
    if "--sweep" not in argv:
        argv = argv + ["--sweep", "--g-max", "4", "--d-max", "6"]
    code, serial = _run(capsys, argv + ["--json"])
    assert code == 0 and pool_sizes == []
    if pooled:
        # a pooled all-error sweep would show nothing about values
        assert any(rec["status"] == "ok" for rec in _json_records(serial))
    code, out = _run(capsys, argv + ["--json", "--workers", "2"])
    assert code == 0
    assert pool_sizes == ([2] if pooled else [])
    assert out == serial


def test_value_bits_bounds_every_closed_form_value():
    # the pool rule relies on this: a grid with a small bound holds
    # only small, cheap values
    targets = (
        [TargetSpec.projective_space(r) for r in range(1, 9)]
        + [TargetSpec.quadric(r) for r in range(3, 9)]
        + [TargetSpec.hypersurface(e, r)
           for e in range(3, 8) for r in range(2 * e - 3, 2 * e + 3)]
    )
    for target in targets:
        for g in range(0, 41, 5):
            for d in range(1, 121, 3):
                try:
                    value = closed_forms.vtev(make_problem(target, g, d)).value
                except TevError:
                    continue
                bound = closed_forms.value_bits(target, g, d)
                assert value.bit_length() <= bound + 1, (target, g, d)
    line = TargetSpec.projective_space(1)  # the pool rule's bound for tev-p1
    for g in range(0, 41):
        for d in range((g + 3) // 2, 61):  # the least d with 2d - 2 - g >= 0
            bound = closed_forms.value_bits(line, g, d)
            assert tev_p1_binomial(g, d).bit_length() <= bound + 1, (g, d)


def _parent_pool_rule(args, g_max, d_max):
    """The pool rule as the CLI spelled it before the bounds moved into
    closed_forms: a per-command and per-kind formula, kept here as the
    reference the decisions must still equal."""
    if args.command == "tev-p1":
        if args.method != "binomial":
            return True
        r = e = 1
    else:
        try:
            target = parse_target(args.target)
        except TevError:
            return False
        if target.kind not in (TargetKind.PROJECTIVE_SPACE,
                               TargetKind.HYPERSURFACE, TargetKind.QUADRIC):
            return False
        r, e = target.r, target.e
    size = g_max * r.bit_length() if e == 1 else max(g_max, d_max) * r * e
    return size >= cli.POOL_MIN_SIZE


CLOSED_FORM_TARGETS = (
    [f"p:{r}" for r in range(1, 9)]
    + [f"quadric:{r}" for r in range(3, 9)]
    + [f"hyp:{e}:{r}" for e in range(3, 8) for r in range(2 * e - 3, 2 * e + 3)]
)
NO_VALUE_TARGETS = ["gp:40:7", "gp:6:4:5:4", "custom:100:7:3:3", "custom:7:6:6:6:3,2", "nope:1"]


@pytest.mark.parametrize(
    "argv",
    [[command, "--target", target]
     for command in ("vtev", "certify")
     for target in CLOSED_FORM_TARGETS + NO_VALUE_TARGETS]
    + [["tev-p1", "--method", "binomial"]],
)
def test_pool_decisions_match_the_per_kind_formulas(argv):
    args = cli._build_parser().parse_args(argv)
    r = e = 1  # the line's, and an unparsable target's
    if args.command != "tev-p1":
        with contextlib.suppress(TevError):
            target = parse_target(args.target)
            r, e = target.r, target.e
    # each axis on both sides of either formula's threshold, and far
    # from it
    edges = {0, 1, 7}
    for per_step in (r.bit_length(), r * e):
        least = -(-cli.POOL_MIN_SIZE // per_step)
        edges |= {least - 1, least, least + 1, 4 * least}
    decisions = set()
    for g_max in sorted(edges):
        for d_max in sorted(edges):
            pays = cli._pool_pays(args, g_max, d_max)
            assert pays == _parent_pool_rule(args, g_max, d_max), (argv, g_max, d_max)
            decisions.add(pays)
    has_value = args.command == "tev-p1" or args.target in CLOSED_FORM_TARGETS
    assert decisions == ({False, True} if has_value else {False})


def test_out_writes_file(tmp_path, capsys):
    path = tmp_path / "record.json"
    code = main(
        ["vtev", "--target", "p:1", "--g", "1", "--d", "2", "--json",
         "--out", str(path)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    record = json.loads(path.read_text().strip())
    assert record["outputs"]["value"] == "2"


def test_records_round_trip():
    first = run_vtev("hyp:3:7", 1, 7)
    rebuilt = run_vtev(
        first.inputs["target"], int(first.inputs["g"]), int(first.inputs["d"])
    )
    assert rebuilt.outputs == first.outputs

    first = run_tev_p1(3, 4, "both")
    rebuilt = run_tev_p1(
        int(first.inputs["g"]), int(first.inputs["d"]), first.inputs["method"]
    )
    assert rebuilt.outputs == first.outputs


def test_table_and_json_carry_identical_numbers(capsys):
    argv = ["vtev", "--target", "hyp:3:7", "--g", "1", "--d", "7"]
    _, table = _run(capsys, argv)
    _, json_out = _run(capsys, argv + ["--json"])
    (record,) = _json_records(json_out)
    for key, value in record["outputs"].items():
        assert f"{key} = {value}" in table


def test_missing_point_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["vtev", "--target", "p:1"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, code, kind",
    [
        (["vtev", "--target", "p:2", "--g", "1", "--d", "2"], 0, None),
        (["certify", "--target", "p:x", "--g", "1", "--d", "2"], 2, "TargetParseError"),
        (["vtev", "--target", "quadric:2", "--g", "1", "--d", "2"], 2, "InvalidTarget"),
        (["vtev", "--target", "p:2", "--g", "6", "--d", "2"], 3, "NegativeN"),
        (["vtev", "--target", "p:2", "--g", "-1", "--d", "3"], 4, "DomainError"),
        (["vtev", "--target", "p:2", "--g", "1", "--d", "0"], 4, "DomainError"),
        (["certify", "--target", "p:2", "--g", "-1", "--d", "3"], 4, "DomainError"),
        (["very-free", "--e", "3", "--r", "0", "--p", "5"], 4, "DomainError"),
        (["vtev", "--target", "quadric:3", "--g", "0", "--d", "1"], 3, "UnstableRange"),
        # below r = 2e - 3, where no formula backs the genus-0 count
        (["very-free", "--e", "4", "--r", "3", "--p", "5"], 4, "HypothesisViolation"),
        # int() would read these as P^10 and P^2
        (["vtev", "--target", "p:1_0", "--g", "1", "--d", "2"], 2, "TargetParseError"),
        (["certify", "--target", "p:+2", "--g", "1", "--d", "2"], 2, "TargetParseError"),
    ],
)
def test_exit_code_per_error_kind(capsys, argv, code, kind):
    got, out = _run(capsys, argv + ["--json"])
    assert got == code
    (record,) = _json_records(out)
    assert record["error_kind"] == kind
    assert record["status"] == ("ok" if kind is None else "error")


INVALID_TARGETS = {
    "p:0": "projective space needs r >= 1, got 0",
    "hyp:0:5": "hypersurface degree must be >= 1, got 0",
    "hyp:3:0": "hypersurface needs r >= 1, got 0",
    "gp:0:3": "dimension must be >= 1, got r=0",
    "custom:5:2:0:1": "s bound must be >= 1, got 0",
    "custom:5:2:2:3": "s bound cannot be smaller than t bound",
}


@pytest.mark.parametrize("target", INVALID_TARGETS)
def test_invalid_target_messages(capsys, target):
    code, out = _run(capsys, ["vtev", "--target", target, "--g", "1", "--d", "2", "--json"])
    assert code == 2
    (record,) = _json_records(out)
    assert record["error_kind"] == "InvalidTarget"
    assert record["outputs"] == {"message": INVALID_TARGETS[target]}


@pytest.mark.parametrize("command", ["vtev", "certify"])
def test_sweep_records_bad_cells(capsys, command):
    code, out = _run(
        capsys,
        [command, "--target", "p:2", "--sweep", "--g-min", "-1", "--g-max", "0",
         "--d-min", "0", "--d-max", "2", "--json"],
    )
    assert code == 0
    records = _json_records(out)
    cells = [(int(r["inputs"]["g"]), int(r["inputs"]["d"])) for r in records]
    assert cells == [(g, d) for g in (-1, 0) for d in (0, 1, 2)]
    kinds = [r["error_kind"] for r in records]
    # every g = -1 or d = 0 cell is a domain error; the rest still run
    assert kinds[:4] == ["DomainError"] * 4
    assert all(r["status"] == "error" for r in records[:4])
    assert records[-1]["status"] == "ok"


@pytest.mark.parametrize("command", ["vtev", "tev-p1", "certify"])
def test_empty_sweep_grid_is_a_usage_error(capsys, command):
    target = [] if command == "tev-p1" else ["--target", "p:2"]
    for bounds in (["--g-min", "3", "--g-max", "0", "--d-max", "2"],
                   ["--g-max", "1", "--d-min", "3", "--d-max", "2"]):
        with pytest.raises(SystemExit) as exc:
            main([command, *target, "--sweep", *bounds, "--json"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "empty sweep grid" in captured.err
        assert captured.out == ""


def test_empty_qh_check_grid_is_a_usage_error(capsys):
    for bounds in (["--g-max", "-1", "--d-max", "5"],
                   ["--g-max", "3", "--d-max", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(["qh-check", "--r", "2", *bounds, "--json"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "empty qh-check grid" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("command", ["vtev", "tev-p1", "certify"])
def test_point_flags_with_sweep_are_a_usage_error(capsys, command):
    target = [] if command == "tev-p1" else ["--target", "p:2"]
    for point in (["--g", "2", "--d", "3"], ["--g", "2"], ["--d", "3"]):
        with pytest.raises(SystemExit) as exc:
            main([command, *target, *point, "--sweep",
                  "--g-max", "1", "--d-max", "1", "--json"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--g and --d cannot be combined with --sweep" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("command", ["vtev", "tev-p1", "certify"])
def test_grid_flags_without_sweep_are_a_usage_error(capsys, command):
    target = [] if command == "tev-p1" else ["--target", "p:2"]
    for grid in (["--g-max", "4"], ["--d-max", "4"]):
        with pytest.raises(SystemExit) as exc:
            main([command, *target, "--g", "1", "--d", "2", *grid, "--json"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--g-max and --d-max need --sweep" in captured.err
        assert captured.out == ""


_IMPORT_PROBE = """
import contextlib, io, sys
from tevdeg import cli

HEAVY = ("concurrent.futures.process", "multiprocessing", "fractions", "random",
         "dataclasses", "inspect", "numbers")

def loaded():
    return ",".join(m for m in HEAVY if m in sys.modules) or "-"

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
    print(loaded())

print(loaded())
# p:2 at d = 1 is a NonIntegerN cell, so the message path runs too
sweep = ["vtev", "--target", "p:2", "--sweep", "--g-max", "2", "--d-max", "3"]
run(sweep)
# a small closed-form sweep stays in this process whatever --workers allows
run(sweep + ["--workers", "2"])
run(["tev-p1", "--method", "both", "--sweep", "--g-max", "2", "--d-max", "3",
     "--workers", "2"])
"""


def _fresh_interpreter(code):
    """stdout of `code` run by a fresh interpreter that imports this
    tevdeg. -S: a .pth file in site-packages may import modules (random
    among them) at start-up; the probes are about what tevdeg imports."""
    run = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=_env_with_src(), capture_output=True, text=True, timeout=60, check=True,
    )
    return run.stdout.split()


def test_pool_and_fractions_load_only_when_used():
    after_import, after_serial, after_closed_form, after_schubert = (
        _fresh_interpreter(_IMPORT_PROBE)
    )
    # neither the import nor a serial sweep loads the pool, fractions, or
    # the dataclasses chain (dataclasses, inspect) and numbers
    assert after_import == "-"
    assert after_serial == "-"
    assert after_closed_form == "-"
    pooled = after_schubert.split(",")
    assert "concurrent.futures.process" in pooled
    assert "multiprocessing" in pooled


# sweeps whose size proxy alone would pool them (g_max * r.bit_length()
# for these e = 1 targets); each window also holds well-posed cells,
# the degrees where n = 1 - g + 7d/r is a nonnegative integer
NO_CLOSED_FORM_SWEEPS = [
    ["certify", "--target", "custom:100:7:3:3", "--sweep", "--g-min", "1200",
     "--g-max", "1203", "--d-min", "17200", "--d-max", "17300"],
    ["vtev", "--target", "gp:40:7", "--sweep", "--g-min", "1400",
     "--g-max", "1403", "--d-min", "8000", "--d-max", "8100"],
]

# prints, per sweep, whether running it with --workers 2 loaded the
# pool and whether its output equals the serial run's
_POOL_PROBE = """
import contextlib, io, sys
from tevdeg import cli

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return out.getvalue()

for sweep in %r:
    pooled = run(sweep + ["--json", "--workers", "2"])
    print("pool" if "concurrent.futures.process" in sys.modules else "serial",
          pooled == run(sweep + ["--json"]))
"""


def test_sweeps_without_a_closed_form_never_pool():
    # every cell is a NoKnownFormula record or a certificate of a few
    # comparisons, far cheaper than the pool's start-up
    for sweep in NO_CLOSED_FORM_SWEEPS:
        args = cli._build_parser().parse_args(sweep)
        target = parse_target(args.target)
        assert closed_forms.value_bits(target, args.g_max, args.d_max) is None
        # a sweep of P^r over the same window would pool
        as_projective = TargetSpec.projective_space(target.r)
        size = closed_forms.value_bits(as_projective, args.g_max, args.d_max)
        assert size >= cli.POOL_MIN_SIZE
    assert _fresh_interpreter(_POOL_PROBE % NO_CLOSED_FORM_SWEEPS) == [
        "serial", "True", "serial", "True",
    ]


# P^50 at large d: the values (51)^g have at most 39 * 6 + 1 bits, while
# max(g_max, d_max) * r * e would read 52 950 and pool it at a loss
P50_SWEEP = ["vtev", "--target", "p:50", "--sweep", "--g-max", "39",
             "--d-min", "1000", "--d-max", "1059"]


def test_projective_sweeps_at_large_degree_never_pool():
    assert max(39, 1059) * 50 >= cli.POOL_MIN_SIZE
    p50 = TargetSpec.projective_space(50)
    assert closed_forms.value_bits(p50, 39, 1059) == 39 * 6 < cli.POOL_MIN_SIZE
    assert _fresh_interpreter(_POOL_PROBE % [P50_SWEEP]) == ["serial", "True"]


def test_qh_check_compares_against_the_closed_form(capsys, monkeypatch):
    vtev = cli.vtev

    def wrong_vtev(problem):
        result = vtev(problem)
        return VTevResult(
            result.value + 1, result.problem, result.formula, result.factorization
        )

    monkeypatch.setattr(cli, "vtev", wrong_vtev)
    code, out = _run(
        capsys,
        ["qh-check", "--r", "2", "--g-max", "3", "--d-max", "8", "--json"],
    )
    assert code == 0
    (summary,) = _json_records(out)
    assert int(summary["outputs"]["cases"]) > 0
    assert summary["outputs"]["mismatches"] == summary["outputs"]["cases"]


@contextlib.contextmanager
def _int_digit_limit(limit):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _round_trips(text, expected):
    """Whether a decimal string read back from JSON is exactly `expected`."""
    with _int_digit_limit(0):
        return int(text) == expected and str(expected) == text


def test_vtev_point_beyond_4300_digits(capsys):
    limit = sys.get_int_max_str_digits()
    code, out = _run(
        capsys, ["vtev", "--target", "p:2", "--g", "10000", "--d", "6668", "--json"]
    )
    assert code == 0
    (record,) = _json_records(out)
    assert len(record["outputs"]["value"]) > 4300
    assert _round_trips(record["outputs"]["value"], 3 ** 10000)
    # the interpreter's limit is the caller's again
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("workers", [[], ["--workers", "2"]])
def test_sweep_across_4300_digits(capsys, pool_sizes, workers):
    code, out = _run(
        capsys,
        ["vtev", "--target", "p:2", "--sweep", "--g-min", "9009", "--g-max",
         "9020", "--d-min", "6700", "--d-max", "6700", "--json", *workers],
    )
    assert code == 0
    # values this large are worth a pool when --workers allows one
    assert pool_sizes == ([2] if workers else [])
    records = _json_records(out)
    assert [int(r["inputs"]["g"]) for r in records] == list(range(9009, 9021))
    values = [r["outputs"]["value"] for r in records]
    # 3^9013 is the first value with more than 4300 digits
    assert len(values[3]) == 4300 and len(values[4]) == 4301
    for g, value in zip(range(9009, 9021), values):
        assert _round_trips(value, 3 ** g)


def test_spawned_workers_lift_the_digit_limit(capsys, monkeypatch):
    # fork hands the parent's lifted limit to each worker; spawn starts
    # each worker from a fresh interpreter with the default limit
    import multiprocessing

    built = []

    class SpawnPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            built.append(max_workers)
            kwargs["mp_context"] = multiprocessing.get_context("spawn")
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpawnPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    code, out = _run(
        capsys,
        ["vtev", "--target", "p:2", "--sweep", "--g-min", "9012", "--g-max",
         "9013", "--d-min", "6700", "--d-max", "6700", "--workers", "2", "--json"],
    )
    assert code == 0
    assert built == [2]  # the cells really ran in spawned workers
    values = [r["outputs"]["value"] for r in _json_records(out)]
    assert [len(v) for v in values] == [4300, 4301]
    assert _round_trips(values[1], 3 ** 9013)


def test_qh_check_per_case_beyond_the_digit_limit(capsys):
    # A qh-check grid reaching 4300 digits has millions of cells, so
    # this run lowers the limit to 640, the least Python allows: over
    # P^280 at d = 280 every g <= 280 is well-posed, and 281^g passes
    # 640 digits from g = 262 on.
    with _int_digit_limit(640):
        code, out = _run(
            capsys,
            ["qh-check", "--r", "280", "--g-max", "280", "--d-max", "280",
             "--per-case", "--json"],
        )
        assert sys.get_int_max_str_digits() == 640
    assert code == 0
    *cells, summary = _json_records(out)
    assert summary["outputs"] == {"cases": "281", "mismatches": "0"}
    last = cells[-1]
    assert (last["inputs"]["g"], last["inputs"]["d"]) == ("280", "280")
    assert len(last["outputs"]["ring"]) > 640
    assert _round_trips(last["outputs"]["ring"], 281 ** 280)
    assert last["outputs"]["closed_form"] == last["outputs"]["ring"]


@pytest.mark.parametrize("command", ["vtev", "tev-p1", "certify"])
@pytest.mark.parametrize(
    "flag", [["--g-min", "0"], ["--d-min", "2"], ["--workers", "2"]]
)
def test_sweep_only_flags_without_sweep_are_a_usage_error(capsys, command, flag):
    target = [] if command == "tev-p1" else ["--target", "p:2"]
    with pytest.raises(SystemExit) as exc:
        main([command, *target, "--g", "1", "--d", "2", *flag, "--json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--g-min, --d-min and --workers need --sweep" in captured.err
    assert captured.out == ""


def test_readme_lists_the_sweep_only_flags_as_usage_errors():
    readme = README.read_text(encoding="utf-8")
    usage = readme[readme.index("These are usage errors"):]
    usage = usage[:usage.index("\n\n")]
    for flag in ("--g-min", "--d-min", "--workers"):
        assert flag in usage, flag


EXIT_CODES = {
    "TargetParseError": 2,
    "InvalidTarget": 2,
    "WellPosednessError": 3,
    "NonFano": 3,
    "NonIntegerN": 3,
    "NegativeN": 3,
    "UnstableRange": 3,
}


@pytest.mark.parametrize("name", tevdeg.errors.__all__)
def test_every_error_class_has_its_exit_code(capsys, monkeypatch, name):
    cls = getattr(tevdeg.errors, name)
    assert cls.exit_code == EXIT_CODES.get(name, 4)

    def failed(target, g, d):
        return cli._fail(cli.RunRecord("vtev", {}), cls("message"))

    # a point whose one record failed exits with its error class's
    # code; the one-cell sweep of the same record exits 0
    monkeypatch.setattr(cli, "run_vtev", failed)
    assert main(["vtev", "--target", "p:2", "--g", "1", "--d", "2"]) == cls.exit_code
    assert main(["vtev", "--target", "p:2", "--sweep", "--g-min", "1",
                 "--g-max", "1", "--d-min", "2", "--d-max", "2"]) == 0
    assert capsys.readouterr().out.count(f"err  {name}") == 2


HELP_FLAGS = {
    "vtev": {"--help", "--target", "--g", "--d", "--sweep", "--g-min",
             "--g-max", "--d-min", "--d-max", "--workers", "--json", "--out"},
    "tev-p1": {"--help", "--method", "--g", "--d", "--sweep", "--g-min",
               "--g-max", "--d-min", "--d-max", "--workers", "--json", "--out"},
    "qh-check": {"--help", "--r", "--g-max", "--d-max", "--per-case",
                 "--json", "--out"},
    "certify": {"--help", "--target", "--g", "--d", "--sweep", "--g-min",
                "--g-max", "--d-min", "--d-max", "--workers", "--json", "--out"},
    "very-free": {"--help", "--e", "--r", "--p", "--json", "--out"},
}


@pytest.mark.parametrize("command", sorted(HELP_FLAGS))
def test_each_subcommand_takes_exactly_its_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == HELP_FLAGS[command]


@pytest.mark.parametrize(
    "command, g, d, code, kind",
    [
        (["vtev", "--target", "p:2"], 1, 2, 0, None),
        (["vtev", "--target", "p:2"], 6, 2, 3, "NegativeN"),
        (["vtev", "--target", "p:2"], -1, 3, 4, "DomainError"),
        (["vtev", "--target", "quadric:2"], 1, 2, 2, "InvalidTarget"),
        (["certify", "--target", "p:2"], 1, 2, 0, None),
        (["certify", "--target", "quadric:3"], 0, 1, 0, None),
        (["certify", "--target", "p:x"], 1, 2, 2, "TargetParseError"),
        (["certify", "--target", "p:2"], -1, 3, 4, "DomainError"),
        (["tev-p1", "--method", "both"], 3, 4, 0, None),
        (["tev-p1", "--method", "schubert"], 7, 2, 4, "DegreeUnderflow"),
        (["tev-p1"], 0, 0, 4, "LineDomainError"),
    ],
)
def test_a_point_is_its_one_cell_sweep(capsys, command, g, d, code, kind):
    got, point = _run(capsys, [*command, "--g", str(g), "--d", str(d), "--json"])
    assert got == code
    (record,) = _json_records(point)
    assert record["error_kind"] == kind
    window = ["--sweep", "--g-min", str(g), "--g-max", str(g),
              "--d-min", str(d), "--d-max", str(d)]
    got, swept = _run(capsys, [*command, *window, "--json"])
    assert got == 0
    assert swept == point


_GRID = ["--sweep", "--g-max", "14", "--d-max", "40", "--json"]
# sha256 and line count of each command's JSON output, recorded before
# the value classes lost `frozen=True` and `render_json` its explicit
# separators. gp:4:3 gives NoKnownFormula records, and the target text
# `p:"\` needs escaping both where it is echoed and in its message.
PINNED_OUTPUTS = {
    "vtev p:2": (["vtev", "--target", "p:2", *_GRID], 600,
                 "9d5f3e676183913ac15d5d448a62302849dd9be50dc2386e2d4c93b6c2088c44"),
    "vtev hyp:3:7": (["vtev", "--target", "hyp:3:7", *_GRID], 600,
                     "ec481f48a15435f08035b0ff4d508dd98a4e04814bc1ce74cd6e27343502e057"),
    "vtev quadric:6": (["vtev", "--target", "quadric:6", *_GRID], 600,
                       "201a41b2379a7f759f34b151582af58532700577c1a3f584a380298386b0dac1"),
    "vtev gp:4:3": (["vtev", "--target", "gp:4:3", *_GRID], 600,
                    "c3c0cdc210ae672b5c033d182c1c308b552f8ff925ddf90802154e5b63203de8"),
    "vtev custom:5:2": (["vtev", "--target", "custom:5:2", *_GRID], 600,
                        "b8b71182d15db766737199b2490a590452819d4889bf64b0f1f63ec5e831874a"),
    "tev-p1 both": (["tev-p1", "--method", "both", "--sweep", "--g-max", "30",
                     "--d-max", "30", "--json"], 930,
                    "4e8ee0a1ac4a311f5256dc9045ab9a6e0a181462138b0f5fe6b0c3030e93fc23"),
    "qh-check per case": (["qh-check", "--r", "3", "--g-max", "6", "--d-max", "30",
                           "--per-case", "--json"], 70,
                          "a924e7652def5204656102e85235407cbce6aa32e61c68dbe84c9fa4b7e35bbb"),
    "escaped error": (["vtev", "--target", 'p:"\\', "--g", "1", "--d", "2", "--json"], 1,
                      "eb4a7ff69f70f3767cd26ad9605ef8df9fbe9a5d1f8cb28a24fe4f1000113f81"),
    # table output, recorded before each record's "\n\n" separator
    # moved into the write of the record that follows it
    "vtev p:2 table": (["vtev", "--target", "p:2", *_GRID[:-1]], 5589,
                       "8030e1b0226fd35542d16f72302a430ddcd73ad186c9c955ea99016a3e3b22af"),
    "qh-check per case table": (["qh-check", "--r", "3", "--g-max", "6", "--d-max", "30",
                                 "--per-case"], 628,
                                "c7aa2f9520d0696c8816d28eae7ae094b9213d9a9f51a7e48a2425ff567bf8fc"),
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_command_outputs_are_pinned(capsys, name):
    argv, lines, digest = PINNED_OUTPUTS[name]
    main(argv)
    data = capsys.readouterr().out.encode()
    assert data.count(b"\n") == lines
    assert hashlib.sha256(data).hexdigest() == digest


def _records_of_every_command():
    """An ok and an error record of each subcommand, qh-check's
    per-case records, and records whose text needs escaping."""
    *per_case, summary = cli.run_qh_check(2, 2, 6, per_case=True)
    return [
        run_vtev("p:2", 3, 4), run_vtev("p:2", 1, 0),
        cli.run_certify("p:1", 3, 3), cli.run_certify("p:0", 1, 1),
        run_tev_p1(4, 5, "both"), run_tev_p1(9, 2, "both"),
        summary, *per_case, *cli.run_qh_check(0, 2, 3),
        cli.run_very_free(3, 8, 5), cli.run_very_free(2, 8, 5),
        # non-ASCII and escape characters, echoed and in the message
        run_vtev('p:\u00e9"\\', 1, 2),
        cli.RunRecord("vtev", {"target": 'p:\u00e9"\\\n\t\u2603', "g": "1"},
                      {"value": "\U0001d53c"}, ["x\x00y"]),
    ]


# characters json.dumps escapes, or must keep distinct: controls, the
# quote and the backslash, line and paragraph separators, the last BMP
# character, non-BMP characters (written as surrogate pairs), and lone
# surrogates, as decoding a command line's undecodable bytes produces
_ODD_CHARACTERS = [
    *map(chr, range(0x20)), "\x7f", '"', "\\", "/", "\u2028", "\u2029", "\uffff",
    "\U0001d53c", "\U0010ffff", "\ud800", "\udbff", "\udc00", "\udcff", "\udfff",
    "a", "Z", "0", " ", ":", "\u00e9", "\u2603",
]


def _random_records(rng, strings):
    """Records whose every string slot, keys included, is drawn from
    `strings`, consumed in order; error_kind is None for every third."""
    draw = iter(strings).__next__
    records = []
    while True:
        try:
            records.append(cli.RunRecord(
                draw(),
                {draw(): draw() for _ in range(rng.randrange(4))},
                {draw(): draw() for _ in range(rng.randrange(4))},
                [draw() for _ in range(rng.randrange(3))],
                draw(),
                None if len(records) % 3 == 0 else draw(),
            ))
        except StopIteration:
            return records


def test_render_json_renders_like_json_dumps():
    records = _records_of_every_command()
    kinds = {(r.command, r.status) for r in records}
    assert kinds == {(command, status) for command in cli._COMMANDS
                     for status in ("ok", "error")}
    records += [
        # outputs and citations left at their defaults
        cli.RunRecord("vtev", {"target": "p:2", "g": "1", "d": "2"}),
        # the target a command line with the byte 0xff decodes to
        run_vtev("p:\udcff", 1, 2),
    ]
    assert records[-2].outputs == {} and records[-2].citations == []
    rng = random.Random(2029)
    strings = ["".join(rng.choices(_ODD_CHARACTERS, k=rng.randrange(9)))
               for _ in range(2000)]
    records += _random_records(rng, strings)
    assert len(records) > 100
    for record in records:
        assert cli.render_json(record) == json.dumps(record.to_dict())


def _env_buffered(unbuffered):
    """`_env_with_src()` with PYTHONUNBUFFERED set to 1 or unset."""
    env = _env_with_src()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("name, workers", [
    ("vtev p:2", []), ("vtev p:2 table", []), ("tev-p1 both", ["--workers", "2"]),
])
def test_unbuffered_output_is_byte_identical(name, workers):
    # the benchmark runs the command line with PYTHONUNBUFFERED=1, where
    # every write is its own system call; the bytes must not change
    argv, lines, digest = PINNED_OUTPUTS[name]
    outputs = []
    for unbuffered in (True, False):
        run = subprocess.run([sys.executable, "-m", "tevdeg", *argv, *workers],
                             env=_env_buffered(unbuffered), capture_output=True,
                             timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stderr == b""
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == lines
    assert hashlib.sha256(outputs[0]).hexdigest() == digest


@pytest.mark.parametrize(
    "window", [["--g", "1", "--d", "2"], ["--sweep", "--g-max", "3", "--d-max", "3"]]
)
def test_out_path_that_cannot_be_opened_is_a_usage_error(
    capsys, monkeypatch, tmp_path, window
):
    def no_cell(*args):
        raise AssertionError("a cell ran before --out was opened")

    monkeypatch.setattr(cli, "run_vtev", no_cell)
    path = tmp_path / "missing" / "records.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["vtev", "--target", "p:2", *window, "--json", "--out", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "error:" in line] == [
        f"tevdeg vtev: error: cannot open --out {path}: No such file or directory"
    ]
    assert not path.parent.exists()


def _env_with_src():
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_examples():
    """The `tevdeg ...` lines of the README's "Command line" block, each
    split into words, with trailing `# comments` dropped."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line\n", 1)[1].split("Target grammar:", 1)[0]
    lines = (line.split("#", 1)[0].strip() for line in block.splitlines())
    return [line.split() for line in lines if line.startswith("tevdeg ")]


README_EXAMPLES = _readme_examples()


def test_readme_has_command_line_examples():
    assert len(README_EXAMPLES) >= 5


@pytest.mark.parametrize("words", README_EXAMPLES, ids=lambda words: words[1])
def test_readme_command_line_example_runs(words):
    run = subprocess.run(
        [sys.executable, "-m", "tevdeg", *words[1:]],
        env=_env_with_src(), capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""


def _readme_library_lines():
    """(code, comment) for each line of the README's "Library" block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library\n", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    return [
        (code.strip(), comment.strip())
        for code, _, comment in (line.partition("#") for line in block.splitlines())
        if code.strip()
    ]


def test_readme_library_example_states_true_values():
    # each expression line's comment starts with the repr of its value
    namespace = {}
    stated = []
    for code, comment in _readme_library_lines():
        (node,) = ast.parse(code).body
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        value = repr(eval(code, namespace))
        assert re.match(re.escape(value) + r"(?!\w)", comment), (code, comment)
        stated.append(value)
    assert stated == ["10368", "((2, 6), (6, 1), (3, 3))", "6", "27", "81",
                      "8", "8", "'NotEnumerative'"]


@pytest.mark.parametrize(
    "argv",
    [
        # far more than a pipe holds: the write itself fails
        ["vtev", "--target", "p:2", "--sweep", "--g-max", "40", "--d-max", "60", "--json"],
        # one short record stays buffered: only the flush fails
        ["very-free", "--e", "3", "--r", "8", "--p", "5"],
        # a pooled sweep: the write fails while the workers still run
        ["tev-p1", "--method", "both", "--sweep", "--g-max", "12", "--d-max", "12",
         "--workers", "2", "--json"],
    ],
)
def test_closed_stdout_pipe_exits_1_without_a_traceback(argv):
    # a session of its own, so the run and its pool workers form one
    # process group that can be checked, and killed, as a whole
    proc = subprocess.Popen(
        [sys.executable, "-m", "tevdeg", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env_with_src(),
        start_new_session=True,
    )
    # the reader is gone before the interpreter has even started, so the
    # first write to stdout meets a broken pipe
    proc.stdout.close()
    try:
        # a worker left running keeps stderr open, so this times out
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert "Traceback" not in err.decode()
        assert "Exception ignored" not in err.decode()
        assert _group_exits(proc.pid), "a process of the run outlived it"
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def _group_exits(pgid, timeout=5.0):
    """Whether every process of group `pgid` is gone within `timeout` s."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)


class _Sink:
    """A stdout stand-in that keeps the length of each write; its
    `fail_at`-th write raises `error`, by default BrokenPipeError, as
    a closed pipe does."""

    def __init__(self, fd=None, fail_at=None, error=BrokenPipeError):
        self.fd, self.fail_at, self.error = fd, fail_at, error
        self.writes = 0
        self.lengths = []

    @property
    def size(self):
        return sum(self.lengths)

    def write(self, text):
        self.writes += 1
        if self.writes == self.fail_at:
            raise self.error
        self.lengths.append(len(text))
        return len(text)

    def flush(self):
        pass

    def fileno(self):
        return self.fd


class _Clock:
    """A stand-in for `cli.monotonic` that advances `step` seconds on
    each call, adding as the CLI adds its deadline, so that a step of
    exactly `cli._BATCH_SECONDS` reaches each deadline exactly."""

    def __init__(self, step):
        self.now, self.step = 1000.0, step

    def __call__(self):
        self.now += self.step
        return self.now


def _rendered(argv):
    """The separated texts of the records that `argv` writes, as the
    CLI renders them, without the final newline."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    separator = "\n" if "--json" in argv else "\n\n"
    texts = out.getvalue()[:-1].split(separator)
    return [texts[0], *(separator + text for text in texts[1:])]


@pytest.mark.parametrize("json_flag", [["--json"], []], ids=["json", "table"])
@pytest.mark.parametrize("command", [
    ["vtev", "--target", "p:2", "--sweep", "--g-max", "20", "--d-max", "30"],
    ["qh-check", "--r", "2", "--g-max", "20", "--d-max", "40", "--per-case"],
], ids=["sweep", "qh-check"])
def test_each_record_is_one_write(monkeypatch, command, json_flag):
    # records go out in batches: with the clock frozen only the batch
    # size splits them, so a write is at least _BATCH_SIZE characters
    # and ends at the first record that takes it there, and the final
    # newline ends the last write; with a clock that passes
    # _BATCH_SECONDS between calls each record is one write as it
    # arrives, and the final newline one more; with one that passes
    # 3/4 of it, the deadline set after each write falls between the
    # next two records, so they go out in pairs. Each record is
    # rendered once
    argv = command + json_flag
    texts = _rendered(argv)
    records = len(texts)
    renders = {"render_json": 0, "render_table": 0}
    for name in renders:
        def counted(record, name=name, render=getattr(cli, name)):
            renders[name] += 1
            return render(record)
        monkeypatch.setattr(cli, name, counted)
    used = "render_json" if json_flag else "render_table"
    lengths = [*map(len, texts), 1]
    for step in (cli._BATCH_SECONDS, 0.75 * cli._BATCH_SECONDS, 0.0):
        monkeypatch.setattr(cli, "monotonic", _Clock(step))
        sink = _Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(argv) == 0
        assert renders == {name: records if name == used else 0 for name in renders}
        renders.update(dict.fromkeys(renders, 0))
        if step == cli._BATCH_SECONDS:
            assert sink.lengths == lengths
            continue
        if step:
            pairs = [sum(lengths[i:i + 2]) for i in range(0, records - records % 2, 2)]
            assert sink.lengths == pairs + [sum(lengths[len(pairs) * 2:])]
            continue
        # the frozen clock: the batches are the greedy split of the texts
        batches, size = [], 0
        for text in texts:
            size += len(text)
            if size >= cli._BATCH_SIZE:
                batches.append(size)
                size = 0
        batches.append(size + 1)
        assert sink.lengths == batches
        total = sum(map(len, texts)) + 1
        assert abs(sink.writes - -(-total // cli._BATCH_SIZE)) <= 1
        assert sink.writes < records / 20


def test_a_record_of_a_full_batch_is_written_as_it_arrives(monkeypatch):
    # each value 2^g has over 9000 digits, so each record alone fills a
    # batch: even with the clock frozen it is written as it arrives
    argv = ["vtev", "--target", "p:1", "--sweep", "--g-min", "30000", "--g-max", "30002",
            "--d-min", "15001", "--d-max", "15002", "--json"]
    texts = _rendered(argv)
    assert len(texts) == 6 and min(map(len, texts)) > cli._BATCH_SIZE
    monkeypatch.setattr(cli, "monotonic", _Clock(0.0))
    sink = _Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(argv) == 0
    assert sink.lengths == [*map(len, texts), 1]


def test_unbuffered_stdout_makes_one_system_call_per_batch(monkeypatch):
    # `python -u` and PYTHONUNBUFFERED=1 give a text layer that passes
    # each write straight to the raw descriptor: one system call per
    # write. The clock is frozen, as a machine slow enough to spend
    # _BATCH_SECONDS between records would rightly write more often.
    class CountingRaw(io.RawIOBase):
        writes = size = 0

        def writable(self):
            return True

        def write(self, data):
            self.writes += 1
            self.size += len(data)
            return len(data)

    raw = CountingRaw()
    stdout = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(cli, "monotonic", _Clock(0.0))
    argv = ["vtev", "--target", "p:2", "--sweep", "--g-max", "39", "--d-max", "60", "--json"]
    assert main(argv) == 0
    assert raw.size > 50 * cli._BATCH_SIZE
    # one write per record and one for the final newline before batches
    assert raw.writes <= -(-raw.size // cli._BATCH_SIZE) + 1


_DEV_FULL = Path("/dev/full")


@pytest.mark.skipif(not _DEV_FULL.exists(), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("to_out", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("argv", [
    ["vtev", "--target", "p:2", "--sweep", "--g-max", "3", "--d-max", "3", "--json"],
    ["vtev", "--target", "p:2", "--g", "1", "--d", "2"],
    ["tev-p1", "--method", "both", "--sweep", "--g-max", "12", "--d-max", "12",
     "--workers", "2", "--json"],
], ids=["serial", "point", "pooled"])
def test_a_full_device_exits_1_with_one_line(argv, to_out, unbuffered):
    if to_out:
        argv = [*argv, "--out", str(_DEV_FULL)]
    with open(_DEV_FULL, "w") as full:
        # a session of its own, so the run and its pool workers form
        # one process group that can be checked, and killed, as a whole
        proc = subprocess.Popen(
            [sys.executable, "-m", "tevdeg", *argv],
            stdout=subprocess.DEVNULL if to_out else full,
            stderr=subprocess.PIPE, env=_env_buffered(unbuffered),
            start_new_session=True,
        )
    try:
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err.decode() == (
            "tevdeg: error: cannot write output: No space left on device\n"
        )
        assert _group_exits(proc.pid), "a process of the run outlived it"
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def test_a_sweep_holds_one_record_at_a_time(monkeypatch):
    # records go to the stream as their cells finish, so memory stays
    # far below the size of the output instead of growing with it
    sink = _Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["vtev", "--target", "hyp:3:7", "--sweep", "--g-max", "60",
                     "--d-max", "120", "--json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.size > 1_800_000
    assert peak < sink.size / 2


def test_a_failed_write_stops_a_serial_sweep(monkeypatch, tmp_path):
    cells = []

    def counted(target, g, d):
        cells.append((g, d))
        return run_vtev(target, g, d)

    argv = ["vtev", "--target", "p:2", "--sweep", "--g-max", "20", "--d-max", "20", "--json"]
    # a batch ends at the first record that takes it to _BATCH_SIZE
    # characters, so it holds at most this many records
    lengths = [len(text) for text in _rendered(argv)[1:]]
    per_batch = -(-cli._BATCH_SIZE // min(lengths))
    monkeypatch.setattr(cli, "monotonic", _Clock(0.0))
    monkeypatch.setattr(cli, "run_vtev", counted)
    # the broken-pipe handler points the stream's descriptor at
    # devnull; here that descriptor is a scratch file's
    with open(tmp_path / "stdout", "w") as scratch:
        sink = _Sink(scratch.fileno(), fail_at=3)
        monkeypatch.setattr(sys, "stdout", sink)
        code = main(argv)
    assert code == 1
    # no cell runs after the third write, the first that fails
    assert sink.writes == 3
    assert 2 * (cli._BATCH_SIZE // max(lengths)) <= len(cells) <= 3 * per_batch < 21 * 20


@pytest.mark.parametrize("error", [KeyboardInterrupt, OSError], ids=["interrupt", "cell-error"])
@pytest.mark.parametrize("cell", [5, 150], ids=["first-batch", "later-batch"])
def test_an_interrupted_sweep_keeps_its_finished_records(monkeypatch, tmp_path, capsys,
                                                       error, cell):
    # the cell-th cell raises: the records of the cells before it are
    # all in --out, however the batches fell, and the exception is the
    # cell's, never reported as a failed write
    argv = ["vtev", "--target", "p:2", "--sweep", "--g-max", "20", "--d-max", "20", "--json"]
    finished = "".join(_rendered(argv)[:cell - 1])
    calls = []

    def failing(target, g, d):
        calls.append((g, d))
        if len(calls) == cell:
            raise error("cell failed")
        return run_vtev(target, g, d)

    monkeypatch.setattr(cli, "monotonic", _Clock(0.0))
    monkeypatch.setattr(cli, "run_vtev", failing)
    out = tmp_path / "records.jsonl"
    with pytest.raises(error, match="cell failed"):
        main([*argv, "--out", str(out)])
    assert out.read_text() == finished
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("error", [BrokenPipeError, ValueError])
def test_an_interrupt_survives_a_failed_write_of_its_batch(monkeypatch, tmp_path, capsys, error):
    # the pending batch, here two records, is written before the
    # interrupt propagates; a closed pipe, or any other failure, at that
    # write does not replace the interrupt
    calls = []

    def failing(target, g, d):
        calls.append((g, d))
        if len(calls) == 3:
            raise KeyboardInterrupt
        return run_vtev(target, g, d)

    monkeypatch.setattr(cli, "monotonic", _Clock(0.0))
    monkeypatch.setattr(cli, "run_vtev", failing)
    with open(tmp_path / "stdout", "w") as scratch:
        sink = _Sink(scratch.fileno(), fail_at=1, error=error)
        monkeypatch.setattr(sys, "stdout", sink)
        with pytest.raises(KeyboardInterrupt):
            main(["vtev", "--target", "p:2", "--sweep", "--g-max", "3", "--d-max", "3"])
    assert sink.writes == 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, step, cells", [
    (["vtev", "--target", "p:\u00e9", "--g", "1", "--d", "2"], 0.0, 1),
    (["vtev", "--target", "p:\u00e9", "--sweep", "--g-max", "1", "--d-max", "2"], 0.0, 4),
    (["vtev", "--target", "p:\u00e9", "--sweep", "--g-max", "1", "--d-max", "2"],
     cli._BATCH_SECONDS, 1),
], ids=["point", "sweep-final-write", "sweep-batch-write"])
def test_text_the_stream_cannot_encode_is_a_failed_write(monkeypatch, tmp_path, capsys,
                                                        argv, step, cells):
    # a table record holds the target text as given; an ASCII stdout
    # cannot spell it, which exits 1 with one line, like a full disk,
    # at the final write or, with a record per batch, at the first
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        main(argv)
    position = text.getvalue().index("\u00e9")
    calls = []

    def counted(target, g, d):
        calls.append((g, d))
        return run_vtev(target, g, d)

    monkeypatch.setattr(cli, "monotonic", _Clock(step))
    monkeypatch.setattr(cli, "run_vtev", counted)
    with open(tmp_path / "stdout", "wb") as raw:
        stdout = io.TextIOWrapper(raw, encoding="ascii")
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(argv)
        stdout.close()
    assert code == 1
    assert len(calls) == cells
    assert capsys.readouterr().err == (
        "tevdeg: error: cannot write output: 'ascii' codec can't encode "
        f"character '\\xe9' in position {position}: "
        "ordinal not in range(128)\n"
    )
    assert (tmp_path / "stdout").read_bytes() == b""


@pytest.mark.parametrize("encoding, json_flag", [
    ("ascii", ["--json"]), ("utf-8", ["--json"]), ("utf-8", []),
], ids=["ascii-json", "utf-8-json", "utf-8-table"])
@pytest.mark.parametrize("argv, code", [
    (["vtev", "--target", "p:\u00e9", "--g", "1", "--d", "2"], 2),
    (["vtev", "--target", "p:\u00e9", "--sweep", "--g-max", "1", "--d-max", "2"], 0),
], ids=["point", "sweep"])
def test_a_stream_that_encodes_the_text_is_written_as_before(monkeypatch, tmp_path, capsys,
                                                            encoding, json_flag, argv, code):
    # JSON escapes the character, and UTF-8 spells it
    argv = [*argv, *json_flag]
    expected = io.StringIO()
    with contextlib.redirect_stdout(expected):
        assert main(argv) == code
    with open(tmp_path / "stdout", "wb") as raw:
        stdout = io.TextIOWrapper(raw, encoding=encoding)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == code
        stdout.close()
    assert (tmp_path / "stdout").read_bytes() == expected.getvalue().encode(encoding)
    assert capsys.readouterr().err == ""


def test_a_pool_that_fails_to_start_is_no_write_failure(monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise OSError(24, "Too many open files")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with pytest.raises(OSError, match="Too many open files"):
        main(["tev-p1", "--method", "both", "--sweep", "--g-max", "3", "--d-max", "3",
              "--workers", "2", "--json"])
    assert capsys.readouterr() == ("", "")


def test_qh_check_per_case_holds_one_record_at_a_time(monkeypatch):
    # each per-case record is written as its cell finishes, not held
    # until the summary is known
    sink = _Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["qh-check", "--r", "1", "--g-max", "60", "--d-max", "120",
                     "--json", "--per-case"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.size > 1_500_000
    assert peak < sink.size / 2


def test_qh_check_builds_no_ring_for_a_grid_without_cells():
    # the only degree step of P^(10^6) is 10^6 > d_max, so no cell is
    # well-posed and neither power of the table is ever needed
    tracemalloc.start()
    try:
        (summary,) = cli.run_qh_check(10**6, 0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.outputs == {"cases": "0", "mismatches": "0"}
    assert peak < 1_000_000


def _lowest_free_descriptor():
    fd = os.dup(0)
    os.close(fd)
    return fd


def test_a_closed_pipe_leaks_no_descriptor(monkeypatch, tmp_path):
    # the handler points the stream's descriptor (here a scratch file's,
    # so the test's own stdout is never touched) at devnull, and must
    # close the devnull descriptor it opened to do so
    with open(tmp_path / "stdout", "w") as scratch:
        before = _lowest_free_descriptor()
        for _ in range(3):
            monkeypatch.setattr(sys, "stdout", _Sink(scratch.fileno(), fail_at=1))
            assert main(["very-free", "--e", "3", "--r", "8", "--p", "5"]) == 1
        assert _lowest_free_descriptor() == before
