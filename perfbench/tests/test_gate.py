import copy

from perfbench import gate, run
from perfbench.workloads import Sweep

SWEEP = Sweep("vtev", 0, 3, 1, 6, target="p:2")


def captured():
    result = run.run_cli(SWEEP.argv())
    assert result.returncode == 0 and not result.crashed
    return gate.parse_records(result.stdout)


def test_captured_output_passes():
    records = captured()
    assert len(records) == SWEEP.cells
    assert gate.check_sweep(SWEEP, records) == 0


def test_altered_copy_is_flagged():
    records = captured()
    altered = copy.deepcopy(records)
    ok = next(r for r in altered if r["status"] == "ok")
    ok["outputs"]["value"] = str(int(ok["outputs"]["value"]) + 1)
    assert gate.digest(altered) != gate.digest(records)
    assert gate.mismatched(altered, records) == 1
    assert gate.check_sweep(SWEEP, altered) == 1


def test_missing_record_fails_every_cell():
    records = captured()
    assert gate.check_sweep(SWEEP, records[:-1]) == SWEEP.cells


def test_extra_fields_do_not_change_the_digest():
    records = captured()
    with_meta = copy.deepcopy(records)
    for record in with_meta:
        record["meta"] = {"elapsed_ns": "12345"}
    assert gate.digest(with_meta) == gate.digest(records)


def test_line_disagreement_is_flagged():
    sweep = Sweep("tev-p1", 2, 3, 1, 4)
    records = gate.parse_records(run.run_cli(sweep.argv()).stdout)
    assert gate.check_sweep(sweep, records) == 0
    altered = copy.deepcopy(records)
    ok = next(r for r in altered if r["status"] == "ok")
    ok["outputs"]["agree"] = "false"
    assert gate.check_sweep(sweep, altered) == 1


def test_qh_check_summary_is_checked():
    sweep = Sweep("qh-check", 0, 4, 1, 12, r=3)
    records = gate.parse_records(run.run_cli(sweep.argv()).stdout)
    assert gate.check_sweep(sweep, records) == 0
    altered = copy.deepcopy(records)
    altered[-1]["outputs"]["mismatches"] = "1"
    assert gate.check_sweep(sweep, altered) == sweep.cells
