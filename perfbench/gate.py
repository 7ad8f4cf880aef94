"""Output-correctness gate.

Records are compared through their canonical fields only (`command`,
`inputs`, `outputs`, `status`, `error_kind`), so fields added to a
record later, such as provenance metadata, are not read as a change.
Each sweep's records are also checked against facts computed here
independently of the program.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from .workloads import Sweep

CANONICAL_FIELDS = ("command", "inputs", "outputs", "status", "error_kind")


def canonical(record: dict) -> str:
    return json.dumps(
        {key: record.get(key) for key in CANONICAL_FIELDS},
        sort_keys=True, separators=(",", ":"),
    )


def digest(records: list[dict]) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(canonical(record).encode())
        h.update(b"\n")
    return h.hexdigest()


def parse_records(stdout: str) -> list[dict]:
    """Records of a `--json` run; raises ValueError on anything else."""
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def _p1_index(target: str | None) -> int | None:
    """r for a `p:<r>` target, else None."""
    if target and target.startswith("p:"):
        return int(target[2:])
    return None


def _well_posed_pr(r: int, g: int, d: int) -> bool:
    n = 1 - g + Fraction(d * (r + 1), r)
    return n.denominator == 1 and n >= 0 and 2 * g - 2 + n > 0


def qh_cases(r: int, g_max: int, d_max: int) -> int:
    """Well-posed (g, d) cells of P^r that qh-check must compare."""
    return sum(
        _well_posed_pr(r, g, d)
        for g in range(g_max + 1)
        for d in range(1, d_max + 1)
    )


def _cell_ok(sweep: Sweep, record: dict, g: int, d: int) -> bool:
    if record.get("command") != sweep.command:
        return False
    inputs = record.get("inputs", {})
    if inputs.get("g") != str(g) or inputs.get("d") != str(d):
        return False
    outputs = record.get("outputs", {})
    status = record.get("status")
    if status == "error":
        if not record.get("error_kind"):
            return False
    elif status != "ok":
        return False

    if sweep.command == "tev-p1":
        underflow = 2 * d - 2 - g < 0
        if underflow:
            return record.get("error_kind") == "DegreeUnderflow"
        return (
            status == "ok"
            and outputs.get("agree") == "true"
            and outputs.get("binomial") == outputs.get("schubert")
        )

    r = _p1_index(sweep.target)
    if r is None:
        return True
    posed = _well_posed_pr(r, g, d)
    expected = str((r + 1) ** g)
    if sweep.command == "vtev":
        if not posed:
            return status == "error"
        return status == "ok" and outputs.get("value") == expected
    # certify folds well-posedness into the certificate status
    if not posed:
        return outputs.get("status") == "NotWellPosed"
    return outputs.get("vtev") == expected


def check_sweep(sweep: Sweep, records: list[dict]) -> int:
    """Number of the sweep's cells whose record is missing or wrong."""
    if sweep.command == "qh-check":
        ok = (
            len(records) == 1
            and records[0].get("status") == "ok"
            and records[0].get("outputs", {}).get("mismatches") == "0"
            and records[0]["outputs"].get("cases")
            == str(qh_cases(sweep.r, sweep.g_max, sweep.d_max))
        )
        return 0 if ok else sweep.cells
    grid = sweep.grid()
    if len(records) != len(grid):
        return sweep.cells
    return sum(
        not _cell_ok(sweep, record, g, d)
        for record, (g, d) in zip(records, grid)
    )


def mismatched(records: list[dict], reference: list[dict]) -> int:
    """Records that differ from `reference` in a canonical field."""
    if len(records) != len(reference):
        return max(len(records), len(reference))
    return sum(canonical(a) != canonical(b) for a, b in zip(records, reference))
