"""Command line: exact degree computations as reproducible records.

Target grammar:

    p:<r>                                    projective space P^r
    hyp:<e>:<r>                              degree-e hypersurface, dim r
    quadric:<r>                              quadric of dimension r >= 3
    gp:<r>:<I>[:<s>:<t>]                     homogeneous space with index I
    custom:<r>:<I>[:<s>:<t>[:<e1,e2,...>]]   asserted rank-1 Fano target

Subcommands: vtev, tev-p1, qh-check, certify, very-free. Each run
emits one record per computation; `--json` switches to
newline-delimited JSON objects with every number serialized as a
decimal string, so arbitrarily large values survive any JSON parser.
`main` lifts Python's 4300-digit limit on int-to-str conversion while
it runs, in pool workers too, and restores the caller's limit on
return.
`--sweep` iterates a rectangular (g, d) grid, one record per cell in
lexicographic order. `--workers N` is an upper bound: a sweep may fan
its cells out over a pool of up to N processes (never more than it has
cells) without changing the output. A Schubert sweep (`tev-p1
--method schubert|both`) always uses the pool. A closed-form sweep
(`vtev`, `certify`, `tev-p1 --method binomial`) runs in this process
unless max(g_max, d_max) * r * e, a bound on the size of its largest
value, reaches `POOL_MIN_SIZE`: below that a cell costs less than the
pool's start-up. The pool (and multiprocessing with it) is imported
only when a sweep uses it, so single points and serial sweeps start
faster.

Exit codes: 0 ok, 2 parse or usage error (an empty sweep or qh-check
grid is one, and so is mixing point flags `--g`/`--d` with grid flags
`--sweep`/`--g-max`/`--d-max`/`--g-min`/`--d-min`/`--workers`), 3
well-posedness error, 4 hypothesis or formula-domain violation.
Sweeps exit 0 as long as the sweep itself runs; per-cell failures are
encoded in the records.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from functools import partial

from .certify import Certificate, certify_target, very_free_search
from .closed_forms import vtev
from .errors import TargetParseError, TevError, WellPosednessError
from .quantum import PowerTable, tqft_vtev
from .schubert import tev_p1_binomial, tev_p1_schubert
from .targets import TargetSpec, degree_step, make_problem

__all__ = ["RunRecord", "main", "parse_target"]


def parse_target(text: str) -> TargetSpec:
    """Parse the target grammar into a TargetSpec."""
    parts = text.split(":")
    head, args = parts[0], parts[1:]
    if head == "p" and len(args) == 1:
        return TargetSpec.projective_space(_int(args[0]))
    if head == "hyp" and len(args) == 2:
        return TargetSpec.hypersurface(_int(args[0]), _int(args[1]))
    if head == "quadric" and len(args) == 1:
        return TargetSpec.quadric(_int(args[0]))
    if head == "gp" and len(args) in (2, 4):
        r, index = _int(args[0]), _int(args[1])
        s = _int(args[2]) if len(args) == 4 else None
        t = _int(args[3]) if len(args) == 4 else None
        return TargetSpec.homogeneous(r, index, s_bound=s, t_bound=t)
    if head == "custom" and len(args) in (2, 4, 5):
        r, index = _int(args[0]), _int(args[1])
        s = _int(args[2]) if len(args) >= 4 else None
        t = _int(args[3]) if len(args) >= 4 else None
        degrees = None
        if len(args) == 5:
            degrees = tuple(_int(x) for x in args[4].split(","))
        return TargetSpec.custom(
            r, index, s_bound=s, t_bound=t, ci_degrees=degrees
        )
    raise TargetParseError(f"unrecognized target description {text!r}")


def _int(text: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise TargetParseError(f"expected an integer, got {text!r}") from None


@dataclass
class RunRecord:
    """One computation: echoed inputs, outputs, citations, status.

    All numbers in `inputs` and `outputs` are decimal strings.
    Re-running the command named by `command` with `inputs` reproduces
    `outputs` bit for bit.
    """

    command: str
    inputs: dict[str, str]
    outputs: dict[str, str] = field(default_factory=dict)
    citations: list[str] = field(default_factory=list)
    status: str = "ok"
    error_kind: str | None = None

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "citations": self.citations,
            "status": self.status,
            "error_kind": self.error_kind,
        }


def _fail(record: RunRecord, exc: TevError) -> RunRecord:
    record.status = "error"
    record.error_kind = exc.kind
    record.outputs = {"message": str(exc)}
    return record


def _format_factorization(pairs) -> str:
    return " * ".join(f"{base}^{exp}" for base, exp in pairs)


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def run_vtev(target_text: str, g: int, d: int) -> RunRecord:
    record = RunRecord(
        "vtev", {"target": target_text, "g": str(g), "d": str(d)}
    )
    try:
        target = parse_target(target_text)
        problem = make_problem(target, g, d)
        result = vtev(problem)
    except TevError as exc:
        return _fail(record, exc)
    record.outputs = {
        "value": str(result.value),
        "formula": result.formula.value,
        "n": str(problem.n),
        "c1_pairing": str(problem.d * target.index),
        "dimension_product": str(target.r * (problem.n + problem.g - 1)),
        "factorization": _format_factorization(result.factorization),
    }
    record.citations = [f"closed form: {result.formula.value}"]
    return record


def run_tev_p1(g: int, d: int, method: str) -> RunRecord:
    record = RunRecord(
        "tev-p1", {"g": str(g), "d": str(d), "method": method}
    )
    try:
        if method == "binomial":
            record.outputs = {"value": str(tev_p1_binomial(g, d))}
            record.citations = ["line count: binomial closed form"]
        elif method == "schubert":
            record.outputs = {"value": str(tev_p1_schubert(g, d))}
            record.citations = ["line count: Schubert integral on Gr(2, d+1)"]
        elif method == "both":
            binomial = tev_p1_binomial(g, d)
            schubert = tev_p1_schubert(g, d)
            record.outputs = {
                "binomial": str(binomial),
                "schubert": str(schubert),
                "agree": _bool(binomial == schubert),
            }
            record.citations = [
                "line count: binomial closed form",
                "line count: Schubert integral on Gr(2, d+1)",
            ]
        else:
            raise TargetParseError(f"unknown method {method!r}")
    except TevError as exc:
        return _fail(record, exc)
    return record


def run_qh_check(
    r: int, g_max: int, d_max: int, per_case: bool = False
) -> list[RunRecord]:
    """Sweep well-posed (g, d) for P^r and compare the ring evaluation
    against the closed form; the summary record comes last.

    One `PowerTable` serves the whole grid, so the handle and each
    power of the point class and of the handle are computed once.
    Only degrees with an integral marking count reach `make_problem`,
    which still decides every other well-posedness condition.
    """
    summary = RunRecord(
        "qh-check",
        {"r": str(r), "g_max": str(g_max), "d_max": str(d_max)},
    )
    records: list[RunRecord] = []
    try:
        target = TargetSpec.projective_space(r)
    except TevError as exc:
        return [_fail(summary, exc)]
    powers = PowerTable(r)
    step = degree_step(target)
    cases = 0
    mismatches = 0
    for g in range(g_max + 1):
        for d in range(step, d_max + 1, step):
            try:
                problem = make_problem(target, g, d)
            except WellPosednessError:
                continue
            ring_value = tqft_vtev(r, g, d, problem.n, powers=powers)
            closed_value = vtev(problem).value
            cases += 1
            agree = ring_value == closed_value
            if not agree:
                mismatches += 1
            if per_case:
                records.append(
                    RunRecord(
                        "qh-check",
                        {"r": str(r), "g": str(g), "d": str(d)},
                        {
                            "ring": str(ring_value),
                            "closed_form": str(closed_value),
                            "agree": _bool(agree),
                        },
                        ["quantum ring evaluation vs closed form"],
                    )
                )
    summary.outputs = {"cases": str(cases), "mismatches": str(mismatches)}
    summary.citations = ["quantum ring evaluation vs closed form"]
    records.append(summary)
    return records


def _certificate_outputs(cert: Certificate) -> dict[str, str]:
    outputs = {"status": cert.status.value, "cited": cert.cited_result}
    for i, check in enumerate(cert.checks, start=1):
        verdict = "holds" if check.holds else "fails"
        outputs[f"check_{i}"] = (
            f"{check.description}: {check.left} {check.relation} "
            f"{check.right}: {verdict}"
        )
    if cert.vtev_value is not None:
        outputs["vtev"] = str(cert.vtev_value)
    if cert.geometric_value is not None:
        outputs["geometric"] = str(cert.geometric_value)
    return outputs


def run_certify(target_text: str, g: int, d: int) -> RunRecord:
    record = RunRecord(
        "certify", {"target": target_text, "g": str(g), "d": str(d)}
    )
    try:
        cert = certify_target(parse_target(target_text), g, d)
    except TevError as exc:
        return _fail(record, exc)
    record.outputs = _certificate_outputs(cert)
    record.citations = [cert.cited_result]
    return record


def run_very_free(e: int, r: int, p: int) -> RunRecord:
    record = RunRecord(
        "very-free", {"e": str(e), "r": str(r), "p": str(p)}
    )
    try:
        report = very_free_search(e, r, p)
    except TevError as exc:
        return _fail(record, exc)
    record.outputs = {
        "n": str(report.n),
        "d": str(report.d),
        "valuation": str(report.vtev_valuation),
        "conclusion": _bool(report.conclusion),
    }
    for i, check in enumerate(report.conditions, start=1):
        verdict = "holds" if check.holds else "fails"
        record.outputs[f"condition_{i}"] = (
            f"{check.description}: {check.left} {check.relation} "
            f"{check.right}: {verdict}"
        )
    record.citations = [
        "very free rational curves from a p-indivisible genus-0 count"
    ]
    return record


def _run_cell(command: str, option: str, cell: tuple[int, int]) -> RunRecord:
    """One (g, d) cell of `vtev`, `certify` or `tev-p1`; `option` is
    the target text, or the method for `tev-p1`.

    A pool pickles its task function by reference, so the task is this
    module-level function rather than a `run_*`, which callers may
    rebind; it looks the `run_*` up when it runs.
    """
    g, d = cell
    if command == "tev-p1":
        return run_tev_p1(g, d, option)
    if command == "vtev":
        return run_vtev(option, g, d)
    return run_certify(option, g, d)


def _grid(args) -> tuple[int, int, int, int]:
    """The sweep window (g_min, g_max, d_min, d_max); `--g-min` and
    `--d-min` default to 0 and 1."""
    g_min = 0 if args.g_min is None else args.g_min
    d_min = 1 if args.d_min is None else args.d_min
    return g_min, args.g_max, d_min, args.d_max


# A closed-form cell (vtev, certify, tev-p1 --method binomial) takes
# about 10 us until its value nears 10^4 bits, far less than starting,
# feeding and shutting down a process pool. So such a sweep pools only
# when `_size_proxy` of its grid reaches this many bits. On 2 vCPUs a
# 40 x 60 vtev p:2 grid of well-posed cells breaks even near g = 4000
# (proxy 8000, values of about 6300 bits).
POOL_MIN_SIZE = 8192


def _size_proxy(r: int, e: int, g_max: int, d_max: int) -> int:
    """max(g_max, d_max) * r * e for a target of dimension r and degree
    e (r = e = 1 for the line).

    It is known before any cell runs, and every closed-form value with
    g <= g_max and d <= d_max has at most this many bits plus one.
    """
    return max(g_max, d_max) * r * e


def _pool_pays(args) -> bool:
    """Whether a sweep's cells cost enough to be worth a process pool.

    The answer reads only the command, the target and the grid, never
    a clock, so a sweep makes the same choice on every run.
    """
    if args.command == "tev-p1":
        if args.method != "binomial":
            return True  # Pieri products: costly, uneven cells
        r = e = 1
    else:
        try:
            target = parse_target(args.target)
        except TevError:
            return False  # every cell is the same cheap error record
        r, e = target.r, target.e
    return _size_proxy(r, e, args.g_max, args.d_max) >= POOL_MIN_SIZE


def _sweep(cell_fn, args) -> list[RunRecord]:
    g_min, g_max, d_min, d_max = _grid(args)
    cells = [
        (g, d)
        for g in range(g_min, g_max + 1)
        for d in range(d_min, d_max + 1)
    ]
    workers = min(1 if args.workers is None else args.workers, len(cells))
    if workers > 1 and _pool_pays(args):
        # imported here: the pool pulls in multiprocessing, which a
        # serial run never needs
        from concurrent.futures import ProcessPoolExecutor

        # a few chunks per worker: cheap cells amortize the pickle round
        # trip, and uneven cells still leave no worker idle for long
        chunksize = max(1, len(cells) // (4 * workers))
        # a worker that does not inherit main's lifted digit limit
        # (any start method but fork) lifts it for itself
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=sys.set_int_max_str_digits,
            initargs=(0,),
        ) as pool:
            return list(pool.map(cell_fn, cells, chunksize=chunksize))
    return [cell_fn(cell) for cell in cells]


def render_table(record: RunRecord) -> str:
    lines = [f"== {record.command} [{record.status}]"]
    if record.error_kind:
        lines.append(f"err  {record.error_kind}")
    for key, value in record.inputs.items():
        lines.append(f"in   {key} = {value}")
    for key, value in record.outputs.items():
        lines.append(f"out  {key} = {value}")
    for citation in record.citations:
        lines.append(f"cite {citation}")
    return "\n".join(lines)


def render_json(record: RunRecord) -> str:
    return json.dumps(record.to_dict(), separators=(", ", ": "))


def _render_all(records: list[RunRecord], as_json: bool) -> str:
    if as_json:
        return "\n".join(render_json(r) for r in records)
    return "\n\n".join(render_table(r) for r in records)


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true", help="newline-delimited JSON records")
    sub.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")


def _add_sweep_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--sweep", action="store_true", help="iterate a (g, d) grid")
    # --g-min, --d-min and --workers default to None so that an
    # explicit value without --sweep can be told apart and rejected
    sub.add_argument("--g-min", type=int, help="first genus of the sweep (default 0)")
    sub.add_argument("--g-max", type=int)
    sub.add_argument("--d-min", type=int, help="first degree of the sweep (default 1)")
    sub.add_argument("--d-max", type=int)
    sub.add_argument(
        "--workers", type=int,
        help="most processes a sweep may use (>= 1, capped at the cell "
        "count, default 1); Schubert sweeps use them, closed-form sweeps "
        f"only once max(g_max, d_max) * r * e reaches {POOL_MIN_SIZE}; "
        "output is unchanged",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tevdeg",
        description="Exact virtual and geometric Tevelev degrees.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_vtev = commands.add_parser("vtev", help="closed-form virtual count")
    p_vtev.add_argument("--target", required=True)
    p_vtev.add_argument("--g", type=int)
    p_vtev.add_argument("--d", type=int)
    _add_sweep_flags(p_vtev)
    _add_common_flags(p_vtev)

    p_line = commands.add_parser("tev-p1", help="geometric count for the line")
    p_line.add_argument("--g", type=int)
    p_line.add_argument("--d", type=int)
    p_line.add_argument(
        "--method",
        choices=("binomial", "schubert", "both"),
        default="binomial",
    )
    _add_sweep_flags(p_line)
    _add_common_flags(p_line)

    p_qh = commands.add_parser(
        "qh-check", help="quantum ring vs closed form over a grid"
    )
    p_qh.add_argument("--r", type=int, required=True)
    p_qh.add_argument("--g-max", type=int, required=True)
    p_qh.add_argument("--d-max", type=int, required=True)
    p_qh.add_argument(
        "--per-case", action="store_true", help="emit one record per grid cell"
    )
    _add_common_flags(p_qh)

    p_cert = commands.add_parser("certify", help="enumerativity certificate")
    p_cert.add_argument("--target", required=True)
    p_cert.add_argument("--g", type=int)
    p_cert.add_argument("--d", type=int)
    _add_sweep_flags(p_cert)
    _add_common_flags(p_cert)

    p_vf = commands.add_parser(
        "very-free", help="very-free curve existence in characteristic p"
    )
    p_vf.add_argument("--e", type=int, required=True)
    p_vf.add_argument("--r", type=int, required=True)
    p_vf.add_argument("--p", type=int, required=True)
    _add_common_flags(p_vf)

    return parser


_EXIT_PARSE = 2
_EXIT_WELL_POSEDNESS = 3
_EXIT_HYPOTHESIS = 4

_PARSE_KINDS = {"TargetParseError", "InvalidTarget"}
_WELL_POSEDNESS_KINDS = {"NonFano", "NonIntegerN", "NegativeN", "UnstableRange"}


def _exit_code(records: list[RunRecord], swept: bool) -> int:
    if swept or len(records) != 1:
        return 0
    record = records[0]
    if record.status == "ok":
        return 0
    if record.error_kind in _PARSE_KINDS:
        return _EXIT_PARSE
    if record.error_kind in _WELL_POSEDNESS_KINDS:
        return _EXIT_WELL_POSEDNESS
    return _EXIT_HYPOTHESIS


def _require_point(parser: argparse.ArgumentParser, args) -> None:
    if args.g_max is not None or args.d_max is not None:
        parser.error("--g-max and --d-max need --sweep")
    if not (args.g_min is None and args.d_min is None and args.workers is None):
        parser.error("--g-min, --d-min and --workers need --sweep")
    if args.g is None or args.d is None:
        parser.error("--g and --d are required without --sweep")


def _require_grid(parser: argparse.ArgumentParser, args) -> None:
    if args.g is not None or args.d is not None:
        parser.error("--g and --d cannot be combined with --sweep")
    if args.g_max is None or args.d_max is None:
        parser.error("--sweep needs --g-max and --d-max")
    _reject_empty_grid(parser, "sweep grid", *_grid(args))


def _reject_empty_grid(
    parser: argparse.ArgumentParser,
    what: str,
    g_min: int,
    g_max: int,
    d_min: int,
    d_max: int,
) -> None:
    if g_min > g_max or d_min > d_max:
        parser.error(
            f"empty {what}: g in [{g_min}, {g_max}], d in [{d_min}, {d_max}]"
        )


def main(argv=None) -> int:
    # str() refuses ints of more than 4300 digits by default, and exact
    # values grow past that; lift the limit for this run only and give
    # the caller's setting back, since a library must not change
    # interpreter-wide state for whoever imported it
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(saved)


def _main(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    workers = getattr(args, "workers", None)
    if workers is not None and workers < 1:
        parser.error(f"--workers must be >= 1, got {workers}")

    swept = bool(getattr(args, "sweep", False))
    if args.command == "qh-check":
        _reject_empty_grid(parser, "qh-check grid", 0, args.g_max, 1, args.d_max)
        records = run_qh_check(args.r, args.g_max, args.d_max, args.per_case)
    elif args.command == "very-free":
        records = [run_very_free(args.e, args.r, args.p)]
    else:
        option = args.method if args.command == "tev-p1" else args.target
        if swept:
            _require_grid(parser, args)
            records = _sweep(partial(_run_cell, args.command, option), args)
        else:
            _require_point(parser, args)
            records = [_run_cell(args.command, option, (args.g, args.d))]

    text = _render_all(records, args.json)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return _exit_code(records, swept)


if __name__ == "__main__":
    sys.exit(main())
