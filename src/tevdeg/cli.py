"""Command line: exact degree computations as reproducible records.

Target grammar:

    p:<r>                                    projective space P^r
    hyp:<e>:<r>                              degree-e hypersurface, dim r
    quadric:<r>                              quadric of dimension r >= 3
    gp:<r>:<I>[:<s>:<t>]                     homogeneous space with index I
    custom:<r>:<I>[:<s>:<t>[:<e1,e2,...>]]   asserted rank-1 Fano target

Each field is ASCII digits with an optional leading `-`; any other
text (`+2`, ` 2`, `1_0`, a non-ASCII digit) is a parse error. An
integer flag (`--g`, `--workers`, `--r`, ...) follows the same rule,
and a bad value is a usage error that names the flag.

Subcommands: vtev, tev-p1, qh-check, certify, very-free. Each run
emits one record per computation to stdout or `--out`. Records, each
with the separator before it, go out in batches, one write per batch:
a batch is written once it holds `io.DEFAULT_BUFFER_SIZE` (8192)
characters, or once a record arrives 20 ms or more after the last
write, and the rest goes out with the final newline. So a serial
sweep (or `qh-check --per-case`) holds at most one batch and one
record, a record waits at most 20 ms or one further cell, a cell of
20 ms or more has its record written as it finishes, and a run
interrupted by an exception (Ctrl-C, or a failing cell) writes its
pending batch before the exception propagates, so `--out` keeps every
finished record. The clock decides only where the writes split, never
the bytes.
`--json` switches to newline-delimited JSON objects with every number
serialized as a decimal string, so arbitrarily large values survive
any JSON parser. `main` lifts Python's 4300-digit limit on int-to-str
conversion while it runs, in pool workers too, and restores the
caller's limit on return.
`--sweep` iterates a rectangular (g, d) grid, one record per cell in
lexicographic order. A point (`--g`, `--d`) runs as the one-cell grid
(g, g, d, d) on the same path. `--workers N` is an upper bound: a
sweep may fan its cells out over a pool of up to N processes (never
more than it has cells or the machine has CPUs) without changing the
output. A Schubert sweep (`tev-p1 --method schubert|both`) always
uses the pool. A closed-form sweep (`vtev`, `certify`, `tev-p1
--method binomial`) pools once the closed-form bound on its values'
bit length, `closed_forms.value_bits` (P^1's for the line), reaches
`POOL_MIN_SIZE`: below that a cell costs less than the pool's
start-up. A sweep of a target with no closed form (`gp:`, `custom:`)
computes no value, so it never pools. A pooled sweep's workers render
its records, so the parent holds and writes only text. Cells go out
in chunks of at most 512, in windows of 8 chunks per worker, and the
next window is submitted before the current one is drained: the sweep
holds at most two windows of cells and text, its first record waits
for its first chunk, and when its reader leaves it cancels every chunk
no worker has taken. The heap is frozen (`gc.freeze`) before the pool
forks, so the workers' collections and the parent's at exit skip it;
an in-process caller of `main` keeps those objects frozen. The pool
(and multiprocessing with it) is imported only when a sweep uses it,
so single points and serial sweeps start faster.

Exit codes: 0 ok, 1 output could not be written: stdout closed early
(a broken pipe, as in `| head`, which goes unreported), or any other
failed write or flush, such as a full disk or text the stream's
encoding cannot spell, which prints the one line
`tevdeg: error: cannot write output: <reason>` to stderr (either way a
serial sweep or `qh-check --per-case` stops at its first failed
write, and a pooled sweep cancels its untaken chunks and shuts its
pool down), 2 parse or usage error (an empty sweep or qh-check grid
is one, and so are a flag not spelled in full, an `--out` path that
cannot be opened, and mixing point flags `--g`/`--d` with grid flags
`--sweep`/`--g-max`/`--d-max`/`--g-min`/`--d-min`/`--workers`),
3 well-posedness error, 4 hypothesis or formula-domain violation.
A failed record's code is the `exit_code` of its error class, defined
once in `errors`. Sweeps exit 0 as long as the sweep itself runs;
per-cell failures are encoded in the records.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import sys
from collections.abc import Iterator
from functools import lru_cache, partial
from time import monotonic

from . import errors
from .certify import (
    CITE_VERY_FREE,
    Certificate,
    Check,
    certify_target,
    very_free_search,
)
from .closed_forms import value_bits, vtev
from .errors import TargetParseError, TevError, WellPosednessError
from .quantum import PowerTable, tqft_vtev
from .schubert import tev_p1_binomial, tev_p1_schubert
from .targets import TargetSpec, ValueObject, degree_step, make_problem

__all__ = ["RunRecord", "main", "parse_target"]


@lru_cache(maxsize=256)
def parse_target(text: str) -> TargetSpec:
    """Parse the target grammar into a TargetSpec. The last 256 texts
    parsed keep their specs, which are immutable, so a sweep builds its
    target once; a text that fails to parse is not kept and raises anew."""
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
        return TargetSpec.homogeneous(r, index, s, t)
    if head == "custom" and len(args) in (2, 4, 5):
        r, index = _int(args[0]), _int(args[1])
        s = _int(args[2]) if len(args) >= 4 else None
        t = _int(args[3]) if len(args) >= 4 else None
        degrees = None
        if len(args) == 5:
            degrees = tuple(map(_int, args[4].split(",")))
        return TargetSpec.custom(r, index, s, t, degrees)
    raise TargetParseError(f"unrecognized target description {text!r}")


def _int(text: str, error: type = TargetParseError) -> int:
    """A field of the grammar, or an integer flag's value: ASCII digits
    with an optional leading `-`, so no sign `+`, space, underscore or
    non-ASCII digit. Anything else raises `error`."""
    if text.isascii() and (
        text.isdigit() or text[:1] == "-" and text[1:].isdigit()
    ):
        try:
            return int(text)
        except ValueError:  # more digits than Python's conversion limit
            pass
    raise error(f"expected an integer, got {text!r}")


class RunRecord(ValueObject):
    """One computation: echoed inputs, outputs, citations, status.

    All numbers in `inputs` and `outputs` are decimal strings.
    Re-running the command named by `command` with `inputs` reproduces
    `outputs` bit for bit, except for a `qh-check --per-case` record,
    whose g and d are no qh-check flags. `outputs` and `citations`
    default to a fresh empty dict and list.
    """

    # no __slots__: `to_dict` reads the fields from the instance dict,
    # which holds them in the order `__init__` assigns them
    _fields = ("command", "inputs", "outputs", "citations", "status", "error_kind")

    def __init__(
        self,
        command: str,
        inputs: dict[str, str],
        outputs: dict[str, str] | None = None,
        citations: list[str] | None = None,
        status: str = "ok",
        error_kind: str | None = None,
    ) -> None:
        self.command = command
        self.inputs = inputs
        self.outputs = {} if outputs is None else outputs
        self.citations = [] if citations is None else citations
        self.status = status
        self.error_kind = error_kind

    def to_dict(self) -> dict:
        """The fields, in declaration order."""
        return dict(vars(self))


CITE_LINE_BINOMIAL = "line count: binomial closed form"
CITE_LINE_SCHUBERT = "line count: Schubert integral on Gr(2, d+1)"
CITE_QH_CHECK = "quantum ring evaluation vs closed form"


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
            record.citations = [CITE_LINE_BINOMIAL]
        elif method == "schubert":
            record.outputs = {"value": str(tev_p1_schubert(g, d))}
            record.citations = [CITE_LINE_SCHUBERT]
        elif method == "both":
            binomial = tev_p1_binomial(g, d)
            schubert = tev_p1_schubert(g, d)
            record.outputs = {
                "binomial": str(binomial),
                "schubert": str(schubert),
                "agree": _bool(binomial == schubert),
            }
            record.citations = [CITE_LINE_BINOMIAL, CITE_LINE_SCHUBERT]
        else:
            raise TargetParseError(f"unknown method {method!r}")
    except TevError as exc:
        return _fail(record, exc)
    return record


def run_qh_check(
    r: int, g_max: int, d_max: int, per_case: bool = False
) -> list[RunRecord]:
    """Sweep well-posed (g, d) for P^r and compare the ring evaluation
    against the closed form; the summary record comes last."""
    return list(_qh_check(r, g_max, d_max, per_case))


def _qh_check(r: int, g_max: int, d_max: int, per_case: bool) -> Iterator[RunRecord]:
    """`run_qh_check`'s records, each per-case one yielded as its cell
    finishes, so `qh-check --per-case` holds one record at a time.

    One `PowerTable` serves the whole grid, so the handle and each
    power of the point class and of the handle are computed once.
    Only degrees with an integral marking count reach `make_problem`,
    which still decides every other well-posedness condition.
    """
    summary = RunRecord(
        "qh-check",
        {"r": str(r), "g_max": str(g_max), "d_max": str(d_max)},
    )
    try:
        target = TargetSpec.projective_space(r)
    except TevError as exc:
        yield _fail(summary, exc)
        return
    powers = PowerTable(r)
    step = degree_step(target)
    cases = mismatches = 0
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
                yield RunRecord(
                    "qh-check",
                    {"r": str(r), "g": str(g), "d": str(d)},
                    {
                        "ring": str(ring_value),
                        "closed_form": str(closed_value),
                        "agree": _bool(agree),
                    },
                    [CITE_QH_CHECK],
                )
    summary.outputs = {"cases": str(cases), "mismatches": str(mismatches)}
    summary.citations = [CITE_QH_CHECK]
    yield summary


def _format_check(check: Check) -> str:
    verdict = "holds" if check.holds else "fails"
    return (
        f"{check.description}: {check.left} {check.relation} "
        f"{check.right}: {verdict}"
    )


def _certificate_outputs(cert: Certificate) -> dict[str, str]:
    outputs = {"status": cert.status.value, "cited": cert.cited_result}
    for i, check in enumerate(cert.checks, start=1):
        outputs[f"check_{i}"] = _format_check(check)
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
        record.outputs[f"condition_{i}"] = _format_check(check)
    record.citations = [CITE_VERY_FREE]
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


def _render_cell(command: str, option: str, as_json: bool, cell: tuple[int, int]) -> str:
    """A pooled cell: `_run_cell`'s record rendered in the worker, so
    only its text goes back to the parent. Like the `run_*`, the
    renderer is looked up by name when the cell runs, so the task holds
    no function a caller may have rebound."""
    record = _run_cell(command, option, cell)
    return render_json(record) if as_json else render_table(record)


# A closed-form cell (vtev, certify, tev-p1 --method binomial) takes
# about 10 us until its value nears 10^4 bits, far less than starting,
# feeding and shutting down a process pool. So such a sweep pools only
# when `value_bits` of its grid reaches this many bits. On 2 vCPUs a
# 40 x 60 vtev p:2 grid of well-posed cells breaks even near g = 4000
# (bound 8000, values of about 6300 bits).
POOL_MIN_SIZE = 8192


def _pool_pays(args, g_max: int, d_max: int) -> bool:
    """Whether a sweep's cells cost enough to be worth a process pool.

    The answer reads only the command, the target and the window, never
    a clock, so a sweep makes the same choice on every run.
    """
    if args.command == "tev-p1" and args.method != "binomial":
        return True  # Pieri products: costly, uneven cells
    try:
        # P^1's bound covers the line's values, at most 2^g
        target = parse_target("p:1" if args.command == "tev-p1" else args.target)
    except TevError:
        return False  # every cell is the same cheap error record
    bits = value_bits(target, g_max, d_max)
    # None: no value to compute, so a cell is a NoKnownFormula record
    # or a certificate of a few comparisons
    return bits is not None and bits >= POOL_MIN_SIZE


# the most cells in one pool task: a pooled sweep's first record waits
# for one chunk, and after its reader leaves the pool still finishes
# the few chunks it has queued, so both are bounded by this size rather
# than by a fraction of the grid
_POOL_CHUNK_MAX = 512
# chunks per worker in one `pool.map` call; a sweep submits the next
# call's chunks before it drains the current call's, so it holds at
# most two windows of cells and results however large its grid
_POOL_WINDOW_CHUNKS = 8


def _sweep(args, window) -> Iterator[RunRecord | str]:
    """The window's records in lexicographic order, yielded one at a
    time: a serial sweep's as `RunRecord`s, a pooled sweep's as the
    text its workers rendered. A point's one-cell window caps the
    workers at 1, so it never weighs a pool."""
    g_min, g_max, d_min, d_max = window
    cells = itertools.product(range(g_min, g_max + 1), range(d_min, d_max + 1))
    count = (g_max - g_min + 1) * (d_max - d_min + 1)
    # a pool starts all its processes at once; more than the CPUs only
    # add start-up and memory (args.workers is None or >= 1)
    workers = min(args.workers or 1, count, os.cpu_count() or 1)
    option = args.method if args.command == "tev-p1" else args.target
    if not (workers > 1 and _pool_pays(args, g_max, d_max)):
        yield from map(partial(_run_cell, args.command, option), cells)
        return
    # imported here: the pool pulls in multiprocessing, which a serial
    # run never needs
    from concurrent.futures import ProcessPoolExecutor

    # a few chunks per worker: cheap cells amortize the pickle round
    # trip, and uneven cells still leave no worker idle for long
    chunksize = max(1, min(count // (4 * workers), _POOL_CHUNK_MAX))
    span = _POOL_WINDOW_CHUNKS * workers * chunksize
    task = partial(_render_cell, args.command, option, args.json)
    # the gc module's advice before a fork: freeze the heap, so the
    # workers' collections never walk (and copy) the pages they share
    # with the parent, and the parent's at exit never walk it either
    gc.freeze()
    # a worker that does not inherit main's lifted digit limit (any
    # start method but fork) lifts it for itself
    pool = ProcessPoolExecutor(
        max_workers=workers, initializer=sys.set_int_max_str_digits, initargs=(0,)
    )
    try:
        results = iter(())
        for _ in range(0, count, span):
            ahead = pool.map(task, itertools.islice(cells, span), chunksize=chunksize)
            yield from results
            results = ahead
        yield from results
    finally:
        # closing a `map` iterator that has not started cancels none of
        # its chunks, so an early close or a failing cell cancels here
        pool.shutdown(cancel_futures=True)


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


_quote = json.encoder.encode_basestring_ascii


def _json_members(mapping: dict[str, str]) -> str:
    return ", ".join([f"{_quote(key)}: {_quote(value)}" for key, value in mapping.items()])


def render_json(record: RunRecord) -> str:
    """`json.dumps(record.to_dict())`, byte for byte: a record holds
    only strings, so every key and value is quoted as `json.dumps`
    quotes it, and the six fields are spelled out in their order."""
    error_kind = "null" if record.error_kind is None else _quote(record.error_kind)
    return (
        f'{{"command": {_quote(record.command)}, '
        f'"inputs": {{{_json_members(record.inputs)}}}, '
        f'"outputs": {{{_json_members(record.outputs)}}}, '
        f'"citations": [{", ".join(map(_quote, record.citations))}], '
        f'"status": {_quote(record.status)}, "error_kind": {error_kind}}}'
    )


# an integer flag follows the grammar's rule; argparse turns the
# ArgumentTypeError into a usage error that names the flag
_INT = {"type": partial(_int, error=argparse.ArgumentTypeError)}
_REQUIRED_INT = {**_INT, "required": True}
_TARGET = ("--target", {"required": True})

# the flags of every subcommand that runs (g, d) cells
_CELL_FLAGS = (
    ("--g", _INT),
    ("--d", _INT),
    ("--sweep", {"action": "store_true", "help": "iterate a (g, d) grid"}),
    # --g-min, --d-min and --workers default to None so that an
    # explicit value without --sweep can be told apart and rejected
    ("--g-min", {**_INT, "help": "first genus of the sweep (default 0)"}),
    ("--g-max", _INT),
    ("--d-min", {**_INT, "help": "first degree of the sweep (default 1)"}),
    ("--d-max", _INT),
    ("--workers", {**_INT, "help": (
        "most processes a sweep may use (>= 1, capped at the cell "
        "count and the CPU count, default 1); Schubert sweeps use them, "
        "closed-form sweeps only once their bound in "
        f"closed_forms.value_bits reaches {POOL_MIN_SIZE}, and gp: and "
        "custom: sweeps never; output is unchanged"
    )}),
)
_OUTPUT_FLAGS = (
    ("--json", {"action": "store_true", "help": "newline-delimited JSON records"}),
    ("--out", {"metavar": "PATH", "help": "write output to a file instead of stdout"}),
)

# name -> (help line, whether it runs (g, d) cells, its own flags)
_COMMANDS = {
    "vtev": ("closed-form virtual count", True, (_TARGET,)),
    "tev-p1": ("geometric count for the line", True, (
        ("--method", {"choices": ("binomial", "schubert", "both"), "default": "binomial"}),
    )),
    "qh-check": ("quantum ring vs closed form over a grid", False, (
        ("--r", _REQUIRED_INT), ("--g-max", _REQUIRED_INT), ("--d-max", _REQUIRED_INT),
        ("--per-case", {"action": "store_true", "help": "emit one record per grid cell"}),
    )),
    "certify": ("enumerativity certificate", True, (_TARGET,)),
    "very-free": ("very-free curve existence in characteristic p", False, (
        ("--e", _REQUIRED_INT), ("--r", _REQUIRED_INT), ("--p", _REQUIRED_INT),
    )),
}


def _build_parser() -> argparse.ArgumentParser:
    # flags are spelled in full: `qh-check --g 2` is no --g-max
    parser = argparse.ArgumentParser(
        prog="tevdeg",
        description="Exact virtual and geometric Tevelev degrees.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, cells, own_flags) in _COMMANDS.items():
        sub = commands.add_parser(name, help=help_line, allow_abbrev=False)
        # usage errors found after parsing go through `args.parser`, so
        # their usage line names the subcommand and its flags
        sub.set_defaults(parser=sub)
        for flag, options in own_flags + (_CELL_FLAGS if cells else ()) + _OUTPUT_FLAGS:
            sub.add_argument(flag, **options)
    return parser


def _window(parser: argparse.ArgumentParser, args) -> tuple[int, int, int, int]:
    """The (g_min, g_max, d_min, d_max) window of a cell command: the
    point `--g`, `--d` is the one-cell window (g, g, d, d), and a sweep's
    `--g-min` and `--d-min` default to 0 and 1."""
    if not args.sweep:
        if args.g_max is not None or args.d_max is not None:
            parser.error("--g-max and --d-max need --sweep")
        if not (args.g_min is None and args.d_min is None and args.workers is None):
            parser.error("--g-min, --d-min and --workers need --sweep")
        if args.g is None or args.d is None:
            parser.error("--g and --d are required without --sweep")
        return args.g, args.g, args.d, args.d
    if args.g is not None or args.d is not None:
        parser.error("--g and --d cannot be combined with --sweep")
    if args.g_max is None or args.d_max is None:
        parser.error("--sweep needs --g-max and --d-max")
    g_min = 0 if args.g_min is None else args.g_min
    d_min = 1 if args.d_min is None else args.d_min
    window = g_min, args.g_max, d_min, args.d_max
    _reject_empty_grid(parser, "sweep grid", window)
    return window


def _reject_empty_grid(parser: argparse.ArgumentParser, what: str, window) -> None:
    g_min, g_max, d_min, d_max = window
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


def _open_output(parser: argparse.ArgumentParser, path: str | None):
    """A context manager for the stream the records go to: stdout, or
    the `--out` file. A path that cannot be opened is a usage error."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        parser.error(f"cannot open --out {path}: {exc.strerror}")


# a batch of records is written once it holds this many characters, or
# once a record arrives this many seconds after the last write
_BATCH_SIZE = io.DEFAULT_BUFFER_SIZE
_BATCH_SECONDS = 0.02


def _write_failed(stream, exc: OSError | UnicodeEncodeError) -> int:
    """Exit code 1 for a write or flush that failed. The stream's
    descriptor is pointed at devnull, as in Python's SIGPIPE note, so
    the flush when `--out` closes or the interpreter exits writes what
    is left nowhere and cannot fail again. A closed pipe is the reader
    leaving early (`| head`) and goes unreported; any other failure, a
    full disk or text the stream's encoding cannot spell, prints one
    line."""
    with open(os.devnull, "w") as devnull:
        os.dup2(devnull.fileno(), stream.fileno())
    if not isinstance(exc, BrokenPipeError):
        reason = getattr(exc, "strerror", None) or exc
        sys.stderr.write(f"tevdeg: error: cannot write output: {reason}\n")
    return 1


def _main(argv) -> int:
    args, unknown = _build_parser().parse_known_args(argv)
    parser = args.parser
    if unknown:
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    swept = bool(getattr(args, "sweep", False))
    # usage errors come first, then the output is opened, then cells run
    if _COMMANDS[args.command][1]:  # runs (g, d) cells
        if args.workers is not None and args.workers < 1:
            parser.error(f"--workers must be >= 1, got {args.workers}")
        run = partial(_sweep, args, _window(parser, args))
    elif args.command == "qh-check":
        _reject_empty_grid(parser, "qh-check grid", (0, args.g_max, 1, args.d_max))
        run = partial(_qh_check, args.r, args.g_max, args.d_max, args.per_case)
    else:
        def run():
            return [run_very_free(args.e, args.r, args.p)]

    render = render_json if args.json else render_table
    separator = "\n" if args.json else "\n\n"
    count = 0
    with _open_output(parser, args.out) as stream:
        # one write per batch (the module docstring gives the rule): a
        # serial sweep holds at most a batch and stops within a batch of
        # its first failed write
        batch, size = [], 0
        deadline = monotonic() + _BATCH_SECONDS
        try:
            for record in run():
                # a pooled sweep's workers have rendered its records
                text = record if isinstance(record, str) else render(record)
                batch.append(separator + text if count else text)
                count += 1
                size += len(batch[-1])
                if size < _BATCH_SIZE and monotonic() < deadline:
                    continue
                text, batch, size = "".join(batch), [], 0
                try:
                    stream.write(text)
                except (OSError, UnicodeEncodeError) as exc:
                    return _write_failed(stream, exc)
                deadline = monotonic() + _BATCH_SECONDS
        except BaseException:
            # a cell failed or the run was interrupted: the finished
            # records still reach the stream, and the exception
            # propagates whatever that write does
            with contextlib.suppress(Exception):
                stream.write("".join(batch))
            raise
        batch.append("\n")
        try:
            stream.write("".join(batch))
            stream.flush()  # a closed pipe raises here, not at exit
        except (OSError, UnicodeEncodeError) as exc:
            return _write_failed(stream, exc)
    # 0 unless a single record of a point, qh-check or very-free run
    # failed; then the `exit_code` of the error class it names
    if swept or count != 1 or record.status == "ok":
        return 0
    return getattr(errors, record.error_kind).exit_code


if __name__ == "__main__":
    sys.exit(main())
