"""tevdeg benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cheap-grid --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
`src/` and launched as `python -m tevdeg` would launch it. The load is
a closed loop with one client: one CLI invocation or one library call
at a time. The only parallelism is the program's own `--workers`,
capped at the machine's CPU count.

`--trace 0` measures the end-to-end metrics with no tracing. Timings
are taken so that a machine whose speed drifts over seconds still
gives steady figures: every figure is the fastest of samples spread
over the run. setup_s is the fastest cold start; sweep throughput uses
each sweep's fastest run; cell latency uses each call's fastest time
over repetitions in fresh interpreters (see library.py). `--trace 1`
runs the same CLI invocations in-process, alternately untraced and
traced, and reports per-layer metrics (see tracing.py). Either way every output is checked (see gate.py) and the
last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import pickle
import platform
import re
import signal
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

sys.path.insert(0, str(ROOT))

from perfbench import gate, stats, tracing  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS, Sweep, Workload  # noqa: E402

WORKERS = min(2, os.cpu_count() or 1)
MIN_SETUPS = 11
IMPORT_REPEATS = 5
LIBRARY_PASS_S = 0.5  # least time each library pass repeats its calls
MIN_PASSES = 2
CLI_TIMEOUT_S = 150
PEAK_RSS_TAG = "perfbench-peak-rss-kb"

END_TO_END_UNITS = {
    "setup_s": "s",
    "cells_per_s": "cells/s",
    "cells_per_s.w2": "cells/s",
    "cell_us.p50": "us",
    "cell_us.p99": "us",
    "peak_rss_mb": "MB",
}
SPAN_STATS = {
    "cli.parse_target": ("calls", "self_s"),
    "cli.render_json": ("calls", "self_s", "bytes"),
    "cli.run_cell": ("self_s",),
    "targets.make_problem": ("calls", "self_s", "ok_ratio"),
    "closed_forms.vtev": ("calls", "self_s", "out_bits"),
    "certify.certify_target": ("calls", "self_s"),
    "schubert.tev_p1_schubert": ("calls", "self_s"),
    "schubert.pieri_special": ("calls", "self_s", "terms_in"),
    "schubert.SchubertCombo.init": ("calls", "self_s"),
    "arith.binom": ("calls", "self_s"),
    "schubert.tev_p1_binomial": ("calls", "self_s"),
    "quantum.tqft_vtev": ("calls", "self_s"),
    "quantum.q_mul": ("calls", "self_s", "monomial_pairs"),
    "quantum.QElement.init": ("calls", "self_s"),
}
STAT_UNITS = {
    "calls": "count", "self_s": "s", "bytes": "bytes", "ok_ratio": "ratio",
    "out_bits": "bits", "terms_in": "count", "monomial_pairs": "count",
}
POOL_UNITS = {
    "cli.pool.tasks": "count",
    "cli.pool.result_bytes": "bytes",  # computed from pickle sizes
    "cli.pool.wait_s": "s",
    "cli.pool.efficiency": "ratio",
}
# per-layer metrics that count work; they must repeat exactly
COUNT_STATS = ("calls", "bytes", "ok_ratio", "out_bits", "terms_in",
               "monomial_pairs", "tasks", "result_bytes")


def per_layer_units() -> dict[str, str]:
    units = {
        f"{span}.{stat}": STAT_UNITS[stat]
        for span, stat_names in SPAN_STATS.items()
        for stat in stat_names
    }
    units.update(POOL_UNITS)
    units["import.tevdeg.cli_s"] = "s"
    units["import.tevdeg.certify_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def is_count(metric: str) -> bool:
    return metric.rsplit(".", 1)[-1] in COUNT_STATS


class Tally:
    """Attempted and failed operations: cells, plus whole CLI runs."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int = 0, why: str = "") -> None:
        self.attempted += attempted
        self.failed += min(failed, attempted)
        if failed:
            print(f"perfbench: FAILED {failed}/{attempted}: {why}", file=sys.stderr)


@dataclass
class CliRun:
    argv: list
    wall_s: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str

    @property
    def crashed(self) -> bool:
        return self.returncode != 0 or "Traceback (most recent call last)" in self.stderr


# Runs `python -m tevdeg` and, at exit, reports the process's own peak
# RSS (VmHWM). The kernel's rusage for a child also counts the parent's
# resident set at exec time, which would charge the benchmark's own
# memory to the program.
LAUNCHER = """\
import atexit, runpy, sys
def _report_peak_rss():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                sys.stderr.write("%s " + line.split()[1] + "\\n")
atexit.register(_report_peak_rss)
sys.argv[0] = "tevdeg"
runpy.run_module("tevdeg", run_name="__main__", alter_sys=True)
""" % PEAK_RSS_TAG


def run_child(cmd: list[str], pythonpath: list[Path]):
    """Run `cmd` in a process group of its own and wait for it; on a
    timeout kill the whole group (the CLI's pool workers too). Returns
    (returncode, stdout bytes, stderr bytes, wall seconds)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, pythonpath)))
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=ROOT, env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    return proc.returncode, out, err, perf_counter() - t0


def reap_children() -> None:
    """Kill and wait for any child process still running."""
    pids = []
    for children in Path("/proc/self/task").glob("*/children"):
        pids += [int(pid) for pid in children.read_text().split()]
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def run_cli(argv, python_flags=()) -> CliRun:
    """Launch the tevdeg CLI with `argv`; time it and read its peak RSS."""
    returncode, out, err, wall = run_child(
        [sys.executable, *python_flags, "-c", LAUNCHER, *argv], [SRC])
    stderr = err.decode(errors="replace")
    peak_kb = re.findall(PEAK_RSS_TAG + r" (\d+)", stderr)
    rss_mb = int(peak_kb[-1]) / 1024 if peak_kb else 0.0
    return CliRun(list(argv), wall, rss_mb, returncode,
                  out.decode(errors="replace"), stderr)


def records_of(run_stdout: str) -> list[dict] | None:
    try:
        return gate.parse_records(run_stdout)
    except ValueError:
        return None


def load_reference(workload: str) -> dict[str, str]:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text()).get(workload, {})


class Bench:
    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.tally = Tally()
        self.reference = load_reference(workload.name) if seed == DEFAULT_SEED else {}
        self.first: dict[str, list[dict]] = {}  # serial records of each sweep
        self.verdicts: dict[tuple, int] = {}  # (sweep, stdout hash) -> failed

    # -- correctness ---------------------------------------------------

    def check_sweep_output(self, sweep, records, label: str) -> None:
        """Gate one sweep's records: the independent checks, the first
        records seen for the sweep, and the stored reference digest."""
        key = " ".join(sweep.argv())
        if records is None:
            self.tally.add(sweep.cells, sweep.cells, f"{label}: unparsable output {key}")
            return
        bad = gate.check_sweep(sweep, records)
        if key in self.first:
            bad = max(bad, gate.mismatched(records, self.first[key]))
        else:
            self.first[key] = records
            expected = self.reference.get(key)
            if expected is not None and gate.digest(records) != expected:
                bad = sweep.cells
        self.tally.add(sweep.cells, bad, f"{label}: wrong records in {key}")

    def check_cli(self, sweep, run: CliRun, label: str) -> None:
        self.tally.add(1, int(run.crashed), f"{label}: exit {run.returncode} {run.argv}")
        if run.crashed:
            self.tally.add(sweep.cells, sweep.cells, f"{label}: cells of a failed run")
            return
        # Output identical to output already checked for this sweep has
        # the same verdict; recomputing it would only slow the run.
        key = (" ".join(sweep.argv()), hashlib.sha256(run.stdout.encode()).digest())
        if key in self.verdicts:
            self.tally.add(sweep.cells, self.verdicts[key], f"{label}: wrong records")
            return
        failed = self.tally.failed
        self.check_sweep_output(sweep, records_of(run.stdout), label)
        self.verdicts[key] = self.tally.failed - failed

    # -- end to end ----------------------------------------------------

    def setup_probe(self, walls: list[float] | None) -> None:
        """One cold start of the workload's single-point CLI call."""
        run = run_cli(self.workload.probe)
        records = records_of(run.stdout) or []
        ok = not run.crashed and len(records) == 1 and records[0].get("status") == "ok"
        self.tally.add(1, int(not ok), f"setup probe {run.argv}")
        if walls is not None:
            walls.append(run.wall_s)

    def cli_runs(self, workers: int, best_s: dict[tuple, float],
                 setups: list[float]) -> list[float]:
        """Run every sweep once with `workers`, each after a cold start
        timed into `setups`; keep each command's fastest wall time in
        `best_s` and return each run's peak RSS. A subcommand without
        --workers runs as it is, so its serial and pooled runs are one
        command with one fastest time."""
        rss = []
        for sweep in self.workload.sweeps:
            self.setup_probe(setups)
            run = run_cli(sweep.argv(workers))
            self.check_cli(sweep, run, f"workers={workers}")
            key = tuple(run.argv)
            best_s[key] = min(best_s.get(key, math.inf), run.wall_s)
            rss.append(run.rss_mb)
        return rss

    def library_pass(self, best_us: list[float]) -> int:
        """Time every in-process cli.run_* call in a fresh interpreter,
        keep each call's fastest time in `best_us`, check the records;
        returns how many times the calls were repeated."""
        returncode, out, err, _ = run_child(
            [sys.executable, "-m", "perfbench.library", self.workload.name,
             str(self.seed), str(LIBRARY_PASS_S)], [ROOT, SRC])
        if returncode != 0:
            sys.stderr.write(err.decode(errors="replace"))
            raise SystemExit(f"perfbench: library pass exited {returncode}")
        times, records, reps = pickle.loads(out)
        for i, t in enumerate(times):
            best_us[i] = min(best_us[i], t)
        if self.workload.calls_mirror_sweeps:
            it = iter(records)
            for sweep in self.workload.sweeps:
                cell_records = [next(it) for _ in range(sweep.cells)]
                self.check_sweep_output(sweep, cell_records, "library")
            return reps
        for (name, args), call_records in zip(self.workload.calls, records):
            r, g_max, d_max = args
            sweep = Sweep("qh-check", 0, g_max, 1, d_max, r=r)
            self.tally.add(sweep.cells, gate.check_sweep(sweep, call_records),
                           f"library: qh-check {args}")
        return reps

    def untraced(self, seconds: float) -> tuple[dict, list[str]]:
        # The machine's speed drifts over seconds, so every figure is the
        # fastest of samples spread over the run, and a cold start comes
        # before every other step. The first cold start fills caches.
        self.setup_probe(None)
        sweeps = self.workload.sweeps
        setups, peak_rss = [], []
        best_s: dict[tuple, float] = {}
        best_us = [math.inf] * len(self.workload.calls)
        passes = reps = 0
        t_start = perf_counter()
        while True:
            p0 = perf_counter()
            peak_rss.append(max(self.cli_runs(1, best_s, setups)))
            self.setup_probe(setups)
            reps += self.library_pass(best_us)
            self.cli_runs(WORKERS, best_s, setups)
            self.setup_probe(setups)
            reps += self.library_pass(best_us)
            passes += 1
            took = perf_counter() - p0
            if passes >= MIN_PASSES and perf_counter() - t_start + took > seconds:
                break
        while len(setups) < MIN_SETUPS:
            self.setup_probe(setups)
        calls = len(best_us)
        if calls < stats.samples_needed(99.0):
            raise SystemExit(f"perfbench: {calls} calls are too few for a p99")
        best_us.sort()
        cells = sum(sweep.cells for sweep in sweeps)
        metrics = {
            "setup_s": min(setups),
            "cells_per_s": cells / sum(best_s[tuple(s.argv())] for s in sweeps),
            "cells_per_s.w2": cells / sum(best_s[tuple(s.argv(WORKERS))] for s in sweeps),
            "peak_rss_mb": statistics.median(peak_rss),
        }
        metrics["cell_us.p50"] = stats.percentile(best_us, 50.0)
        metrics["cell_us.p99"] = stats.percentile(best_us, 99.0)
        high = stats.highest_percentile(calls)
        notes = [
            f"passes={passes}; setup_s is the fastest of {len(setups)} cold "
            f"starts; cells_per_s(.w2) count each command's fastest run",
            f"cell_us over {calls} calls, each the fastest of {reps} in "
            f"{2 * passes} interpreters; "
            f"highest percentile with >={stats.MIN_BEYOND} calls beyond: "
            f"p{high:g} = {stats.percentile(best_us, high):.1f} us",
        ]
        return metrics, notes

    # -- traced --------------------------------------------------------

    def invocations(self) -> list[tuple[object, list[str], bool]]:
        """(sweep, argv, pooled) for every CLI invocation of one pass."""
        out = [(s, s.argv(), False) for s in self.workload.sweeps]
        if WORKERS > 1:
            out += [(s, s.argv(WORKERS), True) for s in self.workload.sweeps if s.pooled]
        return out

    def main_pass(self, tracer=None) -> tuple[float, list]:
        """Every invocation through cli.main in-process; returns the wall
        time and, per invocation, the span index range it produced."""
        from tevdeg import cli

        ranges, outputs = [], []
        t0 = perf_counter()
        for sweep, argv, pooled in self.invocations():
            first = len(tracer) if tracer else 0
            buf = io.StringIO()
            try:
                with redirect_stdout(buf):
                    rc = cli.main(argv)
            except Exception as exc:  # a crash fails the invocation's cells
                rc = f"{type(exc).__name__}: {exc}"
            outputs.append((sweep, rc, buf.getvalue()))
            ranges.append((pooled, first, len(tracer) if tracer else 0))
        wall = perf_counter() - t0
        label = "traced" if tracer else "in-process"
        for sweep, rc, text in outputs:
            self.tally.add(1, int(rc != 0), f"{label}: cli.main returned {rc}")
            if rc != 0:
                self.tally.add(sweep.cells, sweep.cells, f"{label}: cells of a failed run")
            else:
                self.check_sweep_output(sweep, records_of(text), label)
        return wall, ranges

    def layer_metrics(self, tracer, ranges) -> dict:
        calls, self_s = tracing.span_totals(tracer)
        counts = tracer.counts
        m = {}
        for span, stat_names in SPAN_STATS.items():
            for stat in stat_names:
                if stat == "calls":
                    value = calls[span]
                elif stat == "self_s":
                    value = float(self_s[span])
                elif stat == "ok_ratio":
                    value = counts[span + ".ok"] / calls[span] if calls[span] else 0.0
                else:
                    value = counts[f"{span}.{stat}"]
                m[f"{span}.{stat}"] = value
        serial_cell_s = pool_wall = 0.0
        pooled_keys = {" ".join(s.argv()) for s in self.workload.sweeps if s.pooled}
        for (sweep, argv, _), (pooled, first, last) in zip(self.invocations(), ranges):
            if pooled:
                pool_wall += tracing.span_time(tracer, tracing.POOL, first, last)
            elif " ".join(argv) in pooled_keys:
                serial_cell_s += tracing.span_time(tracer, tracing.RUN_CELL, first, last)
        m["cli.pool.tasks"] = counts[tracing.POOL + ".tasks"]
        m["cli.pool.result_bytes"] = tracing.pool_result_bytes(tracer)
        m["cli.pool.wait_s"] = float(counts[tracing.POOL + ".wait_s"])
        m["cli.pool.efficiency"] = (
            serial_cell_s / (WORKERS * pool_wall) if pool_wall else 0.0
        )
        return m

    def import_times(self) -> dict:
        """Cumulative import time of tevdeg.cli and tevdeg.certify."""
        found = {"tevdeg.cli": [], "tevdeg.certify": []}
        pattern = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)\s*$")
        for _ in range(IMPORT_REPEATS):
            run = run_cli(self.workload.probe, ("-X", "importtime"))
            self.tally.add(1, int(run.returncode != 0), f"importtime {run.argv}")
            for line in run.stderr.splitlines():
                match = pattern.match(line)
                if match and match.group(2) in found:
                    found[match.group(2)].append(int(match.group(1)) / 1e6)
        return {
            f"import.{name}_s": statistics.median(values) if values else 0.0
            for name, values in found.items()
        }

    def traced(self, seconds: float) -> tuple[dict, list[str]]:
        metrics = self.import_times()
        passes, ratios = [], []
        t_start = perf_counter()
        while True:
            p0 = perf_counter()
            plain_wall, _ = self.main_pass()
            tracer = tracing.Tracer()
            with tracing.install(tracer):
                traced_wall, ranges = self.main_pass(tracer)
            passes.append(self.layer_metrics(tracer, ranges))
            ratios.append(traced_wall / plain_wall)
            if len(passes) == 1:
                OUT.mkdir(exist_ok=True)
                tracer.dump(OUT / f"spans-{self.workload.name}-seed{self.seed}.bin")
            del tracer
            took = perf_counter() - p0
            if perf_counter() - t_start + took > seconds:
                break
        # Counts describe the work, not the machine: every traced pass
        # must reproduce the first pass's counts exactly.
        first = {k: v for k, v in passes[0].items() if is_count(k)}
        for later in passes[1:]:
            varied = [k for k in first if later[k] != first[k]]
            self.tally.add(1, int(bool(varied)), f"traced counts varied: {varied}")
        for key in passes[0]:
            if key in first:
                metrics[key] = first[key]
            else:
                metrics[key] = statistics.median(p[key] for p in passes)
        metrics["trace.overhead_ratio"] = statistics.median(ratios)
        notes = [f"traced passes={len(passes)}; spans written to "
                 f"{OUT.name}/spans-{self.workload.name}-seed{self.seed}.bin"]
        return metrics, notes


def record_reference(workload: Workload) -> None:
    """Store the canonical digest of each serial sweep at this seed."""
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    digests = {}
    for sweep in workload.sweeps:
        run = run_cli(sweep.argv())
        records = records_of(run.stdout)
        if run.crashed or records is None or gate.check_sweep(sweep, records):
            sys.exit(f"perfbench: {sweep.argv()} failed its checks; nothing recorded")
        digests[" ".join(sweep.argv())] = gate.digest(records)
    data[workload.name] = digests
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-reference", action="store_true",
        help=f"store output digests for seed {DEFAULT_SEED} and exit",
    )
    args = parser.parse_args(argv)

    if not (SRC / "tevdeg" / "cli.py").is_file():
        print(f"perfbench: no tevdeg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload](args.seed)
    if args.record_reference:
        if args.seed != DEFAULT_SEED:
            parser.error(f"references are kept for seed {DEFAULT_SEED} only")
        record_reference(workload)
        return 0

    bench = Bench(workload, args.seed)
    try:
        if args.trace:
            metrics, notes = bench.traced(args.seconds)
            units = per_layer_units()
        else:
            metrics, notes = bench.untraced(args.seconds)
            units = END_TO_END_UNITS
    finally:
        reap_children()
    tally = bench.tally
    print(f"# workload={workload.name} seed={args.seed} trace={args.trace} "
          f"nproc={os.cpu_count()} workers={WORKERS} "
          f"python={platform.python_version()}")
    for note in notes:
        print(f"# {note}")
    for name, unit in units.items():
        print(f"{name:36s} {metrics[name]:>16.6g} {unit}")
    ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"{'failed_ratio':36s} {ratio:>16.6g} ({tally.failed}/{tally.attempted})")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
