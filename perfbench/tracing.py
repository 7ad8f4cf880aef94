"""Spans around tevdeg's public functions, installed from outside.

`install` wraps each layer's public function and rebinds the wrapper
in every tevdeg module that holds the original, because a module binds
imported names when it is imported (`tevdeg.cli.vtev` and
`tevdeg.certify.vtev` are two bindings of one function). Class
constructors are wrapped on the class. The process pool is observed by
wrapping `ProcessPoolExecutor`; under fork the workers inherit the
wrappers, but their spans stay in the workers, so only the parent side
(`cli.pool.*`) is measured.

Each span records its name, start, end, parent span and cell id. Spans
are kept in flat arrays in memory and written out by `Tracer.dump`.
Spans nest strictly (they open and close last-in first-out), so a
span's self time is its duration minus the summed durations of its
direct children, which `Tracer.finish` adds up as spans close.
"""

from __future__ import annotations

import functools
import json
import math
import pickle
import sys
from array import array
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from time import perf_counter

from .library import CELL_ENTRY_POINTS

# span name -> (module, attribute path) of the wrapped callable
LAYERS = {
    "cli.parse_target": ("tevdeg.cli", "parse_target"),
    "cli.render_json": ("tevdeg.cli", "render_json"),
    "targets.make_problem": ("tevdeg.targets", "make_problem"),
    "closed_forms.vtev": ("tevdeg.closed_forms", "vtev"),
    "certify.certify_target": ("tevdeg.certify", "certify_target"),
    "schubert.tev_p1_schubert": ("tevdeg.schubert", "tev_p1_schubert"),
    "schubert.tev_p1_binomial": ("tevdeg.schubert", "tev_p1_binomial"),
    "schubert.pieri_special": ("tevdeg.schubert", "pieri_special"),
    "schubert.SchubertCombo.init": ("tevdeg.schubert", "SchubertCombo.__init__"),
    "arith.binom": ("tevdeg.arith", "binom"),
    "quantum.tqft_vtev": ("tevdeg.quantum", "tqft_vtev"),
    "quantum.q_mul": ("tevdeg.quantum", "q_mul"),
    "quantum.QElement.init": ("tevdeg.quantum", "QElement.__init__"),
}
# Every cli.run_* entry point is one cell, traced as "cli.run_cell".
RUN_CELL = "cli.run_cell"
POOL = "cli.pool"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.cell = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child_s = array("d")  # summed duration of direct children
        self._open: list[int] = []
        self.cell_id = -1
        self.counts: Counter = Counter()
        # parent side of each pool's tasks: (fn, chunk, results)
        self.pools: list[list] = []

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.cell.append(self.cell_id)
        self.end.append(0.0)
        self.child_s.append(0.0)
        self._open.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._open.pop()
        if self.parent[idx] >= 0:
            self.child_s[self.parent[idx]] += self.end[idx] - self.start[idx]

    def __len__(self) -> int:
        return len(self.start)

    def dump(self, path) -> None:
        """Write the spans: a JSON header line, then the raw arrays."""
        fields = ("name", "parent", "cell", "start", "end")
        header = {
            "names": self.names,
            "count": len(self),
            "fields": [[f, getattr(self, f).typecode] for f in fields],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for f in fields:
                getattr(self, f).tofile(handle)


def self_times(tracer: Tracer) -> list[float]:
    """Each span's duration minus its direct children's durations."""
    return [e - s - c for s, e, c in zip(tracer.start, tracer.end, tracer.child_s)]


def span_totals(tracer: Tracer) -> tuple[Counter, Counter]:
    """Calls and summed self time per span name."""
    own = self_times(tracer)
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for nid, t in zip(tracer.name, own):
        name = tracer.names[nid]
        calls[name] += 1
        self_s[name] += t
    return calls, self_s


def span_time(tracer: Tracer, name: str, first: int, last: int) -> float:
    """Summed duration of the named spans among first..last-1."""
    nid = tracer._name_ids.get(name)
    return sum(
        tracer.end[i] - tracer.start[i]
        for i in range(first, last)
        if tracer.name[i] == nid
    )


def pool_result_bytes(tracer: Tracer) -> int:
    """Computed pickle size of each task's arguments plus its results."""
    total = 0
    for tasks in tracer.pools:
        for fn, chunk, results in tasks:
            total += len(pickle.dumps((fn, chunk)))
            total += len(pickle.dumps(results))
    return total


# -- wrappers ---------------------------------------------------------

def _monomial_pairs(a, b) -> int:
    sizes_b = sum(len(slot) for slot in b.coeffs)
    return sum(len(slot) for slot in a.coeffs) * sizes_b


def _hooks(name):
    """(before(tracer, args), after(tracer, result)) counters per span."""
    if name == "schubert.pieri_special":
        return (lambda t, args: t.counts.update({name + ".terms_in": len(args[0].terms)}), None)
    if name == "quantum.q_mul":
        return (lambda t, args: t.counts.update({name + ".monomial_pairs": _monomial_pairs(*args)}), None)
    if name == "targets.make_problem":
        return (None, lambda t, result: t.counts.update({name + ".ok": 1}))
    if name == "closed_forms.vtev":
        return (None, lambda t, result: t.counts.update({name + ".out_bits": result.value.bit_length()}))
    if name == "cli.render_json":
        return (None, lambda t, result: t.counts.update({name + ".bytes": len(result.encode())}))
    return None, None


def _traced(tracer: Tracer, name: str, fn, before=None, after=None, cell=False):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(tracer, args)
        if cell:
            tracer.cell_id += 1
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(idx)
        if after is not None:
            after(tracer, result)
        return result
    return wrapper


def _tevdeg_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "tevdeg" or n.startswith("tevdeg."))]


def _rebind(original, wrapper, undo) -> None:
    for module in _tevdeg_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                undo.append((module, key, original))
                setattr(module, key, wrapper)


def _wrap_pool(tracer: Tracer, undo) -> None:
    cls = ProcessPoolExecutor
    orig_init, orig_map, orig_shutdown = cls.__init__, cls.map, cls.shutdown

    def __init__(self, max_workers=None, *args, **kwargs):
        self._bench_span = tracer.begin(POOL)
        self._bench_tasks = []
        orig_init(self, max_workers, *args, **kwargs)
        tracer.pools.append(self._bench_tasks)

    def map(self, fn, *iterables, timeout=None, chunksize=1):
        columns = [list(it) for it in iterables]
        items = list(zip(*columns))
        tracer.counts[POOL + ".tasks"] += math.ceil(len(items) / chunksize)
        results_iter = orig_map(self, fn, *columns, timeout=timeout,
                                chunksize=chunksize)

        def timed():
            results = []
            try:
                while True:
                    t0 = perf_counter()
                    try:
                        value = next(results_iter)
                    except StopIteration:
                        return
                    finally:
                        tracer.counts[POOL + ".wait_s"] += perf_counter() - t0
                    results.append(value)
                    yield value
            finally:
                for i in range(0, len(items), chunksize):
                    self._bench_tasks.append(
                        (fn, items[i:i + chunksize], results[i:i + chunksize])
                    )
        return timed()

    def shutdown(self, *args, **kwargs):
        try:
            return orig_shutdown(self, *args, **kwargs)
        finally:
            if getattr(self, "_bench_span", None) is not None:
                tracer.finish(self._bench_span)
                self._bench_span = None

    for attr, fn in (("__init__", __init__), ("map", map), ("shutdown", shutdown)):
        undo.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, fn)


@contextmanager
def install(tracer: Tracer):
    """Wrap every layer for the duration of the block, then restore."""
    import tevdeg.cli  # noqa: F401  (binds every layer's module)

    undo: list = []
    try:
        for name, (module_name, path) in LAYERS.items():
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = _traced(tracer, name, original, *_hooks(name))
            if outer:  # a method, looked up on its class
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                _rebind(original, wrapper, undo)
        cli = sys.modules["tevdeg.cli"]
        for attr in CELL_ENTRY_POINTS:
            original = getattr(cli, attr)
            _rebind(original, _traced(tracer, RUN_CELL, original, cell=True), undo)
        _wrap_pool(tracer, undo)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
