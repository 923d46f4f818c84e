"""Span tracer for the benchmark's traced run.

The tracer wraps every public function of each ``sqgd`` module, the
``ScalarField.from_hat`` constructor, ``Grid`` construction, the sweep
member function and the numpy/scipy FFT transforms. Each name is patched
where it is looked up (``sqgd.integrator.advect``, ``sqgd.cli.sample``,
``numpy.fft.ifft2`` ...), so a call records a span whichever module makes
it. Nothing under ``src/`` knows about the tracer.

A span is ``[run_id, span_id, parent_id, name, start, end, attrs]``, with
``perf_counter`` times, which share one clock across processes on Linux.
Spans stay in memory. Forked sweep members write theirs to one file per
member when the member returns, and the parent merges those files after
the sweep; the benchmark writes all spans once, at the end of the run.
Self times are derived from the spans: a span's duration minus the union
of its children's intervals.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

SQGD_MODULES = ("grid", "fields", "operators", "integrator", "modulus",
                "diagnostics", "initial", "snapshot", "config", "cli")
FFT_TRANSFORMS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                  "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")
LAYERS = ("fft", "fields", "grid", "initial", "integrator", "operators",
          "diagnostics", "modulus", "snapshot", "cli")
# Command-level spans: their self time (argument parsing, config, waiting
# on the sweep pool with no member running) is time no layer accounts for.
ROOT_SPANS = ("cli.main", "cli.cmd_run", "cli.cmd_sweep", "cli.cmd_certify",
              "cli.cmd_audit")
MEMBER_SPAN = "cli.sweep_member"


def _nbytes(x) -> int:
    return int(getattr(x, "nbytes", 0))


def _fft_attrs(args, kwargs, result) -> dict:
    return {"bytes": _nbytes(args[0] if args else kwargs.get("x", kwargs.get("a")))
            + _nbytes(result)}


def _step_attrs(args, kwargs, result) -> dict:
    state, dt = args[0], args[1] if len(args) > 1 else kwargs["dt"]
    return {"n": state.theta.grid.n, "A": state.A, "dt": dt}


def _snapshot_write_attrs(args, kwargs, result) -> dict:
    field = args[1] if len(args) > 1 else kwargs["field"]
    return {"bytes": _nbytes(field.values)}


ATTRS = {
    "integrator.step": _step_attrs,
    "snapshot.write_snapshot": _snapshot_write_attrs,
}


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = ""
        self.spool: Path | None = None
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []
        self._pid = os.getpid()

    # -- recording -----------------------------------------------------

    def _wrap(self, name: str, fn, attrs=None):
        spans, stack, ids = self.spans, self._stack, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = (os.getpid() << 32) | next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                extra = attrs(args, kwargs, result) if attrs is not None else {}
                spans.append([self.run_id, sid, parent, name, t0, t1, extra])

        return traced

    def _wrap_member(self, fn):
        traced = self._wrap(MEMBER_SPAN, fn)

        @functools.wraps(fn)
        def member(*args, **kwargs):
            mark = len(self.spans)
            try:
                return traced(*args, **kwargs)
            finally:
                if os.getpid() != self._pid and self.spool is not None:
                    path = self.spool / f"spans_{os.getpid()}_{mark}.json"
                    path.write_text(json.dumps(self.spans[mark:]))

        return member

    # -- patching ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import numpy.fft
        import scipy.fft

        import sqgd

        mods = {short: importlib.import_module(f"sqgd.{short}") for short in SQGD_MODULES}
        wrappers: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not callable(obj) or isinstance(obj, type)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                wrappers[id(obj)] = self._wrap(name, obj, ATTRS.get(name))
        worker = mods["cli"]._sweep_worker
        wrappers[id(worker)] = self._wrap_member(worker)
        fft_namespaces = (numpy.fft, scipy.fft)
        for ns in fft_namespaces:
            for attr in FFT_TRANSFORMS:
                fn = getattr(ns, attr)
                wrappers[id(fn)] = self._wrap(f"fft.{attr}", fn, _fft_attrs)

        for ns in (sqgd, *mods.values(), *fft_namespaces):
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    self._set(ns, attr, wrappers[id(obj)])

        field_cls = mods["fields"].ScalarField
        from_hat = field_cls.__dict__["from_hat"].__func__
        self._set(field_cls, "from_hat",
                  classmethod(self._wrap("fields.from_hat", from_hat)))
        grid_cls = mods["grid"].Grid
        self._set(grid_cls, "__post_init__",
                  self._wrap("grid.build", grid_cls.__post_init__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def merge_spool(self) -> None:
        """Adopt the spans that forked sweep members wrote."""
        if self.spool is None:
            return
        for path in sorted(self.spool.glob("spans_*.json")):
            self.spans.extend(json.loads(path.read_text()))
            path.unlink()


# ---------------------------------------------------------------------------
# Metrics derived from the spans of one workload repetition


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def _p90(xs: list[float]) -> float:
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def layer_metrics(spans: list[list], sweep_workers: int) -> dict[str, float]:
    """Per-layer metrics of one repetition; times in ms, totals per
    repetition unless the name says otherwise."""
    by_id = {s[1]: s for s in spans}
    by_name: dict[str, list] = defaultdict(list)
    children: dict[int, list] = defaultdict(list)
    for s in spans:
        by_name[s[3]].append(s)
        children[s[2]].append(s)

    def dur(s) -> float:
        return s[5] - s[4]

    def self_time(s) -> float:
        kids = [(max(k[4], s[4]), min(k[5], s[5])) for k in children[s[1]]]
        return dur(s) - _union_length([iv for iv in kids if iv[1] > iv[0]])

    def ancestors(s):
        parent = by_id.get(s[2])
        while parent is not None:
            yield parent[3]
            parent = by_id.get(parent[2])

    def total_ms(*names: str) -> float:
        return 1e3 * sum(dur(s) for name in names for s in by_name[name])

    def run_of(s):
        parent = by_id.get(s[2])
        while parent is not None and parent[3] != "integrator.run":
            parent = by_id.get(parent[2])
        return None if parent is None else parent[1]

    steps = by_name["integrator.step"]
    moving = [s for s in steps if s[6]["dt"] > 0]
    per_step = 1.0 / len(moving) if moving else 0.0
    stepping_fft = []
    for s in spans:
        if s[3].startswith("fft."):
            chain = set(ancestors(s))
            if "integrator.run" in chain and "diagnostics.sample" not in chain:
                stepping_fft.append(s)

    seen: dict[object, set] = defaultdict(set)
    repeats = 0
    for s in sorted(moving, key=lambda s: s[4]):
        key = (s[6]["n"], s[6]["A"], s[6]["dt"])
        run = run_of(s)
        repeats += key in seen[run]
        seen[run].add(key)

    sweeps = by_name["cli.cmd_sweep"]
    members = by_name[MEMBER_SPAN]
    idle = 0.0
    if sweeps and members:
        idle = 1.0 - sum(map(dur, members)) / (sweep_workers * sum(map(dur, sweeps)))

    roots = by_name["cli.main"]
    root_time = sum(map(dur, roots))
    uncovered = sum(self_time(s) for name in ROOT_SPANS for s in by_name[name])

    layer_self: dict[str, float] = defaultdict(float)
    for s in spans:
        layer_self[s[3].split(".")[0]] += self_time(s)

    initial = [s for name in by_name if name.startswith("initial.") for s in by_name[name]]
    metrics = {
        "fft.calls_per_step": len(stepping_fft) * per_step,
        "fft.ms_per_step": 1e3 * sum(map(dur, stepping_fft)) * per_step,
        "fft.mb_per_step": 1e-6 * sum(s[6]["bytes"] for s in stepping_fft) * per_step,
        "fields.from_hat.calls": len(by_name["fields.from_hat"]),
        "fields.from_hat.ms": total_ms("fields.from_hat"),
        "integrator.step.ms_p50": 1e3 * _median([dur(s) for s in moving]),
        "integrator.step.ms_p90": 1e3 * _p90([dur(s) for s in moving]),
        "integrator.step.self_ms": 1e3 * _median([self_time(s) for s in moving]),
        "integrator.coeff.ms": total_ms("integrator.linear_symbol_grid",
                                        "integrator.phi1", "integrator.phi2"),
        "integrator.cfl_dt.ms": total_ms("integrator.cfl_dt"),
        "integrator.dt_repeat_frac": repeats * per_step,
        "integrator.zero_dt_frac": (len(steps) - len(moving)) / len(steps) if steps else 0.0,
        "operators.advect.calls": len(by_name["operators.advect"]),
        "operators.advect.ms": total_ms("operators.advect"),
        "operators.velocity.ms": total_ms("operators.velocity"),
        "diagnostics.sample.ms_p50": 1e3 * _median([dur(s) for s in by_name["diagnostics.sample"]]),
        "diagnostics.norms.ms": total_ms("diagnostics.norms"),
        "diagnostics.energy_budget.ms": total_ms("diagnostics.energy_budget"),
        "modulus.minimal_b.ms_p50": 1e3 * _median([dur(s) for s in by_name["modulus.minimal_b"]]),
        "modulus.minimal_b.calls": len(by_name["modulus.minimal_b"]),
        "modulus.audit_breakthrough.ms": total_ms("modulus.audit_breakthrough"),
        "modulus.velocity_modulus.calls": len(by_name["modulus.velocity_modulus"]),
        "snapshot.write.ms": total_ms("snapshot.write_snapshot"),
        "snapshot.write.mb": 1e-6 * sum(s[6]["bytes"] for s in by_name["snapshot.write_snapshot"]),
        "snapshot.read.ms": total_ms("snapshot.read_snapshot"),
        "cli.csv_write.ms": total_ms("cli.write_diagnostics_csv"),
        "cli.sweep.idle_frac": idle,
        "grid.build.ms": 1e3 * _median([dur(s) for s in by_name["grid.build"]]),
        "initial.make.ms": 1e3 * _median([dur(s) for s in initial]),
        "tracing.coverage_frac": 1.0 - uncovered / root_time if root_time else 0.0,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = 1e3 * layer_self[layer]
    return metrics
