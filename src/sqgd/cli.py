"""Command-line harness: single runs, amplitude sweeps, and certification
or audits of stored snapshots.

Subcommands
-----------
run      execute one simulation, writing diagnostics.csv and snapshots
sweep    run a list of amplitudes A in parallel subdirectories
certify  print the modulus certificate of a snapshot
audit    print the breakthrough audit report of a snapshot

Exit codes: 0 success, 1 blow-up, 2 usage/validation/file errors,
3 invariant violation (the L2 norm grew beyond its slack, which the
dynamics forbid, so the run aborts loudly).
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields, replace
from pathlib import Path

from .config import VALUE_PARSERS, RunConfig, build_config
from .diagnostics import DiagnosticsRecord, SampleConfig, sample
from .fields import ScalarField
from .grid import Grid
from .initial import gaussian_bump, random_smooth, single_mode, two_mode
from .integrator import BlowUpError, SolverState, run
from .modulus import AuditReport, ModulusParams, audit_breakthrough, minimal_b
from .snapshot import read_snapshot, write_atomic, write_snapshot

_L2_SLACK = 1e-8


class L2ViolationError(RuntimeError):
    """The sampled L2 norm increased beyond its tolerance."""


# What a command or a sweep member reports as a failure with an exit code.
_FAILURES = (BlowUpError, L2ViolationError, ValueError, OSError)


def _exit_code(exc: Exception) -> int:
    return 1 if isinstance(exc, BlowUpError) else 3 if isinstance(exc, L2ViolationError) else 2


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _csv_lines(cls: type, records: list) -> list[str]:
    """Header and rows of ``cls`` records, one column per field in
    declaration order; a ``b_min`` of None is the one blank cell."""
    names = [f.name for f in fields(cls)]
    lines = [",".join(names)]
    for rec in records:
        cells = ["" if name == "b_min" and getattr(rec, name) is None
                 else _fmt(getattr(rec, name)) for name in names]
        lines.append(",".join(cells))
    return lines


def _csv_bytes(lines: list[str]) -> bytes:
    return "".join(line + "\n" for line in lines).encode()


def write_diagnostics_csv(path: Path, records: list[DiagnosticsRecord]) -> None:
    write_atomic(path, _csv_bytes(_csv_lines(DiagnosticsRecord, records)))


def make_initial(cfg: RunConfig, grid: Grid) -> ScalarField:
    if cfg.init == "random_smooth":
        return random_smooth(grid, cfg.init_seed, cfg.init_slope,
                             cfg.init_kmax, cfg.init_linf)
    if cfg.init == "single_mode":
        return single_mode(grid)
    if cfg.init == "two_mode":
        return two_mode(grid)
    if cfg.init == "gaussian_bump":
        return gaussian_bump(grid, cfg.init_width)
    field, _, _ = read_snapshot(cfg.init_path)
    if field.grid.n != grid.n:
        raise ValueError(
            f"snapshot resolution {field.grid.n} does not match configured n={grid.n}"
        )
    return field


def execute_run(cfg: RunConfig) -> list[DiagnosticsRecord]:
    """Run one simulation, writing snapshots and diagnostics.csv into
    cfg.output_dir. Partial output is kept when the run aborts."""
    theta0 = make_initial(cfg, Grid(cfg.n))
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    state0 = SolverState(theta=theta0, t=0.0, A=cfg.A)
    scfg = SampleConfig(modulus_params=cfg.modulus_params(),
                        certify_every=cfg.certify_every)

    records: list[DiagnosticsRecord] = []

    def hook(state: SolverState) -> None:
        rec = sample(state, scfg, len(records))
        write_snapshot(out / f"snapshot_{len(records):06d}.sqgd",
                       state.theta, state.t, state.A)
        if records and rec.l2 > records[-1].l2 * (1.0 + _L2_SLACK):
            records.append(rec)
            raise L2ViolationError(
                f"L2 norm grew from {records[-2].l2:.17g} to {rec.l2:.17g} "
                f"at t={rec.t:.6g}"
            )
        records.append(rec)

    try:
        run(state0, cfg.step_control(), cfg.t_end, hook=hook,
            sample_every=cfg.sample_every)
    finally:
        write_diagnostics_csv(out / "diagnostics.csv", records)
    return records


def _sweep_worker(cfg: RunConfig) -> tuple[float, str, str, str, int]:
    """Run one sweep member; returns a summary row plus an exit status."""
    try:
        records = execute_run(cfg)
    except _FAILURES as exc:
        print(f"sweep member A={cfg.A:g} failed: {exc}", file=sys.stderr)
        return cfg.A, "", "", "", _exit_code(exc)
    max_linf = max(rec.linf for rec in records)
    b_values = [rec.b_min for rec in records if rec.b_min is not None]
    max_bmin = _fmt(max(b_values)) if b_values else ""
    return cfg.A, _fmt(max_linf), max_bmin, _fmt(records[-1].l2), 0


def _member_result(cfg: RunConfig, future: Future) -> tuple[float, str, str, str, int]:
    """A pooled member's summary row; a member left without a result
    because a pool process died has status 2 and empty cells."""
    try:
        return future.result()
    except BrokenProcessPool as exc:
        print(f"sweep member A={cfg.A:g} has no result: {exc}", file=sys.stderr)
        return cfg.A, "", "", "", 2


# ---------------------------------------------------------------------------
# Argument parsing


def _add_field_options(parser: argparse.ArgumentParser, cls: type,
                       defaults: object = None) -> None:
    """One flag ``--name-with-dashes`` per field of ``cls``, parsed by the
    field's annotation; unset flags take the field of ``defaults``."""
    for f in fields(cls):
        parser.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name,
                            type=VALUE_PARSERS[f.type],
                            default=getattr(defaults, f.name, None))


def _field_values(cls: type, args: argparse.Namespace) -> dict:
    return {f.name: getattr(args, f.name) for f in fields(cls)}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqgd",
        description="Dispersive critical SQG simulator and certificate suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one simulation")
    p_sweep = sub.add_parser("sweep", help="run a list of amplitudes A")
    for p in (p_run, p_sweep):
        p.add_argument("--config", help="flat key=value config file")
        _add_field_options(p, RunConfig)
    p_sweep.add_argument("--A-list", dest="A_list", required=True,
                         help="comma-separated amplitudes, e.g. '0,1,5'")

    p_cert = sub.add_parser("certify", help="modulus certificate of a snapshot")
    p_audit = sub.add_parser("audit", help="breakthrough audit of a snapshot")
    for p in (p_cert, p_audit):
        p.add_argument("snapshot")
        _add_field_options(p, ModulusParams, ModulusParams())
    p_audit.add_argument("--B", type=float, required=True, dest="B")
    p_audit.add_argument("--A", type=float, default=None, dest="A",
                         help="dispersion amplitude (default: snapshot header)")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return build_config(args.config, _field_values(RunConfig, args))


# ---------------------------------------------------------------------------
# Subcommand implementations


def cmd_run(args: argparse.Namespace) -> int:
    execute_run(_config_from_args(args))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    base = Path(cfg.output_dir)
    tokens = args.A_list.split(",")
    if not all(tok.strip() for tok in tokens):
        raise ValueError(f"--A-list {args.A_list!r} has a blank amplitude")
    amplitudes = sorted(float(tok) for tok in tokens)
    names = [f"A_{A:g}" for A in amplitudes]
    if len(set(names)) < len(names):
        raise ValueError(f"amplitudes {amplitudes} map to colliding directories {names}")
    configs = [replace(cfg, A=A, output_dir=str(base / name))
               for A, name in zip(amplitudes, names)]
    base.mkdir(parents=True, exist_ok=True)

    workers = int(os.environ.get("SQGD_THREADS", os.cpu_count() or 1))
    workers = max(1, min(workers, len(configs)))
    if workers == 1:
        results = [_sweep_worker(c) for c in configs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_sweep_worker, c) for c in configs]
            results = [_member_result(c, f) for c, f in zip(configs, futures)]
    results.sort()
    rows = [f"{_fmt(A)},{max_linf},{max_bmin},{final_l2}"
            for A, max_linf, max_bmin, final_l2, _ in results]
    write_atomic(base / "summary.csv", _csv_bytes(["A,max_linf,max_bmin,final_l2"] + rows))
    return max(code for *_, code in results)


def cmd_certify(args: argparse.Namespace) -> int:
    field, _, _ = read_snapshot(args.snapshot)
    cert = minimal_b(field, ModulusParams(**_field_values(ModulusParams, args)))
    dx = field.grid.dx
    print("b_min,y1,y2,z1,z2,xi,slack")
    if cert.witness is None:
        print(f"{_fmt(cert.b_min)},,,,,,{_fmt(cert.slack)}")
    else:
        w = cert.witness
        coords = [w.y[0] * dx, w.y[1] * dx, w.z[0] * dx, w.z[1] * dx]
        print(",".join([_fmt(cert.b_min)] + [_fmt(c) for c in coords]
                       + [_fmt(w.xi), _fmt(cert.slack)]))
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    field, _, header_a = read_snapshot(args.snapshot)
    amplitude = header_a if args.A is None else args.A
    report = audit_breakthrough(field, args.B, amplitude,
                                ModulusParams(**_field_values(ModulusParams, args)))
    print("\n".join(_csv_lines(AuditReport, [report])))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # looked up when called, so a rebound cmd_* name is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except _FAILURES as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
