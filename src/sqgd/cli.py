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
from dataclasses import replace
from pathlib import Path

from .config import RunConfig, build_config
from .diagnostics import DiagnosticsRecord, SampleConfig, sample
from .fields import ScalarField
from .grid import Grid
from .initial import gaussian_bump, random_smooth, single_mode, two_mode
from .integrator import BlowUpError, SolverState, run
from .modulus import ModulusParams, audit_breakthrough, minimal_b
from .snapshot import SnapshotError, read_snapshot, write_atomic, write_snapshot

CSV_HEADER = "t,l2,linf,max_grad,mean,nonlinear_flux,dispersive_flux,dissipation,b_min"

_L2_SLACK = 1e-8


class L2ViolationError(RuntimeError):
    """The sampled L2 norm increased beyond its tolerance."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _record_row(rec: DiagnosticsRecord) -> str:
    cells = [
        _fmt(rec.t), _fmt(rec.l2), _fmt(rec.linf), _fmt(rec.max_grad),
        _fmt(rec.mean), _fmt(rec.nonlinear_flux), _fmt(rec.dispersive_flux),
        _fmt(rec.dissipation),
        "" if rec.b_min is None else _fmt(rec.b_min),
    ]
    return ",".join(cells)


def _csv_bytes(lines: list[str]) -> bytes:
    return "".join(line + "\n" for line in lines).encode()


def write_diagnostics_csv(path: Path, records: list[DiagnosticsRecord]) -> None:
    write_atomic(path, _csv_bytes([CSV_HEADER] + [_record_row(rec) for rec in records]))


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
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = Grid(cfg.n)
    theta0 = make_initial(cfg, grid)
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
            sample_every=cfg.sample_every, advection_sign=cfg.advection_sign)
    finally:
        write_diagnostics_csv(out / "diagnostics.csv", records)
    return records


def _sweep_worker(cfg: RunConfig) -> tuple[float, str, str, str, int]:
    """Run one sweep member; returns a summary row plus an exit status."""
    try:
        records = execute_run(cfg)
    except (BlowUpError, L2ViolationError, ValueError, OSError) as exc:
        code = (1 if isinstance(exc, BlowUpError)
                else 3 if isinstance(exc, L2ViolationError) else 2)
        print(f"sweep member A={cfg.A:g} failed: {exc}", file=sys.stderr)
        return cfg.A, "", "", "", code
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


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--n", type=int)
    parser.add_argument("--t-end", type=float, dest="t_end")
    parser.add_argument("--A", type=float, dest="A")
    parser.add_argument("--advection-sign", type=int, dest="advection_sign")
    parser.add_argument("--step-mode", dest="step_mode", choices=["fixed", "cfl"])
    parser.add_argument("--dt-fixed", type=float, dest="dt_fixed")
    parser.add_argument("--cfl-number", type=float, dest="cfl_number")
    parser.add_argument("--dt-max", type=float, dest="dt_max")
    parser.add_argument("--gamma", type=float)
    parser.add_argument("--delta", type=float)
    parser.add_argument("--c-omega", type=float, dest="c_omega")
    parser.add_argument("--init")
    parser.add_argument("--init-seed", type=int, dest="init_seed")
    parser.add_argument("--init-slope", type=float, dest="init_slope")
    parser.add_argument("--init-kmax", type=int, dest="init_kmax")
    parser.add_argument("--init-linf", type=float, dest="init_linf")
    parser.add_argument("--init-width", type=float, dest="init_width")
    parser.add_argument("--init-path", dest="init_path")
    parser.add_argument("--sample-every", type=float, dest="sample_every")
    parser.add_argument("--certify-every", type=int, dest="certify_every")
    parser.add_argument("--output-dir", dest="output_dir")


def _add_modulus_options(parser: argparse.ArgumentParser) -> None:
    defaults = ModulusParams()
    parser.add_argument("--gamma", type=float, default=defaults.gamma)
    parser.add_argument("--delta", type=float, default=defaults.delta)
    parser.add_argument("--c-omega", type=float, dest="c_omega", default=defaults.c_omega)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqgd",
        description="Dispersive critical SQG simulator and certificate suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one simulation")
    _add_config_options(p_run)

    p_sweep = sub.add_parser("sweep", help="run a list of amplitudes A")
    _add_config_options(p_sweep)
    p_sweep.add_argument("--A-list", dest="A_list", required=True,
                         help="comma-separated amplitudes, e.g. '0,1,5'")

    p_cert = sub.add_parser("certify", help="modulus certificate of a snapshot")
    p_cert.add_argument("snapshot")
    _add_modulus_options(p_cert)

    p_audit = sub.add_parser("audit", help="breakthrough audit of a snapshot")
    p_audit.add_argument("snapshot")
    p_audit.add_argument("--B", type=float, required=True, dest="B")
    p_audit.add_argument("--A", type=float, default=None, dest="A",
                         help="dispersion amplitude (default: snapshot header)")
    _add_modulus_options(p_audit)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {
        key: getattr(args, key)
        for key in RunConfig.__dataclass_fields__
        if hasattr(args, key)
    }
    return build_config(args.config, overrides)


# ---------------------------------------------------------------------------
# Subcommand implementations


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    try:
        execute_run(cfg)
    except BlowUpError as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 1
    except L2ViolationError as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 3
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    base = Path(cfg.output_dir)
    amplitudes = sorted(float(tok) for tok in args.A_list.split(",") if tok.strip())
    names = [f"A_{A:g}" for A in amplitudes]
    if len(set(names)) < len(names):
        raise ValueError(f"amplitudes {amplitudes} map to colliding directories {names}")
    configs = [replace(cfg, A=A, output_dir=str(base / name))
               for A, name in zip(amplitudes, names)]
    base.mkdir(parents=True, exist_ok=True)

    status = 0
    rows = []
    if configs:
        workers = int(os.environ.get("SQGD_THREADS", os.cpu_count() or 1))
        workers = max(1, min(workers, len(configs)))
        if workers == 1:
            results = [_sweep_worker(c) for c in configs]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_sweep_worker, c) for c in configs]
                results = [_member_result(c, f) for c, f in zip(configs, futures)]
        for A, max_linf, max_bmin, final_l2, code in sorted(results):
            rows.append(f"{_fmt(A)},{max_linf},{max_bmin},{final_l2}")
            status = max(status, code)

    write_atomic(base / "summary.csv", _csv_bytes(["A,max_linf,max_bmin,final_l2"] + rows))
    return status


def cmd_certify(args: argparse.Namespace) -> int:
    try:
        field, _, _ = read_snapshot(args.snapshot)
        params = ModulusParams(gamma=args.gamma, delta=args.delta,
                               c_omega=args.c_omega)
        cert = minimal_b(field, params)
    except (SnapshotError, ValueError, OSError) as exc:
        print(f"certify failed: {exc}", file=sys.stderr)
        return 2
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
    try:
        field, _, header_a = read_snapshot(args.snapshot)
        amplitude = header_a if args.A is None else args.A
        params = ModulusParams(gamma=args.gamma, delta=args.delta,
                               c_omega=args.c_omega)
        report = audit_breakthrough(field, args.B, amplitude, params)
    except (SnapshotError, ValueError, OSError) as exc:
        print(f"audit failed: {exc}", file=sys.stderr)
        return 2
    print("xi,lhs_breakthrough,derivative_bound,disp_measured,disp_bound,disp_ratio,saturation")
    print(",".join(_fmt(v) for v in [
        report.xi, report.lhs_breakthrough, report.derivative_bound,
        report.disp_measured, report.disp_bound, report.disp_ratio,
        report.saturation,
    ]))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "certify":
            return cmd_certify(args)
        return cmd_audit(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
