"""The benchmark's workloads and its timed loop.

``perfbench/run.py`` starts this file as the one generating process:

    python3 perfbench/workloads.py --workload run256 --seed 0 --seconds 30 \
        --trace 0 --out .bench_out/run256

It imports ``sqgd`` once, does the workload's untimed set-up, then repeats
the workload's CLI commands through ``sqgd.cli.main`` until ``--seconds``
have passed, timing each repetition. With ``--trace 1`` it alternates
untraced and traced repetitions and derives the per-layer metrics from
the traced ones. Results go to ``<out>/worker.json`` (and the spans of a
traced run to ``<out>/spans.json``); the output checks run afterwards in
``run.py``, so they add nothing to the timed work or to the peak memory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

# Repetition r of a run uses init seed seed*SEED_STRIDE + r % SEEDS_PER_RUN,
# so one run measures several inputs and its median depends less on one
# field's CFL history.
SEED_STRIDE = 1000
SEEDS_PER_RUN = 16

# The calibration kernel takes CAL_REFERENCE_S on this machine when it runs
# at its usual speed. Times are reported in these reference seconds: each
# repetition's time is scaled by CAL_REFERENCE_S over the kernel's time
# measured right before and after it, because the speed of the shared VM
# drifts by up to ~50% over minutes (see perfbench/README.md).
CAL_REFERENCE_S = 0.04
CAL_FIELD = np.random.default_rng(0).standard_normal((256, 256))

# Configuration of each `sqgd run` the workloads issue (CLI option names).
RUN256 = {"n": 256, "t-end": 0.5, "A": 1, "init-kmax": 10, "init-linf": 1,
          "cfl-number": 0.4, "dt-max": 0.01, "sample-every": 0.1}
SWEEP128 = {"n": 128, "t-end": 0.5, "init-kmax": 10, "init-linf": 8,
            "cfl-number": 0.4, "dt-max": 0.01, "sample-every": 0.01}
SWEEP_AMPLITUDES = (0.0, 5.0)
CERTIFY96 = {"n": 96, "t-end": 1.0, "A": 2, "init-kmax": 8, "init-linf": 0.008,
             "dt-max": 0.02, "sample-every": 0.1, "certify-every": 1}
# Step (c) of `certify`: a field the set-up writes, certified in auto mode.
CERTIFY_SNAPSHOT = {"n": 128, "init-kmax": 8, "init-linf": 0.008, "A": 2}
AUDIT_MARGIN = 1.001

WORKLOADS = ("run256", "sweep128_cfl", "certify")


def init_seed(seed: int, rep: int) -> int:
    return seed * SEED_STRIDE + rep % SEEDS_PER_RUN


def run_config(workload: str) -> dict:
    """Options of the workload's `sqgd run` (for sweep: of each member)."""
    return {"run256": RUN256, "sweep128_cfl": SWEEP128, "certify": CERTIFY96}[workload]


def sweep_workers() -> int:
    return min(len(SWEEP_AMPLITUDES), os.cpu_count() or 1)


def cli_args(options: dict) -> list[str]:
    argv = []
    for key, value in options.items():
        argv += [f"--{key}", str(value)]
    return argv


def samples(workload: str) -> int:
    """Rows of diagnostics.csv of one of the workload's runs."""
    cfg = run_config(workload)
    return round(cfg["t-end"] / cfg["sample-every"]) + 1


def final_snapshot(run_dir: Path, workload: str) -> Path:
    return run_dir / f"snapshot_{samples(workload) - 1:06d}.sqgd"


def snapshot_path(out: Path, seed: int) -> Path:
    return out / "setup" / f"snapshot_n128_{seed}.sqgd"


def set_up(workload: str, seed: int, out: Path) -> None:
    """Untimed set-up: the n=128 snapshots that `certify` step (c) reads."""
    if workload != "certify":
        return
    from sqgd.grid import Grid
    from sqgd.initial import random_smooth
    from sqgd.snapshot import write_snapshot

    (out / "setup").mkdir(parents=True, exist_ok=True)
    c = CERTIFY_SNAPSHOT
    grid = Grid(c["n"])
    for rep in range(SEEDS_PER_RUN):
        s = init_seed(seed, rep)
        field = random_smooth(grid, s, 2.0, c["init-kmax"], c["init-linf"])
        write_snapshot(snapshot_path(out, s), field, 0.0, c["A"])


def call_cli(step: str, argv: list[str]) -> dict:
    """One CLI command through ``sqgd.cli.main``, with its stdout kept.
    ``step`` names the command's place in the workload for the checks."""
    import sqgd.cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = sqgd.cli.main(argv)
    except Exception:  # a crash is a failed operation, not the end of the run
        traceback.print_exc()
        code = "exception"
    return {"step": step, "argv": argv, "exit": code, "stdout": buf.getvalue()}


def _certificate_b(command: dict) -> float | None:
    lines = command["stdout"].splitlines()
    if command["exit"] != 0 or len(lines) != 2:
        return None
    try:
        return float(lines[1].split(",")[0])
    except ValueError:
        return None


def certify_and_audit(step: str, snapshot: Path) -> list[dict]:
    cert = call_cli(step, ["certify", str(snapshot)])
    b_min = _certificate_b(cert)
    if b_min is None:
        return [cert]
    return [cert, call_cli(step, ["audit", str(snapshot), "--B", repr(b_min * AUDIT_MARGIN)])]


def run_rep(workload: str, seed: int, rep_dir: Path, out: Path) -> list[dict]:
    """The workload's commands for one repetition."""
    opts = cli_args({**run_config(workload), "init-seed": seed})
    if workload == "run256":
        return [call_cli("run", ["run", *opts, "--output-dir", str(rep_dir)])]
    if workload == "sweep128_cfl":
        a_list = ",".join(f"{a:g}" for a in SWEEP_AMPLITUDES)
        return [call_cli("sweep", ["sweep", "--A-list", a_list, *opts, "--output-dir", str(rep_dir)])]
    run_dir = rep_dir / "run"
    commands = [call_cli("run", ["run", *opts, "--output-dir", str(run_dir)])]
    if commands[0]["exit"] == 0:
        commands += certify_and_audit("final", final_snapshot(run_dir, workload))
    commands += certify_and_audit("setup", snapshot_path(out, seed))
    return commands


def calibrate() -> float:
    """Seconds the fixed numpy kernel takes now: real and complex FFTs at
    n=256, elementwise work and a roll-and-max scan, like the program's mix."""
    t0 = perf_counter()
    for _ in range(12):
        spectrum = np.fft.fft2(CAL_FIELD)
        values = np.fft.ifft2(spectrum * 1j).real
        np.abs(values - np.roll(values, 1, axis=0)).max()
    return perf_counter() - t0


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child
    (ru_maxrss is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) * 1024 / 1e6


def measure(workload: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    from tracer import Tracer, layer_metrics

    import sqgd.cli  # noqa: F401  (imported before timing starts)

    set_up(workload, seed, out)
    tracer = Tracer() if trace else None
    reps, layers = [], []
    calibrate()  # the first call also plans the FFTs
    cal = [calibrate()]
    start = perf_counter()
    rep = 0
    while (perf_counter() - start < seconds) or (trace and rep < 2):
        traced = trace and rep % 2 == 1
        rep_dir = out / f"rep_{rep:03d}"
        s = init_seed(seed, rep)
        if traced:
            tracer.run_id = f"{workload}-{s}-{rep}"
            tracer.spool = rep_dir
            rep_dir.mkdir(parents=True)
            tracer.install()
        cpu0, t0 = cpu_seconds(), perf_counter()
        try:
            commands = run_rep(workload, s, rep_dir, out)
        finally:
            wall = perf_counter() - t0
            cpu = cpu_seconds() - cpu0
            if traced:
                tracer.uninstall()
                tracer.merge_spool()
        cal.append(calibrate())
        if traced:
            spans = [sp for sp in tracer.spans if sp[0] == tracer.run_id]
            layers.append(layer_metrics(spans, sweep_workers()))
        reps.append({"rep": rep, "init_seed": s, "traced": traced, "wall_s": wall,
                     "cpu_s": cpu, "speed": 2 * CAL_REFERENCE_S / (cal[-2] + cal[-1]),
                     "dir": str(rep_dir), "commands": commands})
        rep += 1
    if tracer is not None:
        (out / "spans.json").write_text(json.dumps(tracer.spans))
    return {"reps": reps, "layers": layers, "peak_rss_mb": peak_rss_mb()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    (args.out / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
