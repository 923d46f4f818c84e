"""Benchmark of the sqgd package: one command for every workload.

    python3 perfbench/run.py --workload run256 --seed 0 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports ``sqgd`` from
``src/`` and writes only under ``.bench_out/``. With ``--trace 0`` it
reports the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the
per-layer ones. Every metric is printed by name with its unit, the
machine and input facts come with it, and the last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--record-fingerprints`` (default seed only) rewrites the reference
fingerprints of the runs it made. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

from workloads import (CERTIFY_SNAPSHOT, SWEEP_AMPLITUDES, WORKLOADS, final_snapshot,
                       init_seed, run_config, snapshot_path, sweep_workers)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
FINGERPRINTS = HERE / "fingerprints.json"
DEFAULT_SEED = 0
SETUP_PROBES = 5
# The worker measures for --seconds plus one repetition; this only stops a hang.
WORKER_TIMEOUT_S = 120

# Only threads the program asks for itself: BLAS/OpenMP pools pinned to 1.
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Fresh interpreter: import sqgd and sqgd.cli, build the Grid and initial field.
SETUP_PROBE = """\
import time
t0 = time.perf_counter()
import sqgd, sqgd.cli
from sqgd.config import build_config
from sqgd.grid import Grid
cfg = build_config(None, {overrides!r})
sqgd.cli.make_initial(cfg, Grid(cfg.n))
print(time.perf_counter() - t0)
"""


def environment(workload: str) -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    env["SQGD_THREADS"] = str(sweep_workers() if workload == "sweep128_cfl" else 1)
    env["PYTHONPATH"] = str(SRC)
    return env


def machine_facts(workload: str) -> dict[str, object]:
    import numpy

    facts: dict[str, object] = {"nproc": os.cpu_count()}
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        level = (index / "level").read_text().strip()
        if level in ("2", "3"):
            facts[f"L{level}_per_instance"] = (index / "size").read_text().strip()
    facts.update(python=platform.python_version(), numpy=numpy.__version__,
                 scipy=version("scipy"))
    sizes = [run_config(workload)["n"]]
    if workload == "certify":
        sizes.append(CERTIFY_SNAPSHOT["n"])
    facts["complex_field_MiB"] = {n: n * n * 16 / 2**20 for n in sizes}
    facts["working_set"] = ("cache-resident: one n=256 complex field is 1 MiB against "
                            "the L3 above, so no bandwidth or roofline figure is claimed")
    return facts


def setup_seconds(workload: str, seed: int, env: dict[str, str], probes: int) -> list[float]:
    """Set-up time of ``probes`` fresh interpreters, one after another."""
    overrides = {k.replace("-", "_"): v for k, v in run_config(workload).items()}
    overrides["init_seed"] = init_seed(seed, 0)
    code = SETUP_PROBE.format(overrides=overrides)
    times = []
    for _ in range(probes):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout.strip()))
    return times


def run_worker(args, out: Path, env: dict[str, str]) -> dict:
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    subprocess.run(cmd, cwd=ROOT, env=env, timeout=WORKER_TIMEOUT_S, check=True)
    return json.loads((out / "worker.json").read_text())


def check_rep(workload: str, rep: dict, reference: dict):
    """Outcomes of one repetition's operations."""
    from checks import Outcome, check_certify_audit, check_run, read_csv

    rep_dir = Path(rep["dir"])
    expected = reference.get(workload, {}).get(str(rep["init_seed"]), {})
    by_step: dict[str, list[dict]] = {}
    for command in rep["commands"]:
        by_step.setdefault(command["step"], []).append(command)
    cfg = run_config(workload)
    if workload == "run256":
        return check_run("run", by_step["run"][0]["exit"], rep_dir, cfg, expected.get("run"))
    if workload == "sweep128_cfl":
        exit_code = by_step["sweep"][0]["exit"]
        if exit_code != 0:
            return [Outcome("sweep", False, f"exit code {exit_code}")]
        problems = []
        summary = {float(r["A"]): r["final_l2"] for r in read_csv(rep_dir / "summary.csv")}
        if sorted(summary) != list(SWEEP_AMPLITUDES):
            problems.append(f"summary.csv lists A={sorted(summary)}")
        for A in SWEEP_AMPLITUDES:
            name = f"A_{A:g}"
            member = check_run(name, 0, rep_dir / name, cfg, expected.get(name))
            problems += [f"{o.op}: {o.detail}" for o in member if not o.ok]
            rows = read_csv(rep_dir / name / "diagnostics.csv")
            if summary.get(A) != rows[-1]["l2"]:
                problems.append(f"{name}: summary final_l2 differs from diagnostics.csv")
        return [Outcome("sweep", not problems, "; ".join(problems))]
    run_exit = by_step["run"][0]["exit"]
    outcomes = check_run("run", run_exit, rep_dir / "run", cfg, expected.get("run"))
    if run_exit == 0:
        outcomes += check_certify_audit("final", by_step["final"],
                                        final_snapshot(rep_dir / "run", workload))
    else:
        outcomes.append(Outcome("final", False, "not run: the run failed"))
    outcomes += check_certify_audit("setup", by_step["setup"],
                                    snapshot_path(rep_dir.parent, rep["init_seed"]))
    return outcomes


def checked_rep(workload: str, rep: dict, reference: dict):
    """check_rep, with output it cannot read counted as one failed operation."""
    from checks import Outcome

    try:
        return check_rep(workload, rep, reference)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [Outcome(f"rep {rep['rep']}", False, f"unreadable output: {exc!r}")]


def record_fingerprints(workload: str, reps: list[dict]) -> None:
    from checks import final_fingerprint

    table = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
    entries = table.setdefault(workload, {})
    for rep in reps:
        rep_dir = Path(rep["dir"])
        if workload == "run256":
            runs = {"run": rep_dir}
        elif workload == "sweep128_cfl":
            runs = {f"A_{A:g}": rep_dir / f"A_{A:g}" for A in SWEEP_AMPLITUDES}
        else:
            runs = {"run": rep_dir / "run"}
        entries[str(rep["init_seed"])] = {k: final_fingerprint(d) for k, d in runs.items()}
    table[workload] = dict(sorted(entries.items(), key=lambda kv: int(kv[0])))
    FINGERPRINTS.write_text(json.dumps(table, indent=1) + "\n")


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1={q1:.6g}, q3={q3:.6g}"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="sqgd benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-fingerprints", action="store_true")
    args = parser.parse_args()

    if not (SRC / "sqgd" / "__init__.py").is_file():
        print(f"error: no sqgd sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.record_fingerprints and args.seed != DEFAULT_SEED:
        print("error: fingerprints are recorded for the default seed only", file=sys.stderr)
        return 2

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = environment(args.workload)
    facts = machine_facts(args.workload)
    # Set-up probes before and after the timed loop, so that their median
    # spans the run rather than one moment of a machine whose speed drifts.
    probes = 0 if args.trace else SETUP_PROBES
    setup = setup_seconds(args.workload, args.seed, env, probes // 2)
    worker = run_worker(args, out, env)
    setup += setup_seconds(args.workload, args.seed, env, probes - len(setup))
    reps = worker["reps"]

    if args.record_fingerprints:
        record_fingerprints(args.workload, reps)
    reference = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
    if args.seed != DEFAULT_SEED:
        reference = {}
    outcomes = [o for rep in reps for o in checked_rep(args.workload, rep, reference)]
    failed = [o for o in outcomes if not o.ok]
    unexpected = [o for o in failed if not o.known_defect]

    # Times in reference seconds (see CAL_REFERENCE_S in workloads.py).
    untraced = [r for r in reps if not r["traced"]]
    walls = [r["wall_s"] * r["speed"] for r in untraced]
    speed = statistics.median(r["speed"] for r in reps)
    if args.trace:
        traced_walls = [r["wall_s"] * r["speed"] for r in reps if r["traced"]]
        values = {name: statistics.median(layer[name] for layer in worker["layers"])
                  for name in worker["layers"][0]}
        values["tracing.overhead_frac"] = (statistics.median(traced_walls)
                                           / statistics.median(walls) - 1.0)
        spec = bench["per_layer"]
        notes = {"tracing.overhead_frac": f"traced {spread(traced_walls)}; untraced {spread(walls)}"}
    else:
        cpus = [r["cpu_s"] * r["speed"] for r in untraced]
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setup) * speed,
                  "cpu_s": statistics.median(cpus),
                  "peak_rss_mb": worker["peak_rss_mb"],
                  "ok_frac": 1.0 - len(failed) / len(outcomes)}
        spec = bench["end_to_end"]
        raw = statistics.median(r["wall_s"] for r in untraced)
        notes = {"wall_s": f"{spread(walls)}; unscaled median {raw:.6g} s",
                 "setup_s": f"unscaled {spread(setup)}", "cpu_s": spread(cpus),
                 "ok_frac": f"{len(outcomes) - len(failed)} of {len(outcomes)} operations"}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}

    for key, value in facts.items():
        print(f"fact {key}: {value}")
    print(f"fact init_seeds: {sorted({r['init_seed'] for r in reps})}")
    print(f"fact speed: times are in reference seconds; the calibration kernel took "
          f"{1 / speed:.4g}x its reference time (median over repetitions)")
    if args.trace and args.workload == "sweep128_cfl":
        print(f"fact traced sweep: SQGD_THREADS={sweep_workers()} as untraced; spans of "
              "forked members are merged into the parent's")
    for name, m in metrics.items():
        note = notes.get(name, "")
        print(f"{name:32s} {m['value']:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    print(f"failed_frac{'':21s} {len(failed) / len(outcomes):.6g} frac  "
          f"({len(failed)} of {len(outcomes)} operations)")
    for o in failed:
        tag = "known defect (ROADMAP item 3)" if o.known_defect else "FAILED"
        print(f"{tag}: {o.op}: {o.detail}")

    result = {"correct": not unexpected, "attempted": len(outcomes),
              "failed": len(failed), "metrics": metrics}
    (out / "result.json").write_text(json.dumps({**result, "facts": facts}, indent=1))
    for rep in reps:
        shutil.rmtree(rep["dir"], ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
