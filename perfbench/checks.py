"""Output checks of the benchmark.

Every CLI command and every certificate it emits is one operation; an
operation fails on a nonzero exit code or a failed check. The checks read
the program's output files, evaluate the modulus family and its inverse
and scan displacement classes with their own code: they import nothing
from ``sqgd``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


# Snapshot layout: magic, version, n_x, n_y, t, A, then n_x*n_y little-endian f64.
SNAPSHOT_HEADER = struct.Struct("<4sHIIdd")
# The modulus constants every workload uses (the CLI defaults).
GAMMA, DELTA = 0.01, 0.02
# The program's pass tolerance on a modulus check: a pair passes when its
# slack omega_B(xi) - jump is at least -1e-12.
CHECK_TOL = 1e-12
# Coherence is checked at b_min*(1 -+ COHERENCE_STEP).
COHERENCE_STEP = 1e-3
# The lower bound scans the classes with |h_i| <= WINDOW grid steps.
WINDOW = 6
# `certify` in auto mode scans all pairs up to n = 96 and samples above
# (sqgd.modulus.EXHAUSTIVE_LIMIT); only the exhaustive scan is expected to
# pass the coherence check.
EXHAUSTIVE_MAX_N = 96
# Relative agreement of a final-snapshot fingerprint with its reference.
FINGERPRINT_RTOL = 1e-9
# Relative slack on "the sampled L2 norm is non-increasing".
L2_RTOL = 1e-12


@dataclass
class Outcome:
    """One checked operation. ``known_defect`` marks a failure that the
    benchmark notes record as an open defect of the program."""

    op: str
    ok: bool
    detail: str = ""
    known_defect: bool = False


# ---------------------------------------------------------------------------
# The modulus family, evaluated independently of sqgd.modulus


def omega(xi: np.ndarray) -> np.ndarray:
    xi = np.asarray(xi, dtype=np.float64)
    inner = np.minimum(xi, DELTA)
    outer = np.maximum(xi, DELTA)
    tail = DELTA - DELTA**1.5 + GAMMA * np.log1p(np.log(outer / DELTA) / 4.0)
    return np.where(xi <= DELTA, inner - inner**1.5, tail)


def omega_inverse(v: np.ndarray) -> np.ndarray:
    """xi with omega(xi) = v: bisection on the inner branch, closed form
    delta*exp(4*expm1((v - omega(delta))/gamma)) on the outer one."""
    v = np.asarray(v, dtype=np.float64)
    at_delta = DELTA - DELTA**1.5
    lo, hi = np.zeros_like(v), np.full_like(v, DELTA)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = mid - mid**1.5 < v
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    with np.errstate(over="ignore"):
        outer = DELTA * np.exp(4.0 * np.expm1((v - at_delta) / GAMMA))
    return np.where(v <= at_delta, hi, outer)


def _wrapped(d: np.ndarray, n: int) -> np.ndarray:
    d = np.abs(d) % n
    return np.minimum(d, n - d)


def class_jumps(values: np.ndarray, dx: float, reach: float):
    """(di, dj, xi, J) for every nonzero displacement class whose separation
    xi is at most ``reach``: di in [0, n/2], dj the wrapped column offset,
    and J(h) = max_x |theta(x + h) - theta(x)|."""
    n = values.shape[0]
    cols = np.arange(n)
    dis, djs, xis, jumps = [], [], [], []
    for di in range(n // 2 + 1):
        xi = dx * np.hypot(_wrapped(di, n), _wrapped(cols, n))
        near = np.flatnonzero((xi > 0) & (xi <= reach))
        if near.size == 0:
            continue
        rolled = np.roll(values, di, axis=0)
        # windows[i, s, j] = rolled[i, (s + j) % n]; s = n - dj shifts by dj.
        windows = sliding_window_view(np.concatenate([rolled, rolled], axis=1), n, axis=1)
        jumps.append(np.abs(values[:, None, :] - windows[:, n - near, :]).max(axis=(0, 2)))
        dis.append(np.full(near.size, di))
        djs.append(_wrapped(near, n))
        xis.append(xi[near])
    return tuple(map(np.concatenate, (dis, djs, xis, jumps)))


def _passes(b: float, xi: np.ndarray, jump: np.ndarray) -> bool:
    return bool((omega(b * xi) - jump).min() >= -CHECK_TOL)


def check_certificate(op: str, values: np.ndarray, dx: float, b_min: float) -> Outcome:
    """A certificate is coherent (fails just below b_min, passes just
    above, where the exhaustive scan is allowed) and never below the
    window lower bound max omega^-1(J(h) - tol)/|h| over |h_i| <= WINDOW."""
    n = values.shape[0]
    if not (math.isfinite(b_min) and b_min > 0):
        return Outcome(op, False, f"b_min={b_min!r}")
    below, above = b_min * (1 - COHERENCE_STEP), b_min * (1 + COHERENCE_STEP)
    reach = dx * WINDOW * math.sqrt(2)
    if n <= EXHAUSTIVE_MAX_N:
        # Every jump is at most the oscillation, so a class farther than
        # omega^-1(osc)/b passes at b and above: scanning the nearer ones is exact.
        osc = float(values.max() - values.min())
        reach = max(reach, float(omega_inverse(osc + CHECK_TOL)) / below)
    di, dj, xi, jump = class_jumps(values, dx, reach)
    if n <= EXHAUSTIVE_MAX_N:
        if _passes(below, xi, jump):
            return Outcome(op, False, f"passes below b_min={b_min:.17g}")
        if not _passes(above, xi, jump):
            return Outcome(op, False, f"fails above b_min={b_min:.17g}")
    window = (di <= WINDOW) & (dj <= WINDOW)
    bound = float((omega_inverse(np.maximum(jump[window] - CHECK_TOL, 0.0)) / xi[window]).max())
    if b_min < bound:
        return Outcome(op, False,
                       f"b_min={b_min:.17g} below the window lower bound {bound:.17g}",
                       known_defect=n > EXHAUSTIVE_MAX_N)
    return Outcome(op, True)


# ---------------------------------------------------------------------------
# Runs, sweeps and the certify/audit commands


def read_field(path: Path) -> tuple[np.ndarray, float]:
    """(values, dx) of a snapshot file."""
    raw = path.read_bytes()
    _, _, n_x, n_y, _, _ = SNAPSHOT_HEADER.unpack_from(raw)
    values = np.frombuffer(raw, dtype="<f8", offset=SNAPSHOT_HEADER.size).reshape(n_x, n_y)
    return values.astype(np.float64), 2 * math.pi / n_x


def fingerprint(values: np.ndarray, dx: float) -> list[float]:
    """(l2, linf, mean) of a field, l2 by the rectangle rule."""
    return [math.sqrt(float((values * values).sum())) * dx,
            float(np.abs(values).max()), float(values.mean())]


def final_fingerprint(run_dir: Path) -> list[float]:
    """Fingerprint of the last snapshot a run wrote."""
    return fingerprint(*read_field(max(run_dir.glob("snapshot_*.sqgd"))))


def read_csv(path: Path) -> list[dict[str, str]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def check_run(op: str, exit_code, run_dir: Path, config: dict,
              reference: list[float] | None) -> list[Outcome]:
    """One `sqgd run` (or sweep member): its command and its certificates."""
    if exit_code != 0:
        return [Outcome(op, False, f"exit code {exit_code}")]
    rows = read_csv(run_dir / "diagnostics.csv")
    expected = round(config["t-end"] / config["sample-every"]) + 1
    if len(rows) != expected or float(rows[-1]["t"]) != config["t-end"]:
        return [Outcome(op, False, f"{len(rows)} samples, last t={rows[-1]['t']}")]
    l2 = [float(r["l2"]) for r in rows]
    if any(b > a * (1 + L2_RTOL) for a, b in zip(l2, l2[1:])):
        return [Outcome(op, False, "sampled L2 norm increased")]
    found = final_fingerprint(run_dir)
    if reference is not None:
        scale = max(abs(reference[0]), abs(reference[1]))
        if any(abs(f - r) > FINGERPRINT_RTOL * scale for f, r in zip(found, reference)):
            return [Outcome(op, False, f"fingerprint {found} != reference {reference}")]
    outcomes = [Outcome(op, True)]
    for k, row in enumerate(rows):
        if row["b_min"]:
            values, dx = read_field(run_dir / f"snapshot_{k:06d}.sqgd")
            outcomes.append(check_certificate(f"{op}/certificate[{k}]", values, dx,
                                              float(row["b_min"])))
    return outcomes


def check_certify_audit(op: str, commands: list[dict], snapshot: Path) -> list[Outcome]:
    """`sqgd certify` on a snapshot, its certificate, then `sqgd audit`
    at B = b_min*1.001, where no sampled or scanned pair may break through."""
    cert = commands[0]
    lines = cert["stdout"].splitlines()
    if cert["exit"] != 0 or len(lines) != 2:
        return [Outcome(f"{op}/certify", False, f"exit code {cert['exit']}")]
    b_min = float(lines[1].split(",")[0])
    outcomes = [Outcome(f"{op}/certify", True),
                check_certificate(f"{op}/certificate", *read_field(snapshot), b_min)]
    if len(commands) < 2:
        return outcomes
    audit = commands[1]
    lines = audit["stdout"].splitlines()
    ok = audit["exit"] == 0 and len(lines) == 2
    values = [float(x) for x in lines[1].split(",")] if ok else []
    ok = ok and len(values) == 7 and all(map(math.isfinite, values))
    if ok and values[1] > CHECK_TOL:
        outcomes.append(Outcome(f"{op}/audit", False,
                                f"breakthrough {values[1]:.3g} above b_min"))
    else:
        outcomes.append(Outcome(f"{op}/audit", ok, "" if ok else f"exit code {audit['exit']}"))
    return outcomes
