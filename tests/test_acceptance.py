"""Acceptance suite.

Each test implements one numbered acceptance criterion at its stated
tolerance and prints a PASS line with the measured margins. The heavy
simulation batteries (criteria 4-6, 8-10) run once in session fixtures and
are shared by the criteria that consume them.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from sqgd import (
    Grid,
    ModulusParams,
    ScalarField,
    SolverState,
    StepControl,
    advect,
    breakthrough_b,
    chebyshev_check,
    check_modulus,
    gradient,
    half_laplacian,
    minimal_b,
    modulus_inverse,
    modulus_slope,
    read_snapshot,
    riesz_transform,
    run,
    scaled_modulus,
    velocity,
    velocity_modulus,
)
from sqgd.cli import execute_run
from sqgd.config import RunConfig
from sqgd.initial import random_smooth, single_mode
from sqgd.modulus import modulus

from helpers import advection_oracle, field_from_coeffs, velocity_modulus_oracle

P = ModulusParams()


def _pass(criterion: int, detail: str) -> None:
    print(f"CRITERION {criterion}: PASS ({detail})")


def read_csv_columns(path):
    lines = path.read_text().splitlines()
    names = lines[0].split(",")
    columns = {name: [] for name in names}
    for line in lines[1:]:
        for name, cell in zip(names, line.split(",")):
            columns[name].append(float(cell) if cell else None)
    return columns


# ---------------------------------------------------------------------------
# Shared simulation batteries


CRITERION4_BASE = dict(
    n=256, t_end=5.0, init="random_smooth", init_slope=2.0, init_kmax=10,
    init_linf=1.0, step_mode="cfl", cfl_number=0.4, dt_max=0.01,
    sample_every=0.1, certify_every=0,
)
CRITERION4_CASES = [(A, seed) for A in (0.0, 1.0, 5.0) for seed in (11, 12)]

CRITERION8_BASE = dict(
    n=48, t_end=2.0, init="random_smooth", init_seed=21, init_slope=2.0,
    init_kmax=8, init_linf=0.008, step_mode="cfl", cfl_number=0.4,
    dt_max=0.02, sample_every=0.1, certify_every=5,
)
CRITERION8_CASES = [0.0, 2.0]


@pytest.fixture(scope="session")
def criterion4_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("criterion4")
    started = time.perf_counter()
    outputs = []
    for A, seed in CRITERION4_CASES:
        out = base / f"A{A:g}_seed{seed}"
        cfg = RunConfig(**CRITERION4_BASE, A=A, init_seed=seed,
                        output_dir=str(out))
        execute_run(cfg)
        outputs.append((A, seed, out))
    elapsed = time.perf_counter() - started
    return outputs, elapsed


@pytest.fixture(scope="session")
def criterion8_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("criterion8")
    started = time.perf_counter()
    outputs = []
    for A in CRITERION8_CASES:
        out = base / f"A{A:g}"
        cfg = RunConfig(**CRITERION8_BASE, A=A, output_dir=str(out))
        execute_run(cfg)
        outputs.append((A, out))
    elapsed = time.perf_counter() - started
    return outputs, elapsed


# ---------------------------------------------------------------------------
# Criterion 1: operator oracles


def test_criterion_01_operator_oracles():
    started = time.perf_counter()
    worst = 0.0
    for n in (16, 64):
        g = Grid(n)
        cases = []
        f_cos = ScalarField(g, np.cos(g.x1))
        cases.append((riesz_transform(f_cos, 1).values, -np.sin(g.x1)))
        f_sin_y = ScalarField(g, np.sin(g.x2))
        cases.append((riesz_transform(f_sin_y, 2).values, np.cos(g.x2)))
        const = ScalarField(g, np.full((n, n), 2.0))
        cases.append((riesz_transform(const, 1).values, np.zeros((n, n))))

        cases.append((half_laplacian(f_cos).values, np.cos(g.x1)))
        mixed = ScalarField(g, np.cos(3 * g.x1 + 4 * g.x2))
        cases.append((half_laplacian(mixed).values, 5 * mixed.values))
        cases.append((half_laplacian(const).values, np.zeros((n, n))))

        u1, u2 = velocity(f_sin_y)
        cases.append((u1.values, -np.cos(g.x2)))
        cases.append((u2.values, np.zeros((n, n))))
        v1, v2 = velocity(single_mode(g))
        cases.append((v1.values, np.zeros((n, n))))
        cases.append((v2.values, np.cos(g.x1)))

        d1, d2 = gradient(single_mode(g))
        cases.append((d1.values, np.cos(g.x1)))
        cases.append((d2.values, np.zeros((n, n))))
        f_cos2y = ScalarField(g, np.cos(2 * g.x2))
        _, d2_cos2y = gradient(f_cos2y)
        cases.append((d2_cos2y.values, -2 * np.sin(2 * g.x2)))

        cases.append((advect(const).values, np.zeros((n, n))))
        cases.append((advect(single_mode(g)).values, np.zeros((n, n))))

        for got, expected in cases:
            worst = max(worst, float(np.abs(got - expected).max()))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-12
    assert elapsed < 1.0
    _pass(1, f"max operator error {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 2: dealiased advection vs convolution oracle


def test_criterion_02_advection_convolution_oracle():
    started = time.perf_counter()
    g = Grid(32)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(5):
        coeffs = {}
        n_modes = int(rng.integers(2, 6))
        while len(coeffs) < n_modes:
            k1 = int(rng.integers(0, 8))
            k2 = int(rng.integers(-7, 8))
            if k1 == 0 and k2 <= 0:
                continue
            coeffs[(k1, k2)] = complex(rng.normal(), rng.normal())
        theta = field_from_coeffs(g, coeffs)
        expected = advection_oracle(g, coeffs)
        got = advect(theta).values
        worst = max(worst, float(np.abs(got - expected).max()))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-11
    assert elapsed < 10.0
    _pass(2, f"max oracle deviation {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 3: linear exactness and ETDRK2 order


def test_criterion_03_linear_exactness_and_order():
    started = time.perf_counter()
    g = Grid(32)
    worst = 0.0
    for A in (0.0, 1.0, 5.0):
        state0 = SolverState(ScalarField(g, np.cos(g.x1)), 0.0, A)
        ctrl = StepControl(mode="fixed", dt_fixed=0.01, dt_max=1.0)
        out = run(state0, ctrl, 1.0)
        exact = math.exp(-1.0) * np.cos(g.x1 + A * 1.0)
        worst = max(worst, float(np.abs(out.theta.values - exact).max()))
    assert worst <= 1e-10

    g = Grid(128)
    theta0 = random_smooth(g, seed=2, k_max=10, target_linf=1.0)
    results = {}
    for dt in (4e-3, 2e-3, 1e-3):
        ctrl = StepControl(mode="fixed", dt_fixed=dt, dt_max=1.0)
        results[dt] = run(SolverState(theta0, 0.0, 1.0), ctrl, 0.2).theta.values
    err_coarse = float(np.abs(results[4e-3] - results[2e-3]).max())
    err_fine = float(np.abs(results[2e-3] - results[1e-3]).max())
    order = math.log2(err_coarse / err_fine)
    elapsed = time.perf_counter() - started
    assert 1.7 <= order <= 2.3
    assert elapsed < 60.0
    _pass(3, f"dispersive decay error {worst:.2e}, order {order:.3f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criteria 4-6: the six production runs


def test_criterion_04_l2_monotone_and_dispersive_flux(criterion4_runs):
    outputs, elapsed = criterion4_runs
    worst_growth = 0.0
    worst_flux = 0.0
    for A, seed, out in outputs:
        cols = read_csv_columns(out / "diagnostics.csv")
        l2 = cols["l2"]
        for prev, cur in zip(l2, l2[1:]):
            worst_growth = max(worst_growth, cur / prev - 1.0)
            assert cur <= prev * (1.0 + 1e-8)
        for l2_k, flux in zip(l2, cols["dispersive_flux"]):
            ratio = abs(flux) / l2_k**2
            worst_flux = max(worst_flux, ratio)
            assert abs(flux) <= 1e-12 * l2_k**2
    assert elapsed < 15 * 60
    _pass(4, f"worst l2 growth {worst_growth:.2e}, worst dispersive ratio "
             f"{worst_flux:.2e}, battery {elapsed:.0f}s")


def test_criterion_05_chebyshev_along_runs(criterion4_runs):
    outputs, _ = criterion4_runs
    checked = 0
    for A, seed, out in outputs:
        cols = read_csv_columns(out / "diagnostics.csv")
        l2_initial = cols["l2"][0]
        linf_initial = cols["linf"][0]
        for snap_path in sorted(out.glob("snapshot_*.sqgd")):
            field, _, _ = read_snapshot(snap_path)
            for factor in (0.5, 1.0, 2.0):
                _, _, ok = chebyshev_check(field, factor * linf_initial, l2_initial)
                assert ok, f"{snap_path} failed at M={factor}*linf0"
                checked += 1
    _pass(5, f"{checked} measure-bound checks hold")


def test_criterion_06_sup_norm_principle_and_boundedness(criterion4_runs):
    outputs, _ = criterion4_runs
    worst_slack = 0.0
    worst_ratio = 0.0
    for A, seed, out in outputs:
        cols = read_csv_columns(out / "diagnostics.csv")
        linf = cols["linf"]
        if A == 0.0:
            for prev, cur in zip(linf, linf[1:]):
                worst_slack = max(worst_slack, cur / prev - 1.0)
                assert cur <= prev * (1.0 + 1e-6)
        else:
            ratio = max(linf) / linf[0]
            worst_ratio = max(worst_ratio, ratio)
            if A == 5.0:
                assert ratio <= 3.0
    _pass(6, f"A=0 worst slack {worst_slack:.2e}, dispersive growth factor "
             f"{worst_ratio:.3f} (guard 3.0)")


# ---------------------------------------------------------------------------
# Criterion 7: modulus machinery


def test_criterion_07_modulus_machinery():
    started = time.perf_counter()
    d, g_ = P.delta, P.gamma

    assert modulus(0.0, P) == 0.0
    assert abs(modulus(d, P) - (d - d**1.5)) <= 1e-16
    assert abs(modulus(d * math.e**4, P) - (d - d**1.5 + g_ * math.log(2))) <= 1e-12
    assert modulus_slope(0.0, P) == 1.0
    assert abs(modulus_slope(d, P) - (1 - 1.5 * math.sqrt(d))) <= 1e-15
    assert abs(modulus_slope(d * math.e, P) - g_ / (5 * d * math.e)) <= 1e-15
    assert modulus_inverse(0.0, P) == 0.0
    worst_rt = 0.0
    for xi in (d / 2, d, 10 * d):
        worst_rt = max(worst_rt, abs(modulus_inverse(modulus(xi, P), P) / xi - 1))
    assert worst_rt <= 1e-10
    assert abs(modulus_inverse(d - d**1.5, P) - d) <= 1e-10 * d

    worst_oracle = 0.0
    for xi in (d / 2, d, 5 * d):
        lo, hi = velocity_modulus_oracle(xi, P, panels=400_000)
        val = velocity_modulus(xi, P)
        dev = max(lo - val, val - hi, 0.0)
        worst_oracle = max(worst_oracle, dev)
        assert lo - 1e-7 <= val <= hi + 1e-7

    from scipy.integrate import quad

    worst_scaling = 0.0
    for b, xi in [(2.0, d), (5.0, d / 3), (0.5, 0.1), (10.0, 0.3),
                  (1.0, 1.0), (3.0, 0.05)]:
        points = [d / b] if d / b < xi else None
        near = quad(lambda e: scaled_modulus(e, b, P) / e, 0.0, xi,
                    epsabs=1e-11, epsrel=1e-11, limit=500, points=points)[0]
        far = xi * quad(lambda e: scaled_modulus(e, b, P) / e**2, xi, np.inf,
                        epsabs=1e-12, epsrel=1e-11, limit=500)[0]
        direct = P.c_omega * (near + far)
        dev = abs(velocity_modulus(b * xi, P) - direct)
        worst_scaling = max(worst_scaling, dev)
        assert dev <= 1e-8
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _pass(7, f"round trips {worst_rt:.1e}, oracle dev {worst_oracle:.1e}, "
             f"scaling dev {worst_scaling:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criteria 8-9: certification runs


def test_criterion_08_certificate_coherence(criterion8_runs):
    outputs, elapsed = criterion8_runs
    g = Grid(CRITERION8_BASE["n"])
    checked = 0
    for A, out in outputs:
        cols = read_csv_columns(out / "diagnostics.csv")
        b_mins = cols["b_min"]
        for index, b in enumerate(b_mins):
            if b is None:
                continue
            assert math.isfinite(b) and b > 0
            field, _, _ = read_snapshot(out / f"snapshot_{index:06d}.sqgd")
            ok_below, _ = check_modulus(field, b * (1 - 1e-3), P)
            ok_above, _ = check_modulus(field, b * (1 + 1e-3), P)
            assert not ok_below
            assert ok_above
            max_grad = cols["max_grad"][index]
            assert max_grad <= b * (1 + 10 * g.dx)
            checked += 1
    assert checked == 2 * 5  # five certification samples per run
    assert elapsed < 20 * 60
    _pass(8, f"{checked} certified samples coherent, battery {elapsed:.0f}s")


def test_criterion_09_breakthrough_threshold_shape(criterion8_runs):
    outputs, _ = criterion8_runs
    margin = 2.0
    details = []
    for A, out in outputs:
        cols = read_csv_columns(out / "diagnostics.csv")
        d_emp = max(cols["linf"])
        b_star = breakthrough_b(A, d_emp, P)
        b_series = [b for b in cols["b_min"] if b is not None]
        ceiling = max(b_series[0], b_star * margin)
        assert all(b <= ceiling for b in b_series)
        details.append(f"A={A:g}: max b_min {max(b_series):.4g} <= "
                       f"ceiling {ceiling:.4g}")
    _pass(9, "; ".join(details))


# ---------------------------------------------------------------------------
# Criterion 10: reproducibility


def test_criterion_10_byte_reproducibility(criterion4_runs, tmp_path):
    outputs, _ = criterion4_runs
    A, seed, first_out = outputs[0]
    cfg = RunConfig(**CRITERION4_BASE, A=A, init_seed=seed,
                    output_dir=str(tmp_path / "again"))
    execute_run(cfg)
    csv_a = (first_out / "diagnostics.csv").read_bytes()
    csv_b = (tmp_path / "again" / "diagnostics.csv").read_bytes()
    assert csv_a == csv_b
    snaps_a = sorted(first_out.glob("snapshot_*.sqgd"))
    snaps_b = sorted((tmp_path / "again").glob("snapshot_*.sqgd"))
    assert [p.name for p in snaps_a] == [p.name for p in snaps_b]
    identical = 0
    for pa, pb in zip(snaps_a, snaps_b):
        assert pa.read_bytes() == pb.read_bytes()
        identical += 1
    _pass(10, f"CSV and {identical} snapshots byte-identical on rerun")
