"""Diagnostics tests: norms, energy budget, Chebyshev measure bound,
record assembly, and the discrete energy identity along a run."""

import math

import numpy as np
import pytest

from sqgd import (
    Grid,
    ModulusParams,
    SampleConfig,
    ScalarField,
    SolverState,
    StepControl,
    audit_breakthrough,
    chebyshev_check,
    energy_budget,
    minimal_b,
    norms,
    run,
    sample,
)
from sqgd.initial import random_smooth, single_mode


class TestNorms:
    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_sine(self, n):
        g = Grid(n)
        l2, linf, max_grad, mean = norms(single_mode(g))
        assert l2 == pytest.approx(math.sqrt(2 * math.pi**2), rel=1e-13)
        assert linf == pytest.approx(1.0, abs=1e-15)  # n multiple of 4
        assert max_grad == pytest.approx(1.0, abs=1e-12)
        assert abs(mean) < 1e-16

    def test_zero_field(self):
        g = Grid(16)
        assert norms(ScalarField(g, np.zeros((16, 16)))) == (0.0, 0.0, 0.0, 0.0)

    def test_constant(self):
        g = Grid(16)
        l2, linf, max_grad, mean = norms(ScalarField(g, np.full((16, 16), -1.5)))
        assert l2 == pytest.approx(2 * math.pi * 1.5, rel=1e-14)
        assert linf == 1.5
        assert max_grad < 1e-13
        assert mean == pytest.approx(-1.5)


class TestEnergyBudget:
    def test_zero_field(self):
        g = Grid(16)
        assert energy_budget(ScalarField(g, np.zeros((16, 16))), 3.0) == (0.0, 0.0, 0.0)

    def test_cosine_dissipation(self):
        g = Grid(32)
        theta = ScalarField(g, np.cos(g.x1))
        _, _, dissipation = energy_budget(theta, 0.0)
        assert dissipation == pytest.approx(-2 * math.pi**2, rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dispersive_flux_vanishes(self, seed):
        g = Grid(64)
        theta = random_smooth(g, seed=seed, k_max=20, target_linf=1.0)
        l2 = norms(theta)[0]
        _, dispersive, _ = energy_budget(theta, 5.0)
        assert abs(dispersive) <= 1e-12 * l2**2

    @pytest.mark.parametrize("seed", [0, 1])
    def test_nonlinear_flux_vanishes(self, seed):
        from sqgd import gradient, velocity

        g = Grid(64)
        theta = random_smooth(g, seed=seed, k_max=12, target_linf=1.0)
        nonlinear, _, _ = energy_budget(theta, 0.0)
        l2 = norms(theta)[0]
        speed = max(c.linf() for c in velocity(theta))
        d1, d2 = gradient(theta)
        max_grad = float(np.hypot(d1.values, d2.values).max())
        assert abs(nonlinear) <= 1e-10 * l2 * speed * max_grad

    def test_dissipation_nonpositive(self):
        g = Grid(32)
        for seed in range(3):
            theta = random_smooth(g, seed=seed, k_max=8, target_linf=1.0)
            assert energy_budget(theta, 1.0)[2] <= 0.0


class TestChebyshev:
    def test_zero_field(self):
        g = Grid(16)
        measure, _, ok = chebyshev_check(ScalarField(g, np.zeros((16, 16))), 1.0, 0.0)
        assert measure == 0.0
        assert ok

    def test_constant_at_threshold(self):
        g = Grid(16)
        c = 0.8
        theta = ScalarField(g, np.full((16, 16), c))
        l2 = 2 * math.pi * c
        measure, bound, ok = chebyshev_check(theta, c, l2)
        assert measure == pytest.approx(4 * math.pi**2, rel=1e-12)
        assert bound == pytest.approx(16 * math.pi**2, rel=1e-12)
        assert ok

    @pytest.mark.parametrize("n", [16, 64])
    def test_sine_threshold_two(self, n):
        g = Grid(n)
        theta = single_mode(g)
        l2 = norms(theta)[0]
        measure, bound, ok = chebyshev_check(theta, 2.0, l2)
        # only the two columns where |sin| reaches 1 are counted
        assert measure == pytest.approx(2 * n * g.dx**2, rel=1e-12)
        assert bound == pytest.approx(2 * math.pi**2, rel=1e-12)
        assert ok

    def test_rejects_nonpositive_threshold(self):
        g = Grid(16)
        with pytest.raises(ValueError):
            chebyshev_check(single_mode(g), 0.0, 1.0)


class TestSample:
    def test_zero_state(self):
        g = Grid(16)
        state = SolverState(ScalarField(g, np.zeros((16, 16))), 0.0, 0.0)
        rec = sample(state, SampleConfig(), 0)
        assert (rec.l2, rec.linf, rec.max_grad, rec.mean) == (0.0, 0.0, 0.0, 0.0)
        assert rec.b_min is None

    def test_matches_standalone_operations(self):
        g = Grid(32)
        theta = random_smooth(g, seed=4, k_max=8, target_linf=0.01)
        state = SolverState(theta, 0.25, 2.0)
        cfg = SampleConfig(modulus_params=ModulusParams(), certify_every=1)
        rec = sample(state, cfg, 0)
        assert (rec.l2, rec.linf, rec.max_grad, rec.mean) == norms(theta)
        assert (rec.nonlinear_flux, rec.dispersive_flux, rec.dissipation) == \
            energy_budget(theta, 2.0)
        assert rec.b_min == minimal_b(theta, ModulusParams()).b_min
        assert rec.t == 0.25

    def test_certification_cadence(self):
        g = Grid(16)
        theta = random_smooth(g, seed=1, k_max=4, target_linf=0.01)
        state = SolverState(theta, 0.0, 0.0)
        cfg = SampleConfig(modulus_params=ModulusParams(), certify_every=5)
        present = [sample(state, cfg, i).b_min is not None for i in range(12)]
        assert present == [i % 5 == 0 for i in range(12)]

    def test_audit_attached_when_requested(self):
        g = Grid(16)
        theta = random_smooth(g, seed=2, k_max=4, target_linf=0.01)
        b_min = minimal_b(theta, ModulusParams()).b_min
        audit = audit_breakthrough(theta, b_min * (1 + 1e-3), 1.0, ModulusParams())
        assert audit.lhs_breakthrough <= 0  # certificate holds at b*(1+1e-3)


class TestRunDiagnostics:
    def test_discrete_energy_identity(self):
        g = Grid(64)
        theta0 = random_smooth(g, seed=3, k_max=10, target_linf=1.0)
        ctrl = StepControl(mode="fixed", dt_fixed=5e-4, dt_max=1.0)
        rows = []

        def hook(state):
            l2 = norms(state.theta)[0]
            rows.append((state.t, l2, energy_budget(state.theta, state.A)))

        run(SolverState(theta0, 0.0, 2.0), ctrl, 0.1, hook=hook, sample_every=0.005)
        for (t0, l0, f0), (t1, l1, f1) in zip(rows, rows[1:]):
            lhs = (0.5 * l1**2 - 0.5 * l0**2) / (t1 - t0)
            rhs = 0.5 * (sum(f0) + sum(f1))
            assert lhs == pytest.approx(rhs, rel=1e-3)

    def test_sup_norm_monotone_without_dispersion(self):
        g = Grid(64)
        theta0 = random_smooth(g, seed=5, k_max=10, target_linf=1.0)
        ctrl = StepControl(mode="cfl", cfl_number=0.5, dt_max=0.01)
        peaks = []
        run(SolverState(theta0, 0.0, 0.0), ctrl, 0.5,
            hook=lambda s: peaks.append(norms(s.theta)[1]), sample_every=0.05)
        for prev, cur in zip(peaks, peaks[1:]):
            assert cur <= prev * (1 + 1e-6)

    def test_chebyshev_holds_along_run(self):
        g = Grid(64)
        theta0 = random_smooth(g, seed=6, k_max=10, target_linf=1.0)
        l2_0, linf_0 = norms(theta0)[:2]
        ctrl = StepControl(mode="cfl", cfl_number=0.5, dt_max=0.01)
        failures = []

        def hook(state):
            for factor in (0.5, 1.0, 2.0):
                _, _, ok = chebyshev_check(state.theta, factor * linf_0, l2_0)
                if not ok:
                    failures.append((state.t, factor))

        run(SolverState(theta0, 0.0, 3.0), ctrl, 0.4, hook=hook, sample_every=0.05)
        assert failures == []
