"""Time-integrator tests: linear exactness, second-order self-convergence,
CFL selection, run orchestration, and conservation properties."""

import math
from dataclasses import replace

import numpy as np
import pytest

from sqgd import (
    BlowUpError,
    Grid,
    ScalarField,
    SolverState,
    StepControl,
    cfl_dt,
    exp_phi,
    linear_symbol_grid,
    run,
    step,
    velocity,
)
from sqgd import diagnostics, integrator
from sqgd.diagnostics import sample
from sqgd.initial import random_smooth, single_mode
from sqgd.integrator import _step_weights

from helpers import conj_symmetry_error, dealias, etdrk2_step_oracle, linear_symbol


def l2_norm(field):
    return math.sqrt(float((field.values**2).sum()) * field.grid.cell_area)


class TestLinearSymbol:
    def test_spec_values(self):
        assert linear_symbol((1, 0), 2.0) == pytest.approx(complex(-1, 2))
        assert linear_symbol((0, 0), 7.0) == 0
        assert linear_symbol((3, 4), 0.0) == pytest.approx(complex(-5, 0))

    def test_real_part_nonpositive(self):
        for k1 in range(-4, 5):
            for k2 in range(-4, 5):
                assert linear_symbol((k1, k2), 3.0).real <= 0

    def test_grid_symbol_matches_pointwise(self):
        g = Grid(16)
        L = linear_symbol_grid(g, 2.5)
        for k1 in (-3, 0, 2):
            for k2 in (-2, 0, 5):
                expected = linear_symbol((k1, k2), 2.5)
                # the half-spectrum holds k2 >= 0; L(-k) = conj(L(k))
                got = L[k1 % 16, k2] if k2 >= 0 else np.conj(L[-k1 % 16, -k2])
                assert got == pytest.approx(expected, abs=1e-14)

    def test_grid_symbol_zero_on_nyquist(self):
        g = Grid(16)
        L = linear_symbol_grid(g, 1.0)
        assert np.abs(L[8, :]).max() == 0.0
        assert np.abs(L[:, 8]).max() == 0.0


class TestPhiFunctions:
    def test_values_at_zero(self):
        assert exp_phi(np.array(0.0))[1] == pytest.approx(1.0)
        assert exp_phi(np.array(0.0))[2] == pytest.approx(0.5)

    def test_series_matches_direct_at_crossover(self):
        # continuity where the evaluation switches branch: straddle the
        # cutoff by one part in 1e9 so the two routes are compared at
        # effectively the same argument; the gap is the direct formula's
        # cancellation residue (about eps/|z| for phi1, eps/|z|^2 for phi2)
        for direction in (1.0, 1.0j, (1.0 + 1.0j) / math.sqrt(2)):
            zl = np.array(1e-4 * (1 - 1e-9) * direction)
            zh = np.array(1e-4 * (1 + 1e-9) * direction)
            assert abs(exp_phi(zl)[1] - exp_phi(zh)[1]) < 1e-11
            assert abs(exp_phi(zl)[2] - exp_phi(zh)[2]) < 1e-7
        assert abs(complex(exp_phi(np.array(2e-4))[1]) - (math.expm1(2e-4) / 2e-4)) < 1e-12

    def test_known_value(self):
        z = np.array(1.0)
        assert complex(exp_phi(z)[1]) == pytest.approx(math.e - 1.0)
        assert complex(exp_phi(z)[2]) == pytest.approx(math.e - 2.0)

    def test_exp_is_numpy_exp(self):
        g = Grid(32)
        for dt in (1e-7, 1e-3, 0.5):
            z = linear_symbol_grid(g, 3.0) * dt
            assert np.array_equal(exp_phi(z)[0], np.exp(z))
        for z in (0.0, 5e-5j, 1.0 + 2.0j):
            assert exp_phi(np.array(z))[0] == np.exp(complex(z))


class TestStepWeights:
    def state(self, n, A, seed=4):
        g = Grid(n)
        return SolverState(random_smooth(g, seed=seed, k_max=n // 3, target_linf=1.0), 0.0, A)

    def test_one_entry_cleared_after_run(self):
        sizes = []
        ctrl = StepControl(mode="fixed", dt_max=0.03)
        out = run(self.state(16, 1.0), ctrl, 0.2,
                  hook=lambda s: sizes.append(_step_weights.cache_info().currsize),
                  sample_every=0.1)
        assert out.t == 0.2
        assert _step_weights.cache_info().maxsize == 1
        assert max(sizes) == 1
        assert _step_weights.cache_info().currsize == 0

    def test_cleared_when_run_raises(self):
        def hook(s):
            if s.t > 0:
                raise RuntimeError("stop")

        with pytest.raises(RuntimeError):
            run(self.state(16, 1.0), StepControl(mode="fixed", dt_max=0.03),
                0.2, hook=hook, sample_every=0.1)
        assert _step_weights.cache_info().currsize == 0

    @pytest.mark.parametrize("first", [(16, 0.0), (32, 2.0)], ids=["other A", "other n"])
    def test_back_to_back_steps_match_fresh_weights(self, first):
        dt = 0.02
        second = self.state(16, 2.0)
        step(self.state(*first), dt)
        after_other = step(second, dt)
        cached = _step_weights(second.theta.grid, 2.0, dt)
        e, p1, p2 = exp_phi(linear_symbol_grid(second.theta.grid, 2.0) * dt)
        for got, want in zip(cached, (e, dt * p1, dt * p2)):
            assert np.array_equal(got, want)
        _step_weights.cache_clear()
        fresh = step(second, dt)
        assert np.array_equal(after_other.theta.hat, fresh.theta.hat)

    def test_cached_arrays_reject_writes(self):
        for w in _step_weights(Grid(16), 1.0, 0.01):
            with pytest.raises(ValueError):
                w[0, 0] = 1.0

    @pytest.mark.parametrize("A", [0.0, 2.0])
    @pytest.mark.parametrize("dt", [1e-5, 1e-3, 0.05, 0.3])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_step_matches_scalar_oracle(self, A, dt, sign):
        # sign = -1 is the opposite advection convention, which step
        # reaches by theta -> -theta: oracle(theta, -1) = -step(-theta)
        state = self.state(16, A, seed=9)
        g = state.theta.grid
        flipped = SolverState(ScalarField.from_hat(g, sign * state.theta.hat), 0.0, A)
        got = ScalarField.from_hat(g, sign * step(flipped, dt).theta.hat).values
        want = ScalarField.from_hat(g, etdrk2_step_oracle(state.theta, A, dt, sign)).values
        assert np.abs(got - want).max() <= 1e-14


class TestStep:
    def test_zero_dt_is_identity(self):
        g = Grid(16)
        state = SolverState(single_mode(g), 0.0, 1.0)
        assert step(state, 0.0) is state

    def test_negative_dt_rejected(self):
        g = Grid(16)
        state = SolverState(single_mode(g), 0.0, 1.0)
        with pytest.raises(ValueError):
            step(state, -0.1)

    @pytest.mark.parametrize("dt", [1e-3, 0.05, 0.5])
    def test_pure_decay_single_mode(self, dt):
        g = Grid(32)
        theta0 = ScalarField(g, np.cos(g.x1))
        state = step(SolverState(theta0, 0.0, 0.0), dt)
        exact = math.exp(-dt) * np.cos(g.x1)
        assert np.abs(state.theta.values - exact).max() < 1e-12

    @pytest.mark.parametrize("dt", [1e-3, 0.1])
    def test_dispersive_phase_translation(self, dt):
        g = Grid(32)
        theta0 = ScalarField(g, np.cos(g.x1))
        state = step(SolverState(theta0, 0.0, 3.0), dt)
        exact = math.exp(-dt) * np.cos(g.x1 + 3.0 * dt)
        assert np.abs(state.theta.values - exact).max() < 1e-12

    def test_time_and_count_advance(self):
        g = Grid(16)
        state = SolverState(single_mode(g), 1.0, 0.0, step_count=4)
        out = step(state, 0.25)
        assert out.t == pytest.approx(1.25)
        assert out.step_count == 5

    def test_nonfinite_raises_blowup(self):
        g = Grid(16)
        bad = ScalarField.from_hat(g, np.full((16, 9), np.nan, dtype=complex))
        state = SolverState(bad, 0.0, 0.0)
        with pytest.raises(BlowUpError) as err:
            step(state, 0.1)
        assert err.value.step_count == 1


class TestCflDt:
    def test_quiescent_hits_cap(self):
        g = Grid(16)
        ctrl = StepControl(mode="cfl", cfl_number=0.5, dt_max=1.0)
        assert cfl_dt(0.0, g, ctrl) == 1.0

    def test_arithmetic(self):
        g = Grid(256)
        ctrl = StepControl(mode="cfl", cfl_number=0.5, dt_max=1.0)
        dt = cfl_dt(2.0, g, ctrl)
        assert dt == pytest.approx(0.5 * (2 * np.pi / 256) / 2.0, rel=1e-12)
        assert dt == pytest.approx(6.136e-3, rel=1e-3)

    def test_doubling_speed_halves_dt(self):
        g = Grid(64)
        ctrl = StepControl(mode="cfl", cfl_number=0.5, dt_max=10.0)
        dt1 = cfl_dt(1.0, g, ctrl)
        dt2 = cfl_dt(2.0, g, ctrl)
        assert dt1 == pytest.approx(2 * dt2, rel=1e-12)

    def test_requires_cfl_mode(self):
        g = Grid(16)
        with pytest.raises(ValueError):
            cfl_dt(1.0, g, StepControl(mode="fixed"))

    def test_control_validation(self):
        with pytest.raises(ValueError):
            StepControl(mode="rk4")
        with pytest.raises(ValueError):
            StepControl(cfl_number=0.0)
        with pytest.raises(ValueError):
            StepControl(dt_max=-1.0)


class TestRun:
    def test_t_end_equals_start(self):
        g = Grid(16)
        state = SolverState(single_mode(g), 0.0, 1.0)
        seen = []
        out = run(state, StepControl(mode="fixed"), 0.0,
                  hook=seen.append, sample_every=0.1)
        assert out is state
        assert len(seen) == 1

    def test_linear_decay_to_time_one(self):
        g = Grid(32)
        state = SolverState(single_mode(g), 0.0, 0.0)
        ctrl = StepControl(mode="fixed", dt_max=0.01)
        out = run(state, ctrl, 1.0)
        exact = math.exp(-1.0) * np.sin(g.x1)
        assert out.t == 1.0
        assert np.abs(out.theta.values - exact).max() < 1e-10

    def test_composability(self):
        g = Grid(32)
        theta0 = random_smooth(g, seed=7, k_max=8, target_linf=0.5)
        ctrl = StepControl(mode="fixed", dt_max=0.05)
        direct = run(SolverState(theta0, 0.0, 1.0), ctrl, 0.8)
        half = run(SolverState(theta0, 0.0, 1.0), ctrl, 0.4)
        stitched = run(half, ctrl, 0.8)
        assert np.abs(direct.theta.values - stitched.theta.values).max() < 1e-12

    def test_sample_cadence(self):
        g = Grid(16)
        state = SolverState(single_mode(g), 0.0, 0.0)
        ctrl = StepControl(mode="fixed", dt_max=0.03)
        times = []
        run(state, ctrl, 0.5, hook=lambda s: times.append(s.t), sample_every=0.1)
        assert times == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4, 0.5])

    def test_final_partial_step_lands_exactly(self):
        g = Grid(16)
        state = SolverState(single_mode(g), 0.0, 0.0)
        ctrl = StepControl(mode="fixed", dt_max=0.07)
        out = run(state, ctrl, 0.25)
        assert out.t == 0.25

    def test_mean_conserved(self):
        g = Grid(32)
        theta0 = random_smooth(g, seed=3, k_max=8, target_linf=1.0)
        shifted = ScalarField(g, theta0.values + 0.7)
        state = run(SolverState(shifted, 0.0, 2.0),
                    StepControl(mode="cfl", cfl_number=0.5, dt_max=0.02), 0.5)
        assert abs(state.theta.mean() - 0.7) < 1e-12

    @pytest.mark.parametrize("amplitude,sign", [(0.0, 1), (2.0, 1), (2.0, -1)])
    def test_l2_monotone(self, amplitude, sign):
        # sign = -1 starts from -theta0, as a run of the opposite advection
        # convention does
        g = Grid(64)
        theta0 = random_smooth(g, seed=1, k_max=12, target_linf=1.0)
        norms = []
        run(SolverState(ScalarField(g, sign * theta0.values), 0.0, amplitude),
            StepControl(mode="cfl", cfl_number=0.5, dt_max=0.01),
            0.5, hook=lambda s: norms.append(l2_norm(s.theta)),
            sample_every=0.05)
        for prev, cur in zip(norms, norms[1:]):
            assert cur <= prev * (1 + 1e-8)

    def test_conjugate_symmetry_maintained(self):
        g = Grid(32)
        theta0 = random_smooth(g, seed=6, k_max=8, target_linf=1.0)
        out = run(SolverState(theta0, 0.0, 1.0),
                  StepControl(mode="cfl", cfl_number=0.5, dt_max=0.02), 0.3)
        scale = np.abs(out.theta.hat).max()
        assert conj_symmetry_error(out.theta.hat) < 1e-12 * max(scale, 1.0)

    def test_rejects_backwards_time(self):
        g = Grid(16)
        state = SolverState(single_mode(g), 1.0, 0.0)
        with pytest.raises(ValueError):
            run(state, StepControl(), 0.5)


class TestTendencyReuse:
    def test_one_tendency_per_state(self, monkeypatch):
        g = Grid(32)
        theta0 = random_smooth(g, seed=2, k_max=8, target_linf=1.0)
        evaluated, dts = [], []
        real = integrator.advect_with_speed

        def counted(theta):
            evaluated.append(theta)
            return real(theta)

        def hook(state):
            sample(state)
            dts.append(state.t)

        monkeypatch.setattr(integrator, "advect_with_speed", counted)
        monkeypatch.setattr(diagnostics, "advect", None)  # the budget must reuse it
        out = run(SolverState(theta0, 0.0, 1.0),
                  StepControl(mode="cfl", cfl_number=0.5, dt_max=0.05), 0.3,
                  hook=hook, sample_every=0.1)
        # every state stepped from, plus the final one the hook samples
        assert len(evaluated) == out.step_count + 1
        assert len({id(theta) for theta in evaluated}) == len(evaluated)
        assert dts == pytest.approx([0.0, 0.1, 0.2, 0.3])

    def test_cfl_uses_dealiased_speed(self, monkeypatch):
        # noise has content outside the 2/3 band, where the full velocity
        # is faster than the dealiased one the step advects with
        g = Grid(32)
        theta = ScalarField(g, np.random.default_rng(1).standard_normal((32, 32)))
        dts = []
        real = integrator.step
        monkeypatch.setattr(integrator, "step",
                            lambda state, dt: dts.append(dt) or real(state, dt))
        run(SolverState(theta, 0.0, 0.0), StepControl(mode="cfl", cfl_number=0.5, dt_max=1.0), 1.0)
        dealiased = max(c.linf() for c in velocity(dealias(theta)))
        full = max(c.linf() for c in velocity(theta))
        assert dts[0] == 0.5 * g.dx / dealiased
        assert dealiased < 0.9 * full

    def test_caller_state_keeps_no_tendency(self):
        g = Grid(32)
        state0 = SolverState(random_smooth(g, seed=2, k_max=8, target_linf=1.0), 0.0, 1.0)
        run(state0, StepControl(mode="cfl", cfl_number=0.5, dt_max=0.05), 0.2,
            hook=lambda state: sample(state), sample_every=0.1)
        assert "tendency" not in vars(state0)

    def test_replace_drops_tendency(self):
        g = Grid(16)
        state = SolverState(single_mode(g), 0.0, 1.0)
        field, _ = state.tendency
        assert state.tendency[0] is field
        other = replace(state, theta=ScalarField(g, np.cos(g.x2)))
        assert other.tendency[0] is not field
        assert state == replace(state, t=0.0)


class TestBlowUpGuard:
    def translating_mode(self):
        # sin(x + pi/16) peaks midway between grid points; dispersion at
        # A = 100 moves the peak onto one, so the grid sup norm rises
        g = Grid(16)
        theta0 = ScalarField(g, np.sin(g.x1 + np.pi / 16))
        return SolverState(theta0, 0.0, 100.0), StepControl(mode="fixed", dt_max=1e-4)

    def blow_up(self):
        state, ctrl = self.translating_mode()
        try:
            run(state, ctrl, 0.01)
        except BlowUpError as err:
            return err.t, err.step_count
        return None

    @pytest.mark.parametrize("factor", [0.5, 1.0, 1.005, 1.01, 1.019, 1.02, 1.1])
    def test_same_step_as_exact_guard(self, monkeypatch, factor):
        monkeypatch.setattr(integrator, "_BLOWUP_FACTOR", factor)
        screened = self.blow_up()
        monkeypatch.setattr(ScalarField, "linf_bound", lambda self: math.inf)
        assert screened == self.blow_up()
        if 1.0 < factor < 1.015:
            assert screened[1] > 1

    def test_trips_where_sup_norm_first_exceeds_limit(self, monkeypatch):
        monkeypatch.setattr(integrator, "_BLOWUP_FACTOR", 1.005)
        state, ctrl = self.translating_mode()
        limit = 1.005 * state.theta.linf()
        while state.theta.linf() <= limit:
            state = step(state, 1e-4)
        t, step_count = self.blow_up()
        assert step_count == state.step_count
        assert t == pytest.approx(state.t, abs=1e-15)

    def test_healthy_run_never_computes_sup_norm(self, monkeypatch):
        g = Grid(32)
        state = SolverState(random_smooth(g, seed=3, k_max=8, target_linf=1.0), 0.0, 1.0)
        calls = []
        real = ScalarField.linf
        monkeypatch.setattr(ScalarField, "linf", lambda self: calls.append(1) or real(self))
        out = run(state, StepControl(mode="cfl", cfl_number=0.5, dt_max=0.02), 0.2)
        assert out.step_count >= 10
        assert len(calls) == 1  # the initial sup norm only


class TestSelfConvergence:
    def test_second_order(self):
        g = Grid(64)
        theta0 = random_smooth(g, seed=2, k_max=10, target_linf=1.0)
        t_end = 0.2
        results = {}
        for dt in (4e-3, 2e-3, 1e-3):
            ctrl = StepControl(mode="fixed", dt_max=dt)
            results[dt] = run(SolverState(theta0, 0.0, 1.0), ctrl, t_end).theta.values
        err_coarse = np.abs(results[4e-3] - results[2e-3]).max()
        err_fine = np.abs(results[2e-3] - results[1e-3]).max()
        order = math.log2(err_coarse / err_fine)
        assert 1.7 <= order <= 2.3
