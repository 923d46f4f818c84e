"""Time-integrator tests: linear exactness, second-order self-convergence,
CFL selection, run orchestration, and conservation properties."""

import math

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
)
from sqgd.initial import random_smooth, single_mode
from sqgd.integrator import _step_weights

from helpers import conj_symmetry_error, etdrk2_step_oracle, linear_symbol


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
        ctrl = StepControl(mode="fixed", dt_fixed=0.03, dt_max=1.0)
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
            run(self.state(16, 1.0), StepControl(mode="fixed", dt_fixed=0.03, dt_max=1.0),
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
        state = self.state(16, A, seed=9)
        got = step(state, dt, sign).theta.values
        want = ScalarField.from_hat(state.theta.grid,
                                    etdrk2_step_oracle(state.theta, A, dt, sign)).values
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
    def make_u(self, g, amp):
        u = ScalarField(g, np.full((g.n, g.n), amp))
        z = ScalarField(g, np.zeros((g.n, g.n)))
        return u, z

    def test_quiescent_hits_cap(self):
        g = Grid(16)
        ctrl = StepControl(mode="cfl", cfl_number=0.5, dt_max=1.0)
        assert cfl_dt(self.make_u(g, 0.0), g, ctrl) == 1.0

    def test_arithmetic(self):
        g = Grid(256)
        ctrl = StepControl(mode="cfl", cfl_number=0.5, dt_max=1.0)
        dt = cfl_dt(self.make_u(g, 2.0), g, ctrl)
        assert dt == pytest.approx(0.5 * (2 * np.pi / 256) / 2.0, rel=1e-12)
        assert dt == pytest.approx(6.136e-3, rel=1e-3)

    def test_doubling_speed_halves_dt(self):
        g = Grid(64)
        ctrl = StepControl(mode="cfl", cfl_number=0.5, dt_max=10.0)
        dt1 = cfl_dt(self.make_u(g, 1.0), g, ctrl)
        dt2 = cfl_dt(self.make_u(g, 2.0), g, ctrl)
        assert dt1 == pytest.approx(2 * dt2, rel=1e-12)

    def test_requires_cfl_mode(self):
        g = Grid(16)
        with pytest.raises(ValueError):
            cfl_dt(self.make_u(g, 1.0), g, StepControl(mode="fixed"))

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
        out = run(state, StepControl(mode="fixed", dt_fixed=0.1), 0.0,
                  hook=seen.append, sample_every=0.1)
        assert out is state
        assert len(seen) == 1

    def test_linear_decay_to_time_one(self):
        g = Grid(32)
        state = SolverState(single_mode(g), 0.0, 0.0)
        ctrl = StepControl(mode="fixed", dt_fixed=0.01, dt_max=1.0)
        out = run(state, ctrl, 1.0)
        exact = math.exp(-1.0) * np.sin(g.x1)
        assert out.t == 1.0
        assert np.abs(out.theta.values - exact).max() < 1e-10

    def test_composability(self):
        g = Grid(32)
        theta0 = random_smooth(g, seed=7, k_max=8, target_linf=0.5)
        ctrl = StepControl(mode="fixed", dt_fixed=0.05, dt_max=1.0)
        direct = run(SolverState(theta0, 0.0, 1.0), ctrl, 0.8)
        half = run(SolverState(theta0, 0.0, 1.0), ctrl, 0.4)
        stitched = run(half, ctrl, 0.8)
        assert np.abs(direct.theta.values - stitched.theta.values).max() < 1e-12

    def test_sample_cadence(self):
        g = Grid(16)
        state = SolverState(single_mode(g), 0.0, 0.0)
        ctrl = StepControl(mode="fixed", dt_fixed=0.03, dt_max=1.0)
        times = []
        run(state, ctrl, 0.5, hook=lambda s: times.append(s.t), sample_every=0.1)
        assert times == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4, 0.5])

    def test_final_partial_step_lands_exactly(self):
        g = Grid(16)
        state = SolverState(single_mode(g), 0.0, 0.0)
        ctrl = StepControl(mode="fixed", dt_fixed=0.07, dt_max=1.0)
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
        g = Grid(64)
        theta0 = random_smooth(g, seed=1, k_max=12, target_linf=1.0)
        norms = []
        run(SolverState(theta0, 0.0, amplitude),
            StepControl(mode="cfl", cfl_number=0.5, dt_max=0.01),
            0.5, hook=lambda s: norms.append(l2_norm(s.theta)),
            sample_every=0.05, advection_sign=sign)
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


class TestSelfConvergence:
    def test_second_order(self):
        g = Grid(64)
        theta0 = random_smooth(g, seed=2, k_max=10, target_linf=1.0)
        t_end = 0.2
        results = {}
        for dt in (4e-3, 2e-3, 1e-3):
            ctrl = StepControl(mode="fixed", dt_fixed=dt, dt_max=1.0)
            results[dt] = run(SolverState(theta0, 0.0, 1.0), ctrl, t_end).theta.values
        err_coarse = np.abs(results[4e-3] - results[2e-3]).max()
        err_fine = np.abs(results[2e-3] - results[1e-3]).max()
        order = math.log2(err_coarse / err_fine)
        assert 1.7 <= order <= 2.3
