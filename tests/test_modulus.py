"""Modulus family, velocity modulus, certificates, and breakthrough audits,
checked against closed forms and independent quadrature/per-pair oracles."""

import inspect
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from sqgd import (
    Grid,
    ScalarField,
    ModulusParams,
    audit_breakthrough,
    breakthrough_b,
    calibrate_c_omega,
    check_modulus,
    minimal_b,
    modulus_inverse,
    modulus_slope,
    riesz_transform,
    scaled_modulus,
    scaled_modulus_slope,
    velocity_modulus,
)
import sqgd.modulus as MODULUS
from sqgd.initial import random_smooth
from sqgd.modulus import modulus

from helpers import (
    certificate_reference,
    class_scan_reference,
    class_table_oracle,
    minimal_b_per_pair_oracle,
    omega_inverse_oracle,
    omega_oracle,
    velocity_modulus_mp_oracle,
    velocity_modulus_oracle,
    worst_pair_reference,
)

P = ModulusParams()  # gamma=0.01, delta=0.02
WIDE = ModulusParams(gamma=0.05, delta=0.4)  # the largest admissible delta
AT_DELTA = P.delta - P.delta**1.5  # omega(delta), where the branches meet


class TestParams:
    def test_defaults_valid(self):
        assert 0 < P.gamma < P.delta <= 0.4

    @pytest.mark.parametrize("kwargs", [
        dict(gamma=0.02, delta=0.02),          # gamma == delta
        dict(gamma=0.03, delta=0.02),          # gamma > delta
        dict(gamma=-0.01, delta=0.02),         # negative
        dict(gamma=0.01, delta=0.5),           # delta too large
        dict(gamma=0.38, delta=0.39),          # derivative jump violated
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ModulusParams(**kwargs)


class TestModulus:
    def test_package_name_is_the_submodule(self):
        # the package does not re-export the function modulus over its module
        assert inspect.ismodule(MODULUS)

    def test_value_at_delta(self):
        assert modulus(P.delta, P) == pytest.approx(P.delta - P.delta**1.5, abs=1e-16)

    def test_value_at_zero(self):
        assert modulus(0.0, P) == 0.0

    def test_log_branch_closed_form(self):
        # integral of the outer slope from delta to delta*e^4 is gamma*log(2)
        expected = (P.delta - P.delta**1.5) + P.gamma * math.log(2.0)
        assert modulus(P.delta * math.e**4, P) == pytest.approx(expected, abs=1e-12)

    def test_continuous_at_branch_point(self):
        eps = 1e-12
        below = modulus(P.delta - eps, P)
        above = modulus(P.delta + eps, P)
        assert abs(below - above) < 1e-11

    def test_strictly_increasing(self):
        xs = np.logspace(-6, 2, 400)
        vals = modulus(xs, P)
        assert np.all(np.diff(vals) > 0)

    def test_concave_chords(self):
        xs = np.sort(np.concatenate([np.logspace(-5, 1, 200), [P.delta]]))
        vals = modulus(xs, P)
        slopes = np.diff(vals) / np.diff(xs)
        assert np.all(np.diff(slopes) < 1e-13)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            modulus(-0.1, P)
        with pytest.raises(ValueError):
            modulus(np.array([0.1, -0.2]), P)


class TestModulusSlope:
    def test_at_zero(self):
        assert modulus_slope(0.0, P) == 1.0

    def test_left_derivative_at_delta(self):
        assert modulus_slope(P.delta, P) == pytest.approx(1 - 1.5 * math.sqrt(P.delta), abs=1e-15)

    def test_outer_branch_value(self):
        # at xi = delta*e the denominator log term is exactly 1
        xi = P.delta * math.e
        assert modulus_slope(xi, P) == pytest.approx(P.gamma / (5 * xi), rel=1e-12)

    def test_positive_and_nonincreasing(self):
        xs = np.sort(np.concatenate([np.logspace(-6, 2, 300), [P.delta]]))
        vals = modulus_slope(xs, P)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) <= 0)

    def test_jump_down_at_delta(self):
        left = modulus_slope(P.delta, P)
        right = modulus_slope(P.delta * (1 + 1e-12), P)
        assert right < left

    def test_matches_finite_differences(self):
        for xi in (0.004, 0.015, 0.05, 1.3):
            h = 1e-7 * xi
            fd = (modulus(xi + h, P) - modulus(xi - h, P)) / (2 * h)
            assert modulus_slope(xi, P) == pytest.approx(fd, rel=1e-6)


class TestModulusInverse:
    def test_zero(self):
        assert modulus_inverse(0.0, P) == 0.0

    @pytest.mark.parametrize("xi", [P.delta / 2, P.delta, 10 * P.delta])
    def test_round_trip(self, xi):
        assert modulus_inverse(modulus(xi, P), P) == pytest.approx(xi, rel=1e-10)

    def test_value_at_branch(self):
        assert modulus_inverse(P.delta - P.delta**1.5, P) == pytest.approx(P.delta, rel=1e-10)

    def test_monotone(self):
        vs = np.linspace(1e-4, 0.05, 40)
        xs = [modulus_inverse(v, P) for v in vs]
        assert np.all(np.diff(xs) > 0)

    def test_overflow_returns_inf(self):
        # the log-log branch cannot represent omega^{-1}(1) in float64
        assert math.isinf(modulus_inverse(1.0, P))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            modulus_inverse(-1e-3, P)

    def test_array_matches_scalar(self):
        vs = np.linspace(0.0, 0.06, 97)
        assert np.array_equal(modulus_inverse(vs, P),
                              [modulus_inverse(float(v), P) for v in vs])

    @pytest.mark.parametrize("lo,hi", [
        (0.0, AT_DELTA),              # inner branch
        (AT_DELTA, 0.065),            # outer branch, inverse below float64 max
    ])
    @given(data=st.data())
    def test_round_trip_and_monotone(self, lo, hi, data):
        values = st.floats(min_value=lo, max_value=hi)
        v1, v2 = sorted([data.draw(values), data.draw(values)])
        x1, x2 = modulus_inverse(v1, P), modulus_inverse(v2, P)
        assert math.isfinite(x2)
        assert x1 <= x2
        assert modulus(x1, P) == pytest.approx(v1, rel=1e-14, abs=0.0)


class TestScaledModulus:
    def test_scale_one_is_identity(self):
        xs = np.linspace(0, 0.3, 50)
        assert np.allclose(scaled_modulus(xs, 1.0, P), modulus(xs, P), atol=0)

    def test_scale_zero_is_zero(self):
        assert scaled_modulus(0.7, 0.0, P) == 0.0
        assert np.all(scaled_modulus(np.linspace(0, 2, 9), 0.0, P) == 0.0)
        # the general path gives +0.0 bit for bit, for arrays and for the slope
        xs = np.linspace(0, 2, 12).reshape(3, 4)
        for f in (scaled_modulus, scaled_modulus_slope):
            out = f(xs, 0.0, P)
            assert out.shape == xs.shape
            assert np.all(out == 0.0) and not np.signbit(out).any()
            assert type(f(0.7, 0.0, P)) is float and f(0.7, 0.0, P) == 0.0

    def test_scale_two_at_half_delta(self):
        assert scaled_modulus(P.delta / 2, 2.0, P) == pytest.approx(
            P.delta - P.delta**1.5, abs=1e-16)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            scaled_modulus(0.1, -1.0, P)

    def test_slope_chain_rule(self):
        for b, xi in [(2.0, 0.005), (0.5, 0.1), (3.0, 0.4)]:
            assert scaled_modulus_slope(xi, b, P) == pytest.approx(
                b * modulus_slope(b * xi, P), rel=1e-14)


class TestVelocityModulus:
    def test_zero(self):
        assert velocity_modulus(0.0, P) == 0.0

    @pytest.mark.parametrize("xi", [P.delta / 2, P.delta, 5 * P.delta])
    def test_against_simpson_oracle(self, xi):
        lo, hi = velocity_modulus_oracle(xi, P, panels=400_000)
        val = velocity_modulus(xi, P)
        assert lo - 1e-7 <= val <= hi + 1e-7

    @pytest.mark.parametrize("b,xi", [
        (2.0, P.delta), (5.0, P.delta / 3), (0.5, 0.1),
        (10.0, 0.3), (1.0, 1.0), (3.0, 0.05),
    ])
    def test_scaling_identity_dual_path(self, b, xi):
        # direct evaluation of the induced-modulus integrals with the
        # rescaled modulus, against the scaling shortcut Omega(b*xi)
        points = [P.delta / b] if P.delta / b < xi else None
        near = quad(lambda e: scaled_modulus(e, b, P) / e, 0.0, xi,
                    epsabs=1e-11, epsrel=1e-11, limit=500, points=points)[0]
        far = xi * quad(lambda e: scaled_modulus(e, b, P) / e**2, xi, np.inf,
                        epsabs=1e-12, epsrel=1e-11, limit=500)[0]
        direct = near + far
        assert velocity_modulus(b * xi, P) == pytest.approx(direct, abs=1e-8)

    @pytest.mark.parametrize("params", [
        P, ModulusParams(gamma=0.05, delta=0.2), ModulusParams(gamma=0.002, delta=0.3),
    ], ids=["default", "wide", "flat"])
    def test_against_mpmath(self, params):
        d = params.delta
        for xi in [1e-6, 1e-4, 3e-3, d / 2, d, 1.001 * d, 0.7, 3.0, 50.0]:
            assert velocity_modulus(xi, params) == pytest.approx(
                velocity_modulus_mp_oracle(xi, params), rel=1e-14, abs=0.0)

    def test_array_input(self):
        xi = np.array([[0.0, 1e-6, 0.3 * P.delta], [P.delta, 0.1, 40.0]])
        out = velocity_modulus(xi, P)
        assert out.shape == xi.shape
        assert out[0, 0] == 0.0
        assert np.array_equal(out, [[velocity_modulus(float(x), P) for x in row] for row in xi])
        with pytest.raises(ValueError):
            velocity_modulus(np.array([0.1, -1e-9, 0.2]), P)

    def test_c_omega_scales_linearly(self):
        # the audit, not the C = 1 modulus, carries the constant
        theta = random_smooth(Grid(16), seed=0, k_max=4, target_linf=0.01)
        b = minimal_b(theta, P).b_min * 1.001
        doubled = audit_breakthrough(theta, b, 2.0, P, c_omega=2.0)
        assert doubled.disp_bound == pytest.approx(
            2 * audit_breakthrough(theta, b, 2.0, P, c_omega=1.0).disp_bound, rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            velocity_modulus(-0.5, P)


class TestCheckModulus:
    def test_constant_field_passes_at_zero(self):
        g = Grid(16)
        theta = ScalarField(g, np.full((16, 16), 2.5))
        ok, worst = check_modulus(theta, 0.0, P)
        assert ok
        assert worst.jump == 0.0

    def test_small_sine_passes(self):
        g = Grid(32)
        theta = ScalarField(g, 1e-3 * np.sin(g.x1))
        ok, _ = check_modulus(theta, 1.0, P)
        assert ok

    def test_large_sine_fails(self):
        # oscillation 20 exceeds omega(pi) which is below 1 for these params
        g = Grid(32)
        theta = ScalarField(g, 10.0 * np.sin(g.x1))
        assert modulus(math.pi, P) < 1.0
        ok, worst = check_modulus(theta, 1.0, P)
        assert not ok
        assert worst.slack < 0

    def test_monotone_in_scale(self):
        g = Grid(32)
        theta = random_smooth(g, seed=0, k_max=8, target_linf=0.01)
        cert = minimal_b(theta, P)
        for factor in (1.01, 2.0, 10.0):
            ok, _ = check_modulus(theta, cert.b_min * factor, P)
            assert ok

    def test_witness_consistency(self):
        g = Grid(32)
        theta = random_smooth(g, seed=1, k_max=8, target_linf=0.01)
        ok, worst = check_modulus(theta, 0.5, P)
        jump = abs(theta.values[worst.y] - theta.values[worst.z])
        assert jump == pytest.approx(worst.jump, abs=1e-15)
        assert worst.slack == pytest.approx(
            scaled_modulus(worst.xi, 0.5, P) - worst.jump, abs=1e-15)

    def test_negative_scale_rejected(self):
        g = Grid(16)
        theta = ScalarField(g, np.zeros((16, 16)))
        with pytest.raises(ValueError):
            check_modulus(theta, -1.0, P)

    @pytest.mark.parametrize("b", [math.inf, math.nan])
    def test_nonfinite_scale_rejected(self, b):
        g = Grid(16)
        theta = ScalarField(g, np.zeros((16, 16)))
        with pytest.raises(ValueError):
            check_modulus(theta, b, P)


class TestExactCertificate:
    """The pruned class scan against the class-table oracle, which rolls
    the field through all n^2 classes and inverts omega by bisection."""

    @pytest.mark.parametrize("n", [96, 128])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_minimal_b_equals_class_table(self, n, seed):
        theta = random_smooth(Grid(n), seed=seed, k_max=8, target_linf=0.012)
        sep, jump = class_table_oracle(theta)
        assert jump.max() > AT_DELTA  # the distant classes invert on the outer branch
        expected = float((omega_inverse_oracle(jump, P) / sep).max())
        assert minimal_b(theta, P).b_min == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [96, 128])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_check_passes_at_b_min_only(self, n, seed):
        theta = random_smooth(Grid(n), seed=seed, k_max=8, target_linf=0.012)
        cert = minimal_b(theta, P)
        assert check_modulus(theta, cert.b_min, P)[0]
        assert not check_modulus(theta, cert.b_min * (1 - 1e-9), P)[0]

    @pytest.mark.parametrize("factor", [0.5, 1.001])
    def test_audit_worst_slack_equals_class_table(self, factor):
        theta = random_smooth(Grid(96), seed=3, k_max=8, target_linf=0.012)
        b = minimal_b(theta, P).b_min * factor
        sep, jump = class_table_oracle(theta)
        expected = float((omega_oracle(b * sep, P) - jump).min())
        rep = audit_breakthrough(theta, b, 2.0, P)
        assert -rep.lhs_breakthrough == pytest.approx(expected, rel=1e-12, abs=1e-16)


def _scan_field(g: Grid, kind: str, scale: float, seed: int) -> ScalarField:
    """A field of the given kind. ``rounding`` is a trapezoid ramp whose
    increments are exact except at one corner, where J(1,0) and J(0,1)
    round down and J(1,1) up, so their rounded sum falls an ulp short."""
    n = g.n
    if kind == "rounding":
        f = np.minimum(np.arange(n), n - 1 - np.arange(n)).astype(float)
        vals = 0.5 * f[:, None] + f[None, :] - 0.5
        vals[0, 0], vals[1, 0], vals[0, 1] = -0.5 - 2.0**-52, -5 * 2.0**-56, 0.5 - 2.0**-53
        return ScalarField(g, vals)
    amp = scale * {"smooth": 0.008, "noise": 0.003, "overflow": 0.1}[kind]
    if kind == "noise":
        return ScalarField(g, amp * np.random.default_rng(seed).standard_normal((n, n)))
    return random_smooth(g, seed=seed, k_max=min(8, n // 3), target_linf=amp)


class TestPrunedScan:
    """The pruned class scan against an every-class reference scan by
    np.roll, bit for bit, at the default block size and at one class per
    block (where every class reads the bounds of its predecessors)."""

    @settings(max_examples=25, deadline=None)
    @given(n=st.sampled_from([16, 32, 96]),
           kind=st.sampled_from(["smooth", "noise", "overflow", "rounding"]),
           wide=st.booleans(), one_per_block=st.booleans(),
           factor=st.sampled_from([0.5, 1.001]), seed=st.integers(0, 2**32 - 1))
    @example(n=16, kind="rounding", wide=False, one_per_block=True, factor=1.001, seed=0)
    @example(n=96, kind="noise", wide=False, one_per_block=False, factor=1.001, seed=0)
    @example(n=96, kind="smooth", wide=True, one_per_block=False, factor=0.5, seed=0)
    def test_matches_every_class_scan(self, n, kind, wide, one_per_block, factor, seed):
        p = WIDE if wide else P
        g = Grid(n)
        theta = _scan_field(g, kind, 25.0 if wide else 1.0, seed)
        scan = class_scan_reference(theta)
        block = n * n if one_per_block else MODULUS._BLOCK_ELEMENTS
        with mock.patch.object(MODULUS, "_BLOCK_ELEMENTS", block):
            cert = minimal_b(theta, p)
            b = cert.b_min * factor if math.isfinite(cert.b_min) else 40.0
            ok, worst = check_modulus(theta, b, p)
            rep = audit_breakthrough(theta, b, 2.0, p)
            # every bound is rigorous when only the axis unit classes are computed
            blocks = MODULUS._class_blocks(theta, lambda xi, upper: xi <= g.dx)
            bounds = np.concatenate([jump for *_, jump in blocks])
        assert cert == certificate_reference(theta, p, scan)
        assert worst == worst_pair_reference(theta, b, p, scan)
        assert ok == (worst.slack >= -1e-12)
        u2 = riesz_transform(theta, 1).values
        assert (rep.xi, rep.lhs_breakthrough) == (worst.xi, -worst.slack)
        assert rep.disp_measured == 2.0 * abs(float(u2[worst.y]) - float(u2[worst.z]))
        assert np.all(bounds >= scan[3])


class TestMinimalB:
    def test_constant_field(self):
        g = Grid(16)
        theta = ScalarField(g, np.full((16, 16), -3.0))
        cert = minimal_b(theta, P)
        assert cert.b_min == 0.0
        assert cert.witness is None

    def test_amplitude_monotonicity(self):
        g = Grid(32)
        theta = random_smooth(g, seed=2, k_max=8, target_linf=0.005)
        doubled = ScalarField(g, 2.0 * theta.values)
        assert minimal_b(doubled, P).b_min >= minimal_b(theta, P).b_min

    @pytest.mark.parametrize("eps", [1e-3, 1e-2])
    def test_against_per_pair_oracle(self, eps):
        g = Grid(32)
        theta = ScalarField(g, eps * np.sin(g.x1))
        cert = minimal_b(theta, P)
        oracle = minimal_b_per_pair_oracle(theta, P)
        assert cert.b_min == pytest.approx(oracle, rel=1e-5)

    def test_boundary_property(self):
        g = Grid(32)
        theta = random_smooth(g, seed=5, k_max=8, target_linf=0.01)
        b = minimal_b(theta, P).b_min
        ok_below, _ = check_modulus(theta, b * (1 - 1e-3), P)
        ok_above, _ = check_modulus(theta, b * (1 + 1e-3), P)
        assert not ok_below
        assert ok_above

    def test_witness_near_saturation(self):
        g = Grid(32)
        theta = random_smooth(g, seed=6, k_max=8, target_linf=0.01)
        cert = minimal_b(theta, P)
        assert cert.witness.slack >= -1e-12
        sat = cert.witness.jump / scaled_modulus(cert.witness.xi, cert.b_min, P)
        assert sat > 0.999

    def test_gradient_link(self):
        # small-separation behavior of the scaled modulus is b*xi, so the
        # sup of |grad theta| cannot exceed b_min by more than O(dx)
        g = Grid(48)
        theta = random_smooth(g, seed=7, k_max=8, target_linf=0.01)
        from sqgd import gradient
        d1, d2 = gradient(theta)
        max_grad = float(np.hypot(d1.values, d2.values).max())
        b = minimal_b(theta, P).b_min
        assert max_grad <= b * (1 + 10 * g.dx)

    def test_unrepresentable_oscillation_gives_inf(self):
        # oscillation 0.2 needs omega(b*xi) = 0.2, beyond float64 range of
        # the log-log branch at these parameters
        g = Grid(16)
        theta = ScalarField(g, 0.1 * np.sin(g.x1))
        assert math.isinf(minimal_b(theta, P).b_min)

    # omega is concave with omega(0) = 0, so omega^{-1} is convex through 0
    # and omega^{-1}(c*J) >= c*omega^{-1}(J) for c >= 1: b_min grows at
    # least linearly under theta -> c*theta. Negation is exact and every
    # jump is an absolute value, so c = -1 leaves b_min unchanged.
    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from([8, 12, 16, 24, 32]), seed=st.integers(0, 2**32 - 1),
           c=st.floats(min_value=1.0, max_value=4.0))
    def test_scaling_of_field(self, n, seed, c):
        g = Grid(n)
        theta = random_smooth(g, seed=seed, k_max=n // 4, target_linf=0.008)
        b = minimal_b(theta, P).b_min
        assert minimal_b(ScalarField(g, -theta.values), P).b_min == b
        assert minimal_b(ScalarField(g, c * theta.values), P).b_min >= c * b * (1 - 1e-12)


class TestBreakthroughB:
    def test_zero_amplitude(self):
        assert breakthrough_b(0.0, 1.0, P) == 0.0

    def test_first_branch_composition(self):
        # 2D below omega(delta) stays on the polynomial branch
        d_bound = 0.004
        assert 2 * d_bound < P.delta - P.delta**1.5
        xi = modulus_inverse(2 * d_bound, P)
        expected = 3.0 / (1 - 1.5 * math.sqrt(xi))
        assert breakthrough_b(3.0, d_bound, P) == pytest.approx(expected, rel=1e-10)

    def test_monotone_in_bound(self):
        values = [breakthrough_b(1.0, d, P) for d in (0.002, 0.004, 0.008, 0.02)]
        assert all(b2 >= b1 for b1, b2 in zip(values, values[1:]))

    def test_overflow_bound_gives_inf(self):
        assert math.isinf(breakthrough_b(1.0, 10.0, P))

    def test_validation(self):
        with pytest.raises(ValueError):
            breakthrough_b(-1.0, 1.0, P)
        with pytest.raises(ValueError):
            breakthrough_b(1.0, 0.0, P)


class TestAuditBreakthrough:
    def test_constant_field_zero_report(self):
        g = Grid(16)
        theta = ScalarField(g, np.full((16, 16), 4.0))
        rep = audit_breakthrough(theta, 0.0, 2.0, P)
        assert rep.lhs_breakthrough == 0.0
        assert rep.derivative_bound == 0.0
        assert rep.disp_measured == 0.0
        assert rep.disp_bound == 0.0
        assert rep.disp_ratio == 0.0

    def test_sign_at_breakthrough_scale(self):
        # with the scale above both the certificate and the threshold, the
        # breakthrough derivative bound is strictly negative
        g = Grid(32)
        for seed in (5, 6, 7):
            theta = random_smooth(g, seed=seed, k_max=6, target_linf=0.005)
            cert = minimal_b(theta, P)
            amplitude = 0.5 * cert.b_min
            threshold = breakthrough_b(amplitude, theta.linf(), P)
            b = max(cert.b_min * (1 + 1e-3), threshold * 1.05)
            rep = audit_breakthrough(theta, b, amplitude, P)
            assert rep.derivative_bound < 0
            assert rep.saturation > 0.99

    def test_dispersive_increment_at_witness(self):
        g = Grid(32)
        theta = random_smooth(g, seed=8, k_max=8, target_linf=0.01)
        cert = minimal_b(theta, P)
        b = cert.b_min * 1.001
        rep = audit_breakthrough(theta, b, 2.0, P)
        u2 = riesz_transform(theta, 1).values
        w = cert.witness
        measured = 2.0 * abs(u2[w.y] - u2[w.z])
        assert rep.disp_measured == pytest.approx(measured, rel=1e-9)
        assert rep.disp_bound == pytest.approx(
            2.0 * velocity_modulus(b * rep.xi, P), rel=1e-9)

    def test_negative_scale_rejected(self):
        g = Grid(16)
        theta = ScalarField(g, np.zeros((16, 16)))
        with pytest.raises(ValueError):
            audit_breakthrough(theta, -0.5, 1.0, P)

    def test_sign_of_amplitude_does_not_matter(self):
        # the dispersive increment and its bounds are nonnegative: |A| enters
        theta = random_smooth(Grid(32), seed=8, k_max=8, target_linf=0.01)
        b = minimal_b(theta, P).b_min * 1.001
        plus = audit_breakthrough(theta, b, 2.0, P)
        assert audit_breakthrough(theta, b, -2.0, P) == plus
        assert plus.disp_measured > 0 and plus.disp_bound > 0

    @pytest.mark.parametrize("a", [math.nan, math.inf])
    def test_nonfinite_amplitude_rejected(self, a):
        theta = random_smooth(Grid(16), seed=0, k_max=4, target_linf=0.01)
        with pytest.raises(ValueError):
            audit_breakthrough(theta, 5.0, a, P)

    @pytest.mark.parametrize("c_omega", [0.0, -1.0, math.inf, math.nan])
    def test_invalid_c_omega_rejected(self, c_omega):
        theta = random_smooth(Grid(16), seed=0, k_max=4, target_linf=0.01)
        with pytest.raises(ValueError, match="c_omega"):
            audit_breakthrough(theta, 5.0, 1.0, P, c_omega=c_omega)


class TestCalibration:
    def test_corpus_bounds_fresh_seeds(self):
        g = Grid(32)
        corpus = [random_smooth(g, seed=s, k_max=8, target_linf=0.01)
                  for s in range(8)]
        c_cal = calibrate_c_omega(corpus, P)
        assert c_cal > 0
        for seed in (8, 9, 10):
            fresh = random_smooth(g, seed=seed, k_max=8, target_linf=0.01)
            # all-pairs ratio of the fresh field, same estimator as the corpus
            ratio = calibrate_c_omega([fresh], P)
            assert ratio <= 1.05 * c_cal
            # the audit's witness ratio is bounded by the all-pairs ratio
            cert = minimal_b(fresh, P)
            rep = audit_breakthrough(fresh, cert.b_min * 1.001, 2.0, P, c_cal)
            assert rep.disp_ratio <= 1.0

    def test_corpus_value_pinned(self):
        # calibration needs every class of the velocity field: a scan that
        # pruned any would move this value
        g = Grid(32)
        corpus = [random_smooth(g, seed=s, k_max=8, target_linf=0.01) for s in range(8)]
        assert calibrate_c_omega(corpus, P) == float.fromhex("0x1.22c40c54e21dcp-2")
