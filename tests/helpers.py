"""Shared test oracles, deliberately independent of the library's
computational paths: the advection oracle convolves coefficients with
explicit loops instead of FFT products, the velocity-modulus oracles are
a fixed-step Simpson rule with an analytic tail bracket and a 30-digit
mpmath quadrature of the defining integrals instead of the closed form,
the class-table oracle rolls the field through every displacement class
and inverts omega by its own bisection, the every-class reference scan
rolls the field through every class and keeps no bound (it shares only
omega and its inverse with the library, so that results compare bit for
bit), and the linear symbol and the
ETDRK2 weights are evaluated one wavevector at a time with the scalar
math library. The divergence, 2/3 truncation and rectangle-rule
integral are the plain multiplier and sum forms."""

from __future__ import annotations

import cmath
import math
from dataclasses import replace

import mpmath
import numpy as np

from sqgd import Grid, ScalarField, advect
from sqgd.modulus import (
    ModulusCertificate,
    ModulusParams,
    PairWitness,
    modulus,
    modulus_inverse,
    scaled_modulus,
)


def conj_symmetry_error(hat: np.ndarray) -> float:
    """Max deviation from c(-k) == conj(c(k)) on an rfft2 half-spectrum.

    Of its columns only k2 = 0 and k2 = n/2 hold both k and -k; a real
    field needs each of them conjugate-symmetric under k1 -> -k1.
    """
    n = hat.shape[0]
    idx = (-np.arange(n)) % n
    cols = hat[:, [0, n // 2]]
    return float(np.abs(cols - np.conj(cols[idx])).max())


def divergence(u: tuple[ScalarField, ScalarField]) -> ScalarField:
    """Spectral divergence d_1 u1 + d_2 u2."""
    u1, u2 = u
    g = u1.grid
    return ScalarField.from_hat(g, g.ik1 * u1.hat + g.ik2 * u2.hat)


def dealias(f: ScalarField) -> ScalarField:
    """Zero every coefficient with max(|k1|, |k2|) > n/3 (2/3-rule cutoff)."""
    return ScalarField.from_hat(f.grid, f.hat * f.grid.dealias_mask)


def integrate(f: ScalarField) -> float:
    """Rectangle-rule integral over one period cell (spectrally accurate)."""
    return float(f.values.sum() * f.grid.cell_area)


def linear_symbol(k: tuple[int, int], A: float) -> complex:
    """Linear symbol L(k) = -|k| + i*A*k1/|k|, with L(0) = 0, at one
    wavevector (oracle for ``linear_symbol_grid``)."""
    k1, k2 = k
    mag = math.hypot(k1, k2)
    if mag == 0.0:
        return 0j
    return complex(-mag, A * k1 / mag)


def _exp_phi_oracle(z: complex) -> tuple[complex, complex, complex]:
    """(e^z, phi_1(z), phi_2(z)) at one point: power series for |z| < 1,
    otherwise the closed forms with e^z - 1 built from ``math.expm1``."""
    if abs(z) < 1.0:
        p1 = sum(z**k / math.factorial(k + 1) for k in range(25))
        p2 = sum(z**k / math.factorial(k + 2) for k in range(25))
        return cmath.exp(z), p1, p2
    x, y = z.real, z.imag
    em1 = complex(math.expm1(x) * math.cos(y) - 2.0 * math.sin(0.5 * y) ** 2,
                  math.exp(x) * math.sin(y))
    return cmath.exp(z), em1 / z, (em1 - z) / z**2


def etdrk2_step_oracle(theta: ScalarField, A: float, dt: float, sign: int = 1) -> np.ndarray:
    """Half-spectrum after one ETDRK2 step of size dt (oracle for
    ``integrator.step``).

    The weights are evaluated one wavevector at a time from
    ``linear_symbol``, ``cmath`` and ``math.expm1``, with a zero symbol on
    the Nyquist row and column; the advection term is
    ``operators.advect``, which criterion 2 checks against
    ``advection_oracle``. ``sign = -1`` flips the advection term, the
    opposite transport convention, which the library reaches only by
    negating the field.
    """
    n = theta.grid.n
    e, w1, w2 = (np.empty((n, n // 2 + 1), dtype=np.complex128) for _ in range(3))
    for i in range(n):
        k1 = i if i < n // 2 else i - n
        for k2 in range(n // 2 + 1):
            nyquist = abs(k1) == n // 2 or k2 == n // 2
            z = 0j if nyquist else linear_symbol((k1, k2), A) * dt
            ez, p1, p2 = _exp_phi_oracle(z)
            e[i, k2], w1[i, k2], w2[i, k2] = ez, dt * p1, dt * p2
    n0 = sign * advect(theta).hat
    a_hat = e * theta.hat + w1 * n0
    n1 = sign * advect(ScalarField.from_hat(theta.grid, a_hat)).hat
    return a_hat + w2 * (n1 - n0)


def field_from_coeffs(grid: Grid, coeffs: dict[tuple[int, int], complex]) -> ScalarField:
    """Real field from canonical-half coefficients of a trig polynomial.

    ``coeffs`` maps wavevectors in the half-space (k1 > 0, or k1 == 0 and
    k2 > 0) to series coefficients c(k); the mirror conj(c) at -k is
    implied.
    """
    n = grid.n
    hat = np.zeros((n, n), dtype=np.complex128)
    for (k1, k2), c in coeffs.items():
        assert k1 > 0 or (k1 == 0 and k2 > 0), "use canonical half-space keys"
        hat[k1 % n, k2 % n] = c
        hat[(-k1) % n, (-k2) % n] = np.conj(c)
    return ScalarField(grid, np.fft.ifft2(hat * n * n).real)


def _expand_full(coeffs: dict[tuple[int, int], complex]) -> dict[tuple[int, int], complex]:
    full: dict[tuple[int, int], complex] = {}
    for (k1, k2), c in coeffs.items():
        full[(k1, k2)] = full.get((k1, k2), 0.0) + c
        full[(-k1, -k2)] = full.get((-k1, -k2), 0.0) + np.conj(c)
    return full


def advection_oracle(grid: Grid, coeffs: dict[tuple[int, int], complex]) -> np.ndarray:
    """Brute-force coefficient-space convolution of the dealiased
    advection u.grad(theta), returning point values.

    Every mode pair is convolved explicitly over the integers (no circular
    wrap-around, no FFT product), the input and output both truncated at
    max(|k1|, |k2|) > n/3.
    """
    n = grid.n
    cut = n / 3.0

    theta = {
        k: c for k, c in _expand_full(coeffs).items()
        if abs(k[0]) <= cut and abs(k[1]) <= cut
    }
    u1, u2, gx, gy = {}, {}, {}, {}
    for (k1, k2), c in theta.items():
        mag = np.hypot(k1, k2)
        if mag == 0:
            continue
        u1[(k1, k2)] = -1j * (k2 / mag) * c
        u2[(k1, k2)] = 1j * (k1 / mag) * c
        gx[(k1, k2)] = 1j * k1 * c
        gy[(k1, k2)] = 1j * k2 * c

    w: dict[tuple[int, int], complex] = {}
    for (p1, p2), up in u1.items():
        vp = u2[(p1, p2)]
        for (q1, q2), gq in gx.items():
            m = (p1 + q1, p2 + q2)
            if abs(m[0]) <= cut and abs(m[1]) <= cut:
                w[m] = w.get(m, 0.0) + up * gq + vp * gy[(q1, q2)]

    hat = np.zeros((n, n), dtype=np.complex128)
    for (m1, m2), c in w.items():
        hat[m1 % n, m2 % n] += c
    return np.fft.ifft2(hat * n * n).real


def _simpson(f, a: float, b: float, panels: int) -> float:
    """Fixed-step composite Simpson rule with vectorized evaluation."""
    x = np.linspace(a, b, 2 * panels + 1)
    y = f(x)
    h = (b - a) / (2 * panels)
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()))


def velocity_modulus_oracle(xi: float, p: ModulusParams, panels: int = 1_000_000) -> tuple[float, float]:
    """Independent (lower, upper) bracket for the velocity modulus.

    The near-field integral uses Simpson on omega(eta)/eta with the branch
    point split out. The far-field integral is Simpson in u = log(eta/xi)
    up to the cut eta = 1e6*delta; the remaining tail is bracketed
    analytically using omega(eta) <= omega(cut) + gamma' log(eta/cut) with
    gamma' the slope bound beyond the cut.
    """
    d, g = p.delta, p.gamma
    if xi <= d:
        near = _simpson(lambda e: 1.0 - np.sqrt(e), 0.0, xi, panels)
    else:
        near = _simpson(lambda e: 1.0 - np.sqrt(e), 0.0, d, panels // 2)
        near += _simpson(lambda e: modulus(e, p) / e, d, xi, panels // 2)

    cut = 1e6 * d
    u_max = np.log(cut / xi)
    far = _simpson(lambda u: modulus(xi * np.exp(u), p) * np.exp(-u), 0.0, u_max, panels)

    gamma_eff = g / (4.0 + np.log(cut / d))
    omega_cut = modulus(cut, p)
    tail_lo = xi * omega_cut / cut
    tail_hi = xi * (omega_cut + gamma_eff) / cut
    return p.c_omega * (near + far + tail_lo), p.c_omega * (near + far + tail_hi)


def velocity_modulus_mp_oracle(xi: float, p: ModulusParams, dps: int = 30) -> float:
    """The velocity modulus from its two defining integrals, by mpmath's
    tanh-sinh quadrature at ``dps`` digits with the branch point delta
    split out, rounded to the nearest double."""
    with mpmath.workdps(dps):
        g, d, x = mpmath.mpf(p.gamma), mpmath.mpf(p.delta), mpmath.mpf(xi)

        def omega(e):
            if e <= d:
                return e - e**1.5
            return d - d**1.5 + g * mpmath.log(1 + mpmath.log(e / d) / 4)

        near = mpmath.quad(lambda e: omega(e) / e, sorted({mpmath.mpf(0), min(x, d), x}))
        far = mpmath.quad(lambda e: omega(e) / e**2, sorted({x, max(x, d)}) + [mpmath.inf])
        return float(p.c_omega * (near + x * far))


def minimal_b_per_pair_oracle(theta: ScalarField, p: ModulusParams) -> float:
    """Independent certificate: for every unordered point pair solve
    omega(B*d) = |jump| by vectorized scalar bisection and take the max."""
    n = theta.grid.n
    dx = theta.grid.dx
    flat = theta.values.ravel()
    jump = np.abs(flat[:, None] - flat[None, :])

    rows = np.arange(n * n) // n
    cols = np.arange(n * n) % n
    d1 = np.abs(rows[:, None] - rows[None, :])
    d2 = np.abs(cols[:, None] - cols[None, :])
    d1 = np.minimum(d1, n - d1) * dx
    d2 = np.minimum(d2, n - d2) * dx
    sep = np.hypot(d1, d2)

    upper = np.triu(np.ones_like(sep, dtype=bool), k=1)
    jumps = jump[upper]
    seps = sep[upper]

    positive = jumps > 0
    jumps = jumps[positive]
    seps = seps[positive]
    if jumps.size == 0:
        return 0.0

    hi = np.ones_like(jumps)
    for _ in range(200):
        short = modulus(hi * seps, p) < jumps
        if not short.any():
            break
        hi = np.where(short, 2.0 * hi, hi)
    lo = np.zeros_like(jumps)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        passes = modulus(mid * seps, p) >= jumps
        hi = np.where(passes, mid, hi)
        lo = np.where(passes, lo, mid)
    return float((0.5 * (lo + hi)).max())


def omega_oracle(xi, p: ModulusParams) -> np.ndarray:
    """omega from its definition, written apart from sqgd.modulus."""
    xi = np.asarray(xi, dtype=np.float64)
    d, g = p.delta, p.gamma
    outer = d - d * np.sqrt(d) + g * np.log(1.0 + np.log(np.maximum(xi, d) / d) / 4.0)
    return np.where(xi <= d, xi - xi * np.sqrt(xi), outer)


def omega_inverse_oracle(v, p: ModulusParams) -> np.ndarray:
    """Vectorized bisection for omega(xi) = v. omega(xi) <= xi gives the
    lower end xi >= v; the upper end is doubled until omega reaches v."""
    v = np.asarray(v, dtype=np.float64)
    lo = v.copy()
    hi = 2.0 * v
    for _ in range(1100):
        short = omega_oracle(hi, p) < v
        if not short.any():
            break
        lo = np.where(short, hi, lo)
        hi = np.where(short, 2.0 * hi, hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = omega_oracle(mid, p) < v
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return hi


def class_table_oracle(theta: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    """(separation, increment) of every nonzero displacement class (di, dj)
    of the grid, all n^2 - 1 of them, with the increment
    max |theta - roll(theta, (di, dj))| taken by explicit np.roll."""
    n = theta.grid.n
    dx = theta.grid.dx
    vals = theta.values
    seps, jumps = [], []
    for di in range(n):
        rolled = np.roll(vals, di, axis=0)
        for dj in range(n):
            if di == 0 and dj == 0:
                continue
            jumps.append(float(np.abs(vals - np.roll(rolled, dj, axis=1)).max()))
            seps.append(dx * np.hypot(min(di, n - di), min(dj, n - dj)))
    return np.array(seps), np.array(jumps)


def class_scan_reference(theta: ScalarField) -> tuple[np.ndarray, ...]:
    """(di, dj, xi, jump) of every displacement class in the certificate's
    scan order, each increment max |theta - roll(theta, (di, dj))| taken
    by explicit np.roll.

    One class of each pair {h, -h} is listed: 0 <= di <= n/2, with
    dj <= n/2 on the rows di = 0 and di = n/2. They are sorted by the
    separation hypot(min(di, n - di) dx, min(dj, n - dj) dx), ties by
    (di, dj).
    """
    n, dx, vals = theta.grid.n, theta.grid.dx, theta.values
    table = []
    for di in range(n // 2 + 1):
        rolled = np.roll(vals, di, axis=0)
        for dj in range(n):
            if (di == 0 or di == n // 2) and dj > n // 2 or di == dj == 0:
                continue
            xi = np.hypot(min(di, n - di) * dx, min(dj, n - dj) * dx)
            table.append((xi, di, dj, np.abs(vals - np.roll(rolled, dj, axis=1)).max()))
    table.sort(key=lambda row: row[:3])
    xi, di, dj, jump = (np.array(col) for col in zip(*table))
    return di, dj, xi, jump


def _roll_witness(theta: ScalarField, di: int, dj: int, xi: float, b: float,
                  p: ModulusParams) -> PairWitness:
    """First pair (in row-major order of y) of largest increment in class
    (di, dj), z = y - (di, dj), with its slack under omega_B."""
    n = theta.grid.n
    jumps = np.abs(theta.values - np.roll(theta.values, (di, dj), axis=(0, 1)))
    iy, jy = np.unravel_index(int(np.argmax(jumps)), jumps.shape)
    jump = float(jumps[iy, jy])
    return PairWitness(y=(int(iy), int(jy)), z=(int((iy - di) % n), int((jy - dj) % n)),
                       xi=float(xi), jump=jump, slack=float(scaled_modulus(xi, b, p)) - jump)


def certificate_reference(theta: ScalarField, p: ModulusParams, scan) -> ModulusCertificate:
    """b_min = max over every class of omega^{-1}(J)/xi, its witness from
    the first class in scan order that attains it; slack -inf when b_min
    is +inf. ``scan`` is :func:`class_scan_reference` of theta, which
    must not be constant."""
    di, dj, xi, jump = scan
    ratio = modulus_inverse(jump, p) / xi
    k = int(np.argmax(ratio))
    b = float(ratio[k])
    worst = _roll_witness(theta, int(di[k]), int(dj[k]), xi[k], b, p)
    if math.isinf(b):
        worst = replace(worst, slack=-math.inf)
    return ModulusCertificate(b_min=b, witness=worst, slack=worst.slack)


def worst_pair_reference(theta: ScalarField, b: float, p: ModulusParams, scan) -> PairWitness:
    """Pair of least slack omega_B(xi) - J over every class, from the
    first class in scan order that attains it."""
    di, dj, xi, jump = scan
    k = int(np.argmin(scaled_modulus(xi, b, p) - jump))
    return _roll_witness(theta, int(di[k]), int(dj[k]), xi[k], b, p)
