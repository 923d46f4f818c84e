"""Moduli of continuity and certificate machinery.

The modulus family is the piecewise-defined concave function

    omega(xi) = xi - xi^{3/2}                             for 0 <= xi <= delta,
    omega'(xi) = gamma / (xi * (4 + log(xi/delta)))       for xi > delta,

integrated in closed form on the outer branch:

    omega(xi) = delta - delta^{3/2}
                + gamma * log((4 + log(xi/delta)) / 4)    for xi > delta,

together with its rescalings omega_B(xi) = omega(B*xi). A field "has"
omega_B when |theta(y) - theta(z)| <= omega_B(d(y, z)) for every pair of
points, with d the torus metric (wrapped coordinate differences). The
smallest such B is the certificate this module computes.

One exact algorithm answers every certificate question. Grid-point pairs
fall into displacement classes h = (di, dj) of wrapped index offsets, all
pairs of a class sharing the separation |h|, and the class increment

    J(h) = max_x |theta(x + h) - theta(x)|

decides them: theta has omega_B exactly when omega(B|h|) >= J(h) for
every class, so b_min = max_h omega^{-1}(J(h))/|h|. Classes are scanned
in blocks, vectorized over classes, in order of increasing |h|. No class
has J above the oscillation osc = max theta - min theta, so the b_min
scan stops once |h| >= omega^{-1}(osc)/b_min-so-far, and the least-slack
scan behind check_modulus and audit_breakthrough stops once
omega(B|h|) - osc reaches the least slack found.

Before those stops, subadditivity skips most classes. For a unit step e
toward the origin, theta(x+h) - theta(x) = [theta(x+h) - theta(x+e)] +
[theta(x+e) - theta(x)] gives J(h) <= J(h - e) + J(e), so the bound

    U(h) = min(osc, min_e (U(h - e) + U(e)) * (1 + 1e-9)),

read from classes of earlier blocks (U = J where J was computed), is at
least J(h). A computed increment is the exact one rounded once, so the
inequality holds for computed increments up to a relative 2^-51, which
the margin 1e-9 covers. Each scan computes J only where U could still
change its result: b_min where U(h) >= omega(b|h|) * (1 - 1e-9) for the
largest ratio b found, the least slack where
omega_B(|h|) * (1 - 1e-9) - U(h) is below the least slack found. The
b_min rule compares in J-space, so it does not rest on omega^{-1} being
monotone. Both rules and both stops leave the result unchanged, bit for
bit. calibrate_c_omega computes J for every class.

The induced modulus for the Riesz-transform velocity is

    Omega(xi) = C * ( int_0^xi omega(eta)/eta deta
                      + xi * int_xi^inf omega(eta)/eta^2 deta ),

with Omega_B(xi) = Omega(B*xi) by a change of variables. The constant C is
not pinned down by theory at this level of generality. velocity_modulus
evaluates the C = 1 modulus; audit_breakthrough takes C as ``c_omega``
(default 1), calibrate_c_omega measures it on a corpus, and audits report
measured/bound ratios rather than asserting them. Both integrals have
closed forms, evaluated by velocity_modulus with numpy alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fields import ScalarField
from .operators import riesz_transform

_CHECK_TOL = 1e-12
# Newton's method on the inner branch reaches rounding level within eight
# steps for every admissible delta (<= 0.4). A fixed count keeps each
# element's result independent of the other elements of an array.
_NEWTON_STEPS = 12
# Elements of the (classes, n, n) increment array of one scan block.
_BLOCK_ELEMENTS = 1 << 18
# Relative margin of the class-increment bounds and of the rules that
# skip classes by them; rounding errs by a few 1e-16.
_PRUNE_MARGIN = 1e-9


@dataclass(frozen=True)
class ModulusParams:
    """Constants (gamma, delta) of the modulus family.

    Constraints: 0 < gamma < delta <= 0.4 keeps the inner branch strictly
    increasing, and gamma < 4*delta*(1 - 1.5*sqrt(delta)) makes the left
    derivative at delta exceed the right one, so omega is concave with a
    genuine corner at delta.
    """

    gamma: float = 0.01
    delta: float = 0.02

    def __post_init__(self) -> None:
        if not 0 < self.gamma < self.delta:
            raise ValueError("need 0 < gamma < delta")
        if self.delta > 0.4:
            raise ValueError("delta must not exceed 0.4")
        left = 1.0 - 1.5 * math.sqrt(self.delta)
        right = self.gamma / (4.0 * self.delta)
        if right >= left:
            raise ValueError(
                "derivative jump violated: need gamma/(4*delta) < 1 - 1.5*sqrt(delta)"
            )


@dataclass(frozen=True)
class PairWitness:
    """Grid-point pair with the smallest modulus slack.

    ``y`` and ``z`` are (i, j) grid indices, ``xi`` their torus separation,
    ``jump`` the increment |theta(y) - theta(z)|, and ``slack`` the margin
    omega_B(xi) - jump (negative when the modulus is violated).
    """

    y: tuple[int, int]
    z: tuple[int, int]
    xi: float
    jump: float
    slack: float


@dataclass(frozen=True)
class ModulusCertificate:
    """Smallest scaling b_min for which the field has omega_B, with the
    witness pair that pins it down. ``witness`` is None for constant
    fields (b_min = 0)."""

    b_min: float
    witness: PairWitness | None
    slack: float


@dataclass(frozen=True)
class AuditReport:
    """Numerical snapshot of the breakthrough inequalities at the tightest
    pair. ``lhs_breakthrough`` is max over pairs of theta(y) - theta(z)
    - omega_B(|y-z|); ``derivative_bound`` is (-omega_B'(xi) + |A|) * Omega_B(xi);
    the dispersive entries compare the measured increment of |A|*u2 against
    its bound |A|*Omega_B(xi), so A and -A give the same report.
    ``saturation`` is jump/omega_B(xi) at the witness."""

    xi: float
    lhs_breakthrough: float
    derivative_bound: float
    disp_measured: float
    disp_bound: float
    disp_ratio: float
    saturation: float


def _validate_separations(xi) -> np.ndarray:
    arr = np.asarray(xi, dtype=np.float64)
    if np.any(arr < 0):
        raise ValueError("separation must be nonnegative")
    return arr


def modulus(xi, p: ModulusParams):
    """Evaluate omega(xi). Accepts scalars or arrays."""
    arr = _validate_separations(xi)
    d, g = p.delta, p.gamma
    inner = np.minimum(arr, d)
    outer = np.maximum(arr, d)
    head = inner - inner**1.5
    tail = (d - d**1.5) + g * np.log1p(np.log(outer / d) / 4.0)
    out = np.where(arr <= d, head, tail)
    return out if arr.ndim else float(out)


def modulus_slope(xi, p: ModulusParams):
    """Evaluate omega'(xi); at xi = delta this is the left derivative
    1 - 1.5*sqrt(delta). Accepts scalars or arrays."""
    arr = _validate_separations(xi)
    d, g = p.delta, p.gamma
    inner = np.minimum(arr, d)
    outer = np.maximum(arr, d)
    head = 1.0 - 1.5 * np.sqrt(inner)
    tail = g / (outer * (4.0 + np.log(outer / d)))
    out = np.where(arr <= d, head, tail)
    return out if arr.ndim else float(out)


def modulus_inverse(v, p: ModulusParams):
    """Unique xi with omega(xi) = v. Accepts scalars or arrays.

    The outer branch inverts in closed form,
    xi = delta * exp(4 * expm1((v - omega(delta)) / gamma)). omega grows
    doubly logarithmically there, so the inverse overflows float64 for
    moderate v (about 0.069 at the default parameters) and +inf is
    returned. The inner branch xi - xi^{3/2} = v is solved by Newton's
    method from xi = v: the function is increasing and concave on
    [0, delta], so the iterates rise monotonically to the root.
    """
    arr = np.asarray(v, dtype=np.float64)
    if np.any(arr < 0):
        raise ValueError("modulus values are nonnegative")
    d, g = p.delta, p.gamma
    at_delta = d - d**1.5
    with np.errstate(over="ignore"):
        outer = d * np.exp(4.0 * np.expm1((arr - at_delta) / g))
    target = np.minimum(arr, at_delta)
    inner = target
    for _ in range(_NEWTON_STEPS):
        sq = np.sqrt(inner)
        inner = inner - (inner - inner * sq - target) / (1.0 - 1.5 * sq)
    out = np.where(arr <= at_delta, inner, outer)
    return out if arr.ndim else float(out)


def scaled_modulus(xi, b: float, p: ModulusParams):
    """omega_B(xi) = omega(b*xi); b = 0 gives the zero function."""
    if b < 0:
        raise ValueError("modulus scaling must be nonnegative")
    return modulus(b * _validate_separations(xi), p)


def scaled_modulus_slope(xi, b: float, p: ModulusParams):
    """omega_B'(xi) = b * omega'(b*xi)."""
    if b < 0:
        raise ValueError("modulus scaling must be nonnegative")
    return b * modulus_slope(b * _validate_separations(xi), p)


def _scaled_e1(x):
    """e^x E1(x) for x >= 4 from the continued fraction 1/(x + 1/(1 + 1/(x +
    2/(1 + 2/(x + ...))))) of Abramowitz & Stegun 5.1.22, evaluated backward
    from depth 40, where it has reached rounding level."""
    tail = np.zeros_like(x)
    for k in range(40, 0, -1):
        tail = k / (1.0 + k / (x + tail))
    return 1.0 / (x + tail)


def velocity_modulus(xi, p: ModulusParams):
    """Omega(xi) of the module docstring with C = 1, in closed form; accepts scalars or arrays.

    With c = omega(delta), xi_in = min(xi, delta), xi_out = max(xi, delta)
    and s = log(xi_out/delta), Omega(xi) = near + xi * far, where

        near = xi_in - (2/3) xi_in^{3/2} + c s + gamma ((4 + s) log(1 + s/4) - s),
        far = log(delta/xi_in) - 2 (sqrt(delta) - sqrt(xi_in))
              + (c + gamma (log(1 + s/4) + e^{4+s} E1(4 + s))) / xi_out

    are int_0^xi omega(eta)/eta deta and int_xi^inf omega(eta)/eta^2 deta
    (on the outer branch by eta = delta e^u and one integration by parts;
    e^x E1(x) from Abramowitz & Stegun 5.1.22). Omega(0) = 0, and
    Omega_B(xi) = Omega(B*xi).
    """
    arr = _validate_separations(xi)
    d, g = p.delta, p.gamma
    c = d - d**1.5
    inner, outer = np.minimum(arr, d), np.maximum(arr, d)
    s = np.log(outer / d)
    log_s = np.log1p(s / 4.0)
    near = inner - (2.0 / 3.0) * inner**1.5 + c * s + g * ((4.0 + s) * log_s - s)
    with np.errstate(divide="ignore", invalid="ignore"):
        far = (np.log(d / inner) - 2.0 * (math.sqrt(d) - np.sqrt(inner))
               + (c + g * (log_s + _scaled_e1(4.0 + s))) / outer)
        out = np.where(arr > 0, near + arr * far, 0.0)
    return out if arr.ndim else float(out)


def breakthrough_b(a: float, d_bound: float, p: ModulusParams) -> float:
    """Scaling threshold A / omega'(omega^{-1}(2*D)) above which the
    breakthrough derivative is strictly negative for any field bounded by
    D in sup norm. Returns +inf when omega^{-1}(2*D) overflows (see
    :func:`modulus_inverse`)."""
    if a < 0:
        raise ValueError("amplitude must be nonnegative")
    if d_bound <= 0:
        raise ValueError("sup-norm bound must be positive")
    if a == 0.0:
        return 0.0
    xi = modulus_inverse(2.0 * d_bound, p)
    if math.isinf(xi):
        return math.inf
    return a / modulus_slope(xi, p)


# ---------------------------------------------------------------------------
# Displacement-class scans


@functools.lru_cache(maxsize=4)
def _classes(n: int, dx: float) -> tuple[np.ndarray, ...]:
    """Nonzero displacement classes (di, dj) with their torus separations,
    sorted by separation, and the classes each one's bound reads.

    Classes h and -h = (n - di, n - dj) hold the same unordered pairs, so
    one of each is kept: all dj for 0 < di < n/2, and dj <= n/2 on the
    rows di = 0 and di = n/2, which are their own mirror images.

    With s = (sign(a), sign(b)) for the wrapped signed offsets (a, b) of h,
    the unit steps e are (s1, 0), (0, s2) and (s1, s2); row k of ``pred``
    holds the class of h - e and row k of ``unit`` the class of e. A zero
    step has e, and a step to the origin has h - e, at the sentinel index
    ``xi.size``, whose bound is +inf.
    """
    # The cached arrays are allocated before the temporaries that fill
    # them, so they do not sit above freed memory on the heap and keep it
    # resident.
    size = n * n // 2 + 1
    table, xi = np.empty((8, size), np.int32), np.empty(size)
    di, dj = np.meshgrid(np.arange(n // 2 + 1), np.arange(n), indexing="ij")
    keep = (di % (n // 2) != 0) | (dj <= n // 2)
    keep[0, 0] = False
    di, dj = di[keep], dj[keep]
    off = np.minimum(np.arange(n), n - np.arange(n)) * dx
    sep = np.hypot(off[di], off[dj])
    order = np.argsort(sep, kind="stable")
    di, dj, xi[:] = di[order], dj[order], sep[order]
    # index[i, j]: the class of offset (i, j), which is also that of (-i, -j).
    index = np.full((n, n), size)
    index[di, dj] = index[-di % n, -dj % n] = np.arange(size)
    s1, s2 = np.sign(di), np.sign(np.where(dj <= n // 2, dj, dj - n))
    table[0], table[1] = di, dj
    for k, (e1, e2) in enumerate(((s1, 0), (0, s2), (s1, s2))):
        table[2 + k] = index[(di - e1) % n, (dj - e2) % n]
        table[5 + k] = index[e1 % n, e2 % n]
    table.flags.writeable = xi.flags.writeable = False  # shared by every caller
    return table[0], table[1], xi, table[2:5], table[5:]


def _class_blocks(theta: ScalarField, keep):
    """Yield (di, dj, xi, jump) arrays block by block, in order of
    increasing separation xi. ``jump`` holds J(h) for the classes that
    ``keep(xi, upper)`` selects and the bound U(h) of the module docstring
    for the others. The bounds of a block read only earlier blocks.
    """
    vals = theta.values
    n = theta.grid.n
    di, dj, xi, pred, unit = _classes(n, theta.grid.dx)
    osc = float(vals.max() - vals.min())
    bound = np.full(xi.size + 1, math.inf)
    # windows[r, s, j] = vals[r, (s + j) % n], a view of the doubled rows.
    windows = sliding_window_view(np.concatenate([vals, vals], axis=1), n, axis=1)
    rows = np.arange(n)
    size = max(1, _BLOCK_ELEMENTS // (n * n))
    for start in range(0, xi.size, size):
        blk = slice(start, min(start + size, xi.size))
        via = (bound[pred[:, blk]] + bound[unit[:, blk]]).min(axis=0)
        upper = np.minimum(osc, via * (1.0 + _PRUNE_MARGIN))
        sel = np.flatnonzero(keep(xi[blk], upper))
        cls = start + sel
        # shifted[c, i, j] = vals[i - di[c], j - dj[c]] (indices mod n)
        shifted = windows[(rows - di[cls, None]) % n, ((n - dj[cls]) % n)[:, None]]
        np.subtract(shifted, vals, out=shifted)
        np.abs(shifted, out=shifted)
        upper[sel] = shifted.reshape(sel.size, n * n).max(axis=1)
        bound[blk] = upper
        yield di[blk], dj[blk], xi[blk], upper


def _witness(theta: ScalarField, di: int, dj: int, xi: float, b: float,
             p: ModulusParams) -> PairWitness:
    """The pair of class (di, dj) with the largest increment, and its
    slack under omega_B."""
    vals = theta.values
    n = theta.grid.n
    jumps = np.abs(vals - np.roll(vals, (di, dj), axis=(0, 1)))
    iy, jy = np.unravel_index(int(np.argmax(jumps)), jumps.shape)
    jump = float(jumps[iy, jy])
    return PairWitness(y=(int(iy), int(jy)), z=(int((iy - di) % n), int((jy - dj) % n)),
                       xi=float(xi), jump=jump,
                       slack=float(scaled_modulus(xi, b, p)) - jump)


def _worst_pair(theta: ScalarField, b: float, p: ModulusParams) -> PairWitness:
    """Pair with the least slack omega_B(xi) - jump over all classes, by
    the least-slack scan, stop and keep rule of the module docstring."""
    if not 0.0 <= b < math.inf:
        raise ValueError("modulus scaling must be finite and nonnegative")
    osc = float(theta.values.max() - theta.values.min())
    least = math.inf

    def keep(xi, upper):
        return scaled_modulus(xi, b, p) * (1.0 - _PRUNE_MARGIN) - upper < least

    for di, dj, xi, jump in _class_blocks(theta, keep):
        if scaled_modulus(xi[0], b, p) - osc >= least:
            break
        slack = scaled_modulus(xi, b, p) - jump
        k = int(np.argmin(slack))
        if slack[k] < least:
            least, worst = float(slack[k]), (int(di[k]), int(dj[k]), float(xi[k]))
    return _witness(theta, *worst, b, p)


def check_modulus(theta: ScalarField, b: float, p: ModulusParams) -> tuple[bool, PairWitness]:
    """Does theta have the modulus omega_B?

    Finds the grid-point pair with the least slack under the torus metric,
    exactly (see :func:`_worst_pair`), and passes when that slack is at
    least -1e-12. Passing is monotone in b because omega is increasing.
    """
    worst = _worst_pair(theta, b, p)
    return worst.slack >= -_CHECK_TOL, worst


def minimal_b(theta: ScalarField, p: ModulusParams) -> ModulusCertificate:
    """Smallest scaling for which theta has omega_B on the grid,
    b_min = max_h omega^{-1}(J(h))/|h| over displacement classes h, by the
    b_min scan, stop and keep rule of the module docstring.

    Constant fields certify at b_min = 0. Returns b_min = +inf, with slack
    -inf, when no representable scaling passes: omega^{-1}(J(h))
    overflows float64 (J about 0.069 at default parameters).
    """
    vals = theta.values
    osc = float(vals.max() - vals.min())
    if osc <= _CHECK_TOL:
        return ModulusCertificate(b_min=0.0, witness=None, slack=0.0)
    reach = modulus_inverse(osc, p)
    best = 0.0

    def keep(xi, upper):
        return upper >= scaled_modulus(xi, best, p) * (1.0 - _PRUNE_MARGIN)

    for di, dj, xi, jump in _class_blocks(theta, keep):
        if xi[0] * best >= reach:
            break
        ratio = modulus_inverse(jump, p) / xi
        k = int(np.argmax(ratio))
        if ratio[k] > best:
            best, arg = float(ratio[k]), (int(di[k]), int(dj[k]), float(xi[k]))
    worst = _witness(theta, *arg, best, p)
    if math.isinf(best):
        worst = replace(worst, slack=-math.inf)
    return ModulusCertificate(b_min=best, witness=worst, slack=worst.slack)


def audit_breakthrough(theta: ScalarField, b: float, a: float, p: ModulusParams,
                       c_omega: float = 1.0) -> AuditReport:
    """Measure the breakthrough-scenario quantities at the tightest pair,
    with Omega_B scaled by the velocity-modulus constant ``c_omega``.

    This is a report, not an assertion: c_omega is calibrated, so the
    dispersive bound is checked as a ratio. The advective and dissipative
    increments of the breakthrough derivative need the saturating-pair
    structure or singular-integral representations and are not measured
    here.
    """
    if not math.isfinite(a):
        raise ValueError("amplitude must be finite")
    if not 0 < c_omega < math.inf:
        raise ValueError("c_omega must be positive and finite")
    a = abs(a)
    worst = _worst_pair(theta, b, p)
    xi = worst.xi

    omega_at = scaled_modulus(xi, b, p)
    slope_at = scaled_modulus_slope(xi, b, p)
    big = c_omega * velocity_modulus(b * xi, p)
    rhs = (-slope_at + a) * big

    u2 = riesz_transform(theta, 1).values
    du2 = abs(float(u2[worst.y]) - float(u2[worst.z]))
    disp_measured = a * du2
    disp_bound = a * big
    disp_ratio = du2 / big if big > 0 else 0.0
    saturation = worst.jump / omega_at if omega_at > 0 else 0.0

    return AuditReport(
        xi=xi,
        lhs_breakthrough=-worst.slack,
        derivative_bound=float(rhs),
        disp_measured=disp_measured,
        disp_bound=disp_bound,
        disp_ratio=disp_ratio,
        saturation=saturation,
    )


def calibrate_c_omega(thetas, p: ModulusParams, *, b_margin: float = 1e-3) -> float:
    """Smallest constant making the velocity-modulus bound hold on a corpus.

    For each field the certificate b_min is computed, the velocity
    component u2 = R_1(theta) is scanned over every displacement class,
    and the largest ratio of velocity increment to the C = 1 Omega_B(xi)
    is recorded. The returned maximum is the corpus-calibrated c_omega;
    audits of comparable fields at that c_omega should then report
    disp_ratio <= 1 up to sampling fluctuation.
    """
    worst = 0.0
    for theta in thetas:
        cert = minimal_b(theta, p)
        if cert.b_min == 0.0 or math.isinf(cert.b_min):
            continue
        b = cert.b_min * (1.0 + b_margin)
        blocks = _class_blocks(riesz_transform(theta, 1), lambda xi, upper: np.ones(xi.size, bool))
        _, _, xi, jump = map(np.concatenate, zip(*blocks))
        worst = max(worst, float((jump / velocity_modulus(b * xi, p)).max()))
    return worst
