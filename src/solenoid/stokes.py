"""The Stokes semigroup on the unit square, and fractional powers of the
generator.

On divergence-free product-basis expansions the Stokes operator acts
diagonally: mode (n, m) carries the eigenvalue lam = pi^2 (n^2 + m^2).  The
semigroup multiplies it by e^{-lam t} in closed form (`floatball.grid_exp`,
:func:`_heat_factor`).  The paper's sectorial contour representation

    e^{-tA} a = (1/2 pi i) int_Gamma e^{lambda t} (lambda I + A)^{-1} a dlambda

with Gamma the pair of rays r e^{+-i beta}, beta = 3 pi / 5, keeps its
primitives here (:func:`contour_factors`, :func:`tail_cutoff_l`); no library
route calls them, and the test oracles assemble the contour semigroup from
them.  Conjugate symmetry collapses the two rays into one real integral per
mode,

    factor(lam) = (1/pi) Im int_0^l e^{t r e^{i beta}} e^{i beta}
                               / (r e^{i beta} + lam) dr  +  gamma_3,

where the radial cutoff l leaves a tail gamma_3 controlled by the decay
e^{t r cos beta} (cos beta < 0) together with |r e^{i beta} + lam| >= r sin
beta.  The finite ray is integrated by rigorous panel arithmetic: on each
panel the denominator is expanded as a geometric series around the midpoint
and the exponential moments int_{-1}^{1} v^j e^{zv} dv are summed as entire
series, so each panel contribution is an enclosure whose only approximation
errors are explicit truncation bounds.  No panel is ever close to the pole
at -lam because |r e^{i beta} + lam| >= sin(beta) max(r, lam).

Fractional powers A^alpha act mode-wise by lam^alpha, and the norm
||A^beta u|| is the root of the weighted coefficient sum
sum lam^{2 beta} rho |a|^2 (:func:`frac_power_norm`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Tuple

import numpy as np

from .approxcore import (
    BoundedValue, ConstantsTable, bv_pi, bv_sin, cos_contour_angle, gamma_tail,
)
from .floatball import (
    FB_PI, BallGrid, CBall, FloatBall, ball_matmul, fb_exp, fb_pow, fb_sincos,
    fb_sqrt, grid_exp, pow_up,
)
from .helmholtz import resolve_field
from .spectral import _PI2, FourierField, mode_weights

__all__ = [
    "contour_factors", "tail_cutoff_l", "semigroup_apply",
    "frac_power_apply", "frac_power_norm",
]

BETA_OF_PI = Fraction(3, 5)           # the contour half-angle is 3 pi / 5

# cos(3 pi/5) < 0 < sin(3 pi/5), as tight balls
_CB = FloatBall.from_bounded(cos_contour_angle(60))
_SB = FloatBall.from_bounded(bv_sin(bv_pi(70).scale(BETA_OF_PI), 60))


def _as_bv(x) -> BoundedValue:
    if isinstance(x, BoundedValue):
        return x
    return BoundedValue.from_fraction(Fraction(x))


# ---------------------------------------------------------------------------
# Contour bookkeeping
# ---------------------------------------------------------------------------

def _gamma3_value(l: float, t: BoundedValue, K: int) -> BoundedValue:
    """Upper enclosure of (1/(pi sin beta)) int_l^inf e^{t r cos beta}/r dr,
    the per-unit-coefficient remainder of cutting the contour at l."""
    prec = max(80, K + 40)
    g = gamma_tail(BoundedValue.exact(Fraction(l)), t, k=K + 12)
    den = bv_pi(prec) * bv_sin(bv_pi(prec).scale(BETA_OF_PI), prec)
    return g / den


def tail_cutoff_l(t, norm_a, K: int) -> BoundedValue:
    """Radial cutoff l with certified contour remainder at most 2^-(K+7).

    The remainder per component is gamma_3 * ||a|| (:func:`_gamma3_value`);
    the search doubles l from a closed-form float estimate until the
    certified bound closes.  Requires t > 0: the contour does not represent
    the semigroup at t = 0.
    """
    t = _as_bv(t)
    norm = _as_bv(norm_a)
    if t.lower() <= 0:
        raise ValueError("tail cutoff needs t > 0")
    if norm.upper() <= 0:
        return BoundedValue.exact(1)
    target = Fraction(1, 1 << (K + 7))
    # a float pre-search with the closed-form bound e^{tcl}/(t|c|l pi sin
    # beta) only steers the search: the cutoff it finds is certified below
    nf = FloatBall.from_bounded(norm).upper()
    c = FloatBall.from_bounded(cos_contour_angle(60)).upper()
    tl = FloatBall.from_bounded(t).lower()
    l = 1.0
    while l < 1e12:
        e = math.exp(tl * c * l)  # steering: pre-search only
        b = e / (tl * -c * l * math.pi * 0.95) * nf  # steering: pre-search
        if b <= float(target) * 0.5:
            break
        l *= 1.25
    for _ in range(40):
        if (_gamma3_value(l, t, K) * norm).upper() <= target:
            return BoundedValue.exact(Fraction(l))
        l *= 2.0
    raise RuntimeError("contour tail bound did not close")


# ---------------------------------------------------------------------------
# Rigorous ray quadrature
# ---------------------------------------------------------------------------

def _panels(t_hi: float, l: float, lam_min: float):
    """Midpoint/half-width schedule along [0, l].

    Widths are capped so that |z| = t h <= 1.6 (exponential moments) and
    h <= 0.42 sin(beta) max(lam_min, r) (geometric ratio below 0.45).
    """
    sb_lo = _SB.lower()
    out = []
    a = 0.0
    while a < l:
        h = min(1.6 / t_hi, 0.42 * sb_lo * max(lam_min, a))
        if a + 2 * h >= l:
            h = (l - a) / 2
        out.append((a + h, h))
        a += 2 * h
    return out


_KMAX = 34      # series terms of the exponential moments
_J = 44         # geometric series terms of the panel denominators


@lru_cache(maxsize=None)
def _moment_matrix() -> BallGrid:
    """M[j, k] = w_{j+k}/k! for j <= _J, k <= _KMAX, with w_i = 2/(i+1) for
    even i and 0 for odd i, as exact balls."""
    w = BallGrid.of(FloatBall.exact(Fraction(2, i + 1) if i % 2 == 0 else 0)
                    for i in range(_J + _KMAX + 1))
    inv_fact = BallGrid.of(FloatBall.exact(Fraction(1, math.factorial(k)))
                           for k in range(_KMAX + 1))
    idx = np.add.outer(np.arange(_J + 1), np.arange(_KMAX + 1))
    return w[idx] * inv_fact.reshape(1, -1)


def _exp_moments(z: CBall, ez: float) -> CBall:
    """Enclosures of A_j = int_{-1}^{1} v^j e^{z v} dv for j = 0.._J, for
    |z| <= 2 and ez >= e^{|z|}: the series sum_k M[j, k] z^k through
    `ball_matmul` on the real and imaginary parts (the radii of the powers
    enter the real part only, so they count once), plus the tail past
    _KMAX, at most 2 |z|^{_KMAX+1}/(_KMAX+1)! e^{|z|}."""
    zp = [CBall(1.0 + 0j, 0.0)]
    for _ in range(_KMAX + 1):
        zp.append(zp[-1] * z)
    c = np.array([p.c for p in zp[:-1]])
    M = _moment_matrix()
    A = CBall.of(ball_matmul(M, BallGrid(c.real, [p.r for p in zp[:-1]])),
                 ball_matmul(M, BallGrid(c.imag)))
    rem = FloatBall(zp[-1].mag()) * FloatBall(ez) * FloatBall.exact(
        Fraction(2, math.factorial(_KMAX + 1)))
    return A.widened(rem.upper())


def contour_factors(svals, t: FloatBall, l: float):
    """Mode factors of the finite contour ray for eigenvalue indices svals.

    ``svals`` holds the integers n^2 + m^2 >= 1; the return is a pair of
    arrays (centers, radii) enclosing

        (1/pi) Im int_0^l e^{t r e^{i beta}} e^{i beta}
                          / (r e^{i beta} + pi^2 s) dr

    for each s.  Together with the gamma_3 remainder this encloses the heat
    factor e^{-t pi^2 s}.  The panel schedule is deterministic.  On each
    panel the integrand is h e^{i beta} e^{t mid e^{i beta}} e^{z v}/(d +
    h e^{i beta} v), v in [-1, 1], z = t h e^{i beta}, d = mid e^{i beta} +
    lam; with w = -h e^{i beta}/d the denominator is the geometric series
    sum_j w^j v^j / d, summed by Horner to order _J in complex discs
    (`CBall`), and the terms past _J add at most
    2 e^{|z|} |w|^{_J+1}/(1 - |w|).
    """
    s = np.asarray(svals, dtype=float)
    if s.size == 0:
        return np.zeros(0), np.zeros(0), 0
    if s.min() < 1:
        raise ValueError("eigenvalue indices must be >= 1")
    lam = BallGrid(s) * _PI2
    lam = CBall(lam.c + 0j, lam.r)
    lam_min = _PI2.lower() * float(s.min())
    eib = CBall.of(_CB, _SB)
    t_hi = t.upper()
    if not t.lower() > 0:
        raise ValueError("contour quadrature needs t > 0")
    tot = CBall(np.zeros(s.shape, dtype=complex), np.zeros(s.shape))
    panels = _panels(t_hi, l, lam_min)
    for mid, h in panels:
        hb, mb = FloatBall(h), FloatBall(mid)
        z = CBall.of(t * _CB * hb, t * _SB * hb)
        zmag = z.mag()
        if zmag > 2.0:
            raise RuntimeError("moment series argument out of range")
        ez = fb_exp(FloatBall(zmag)).upper()
        A = _exp_moments(z, ez)
        ex = fb_exp(t * _CB * mb)
        sph, cph = fb_sincos(t * _SB * mb)
        heib = eib * CBall(h + 0j)
        pref = CBall.of(ex * cph, ex * sph) * heib
        inv = CBall(mid + 0j).mul_add(eib, lam).reciprocal()
        w = CBall(-heib.c, heib.r) * inv
        wmag = w.mag()
        if wmag.max() > 0.6:
            raise RuntimeError("geometric panel ratio out of range")
        S = CBall(np.full(s.shape, A.c[_J]), np.full(s.shape, A.r[_J]))
        for j in range(_J - 1, -1, -1):
            S = w.mul_add(S, A[j])
        tail = BallGrid(pow_up(wmag, _J + 1)) \
            / (BallGrid(1.0) - BallGrid(wmag))
        S = S.widened((tail * (FloatBall(2.0) * FloatBall(ez))).upper())
        tot = pref.mul_add(inv * S, tot)
    out = BallGrid(tot.c.imag, tot.r) * (FloatBall(1.0) / FB_PI)
    return out.c, out.r, len(panels)


# ---------------------------------------------------------------------------
# Field plumbing
# ---------------------------------------------------------------------------

def _components(u) -> Tuple[list, bool]:
    """A resolved field argument as a list of FourierFields, and whether the
    caller should re-emit a component pair."""
    return (list(u), True) if isinstance(u, tuple) else ([u], False)


def _emit(fields, pairp):
    return (fields[0], fields[1]) if pairp else fields[0]


def _l2_upper(fields) -> float:
    """Upper bound on the joint L2 norm of fields, tails included."""
    return fb_sqrt(sum(f.l2_sq_ball() for f in fields)).upper()


# ---------------------------------------------------------------------------
# Semigroup
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _heat_factor(cutoff: int, t: Fraction) -> BallGrid:
    """e^{-t lambda}, lambda = pi^2 (n^2 + m^2), for n, m <= cutoff; cached
    and read-only."""
    n = np.arange(cutoff + 1)
    lam = BallGrid(n[:, None] ** 2 + n[None, :] ** 2) * _PI2
    out = grid_exp(lam * -FloatBall.exact(t))
    out.c.flags.writeable = out.r.flags.writeable = False
    return out


def _heat_hull(late: BallGrid, early: BallGrid) -> BallGrid:
    """The heat factors over a time interval from the `_heat_factor` tables
    at its ends: e^{-lam t} falls in t, so the hull runs from the late
    table's lower end to the early table's upper end, capped at 1."""
    return BallGrid.from_rounded(late.c - late.r,
                                 np.minimum(early.c + early.r, 1.0))


def semigroup_apply(a, t, K: int, constants: ConstantsTable = None):
    """2^-K approximation of e^{-tA} a.

    ``a`` is a component pair, a single field, a mollified element, or a
    vector-field name; ``t`` is a nonnegative number or BoundedValue.  The
    operation is total on t >= 0:

      * t = 0 returns the resolved argument (identity);
      * small t returns the argument when C t^{1/2} ||A^{1/2} a|| certifies
        the move is below 2^-(K+2);
      * otherwise each retained mode is multiplied by an enclosure of its
        heat factor e^{-lam t}, the diagonal closed form (over a time
        interval, the hull of its values at the two ends).
    """
    if K < 0:
        raise ValueError("precision must be nonnegative")
    constants = constants or ConstantsTable.default()
    ends = (t.lower(), t.upper()) if isinstance(t, BoundedValue) \
        else (Fraction(t),) * 2
    t = _as_bv(t)
    if t.lower() < 0:
        raise ValueError("the semigroup needs t >= 0")
    fields, pairp = _components(resolve_field(a, K + 2))
    if t.upper() == 0:
        return _emit(fields, pairp)
    band = all(f.band_limited() for f in fields)
    if band:
        move = FloatBall.from_bounded(constants.C_half_time) \
            * fb_sqrt(FloatBall.from_bounded(t)) \
            * frac_power_norm(fields, Fraction(1, 2))
        if move.upper() <= 2.0 ** -(K + 2):
            return _emit(fields, pairp)
    if t.lower() <= 0:
        raise ValueError("time enclosure touches zero but the small-time "
                         "bound does not certify the identity output")
    cutoff = max(f.cutoff for f in fields)
    fac = _heat_factor(cutoff, ends[1])
    if ends[0] != ends[1]:
        fac = _heat_hull(fac, _heat_factor(cutoff, ends[0]))
    # the constructor's mode mask keeps only the live modes, and input tails
    # pass through by contractivity
    return _emit([FourierField(f.basis, f.cutoff, f.grid
                               * fac[:f.cutoff + 1, :f.cutoff + 1], f.tail_l2)
                  for f in fields], pairp)


# ---------------------------------------------------------------------------
# Fractional powers
# ---------------------------------------------------------------------------

def frac_power_apply(a, alpha):
    """A^alpha a by mode-wise multiplication with (pi^2 (n^2+m^2))^alpha.

    alpha must be rational in (0, 1).  Non-band-limited inputs need a stored
    H^{2 alpha} tail bound (mollified elements are resolved with one); the
    output then carries the propagated L2 tail pi^{2 alpha} t_{2 alpha}.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError("fractional power exponent must lie in (0, 1)")
    fields, pairp = _components(resolve_field(a, 0, hs_tails=(2 * alpha,)))
    out = []
    pia = fb_pow(FB_PI, 2 * alpha)
    for f in fields:
        if f.band_limited():
            tail = FloatBall(0.0)
        elif 2 * alpha in f.tail_hs:
            tail = pia * f.tail_hs[2 * alpha]
        else:
            raise ValueError("insufficient data: fractional power needs an "
                             "H^%s tail bound" % (2 * alpha))
        live = f.weights() > 0
        table = mode_weights(f.cutoff, "stokes", alpha)
        grid = f.grid * BallGrid(table.c * live, table.r * live)
        out.append(FourierField(f.basis, f.cutoff, grid, tail))
    return _emit(out, pairp)


def frac_power_norm(fields, beta) -> FloatBall:
    """||A^beta u||_2 of band-limited fields u: the root of
    sum (pi^2 (n^2 + m^2))^{2 beta} rho a^2 over their modes, each field's
    sum under the gamma_n rule of `BallGrid.sumsq_ball`."""
    total = FloatBall(0.0)
    for f in fields:
        f._require_band_limited("fractional-power norm")
        total = total + f.weighted_sq_ball("stokes", 2 * Fraction(beta))
    return fb_sqrt(total)
