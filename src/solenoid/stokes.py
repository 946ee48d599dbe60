"""The Stokes semigroup on the unit square, and fractional powers of the
generator.

On divergence-free product-basis expansions the Stokes operator acts
diagonally: mode (n, m) carries the eigenvalue lam = pi^2 (n^2 + m^2).  At
every t > 0 the semigroup multiplies it by e^{-lam t} in closed form
(`floatball.grid_exp`, :func:`_heat_factor`), and over a time interval by
the hull of the factors at its two ends (:func:`_heat_hull`), which
reaches t = 0, where the factor is 1.  The paper's sectorial
contour representation

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
at -lam because |r e^{i beta} + lam| >= sin(beta) max(r, lam).  cos beta =
(1 - sqrt 5)/4 and sin beta = sqrt(10 + 2 sqrt 5)/4 are closed forms in
integer square roots (`approxcore.contour_angle`), and gamma_3's pi is the
60-digit literal, so the contour needs no transcendental library.

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
    _LITERAL_ERR, _PI, BoundedValue, contour_angle, gamma_tail,
)
from .floatball import (
    FB_PI, BallGrid, FloatBall, ball_matmul, fb_pow, fb_sincos, fb_sqrt,
    grid_exp, grid_sqrt, pow_up,
)
from .helmholtz import resolve_field
from .spectral import _PI2, FourierField, mode_weights

__all__ = [
    "contour_factors", "tail_cutoff_l", "semigroup_apply",
    "frac_power_apply", "frac_power_norm",
]

# cos(3 pi/5) < 0 < sin(3 pi/5), as tight balls
_COS_BETA, _SIN_BETA = map(FloatBall.from_bounded, contour_angle(60))


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
    pi = BoundedValue.from_endpoints(_PI - _LITERAL_ERR, _PI + _LITERAL_ERR,
                                     prec)
    return g / (pi * contour_angle(prec)[1])


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
    c = _COS_BETA.upper()
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
    sb_lo = _SIN_BETA.lower()
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
def _moment_matrix(jmax: int, kmax: int) -> BallGrid:
    """M[k, j] = w_{j+k}/k! for k <= kmax, j <= jmax, with w_i = 2/(i+1)
    for even i and 0 for odd i, as exact balls."""
    w = BallGrid.stack(FloatBall.exact(0 if i % 2 else Fraction(2, i + 1))
                       for i in range(jmax + kmax + 1))
    inv_fact = BallGrid.stack(FloatBall.exact(Fraction(1, math.factorial(k)))
                              for k in range(kmax + 1))
    idx = np.add.outer(np.arange(kmax + 1), np.arange(jmax + 1))
    return w[idx] * inv_fact.reshape(-1, 1)


def _pair(re, im) -> BallGrid:
    """The complex ball re + i im as the stack (re, im) on a new axis 0,
    for FloatBall parts or BallGrid parts of one shape."""
    return BallGrid.stack((re, im))


def _cmul(a: BallGrid, b: BallGrid) -> BallGrid:
    """The product (a0 b0 - a1 b1, a0 b1 + a1 b0) of stacked complex balls:
    a times the stack ((b0, b1), (-b1, b0)) of b's exact entries in one
    broadcast ball product, whose two rows then add."""
    c = b.c[[[0, 1], [1, 0]]]
    c[1, 0] *= -1.0
    p = a.reshape(2, 1, *a.shape[1:]) * BallGrid(c, b.r[[[0, 1], [1, 0]]])
    return p[0] + p[1]


def _cinv(a: BallGrid) -> BallGrid:
    """1/a = (a0, -a1)/(a0^2 + a1^2); the ball quotient raises
    ZeroDivisionError when the divisor ball holds 0."""
    return _pair(a[0], -a[1]) / (a[0] * a[0] + a[1] * a[1])


def _cabs(a: BallGrid):
    """An upper bound on |a|: the upper end of the root of a0^2 + a1^2."""
    return grid_sqrt(a[0] * a[0] + a[1] * a[1]).upper()


def _exp_moments(z: BallGrid, ez) -> BallGrid:
    """Enclosures of A_j = int_{-1}^{1} v^j e^{z v} dv for j = 0.._J, for a
    (2, P, 1) stack of |z| <= 2 and ez >= e^{|z|}, as a (2, P, _J + 1)
    stack: the series sum_k z^k M[k, j] through one `ball_matmul`, plus
    the tail past _KMAX, at most 2 |z|^{_KMAX+1}/(_KMAX+1)! e^{|z|} in each
    part.  The powers double: z^0 .. z^(m-1) times q = z^m is
    z^m .. z^(2m-1), and q squares."""
    p, q = _pair(z[0].one(), z[0].zero()), z
    while p.shape[-1] <= _KMAX + 1:
        r = _cmul(p, q)
        p = BallGrid.stack((p, r), -1, np.concatenate)
        q = _cmul(q, q)
    A = ball_matmul(p[..., :_KMAX + 1], _moment_matrix(_J, _KMAX))
    rem = BallGrid(_cabs(p[..., _KMAX + 1:_KMAX + 2])) * BallGrid(ez) \
        * FloatBall.exact(Fraction(2, math.factorial(_KMAX + 1)))
    return A.widened(rem.upper())


def contour_factors(svals, t: FloatBall, l: float):
    """Mode factors of the finite contour ray for eigenvalue indices svals.

    ``svals`` holds the integers n^2 + m^2 >= 1; the return is a pair of
    arrays (centers, radii) enclosing

        (1/pi) Im int_0^l e^{t r e^{i beta}} e^{i beta}
                          / (r e^{i beta} + pi^2 s) dr

    for each s, and the panel count.  Together with the gamma_3 remainder
    this encloses the heat factor e^{-t pi^2 s}.  The panel schedule is
    deterministic.  On each panel the integrand is h e^{i beta}
    e^{t mid e^{i beta}} e^{z v}/(d + h e^{i beta} v), v in [-1, 1],
    z = t h e^{i beta}, d = mid e^{i beta} + lam; with w = -h e^{i beta}/d
    the denominator is the geometric series sum_j w^j v^j / d, summed by
    Horner to order _J, and the terms past _J add at most
    2 e^{|z|} |w|^{_J+1}/(1 - |w|).  Each complex number is a stack of its
    real and imaginary parts (`_pair`), so every operation is a real ball
    rule of `floatball`; the panels run together on axis 1 of the stacks
    and the modes on axis 2, and their contributions add in panel order.
    """
    s = np.asarray(svals, dtype=float)
    if s.size == 0:
        return np.zeros(0), np.zeros(0), 0
    if s.min() < 1:
        raise ValueError("eigenvalue indices must be >= 1")
    if not t.lower() > 0:
        raise ValueError("contour quadrature needs t > 0")
    lam = _pair(BallGrid(s[None]) * _PI2, BallGrid.zeros((1, s.size)))
    cb, sb = _COS_BETA, _SIN_BETA
    eib = _pair(cb, sb).reshape(2, 1, 1)
    panels = _panels(t.upper(), l, _PI2.lower() * float(s.min()))
    mid, h = (BallGrid(np.array(v)[:, None]) for v in zip(*panels))
    z = _pair(h * (t * cb), h * (t * sb))
    zmag = _cabs(z)
    if zmag.max() > 2.0:
        raise RuntimeError("moment series argument out of range")
    ez = grid_exp(BallGrid(zmag)).upper()
    A = _exp_moments(z, ez)
    ex = grid_exp(mid * (t * cb))
    sph, cph = (BallGrid.stack(v).reshape(-1, 1) for v in zip(
        *(fb_sincos(t * sb * FloatBall(m)) for m, _ in panels)))
    heib = eib * h
    pref = _cmul(_pair(ex * cph, ex * sph), heib)
    inv = _cinv(eib * mid + lam)
    w = _cmul(-heib, inv)
    wmag = _cabs(w)
    if wmag.max() > 0.6:
        raise RuntimeError("geometric panel ratio out of range")
    S = A[..., _J:]
    for j in range(_J - 1, -1, -1):
        S = _cmul(w, S) + A[..., j:j + 1]
    tail = BallGrid(pow_up(wmag, _J + 1)) \
        / (BallGrid(1.0) - BallGrid(wmag))
    S = S.widened((tail * (BallGrid(ez) * FloatBall(2.0))).upper())
    terms = _cmul(pref, _cmul(inv, S))
    out = sum(terms[1, i] for i in range(len(panels))) \
        * (FloatBall(1.0) / FB_PI)
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
    """Upper bound on the joint L2 norm of fields: the root of the sum of
    their `l2_sq_ball`, each field's band norm widened by its tail."""
    return fb_sqrt(sum(f.l2_sq_ball() for f in fields)).upper()


# ---------------------------------------------------------------------------
# Semigroup
# ---------------------------------------------------------------------------

# an engine at the panel ladder's top, P = 64 cells, reads the 65 tables
# k h, k = 0..64: a cache of 64 would cycle and keep none of them warm
@lru_cache(maxsize=128)
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


def semigroup_apply(a, t, K: int):
    """2^-K approximation of e^{-tA} a.

    ``a`` is a component pair, a single field, a mollified element, or a
    vector-field name; ``t`` is a nonnegative number or BoundedValue.  At
    t = 0 the resolved argument is returned (identity); at any other time
    each retained mode is multiplied by an enclosure of its heat factor
    e^{-lam t}, the diagonal closed form (over a time interval, the hull of
    its values at the two ends, so an interval reaching down to 0 is
    enclosed too).
    """
    if K < 0:
        raise ValueError("precision must be nonnegative")
    ends = (t.lower(), t.upper()) if isinstance(t, BoundedValue) \
        else (Fraction(t),) * 2
    if ends[0] < 0:
        raise ValueError("the semigroup needs t >= 0")
    fields, pairp = _components(resolve_field(a, K + 2))
    if ends[1] == 0:
        return _emit(fields, pairp)
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

@lru_cache(maxsize=None)
def _pi_power(q: Fraction) -> FloatBall:
    """pi^q, the factor of a propagated H^q tail; cached per exponent, as
    an exponent off the square root and the integers costs a log and two
    exp series."""
    return fb_pow(FB_PI, q)


def frac_power_apply(a, alpha):
    """A^alpha a by mode-wise multiplication with (pi^2 (n^2+m^2))^alpha.

    alpha must be rational in (0, 1).  Non-band-limited inputs need a stored
    H^{2 alpha} tail bound (mollified elements are resolved with one); the
    output then carries the propagated L2 tail pi^{2 alpha} t_{2 alpha}.
    A vector-field name raises ValueError: its L2 approximants bound no
    error of A^alpha, which is unbounded on L2.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError("fractional power exponent must lie in (0, 1)")
    fields, pairp = _components(resolve_field(a, hs_tails=(2 * alpha,)))
    out = []
    for f in fields:
        if f.band_limited():
            tail = FloatBall(0.0)
        elif 2 * alpha in f.tail_hs:
            tail = _pi_power(2 * alpha) * f.tail_hs[2 * alpha]
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
