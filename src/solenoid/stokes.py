"""The Stokes semigroup on the unit square by contour integration, and
fractional powers of the generator.

On divergence-free product-basis expansions the Stokes operator acts
diagonally: mode (n, m) carries the eigenvalue lam = pi^2 (n^2 + m^2).  The
semigroup is evaluated from the sectorial contour representation

    e^{-tA} a = (1/2 pi i) int_Gamma e^{lambda t} (lambda I + A)^{-1} a dlambda

with Gamma the pair of rays r e^{+-i beta}, beta = 3 pi / 5.  Conjugate
symmetry collapses the two rays into one real integral per mode,

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

Fractional powers A^alpha act mode-wise by lam^alpha.  The integral
representation  A^alpha = (sin(pi alpha)/pi) int_0^inf t^{alpha-1}
A (tI + A)^{-1} dt  is carried as an independent certified route
(:func:`power_integral`) so the closed form can be cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

import numpy as np

from .approxcore import (
    BoundedValue, ConstantsTable, bv_pi, bv_pow, bv_sin, certified_integral,
    cos_contour_angle, gamma_tail,
)
from .floatball import (
    EPS, FB_PI, TINY, BallGrid, FloatBall, fb_exp, fb_pow, fb_sincos, fb_sqrt,
)
from .helmholtz import resolve_field
from .spectral import FourierField

__all__ = [
    "ContourSpec", "contour_factors", "heat_factor",
    "resolvent_apply", "tail_cutoff_l", "mode_cutoff", "semigroup_apply",
    "frac_power_apply", "power_integral", "smoothing_bound_check",
]

BETA_OF_PI = Fraction(3, 5)           # the contour half-angle is 3 pi / 5

# cos(3 pi/5) < 0 < sin(3 pi/5), as tight balls
_CB = FloatBall.from_bounded(cos_contour_angle(60))
_SB = FloatBall.from_bounded(bv_sin(bv_pi(70).scale(BETA_OF_PI), 60))
_PI2 = FB_PI * FB_PI


def _as_bv(x) -> BoundedValue:
    if isinstance(x, BoundedValue):
        return x
    return BoundedValue.from_fraction(Fraction(x))


# ---------------------------------------------------------------------------
# Contour bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContourSpec:
    """Radial cutoff and panel count actually used for one contour pass."""
    l: float
    quadrature_points: int
    beta_of_pi: Fraction = BETA_OF_PI

    def __post_init__(self):
        if not self.l > 0:
            raise ValueError("contour cutoff must be positive")


def _gamma3_value(l: float, t: BoundedValue, K: int) -> BoundedValue:
    """Upper enclosure of (1/(pi sin beta)) int_l^inf e^{t r cos beta}/r dr,
    the per-unit-coefficient remainder of cutting the contour at l."""
    prec = max(80, K + 40)
    g = gamma_tail(BoundedValue.exact(Fraction(l)), t, k=K + 12)
    den = bv_pi(prec) * bv_sin(bv_pi(prec).scale(BETA_OF_PI), prec)
    return g / den


def tail_cutoff_l(t, norm_a, K: int) -> BoundedValue:
    """Radial cutoff l with certified contour remainder at most 2^-(K+7).

    The remainder per component is gamma_3 * ||a||; the search doubles l from
    a closed-form float estimate until the certified bound closes.  Requires
    t > 0 (a time enclosure touching zero must take the small-time path of
    :func:`semigroup_apply` instead).
    """
    t = _as_bv(t)
    norm = _as_bv(norm_a)
    if t.lower() <= 0:
        raise ValueError("tail cutoff needs t > 0; route times near zero "
                         "through the small-time path")
    if float(norm.upper()) <= 0.0:
        return BoundedValue.exact(1)
    return BoundedValue.exact(Fraction(_tail_search(t, norm, K)[0]))


def _tail_search(t: BoundedValue, norm: BoundedValue, K: int) \
        -> Tuple[float, BoundedValue]:
    """The cutoff l of :func:`tail_cutoff_l` for a positive norm, together
    with the gamma_3 value that certified it."""
    target = Fraction(1, 1 << (K + 7))
    nf = float(norm.upper())
    # float pre-search with the closed-form bound e^{tcl}/(t|c|l pi sin beta)
    c = float(cos_contour_angle(60).upper())      # negative, safe side
    tl = float(t.lower())
    l = 1.0
    while l < 1e12:
        b = math.exp(tl * c * l) / (tl * -c * l * math.pi * 0.95) * nf
        if b <= float(target) * 0.5:
            break
        l *= 1.25
    for _ in range(40):
        g3 = _gamma3_value(l, t, K)
        if (g3 * norm).upper() <= target:
            return l, g3
        l *= 2.0
    raise RuntimeError("contour tail bound did not close")


# ---------------------------------------------------------------------------
# Rigorous ray quadrature
# ---------------------------------------------------------------------------

def _cmul(c1, r1, c2, r2):
    c = c1 * c2
    r = (np.abs(c1) * r2 + np.abs(c2) * r1 + r1 * r2) * (1 + 8 * EPS) \
        + np.abs(c) * 4 * EPS + TINY
    return c, r


def _c_from_fb(re: FloatBall, im: FloatBall):
    c = complex(re.c, im.c)
    return c, (re.r + im.r) * (1 + 4 * EPS) + TINY


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


def _exp_moments(z_c: complex, z_r: float, J: int):
    """Enclosures of A_j = int_{-1}^{1} v^j e^{z v} dv for j = 0..J."""
    KMAX = 34
    zmag = abs(z_c) + z_r
    if zmag > 2.0:
        raise RuntimeError("moment series argument out of range")
    zp_c = np.empty(KMAX + 1, dtype=complex)
    zp_r = np.empty(KMAX + 1)
    zp_c[0], zp_r[0] = 1.0, 0.0
    for k in range(1, KMAX + 1):
        zp_c[k], zp_r[k] = _cmul(zp_c[k - 1], zp_r[k - 1], z_c, z_r)
    # M[j, k] = w_{j+k} / k!  with w_i = 2/(i+1) for even i, else 0
    jj = np.arange(J + 1)[:, None]
    kk = np.arange(KMAX + 1)[None, :]
    idx = jj + kk
    fact = np.array([math.factorial(k) for k in range(KMAX + 1)], dtype=float)
    M = np.where(idx % 2 == 0, 2.0 / (idx + 1), 0.0) / fact
    A_c = M @ zp_c
    A_r = M @ zp_r + (KMAX + 8) * EPS * (M @ np.abs(zp_c)) \
        + 2.0 * zmag ** (KMAX + 1) / math.factorial(KMAX + 1) \
        * math.exp(zmag) + TINY
    return A_c, A_r


def contour_factors(svals, t: FloatBall, l: float, J: int = 44):
    """Mode factors of the finite contour ray for eigenvalue indices svals.

    ``svals`` holds the integers n^2 + m^2 >= 1; the return is a pair of
    arrays (centers, radii) enclosing

        (1/pi) Im int_0^l e^{t r e^{i beta}} e^{i beta}
                          / (r e^{i beta} + pi^2 s) dr

    for each s.  Together with the gamma_3 remainder this encloses the heat
    factor e^{-t pi^2 s}.  The panel schedule is deterministic.
    """
    s = np.asarray(svals, dtype=float)
    if s.size == 0:
        return np.zeros(0), np.zeros(0), 0
    if s.min() < 1:
        raise ValueError("eigenvalue indices must be >= 1")
    lam_c = _PI2.c * s
    lam_r = (_PI2.r * s + np.abs(lam_c) * 4 * EPS) + TINY
    lam_min = _PI2.lower() * float(s.min())
    eib = _c_from_fb(_CB, _SB)
    t_hi = t.upper()
    if not t.lower() > 0:
        raise ValueError("contour quadrature needs t > 0")
    tot_c = np.zeros(s.shape, dtype=complex)
    tot_r = np.zeros(s.shape)
    panels = _panels(t_hi, l, lam_min)
    for mid, h in panels:
        zre = (t * _CB).scale(Fraction(h))
        zim = (t * _SB).scale(Fraction(h))
        A_c, A_r = _exp_moments(complex(zre.c, zim.c),
                                zre.r + zim.r + TINY, J)
        ex = fb_exp((t * _CB).scale(Fraction(mid)))
        sph, cph = fb_sincos((t * _SB).scale(Fraction(mid)))
        env = _c_from_fb(ex * cph, ex * sph)
        pref = _cmul(env[0], env[1], eib[0] * h, eib[1] * h)
        d_c = mid * eib[0] + lam_c
        d_r = mid * eib[1] + lam_r + np.abs(d_c) * 4 * EPS + TINY
        mag = np.abs(d_c)
        gap = mag - d_r
        if not gap.min() > 0:
            raise RuntimeError("contour denominator enclosure touches zero")
        inv_c = 1.0 / d_c
        inv_r = d_r / (gap * mag) * (1 + 8 * EPS) \
            + np.abs(inv_c) * 4 * EPS + TINY
        w_c, w_r = _cmul(-h * eib[0], h * eib[1], inv_c, inv_r)
        wmag = np.abs(w_c) + w_r
        if wmag.max() > 0.6:
            raise RuntimeError("geometric panel ratio out of range")
        S_c = np.full(s.shape, A_c[J])
        S_r = np.full(s.shape, A_r[J])
        for j in range(J - 1, -1, -1):
            S_c, S_r = _cmul(w_c, w_r, S_c, S_r)
            S_c = S_c + A_c[j]
            S_r = S_r + A_r[j] + np.abs(S_c) * 2 * EPS + TINY
        zmag = abs(complex(zre.c, zim.c)) + zre.r + zim.r
        S_r = S_r + wmag ** (J + 1) / (1.0 - wmag) * 2.2 * math.exp(zmag)
        is_c, is_r = _cmul(inv_c, inv_r, S_c, S_r)
        p_c, p_r = _cmul(pref[0], pref[1], is_c, is_r)
        tot_c = tot_c + p_c
        tot_r = tot_r + p_r + np.abs(tot_c) * 2 * EPS + TINY
    out_c = tot_c.imag / FB_PI.c
    out_r = (tot_r + np.abs(out_c) * FB_PI.r) / (FB_PI.c - FB_PI.r) \
        * (1 + 8 * EPS) + np.abs(out_c) * 4 * EPS + TINY
    return out_c, out_r, len(panels)


def heat_factor(s: int, t) -> FloatBall:
    """Enclosure of the diagonal heat multiplier e^{-t pi^2 s}."""
    t = t if isinstance(t, FloatBall) else FloatBall.exact(Fraction(t))
    return fb_exp(-(_PI2 * FloatBall.exact(s) * t))


# ---------------------------------------------------------------------------
# Field plumbing
# ---------------------------------------------------------------------------

def _components(u) -> Tuple[list, bool]:
    """A resolved field argument as a list of FourierFields, and whether the
    caller should re-emit a component pair."""
    return (list(u), True) if isinstance(u, tuple) else ([u], False)


def _emit(fields, pairp):
    return (fields[0], fields[1]) if pairp else fields[0]


def _live_svals(field: FourierField) -> np.ndarray:
    n = np.arange(field.cutoff + 1)
    s = n[:, None] ** 2 + n[None, :] ** 2
    return s[field.weights() > 0]


def _apply_diagonal(field: FourierField, uniq: np.ndarray, fac_c: np.ndarray,
                    fac_r: np.ndarray, tail: FloatBall) -> FourierField:
    shape = field.grid.shape
    if uniq.size == 0:
        return FourierField(field.basis, field.cutoff, BallGrid.zeros(shape),
                            tail)
    n = np.arange(field.cutoff + 1)
    s = n[:, None] ** 2 + n[None, :] ** 2
    live = field.weights() > 0
    idx = np.searchsorted(uniq, np.where(live, s, uniq[0]))
    fc = np.where(live, fac_c[idx], 0.0)
    fr = np.where(live, fac_r[idx], 0.0)
    grid = field.grid * BallGrid(fc, fr)
    return FourierField(field.basis, field.cutoff, grid, tail)


def _l2_upper(field: FourierField) -> float:
    return math.sqrt(max(field.l2_sq_ball().upper(), 0.0))


# ---------------------------------------------------------------------------
# Resolvent and semigroup
# ---------------------------------------------------------------------------

def resolvent_apply(a, lam):
    """(lam I + A)^{-1} a by mode-wise division on a band-limited field.

    ``lam`` is a real FloatBall/number or a pair (re, im) of them; complex
    values return a (real part, imaginary part) pair of fields.  A division
    interval containing zero means lam sits off the admissible contour and
    raises ValueError.
    """
    fields, pairp = _components(resolve_field(a, 0))
    if isinstance(lam, tuple):
        lre, lim = (x if isinstance(x, FloatBall) else
                    FloatBall.exact(Fraction(x)) for x in lam)
    else:
        lre = lam if isinstance(lam, FloatBall) else \
            FloatBall.exact(Fraction(lam))
        lim = FloatBall(0.0)
    complexp = lim.mag() > 0.0
    out_re, out_im = [], []
    for f in fields:
        f._require_band_limited("resolvent")
        n = np.arange(f.cutoff + 1)
        s = n[:, None] ** 2 + n[None, :] ** 2
        live = f.weights() > 0
        d_c = lre.c + 1j * lim.c + _PI2.c * s
        d_r = lre.r + lim.r + _PI2.r * s + np.abs(d_c) * 4 * EPS + TINY
        mag = np.abs(d_c)
        gap = np.where(live, mag - d_r, 1.0)
        if not gap.min() > 0:
            raise ValueError("resolvent division interval contains zero "
                             "(lambda off the admissible contour)")
        inv_c = np.where(live, 1.0 / np.where(live, d_c, 1.0), 0.0)
        inv_r = np.where(live, d_r / (gap * np.where(live, mag, 1.0))
                         * (1 + 8 * EPS) + np.abs(inv_c) * 4 * EPS
                         + TINY, 0.0)
        gr = f.grid * BallGrid(inv_c.real, inv_r)
        out_re.append(FourierField(f.basis, f.cutoff, gr))
        if complexp:
            gi = f.grid * BallGrid(inv_c.imag, inv_r)
            out_im.append(FourierField(f.basis, f.cutoff, gi))
    if complexp:
        return _emit(out_re, pairp), _emit(out_im, pairp)
    return _emit(out_re, pairp)


def mode_cutoff(t, a, l, K: int) -> int:
    """Smallest k certifying the contour mode-truncation bound

        (1 + 2 k^2)^{-1} (l e^{l t} / 2 pi)^2
            sum (1 + n^2 + m^2)(|a1|^2 + |a2|^2) rho  <  2^{-2(K+7)}.

    The weighted coefficient sum is the squared H^1-type norm the dense-set
    elements carry; the bound is extremely conservative (it majorizes the
    oscillatory ray integral by its length), so the returned k can be far
    beyond the band actually needed.
    """
    t = _as_bv(t)
    l = _as_bv(l)
    fields, _ = _components(resolve_field(a, K + 2, hs_tails=(Fraction(1),)))
    S = Fraction(0)
    for f in fields:
        h1 = f.hs_norm(1)
        S += Fraction(h1.upper()) ** 2
    prec = max(80, 2 * K + 40)
    from .approxcore import bv_exp
    le = l * bv_exp(l * t, prec)
    B = le / bv_pi(prec).scale(2)
    rhs = Fraction(B.upper()) ** 2 * S * (1 << (2 * (K + 7)))
    if rhs <= 1:
        return 0
    k = math.isqrt(int((rhs - 1) / 2)) + 1
    while k > 0 and (1 + 2 * (k - 1) ** 2) > rhs:
        k -= 1
    return k


def semigroup_apply(a, t, K: int, constants: ConstantsTable = None,
                    force_contour: bool = False):
    """2^-K approximation of e^{-tA} a.

    ``a`` is a component pair, a single field, a mollified element, or a
    vector-field name; ``t`` is a nonnegative number or BoundedValue.  The
    operation is total on t >= 0:

      * t = 0 returns the resolved argument (identity);
      * small t returns the argument when C t^{1/2} ||A^{1/2} a|| certifies
        the move is below 2^-(K+2);
      * otherwise each retained mode is multiplied by the certified contour
        enclosure of its heat factor, the contour remainder goes into the
        output tail, and presented input tails pass through unchanged by
        contractivity of the semigroup.
    """
    if K < 0:
        raise ValueError("precision must be nonnegative")
    constants = constants or ConstantsTable.default()
    t = _as_bv(t)
    if t.lower() < 0:
        raise ValueError("the semigroup needs t >= 0")
    fields, pairp = _components(resolve_field(a, K + 2))
    if t.upper() == 0:
        return _emit(fields, pairp)
    band = all(f.band_limited() for f in fields)
    if band and not force_contour:
        half_sq = FloatBall(0.0)
        for f in fields:
            n = np.arange(f.cutoff + 1)
            s = (n[:, None] ** 2 + n[None, :] ** 2) * f.weights()
            sq = f.grid * f.grid
            hi = float(((np.abs(sq.c) + sq.r) * s).sum())
            half_sq = half_sq + _PI2 * FloatBall.from_rounded(0.0, hi *
                                                              (1 + 16 * EPS)
                                                              + TINY)
        move = constants.C_half_time.upper() \
            * math.sqrt(float(t.upper())) * fb_sqrt(half_sq).upper()
        if move <= 2.0 ** -(K + 2):
            return _emit(fields, pairp)
    if t.lower() <= 0:
        raise ValueError("time enclosure touches zero but the small-time "
                         "bound does not certify the identity output")
    tb = FloatBall.from_bounded(t)
    norm = math.hypot(*[_l2_upper(f) for f in fields])
    l, g3 = _tail_search(t, _as_bv(Fraction(norm) + Fraction(1, 10 ** 9)), K)
    g3 = float(g3.upper())
    uniq = np.unique(np.concatenate([_live_svals(f) for f in fields])) \
        if fields else np.zeros(0, dtype=int)
    fac_c, fac_r, _ = contour_factors(uniq, tb, l)
    # the per-mode contour remainder is at most g3 times the coefficient, so
    # widening the factor enclosure makes every mode ball contain the true
    # heat multiple; input tails pass through by contractivity
    fac_r = fac_r + g3
    out = [_apply_diagonal(f, uniq, fac_c, fac_r, f.tail_l2) for f in fields]
    return _emit(out, pairp)


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
        uniq = np.unique(_live_svals(f))
        fac_c = np.zeros(uniq.shape)
        fac_r = np.zeros(uniq.shape)
        for i, s in enumerate(uniq):
            b = fb_pow(_PI2 * FloatBall.exact(int(s)), alpha)
            fac_c[i], fac_r[i] = b.c, b.r
        out.append(_apply_diagonal(f, uniq, fac_c, fac_r, tail))
    return _emit(out, pairp)


def power_integral(s: int, alpha, k: int = 10) -> BoundedValue:
    """Certified value of int_0^inf t^{alpha-1} lam/(t+lam) dt, lam = pi^2 s.

    This is the integral representation of the fractional power before
    normalization: multiplied by sin(pi alpha)/pi it equals lam^alpha.  Kept
    as an independent route for cross-checking :func:`frac_power_apply`; the
    improper ends are handled by monotone sliver and tail bounds, the middle
    by adaptive Taylor-model quadrature.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError("fractional power exponent must lie in (0, 1)")
    if s < 1:
        raise ValueError("eigenvalue index must be >= 1")
    prec = max(80, k + 40)
    lam = (bv_pi(prec) * bv_pi(prec)).scale(s)
    target = Fraction(1, 1 << k)
    # reference scale: the value is lam^alpha pi/sin(pi alpha) ~ O(lam^alpha)
    # head [0, delta]: t^{alpha-1} lam/(t+lam) between the pure power and
    # its value at t = delta
    delta = Fraction(1, 4)
    while True:
        da = bv_pow(BoundedValue.exact(delta), alpha, prec).scale(1 / alpha)
        head_hi = da.upper()
        head_lo = (da * (lam / (lam + BoundedValue.exact(delta)))).lower()
        if head_hi - head_lo <= target / 4:
            break
        delta /= 4
    # tail [T, inf): 0 <= integrand <= lam t^{alpha-2}
    T = Fraction(4)
    while True:
        tail_hi = (bv_pow(BoundedValue.exact(T), alpha - 1, prec)
                   * lam).scale(1 / (1 - alpha)).upper()
        if tail_hi <= target / 4:
            break
        T *= 4

    def integrand(ts):
        return ts.pow_frac(alpha - 1) * lam / (ts + lam)

    mid = certified_integral(integrand, delta, T, target / 2, prec=prec,
                             max_panels=200000)
    return BoundedValue.from_endpoints(head_lo + mid.lower(),
                                       head_hi + mid.upper() + tail_hi, prec)


def smoothing_bound_check(a, alpha, t, constants: ConstantsTable = None) \
        -> Dict:
    """Diagnostic comparison of ||A^alpha e^{-tA} a|| with C_alpha t^-alpha
    ||a||.

    Both sides are certified enclosures (the left uses the exact diagonal
    heat multipliers, the right the configured constant); the report states
    the margin, it proves nothing beyond the two numbers.
    """
    alpha = Fraction(alpha)
    if not 0 <= alpha < 1:
        raise ValueError("exponent must lie in [0, 1)")
    t = _as_bv(t)
    if t.lower() <= 0:
        raise ValueError("smoothing check needs t > 0")
    constants = constants or ConstantsTable.default()
    fields, _ = _components(resolve_field(a, 8))
    tb = FloatBall.from_bounded(t)
    ca = FloatBall.from_bounded(constants.C_alpha(alpha))
    t_pow = fb_pow(tb, -alpha)
    lhs_sq = FloatBall(0.0)
    norm_sq = FloatBall(0.0)
    for f in fields:
        uniq = np.unique(_live_svals(f))
        for s in uniq:
            fac = fb_exp(-(_PI2 * FloatBall.exact(int(s)) * tb))
            if alpha:
                fac = fac * fb_pow(_PI2 * FloatBall.exact(int(s)), alpha)
            n = np.arange(f.cutoff + 1)
            sg = n[:, None] ** 2 + n[None, :] ** 2
            mask = (sg == s) & (f.weights() > 0)
            sq = f.grid * f.grid
            w = f.weights()
            hi = float(((np.abs(sq.c) + sq.r) * w * mask).sum())
            lo = float((np.clip(np.abs(sq.c) - sq.r, 0, None) * w
                        * mask).sum())
            block = FloatBall.from_rounded(lo * (1 - 16 * EPS),
                                           hi * (1 + 16 * EPS) + TINY)
            lhs_sq = lhs_sq + fac * fac * block
        tl = f.tail_l2.upper()
        if tl > 0.0:
            # Fact-2 style bound for the unresolved part
            ext = ca * t_pow * FloatBall.from_rounded(0.0, tl)
            lhs_sq = lhs_sq + ext * ext
        norm_sq = norm_sq + f.l2_sq_ball()
    lhs = fb_sqrt(lhs_sq.abs_ball())
    rhs = ca * t_pow * fb_sqrt(norm_sq.abs_ball())
    margin = rhs.lower() - lhs.upper()
    return {
        "alpha": str(alpha),
        "t": [str(Fraction(t.lower())), str(Fraction(t.upper()))],
        "lhs_upper": lhs.upper(),
        "rhs_lower": rhs.lower(),
        "margin": margin,
        "ok": bool(margin >= 0.0),
    }
