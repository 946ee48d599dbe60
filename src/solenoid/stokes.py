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

Fractional powers A^alpha act mode-wise by lam^alpha, and the norm
||A^beta u|| is the root of the weighted coefficient sum
sum lam^{2 beta} rho |a|^2 (:func:`frac_power_norm`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Tuple

import numpy as np

from .approxcore import (
    BoundedValue, ConstantsTable, bv_pi, bv_sin, cos_contour_angle, gamma_tail,
)
from .floatball import (
    EPS, FB_PI, TINY, BallGrid, FloatBall, fb_exp, fb_pow, fb_sincos, fb_sqrt,
)
from .helmholtz import resolve_field
from .spectral import _PI2, FourierField, mode_weights

__all__ = [
    "contour_factors", "heat_factor", "tail_cutoff_l", "semigroup_apply",
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


def _l2_upper(fields) -> float:
    """Upper bound on the joint L2 norm of fields, tails included."""
    return fb_sqrt(sum(f.l2_sq_ball() for f in fields)).upper()


# ---------------------------------------------------------------------------
# Semigroup
# ---------------------------------------------------------------------------

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
        move = constants.C_half_time.upper() \
            * math.sqrt(float(t.upper())) \
            * frac_power_norm(fields, Fraction(1, 2)).upper()
        if move <= 2.0 ** -(K + 2):
            return _emit(fields, pairp)
    if t.lower() <= 0:
        raise ValueError("time enclosure touches zero but the small-time "
                         "bound does not certify the identity output")
    tb = FloatBall.from_bounded(t)
    norm = _l2_upper(fields)
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
