"""The nonlinear layer: B(u) = P(u.grad)u, the Picard iteration, the
computable contraction horizon, and pressure recovery.

The iteration

    u_{m+1}(t) = e^{-tA} a - int_0^t e^{-(t-s)A} B u_m(s) ds

is evaluated on a band-limited seed obtained by truncating and re-projecting
a resolved approximant of the initial datum.  Every quantity the engine
touches is an enclosure: time enters as an interval, mode coefficients are
balls, and whatever cannot be kept inside the band (truncated products,
bilinear cross terms against the seed defect, quadrature end slivers) is
tracked in a scalar defect vector indexed by the fractional-power channels
A^beta, beta in {0, 1/4, 1/2, 3/5}.  The defect propagates through one time
step via the smoothing estimate ||A^beta e^{-tau A} x|| <=
tau^{-(beta+1/4)} ||A^{-1/4} x||, whose constant is 1 (`ConstantsTable`
states why, and so every smoothing constant drops out of the formulas),
together with the bilinear bound

    ||A^{-1/4}(B u - B v)||_2
        <= M (||A^{1/4}(u-v)|| ||A^{1/2}u|| + ||A^{1/4}v|| ||A^{1/2}(u-v)||),

so the recursion closes with computable numbers.  Time quadrature uses a
uniform dyadic panel grid on [0, t]; panel values are semigroup enclosures
with interval time, the head panel is an exponential hull down to tau = 0,
and panel counts, from one panel, double until the certified radius meets
budget.

The contraction certificate mirrors the fixed-point analysis: a seed
resolution k-hat, a horizon T_a from the scaling inequality on
max{T^{1/4}, T^{1/2}} max{||A^{1/4}a||, ||A^{1/2}a||}, the recursive K and M
tables, the cap 4 k0 (sqrt2 - 1)/sqrt2, and the contraction factor
epsilon = 2 Ctilde K_cap < 1, which holds for every datum by arithmetic.
No run on a certificate reads its M table, so the certificate builds it on
first read (its JSON form does).
The horizon and the small-time modulus theta_2 ask one Claim-1 question,
at T = 2^-j and against different bounds b: is T^{1/4} mx + forcing(T) < b
for mx = max{||A^{1/4}a||, ||A^{1/2}a||}?  With d = b - forcing(T) it holds
exactly when d > 0 and T mx^4 < d^4, so `_claim1_exponent` decides it
exactly in integers, with no root, and returns the least such j.  The
maximum is ||A^{1/2}a||: every mode of a (sin.cos, cos.sin) pair has
n^2 + m^2 >= 1, so lambda = pi^2 (n^2 + m^2) >= pi^2, lambda^{1/2} <=
lambda / pi termwise, and ||A^{1/4}a|| <= pi^{-1/2} ||A^{1/2}a||.  So mx
is an upper end of ||A^{1/2}a|| alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .approxcore import BoundedValue, ConstantsTable, Name, bv_sqrt
from .floatball import (
    FB_PI, BallGrid, FloatBall, _float_up, ball_matmul, ceil_log2, fb_pow,
    fb_sqrt, grid_exp, grid_log, grid_sqrt,
)
from .helmholtz import VectorFieldName, _as_pair, project, project_pair
from .polyfield import MollifiedElement
from .spectral import (
    _PI2, FourierField, SobolevName, _bilinear, _norm2, _trig_values,
    axis_trig_moments, differentiate, mollified_field_pair, multiply,
    sup_constant, weighted_sq_terms,
)
from .stokes import (
    _heat_factor, _heat_hull, _l2_upper, frac_power_norm, semigroup_apply,
)

__all__ = [
    "BudgetError", "Forcing", "HorizonError", "IterationCertificate",
    "LiftResult", "PressureQuery", "compute_horizon", "eta_modulus",
    "iterate", "nonlinearity", "nonlinearity_pair", "pressure", "smoothness_lift",
    "solve",
]

F14, F12, F35 = Fraction(1, 4), Fraction(1, 2), Fraction(3, 5)
_DEFECT_BETAS = (Fraction(0), F14, F12, F35)
# the fixed-point cap factor 4 (sqrt2 - 1)/sqrt2 = 4 - 2 sqrt2
_WSTAR = FloatBall(4.0) - FloatBall(2.0) * fb_sqrt(FloatBall(2.0))


class HorizonError(ValueError):
    """Requested time lies outside the certified contraction horizon."""


class BudgetError(RuntimeError):
    """The certified radius could not be brought below the requested budget."""


# the band-limited product; the engine calls it by this module-level name,
# which a profiler can rebind to count the calls
_mul_fast = FourierField.multiply


def nonlinearity_pair(u1: FourierField, u2: FourierField) \
        -> Tuple[FourierField, FourierField]:
    """B(u) = P(u.grad)u for a band-limited (sin.cos, cos.sin) pair.

    Exact up to enclosure arithmetic; the product doubles the band.
    """
    if u1.basis != "sc" or u2.basis != "cs":
        raise ValueError("the nonlinearity needs component 1 in sin.cos and "
                         "component 2 in cos.sin")
    du = (u1.derivative(1), u1.derivative(2),
          u2.derivative(1), u2.derivative(2))
    return project_pair(*_convection(u1, u2, du))


def _convection(u1: FourierField, u2: FourierField, du) \
        -> Tuple[FourierField, FourierField]:
    """(u.grad)u for a band-limited pair, unprojected, from its first
    derivatives ``du`` = (d/dx u1, d/dy u1, d/dx u2, d/dy u2)."""
    return (_mul_fast(u1, du[0]) + _mul_fast(u2, du[1]),
            _mul_fast(u1, du[2]) + _mul_fast(u2, du[3]))


def _strip_tail(f: FourierField) -> FourierField:
    return FourierField(f.basis, f.cutoff, f.grid)


def _trunc_band(f: FourierField, cap: int) -> Tuple[FourierField, float]:
    """Band-limited truncation and an upper bound on the discarded L2 mass
    (presented tail included)."""
    t = f.truncated(cap)
    return _strip_tail(t), t.tail_l2.upper()


def nonlinearity(u, K: int):
    """2^-K approximant of B(u) = P(u.grad)u.

    Accepts a band-limited (sc, cs) pair (exact route), a pair carrying
    H^{6/5} tail data or a mollified element (truncation route with a
    certified product defect), or a pair of SobolevNames with s >= 6/5
    (literal route through differentiate/multiply/project with the budget
    split three ways).  The product estimates read the sup-norm embedding
    constant `spectral.sup_constant`, which depends on no table.
    """
    if K < 0:
        raise ValueError("precision must be nonnegative")
    if isinstance(u, tuple) and len(u) == 2 and \
            all(isinstance(c, SobolevName) for c in u):
        s = u[0].s
        if s < Fraction(6, 5) or u[1].s < Fraction(6, 5):
            raise ValueError("insufficient smoothness: the nonlinearity "
                             "needs H^{6/5} data")
        n1, n2 = u
        d = {(i, ax): differentiate(comp, ax)
             for i, comp in enumerate((n1, n2)) for ax in (1, 2)}

        def pair_query(k: int):
            t11 = multiply(n1, d[(0, 1)]).refine(k + 2)
            t12 = multiply(n2, d[(0, 2)]).refine(k + 2)
            t21 = multiply(n1, d[(1, 1)]).refine(k + 2)
            t22 = multiply(n2, d[(1, 2)]).refine(k + 2)
            return t11 + t12, t21 + t22

        return project(VectorFieldName(Name(pair_query)), K)
    if isinstance(u, MollifiedElement):
        # not `spectral.resolve_element`: a rung here passes on the H^{6/5}
        # product defect, not on an L2 tail (ROADMAP item 8 changes that)
        for cut in (32, 64, 128):
            pair = mollified_field_pair(u, cut, hs_tails=(Fraction(6, 5),))
            try:
                return nonlinearity(pair, K)
            except BudgetError:
                continue
        raise BudgetError("the mollified expansion does not certify the "
                          "nonlinearity at this precision")
    if not (isinstance(u, tuple) and len(u) == 2):
        raise TypeError("expected a component pair, got %r" % type(u).__name__)
    f1, f2 = u
    if all(f.band_limited() for f in (f1, f2)):
        return nonlinearity_pair(_strip_tail(f1), _strip_tail(f2))
    s65 = Fraction(6, 5)
    for f in (f1, f2):
        if not f.band_limited() and s65 not in f.tail_hs:
            raise ValueError("insufficient smoothness: the nonlinearity "
                             "needs H^{6/5} data")
    tau = _norm2([0.0 if f.band_limited() else f.tail_hs[s65].upper()
                  for f in (f1, f2)])
    band = (_strip_tail(f1), _strip_tail(f2))
    cs = sup_constant(s65)
    h1_band = fb_sqrt(sum(f.weighted_sq_ball("sobolev", 1) for f in band))
    sup_band = _norm2([f.sup_upper() for f in band])
    defect = ((cs * tau * FB_PI * (h1_band + tau)
               + sup_band * FB_PI * tau)).upper()
    if defect > 2.0 ** -K:
        raise BudgetError("H^{6/5} tail data too coarse for this precision")
    return _fold_defect(nonlinearity_pair(*band), defect)


# ---------------------------------------------------------------------------
# contraction certificate
# ---------------------------------------------------------------------------

@dataclass
class IterationCertificate:
    """Computable constants certifying the Picard contraction on [0, T_a]
    for one datum and one forcing (None without forcing): every run on the
    certificate uses that forcing."""

    T_a: BoundedValue
    k0: BoundedValue
    K_beta_m: Dict[Fraction, List[BoundedValue]]
    K_cap: BoundedValue
    epsilon: BoundedValue
    L: BoundedValue
    w_m: Tuple[Fraction, ...]
    k_hat: int
    seed: Tuple[FourierField, FourierField]
    seed_res: Fraction
    a_norm: BoundedValue
    half_norm: float
    constants: ConstantsTable
    forcing: Optional["Forcing"] = None
    _balls: Dict[object, FloatBall] = field(default_factory=dict, repr=False,
                                            compare=False)

    def ball(self, key, bounded: Callable[[], BoundedValue]) -> FloatBall:
        """The FloatBall of one of the certificate's constants: ``bounded``
        gives its BoundedValue, converted on the first call only and then
        read from the cache under ``key``."""
        if key not in self._balls:
            self._balls[key] = FloatBall.from_bounded(bounded())
        return self._balls[key]

    @cached_property
    def M_beta_m(self) -> Dict[Fraction, List[BoundedValue]]:
        """The M table, x_{beta,0} = a_norm, built on first read: only the
        JSON form of the certificate reads it, no run on it does."""
        coef = _datum_free_tables(self.constants)[7]  # the Beta coefficients
        return _recursion({b: self.a_norm for b in _M_BETAS}, coef,
                          self.constants.M)

    @property
    def forcing_sup(self) -> float:
        """The forcing's uniform L2 bound, 0 without forcing."""
        return self.forcing.sup_l2 if self.forcing is not None else 0.0

    @property
    def T_frac(self) -> Fraction:
        return self.T_a.lower()

    @property
    def j_a(self) -> int:
        """The exponent j of the horizon T_a = 2^-j."""
        return self.T_frac.denominator.bit_length() - 1

    @property
    def seed_cutoff(self) -> int:
        return max(f.cutoff for f in self.seed)

    def to_json(self) -> dict:
        def tab(d):
            return {str(k): [v.to_json() for v in vs] for k, vs in d.items()}
        return {
            "T_a": self.T_a.to_json(),
            "k0": self.k0.to_json(),
            "K_cap": self.K_cap.to_json(),
            "epsilon": self.epsilon.to_json(),
            "L": self.L.to_json(),
            "K_beta_m": tab(self.K_beta_m),
            "M_beta_m": tab(self.M_beta_m),
            "w_m": [str(w) for w in self.w_m],
            "k_hat": self.k_hat,
            "seed_res": str(self.seed_res),
            "a_norm": self.a_norm.to_json(),
        }


def _forcing_term(T: Fraction, G: float) -> Fraction:
    """sup over beta in {1/4, 1/2} of T^beta T^{1-beta}/(1-beta) G = 2 T G,
    exactly."""
    return 2 * T * Fraction(G)


def _claim1_exponent(mx: Fraction, b: Fraction, G: float, j0: int,
                     j_max: int) -> Optional[int]:
    """The least j in [j0, j_max] whose horizon T = 2^-j passes the Claim-1
    test T^{1/4} mx + forcing(T) < b, or None when none does.  With
    d = b - forcing(T), the test holds exactly when d > 0 and T mx^4 < d^4,
    a comparison of rationals decided without a root.  It runs in integers:
    with mx^4 = p/q, b = bn/bd and G = gn/gd, d = dn/dd for
    dn = bn gd 2^j - 2 gn bd and dd = bd gd 2^j, so the test reads dn > 0
    and p (bd gd)^4 2^{3j} < q dn^4."""
    if b <= 0:
        return None
    g = Fraction(G)
    bn, bd, gn, gd = b.numerator, b.denominator, g.numerator, g.denominator
    p, q = mx.numerator ** 4, mx.denominator ** 4
    lhs, bngd, tg = p * (bd * gd) ** 4, bn * gd, 2 * gn * bd
    for j in range(j0, j_max + 1):
        dn = (bngd << j) - tg
        if dn > 0 and lhs << 3 * j < q * dn ** 4:
            return j
    return None


# depth of the certificate's K, M and w tables, and the channels of the M
# table (the K table has the first two)
_TABLE_DEPTH = 8
_M_BETAS = (F14, F12, F35)


def _recursion(x0, coef, M) -> Dict[Fraction, List[BoundedValue]]:
    """The K or the M table: x_{beta,0} = x0[beta] and x_{beta,m+1} =
    x0[beta] + coef[beta] x_{1/4,m} x_{1/2,m} M for every channel beta of
    x0, m < _TABLE_DEPTH."""
    tab = {b: [x] for b, x in x0.items()}
    for m in range(_TABLE_DEPTH):
        prod = tab[F14][m] * tab[F12][m] * M
        for b, x in x0.items():
            tab[b].append(x + coef[b] * prod)
    return tab


@lru_cache(maxsize=64)
def _quarter_root_upper(j: int) -> Fraction:
    """The upper end of the enclosure of T^{1/4} at T = 2^-j, cached per j:
    horizons take few values of j."""
    return bv_sqrt(bv_sqrt(BoundedValue.exact(Fraction(1, 2 ** j)))).upper()


@lru_cache(maxsize=16)
def _datum_free_tables(ct: ConstantsTable):
    """The horizon's parts that depend on the constants table alone, built
    once per table: the seed resolution index k-hat, 1/(8 Ctilde), the
    lower end of 1/(16 Ctilde), K_cap, epsilon, L, the K table, the
    recursion coefficients B(3/4 - beta, 1/4) of the K and M tables per
    channel beta, and the w table.  A certificate takes its own copies of
    the K lists."""
    ctil = ct.Ctilde
    target16 = ctil.upper() * 16
    k_hat = 1
    while 2 ** k_hat <= target16:
        k_hat += 1
    eighth = BoundedValue.exact(1) / ctil.scale(8)
    sixteenth = (BoundedValue.exact(1) / ctil.scale(16)).lower()
    sqrt2 = bv_sqrt(BoundedValue.exact(2))
    K_cap = eighth * (sqrt2 - BoundedValue.exact(1)).scale(4) / sqrt2
    epsilon = ctil * K_cap.scale(2)
    L = K_cap.scale(2) * ct.beta_value(Fraction(3, 4), F14)
    coef = {b: ct.beta_value(Fraction(3, 4) - b, F14) for b in _M_BETAS}
    Ktab = _recursion({F14: eighth, F12: eighth}, coef, ct.M)
    w = [Fraction(1)]
    for m in range(_TABLE_DEPTH):
        w.append(1 + w[-1] * w[-1] / 8)
    return k_hat, eighth, sixteenth, K_cap, epsilon, L, Ktab, coef, tuple(w)


def compute_horizon(a, constants: ConstantsTable = None, mode_cap: int = 24,
                    forcing: "Forcing" = None) -> IterationCertificate:
    """Certified contraction horizon and constant tables for the datum a.

    The seed resolution index k-hat satisfies 2^-k_hat < 1/(16 Ctilde);
    the horizon T_a = 2^-j is the first that `_claim1_exponent` finds with
    T^{1/4} (at least T^{1/2}, as T < 1) times the upper end of
    ||A^{1/2} seed||, plus the forcing term, under 1/(16 Ctilde), so the
    realized Claim-1 functional k0 sits strictly below 1/(8 Ctilde).  That
    norm bounds both of the functional's seed norms, since
    ||A^{1/4} seed|| <= pi^{-1/2} ||A^{1/2} seed|| (the module docstring
    proves it), so ||A^{1/4} seed|| is not computed.  The
    certificate keeps ``forcing``, the forcing of every run on it, and
    builds its M table on first read.
    """
    ct = constants or ConstantsTable.default()
    k_hat, eighth, sixteenth, K_cap, epsilon, L, Ktab, _, w = \
        _datum_free_tables(ct)
    pair = _as_pair(a, k_hat + 2)
    # a name's approximant is only 2^-k close to the datum
    res = Fraction(1, 2 ** (k_hat + 2)) if isinstance(a, VectorFieldName) \
        else Fraction(0)
    b1, t1 = _trunc_band(pair[0], mode_cap)
    b2, t2 = _trunc_band(pair[1], mode_cap)
    trunc = Fraction(_norm2([t1, t2]).upper()) if (t1 or t2) \
        else Fraction(0)
    # b1 and b2 carry no tails, so neither does their projection
    seed = project_pair(b1, b2)
    seed_res = 2 * (res + trunc)
    norm_up = _l2_upper(seed)
    g_sup = forcing.sup_l2 if forcing is not None else 0.0
    if seed_res >= eighth.lower():
        raise ValueError("datum presentation too coarse: its resolution "
                         "floor alone exhausts the Claim-1 budget")
    h_norm = frac_power_norm(seed, F12).upper()
    # the display bound 1/(16 Ctilde), tightened further when the
    # presentation's resolution floor eats into the 1/(8 Ctilde) total
    bound16 = min(sixteenth, eighth.lower() - seed_res)
    mx = Fraction(h_norm)
    j = _claim1_exponent(mx, bound16, g_sup, 2, 400)
    if j is None:
        raise RuntimeError("horizon search failed to terminate")
    T = Fraction(1, 2 ** j)
    lead = _quarter_root_upper(j) * mx + _forcing_term(T, g_sup)
    k0 = BoundedValue.from_fraction(seed_res) + \
        BoundedValue.from_fraction(lead)
    if k0.upper() >= eighth.lower():
        raise RuntimeError("Claim-1 functional failed to clear 1/(8 Ctilde)")
    a_norm = BoundedValue.from_fraction(Fraction(norm_up)).widened(
        BoundedValue.from_fraction(seed_res))
    return IterationCertificate(
        T_a=BoundedValue.exact(T), k0=k0,
        K_beta_m={b: list(v) for b, v in Ktab.items()}, K_cap=K_cap,
        epsilon=epsilon, L=L, w_m=w, k_hat=k_hat,
        seed=seed, seed_res=seed_res, a_norm=a_norm, half_norm=h_norm,
        constants=ct, forcing=forcing)


# ---------------------------------------------------------------------------
# small-time modulus
# ---------------------------------------------------------------------------

def _theta1(cert: IterationCertificate, k: int) -> Optional[int]:
    """Smallest theta >= 0 with ||A^{1/2} seed|| 2^{-theta/2} <= 2^-(k+1),
    i.e. with h^2 <= 2^(theta - 2k - 2) for an upper bound h^2 on the
    squared norm; None past 4 (k + 64)."""
    h = FloatBall(cert.half_norm)
    sq = (h * h).upper()
    theta = max(0, 2 * k + 2 + ceil_log2(sq))
    return theta if theta <= 4 * (k + 64) else None


def _theta2(cert: IterationCertificate, k: int) -> Optional[int]:
    """Smallest theta with M L_{1/4,m} L_{1/2,m} B(3/4,1/4)
    2^{-2 theta} <= 2^-(k+1), the L constants, for every m >= 1, being the
    fixed-point cap W* on the Claim-1 functional on the shrunken horizon
    2^-theta.  The test holds once the functional is below
    V = sqrt(2^-(k+1)/lead)/W*, so theta is the Claim-1 exponent against
    V less the seed-resolution floor seed_res; when that floor alone
    reaches V the budget is finer than the floor allows (None).  As in
    the horizon, mx is the upper end of ||A^{1/2} seed||, which bounds
    ||A^{1/4} seed|| too (the module docstring proves it)."""
    ct = cert.constants
    lead = cert.ball("theta2",
                     lambda: ct.M * ct.beta_value(Fraction(3, 4), F14))
    V = (fb_sqrt(FloatBall(2.0 ** -(k + 1)) / lead) / _WSTAR).lower()
    return _claim1_exponent(
        Fraction(cert.half_norm), Fraction(V) - cert.seed_res,
        cert.forcing_sup, cert.j_a, cert.j_a + 4 * (k + 64) - 1)


def eta_modulus(cert: IterationCertificate, m: int, k: int) -> Optional[int]:
    """Modulus eta(m, k): ||u_m(t) - a|| <= 2^-k for 0 <= t <= 2^-eta,
    or None when the certificate's resolution floor cannot certify 2^-k."""
    th1 = _theta1(cert, k)
    th2 = _theta2(cert, k) if m >= 1 else 0
    if th1 is None or th2 is None:
        return None
    return max(th1, th2, cert.j_a)


# ---------------------------------------------------------------------------
# the iteration engine
# ---------------------------------------------------------------------------

class Forcing:
    """Time-indexed forcing with explicit enclosure metadata.

    ``pair_fn(lo, hi)`` returns a band-limited (sc, cs) pair enclosing f(s)
    for every s in [lo, hi]; ``sup_l2`` is a uniform bound on ||P f(s)||_2,
    the continuity modulus the quadrature budget needs.
    """

    def __init__(self, pair_fn, sup_l2: float):
        sup = float(sup_l2)
        if not (math.isfinite(sup) and sup >= 0):
            raise ValueError("the forcing bound sup_l2 must be finite and "
                             "nonnegative, got %r" % (sup_l2,))
        self.pair_fn = pair_fn
        self.sup_l2 = sup

    @staticmethod
    def constant(f1: FourierField, f2: FourierField) -> "Forcing":
        p1, p2 = project_pair(f1, f2)
        sup = _l2_upper((p1, p2))
        return Forcing(lambda lo, hi: (f1, f2), sup)


# the component bases of every pair the engine holds: seed, forcing cells,
# iterates and B cells all come out of `project_pair`
_BASES = ("sc", "cs")


@lru_cache(maxsize=None)
def _qtr_power(k: int) -> FloatBall:
    """(pi^2 k)^{-1/4} for an integer k, cached per process."""
    return fb_pow(_PI2 * FloatBall.exact(k), -F14)


@lru_cache(maxsize=64)
def _defect_weights(P: int, h: Fraction):
    """The defect weight tables (W_int, W_end) of P cells of width h: the
    weight of a cell at gap g >= 1, h (g h)^-gamma, and of the next cell,
    (2h)^{1-gamma}/(1-gamma) in the integral and h^{1-gamma}/(1-gamma) at
    the endpoint (also the weight of the cell itself), per channel
    gamma = beta + 1/4, over j h, j = 1..max(P, 2).  No gamma is an integer
    or 1/2, so each power is `grid_pow`'s exp(-gamma log jh), here one
    `grid_exp` of the (4, P) grid over one `grid_log`.  Cached per (P, h)
    and read-only: the horizon is always 2^-j, so few (P, h) recur across
    data."""
    jh = BallGrid.stack(FloatBall.exact(j * h)
                        for j in range(1, max(P, 2) + 1))
    gammas = [b + F14 for b in _DEFECT_BETAS]
    hw = grid_exp(grid_log(jh) * BallGrid.stack(
        FloatBall.exact(-g) for g in gammas).reshape(-1, 1)) * jh.at(0)
    inv = BallGrid.stack(FloatBall.exact(1 / (1 - g)) for g in gammas)
    near = hw[:, 1] * inv * FloatBall(2.0)
    far = hw[:, :P - 1]
    out = tuple(BallGrid.stack((g.reshape(-1, 1), far), 1, np.concatenate)
                for g in (near, hw[:, 0] * inv))
    for w in out:
        w.c.flags.writeable = w.r.flags.writeable = False
    return out


class _Engine:
    """Evaluates the Picard iterates on the P cells [ih, (i+1)h], h = t/P,
    one iteration level at a time, with full enclosure bookkeeping
    (coefficient balls plus the scalar defect vector).

    Every grid the engine holds has one shape: a (P, N+1, N+1) `BallGrid`
    stack per component, one row per cell, at the mode cap N.  Level j
    holds u_j on every cell so, and the defect vectors as a (P, 4) grid;
    only u_0 and the current level are kept.  With B_j(q) the truncated
    B u_j on cell q (one `nonlinearity_pair` call per cell), E_j(q) its
    A^{-1/4} defect bound and F_j(q) its sliver bound, a the seed, f_q the
    certificate's forcing on cell q and d_0 its defect (0 without forcing):

        u_0(i)     = H_{i+1} a + h sum_{q<i} G_{i-q} f_q
        u_{j+1}(i) = u_0(i) - h sum_{q<i} G_{i-q} B_j(q)
        d_{j+1}(i) = d_0(i) + (W_end[:, 0] F_j(i)
                              + sum_{q<i} W_int[:, i-1-q] E_j(q))
        u_m(t)     = (e^{-tA} a + h sum_q H_{P-q} f_q)
                     - h sum_q H_{P-q} B_{m-1}(q)
        d_m(t)     = sum_q W_end[:, P-1-q] E_{m-1}(q)

    Cell 0's Duhamel sum is empty, so u_j(i) = u_i(i) for every j >= i:
    from level i on, cell i's iterate is final.  Level j therefore runs
    the product and the norms of u_j only on the cells i >= j, and a cell
    i < j keeps the d-free parts of B_i(i) (the truncated B, its
    truncation tails term, ||A^{1/4} u||, ||A^{1/2} u|| and the L2 upper
    bound of B).  E_j and F_j are formed on every cell from those parts
    and d_j, which still moves through the sliver term.  eval(m) thus runs
    sum_{j<m} max(P - j, 0) product sets, not m P.

    The heat hulls act on each mode and depend only on a gap of cells: G_g
    holds e^{-tau A} for tau in [(g-1)h, (g+1)h], H_k for tau in
    [(k-1)h, kh].  Both, and the hull at tau = t, come from one table of
    the factors e^{-k h lambda}, k = 0..P, at the cap, built with the
    engine.  Each Duhamel sum starts from its q = 0 piece and adds the
    others in increasing q, and each defect sum is one `ball_matmul` of
    length i, so every cell's enclosure is bit for bit the one of the
    cell-by-cell recursion.  The stacks need no mask: an entry of a mode
    that does not exist (a sin(0) factor) holds only rounding dust of order
    TINY, which `FourierField` masks on the way to a product and whose
    square underflows in a norm.

    The mode cap N is the seed's band, or the widest projected forcing cell
    when that is wider; the forcing cells are projected once, and the seed
    and the forcing cells are zero-padded to N once, when the engine is
    built.  B_j(q) is truncated at N, and its discarded mass enters E_j(q)
    through lambda^{-1/4} past N, so the cap needs no bound of its own and
    u_m(t) comes back at the cutoff N.  The datum-free scalar tables are
    cached per process: the defect weights W per (P, h) by
    `_defect_weights` and the lambda^{-1/4} factors by `_qtr_power`.
    """

    def __init__(self, cert: IterationCertificate, t: Fraction, panels: int):
        self.cert = cert
        self.t = Fraction(t)
        self.P = panels
        self.h = self.t / panels
        forcing = cert.forcing
        fcells = [project_pair(*forcing.pair_fn(q * self.h, (q + 1) * self.h))
                  for q in range(panels)] if forcing is not None else []
        self.cap = max([cert.seed_cutoff] + [c[0].cutoff for c in fcells])
        self._seed = [f._embedded(self.cap).grid for f in cert.seed]
        # the projected forcing as component stacks, None without forcing
        self._fcells = [BallGrid.stack([c[k]._embedded(self.cap).grid
                                        for c in fcells])
                        for k in range(len(_BASES))] if fcells else None
        fac = BallGrid.stack([_heat_factor(self.cap, k * self.h)
                              for k in range(panels + 1)])
        k = np.arange(1, panels + 1)
        # H_k in row k - 1 (k = 1..P), G_g in row g - 1 (g = 1..P-1) and the
        # hull at tau = t; over [a h, b h] each mode factor is hulled
        # between e^{-b h lambda} and min(e^{-a h lambda}, 1)
        self._H, self._G, self._Et = (
            _heat_hull(fac[b], fac[a])
            for a, b in ((k - 1, k), (k[:-1] - 1, k[:-1] + 1),
                         (panels, panels)))
        # e^{-tA} seed, the first operand of every result of `eval`
        self.seed_term = tuple(
            FourierField(f.basis, self.cap, g * self._Et, f.tail_l2)
            for f, g in zip(cert.seed, self._seed))
        self._M = cert.ball("M", lambda: cert.constants.M)
        # lambda^{-1/4} past the cap and (2 pi^2)^{-1/4}, the smallest mode
        # of a B cell being (1, 1)
        self._lam_qtr = _qtr_power((self.cap + 1) ** 2)
        self._qtr_11 = _qtr_power(2)
        self._W_int, self._W_end = _defect_weights(panels, self.h)
        if forcing is not None:
            hb = FloatBall.exact(self.h)
            self._fw = BallGrid.stack(
                fb_pow(hb, 1 - b) * FloatBall.exact(1 / (1 - b))
                for b in _DEFECT_BETAS)

    def _duhamel(self, src, first: int, last: int, hull: BallGrid):
        """h sum_{q < i} of hull[i - q - 1] times cell q of the component
        stacks ``src``, for the cells i = first..last >= 1 (row i - first
        of each returned stack).  A sum starts from its q = 0 piece and
        adds the others in increasing q.  None when there is no cell."""
        if last < first:
            return None
        hb = FloatBall.exact(self.h)
        acc = [s[0] * hull[first - 1:last] * hb for s in src]
        for q in range(1, last):
            lo = max(first, q + 1) - first
            for a, s in zip(acc, src):
                a.set(slice(lo, None),
                      a[lo:] + s[q] * hull[lo + first - q - 1:last - q] * hb)
        return acc

    def _integrals(self, src):
        """The Duhamel sums of ``src`` over the gap hulls G for every cell,
        as component stacks: cell 0's is the zero pair."""
        out = [BallGrid.zeros((self.P, self.cap + 1, self.cap + 1))
               for _ in _BASES]
        for o, a in zip(out, self._duhamel(src, 1, self.P - 1, self._G) or ()):
            o.set(slice(1, None), a)
        return out

    def _base(self):
        """u_0 on every cell as component stacks, and the defects d_0."""
        u = [g * self._H for g in self._seed]
        d = BallGrid.zeros((self.P, len(_DEFECT_BETAS)))
        if self._fcells:
            # cell i adds the forcing integral over the cells q < i; cell 0
            # adds the zero pair
            u = [g + f for g, f in zip(u, self._integrals(self._fcells))]
            d = d + self._fw * FloatBall(self.cert.forcing_sup)
        return u, d

    @staticmethod
    def _norms(stacks, kind: str = None, q=0) -> BallGrid:
        """The pair norm of every cell of the component stacks under the
        mode weights of (kind, q): `frac_power_norm` for kind "stokes" and
        q = 2 beta, the root of `_l2_upper`'s sum without a kind."""
        total = BallGrid.zeros(stacks[0].shape[0])
        for b, s in zip(_BASES, stacks):
            total = total + BallGrid.sumsq_rows(
                *weighted_sq_terms(b, s, kind, q))
        return grid_sqrt(total)

    def _products(self, u, d: BallGrid, j: int, parts):
        """B u_j on every cell of level j, truncated at the cap, as
        component stacks, with the defect bounds E and F of every cell.

        ``u`` holds u_j on the cells i >= j only (None when there is none);
        their d-free parts are computed and written over those rows of
        ``parts``, the level before's, which the final cells i < j keep.
        Returns the parts, B, E and F."""
        if u is not None:
            cut = [[_trunc_band(f, self.cap) for f in nonlinearity_pair(
                        *(FourierField(b, self.cap, g[i])
                          for b, g in zip(_BASES, u)))]
                   for i in range(u[0].shape[0])]
            B = [BallGrid.stack([c[k][0].grid for c in cut])
                 for k in range(len(_BASES))]
            tails = grid_sqrt(BallGrid([[e for _, e in c] for c in cut])
                              .sumsq_rows()) * self._lam_qtr
            new = B + [tails, *(self._norms(u, "stokes", 2 * b)
                                for b in (F14, F12)),
                       BallGrid(self._norms(B).upper())]
            if parts is None:
                parts = new
            else:
                for p, n in zip(parts, new):
                    p.set(slice(j, None), n)
        *B, tails, u14, u12, l2 = parts
        d14, d12 = (d[:, _DEFECT_BETAS.index(b)] for b in (F14, F12))
        E = (d14 * (u12 + d12) + u14 * d12) * self._M + tails
        return parts, B, E, l2 * self._qtr_11 + E

    def _next(self, base, d0: BallGrid, j: int, B, E: BallGrid,
              Fv: BallGrid):
        """u_{j+1} on the cells i > j, whose iterates can still move (None
        when there is none), and d_{j+1} on every cell from B u_j and its
        bounds."""
        P = self.P
        val = self._duhamel(B, j + 1, P - 1, self._G)
        u = None if val is None else [g[j + 1:] - v
                                      for g, v in zip(base, val)]
        idef = self._W_end[:, 0].reshape(1, -1) * Fv.reshape(-1, 1)
        for i in range(1, P):
            idef.set(i, idef[i] + ball_matmul(
                self._W_int[:, i - 1 - np.arange(i)], E[:i]))
        return u, d0 + idef

    def eval(self, m: int):
        """Enclosure of u_m at the exact endpoint t."""
        P, cap = self.P, self.cap
        pair = self.seed_term
        if self._fcells:
            fv = self._duhamel(self._fcells, P, P, self._H)
            pair = tuple(p + FourierField(b, cap, g[0])
                         for p, b, g in zip(pair, _BASES, fv))
        if m == 0:
            return pair, BallGrid.zeros(len(_DEFECT_BETAS))
        base, d0 = self._base()
        u, d, parts = base, d0, None
        for j in range(m):
            parts, B, E, Fv = self._products(u, d, j, parts)
            if j + 1 < m:
                u, d = self._next(base, d0, j, B, E, Fv)
        val = self._duhamel(B, P, P, self._H)
        return (tuple(p - FourierField(b, cap, g[0])
                      for p, b, g in zip(pair, _BASES, val)),
                ball_matmul(self._W_end[:, P - 1 - np.arange(P)], E))


def _pair_radius(pair) -> float:
    """Upper bound on the joint L2 norm of the pair's coefficient radii."""
    return fb_sqrt(sum(BallGrid(f.grid.r).sumsq_ball(f.weights())
                       for f in pair)).upper()


def _fold_defect(pair, d0: float):
    """The pair with d0 added to each tail; d0 = 0 leaves it as it is."""
    if d0 == 0.0:
        return tuple(pair)
    extra = FloatBall.from_endpoints(0.0, d0)
    return tuple(FourierField(f.basis, f.cutoff, f.grid, f.tail_l2 + extra)
                 for f in pair)


# ---------------------------------------------------------------------------
# the public iteration operations
# ---------------------------------------------------------------------------

@dataclass
class LiftResult:
    """A smoothness-lifted iterate: the field pair with its H^{6/5}
    certificate, the engine defect and the number of time cells."""

    u: Tuple[FourierField, FourierField]
    band: Tuple[FourierField, FourierField]
    hs65: FloatBall
    defect: Dict[Fraction, float]
    panels: int


# the most time cells the smoothness lift's ladder doubles to
_PANEL_CAP = 64


@lru_cache(maxsize=1)
def _hs65_weight() -> FloatBall:
    """(3/(2 pi^2))^{3/5}: the factor taking the engine's A^{3/5} defect to
    an H^{6/5} bound, cached per process."""
    return fb_pow(FloatBall(1.5) / _PI2, F35)


def smoothness_lift(m: int, t, K: int, cert: IterationCertificate,
                    panels: int = 1) -> LiftResult:
    """H^{6/5}-certified approximant of u_m(t) for t > 0, under the
    certificate's forcing.

    The engine runs on P = ``panels`` time cells (one by default) and P
    doubles, up to ``_PANEL_CAP``, until the realized radius plus the engine
    defect meets 2^-K, so the result comes from the smallest power of two
    times ``panels`` that meets the budget; `BudgetError` when the cap does
    not.  Every result is the seed term e^{-tA} seed plus and minus further
    balls, and a ball sum's radii are at least its first operand's, so the
    lift raises `BudgetError` before any `eval` when the seed term's radius
    alone misses 2^-K: that term is the same at every P.  The paper's
    nested-interval endpoint tails are not modelled: the head cell's
    exponential hull and sliver estimate enclose all of (0, h], h = t/P.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("the smoothness lift needs t > 0 strictly")
    if t > cert.T_frac:
        raise HorizonError("t = %s exceeds the certified horizon %s"
                           % (t, cert.T_frac))
    P = panels
    eng = _Engine(cert, t, P)
    floor = _pair_radius(eng.seed_term)
    if floor > 2.0 ** -K:
        raise BudgetError("no cell count meets 2^-%d: the seed term alone "
                          "has certified radius %.3g" % (K, floor))
    while True:
        pair, d = eng.eval(m)
        rad = (FloatBall(_pair_radius(pair)) + d.at(0)).upper()
        if rad <= 2.0 ** -K:
            break
        if 2 * P > _PANEL_CAP:
            raise BudgetError("panel cap reached at certified radius %.3g "
                              "(budget 2^-%d)" % (rad, K))
        P *= 2
        eng = _Engine(cert, t, P)
    band = (_strip_tail(pair[0]), _strip_tail(pair[1]))
    h65a = band[0].hs_norm(Fraction(6, 5))
    h65b = band[1].hs_norm(Fraction(6, 5))
    hs_band = fb_sqrt(h65a * h65a + h65b * h65b)
    hs_defect = _hs65_weight() * d.at(_DEFECT_BETAS.index(F35))
    hs65 = hs_band.widened(hs_defect.upper())
    defect = d.upper()
    return LiftResult(
        u=_fold_defect(pair, defect[0]), band=band, hs65=hs65,
        defect={b: float(defect[i]) for i, b in enumerate(_DEFECT_BETAS)},
        panels=P)


def iterate(a, cert: IterationCertificate, m: int, t, K: int):
    """2^-K approximant of the Picard iterate u_m(t) on [0, T_a], under the
    certificate's forcing.

    t = 0 returns the seed with tails seed_res / 2 if seed_res <= 2^-K,
    else the datum if its tails meet 2^-K; m = 0 delegates to the
    semigroup; small t goes through the modulus eta when the certificate's
    resolution floor allows; positive t composes through the smoothness
    lift, whose time-cell ladder starts at one cell.
    """
    if K < 0:
        raise ValueError("precision must be nonnegative")
    if m < 0:
        raise ValueError("the iteration index must be nonnegative")
    t = Fraction(t)
    if t < 0 or t > cert.T_frac:
        raise HorizonError("t = %s outside the certified horizon [0, %s]"
                           % (t, cert.T_frac))
    if t == 0:
        if cert.seed_res <= Fraction(1, 2 ** K):
            # ||a - seed|| <= res + trunc = seed_res / 2, as P is a
            # contraction and a = P a
            return _fold_defect(cert.seed, _float_up(cert.seed_res / 2))
        pair = _as_pair(a, K)
        if _norm2([f.tail_l2.upper() for f in pair]).upper() > 2.0 ** -K:
            raise BudgetError("the datum's tails miss 2^-%d at t = 0" % K)
        return pair
    if m == 0 and cert.forcing is None:
        return semigroup_apply(cert.seed, t, K)
    if cert.seed_res <= Fraction(1, 2 ** (K + 1)) and cert.forcing is None:
        eta = eta_modulus(cert, m, K + 1)
        if eta is not None and t <= Fraction(1, 2 ** eta):
            return _fold_defect(cert.seed, 2.0 ** -(K + 1))
    # the ladder's start goes by keyword: perfbench's tracer reads it there
    # to count the doublings
    return smoothness_lift(m, t, K, cert, panels=1).u


def solve(a, f: Optional[Forcing], t, K: int, cert: IterationCertificate):
    """2^-K approximant of the mild solution u(t) on the certified horizon.

    ``f`` must be the forcing ``cert`` was computed for (None without
    forcing), else `ValueError`.  Chooses the iteration depth m so the
    geometric tail L epsilon^(m-1) / (1 - epsilon) clears 2^-(K+1), then
    runs iterate at precision K+1; on the engine route its smoothness lift
    starts from one time cell and doubles the cells, up to ``_PANEL_CAP``,
    only while the budget is missed.
    """
    if f is not cert.forcing:
        raise ValueError("the forcing is not the one the certificate was "
                         "computed for")
    eps = cert.ball("epsilon", lambda: cert.epsilon)
    tail = cert.ball("L", lambda: cert.L) / (FloatBall(1.0) - eps)
    m = 1
    while tail.upper() > 2.0 ** -(K + 1):
        tail = tail * eps
        m += 1
        if m > 200:
            raise BudgetError("geometric tail does not close")
    return iterate(a, cert, m, t, K + 1)


# ---------------------------------------------------------------------------
# pressure recovery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PressureQuery:
    """A pressure evaluation point with its rectilinear path from the
    origin anchor; path = None takes the corner path through (x1, 0)."""

    x: Tuple[Fraction, Fraction]
    path: Optional[Tuple[Tuple[Fraction, Fraction], ...]] = None

    def resolved_path(self):
        x1, x2 = Fraction(self.x[0]), Fraction(self.x[1])
        if self.path is None:
            pts = ((Fraction(0), Fraction(0)), (x1, Fraction(0)), (x1, x2))
        else:
            pts = tuple((Fraction(p[0]), Fraction(p[1])) for p in self.path)
        if not pts or pts[0] != (0, 0):
            raise ValueError("the pressure path must start at the anchor")
        if pts[-1] != (x1, x2):
            raise ValueError("the pressure path must end at the query point")
        for p in pts:
            if not (0 <= p[0] <= 1 and 0 <= p[1] <= 1):
                raise ValueError("the pressure path must stay inside the "
                                 "closed unit square")
        for p, q in zip(pts, pts[1:]):
            if p[0] != q[0] and p[1] != q[1]:
                raise ValueError("pressure paths are rectilinear: each "
                                 "segment must be axis-aligned")
        return pts


def _segment_integral(h1: FourierField, h2: FourierField, p, q) -> FloatBall:
    """int h . dgamma along one axis-aligned segment from p to q: the
    moving axis integrates trig(n pi s) over the segment (row 0 of
    `axis_trig_moments`), the fixed axis evaluates it."""
    if p[1] == q[1]:
        return _bilinear(axis_trig_moments(h1.basis[0], 0, h1.cutoff,
                                           p[0], q[0])[0], h1.grid,
                         _trig_values(h1.basis[1], h1.cutoff, p[1]))
    return _bilinear(_trig_values(h2.basis[0], h2.cutoff, p[0]), h2.grid,
                     axis_trig_moments(h2.basis[1], 0, h2.cutoff,
                                       p[1], q[1])[0])


def pressure_field(u, f=None):
    """The conservative field h = (I - P)[f + Laplace u - (u.grad)u] whose
    path integral recovers the pressure."""
    if not (isinstance(u, tuple) and len(u) == 2):
        raise TypeError("expected a component pair for the velocity")
    u1, u2 = u
    if not (u1.band_limited() and u2.band_limited()):
        raise ValueError("insufficient smoothness: the pressure needs a "
                         "band-limited representation for the Laplacian")
    u1, u2 = _strip_tail(u1), _strip_tail(u2)
    du = (u1.derivative(1), u1.derivative(2),
          u2.derivative(1), u2.derivative(2))
    lap1 = du[0].derivative(1) + du[1].derivative(2)
    lap2 = du[2].derivative(1) + du[3].derivative(2)
    conv1, conv2 = _convection(u1, u2, du)
    g1 = lap1 - conv1
    g2 = lap2 - conv2
    if f is not None:
        f1, f2 = f
        g1 = g1 + _strip_tail(f1)
        g2 = g2 + _strip_tail(f2)
    p1, p2 = project_pair(g1, g2)
    return g1 - p1, g2 - p2


def pressure(u, f, q: PressureQuery, K: int) -> BoundedValue:
    """Encloses P(x, t) = int_path h . dgamma to 2^-K, gauged to vanish at
    the origin anchor."""
    if K < 0:
        raise ValueError("precision must be nonnegative")
    h1, h2 = pressure_field(u, f)
    pts = q.resolved_path()
    total = FloatBall(0.0)
    for p, pn in zip(pts, pts[1:]):
        total = total + _segment_integral(h1, h2, p, pn)
    if total.r > 2.0 ** -K:
        raise BudgetError("pressure enclosure radius %.3g misses 2^-%d"
                          % (total.r, K))
    return total.to_bounded()
