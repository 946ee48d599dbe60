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
step via the smoothing estimate ||A^{beta+1/4} e^{-tau A} x|| <=
C (tau)^{-(beta+1/4)} ||A^{-1/4} x|| together with the bilinear bound

    ||A^{-1/4}(B u - B v)||_2
        <= M (||A^{1/4}(u-v)|| ||A^{1/2}u|| + ||A^{1/4}v|| ||A^{1/2}(u-v)||),

so the recursion closes with computable numbers.  Time quadrature uses a
uniform dyadic panel grid on [0, t]; panel values are semigroup enclosures
with interval time, the head panel is an exponential hull down to tau = 0,
and panel counts double until the certified radius meets budget.

The contraction certificate mirrors the fixed-point analysis: a seed
resolution k-hat, a horizon T_a from the scaling inequality on
max{T^{1/4}, T^{1/2}} max{||A^{1/4}a||, ||A^{1/2}a||}, the recursive K and M
tables, the cap 4 k0 (sqrt2 - 1)/sqrt2, and the contraction factor
epsilon = 2 Ctilde K_cap < 1, which holds for every datum by arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from .approxcore import BoundedValue, ConstantsTable, Name, bv_sqrt
from .floatball import FB_PI, TINY, BallGrid, FloatBall, fb_sqrt, grid_exp
from .helmholtz import VectorFieldName, _as_pair, project, project_pair
from .polyfield import MollifiedElement
from .spectral import (
    _PI2, FourierField, SobolevName, _trig_values, differentiate,
    mollified_field_pair, multiply,
)
from .stokes import _l2_upper, frac_power_norm, semigroup_apply

__all__ = [
    "BudgetError", "Forcing", "HorizonError", "IterationCertificate",
    "LiftResult", "PressureQuery", "compute_horizon", "eta_modulus",
    "iterate", "nonlinearity", "nonlinearity_pair", "pressure", "smoothness_lift",
    "solve",
]

_UP = 1 + 1e-9            # generic outward inflation for scalar bound arithmetic
_PI2_LO = math.pi ** 2 * (1 - 1e-15)

F14, F12, F35 = Fraction(1, 4), Fraction(1, 2), Fraction(3, 5)
_DEFECT_BETAS = (Fraction(0), F14, F12, F35)


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
    w1 = _mul_fast(u1, u1.derivative(1)) + _mul_fast(u2, u1.derivative(2))
    w2 = _mul_fast(u1, u2.derivative(1)) + _mul_fast(u2, u2.derivative(2))
    return project_pair(w1, w2)


def _strip_tail(f: FourierField) -> FourierField:
    return FourierField(f.basis, f.cutoff, f.grid)


def _trunc_band(f: FourierField, cap: int) -> Tuple[FourierField, float]:
    """Band-limited truncation and an upper bound on the discarded L2 mass
    (presented tail included)."""
    t = f.truncated(cap)
    return _strip_tail(t), t.tail_l2.upper()


def nonlinearity(u, K: int, constants: ConstantsTable = None):
    """2^-K approximant of B(u) = P(u.grad)u.

    Accepts a band-limited (sc, cs) pair (exact route), a pair carrying
    H^{6/5} tail data or a mollified element (truncation route with a
    certified product defect), or a pair of SobolevNames with s >= 6/5
    (literal route through differentiate/multiply/project with the budget
    split three ways).
    """
    if K < 0:
        raise ValueError("precision must be nonnegative")
    ct = constants or ConstantsTable.default()
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
            t11 = multiply(n1, d[(0, 1)], ct).refine(k + 2)
            t12 = multiply(n2, d[(0, 2)], ct).refine(k + 2)
            t21 = multiply(n1, d[(1, 1)], ct).refine(k + 2)
            t22 = multiply(n2, d[(1, 2)], ct).refine(k + 2)
            return t11 + t12, t21 + t22

        return project(VectorFieldName(Name(pair_query, label="u.grad u")), K)
    if isinstance(u, MollifiedElement):
        for cut in (32, 64, 128):
            pair = _with_hs65(u, cut)
            try:
                return nonlinearity(pair, K, ct)
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
    tau = math.hypot(*[0.0 if f.band_limited() else f.tail_hs[s65].upper()
                       for f in (f1, f2)]) * _UP
    band = (_strip_tail(f1), _strip_tail(f2))
    cs = ct.C_s(s65).upper()
    h1_band = math.hypot(*[f.hs_norm(1).upper() for f in band]) * _UP
    sup_band = math.hypot(*[f.sup_upper() for f in band]) * _UP
    pi_hi = math.pi * (1 + 1e-15)
    defect = (float(cs) * tau * pi_hi * (h1_band + tau)
              + sup_band * pi_hi * tau) * _UP
    if defect > 2.0 ** -K:
        raise BudgetError("H^{6/5} tail data too coarse for this precision")
    b1, b2 = nonlinearity_pair(*band)
    extra = FloatBall.from_rounded(0.0, defect)
    return (FourierField(b1.basis, b1.cutoff, b1.grid, b1.tail_l2 + extra),
            FourierField(b2.basis, b2.cutoff, b2.grid, b2.tail_l2 + extra))


def _with_hs65(elem: MollifiedElement, cut: int):
    return mollified_field_pair(elem, cut, hs_tails=(Fraction(6, 5),))


# ---------------------------------------------------------------------------
# contraction certificate
# ---------------------------------------------------------------------------

@dataclass
class IterationCertificate:
    """Computable constants certifying the Picard contraction on [0, T_a]."""

    T_a: BoundedValue
    k0: BoundedValue
    K_beta_m: Dict[Fraction, List[BoundedValue]]
    K_cap: BoundedValue
    epsilon: BoundedValue
    L: BoundedValue
    M_beta_m: Dict[Fraction, List[BoundedValue]]
    w_m: Tuple[Fraction, ...]
    k_hat: int
    seed: Tuple[FourierField, FourierField]
    seed_res: Fraction
    a_norm: BoundedValue
    quarter_norm: float
    half_norm: float
    constants: ConstantsTable
    forcing_sup: float = 0.0

    @property
    def T_frac(self) -> Fraction:
        return self.T_a.lower()

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


def _forcing_term(T: Fraction, G: float, ct: ConstantsTable) -> float:
    """sup over beta in {1/4, 1/2} of T^beta C_beta T^{1-beta}/(1-beta) G."""
    if G == 0.0:
        return 0.0
    out = 0.0
    for b in (F14, F12):
        cb = float(ct.C_alpha(b).upper())
        out = max(out, cb * float(T) * G / (1 - float(b)))
    return out * _UP


def compute_horizon(a, constants: ConstantsTable = None, mode_cap: int = 24,
                    table_depth: int = 8,
                    forcing: "Forcing" = None) -> IterationCertificate:
    """Certified contraction horizon and constant tables for the datum a.

    The seed resolution index k-hat satisfies 2^-k_hat < 1/(16 c1 Ctilde);
    the horizon search then drives max{T^{1/4}, T^{1/2}} times the seed's
    fractional-power norms under 1/(16 Ctilde), so the realized Claim-1
    functional k0 sits strictly below 1/(8 Ctilde).
    """
    ct = constants or ConstantsTable.default()
    ctil = ct.Ctilde
    c1 = ct.c1
    target16 = (c1 * ctil).upper() * 16
    k_hat = 1
    while 2 ** k_hat <= target16:
        k_hat += 1
    pair = _as_pair(a, k_hat + 2)
    # a name's approximant is only 2^-k close to the datum
    res = Fraction(1, 2 ** (k_hat + 2)) if isinstance(a, VectorFieldName) \
        else Fraction(0)
    b1, t1 = _trunc_band(pair[0], mode_cap)
    b2, t2 = _trunc_band(pair[1], mode_cap)
    trunc = Fraction(math.sqrt(t1 * t1 + t2 * t2) * _UP) if (t1 or t2) \
        else Fraction(0)
    seed = project_pair(b1, b2)
    seed = (_strip_tail(seed[0]), _strip_tail(seed[1]))
    seed_res = 2 * (res + trunc)
    norm_up = _l2_upper(seed)
    g_sup = forcing.sup_l2 if forcing is not None else 0.0
    eighth = BoundedValue.exact(1) / ctil.scale(8)
    floor = (c1 * BoundedValue.from_fraction(seed_res)).upper()
    if floor >= eighth.lower():
        raise ValueError("datum presentation too coarse: its resolution "
                         "floor alone exhausts the Claim-1 budget")
    if norm_up == 0.0 and seed_res == 0 and g_sup == 0.0:
        q_norm = h_norm = 0.0
        T = Fraction(1, 4)
        k0 = BoundedValue.exact(0)
    else:
        q_norm = frac_power_norm(seed, F14).upper()
        h_norm = frac_power_norm(seed, F12).upper()
        mx = Fraction(max(q_norm, h_norm))
        # the display bound 1/(16 Ctilde), tightened further when the
        # presentation's resolution floor eats into the 1/(8 Ctilde) total
        bound16 = min((BoundedValue.exact(1) / ctil.scale(16)).lower(),
                      eighth.lower() - floor)
        j = 2
        while True:
            T = Fraction(1, 2 ** j)
            rootT = bv_sqrt(bv_sqrt(BoundedValue.exact(T)))
            lead = rootT.upper() * mx + Fraction(_forcing_term(T, g_sup, ct))
            if lead < bound16:
                break
            j += 1
            if j > 400:
                raise RuntimeError("horizon search failed to terminate")
        k0 = c1 * BoundedValue.from_fraction(seed_res) + \
            BoundedValue.from_fraction(lead)
    if k0.upper() >= eighth.lower():
        raise RuntimeError("Claim-1 functional failed to clear 1/(8 Ctilde)")
    sqrt2 = bv_sqrt(BoundedValue.exact(2))
    K_cap = eighth * (sqrt2 - BoundedValue.exact(1)).scale(4) / sqrt2
    epsilon = ctil * K_cap.scale(2)
    L = K_cap.scale(2) * ct.C_alpha(F14) * ct.beta_value(Fraction(3, 4), F14)
    K0 = eighth
    Ktab = {F14: [K0], F12: [K0]}
    for m in range(table_depth):
        prod = Ktab[F14][m] * Ktab[F12][m] * ct.M
        for b in (F14, F12):
            Ktab[b].append(K0 + ct.C_alpha(b + F14) *
                           ct.beta_value(1 - b - F14, F14) * prod)
    a_norm = BoundedValue.from_fraction(Fraction(norm_up)).widened(
        BoundedValue.from_fraction(seed_res))
    Mtab = {b: [ct.C_alpha(b) * a_norm] for b in (F14, F12, F35)}
    for m in range(table_depth):
        prod = Mtab[F14][m] * Mtab[F12][m] * ct.M
        for b in (F14, F12, F35):
            Mtab[b].append(Mtab[b][0] + ct.C_alpha(b + F14) *
                           ct.beta_value(Fraction(3, 4) - b, F14) * prod)
    w: List[Fraction] = [Fraction(1)]
    for m in range(table_depth):
        w.append(1 + w[-1] * w[-1] / 8)
    return IterationCertificate(
        T_a=BoundedValue.exact(T), k0=k0, K_beta_m=Ktab, K_cap=K_cap,
        epsilon=epsilon, L=L, M_beta_m=Mtab, w_m=tuple(w), k_hat=k_hat,
        seed=seed, seed_res=seed_res, a_norm=a_norm, quarter_norm=q_norm,
        half_norm=h_norm, constants=ct, forcing_sup=g_sup)


def claim1_functional(cert: IterationCertificate, T: Fraction) -> float:
    """Upper bound on the Claim-1 seed functional at horizon T."""
    rootT = bv_sqrt(bv_sqrt(BoundedValue.exact(Fraction(T))))
    lead = float(rootT.upper()) * max(cert.quarter_norm, cert.half_norm)
    res = float(cert.constants.c1.upper() * cert.seed_res)
    return (res + lead + _forcing_term(Fraction(T), cert.forcing_sup,
                                       cert.constants)) * _UP


# ---------------------------------------------------------------------------
# small-time modulus
# ---------------------------------------------------------------------------

def _log2_ceil_inv(T: Fraction) -> int:
    """Smallest integer j with 2^-j <= T."""
    j = 0
    while Fraction(1, 2 ** j) > T:
        j += 1
    return j


def _theta1(cert: IterationCertificate, k: int) -> Optional[int]:
    """Smallest theta with C ||A^{1/2} seed|| 2^{-theta/2} <= 2^-(k+1),
    located by bisection on the exponent."""
    ch = float(cert.constants.C_half_time.upper())
    lead = ch * cert.half_norm * _UP
    if lead == 0.0:
        return 0
    lo, hi = 0, 4 * (k + 64)
    if lead * 2.0 ** (-hi / 2) > 2.0 ** -(k + 1):
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if lead * 2.0 ** (-mid / 2) <= 2.0 ** -(k + 1):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _theta2(cert: IterationCertificate, m: int, k: int) -> Optional[int]:
    """Smallest theta with C_{1/4} M L_{1/4,m} L_{1/2,m} B(3/4,1/4)
    2^{-2 theta} <= 2^-(k+1), with the L constants realized as the
    fixed-point cap applied to the Claim-1 functional on the shrunken
    horizon 2^-theta.  The seed-resolution floor of that functional makes
    the search fail (return None) when the requested budget is finer than
    the floor allows."""
    ct = cert.constants
    wstar = 4 * (math.sqrt(2) - 1) / math.sqrt(2) * _UP
    lead = float((ct.C_alpha(F14) * ct.M *
                  ct.beta_value(Fraction(3, 4), F14)).upper())
    theta = max(1, _log2_ceil_inv(cert.T_frac))
    for th in range(theta, theta + 4 * (k + 64)):
        s = claim1_functional(cert, Fraction(1, 2 ** th))
        if lead * (wstar * s) ** 2 <= 2.0 ** -(k + 1):
            return th
    return None


def eta_modulus(cert: IterationCertificate, m: int, k: int) -> Optional[int]:
    """Modulus eta(m, k): ||u_m(t) - a|| <= 2^-k for 0 <= t <= 2^-eta,
    or None when the certificate's resolution floor cannot certify 2^-k."""
    th1 = _theta1(cert, k)
    th2 = _theta2(cert, m, k) if m >= 1 else 0
    if th1 is None or th2 is None:
        return None
    return max(th1, th2, _log2_ceil_inv(cert.T_frac))


# ---------------------------------------------------------------------------
# the iteration engine
# ---------------------------------------------------------------------------

class Forcing:
    """Time-indexed forcing with explicit enclosure metadata.

    ``pair_fn(lo, hi)`` returns a band-limited (sc, cs) pair enclosing f(s)
    for every s in [lo, hi]; ``sup_l2`` is a uniform bound on ||P f(s)||_2,
    the continuity modulus the quadrature budget needs.
    """

    def __init__(self, pair_fn, sup_l2: float, label: str = "forcing"):
        self.pair_fn = pair_fn
        self.sup_l2 = float(sup_l2)
        self.label = label

    @staticmethod
    def constant(f1: FourierField, f2: FourierField) -> "Forcing":
        p1, p2 = project_pair(f1, f2)
        sup = _l2_upper((p1, p2))
        return Forcing(lambda lo, hi: (f1, f2), sup, label="constant")


@lru_cache(maxsize=64)
def _heat_factor(cutoff: int, t: Fraction) -> BallGrid:
    """e^{-t lambda}, lambda = pi^2 (n^2 + m^2), for n, m <= cutoff; cached
    and read-only."""
    n = np.arange(cutoff + 1, dtype=float)
    lam = BallGrid(n[:, None] ** 2 + n[None, :] ** 2) * _PI2
    out = grid_exp(lam * -FloatBall.exact(t))
    out.c.flags.writeable = out.r.flags.writeable = False
    return out


def _heat_range(pair, t_lo: Fraction, t_hi: Fraction):
    """Enclosure of e^{-tau A} u for every tau in [t_lo, t_hi]: each mode
    factor is hulled between e^{-t_hi lambda} and min(e^{-t_lo lambda}, 1),
    the diagonal action of the semigroup on the product basis."""
    out = []
    for f in pair:
        lo = _heat_factor(f.cutoff, Fraction(t_hi))
        hi = _heat_factor(f.cutoff, max(Fraction(t_lo), Fraction(0)))
        fac = BallGrid.from_rounded(lo.c - lo.r, np.minimum(hi.c + hi.r, 1.0))
        out.append(FourierField(f.basis, f.cutoff, f.grid * fac, f.tail_l2))
    return tuple(out)


class _Engine:
    """Evaluates Picard iterates on a uniform dyadic time grid with full
    enclosure bookkeeping (coefficient balls plus the scalar defect
    vector)."""

    def __init__(self, cert: IterationCertificate, t: Fraction, panels: int,
                 K: int, forcing: Forcing = None):
        self.cert = cert
        self.ct = cert.constants
        self.t = Fraction(t)
        self.P = panels
        self.h = self.t / panels
        self.K = K
        self.forcing = forcing
        self.cap = 2 * cert.seed_cutoff
        self._u: Dict[Tuple[int, int], tuple] = {}
        self._B: Dict[Tuple[int, int], tuple] = {}
        self._f: Dict[int, tuple] = {}
        self._lam_qtr = (_PI2_LO * (self.cap + 1) ** 2) ** -0.25
        self._gammas = [float(b) + 0.25 for b in _DEFECT_BETAS]
        self._C_gamma = [float(self.ct.C_alpha(b + F14).upper())
                         for b in _DEFECT_BETAS]

    def _semi(self, pair, lo: Fraction, hi: Fraction):
        # interval-time heat enclosure; the horizon scale puts the contour
        # tail cutoff far out of reach, so the engine works on the diagonal
        # model directly (the contour route remains the single-time check)
        return _heat_range(pair, lo, hi)

    # -- per-cell quantities ------------------------------------------------

    def _u0(self, lo: Fraction, hi: Fraction):
        """Enclosure of the inhomogeneous base iterate over [lo, hi]."""
        pair = self._semi(self.cert.seed, lo, hi)
        d = np.zeros(len(_DEFECT_BETAS))
        if self.forcing is not None:
            fv, fd = self._forcing_integral(lo, hi)
            pair = (pair[0] + fv[0], pair[1] + fv[1])
            d = d + fd
        return pair, d

    def _forcing_cell(self, q: int):
        if q not in self._f:
            lo, hi = q * self.h, (q + 1) * self.h
            g = project_pair(*self.forcing.pair_fn(lo, hi))
            if max(g[0].cutoff, g[1].cutoff) > self.cap:
                raise ValueError("forcing band exceeds the engine mode cap")
            self._f[q] = (_strip_tail(g[0]), _strip_tail(g[1]))
        return self._f[q]

    def _panel_sum(self, panels):
        """h times the sum of the heat enclosures of g over [tau_lo, tau_hi]
        for the triples (g, tau_lo, tau_hi) of ``panels``, added in order;
        the zero pair when there are none."""
        val = None
        for g, tau_lo, tau_hi in panels:
            piece = self._semi(g, tau_lo, tau_hi)
            piece = (piece[0].scale(self.h), piece[1].scale(self.h))
            val = piece if val is None else (val[0] + piece[0],
                                             val[1] + piece[1])
        if val is None:
            val = (FourierField.zero("sc", self.cap),
                   FourierField.zero("cs", self.cap))
        return val

    def _forcing_integral(self, lo: Fraction, hi: Fraction):
        val = self._panel_sum(
            (self._forcing_cell(q), max(Fraction(0), lo - (q + 1) * self.h),
             hi - q * self.h) for q in range(int(lo / self.h)))
        h = float(self.h)
        G = self.forcing.sup_l2
        d = np.zeros(len(_DEFECT_BETAS))
        for bi, b in enumerate(_DEFECT_BETAS):
            bf = float(b)
            cb = float(self.ct.C_alpha(b).upper()) if b else 1.0
            d[bi] = cb * h ** (1 - bf) / (1 - bf) * G * _UP if bf else h * G * _UP
        return val, d

    def u_cell(self, j: int, i: int):
        """Enclosure of u_j(s) for s anywhere in grid cell i."""
        key = (j, i)
        if key not in self._u:
            lo, hi = i * self.h, (i + 1) * self.h
            pair, d = self._u0(lo, hi)
            if j >= 1:
                ival, idef = self._integral(j - 1, i)
                pair = (pair[0] - ival[0], pair[1] - ival[1])
                d = d + idef
            self._u[key] = (pair, d)
        return self._u[key]

    def B_cell(self, j: int, i: int):
        """Truncated B(u_j) on cell i plus its A^{-1/4} defect bound E and
        the sliver bound F = sup ||A^{-1/4} B u_j|| on the cell."""
        key = (j, i)
        if key not in self._B:
            pair, d = self.u_cell(j, i)
            b1, b2 = nonlinearity_pair(*pair)
            b1, e1 = _trunc_band(b1, self.cap)
            b2, e2 = _trunc_band(b2, self.cap)
            delta = math.hypot(e1, e2) * _UP
            M = float(self.ct.M.upper())
            u14 = frac_power_norm(pair, F14).upper()
            u12 = frac_power_norm(pair, F12).upper()
            d14 = d[_DEFECT_BETAS.index(F14)]
            d12 = d[_DEFECT_BETAS.index(F12)]
            E = (M * (d14 * (u12 + d12) + u14 * d12)
                 + delta * self._lam_qtr) * _UP
            bnorm = _l2_upper((b1, b2))
            Fv = ((2 * _PI2_LO) ** -0.25 * bnorm + E) * _UP
            self._B[key] = ((b1, b2), E, Fv)
        return self._B[key]

    # -- the Duhamel integral -----------------------------------------------

    def _integral(self, j: int, i: int):
        """Enclosure of int_0^s e^{-(s-r)A} B u_j(r) dr for s in cell i."""
        h = float(self.h)
        val = self._panel_sum(
            (self.B_cell(j, q)[0], (i - q - 1) * self.h, (i - q + 1) * self.h)
            for q in range(i))
        d = np.zeros(len(_DEFECT_BETAS))
        for q in range(i):
            Eq = self.B_cell(j, q)[1]
            gap = (i - q - 1) * h
            for bi, g in enumerate(self._gammas):
                W = h * gap ** -g if gap > 0 else \
                    (2 * h) ** (1 - g) / (1 - g)
                d[bi] += self._C_gamma[bi] * W * Eq * _UP
        _, _, Fi = self.B_cell(j, i)
        for bi, g in enumerate(self._gammas):
            d[bi] += self._C_gamma[bi] * h ** (1 - g) / (1 - g) * Fi * _UP
        return val, d

    def eval(self, m: int):
        """Enclosure of u_m at the exact endpoint t."""
        pair = self._semi(self.cert.seed, self.t, self.t)
        d = np.zeros(len(_DEFECT_BETAS))
        if self.forcing is not None:
            fv = self._panel_sum(
                (self._forcing_cell(q), self.t - (q + 1) * self.h,
                 self.t - q * self.h) for q in range(self.P))
            pair = (pair[0] + fv[0], pair[1] + fv[1])
        if m == 0:
            return pair, d
        h = float(self.h)
        val = self._panel_sum(
            (self.B_cell(m - 1, q)[0], self.t - (q + 1) * self.h,
             self.t - q * self.h) for q in range(self.P))
        for q in range(self.P):
            Eq = self.B_cell(m - 1, q)[1]
            gap = (self.P - 1 - q) * h
            for bi, g in enumerate(self._gammas):
                W = h * gap ** -g if gap > 0 else \
                    h ** (1 - g) / (1 - g)
                d[bi] += self._C_gamma[bi] * W * Eq * _UP
        return (pair[0] - val[0], pair[1] - val[1]), d


def _pair_radius(pair) -> float:
    """Upper bound on the joint L2 norm of the pair's coefficient radii."""
    return fb_sqrt(sum(BallGrid(f.grid.r).sumsq_ball(f.weights())
                       for f in pair)).upper()


def _fold_defect(pair, d0: float):
    extra = FloatBall.from_rounded(0.0, d0 * _UP + TINY)
    return (FourierField(pair[0].basis, pair[0].cutoff, pair[0].grid,
                         pair[0].tail_l2 + extra),
            FourierField(pair[1].basis, pair[1].cutoff, pair[1].grid,
                         pair[1].tail_l2 + extra))


# ---------------------------------------------------------------------------
# the public iteration operations
# ---------------------------------------------------------------------------

@dataclass
class LiftResult:
    """A smoothness-lifted iterate: the field pair with its H^{6/5}
    certificate and the nested-interval bookkeeping."""

    u: Tuple[FourierField, FourierField]
    band: Tuple[FourierField, FourierField]
    hs65: FloatBall
    defect: Dict[Fraction, float]
    n: int
    t_n: Fraction
    endpoint_tail: float
    panels: int


def _claim2_tail(cert: IterationCertificate, m: int, t: Fraction,
                 n: int) -> float:
    """The Claim-II endpoint-tail bound
    C C_{17/20} M M_{1/4,m} M_{1/2,m} (t - t_n)^{-17/20} 4 t_n^{1/4}."""
    ct = cert.constants
    mm = min(m, len(cert.M_beta_m[F14]) - 1)
    lead = float((ct.C * ct.C_alpha(Fraction(17, 20)) * ct.M *
                  cert.M_beta_m[F14][mm] * cert.M_beta_m[F12][mm]).upper())
    t_n = t / 2 ** n
    return lead * float(t - t_n) ** -0.85 * 4 * float(t_n) ** 0.25 * _UP


def smoothness_lift(m: int, a, t, K: int,
                    cert: IterationCertificate = None,
                    constants: ConstantsTable = None, panels: int = 8,
                    panel_cap: int = 64,
                    forcing: Forcing = None) -> LiftResult:
    """H^{6/5}-certified approximant of u_m(t) for t > 0.

    The nested-interval schedule [t_n, t - t_n], t_n = t/2^n, is resolved
    with the smallest n whose Claim-II endpoint-tail bound meets 2^-(K+2)
    and reported as part of the result; the executable quadrature encloses
    the full (0, t] range, with the head cell's exponential hull and sliver
    estimate subsuming the reported endpoint tails.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("the smoothness lift needs t > 0 strictly")
    if cert is None:
        cert = compute_horizon(a, constants, forcing=forcing)
    if t > cert.T_frac:
        raise HorizonError("t = %s exceeds the certified horizon %s"
                           % (t, cert.T_frac))
    n = 1
    while _claim2_tail(cert, m, t, n) > 2.0 ** -(K + 2) and n < 400:
        n += 1
    P = panels
    while True:
        eng = _Engine(cert, t, P, K + 6, forcing)
        pair, d = eng.eval(m)
        rad = _pair_radius(pair) + d[0]
        if rad <= 2.0 ** -K:
            break
        if 2 * P > panel_cap:
            raise BudgetError("panel cap reached at certified radius %.3g "
                              "(budget 2^-%d)" % (rad, K))
        P *= 2
    band = (_strip_tail(pair[0]), _strip_tail(pair[1]))
    h65a = band[0].hs_norm(Fraction(6, 5))
    h65b = band[1].hs_norm(Fraction(6, 5))
    hs_band = fb_sqrt(h65a * h65a + h65b * h65b)
    hs_defect = (3 / (2 * _PI2_LO)) ** 0.6 * d[_DEFECT_BETAS.index(F35)]
    hs65 = hs_band.widened(hs_defect * _UP + TINY)
    return LiftResult(
        u=_fold_defect(pair, d[0]), band=band, hs65=hs65,
        defect={b: float(d[i]) for i, b in enumerate(_DEFECT_BETAS)},
        n=n, t_n=t / 2 ** n, endpoint_tail=_claim2_tail(cert, m, t, n),
        panels=P)


def iterate(a, cert: IterationCertificate, m: int, t, K: int,
            panels: int = 8, panel_cap: int = 64, forcing: Forcing = None):
    """2^-K approximant of the Picard iterate u_m(t) on [0, T_a].

    t = 0 returns the seed; m = 0 delegates to the semigroup; small t goes
    through the modulus eta when the certificate's resolution floor allows;
    positive t composes through the smoothness lift.
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
        if cert.seed_res > Fraction(1, 2 ** K):
            return _as_pair(a, K)
        return cert.seed
    if m == 0 and forcing is None:
        return semigroup_apply(cert.seed, t, K)
    if cert.seed_res <= Fraction(1, 2 ** (K + 1)) and forcing is None:
        eta = eta_modulus(cert, m, K + 1)
        if eta is not None and t <= Fraction(1, 2 ** eta):
            move = FloatBall.from_rounded(0.0, 2.0 ** -(K + 1))
            return (FourierField(cert.seed[0].basis, cert.seed[0].cutoff,
                                 cert.seed[0].grid, move),
                    FourierField(cert.seed[1].basis, cert.seed[1].cutoff,
                                 cert.seed[1].grid, move))
    lift = smoothness_lift(m, a, t, K, cert=cert, panels=panels,
                           panel_cap=panel_cap, forcing=forcing)
    return lift.u


def solve(a, f: Optional[Forcing], t, K: int,
          constants: ConstantsTable = None,
          cert: IterationCertificate = None, panels: int = 8,
          panel_cap: int = 64):
    """2^-K approximant of the mild solution u(t) on the certified horizon.

    Chooses the iteration depth m so the geometric tail L epsilon^(m-1) /
    (1 - epsilon) clears 2^-(K+1), then runs iterate at precision K+1.
    """
    if cert is None:
        cert = compute_horizon(a, constants, forcing=f)
    eps = float(cert.epsilon.upper())
    L = float(cert.L.upper())
    m = 1
    while L * eps ** (m - 1) / (1 - eps) > 2.0 ** -(K + 1):
        m += 1
        if m > 200:
            raise BudgetError("geometric tail does not close")
    return iterate(a, cert, m, t, K + 1, panels=panels,
                   panel_cap=panel_cap, forcing=f)


# ---------------------------------------------------------------------------
# pressure recovery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PressureQuery:
    """A pressure evaluation point with its rectilinear path from the
    origin anchor; path = None takes the corner path through (x1, 0)."""

    x: Tuple[Fraction, Fraction]
    path: Optional[Tuple[Tuple[Fraction, Fraction], ...]] = None
    t: Fraction = Fraction(0)

    def resolved_path(self):
        x1, x2 = Fraction(self.x[0]), Fraction(self.x[1])
        if self.path is None:
            pts = ((Fraction(0), Fraction(0)), (x1, Fraction(0)), (x1, x2))
        else:
            pts = tuple((Fraction(p[0]), Fraction(p[1])) for p in self.path)
        if pts[0] != (0, 0):
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


def _char_antiderivative(char: str, cutoff: int, x0: Fraction, x1: Fraction):
    """int_{x0}^{x1} trig(char, n, x) dx for n = 0..cutoff as FloatBalls."""
    inv_pi = FloatBall.exact(1) / FB_PI
    out = []
    if char == "s":
        c0 = _trig_values("c", cutoff, x0)
        c1 = _trig_values("c", cutoff, x1)
        for n in range(cutoff + 1):
            if n == 0:
                out.append(FloatBall(0.0))
            else:
                out.append((c0[n] - c1[n]) * inv_pi *
                           FloatBall.exact(Fraction(1, n)))
    else:
        s0 = _trig_values("s", cutoff, x0)
        s1 = _trig_values("s", cutoff, x1)
        for n in range(cutoff + 1):
            if n == 0:
                out.append(FloatBall.exact(Fraction(x1) - Fraction(x0)))
            else:
                out.append((s1[n] - s0[n]) * inv_pi *
                           FloatBall.exact(Fraction(1, n)))
    return out


def _segment_integral(h1: FourierField, h2: FourierField, p, q) -> FloatBall:
    total = FloatBall(0.0)
    if p[1] == q[1]:
        field, along, fixed = h1, (p[0], q[0]), p[1]
        ax_char, cross_char = h1.basis[0], h1.basis[1]
        anti = _char_antiderivative(ax_char, field.cutoff, along[0], along[1])
        cross = _trig_values(cross_char, field.cutoff, Fraction(fixed))
        for n, m in np.argwhere((field.grid.c != 0.0) | (field.grid.r != 0.0)):
            total = total + field.grid.at((n, m)) * anti[n] * cross[m]
    else:
        field = h2
        anti = _char_antiderivative(field.basis[1], field.cutoff,
                                    p[1], q[1])
        cross = _trig_values(field.basis[0], field.cutoff, Fraction(p[0]))
        for n, m in np.argwhere((field.grid.c != 0.0) | (field.grid.r != 0.0)):
            total = total + field.grid.at((n, m)) * cross[n] * anti[m]
    return total


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
    lap1 = u1.derivative(1).derivative(1) + u1.derivative(2).derivative(2)
    lap2 = u2.derivative(1).derivative(1) + u2.derivative(2).derivative(2)
    conv1 = _mul_fast(u1, u1.derivative(1)) + _mul_fast(u2, u1.derivative(2))
    conv2 = _mul_fast(u1, u2.derivative(1)) + _mul_fast(u2, u2.derivative(2))
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
