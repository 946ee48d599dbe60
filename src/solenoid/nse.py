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
and panel counts, from one panel, double until the certified radius meets
budget.

The contraction certificate mirrors the fixed-point analysis: a seed
resolution k-hat, a horizon T_a from the scaling inequality on
max{T^{1/4}, T^{1/2}} max{||A^{1/4}a||, ||A^{1/2}a||}, the recursive K and M
tables, the cap 4 k0 (sqrt2 - 1)/sqrt2, and the contraction factor
epsilon = 2 Ctilde K_cap < 1, which holds for every datum by arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .approxcore import BoundedValue, ConstantsTable, Name, bv_sqrt
from .floatball import (
    FB_PI, BallGrid, FloatBall, ball_matmul, ceil_log2, fb_pow, fb_sqrt,
    grid_exp, grid_log, grid_pow, grid_sqrt,
)
from .helmholtz import VectorFieldName, _as_pair, project, project_pair
from .polyfield import MollifiedElement
from .spectral import (
    _PI2, FourierField, SobolevName, _bilinear, _mode_mask, _trig_values,
    differentiate, mollified_field_pair, multiply, weighted_sq_terms,
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
    return project_pair(*_convection(u1, u2))


def _convection(u1: FourierField, u2: FourierField) \
        -> Tuple[FourierField, FourierField]:
    """(u.grad)u for a band-limited pair, unprojected."""
    return (_mul_fast(u1, u1.derivative(1)) + _mul_fast(u2, u1.derivative(2)),
            _mul_fast(u1, u2.derivative(1)) + _mul_fast(u2, u2.derivative(2)))


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
    tau = _norm2([0.0 if f.band_limited() else f.tail_hs[s65].upper()
                  for f in (f1, f2)])
    band = (_strip_tail(f1), _strip_tail(f2))
    cs = FloatBall.from_bounded(ct.C_s(s65))
    h1_band = fb_sqrt(sum(f.weighted_sq_ball("sobolev", 1) for f in band))
    sup_band = _norm2([f.sup_upper() for f in band])
    defect = ((cs * tau * FB_PI * (h1_band + tau)
               + sup_band * FB_PI * tau)).upper()
    if defect > 2.0 ** -K:
        raise BudgetError("H^{6/5} tail data too coarse for this precision")
    return _fold_defect(nonlinearity_pair(*band), defect)


def _norm2(xs) -> FloatBall:
    """The Euclidean norm of the nonnegative floats xs, as a ball."""
    return fb_sqrt(BallGrid(np.array(xs, dtype=float)).sumsq_ball())


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
    _balls: Dict[object, FloatBall] = field(default_factory=dict, repr=False,
                                            compare=False)

    def ball(self, key, bounded: Callable[[], BoundedValue]) -> FloatBall:
        """The FloatBall of one of the certificate's constants: ``bounded``
        gives its BoundedValue, converted on the first call only and then
        read from the cache under ``key``."""
        if key not in self._balls:
            self._balls[key] = FloatBall.from_bounded(bounded())
        return self._balls[key]

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
    return max((FloatBall.from_bounded(ct.C_alpha(b))
                * FloatBall.exact(T / (1 - b)) * FloatBall(G)).upper()
               for b in (F14, F12))


# depth of the certificate's K, M and w tables
_TABLE_DEPTH = 8


def compute_horizon(a, constants: ConstantsTable = None, mode_cap: int = 24,
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
    trunc = Fraction(_norm2([t1, t2]).upper()) if (t1 or t2) \
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
    for m in range(_TABLE_DEPTH):
        prod = Ktab[F14][m] * Ktab[F12][m] * ct.M
        for b in (F14, F12):
            Ktab[b].append(K0 + ct.C_alpha(b + F14) *
                           ct.beta_value(1 - b - F14, F14) * prod)
    a_norm = BoundedValue.from_fraction(Fraction(norm_up)).widened(
        BoundedValue.from_fraction(seed_res))
    Mtab = {b: [ct.C_alpha(b) * a_norm] for b in (F14, F12, F35)}
    for m in range(_TABLE_DEPTH):
        prod = Mtab[F14][m] * Mtab[F12][m] * ct.M
        for b in (F14, F12, F35):
            Mtab[b].append(Mtab[b][0] + ct.C_alpha(b + F14) *
                           ct.beta_value(Fraction(3, 4) - b, F14) * prod)
    w: List[Fraction] = [Fraction(1)]
    for m in range(_TABLE_DEPTH):
        w.append(1 + w[-1] * w[-1] / 8)
    return IterationCertificate(
        T_a=BoundedValue.exact(T), k0=k0, K_beta_m=Ktab, K_cap=K_cap,
        epsilon=epsilon, L=L, M_beta_m=Mtab, w_m=tuple(w), k_hat=k_hat,
        seed=seed, seed_res=seed_res, a_norm=a_norm, quarter_norm=q_norm,
        half_norm=h_norm, constants=ct, forcing_sup=g_sup)


def _resolution_floor(cert: IterationCertificate) -> FloatBall:
    """c1 seed_res, the part of the Claim-1 functional that does not
    depend on T; its upper end lower-bounds the functional for every T."""
    return cert.ball("c1", lambda: cert.constants.c1) * \
        FloatBall.exact(cert.seed_res)


def claim1_functional(cert: IterationCertificate):
    """The upper bound on the Claim-1 seed functional as a function of the
    horizon T; the parts that do not depend on T (the c1 hull and its ball)
    are formed once."""
    res = _resolution_floor(cert)
    norm = FloatBall(max(cert.quarter_norm, cert.half_norm))

    def at(T: Fraction) -> float:
        rootT = bv_sqrt(bv_sqrt(BoundedValue.exact(Fraction(T))))
        lead = FloatBall.from_bounded(rootT) * norm
        return (res + lead + FloatBall(_forcing_term(
            Fraction(T), cert.forcing_sup, cert.constants))).upper()
    return at


# ---------------------------------------------------------------------------
# small-time modulus
# ---------------------------------------------------------------------------

def _log2_ceil_inv(T: Fraction) -> int:
    """Smallest integer j >= 0 with 2^-j <= T, for T = p/q > 0.  For
    T < 1 and d = q.bit_length() - p.bit_length(), q/p lies in
    (2^(d-1), 2^(d+1)), so j is d when q <= p 2^d and d + 1 otherwise."""
    p, q = T.numerator, T.denominator
    if p >= q:
        return 0
    d = q.bit_length() - p.bit_length()
    return d if q <= p << d else d + 1


def _theta1(cert: IterationCertificate, k: int) -> Optional[int]:
    """Smallest theta >= 0 with C ||A^{1/2} seed|| 2^{-theta/2} <=
    2^-(k+1), i.e. with lead^2 <= 2^(theta - 2k - 2) for an upper bound
    lead^2 on the squared product; None past 4 (k + 64)."""
    lead = cert.ball("C_half_time", lambda: cert.constants.C_half_time) * \
        FloatBall(cert.half_norm)
    sq = (lead * lead).upper()
    if sq == 0.0:
        return 0
    theta = max(0, 2 * k + 2 + ceil_log2(sq))
    return theta if theta <= 4 * (k + 64) else None


def _theta2(cert: IterationCertificate, m: int, k: int) -> Optional[int]:
    """Smallest theta with C_{1/4} M L_{1/4,m} L_{1/2,m} B(3/4,1/4)
    2^{-2 theta} <= 2^-(k+1), with the L constants realized as the
    fixed-point cap applied to the Claim-1 functional on the shrunken
    horizon 2^-theta.  The seed-resolution floor of that functional makes
    the search fail (return None) when the requested budget is finer than
    the floor allows.  Every ball step of the test is monotone in the
    functional's value, and the value is at least the floor's upper end,
    so a floor that fails the test fails it at every theta; that is
    decided before the search."""
    ct = cert.constants
    lead = cert.ball("theta2", lambda: ct.C_alpha(F14) * ct.M *
                     ct.beta_value(Fraction(3, 4), F14))

    def passes(value: float) -> bool:
        ws = _WSTAR * FloatBall(value)
        return (lead * ws * ws).upper() <= 2.0 ** -(k + 1)

    if not passes(_resolution_floor(cert).upper()):
        return None
    functional = claim1_functional(cert)
    theta = max(1, _log2_ceil_inv(cert.T_frac))
    for th in range(theta, theta + 4 * (k + 64)):
        if passes(functional(Fraction(1, 2 ** th))):
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


# the component bases of every pair the engine holds: seed, forcing cells,
# iterates and B cells all come out of `project_pair`, so the two
# components of a pair also share one cutoff
_BASES = ("sc", "cs")


def _padded(g: BallGrid, cutoff: int) -> BallGrid:
    """A stack of grids zero-padded to ``cutoff`` in its last two axes, as
    `FourierField._embedded` pads one field."""
    pad = [(0, 0)] * (g.c.ndim - 2) + [(0, cutoff + 1 - g.shape[-1])] * 2
    return BallGrid(np.pad(g.c, pad), np.pad(g.r, pad)) if pad[-1][1] else g


def _masked(g: BallGrid, basis: str, cuts) -> BallGrid:
    """A (P, n+1, n+1) stack with row i masked as `FourierField` masks a
    field of cutoff cuts[i] <= n, and exact zeros beyond that cutoff."""
    k = np.arange(g.shape[-1])
    mask = _mode_mask(basis, k[-1]) & \
        (np.maximum.outer(k, k) <= np.reshape(cuts, (-1, 1, 1)))
    return BallGrid(g.c * mask, g.r * mask)


def _each(fn, grids) -> BallGrid:
    """fn of the stack of each group of equally shaped grids, taking it to
    one ball per grid: the balls of all grids, in order."""
    out = BallGrid.zeros(len(grids))
    for shape in {g.shape for g in grids}:
        rows = [i for i, g in enumerate(grids) if g.shape == shape]
        out.set(rows, fn(BallGrid(np.stack([grids[i].c for i in rows]),
                                  np.stack([grids[i].r for i in rows]))))
    return out


@lru_cache(maxsize=None)
def _qtr_power(k: int) -> FloatBall:
    """(pi^2 k)^{-1/4} for an integer k, cached per process."""
    return fb_pow(_PI2 * FloatBall.exact(k), -F14)


class _Engine:
    """Evaluates the Picard iterates on the P cells [ih, (i+1)h], h = t/P,
    one iteration level at a time, with full enclosure bookkeeping
    (coefficient balls plus the scalar defect vector).

    Level j holds u_j on every cell as one (P, N+1, N+1) `BallGrid` stack
    per component and the defect vectors as a (P, 4) grid; only u_0 and
    the current level are kept.  With B_j(q) the truncated B u_j on cell q
    (one `nonlinearity_pair` call per cell), E_j(q) its A^{-1/4} defect
    bound and F_j(q) its sliver bound, a the seed, f_q the forcing on cell
    q and d_0 its defect (0 without forcing):

        u_0(i)     = H_{i+1} a + h sum_{q<i} G_{i-q} f_q
        u_{j+1}(i) = u_0(i) - h sum_{q<i} G_{i-q} B_j(q)
        d_{j+1}(i) = d_0(i) + (W_end[:, 0] F_j(i)
                              + sum_{q<i} W_int[:, i-1-q] E_j(q))
        u_m(t)     = (e^{-tA} a + h sum_q H_{P-q} f_q)
                     - h sum_q H_{P-q} B_{m-1}(q)
        d_m(t)     = sum_q W_end[:, P-1-q] E_{m-1}(q)

    The heat hulls act on each mode and depend only on a gap of cells: G_g
    holds e^{-tau A} for tau in [(g-1)h, (g+1)h], H_k for tau in
    [(k-1)h, kh].  Per cutoff, both come from one table of the factors
    e^{-k h lambda}, k = 0..P, a (P+1, N+1, N+1) stack built once per
    engine.  Each Duhamel sum starts from its q = 0 piece and adds the
    others in increasing q, and each defect sum is one `ball_matmul` of
    length i, so every cell's enclosure is bit for bit the one of the
    cell-by-cell recursion.
    """

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
        self._tables: Dict[int, tuple] = {}
        self._M = cert.ball("M", lambda: self.ct.M)
        # lambda^{-1/4} past the cap and (2 pi^2)^{-1/4}, the smallest mode
        # of a B cell being (1, 1)
        self._lam_qtr = _qtr_power((self.cap + 1) ** 2)
        self._qtr_11 = _qtr_power(2)
        self._weights()
        if forcing is not None:
            hb = FloatBall.exact(self.h)
            self._fw = BallGrid.of(
                FloatBall.from_bounded(self.ct.C_alpha(b)) * fb_pow(hb, 1 - b)
                * FloatBall.exact(1 / (1 - b)) for b in _DEFECT_BETAS)

    def _weights(self):
        """C_gamma times the defect weight of a cell at gap g >= 1,
        h (g h)^-gamma, and of the next cell, (2h)^{1-gamma}/(1-gamma) in
        the integral and h^{1-gamma}/(1-gamma) at the endpoint (also the
        weight of the cell itself), per channel gamma = beta + 1/4, over
        j h, j = 1..max(P, 2).  No gamma is an integer or 1/2, so each
        power is `grid_pow`'s exp(-gamma log jh), here one `grid_exp` of
        the (4, P) grid over one `grid_log`."""
        P = self.P
        jh = BallGrid.of(FloatBall.exact(j * self.h)
                         for j in range(1, max(P, 2) + 1))
        gammas = [b + F14 for b in _DEFECT_BETAS]
        hw = grid_exp(grid_log(jh) * BallGrid.of(
            FloatBall.exact(-g) for g in gammas).reshape(-1, 1)) * jh.at(0)
        inv = BallGrid.of(FloatBall.exact(1 / (1 - g)) for g in gammas)
        cg = BallGrid.of(self.cert.ball(("C_alpha", g),
                                        lambda: self.ct.C_alpha(g))
                         for g in gammas)
        near = hw[:, 1] * inv * FloatBall(2.0) * cg
        far = hw[:, :P - 1] * cg.reshape(-1, 1)
        self._W_int, self._W_end = (
            BallGrid(np.column_stack((g.c, far.c)),
                     np.column_stack((g.r, far.r)))
            for g in (near, hw[:, 0] * inv * cg))

    def _hulls(self, cutoff: int):
        """(H, G, e^{-tA}) at ``cutoff``: H_k in row k - 1 (k = 1..P), G_g
        in row g - 1 (g = 1..P-1) and the hull at tau = t; over [a h, b h]
        each mode factor is hulled between e^{-b h lambda} and
        min(e^{-a h lambda}, 1)."""
        if cutoff not in self._tables:
            P = self.P
            tabs = [_heat_factor(cutoff, k * self.h) for k in range(P + 1)]
            fac = BallGrid(np.stack([f.c for f in tabs]),
                           np.stack([f.r for f in tabs]))
            k = np.arange(1, P + 1)
            self._tables[cutoff] = tuple(
                _heat_hull(fac[b], fac[a])
                for a, b in ((k - 1, k), (k[:-1] - 1, k[:-1] + 1), (P, P)))
        return self._tables[cutoff]

    def _duhamel(self, src, first: int, last: int, table: int):
        """h sum_{q < i} of the hull of src[q], a (sc, cs) grid pair, for
        the cells i = first..last >= 1 (row i - first of each returned
        component stack); the piece (i, q) takes row i - q - 1 of hull
        family ``table`` (0: H, 1: G) at the source's cutoff.  A sum starts
        from its q = 0 piece and adds the others in increasing q, padded
        to the larger cutoff; the rows are not masked.  None when there is
        no cell."""
        if last < first:
            return None
        hb = FloatBall.exact(self.h)
        acc = None
        for q in range(last):
            lo = max(first, q + 1)
            hull = self._hulls(src[q][0].shape[-1] - 1)[table]
            piece = [g * hull[lo - q - 1:last - q] * hb for g in src[q]]
            if acc is None:
                acc = piece
                continue
            n = max(acc[0].shape[-1], piece[0].shape[-1]) - 1
            acc = [_padded(a, n) for a in acc]
            for a, p in zip(acc, piece):
                a.set(slice(lo - first, None), a[lo - first:] + _padded(p, n))
        return acc

    def _integrals(self, src):
        """The Duhamel sums of ``src`` over the gap hulls G for every cell,
        as (P, cap+1, cap+1) stacks: cell 0's is the zero pair at the
        cap."""
        acc = self._duhamel(src, 1, self.P - 1, 1)
        out = [BallGrid.zeros((self.P, self.cap + 1, self.cap + 1))
               for _ in _BASES]
        for o, a in zip(out, acc or ()):
            o.set(slice(1, None), _padded(a, self.cap))
        return out

    def _base(self, fcells):
        """u_0 on every cell as component stacks, each cell's cutoff, and
        the defects d_0."""
        P, cap, seed = self.P, self.cap, self.cert.seed
        u = [f.grid * self._hulls(f.cutoff)[0] for f in seed]
        cuts = np.full(P, seed[0].cutoff)
        d = BallGrid.zeros((P, len(_DEFECT_BETAS)))
        if fcells:
            # cell i adds the forcing integral over the cells q < i, in the
            # largest of their bands; cell 0 adds the zero pair at the cap
            bands = np.maximum.accumulate([g[0].shape[-1] - 1
                                           for g in fcells])
            cuts = np.maximum(cuts, np.append(cap, bands[:-1]))
            u = [_padded(g, cap) + f
                 for g, f in zip(u, self._integrals(fcells))]
            d = d + self._fw * FloatBall(self.forcing.sup_l2)
        return [_masked(g, b, cuts) for g, b in zip(u, _BASES)], cuts, d

    @staticmethod
    def _norms(cells, kind: str = None, q=0) -> BallGrid:
        """The pair norm of every (sc, cs) grid pair of ``cells`` under the
        mode weights of (kind, q): `frac_power_norm` for kind "stokes" and
        q = 2 beta, the root of `_l2_upper`'s sum without a kind."""
        total = BallGrid.zeros(len(cells))
        for k, b in enumerate(_BASES):
            total = total + _each(lambda s: BallGrid.sumsq_rows(
                *weighted_sq_terms(b, s, kind, q)), [c[k] for c in cells])
        return grid_sqrt(total)

    def _products(self, u, cuts: np.ndarray, d: BallGrid):
        """B u_j on every cell of a level, truncated at the cap, as (sc, cs)
        grid pairs, with the defect bounds E and F of every cell."""
        cells = [tuple(g[i, :n + 1, :n + 1] for g in u)
                 for i, n in enumerate(cuts)]
        prods = [nonlinearity_pair(*(FourierField(b, g.shape[-1] - 1, g)
                                     for b, g in zip(_BASES, c)))
                 for c in cells]
        cut = [[_trunc_band(f, self.cap) for f in p] for p in prods]
        B = [tuple(f.grid for f, _ in c) for c in cut]
        tails = BallGrid([[e for _, e in c] for c in cut])
        u14, u12 = (self._norms(cells, "stokes", 2 * b) for b in (F14, F12))
        d14, d12 = (d[:, _DEFECT_BETAS.index(b)] for b in (F14, F12))
        E = (d14 * (u12 + d12) + u14 * d12) * self._M \
            + grid_sqrt(tails.sumsq_rows()) * self._lam_qtr
        l2 = BallGrid(self._norms(B).upper())
        return B, E, l2 * self._qtr_11 + E

    def _next(self, base, d0: BallGrid, B, E: BallGrid, Fv: BallGrid):
        """u_{j+1} and d_{j+1} on every cell from B u_j and its bounds."""
        P = self.P
        u = [_masked(g - i, b, self.cap)
             for g, i, b in zip(base, self._integrals(B), _BASES)]
        idef = self._W_end[:, 0].reshape(1, -1) * Fv.reshape(-1, 1)
        for i in range(1, P):
            idef.set(i, idef[i] + ball_matmul(
                self._W_int[:, i - 1 - np.arange(i)], E[:i]))
        return u, d0 + idef

    def eval(self, m: int):
        """Enclosure of u_m at the exact endpoint t."""
        P, cap = self.P, self.cap
        pair = tuple(FourierField(f.basis, f.cutoff,
                                  f.grid * self._hulls(f.cutoff)[2], f.tail_l2)
                     for f in self.cert.seed)
        fcells = [tuple(f.grid for f in project_pair(*self.forcing.pair_fn(
            q * self.h, (q + 1) * self.h))) for q in range(P)] \
            if self.forcing is not None else []
        if any(g[0].shape[-1] > cap + 1 for g in fcells):
            raise ValueError("forcing band exceeds the engine mode cap")
        if fcells:
            fv = self._duhamel(fcells, P, P, 0)
            pair = tuple(p + FourierField(b, g.shape[-1] - 1, g[0])
                         for p, b, g in zip(pair, _BASES, fv))
        if m == 0:
            return pair, BallGrid.zeros(len(_DEFECT_BETAS))
        u, cuts, d0 = self._base(fcells)
        base, d = [_padded(g, cap) for g in u], d0
        for j in range(m):
            B, E, Fv = self._products(u, cuts, d)
            if j + 1 < m:
                (u, d), cuts = self._next(base, d0, B, E, Fv), np.full(P, cap)
        val = self._duhamel(B, P, P, 0)
        return (tuple(p - FourierField(b, cap, g[0])
                      for p, b, g in zip(pair, _BASES, val)),
                ball_matmul(self._W_end[:, P - 1 - np.arange(P)], E))


def _pair_radius(pair) -> float:
    """Upper bound on the joint L2 norm of the pair's coefficient radii."""
    return fb_sqrt(sum(BallGrid(f.grid.r).sumsq_ball(f.weights())
                       for f in pair)).upper()


def _fold_defect(pair, d0: float):
    extra = FloatBall.from_endpoints(0.0, d0)
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


# the nested-interval indices n = 1.._CLAIM2_N the smoothness lift tries
_CLAIM2_N = 400


@lru_cache(maxsize=1)
def _claim2_factors() -> BallGrid:
    """(1 - 2^-n)^{-17/20} (2^-n)^{1/4} for n = 1.._CLAIM2_N (entry n - 1):
    the part of the Claim-II tail that depends on n alone, cached and
    read-only."""
    p = BallGrid(np.ldexp(1.0, -np.arange(1, _CLAIM2_N + 1)))
    out = grid_pow(BallGrid(1.0) - p, Fraction(-17, 20)) * grid_pow(p, F14)
    out.c.flags.writeable = out.r.flags.writeable = False
    return out


def _claim2_tail(cert: IterationCertificate, m: int, t: Fraction, n):
    """Upper bounds on the Claim-II endpoint-tail bound
    C C_{17/20} M M_{1/4,m} M_{1/2,m} (t - t_n)^{-17/20} 4 t_n^{1/4},
    t_n = t/2^n, for an integer 1 <= n <= _CLAIM2_N (a float) or an array
    of them (an array)."""
    ct = cert.constants
    mm = min(m, len(cert.M_beta_m[F14]) - 1)
    lead = cert.ball(("claim2", mm), lambda: (
        ct.C * ct.C_alpha(Fraction(17, 20)) * ct.M *
        cert.M_beta_m[F14][mm] * cert.M_beta_m[F12][mm])) * FloatBall(4.0)
    idx = np.ravel(n) - 1
    if idx.min() < 0 or idx.max() >= _CLAIM2_N:
        raise ValueError("the Claim-II index must lie in 1..%d" % _CLAIM2_N)
    # (t - t_n)^{-17/20} t_n^{1/4} = t^{-3/5} (1 - 2^-n)^{-17/20} (2^-n)^{1/4}
    out = (_claim2_factors()[idx]
           * (lead * fb_pow(FloatBall.exact(t), Fraction(-3, 5)))).upper()
    return out.reshape(np.shape(n)) if np.ndim(n) else float(out[0])


def smoothness_lift(m: int, a, t, K: int,
                    cert: IterationCertificate = None,
                    constants: ConstantsTable = None, panels: int = 1,
                    panel_cap: int = 64,
                    forcing: Forcing = None) -> LiftResult:
    """H^{6/5}-certified approximant of u_m(t) for t > 0.

    The engine runs on P = ``panels`` time cells (one by default) and P
    doubles, up to ``panel_cap``, until the realized radius plus the engine
    defect meets 2^-K, so the result comes from the smallest power of two
    times ``panels`` that meets the budget; `BudgetError` when the cap does
    not.  The nested-interval schedule [t_n, t - t_n], t_n = t/2^n, is
    resolved with the smallest n whose Claim-II endpoint-tail bound meets
    2^-(K+2) and reported as part of the result; the executable quadrature
    encloses the full (0, t] range, with the head cell's exponential hull
    and sliver estimate subsuming the reported endpoint tails.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("the smoothness lift needs t > 0 strictly")
    if cert is None:
        cert = compute_horizon(a, constants, forcing=forcing)
    if t > cert.T_frac:
        raise HorizonError("t = %s exceeds the certified horizon %s"
                           % (t, cert.T_frac))
    # the first n <= _CLAIM2_N whose tail meets 2^-(K+2), else _CLAIM2_N
    tails = _claim2_tail(cert, m, t, np.arange(1, _CLAIM2_N + 1))
    n = 1 + int(np.argmax(np.append(tails[:-1] <= 2.0 ** -(K + 2), True)))
    P = panels
    while True:
        eng = _Engine(cert, t, P, K + 6, forcing)
        pair, d = eng.eval(m)
        rad = (FloatBall(_pair_radius(pair)) + d.at(0)).upper()
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
    hs_defect = fb_pow(FloatBall(1.5) / _PI2, F35) * \
        d.at(_DEFECT_BETAS.index(F35))
    hs65 = hs_band.widened(hs_defect.upper())
    defect = d.upper()
    return LiftResult(
        u=_fold_defect(pair, defect[0]), band=band, hs65=hs65,
        defect={b: float(defect[i]) for i, b in enumerate(_DEFECT_BETAS)},
        n=n, t_n=t / 2 ** n, endpoint_tail=float(tails[n - 1]), panels=P)


def iterate(a, cert: IterationCertificate, m: int, t, K: int,
            panel_cap: int = 64, forcing: Forcing = None):
    """2^-K approximant of the Picard iterate u_m(t) on [0, T_a].

    t = 0 returns the seed; m = 0 delegates to the semigroup; small t goes
    through the modulus eta when the certificate's resolution floor allows;
    positive t composes through the smoothness lift, whose time-cell
    ladder starts at one cell.
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
    # the ladder's start goes by keyword: perfbench's tracer reads it there
    # to count the doublings
    lift = smoothness_lift(m, a, t, K, cert=cert, panels=1,
                           panel_cap=panel_cap, forcing=forcing)
    return lift.u


def solve(a, f: Optional[Forcing], t, K: int,
          constants: ConstantsTable = None,
          cert: IterationCertificate = None, panel_cap: int = 64):
    """2^-K approximant of the mild solution u(t) on the certified horizon.

    Chooses the iteration depth m so the geometric tail L epsilon^(m-1) /
    (1 - epsilon) clears 2^-(K+1), then runs iterate at precision K+1; on
    the engine route its smoothness lift starts from one time cell and
    doubles the cells, up to ``panel_cap``, only while the budget is
    missed.
    """
    if cert is None:
        cert = compute_horizon(a, constants, forcing=f)
    eps = cert.ball("epsilon", lambda: cert.epsilon)
    tail = cert.ball("L", lambda: cert.L) / (FloatBall(1.0) - eps)
    m = 1
    while tail.upper() > 2.0 ** -(K + 1):
        tail = tail * eps
        m += 1
        if m > 200:
            raise BudgetError("geometric tail does not close")
    return iterate(a, cert, m, t, K + 1, panel_cap=panel_cap, forcing=f)


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
    """int_{x0}^{x1} trig(char, n, x) dx for n = 0..cutoff: (trig'(x0) -
    trig'(x1))/(n pi) with trig' the other trig function, x1 - x0 at n = 0
    for the cosine."""
    if char == "s":
        a, b = _trig_values("c", cutoff, x0), _trig_values("c", cutoff, x1)
    else:
        a, b = _trig_values("s", cutoff, x1), _trig_values("s", cutoff, x0)
    n = np.arange(cutoff + 1)
    out = (a - b) / (BallGrid(np.maximum(n, 1)) * FB_PI)
    out.set(0, FloatBall.exact(Fraction(x1) - Fraction(x0)) if char == "c"
            else FloatBall(0.0))
    return out


def _segment_integral(h1: FourierField, h2: FourierField, p, q) -> FloatBall:
    if p[1] == q[1]:
        return _bilinear(_char_antiderivative(h1.basis[0], h1.cutoff,
                                              p[0], q[0]), h1.grid,
                         _trig_values(h1.basis[1], h1.cutoff, p[1]))
    return _bilinear(_trig_values(h2.basis[0], h2.cutoff, p[0]), h2.grid,
                     _char_antiderivative(h2.basis[1], h2.cutoff, p[1], q[1]))


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
    conv1, conv2 = _convection(u1, u2)
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
