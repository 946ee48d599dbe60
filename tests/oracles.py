"""Independent routes kept only as cross-checks for the library.

Most functions here compute a value the package also computes, by a
different method, so that tests can require the two enclosures to overlap.
The contour semigroup `contour_semigroup`, the paper's resolvent integral
assembled from the library's contour primitives, checks the closed-form
semigroup; the resolvent, the contour mode cutoff and the smoothing
diagnostic check its operator identities and constants; no library code
calls them.  Point values and L2 inner products of fields (`eval_ball`,
`inner_l2`) serve only tests.  The generic Taylor-series engine `TSeries`
lives here too, with what is built on it: the adaptive Taylor-model
quadrature, the panel models of the kernel profile W (for the radial
moments) and of h1 (for the window transforms).  The radial moments J_s
also have a closed form here (`gamma_radial_moment`, in the `BoundedValue`
balls of e^-1 and E_1(1)), which the series kernel coefficients use; the
library needs only J_0, through the normalization `gamma0`, a float ball
from one exact series, which `gamma0_bounded` (the same closed form in
90-bit balls) checks, and certifies the window transforms by the
profile's ODE recurrence.  Two earlier forms of those constants check
the library's: `h1_models_by_level` bisects the panels one level at a
time (the library's passes of several levels must give its bits), and
`window_grid_tensor` contracts a panels x modes x orders tensor (the
library's per-half-width contraction must overlap it).
The band-limited product's earlier route,
`ball_convolve` of the exponential extensions `_extended`, checks the
library's fold on the coefficient grids.  The projection's truncation
search as a scan of every cutoff, `truncation_index_scan`, checks the
library's bisection.  The Picard engine's cell-by-cell
recursion, `CellEngine`, checks the library's level engine bit for bit,
and its earlier form `RecomputingCellEngine`, which runs every cell's
product at every level, bounds it from outside.  The
Claim-1 horizon search's earlier loops check the library's integer
search: `rounded_root_exponent` compares a rounded fourth root T^{1/4}
against the bound, `fraction_claim1_exponent` makes the root-free
comparison in `Fraction`s.  The term-by-term `Fraction` loops
`fraction_inner_on_box` and `fraction_compose_affine` check the exact
integer Gram kernel `polyfield.poly_inner_on_box` and the integer affine
composition `polyfield.RationalPoly2.compose_affine`.  mpmath's
interval functions (`bv_log`, `bv_sin`, `bv_cos`, `bv_gamma`, `bv_pi`,
through `_iv_call`) are the tests' independent transcendental reference:
the library computes no value through them.  Beta's closed form in them,
`beta_gamma`, checks the library's integer series.  The exponential and
rational power of exact balls, `bv_exp` and `bv_pow`, on which the Beta,
`TSeries`, kernel and fractional-power references build, have no library
reader.
"""

import dataclasses
import heapq
import math
from fractions import Fraction
from functools import lru_cache
from typing import Tuple

import numpy as np
from mpmath import iv
from mpmath.libmp import finf, fninf, to_rational

from solenoid import nse
from solenoid.approxcore import DEFAULT_PREC, BoundedValue, _split, bv_sqrt
from solenoid.floatball import (EPS, FB_PI, TINY, BallGrid, FloatBall,
                                ball_matmul, fb_exp, fb_log, fb_pow, fb_sincos,
                                fb_sqrt, grid_pow, grid_sincos_pi)
from solenoid.floatball import _floored, _gamma, _up
from solenoid.helmholtz import _as_pair, resolve_field
from solenoid.polyfield import RationalPoly2, gamma0
from solenoid.spectral import _H1_ORDER, _H1_TOL, _PI2, FourierField, \
    _ab_grid, _bilinear, _h1_coeffs, _h1_edge_bound, \
    _panel_data, _trig_values, _weights
from solenoid.stokes import _as_bv, _components, _emit, _gamma3_value, \
    _heat_factor, _l2_upper, contour_factors, tail_cutoff_l


# ---------------------------------------------------------------------------
# mpmath.iv bridge: transcendental enclosures of exact balls
# ---------------------------------------------------------------------------

def _iv_from_dyadic(d: Fraction):
    # iv.mpf(int) rounds outward to the working precision; ldexp is exact.
    m, e = _split(d)
    return iv.ldexp(iv.mpf(m), e)


def _iv_from_bv(x: BoundedValue):
    lo = _iv_from_dyadic(x.lower())
    hi = _iv_from_dyadic(x.upper())
    return lo + (hi - lo) * iv.mpf([0, 1])


def _mpf_tuple_to_fraction(t) -> Fraction:
    if t in (finf, fninf):
        raise OverflowError("infinite interval endpoint")
    p, q = to_rational(t)
    return Fraction(int(p), int(q))


def _bv_from_iv(x, prec: int) -> BoundedValue:
    lo, hi = x._mpi_
    return BoundedValue.from_endpoints(_mpf_tuple_to_fraction(lo),
                                       _mpf_tuple_to_fraction(hi), prec)


def _iv_call(name: str, x: BoundedValue, prec: int) -> BoundedValue:
    """The enclosure of ``iv.<name>`` at x, worked at prec + 10 bits."""
    old = iv.prec
    try:
        iv.prec = prec + 10
        return _bv_from_iv(getattr(iv, name)(_iv_from_bv(x)), prec)
    finally:
        iv.prec = old


def bv_log(x: BoundedValue, prec: int = DEFAULT_PREC) -> BoundedValue:
    if x.lower() <= 0:
        raise ValueError("log of interval touching zero")
    return _iv_call("log", x, prec)


def bv_sin(x: BoundedValue, prec: int = DEFAULT_PREC) -> BoundedValue:
    return _iv_call("sin", x, prec)


def bv_cos(x: BoundedValue, prec: int = DEFAULT_PREC) -> BoundedValue:
    return _iv_call("cos", x, prec)


def bv_gamma(x: BoundedValue, prec: int = DEFAULT_PREC) -> BoundedValue:
    """Gamma function of a positive enclosure."""
    if x.lower() <= 0:
        raise ValueError("gamma needs a positive interval")
    return _iv_call("gamma", x, prec)


def _iv_constant(name: str, prec: int) -> BoundedValue:
    # an mpmath constant is evaluated at the precision current when read
    old = iv.prec
    try:
        iv.prec = prec + 10
        return _bv_from_iv(getattr(iv, name), prec)
    finally:
        iv.prec = old


def bv_pi(prec: int = DEFAULT_PREC) -> BoundedValue:
    return _iv_constant("pi", prec)


def bv_euler(prec: int = DEFAULT_PREC) -> BoundedValue:
    """Euler's constant gamma = 0.5772..."""
    return _iv_constant("euler", prec)


def bv_e1_iv(x: Fraction, prec: int) -> BoundedValue:
    """E_1(x) of an exact positive dyadic x by `approxcore.bv_e1`'s series,
    with Euler's gamma and ln x from mpmath's intervals: no 60-digit
    literal caps its precision."""
    target = Fraction(1, 1 << prec)
    partial, power, j = Fraction(0), Fraction(1), 0  # power = x^j / j!
    while True:
        j += 1
        power = power * x / j
        partial += power / j if j % 2 else -power / j
        tail = power * x / ((j + 1) * (j + 1))  # |term j + 1|
        if j + 1 > x and tail <= target:
            break
    series = BoundedValue.from_endpoints(partial - tail, partial + tail, prec)
    g, lg = bv_euler(prec), bv_log(BoundedValue.exact(x), prec)
    # dyadic balls subtract exactly
    return BoundedValue(series.center - g.center - lg.center,
                        series.radius + g.radius + lg.radius)


def beta_gamma(x: Fraction, y: Fraction, k: int = 24) -> BoundedValue:
    """B(x, y) = Gamma(x) Gamma(y)/Gamma(x + y) (DLMF 5.12.1) in mpmath's
    outward interval arithmetic, at the precision `approxcore.beta` uses."""
    prec = max(80, k + 30)

    def gamma(v: Fraction) -> BoundedValue:
        return bv_gamma(BoundedValue.from_fraction(Fraction(v), prec), prec)

    return (gamma(x) * gamma(y) / gamma(Fraction(x) + y)).rounded(prec)


# ---------------------------------------------------------------------------
# exp of exact balls and the kernel normalization in them
# ---------------------------------------------------------------------------

def bv_exp(x: BoundedValue, prec: int = DEFAULT_PREC) -> BoundedValue:
    return _iv_call("exp", x, prec)


@lru_cache(maxsize=None)
def _e1_balls(prec: int) -> Tuple[BoundedValue, BoundedValue]:
    """e^-1 and E_1(1) at ``prec`` bits: the two transcendentals of every
    kernel constant, past the library's 60-digit Euler constant."""
    return bv_exp(BoundedValue.exact(-1), prec), bv_e1_iv(Fraction(1), prec)


@lru_cache(maxsize=None)
def gamma0_bounded(kbits: int = 60) -> BoundedValue:
    """Normalizing constant of the bump kernel: the kernel mass without the
    constant is 8 J_0 with J_0 = (1/2) int_0^1 exp(-1/(1-u)) du, so
    gamma0 = 1/(8 J_0).

    J_0 = E_2(1)/2, and E_2(1) = e^-1 - E_1(1) (DLMF 8.19.12).
    """
    e, e1 = _e1_balls(max(80, kbits + 30))
    return BoundedValue.exact(1) / (e - e1).scale(4)


# ---------------------------------------------------------------------------
# rational powers of exact balls
# ---------------------------------------------------------------------------

def bv_pow(x: BoundedValue, q: Fraction, prec: int = DEFAULT_PREC) -> BoundedValue:
    """x**q for positive x and rational q, via exp(q log x) with exact cases."""
    q = Fraction(q)
    if q == 0:
        return BoundedValue.exact(1)
    if q.denominator == 1 and 0 < q.numerator <= 64:
        out = x
        for _ in range(q.numerator - 1):
            out = out * x
        return out
    if x.lower() <= 0:
        if x.lower() == 0 and x.upper() == 0 and q > 0:
            return BoundedValue.exact(0)
        if x.lower() >= 0 and q > 0:
            # monotone power on [0, hi]: lower endpoint is exactly 0
            hi = bv_pow(BoundedValue.from_endpoints(x.upper(), x.upper(), prec),
                        q, prec)
            return BoundedValue.from_endpoints(Fraction(0), hi.upper(), prec)
        raise ValueError("power of interval touching zero with bad exponent")
    return bv_exp(bv_log(x, prec).scale(q), prec)


# ---------------------------------------------------------------------------
# truncated Taylor series
# ---------------------------------------------------------------------------

def _is_fb(x) -> bool:
    return isinstance(x, FloatBall)


def _one(x):
    return FloatBall(1.0) if _is_fb(x) else BoundedValue.exact(1)


def _zero(x):
    return FloatBall(0.0) if _is_fb(x) else BoundedValue.exact(0)


def _scaled(x, f):
    """x times the exact rational f, for either ball type."""
    return x * FloatBall.exact(Fraction(f)) if _is_fb(x) else x.scale(f)


class TSeries:
    """Coefficients c[0..order] of sum c[j] (t - t0)^j, truncated.

    Coefficients are `BoundedValue` or `FloatBall` balls; a function written
    against TSeries is evaluated once around a panel midpoint (for the
    polynomial part) and once over the whole panel (for the Lagrange
    remainder coefficient).  Constants, exact scalings and the elementary
    functions pick the `BoundedValue` or `FloatBall` form (`bv_*` or
    `fb_*`) by the coefficient type.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = list(coeffs)

    @property
    def order(self):
        return len(self.c) - 1

    @staticmethod
    def variable(center, order: int) -> "TSeries":
        c = [center, _one(center)] + [_zero(center)] * (order - 1)
        return TSeries(c[:order + 1])

    @staticmethod
    def constant(value, order: int) -> "TSeries":
        return TSeries([value] + [_zero(value)] * order)

    def _zero(self):
        return _zero(self.c[0])

    def _promote(self, other) -> "TSeries":
        if isinstance(other, TSeries):
            return other
        if isinstance(other, (int, Fraction)):
            other = BoundedValue.from_fraction(Fraction(other))
        return TSeries.constant(other, self.order)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        o = self._promote(other)
        return TSeries([a + b for a, b in zip(self.c, o.c)])

    __radd__ = __add__

    def __neg__(self):
        return TSeries([-a for a in self.c])

    def __sub__(self, other):
        return self + (-self._promote(other))

    def __rsub__(self, other):
        return self._promote(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(other))
        o = self._promote(other)
        n = self.order
        out = [self._zero() for _ in range(n + 1)]
        for i, a in enumerate(self.c):
            for j in range(n + 1 - i):
                out[i + j] = out[i + j] + a * o.c[j]
        return TSeries(out)

    __rmul__ = __mul__

    def scale(self, f: Fraction):
        return TSeries([_scaled(a, f) for a in self.c])

    def reciprocal(self):
        f0 = self.c[0]
        n = self.order
        g = [_one(f0) / f0]
        for k in range(1, n + 1):
            acc = self._zero()
            for j in range(1, k + 1):
                acc = acc + self.c[j] * g[k - j]
            g.append(-(acc / f0))
        return TSeries(g)

    def __truediv__(self, other):
        return self * self._promote(other).reciprocal()

    def __rtruediv__(self, other):
        return self._promote(other) * self.reciprocal()

    # -- elementary functions ------------------------------------------------

    def exp(self):
        n = self.order
        g = [(fb_exp if _is_fb(self.c[0]) else bv_exp)(self.c[0])]
        for k in range(1, n + 1):
            acc = self._zero()
            for j in range(1, k + 1):
                acc = acc + _scaled(self.c[j] * g[k - j], j)
            g.append(_scaled(acc, Fraction(1, k)))
        return TSeries(g)

    def log(self):
        f0 = self.c[0]
        n = self.order
        g = [(fb_log if _is_fb(f0) else bv_log)(f0)]
        for k in range(1, n + 1):
            acc = _scaled(self.c[k], k)
            for j in range(1, k):
                acc = acc - _scaled(g[j], j) * self.c[k - j]
            g.append(_scaled(acc, Fraction(1, k)) / f0)
        return TSeries(g)

    def sincos(self):
        n = self.order
        x = self.c[0]
        s0, c0 = fb_sincos(x) if _is_fb(x) else (bv_sin(x), bv_cos(x))
        s, c = [s0], [c0]
        for k in range(1, n + 1):
            sa = self._zero()
            ca = self._zero()
            for j in range(1, k + 1):
                fj = _scaled(self.c[j], j)
                sa = sa + fj * c[k - j]
                ca = ca + fj * s[k - j]
            s.append(_scaled(sa, Fraction(1, k)))
            c.append(_scaled(-ca, Fraction(1, k)))
        return TSeries(s), TSeries(c)

    def sin(self):
        return self.sincos()[0]

    def cos(self):
        return self.sincos()[1]

    def pow_frac(self, q: Fraction):
        q = Fraction(q)
        if q == 0:
            return TSeries.constant(_one(self.c[0]), self.order)
        if q.denominator == 1 and 0 < q.numerator <= 32:
            out = self
            for _ in range(q.numerator - 1):
                out = out * self
            return out
        if self.order == 0 and isinstance(self.c[0], BoundedValue):
            return TSeries([bv_pow(self.c[0], q)])
        return self.log().scale(q).exp()


# ---------------------------------------------------------------------------
# certified adaptive quadrature
# ---------------------------------------------------------------------------

def taylor_panel_integral(f, lo: Fraction, hi: Fraction, order: int = 8,
                          prec: int = DEFAULT_PREC) -> BoundedValue:
    """Enclose the integral of ``f`` over one panel [lo, hi].

    ``f`` maps a TSeries in the integration variable to a TSeries.  Uses a
    Taylor model of the given order with a Lagrange remainder taken from the
    order-``order`` coefficient evaluated over the whole panel; falls back to
    the first-order range rule when the integrand fails on the panel (an
    integrand must then return a plain range enclosure at order 0).
    """
    lo, hi = Fraction(lo), Fraction(hi)
    w = hi - lo
    if w == 0:
        return BoundedValue.exact(0)
    box = BoundedValue.from_endpoints(lo, hi, prec)
    try:
        g = f(TSeries.variable(box, order))
        mid = Fraction(lo + hi, 2)
        pt = f(TSeries.variable(BoundedValue.from_fraction(mid, prec),
                                max(order - 1, 0)))
    except (ValueError, ZeroDivisionError, OverflowError):
        g0 = f(TSeries.variable(box, 0))
        return g0.c[0].scale(w, prec)
    h = w / 2
    total = BoundedValue.exact(0)
    hp = h  # h^(j+1)
    for j in range(order):
        if j % 2 == 0:
            total = total + pt.c[j].scale(2 * hp / (j + 1), prec)
        hp *= h
    # remainder: f_p(xi_t) (t-mid)^p integrated over the panel
    if order == 0:
        rng = BoundedValue.exact(1)
    elif order % 2 == 0:
        rng = BoundedValue.from_endpoints(Fraction(0), h ** order, prec)
    else:
        rng = BoundedValue.from_endpoints(-(h ** order), h ** order, prec)
    total = total + (g.c[order] * rng).scale(w, prec)
    return total.rounded(prec)


def certified_integral(f, a: Fraction, b: Fraction, target: Fraction,
                       max_panels: int = 20000, order: int = 8,
                       prec: int = DEFAULT_PREC) -> BoundedValue:
    """Enclose the integral of ``f`` over [a, b] by adaptive bisection.

    ``f`` is written against :class:`TSeries`; each panel is
    integrated by :func:`taylor_panel_integral`.  Panels are bisected, worst
    radius first, until the total radius is at most ``target``.
    """
    a, b = Fraction(a), Fraction(b)
    if b < a:
        raise ValueError("reversed integration bounds")
    if a == b:
        return BoundedValue.exact(0)

    counter = 0
    heap = []

    def push(lo, hi):
        nonlocal counter
        contrib = taylor_panel_integral(f, lo, hi, order=order, prec=prec)
        counter += 1
        heapq.heappush(heap, (-contrib.radius, counter, lo, hi, contrib))
        return contrib

    first = push(a, b)
    total_r = first.radius
    target = Fraction(target)
    panels = 1
    while total_r > target and panels < max_panels:
        _, _, lo, hi, contrib = heapq.heappop(heap)
        total_r -= contrib.radius
        mid = Fraction(lo + hi, 2)
        c1 = push(lo, mid)
        c2 = push(mid, hi)
        total_r += c1.radius + c2.radius
        panels += 1
    if total_r > target:
        raise RuntimeError("quadrature did not meet target radius %s within "
                           "%d panels" % (target, max_panels))
    out = BoundedValue.exact(0)
    for _, _, _, _, contrib in heap:
        out = out + contrib
    return out.rounded(prec)


def beta_quadrature(x: Fraction, y: Fraction, k: int = 24) -> BoundedValue:
    """Enclose B(x, y) = int_0^1 (1-t)**(x-1) t**(y-1) dt with radius <= 2**-k
    by certified quadrature.

    Endpoint singularities (exponents below 1) are handled by closed-form
    sliver bounds; the regular middle part goes to adaptive quadrature.
    """
    x, y = Fraction(x), Fraction(y)
    if x <= 0 or y <= 0:
        raise ValueError("beta arguments must be positive")
    prec = max(80, k + 30)
    target = Fraction(1, 1 << k)

    def integrand(t):
        return (1 - t).pow_frac(x - 1) * t.pow_frac(y - 1)

    def sliver(exp_inner: Fraction, exp_outer: Fraction, delta: Fraction):
        # integral over [0, delta] of t**(exp_inner-1) * (1-t)**(exp_outer-1)
        base = bv_pow(BoundedValue.exact(delta), exp_inner, prec).scale(
            Fraction(1, 1) / exp_inner)
        factor = bv_pow(BoundedValue.from_endpoints(1 - delta, Fraction(1), prec),
                        exp_outer - 1, prec)
        return base * factor

    lo_cut = Fraction(0)
    hi_cut = Fraction(1)
    parts = BoundedValue.exact(0)
    if y < 1:
        delta = Fraction(1, 2)
        while True:
            s = sliver(y, x, delta)
            if s.radius <= target / 4:
                break
            delta /= 4
        parts = parts + s
        lo_cut = delta
    if x < 1:
        delta = Fraction(1, 2)
        while True:
            s = sliver(x, y, delta)
            if s.radius <= target / 4:
                break
            delta /= 4
        parts = parts + s
        hi_cut = 1 - delta
    mid = certified_integral(integrand, lo_cut, hi_cut, target / 2, prec=prec)
    return (parts + mid).rounded(prec)


@lru_cache(maxsize=None)
def axis_product_table(c1: str, c2: str, cut1: int, cut2: int):
    """Product-to-sum expansion per axis: trig(c1, i) trig(c2, j) =
    sum of +-(1/2) trig(out_char, index)."""
    out_char = "c" if c1 == c2 else "s"
    table = []
    for i in range(cut1 + 1):
        row = []
        for j in range(cut2 + 1):
            if c1 == "s" and c2 == "s":
                terms = [(abs(i - j), +1), (i + j, -1)]
            elif c1 == "c" and c2 == "c":
                terms = [(abs(i - j), +1), (i + j, +1)]
            elif c1 == "s" and c2 == "c":
                terms = [(i + j, +1)]
                if i > j:
                    terms.append((i - j, +1))
                elif j > i:
                    terms.append((j - i, -1))
            else:  # cos * sin
                terms = [(i + j, +1)]
                if j > i:
                    terms.append((j - i, +1))
                elif i > j:
                    terms.append((i - j, -1))
            if out_char == "c":
                row.append([t for t in terms])
            else:
                row.append([t for t in terms if t[0] != 0])
        table.append(row)
    return out_char, table


def product_to_sum(f: FourierField, g: FourierField) -> FourierField:
    """Pointwise product of band-limited fields by the product-to-sum
    identities, one scalar ball operation per term."""
    cx, x_terms = axis_product_table(f.basis[0], g.basis[0],
                                     f.cutoff, g.cutoff)
    cy, y_terms = axis_product_table(f.basis[1], g.basis[1],
                                     f.cutoff, g.cutoff)
    cut = f.cutoff + g.cutoff
    out = BallGrid.zeros((cut + 1, cut + 1))
    half = FloatBall.exact(Fraction(1, 2))
    act_a = np.argwhere((f.grid.c != 0.0) | (f.grid.r != 0.0))
    act_b = np.argwhere((g.grid.c != 0.0) | (g.grid.r != 0.0))
    for n1, m1 in act_a:
        a = f.grid.at((n1, m1))
        for n2, m2 in act_b:
            prod = a * g.grid.at((n2, m2))
            for ix, sx in x_terms[n1][n2]:
                px = prod * half if sx > 0 else -(prod * half)
                for iy, sy in y_terms[m1][m2]:
                    v = px * half if sy > 0 else -(px * half)
                    out.set((ix, iy), out.at((ix, iy)) + v)
    return FourierField(cx + cy, cut, out)


def eval_ball(f: FourierField, x: Fraction, y: Fraction) -> FloatBall:
    """The band-limited field f at the point (x, y), from its trig values at
    the rational coordinates."""
    f._require_band_limited("point evaluation")
    return _bilinear(_trig_values(f.basis[0], f.cutoff, x), f.grid,
                     _trig_values(f.basis[1], f.cutoff, y))


def inner_l2(f: FourierField, g: FourierField) -> FloatBall:
    """L2 inner product of two fields on one basis; tails enter through
    Cauchy-Schwarz."""
    a, b, cut = f._aligned(g)
    s = (a.grid * b.grid * BallGrid(_weights(f.basis, cut))).ball_sum()
    ta, tb = FloatBall(a.tail_l2.upper()), FloatBall(b.tail_l2.upper())
    cross = ta * b.l2_norm_ball() + tb * a.l2_norm_ball() + ta * tb
    return s.widened(cross.upper())


def dense_row_reduce(rows):
    """Gauss-Jordan elimination over the rationals that updates whole rows,
    zeros included; returns (rank, rref, pivots) like
    `polyfield._row_reduce`, which touches only the pivot row's nonzero
    columns.  The reduced echelon form is unique, so both must agree."""
    m = [[Fraction(v) for v in row] for row in rows]
    if not m:
        return 0, [], []
    pivots, r = [], 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [vi - f * vr for vi, vr in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return r, m, pivots


def fraction_inner_on_box(p, q, box) -> Fraction:
    """Exact integral of p*q over an axis-aligned rational box, summed term
    by term in `Fraction`s: the O(N^4) loop `polyfield.poly_inner_on_box`
    ran before it became an integer Hankel contraction."""
    (xa, xb), (ya, yb) = box
    xa, xb, ya, yb = map(Fraction, (xa, xb, ya, yb))
    dmax = p.N + q.N
    xpow = [(xb ** (d + 1) - xa ** (d + 1)) / (d + 1) for d in range(dmax + 1)]
    ypow = [(yb ** (d + 1) - ya ** (d + 1)) / (d + 1) for d in range(dmax + 1)]
    acc = Fraction(0)
    for i in range(p.N + 1):
        for j in range(p.N + 1):
            pij = p.a[i][j]
            if pij == 0:
                continue
            for k in range(q.N + 1):
                for l in range(q.N + 1):
                    qkl = q.a[k][l]
                    if qkl != 0:
                        acc += pij * qkl * xpow[i + k] * ypow[j + l]
    return acc


def fraction_compose_affine(p, sx, cx, sy, cy):
    """p(sx*x + cx, sy*y + cy) expanded term by term in `Fraction`s: the
    loop `polyfield.RationalPoly2.compose_affine` ran before it moved to
    integers over one common denominator."""
    sx, cx, sy, cy = map(Fraction, (sx, cx, sy, cy))
    n = p.N
    # binomial expansion tables: (s*t + c)^i = sum_d B[i][d] t^d
    def table(s, c):
        rows = [[Fraction(1)]]
        for i in range(1, n + 1):
            prev = rows[-1]
            cur = [Fraction(0)] * (i + 1)
            for d, v in enumerate(prev):
                cur[d] += v * c
                cur[d + 1] += v * s
            rows.append(cur)
        return rows
    bx, by = table(sx, cx), table(sy, cy)
    out = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        for j in range(n + 1):
            aij = p.a[i][j]
            if aij == 0:
                continue
            for d1, v1 in enumerate(bx[i]):
                if v1 == 0:
                    continue
                for d2, v2 in enumerate(by[j]):
                    if v2 != 0:
                        out[d1][d2] += aij * v1 * v2
    return RationalPoly2(out)


# ---------------------------------------------------------------------------
# the band-limited product through the extensions
# ---------------------------------------------------------------------------
#
# The library's route before the fold: both fields' exponential extensions
# formed as (2N + 1)^2 grids and convolved by a Toeplitz matmul per row.
# `ball_fold_convolve` computes the same quadrant on the coefficient grids.

def ball_convolve(x: BallGrid, y: BallGrid, origin: int = 0) -> BallGrid:
    """2-D convolution of ball grids from index ``origin`` on,
    out[a - origin, b - origin] = sum over i + k = a, j + l = b of
    x[i, j] y[k, l] for a, b >= origin; origin 0 gives the full convolution.

    Both operands first pass the rule of `_floored` with F = 2^-500: a
    centre below F in magnitude is flushed to 0 and moved into its radius,
    and every radius is raised to at least F.  Each new ball contains the
    old one, so the rule is sound.  It grows each radius by at most F (and
    the one ulp of `_add_up`), so a slot widens by at most
    F (||x||_1 + ||y||_1) + n F^2, the norms summing |c| + r.  Every entry
    the matmuls below multiply, in all three channels, is then 0 or at
    least F in magnitude (the radius channels are at least the raised
    radius), so every product of two entries is an exact zero or at least
    F^2 = 2^-1000, a normal double: no product underflows, and a sum whose
    result is subnormal is exact.  Subnormal operands would not break the
    bound (TINY covers their underflow), but on x86 each multiply-add that
    touches one takes a microcode assist, many times slower than a plain
    one, and TINY-sized radii halved by `_extended` put such numbers in
    most products of a solve.  Flushing them to zero without widening
    would not be sound.

    For x of shape (p, q) and y of shape (s, t), row i of x laid out as a
    Toeplitz matrix T[l, b] = x[i, b - l], with only the columns
    b >= origin, multiplies the rows k >= origin - i of y in one BLAS
    matmul, whose rows are added into output rows i + k - origin.  A slot
    therefore takes at most n = t + min(p, s) multiply-adds: t in each dot
    product (the Toeplitz column, zeros included) and at most min(p, s) row
    results added into it, so its centre is off by at most
    gamma_n (|x.c| * |y.c|).  The radius
        |x.c| * y.r + x.r * (|y.c| + y.r) + gamma_n (|x.c| * |y.c|)
    goes through the same matmuls in floats, at most n + 3 roundings of
    nonnegative numbers (two to form x.r + gamma_n |x.c|, one to add its two
    parts at the end), which `_up` covers.  Memory is O(t q) per row on top
    of the output.
    """
    x, y = _floored(x), _floored(y)
    p, q = x.shape
    s, t = y.shape
    n = t + min(p, s)
    g = _gamma(n)
    ax = np.abs(x.c)
    # rows of x zero-padded by t - 1 on both sides; window [b, l] of a
    # padded row is x[i, b - l], so its transpose is the Toeplitz matrix
    padded = np.zeros((3, p, q + 2 * t - 2))
    padded[:, :, t - 1:t - 1 + q] = (x.c, x.r + g * ax, ax + x.r)
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, t, axis=2)[:, :, origin:, ::-1]
    # centre, |y.c| (x.r + gamma_n |x.c|) and y.r (|x.c| + x.r), side by side
    left = np.stack((y.c, np.abs(y.c), y.r))
    out = np.zeros((3, p + s - 1 - origin, q + t - 1 - origin))
    for i in range(p):
        k = max(origin - i, 0)
        if k < s:
            toeplitz = np.ascontiguousarray(windows[:, i].transpose(0, 2, 1))
            out[:, i + k - origin:i + s - origin] += left[:, k:] @ toeplitz
    return BallGrid(out[0], _up(out[1] + out[2], n + 3))


def _axis_extension(char: str, cutoff: int) -> np.ndarray:
    """Weights of trig(|k| pi t) over e^{i k pi t}, k = -cutoff..cutoff:
    cos(n pi t) = (e^{i n pi t} + e^{-i n pi t})/2 gives 1 at 0 and 1/2 at
    +-n; sin(n pi t) = (e^{i n pi t} - e^{-i n pi t})/(2i) gives +-1/2, its
    exponential coefficients times i."""
    k = np.arange(-cutoff, cutoff + 1)
    if char == "c":
        return np.where(k == 0, 1.0, 0.5)
    return 0.5 * np.sign(k)


def _extended(f: FourierField) -> BallGrid:
    """The coefficients E[n + N, m + N], |n|, |m| <= N = cutoff, with
    f(x, y) = i^-p sum E e^{i pi (n x + m y)}, p the number of sine axes:
    cosine axes are even in their index and sine axes odd."""
    idx = np.abs(np.arange(-f.cutoff, f.cutoff + 1))
    w = np.outer(_axis_extension(f.basis[0], f.cutoff),
                 _axis_extension(f.basis[1], f.cutoff))
    c, r, a = f.grid.c[idx[:, None], idx], f.grid.r[idx[:, None], idx], abs(w)
    # the weights are 0, +-1, +-1/2 and +-1/4, so a product by one is exact
    # unless the weight lies strictly between 0 and 1 and the exact product
    # is nonzero and below 2^-1022, where centre and radius can each lose
    # half the smallest subnormal, 2^-1075.  One ulp up on the radius, at
    # least 2^-1074, covers both; testing the rounded |v| a against 2^-1021
    # leaves a margin, and every other entry stays exact.
    def frail(v):
        return (v != 0.0) & (0.0 < a) & (a < 1.0) & \
            (np.abs(v) * a < 2.0 ** -1021)
    bump = frail(c) | frail(r)
    r = r * a
    return BallGrid(c * w, np.where(bump, np.nextafter(r, np.inf), r))


def _neg_profile_derivative(t: TSeries, nu: int, g0: BoundedValue) -> TSeries:
    """-d/dr of the scaled radial profile gamma0 2^{2 nu} W((2^nu r)^2).

    Equals gamma0 2^{2 nu} * W * (2^{2 nu + 1} r) / (1 - (2^nu r)^2)^2.
    On panels touching the support edge the Taylor route divides by zero; the
    order-0 fallback returns a monotone range bound instead.
    """
    four_nu = Fraction(1 << (2 * nu))
    w = (t * t).scale(four_nu)
    u = 1 - w
    if t.order == 0:
        c = u.c[0]
        if c.lower() <= 0:
            hi = c.upper()
            if hi <= 0:
                return TSeries([BoundedValue.exact(0)])
            # sup of exp(-1/v)/v^2 over (0, hi]: increasing until v = 1/2
            v = min(hi, Fraction(1, 2))
            vb = BoundedValue.from_fraction(v)
            peak = bv_exp(BoundedValue.exact(-1) / vb) / (vb * vb)
            rmax = t.c[0].mag()
            top = (g0 * peak).scale(four_nu * four_nu * 2 * rmax)
            return TSeries([BoundedValue.from_endpoints(Fraction(0),
                                                        top.upper())])
    rec = u.reciprocal()
    wfac = (-rec).exp()
    out = wfac * rec * rec * t.scale(four_nu * 2)
    scal = g0.scale(four_nu)
    return out * TSeries.constant(scal, t.order)


def mollifier_mass(nu: int, kbits: int = 24) -> BoundedValue:
    """Mass of the scaled kernel by direct certified quadrature.

    Independent route from the panel-model moments: integrates
    -g'(r) * (2r)^2 over the radial variable, where g is the kernel profile
    at scale nu.  The result must enclose 1.
    """
    if nu < 0:
        raise ValueError("scale must be nonnegative")
    delta = Fraction(1, 1 << nu)
    g0 = gamma0_bounded(kbits + 20)
    four = Fraction(4)

    def integrand(t):
        prof = _neg_profile_derivative(t, nu, g0)
        return prof * (t * t).scale(four)

    return certified_integral(integrand, Fraction(0), delta,
                              Fraction(1, 1 << kbits))


def sup_bound(pair) -> Fraction:
    """sup over the closed square of max(|p1|, |p2|) for a
    `SolenoidalPolyPair`, via coefficient sums (each |x|, |y| <= 1)."""
    return max(pair.p1.coeff_abs_sum(), pair.p2.coeff_abs_sum())


def support_halfwidth(el) -> Fraction:
    """The half-width 1 - 2^-(k+1) of the centred square outside which a
    `MollifiedElement` vanishes."""
    return 1 - Fraction(1, 1 << (el.k + 1))


def mollified_value(el, x: Fraction, y: Fraction, kbits: int = 14):
    """Pointwise enclosure of both components of a `MollifiedElement`.

    The convolution integral collapses to one dimension: the kernel is a
    decreasing function g of r = max(|z1|,|z2|), its level sets are
    squares, so integrating by parts in r gives
    -int_0^delta g'(r) S(r) dr with S(r) the exact polynomial integral of
    the trimmed field over the square of half-width r centered at the
    evaluation point.  The library's route to an element is
    `spectral.mollified_field_pair`.
    """
    x, y = Fraction(x), Fraction(y)
    hw = support_halfwidth(el)
    if abs(x) > hw or abs(y) > hw:
        z = BoundedValue.exact(0)
        return z, z
    return (_component_value(el, el.trimmed.q1, x, y, kbits),
            _component_value(el, el.trimmed.q2, x, y, kbits))


def _component_value(el, q, x: Fraction, y: Fraction,
                     kbits: int) -> BoundedValue:
    if q.is_zero():
        return BoundedValue.exact(0)
    nu = el.n
    beta = el.trimmed.beta
    delta = Fraction(1, 1 << nu)
    g0 = gamma0_bounded(kbits + 20)

    # panel breakpoints: radii where a clipped endpoint changes regime
    cuts = {Fraction(0), delta}
    for c in (x + beta, x - beta, beta - x, -beta - x,
              y + beta, y - beta, beta - y, -beta - y):
        if 0 < c < delta:
            cuts.add(c)
    pts = sorted(cuts)

    total = BoundedValue.exact(0)
    budget = Fraction(1, 1 << kbits) / max(len(pts) - 1, 1)
    for a, b in zip(pts, pts[1:]):
        rm = Fraction(a + b, 2)
        regimes = []
        empty = False
        for center in (x, y):
            lo_clip = center - rm < -beta   # lower endpoint stuck at -beta
            hi_clip = center + rm > beta
            if center - rm > beta or center + rm < -beta:
                empty = True
            regimes.append((lo_clip, hi_clip))
        if empty:
            continue
        total = total + _panel_value(q, x, y, beta, a, b, regimes, nu, g0,
                                     budget)
    return total.rounded()


def _panel_value(q, x, y, beta, a, b, regimes, nu, g0, budget):
    centers = (x, y)

    def axis_powers(t: TSeries, axis: int, top_degree: int):
        lo_clip, hi_clip = regimes[axis]
        c = centers[axis]
        e0 = TSeries.constant(BoundedValue.from_fraction(-beta), t.order) \
            if lo_clip else (-t) + c
        e1 = TSeries.constant(BoundedValue.from_fraction(beta), t.order) \
            if hi_clip else t + c
        p0, p1 = e0, e1
        out = []
        for d in range(top_degree + 1):
            out.append((p1 - p0).scale(Fraction(1, d + 1)))
            p0 = p0 * e0
            p1 = p1 * e1
        return out

    def integrand(t):
        prof = _neg_profile_derivative(t, nu, g0)
        U = axis_powers(t, 0, q.N)
        V = axis_powers(t, 1, q.N)
        s = None
        for i in range(q.N + 1):
            w = None
            for j in range(q.N + 1):
                cij = q.a[i][j]
                if cij == 0:
                    continue
                term = V[j].scale(cij)
                w = term if w is None else w + term
            if w is None:
                continue
            term = U[i] * w
            s = term if s is None else s + term
        if s is None:
            return TSeries.constant(BoundedValue.exact(0), t.order)
        return prof * s

    return certified_integral(integrand, a, b, budget, order=6)


def transform_small_x(x_bv: BoundedValue, with_rho: bool) -> FloatBall:
    """phi or psi of `spectral._window_grid` by certified quadrature
    in exact arithmetic; slow, and converges only for moderate x."""
    g0 = gamma0_bounded(60)

    def integrand(t):
        prof = _neg_profile_derivative(t, 0, g0)
        s, c = (t * TSeries.constant(x_bv, t.order)).sincos()
        if with_rho:
            return prof * t * s
        return prof * c

    out = certified_integral(integrand, Fraction(0), Fraction(1),
                             Fraction(1, 1 << 44))
    return FloatBall.from_bounded(out)


@lru_cache(maxsize=None)
def _ab_tables(q: Fraction, top: int):
    """A_t = int_0^1 v^t cos(y v) dv and B_t = int_0^1 v^t sin(y v) dv for
    t = 0..top at y = q pi, one scalar ball at a time: a power series for
    y < 1, the parts recurrence in 140-bit interval arithmetic for moderate
    y and in float balls once y dominates t."""
    yb = FB_PI * FloatBall.exact(q)
    yf = yb.c
    if yf < 1.0:
        av, bv = [], []
        for t in range(top + 1):
            acc_a = FloatBall.exact(Fraction(1, t + 1))
            acc_b = yb * FloatBall.exact(Fraction(1, t + 2))
            pow2 = yb * yb
            ya, yb2 = pow2, pow2 * yb
            fa, fb = 2, 6
            j = 1
            term_a = ya * FloatBall.exact(Fraction(1, fa * (t + 2 * j + 1)))
            term_b = yb2 * FloatBall.exact(Fraction(1, fb * (t + 2 * j + 2)))
            while max(term_a.mag(), term_b.mag()) > 1e-20 and j < 40:
                sgn = FloatBall(-1.0 if j % 2 else 1.0)
                acc_a = acc_a + sgn * term_a
                acc_b = acc_b + sgn * term_b
                j += 1
                ya = ya * pow2
                yb2 = yb2 * pow2
                fa *= (2 * j - 1) * (2 * j)
                fb *= (2 * j) * (2 * j + 1)
                term_a = ya * FloatBall.exact(
                    Fraction(1, fa * (t + 2 * j + 1)))
                term_b = yb2 * FloatBall.exact(
                    Fraction(1, fb * (t + 2 * j + 2)))
            # alternating series with decreasing terms: first omitted bounds
            av.append(acc_a.widened(term_a.mag() * 1.01 + TINY))
            bv.append(acc_b.widened(term_b.mag() * 1.01 + TINY))
        return tuple(av), tuple(bv)
    if yf <= 4.0 * (top + 1):
        prec = 140
        y = bv_pi(prec).scale(Fraction(q))
        s, c = bv_sin(y, prec), bv_cos(y, prec)
        one = BoundedValue.exact(1)
        cs = [s / y]
        sn = [(one - c) / y]
        for t in range(1, top + 1):
            cs.append((s - sn[t - 1].scale(t)) / y)
            sn.append((cs[t - 1].scale(t) - c) / y)
        return (tuple(FloatBall.from_bounded(v) for v in cs),
                tuple(FloatBall.from_bounded(v) for v in sn))
    s, c = fb_sincos(yb)
    one = FloatBall(1.0)
    cs = [s / yb]
    sn = [(one - c) / yb]
    for t in range(1, top + 1):
        tf = FloatBall(float(t))
        cs.append((s - tf * sn[t - 1]) / yb)
        sn.append((tf * cs[t - 1] - c) / yb)
    return tuple(cs), tuple(sn)


def _osc_moments(x: FloatBall, q_x: Fraction, a: Fraction, b: Fraction,
                 mid: Fraction, top: int):
    """I_t^c = int_a^b (rho-mid)^t cos(x rho), I_t^s likewise with sin, for
    t = 0..top, where x = q_x pi, in the scaled variable (rho-mid)/H."""
    hh = Fraction(b - a, 2)
    av, bv = _ab_tables(q_x * hh, top)
    sth, cth = fb_sincos(x * FloatBall.exact(mid))
    hb = FloatBall.exact(hh)
    ic, isn = [], []
    hp = hb  # H^(t+1)
    for t in range(top + 1):
        if t % 2 == 0:
            two_a = av[t] * FloatBall(2.0)
            ic.append(hp * cth * two_a)
            isn.append(hp * sth * two_a)
        else:
            two_b = bv[t] * FloatBall(2.0)
            ic.append(-(hp * sth * two_b))
            isn.append(hp * cth * two_b)
        hp = hp * hb
    return ic, isn


# ---------------------------------------------------------------------------
# the kernel's radial moments in closed form
# ---------------------------------------------------------------------------
#
# With u = r^2 and W(u) = exp(-1/(1-u)), every integral of the kernel against
# a separable even function reduces to the moments J_s = (1/2) int_0^1 W u^s.
# The substitution v = 1/(1-u) turns them into exponential integrals
# E_n(1) = int_1^inf e^-v v^-n dv, and the recurrence
# n E_{n+1}(1) = e^-1 - E_n(1) (DLMF 8.19.12) writes each E_n(1), and so
# each J_s, as a rational combination of e^-1 and E_1(1).

_F0, _F1 = Fraction(0), Fraction(1)


@lru_cache(maxsize=None)
def _moment_coefficients(s: int) -> Tuple[Fraction, Fraction]:
    """The exact rationals A_s, B_s with J_s = (A_s e^-1 + B_s E_1(1))/2.

    (1 - 1/v)^s expands by the binomial theorem, so
    J_s = (1/2) sum_k (-1)^k C(s, k) E_{k+2}(1), and with
    E_n(1) = a_n e^-1 + b_n E_1(1) the recurrence gives
    a_{n+1} = (1 - a_n)/n and b_{n+1} = -b_n/n from a_1 = 0, b_1 = 1.
    """
    a, b = _F1, -_F1  # E_2(1) = e^-1 - E_1(1)
    A = B = _F0
    for k in range(s + 1):
        c = math.comb(s, k) * (-1) ** k
        A, B = A + c * a, B + c * b
        a, b = (1 - a) / (k + 2), -b / (k + 2)
    return A, B


def _log2_moment_estimate(s: int) -> float:
    """log2 J_s to within a few bits, from a midpoint sum of the integrand
    in logarithms; it only sizes the working precision."""
    # steering: floats, never part of an enclosure
    logs = [s * math.log(u) - 1 / (1 - u)
            for u in ((i + 0.5) / 1024 for i in range(1024))]
    top = max(logs)
    total = sum(math.exp(v - top) for v in logs) / 2048
    return (top + math.log(total)) / math.log(2)


def gamma_radial_moment(s: int, kbits: int = 60) -> BoundedValue:
    """J_s = (1/2) int_0^1 exp(-1/(1-u)) u^s du, certified to about 2^-kbits
    relative.

    J_s = (A_s e^-1 + B_s E_1(1))/2 with exact rationals A_s, B_s whose
    size exceeds J_s by about 4 sqrt(s) log2(e) bits (39 at s = 48), all of
    which cancel.  The two balls are therefore taken at
    kbits + log2(max(|A_s|, |B_s|)/J_s) + 16 bits and combined exactly in
    their Fraction endpoints, so no rounding cap applies.
    """
    if s < 0:
        raise ValueError("moment order must be nonnegative")
    A, B = _moment_coefficients(s)
    cancel = math.log2(max(abs(A), abs(B))) - _log2_moment_estimate(s)
    prec = kbits + max(0, math.ceil(cancel)) + 16
    prec += -prec % 16  # quantized, so nearby requests share the balls
    lo = hi = _F0
    for coeff, ball in zip((A, B), _e1_balls(prec)):
        ends = (coeff * ball.lower(), coeff * ball.upper())
        lo, hi = lo + min(ends), hi + max(ends)
    return BoundedValue.from_endpoints(lo / 2, hi / 2, prec)


# ---------------------------------------------------------------------------
# panel Taylor models of the kernel profile
# ---------------------------------------------------------------------------

_W_ORDER = 12


@lru_cache(maxsize=None)
def _w_panel_models(kbits: int):
    """Taylor models of W(u) = exp(-1/(1-u)) on a partition of [0,1].

    Returns a list of ('taylor', a, b, mid_coeffs, rem_ball) panels plus one
    trailing ('range', a, 1, hull) panel where W is below 2^-kbits.
    """
    target = Fraction(1, 1 << kbits)
    d = _W_ORDER
    panels = []
    stack = [(Fraction(0), Fraction(1))]
    while stack:
        a, b = stack.pop()
        if b == 1:
            # W <= exp(-1/(1-a)) on [a,1]
            va = 1 - a
            top = bv_exp(BoundedValue.from_fraction(-1 / va))
            if top.upper() <= target and b - a <= Fraction(1, 8):
                panels.append(("range", a, b, BoundedValue.from_endpoints(
                    Fraction(0), top.upper())))
                continue
            mid = Fraction(a + b, 2)
            stack.append((mid, b))
            stack.append((a, mid))
            continue
        h = Fraction(b - a, 2)
        try:
            box = BoundedValue.from_endpoints(a, b)
            g = (-(1 - TSeries.variable(box, d)).reciprocal()).exp()
            rem = g.c[d]
            smooth = rem.mag() * h ** d <= target
        except (ValueError, ZeroDivisionError, OverflowError):
            smooth = False
        if smooth:
            mid = BoundedValue.from_fraction(Fraction(a + b, 2))
            pt = (-(1 - TSeries.variable(mid, d - 1)).reciprocal()).exp()
            panels.append(("taylor", a, b, pt.c, rem))
        else:
            mid = Fraction(a + b, 2)
            stack.append((mid, b))
            stack.append((a, mid))
    panels.sort(key=lambda p: p[1])
    return tuple(panels)


@lru_cache(maxsize=None)
def _moments_upto(smax: int, kbits: int):
    """J_0..J_smax of `gamma_radial_moment` in one sweep over the
    shared panel models of W.

    Per panel the power integrals int_a^b u^j du are accumulated as rounded
    balls (much cheaper than exact fractions for high powers) and reused for
    every moment order.
    """
    totals = [BoundedValue.exact(0) for _ in range(smax + 1)]
    for panel in _w_panel_models(kbits):
        if panel[0] == "range":
            _, a, b, hullv = panel
            contrib = hullv.scale(b - a)  # |u^s| <= 1 on the panel
            for s in range(smax + 1):
                totals[s] = totals[s] + contrib
            continue
        _, a, b, coeffs, rem = panel
        m = Fraction(a + b, 2)
        h = b - a
        jmax = smax + _W_ORDER
        ba = BoundedValue.from_fraction(Fraction(a))
        bb = BoundedValue.from_fraction(Fraction(b))
        apw = [BoundedValue.exact(1)]
        bpw = [BoundedValue.exact(1)]
        for _ in range(jmax + 1):
            apw.append(apw[-1] * ba)
            bpw.append(bpw[-1] * bb)
        pw = [(bpw[j + 1] - apw[j + 1]).scale(Fraction(1, j + 1))
              for j in range(jmax + 1)]
        mb = BoundedValue.from_fraction(-m)
        mpow = [BoundedValue.exact(1)]
        for _ in range(_W_ORDER):
            mpow.append(mpow[-1] * mb)
        hfac = Fraction(h, 2) ** _W_ORDER
        remw = rem.mag() * hfac
        for s in range(smax + 1):
            acc = BoundedValue.exact(0)
            # int (u-m)^t u^s du through the binomial theorem
            for t, ct in enumerate(coeffs):
                term = BoundedValue.exact(0)
                for i in range(t + 1):
                    term = term + (mpow[t - i] * pw[s + i]).scale(
                        math.comb(t, i))
                acc = acc + ct * term
            # Lagrange remainder: |W - model| <= |rem| (h/2)^d on the panel
            slack = remw * pw[s].mag()
            acc = acc.widened(BoundedValue.from_endpoints(-slack, slack))
            totals[s] = totals[s] + acc
    return tuple(t.scale(Fraction(1, 2)).rounded() for t in totals)


def _h1_series(t: TSeries, g0: FloatBall) -> TSeries:
    one = TSeries.constant(g0.one(), t.order)
    u = one - t * t
    rec = u.reciprocal()
    wf = (-rec).exp()
    return wf * rec * rec * t * TSeries.constant(g0 * FloatBall(2.0), t.order)


def _h1_range_bound(a: Fraction, g0: FloatBall) -> float:
    """sup of h1 on [a, 1]: monotone bound via sup of e^{-1/v}/v^2."""
    vhi = min(1 - Fraction(a) ** 2, Fraction(1, 2))
    if vhi <= 0:
        return 0.0
    vb = FloatBall.exact(vhi)
    peak = fb_exp(-(vb.one() / vb)) / (vb * vb)
    return (g0 * FloatBall(2.0) * peak).upper()


@lru_cache(maxsize=1)
def h1_panel_models():
    """Panel Taylor models of h1 on [0, 1] through `TSeries` in float balls,
    independent of the library's recurrence (`spectral._h1_models`), on the
    same tolerance.

    Each entry is ("taylor", a, b, mid, coeffs, rem) with coeffs the midpoint
    series of length _H1_ORDER and |h1 - model| <= rem on the panel, or
    ("range", a, b, sup) near the flat right edge.
    """
    g0 = gamma0()
    panels = []
    stack = [(Fraction(0), Fraction(1), 0)]
    while stack:
        a, b, depth = stack.pop()
        sup = _h1_range_bound(a, g0)
        if sup <= _H1_TOL:
            panels.append(("range", a, b, sup))
            continue
        ok = False
        if depth >= 2:
            try:
                box = FloatBall.exact(a).hull(FloatBall.exact(b))
                g = _h1_series(TSeries.variable(box, _H1_ORDER), g0)
                h = float(b - a) / 2
                rem = g.c[_H1_ORDER].mag() * h ** _H1_ORDER
                if rem <= _H1_TOL or (depth >= 40 and rem <= 2.0 ** -30):
                    mid = Fraction(a + b, 2)
                    pt = _h1_series(TSeries.variable(
                        FloatBall.exact(mid), _H1_ORDER - 1), g0)
                    panels.append(("taylor", a, b, mid, tuple(pt.c), rem))
                    ok = True
            except (ZeroDivisionError, ValueError, OverflowError):
                ok = False
        if not ok:
            m = Fraction(a + b, 2)
            stack.append((a, m, depth + 1))
            stack.append((m, b, depth + 1))
    panels.sort(key=lambda p: p[1])
    return tuple(panels)


@lru_cache(maxsize=None)
def window_transforms(n_index: int, nu: int):
    """(phi, psi) of `spectral._window_grid` at x = n_index pi 2^-nu, one
    panel and one scalar ball operation at a time, on the `TSeries` panel
    models of h1."""
    if n_index == 0:
        return gamma0() * fb_exp(FloatBall(-1.0)), FloatBall(0.0)
    xb = FB_PI * FloatBall.exact(Fraction(n_index, 1 << nu))
    phi = FloatBall(0.0)
    psi = FloatBall(0.0)
    for panel in h1_panel_models():
        if panel[0] == "range":
            _, a, b, sup = panel
            w = float(b - a)
            phi = phi + FloatBall(0.0, sup * w * (1 + 8 * EPS) + TINY)
            psi = psi + FloatBall(0.0, sup * w * (1 + 8 * EPS) + TINY)
            continue
        _, a, b, mid, coeffs, rem = panel
        ic, isn = _osc_moments(xb, Fraction(n_index, 1 << nu), a, b, mid,
                               len(coeffs))
        pc = FloatBall(0.0)
        ps = FloatBall(0.0)
        midb = FloatBall.exact(mid)
        for t, ct in enumerate(coeffs):
            pc = pc + ct * ic[t]
            # rho sin = (rho-mid) sin + mid sin
            ps = ps + ct * (isn[t + 1] + midb * isn[t])
        slack = rem * float(b - a) * (1 + 8 * EPS) + TINY
        phi = phi + pc.widened(slack)
        psi = psi + ps.widened(slack)
    return phi, psi


def h1_models_by_level():
    """`spectral._h1_models` bisecting one dyadic level at a time, with one
    `_h1_coeffs` recurrence per level: the library evaluates several levels
    per pass, and each of its remainders and rows must have these bits."""
    g0 = gamma0()
    parts = []
    j, depth = np.array([0]), 0
    while len(j):
        den = 2 ** (depth + 1)
        num = 2 * j + 1
        mid, half = num / den, 1.0 / den
        sup = _h1_edge_bound((num - 1) / den, g0)
        rem = np.where(sup <= _H1_TOL, sup, np.inf)
        model = (rem == np.inf) & (num + 1 < den)
        if depth >= 2 and model.any():
            box = BallGrid(mid[model], np.full(int(model.sum()), half))
            top = _h1_coeffs(box, g0, _H1_ORDER + 1)[:, _H1_ORDER]
            rem[model] = top.mag() * half ** _H1_ORDER
        done = rem <= (2.0 ** -30 if depth >= 40 else _H1_TOL)
        parts.append((num[done], np.full(int(done.sum()), den, dtype=object),
                      mid[done], model[done], rem[done]))
        split = j[~done]
        j, depth = np.concatenate([2 * split, 2 * split + 1]), depth + 1
    num, den, mid, fit, rem = (np.concatenate(x) for x in zip(*parts))
    order = np.argsort(mid)
    num, den, mid, fit, rem = (x[order] for x in (num, den, mid, fit, rem))
    coef = BallGrid.zeros((len(num), _H1_ORDER))
    coef.set(fit, _h1_coeffs(BallGrid(mid[fit]), g0, _H1_ORDER))
    return num.astype(object), den, coef, rem


def window_grid_tensor(nu: int, top: int):
    """(phi, psi) of `spectral._window_grid` for n = 0..top through the
    panels x modes x orders tensor of trig-times-table factors, 32 modes at
    a time.  Per transform, a batched `ball_matmul` contracts each panel's
    orders with the weights of `_panel_data` and a second one sums the
    panels; the library contracts per half-width instead, so the two
    enclosures differ only in rounding and must overlap."""
    kc, ks, mid_num, mid_den, widx, h_den, slack = _panel_data()
    order = kc.shape[1]
    even = np.arange(order) % 2 == 0
    ones = BallGrid(np.ones((1, len(widx))))
    phi, psi = BallGrid.zeros(top + 1), BallGrid.zeros(top + 1)
    for lo in range(1, top + 1, 32):
        n = np.arange(lo, min(lo + 32, top + 1), dtype=object)
        sin, cos = (g[..., None] for g in grid_sincos_pi(
            np.multiply.outer(mid_num, n), (mid_den * (1 << nu))[:, None]))
        a, b = (g[widx] for g in _ab_grid(n, (h_den * (1 << nu))[:, None],
                                          order - 1))
        tab = BallGrid(np.where(even, a.c, b.c), np.where(even, a.r, b.r))
        # cos(x mid) for even t, -sin for odd; sin for even t, cos for odd
        fac_c = BallGrid(np.where(even, cos.c, -sin.c),
                         np.where(even, cos.r, sin.r))
        fac_s = BallGrid(np.where(even, sin.c, cos.c),
                         np.where(even, sin.r, cos.r))
        for out, fac, w in ((phi, fac_c, kc), (psi, fac_s, ks)):
            panels = ball_matmul(tab * fac, w[:, :, None])[..., 0]
            out.set(slice(lo, lo + len(n)), ball_matmul(ones, panels)[0])
    phi, psi = phi.widened(slack), psi.widened(slack)
    phi.set(0, gamma0() * fb_exp(FloatBall(-1.0)))
    psi.set(0, FloatBall(0.0))
    return phi, psi


@lru_cache(maxsize=None)
def mollifier_cos_coefficient(nu: int, n: int, m: int,
                              kbits: int = 40) -> BoundedValue:
    """Enclosure of int gamma_nu(z) cos(n pi z1) cos(m pi z2) dz.

    Expands the cosines around zero and contracts against the closed-form
    radial moments J_s (`gamma_radial_moment`), a route
    independent of the window transforms of h1; the error of truncating at
    order P is controlled by the cosh tail.
    Requires n pi 2^-nu <= 16 (larger frequencies are useless anyway: the
    coefficient is then astronomically small relative to the cost).
    """
    if nu < 0 or n < 0 or m < 0:
        raise ValueError("indices must be nonnegative")
    pi = bv_pi()
    scale = Fraction(1, 1 << nu)
    x = pi.scale(Fraction(n) * scale)
    y = pi.scale(Fraction(m) * scale)
    if x.upper() > 16 or y.upper() > 16:
        raise ValueError("frequency too high for this kernel scale")
    target = Fraction(1, 1 << kbits)
    # moment radii are amplified by at most cosh(x) cosh(y) <= e^{x+y}
    amp = float(x.upper() + y.upper())
    jbits = kbits + int(1.45 * amp) + 16
    jbits = ((jbits + 15) // 16) * 16  # quantize so the caches stay warm
    g0 = gamma0_bounded(jbits)

    def plan(xv: BoundedValue) -> int:
        # smallest P with x^(2P+2)/(2P+2)! below the truncation budget
        xm = xv.mag()
        term = Fraction(1)
        p = 0
        while True:
            term = term * xm * xm / ((2 * p + 1) * (2 * p + 2))
            if term <= target / 16 or p > 80:
                return p
            p += 1

    P, Q = plan(x), plan(y)
    jtab = [gamma_radial_moment(s, jbits) for s in range(P + Q + 1)]
    x2 = x * x
    y2 = y * y
    total = BoundedValue.exact(0)
    xpow = BoundedValue.exact(1)  # x^{2p}/(2p)!
    for p in range(P + 1):
        ypow = BoundedValue.exact(1)
        for q in range(Q + 1):
            j = jtab[p + q]
            wgt = Fraction(1, 2 * p + 1) + Fraction(1, 2 * q + 1)
            sign = 1 if (p + q) % 2 == 0 else -1
            total = total + (xpow * ypow * j * g0).scale(4 * sign * wgt)
            ypow = (ypow * y2).scale(Fraction(1, (2 * q + 1) * (2 * q + 2)))
        xpow = (xpow * x2).scale(Fraction(1, (2 * p + 1) * (2 * p + 2)))
    # truncation slack: remaining terms are bounded by 8 gamma0 J_0 times the
    # cosh tails in either variable
    j0u = (gamma_radial_moment(0, jbits) * g0).scale(8).mag()
    def cosh_tail(xv, p0):
        xm = xv.mag()
        lead = Fraction(1)
        for i in range(1, 2 * p0 + 3):
            lead = lead * xm / i
        den = 1 - xm * xm / ((2 * p0 + 3) * (2 * p0 + 4))
        if den <= 0:
            raise ValueError("tail bound did not converge")
        return lead / den
    def cosh_all(xv):
        xm = xv.mag()
        # crude upper bound on cosh(x)
        e = bv_exp(BoundedValue.from_fraction(xm))
        return e.mag()
    slack = j0u * (cosh_tail(x, P) * cosh_all(y) +
                   cosh_all(x) * cosh_tail(y, Q) +
                   cosh_tail(x, P) * cosh_tail(y, Q))
    return total.widened(
        BoundedValue.from_endpoints(-slack, slack)).rounded()


def contour_semigroup(a, t, K: int):
    """e^{-tA} a through the paper's sectorial contour, independent of the
    closed-form heat factors of `stokes.semigroup_apply`, whose balls must
    lie inside these.

    t = 0 returns the resolved argument; otherwise t must be positive, and
    there is no small-time shortcut.  Each mode factor is the finite ray
    (`stokes.contour_factors`) cut at the radius l of `stokes.tail_cutoff_l`
    for the argument's L2 norm (plus 10^-9), widened by the remainder
    gamma_3 at l: the per-mode remainder is at most gamma_3 times the
    coefficient.
    """
    t = _as_bv(t)
    fields, pairp = _components(resolve_field(a, K + 2))
    if t.upper() == 0:
        return _emit(fields, pairp)
    if t.lower() <= 0:
        raise ValueError("the contour semigroup needs t > 0")
    norm = _as_bv(Fraction(_l2_upper(fields)) + Fraction(1, 10 ** 9))
    l = float(tail_cutoff_l(t, norm, K).upper())
    g3 = _gamma3_value(l, t, K)
    # the ray over the sorted distinct mode sums past 0 (the constant mode's
    # factor is 1); the return_inverse form of np.unique does not import
    # numpy.ma, which the plain form does
    cutoff = max(f.cutoff for f in fields)
    n = np.arange(cutoff + 1)
    uniq, inv = np.unique(n[:, None] ** 2 + n[None, :] ** 2,
                          return_inverse=True)
    fc, fr, _ = contour_factors(uniq[1:], FloatBall.from_bounded(t), l)
    fr = BallGrid(fc, fr).widened(FloatBall.from_bounded(g3).upper()).r
    fac = BallGrid(np.append(1.0, fc), np.append(0.0, fr))[
        inv.reshape(cutoff + 1, -1)]
    return _emit([FourierField(f.basis, f.cutoff, f.grid
                               * fac[:f.cutoff + 1, :f.cutoff + 1], f.tail_l2)
                  for f in fields], pairp)


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
    le = l * bv_exp(l * t, prec)
    B = le / bv_pi(prec).scale(2)
    rhs = Fraction(B.upper()) ** 2 * S * (1 << (2 * (K + 7)))
    if rhs <= 1:
        return 0
    k = math.isqrt(int((rhs - 1) / 2)) + 1
    while k > 0 and (1 + 2 * (k - 1) ** 2) > rhs:
        k -= 1
    return k


def power_integral(s: int, alpha, k: int = 10) -> BoundedValue:
    """Certified value of int_0^inf t^{alpha-1} lam/(t+lam) dt, lam = pi^2 s.

    This is the integral representation of the fractional power before
    normalization: multiplied by sin(pi alpha)/pi it equals lam^alpha.  It
    is the independent route for `stokes.frac_power_apply`; the improper
    ends are handled by monotone sliver and tail bounds, the middle by
    adaptive Taylor-model quadrature.
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


def smoothing_bound_check(a, alpha, t) -> dict:
    """Diagnostic comparison of ||A^alpha e^{-tA} a|| with t^-alpha ||a||,
    the smoothing bound with its constant 1 (see `ConstantsTable`).

    Both sides are certified enclosures (the left uses the exact diagonal
    heat multipliers); the report states the margin, it proves nothing
    beyond the two numbers.
    """
    alpha = Fraction(alpha)
    if not 0 <= alpha < 1:
        raise ValueError("exponent must lie in [0, 1)")
    t = _as_bv(t)
    if t.lower() <= 0:
        raise ValueError("smoothing check needs t > 0")
    fields, _ = _components(resolve_field(a, 8))
    tb = FloatBall.from_bounded(t)
    t_pow = fb_pow(tb, -alpha)
    lhs_sq = FloatBall(0.0)
    norm_sq = FloatBall(0.0)
    for f in fields:
        n = np.arange(f.cutoff + 1)
        sg = n[:, None] ** 2 + n[None, :] ** 2
        uniq = np.unique(sg[f.weights() > 0])
        for s in uniq:
            fac = fb_exp(-(_PI2 * FloatBall.exact(int(s)) * tb))
            if alpha:
                fac = fac * fb_pow(_PI2 * FloatBall.exact(int(s)), alpha)
            block = f.grid.sumsq_ball(f.weights() * (sg == s))
            lhs_sq = lhs_sq + fac * fac * block
        tl = f.tail_l2.upper()
        if tl > 0.0:
            # Fact-2 style bound for the unresolved part
            ext = t_pow * FloatBall.from_rounded(0.0, tl)
            lhs_sq = lhs_sq + ext * ext
        norm_sq = norm_sq + f.l2_sq_ball()
    lhs = fb_sqrt(lhs_sq.abs_ball())
    rhs = t_pow * fb_sqrt(norm_sq.abs_ball())
    margin = rhs.lower() - lhs.upper()
    return {
        "alpha": str(alpha),
        "t": [str(Fraction(t.lower())), str(Fraction(t.upper()))],
        "lhs_upper": lhs.upper(),
        "rhs_lower": rhs.lower(),
        "margin": margin,
        "ok": bool(margin >= 0.0),
    }


# ---------------------------------------------------------------------------
# the Picard engine cell by cell
# ---------------------------------------------------------------------------

def heat_range(pair, t_lo: Fraction, t_hi: Fraction):
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


class CellEngine(nse._Engine):
    """The Picard engine's earlier route: u_j on cell i by the memoized
    recursion u_cell -> _integral -> _panel_sum -> B_cell, one
    `heat_range` per Duhamel piece.  B_cell(j, i) takes its product from
    the iterate of level `_pair_level(j, i)` = min(j, i), where cell i's
    iterate became final, and its defect from level j.  The library's
    level engine must give the same enclosures bit for bit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._u, self._B, self._f = {}, {}, {}
        # the seed, as the forcing cells, held at the engine's mode cap
        self._a = tuple(f._embedded(self.cap) for f in self.cert.seed)
        self._pow_weights()

    def _pow_weights(self):
        """The defect weight tables with one `grid_pow` per channel, in
        place of the engine's cached ones."""
        P = self.P
        jh = BallGrid.stack(FloatBall.exact(j * self.h)
                            for j in range(1, max(P, 2) + 1))
        gammas = [b + nse.F14 for b in nse._DEFECT_BETAS]
        pw = [grid_pow(jh, -g) for g in gammas]
        hw = BallGrid.stack(pw) * jh.at(0)
        inv = BallGrid.stack(FloatBall.exact(1 / (1 - g)) for g in gammas)
        near = hw[:, 1] * inv * FloatBall(2.0)
        far = hw[:, :P - 1]
        self._W_int, self._W_end = (
            BallGrid(np.column_stack((g.c, far.c)),
                     np.column_stack((g.r, far.r)))
            for g in (near, hw[:, 0] * inv))

    def _semi(self, pair, lo: Fraction, hi: Fraction):
        return heat_range(pair, lo, hi)

    # -- per-cell quantities ------------------------------------------------

    def _u0(self, lo: Fraction, hi: Fraction):
        """Enclosure of the inhomogeneous base iterate over [lo, hi]."""
        pair = self._semi(self._a, lo, hi)
        d = BallGrid.zeros(len(nse._DEFECT_BETAS))
        if self.cert.forcing is not None:
            fv, fd = self._forcing_integral(lo, hi)
            pair = (pair[0] + fv[0], pair[1] + fv[1])
            d = d + fd
        return pair, d

    def _forcing_cell(self, q: int):
        if q not in self._f:
            lo, hi = q * self.h, (q + 1) * self.h
            g = nse.project_pair(*self.cert.forcing.pair_fn(lo, hi))
            self._f[q] = tuple(nse._strip_tail(f)._embedded(self.cap)
                               for f in g)
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
        return val, self._fw * FloatBall(self.cert.forcing.sup_l2)

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

    @staticmethod
    def _pair_level(j: int, i: int) -> int:
        """The level whose iterate on cell i the product of B_cell(j, i)
        reads: cell 0's Duhamel sum is empty, so u_j(i) = u_i(i) for
        j >= i."""
        return min(j, i)

    def B_cell(self, j: int, i: int):
        """Truncated B(u_j) on cell i plus its A^{-1/4} defect bound E and
        the sliver bound F = sup ||A^{-1/4} B u_j|| on the cell."""
        key = (j, i)
        if key not in self._B:
            pair = self.u_cell(self._pair_level(j, i), i)[0]
            d = self.u_cell(j, i)[1]
            b1, b2 = nse.nonlinearity_pair(*pair)
            b1, e1 = nse._trunc_band(b1, self.cap)
            b2, e2 = nse._trunc_band(b2, self.cap)
            u14 = nse.frac_power_norm(pair, nse.F14)
            u12 = nse.frac_power_norm(pair, nse.F12)
            d14 = d.at(nse._DEFECT_BETAS.index(nse.F14))
            d12 = d.at(nse._DEFECT_BETAS.index(nse.F12))
            E = self._M * (d14 * (u12 + d12) + u14 * d12) \
                + nse._norm2([e1, e2]) * self._lam_qtr
            Fv = self._qtr_11 * FloatBall(nse._l2_upper((b1, b2))) + E
            self._B[key] = ((b1, b2), E, Fv)
        return self._B[key]

    # -- the Duhamel integral -----------------------------------------------

    def _defect_sum(self, W: BallGrid, j: int, n: int) -> BallGrid:
        """sum over the cells q < n of W[:, n - 1 - q] E_q, E_q the defect
        bound of B u_j on cell q, under the gamma_n rule of `nse.ball_matmul`."""
        E = BallGrid.stack(self.B_cell(j, q)[1] for q in range(n))
        return nse.ball_matmul(W[:, n - 1 - np.arange(n)], E)

    def _integral(self, j: int, i: int):
        """Enclosure of int_0^s e^{-(s-r)A} B u_j(r) dr for s in cell i."""
        val = self._panel_sum(
            (self.B_cell(j, q)[0], (i - q - 1) * self.h, (i - q + 1) * self.h)
            for q in range(i))
        d = self._W_end[:, 0] * self.B_cell(j, i)[2]
        if i:
            d = d + self._defect_sum(self._W_int, j, i)
        return val, d

    def eval(self, m: int):
        """Enclosure of u_m at the exact endpoint t."""
        pair = self._semi(self._a, self.t, self.t)
        d = BallGrid.zeros(len(nse._DEFECT_BETAS))
        if self.cert.forcing is not None:
            fv = self._panel_sum(
                (self._forcing_cell(q), self.t - (q + 1) * self.h,
                 self.t - q * self.h) for q in range(self.P))
            pair = (pair[0] + fv[0], pair[1] + fv[1])
        if m == 0:
            return pair, d
        val = self._panel_sum(
            (self.B_cell(m - 1, q)[0], self.t - (q + 1) * self.h,
             self.t - q * self.h) for q in range(self.P))
        d = self._defect_sum(self._W_end, m - 1, self.P)
        return (pair[0] - val[0], pair[1] - val[1]), d


class RecomputingCellEngine(CellEngine):
    """The cell-by-cell recursion before the final-cell reuse: B_cell(j, i)
    runs the product of u_j on cell i at every level, final or not.  Its
    centres are the reusing engine's, bit for bit, and its balls and
    defects are at least as wide: a final cell re-subtracts its all-zero
    Duhamel row at every level."""

    @staticmethod
    def _pair_level(j: int, i: int) -> int:
        return j


class WideCapEngine(nse._Engine):
    """The Picard engine at its earlier mode cap, twice the seed's band: a
    plain engine on the certificate whose seed is zero-padded to 2N, so the
    B cells keep every mode up to 2N before their discarded mass enters the
    defect, and u_m(t) comes back at the cutoff 2N (or the widest forcing
    cell's, when that is wider)."""

    def __init__(self, cert, t, panels):
        seed = tuple(f._embedded(2 * cert.seed_cutoff) for f in cert.seed)
        super().__init__(dataclasses.replace(cert, seed=seed), t, panels)


# ---------------------------------------------------------------------------
# the Claim-1 horizon search
# ---------------------------------------------------------------------------

def rounded_root_exponent(mx: Fraction, bound16: Fraction, g_sup: float,
                          j0: int = 2, j_max: int = 400):
    """The least j in [j0, j_max] whose T = 2^-j has the upper end of the
    enclosure of T^{1/4}, times mx, plus the forcing term, below bound16;
    None when none does.  This is the loop `nse.compute_horizon` ran before
    the search became the exact comparison T mx^4 < d^4."""
    j = j0
    while True:
        T = Fraction(1, 2 ** j)
        rootT = bv_sqrt(bv_sqrt(BoundedValue.exact(T)))
        lead = rootT.upper() * mx + nse._forcing_term(T, g_sup)
        if lead < bound16:
            break
        j += 1
        if j > j_max:
            return None
    return j


def fraction_claim1_exponent(mx: Fraction, b: Fraction, G: float, j0: int,
                             j_max: int):
    """The least j in [j0, j_max] whose T = 2^-j has d = b - forcing(T) > 0
    and T mx^4 < d^4, or None when none does: `nse._claim1_exponent` as
    it ran in `Fraction`s, before it moved to integers."""
    if b <= 0:
        return None
    mx4 = mx ** 4
    for j in range(j0, j_max + 1):
        d = b - nse._forcing_term(Fraction(1, 2 ** j), G)
        if d > 0 and mx4 < d ** 4 * 2 ** j:
            return j
    return None


# ---------------------------------------------------------------------------
# a tail that is an in-band perturbation
# ---------------------------------------------------------------------------

def in_band_pair(delta: Fraction = Fraction(1, 64)):
    """A (sin.cos, cos.sin) pair at cutoff 3 whose balls are exact points
    off the field it names by delta at mode (1, 1), in the direction that
    makes the band norms too large, with that perturbation as its tails:
    tail_l2 = delta sqrt(rho) = delta / 2 and tail_hs[1] >= delta sqrt(3) / 2
    (rho = 1/4, 1 + n^2 + m^2 = 3).  Returns the pair and the exact
    coefficients {(j, n, m): Fraction} of the named field, every one at
    n, m >= 1, where rho = 1/4."""
    named = {(0, 1, 1): Fraction(3, 4) - delta, (0, 1, 2): Fraction(1, 2),
             (0, 2, 1): Fraction(-1, 4), (1, 1, 1): Fraction(-1, 2) + delta,
             (1, 2, 3): Fraction(3, 8)}
    shown = dict(named)
    shown[(0, 1, 1)] += delta
    shown[(1, 1, 1)] -= delta
    tail = FloatBall.from_endpoints(0.0, float(delta / 2))
    h1 = FloatBall.from_endpoints(0.0, (fb_sqrt(FloatBall(3.0))
                                        * FloatBall(float(delta / 2))).upper())
    pair = []
    for j, basis in enumerate(("sc", "cs")):
        g = np.zeros((4, 4))
        for (i, n, m), v in shown.items():
            if i == j:
                g[n, m] = float(v)
        pair.append(FourierField(basis, 3, BallGrid(g), tail, {Fraction(1): h1}))
    return tuple(pair), named


def named_sq_norm(coeffs, j: int, s: int = 0) -> Fraction:
    """sum (1 + n^2 + m^2)^s rho c^2 over component j of coefficients at
    n, m >= 1 (rho = 1/4): the squared H^s norm, exactly."""
    return sum((1 + n * n + m * m) ** s * v * v / 4
               for (i, n, m), v in coeffs.items() if i == j)


# ---------------------------------------------------------------------------
# the projection's truncation search, one cutoff at a time
# ---------------------------------------------------------------------------

def truncation_index_scan(u, K: int) -> int:
    """`helmholtz.truncation_index` as a scan: tries N = 0, 1, ..., c + 1
    in turn and returns the first whose tails pass the test."""
    f1, f2 = _as_pair(u, K + 2)
    cut = max(f1.cutoff, f2.cutoff)
    a, b = f1._embedded(cut), f2._embedded(cut)
    target = 0.25 ** (K + 1)
    for N in range(cut + 2):
        d1, d2 = a.truncation_tail(N - 1), b.truncation_tail(N - 1)
        if (d1 * d1 + d2 * d2).upper() <= target:
            return N
    raise ValueError("tail mass does not certify at this precision")
