"""Fourier analysis on the unit square and the Sobolev-name calculus.

Everything here lives on the canonical domain (0,1)^2; objects produced by
`polyfield` on (-1,1)^2 enter through the affine pullback x -> (x+1)/2, which
halves lengths and turns the mollifier scale nu into nu+1.  The L2 norm on
the big square is exactly twice the canonical one.

Coefficient extraction for mollified fields rests on one geometric fact: the
kernel is a decreasing profile of max(|z1|,|z2|), so its level sets are
squares, and the indicator of a centered square acts on every product trig
mode as multiplication by w_n(r) = 2 sin(n pi r)/(n pi) per axis (w_0 = 2r).
Integrating the layer-cake decomposition therefore reduces every kernel
cosine coefficient to two one-dimensional transforms of the unit radial
profile, shared across all modes and all scales.

Truncation tails are certified, not estimated: the kernel is merely
Lipschitz across the diagonals, its coefficients decay like 1/(nm), and the
tail bound multiplies that envelope by an exactly computable Parseval
defect: the rational L2 (or H^1) mass of the trimmed polynomial minus the
certified partial sum of its retained modes.  The H^1 identity applies
termwise because the polynomial vanishes on its support box, leaving no
boundary terms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

from .approxcore import BoundedValue, Name
from .floatball import (FB_PI, TINY, BallGrid, FloatBall, _float_up, _keep,
                        ball_fold_convolve, ball_matmul, ceil_log2, fb_exp,
                        fb_pow, fb_sqrt, grid_exp, grid_pi_multiple, grid_pow,
                        grid_sincos_pi)
from .polyfield import (MollifiedElement, RationalPoly2, _json_int, gamma0,
                        poly_inner_on_box)

__all__ = [
    "FourierField", "trig_poly_field", "mollified_field_pair",
    "resolve_element", "mollified_distance", "SobolevName", "differentiate",
    "multiply", "sup_constant",
]

TRIG_BASES = ("ss", "sc", "cs", "cc")

# Highest kbits the double-precision coefficient pipeline can certify.
MAX_COEFF_BITS = 40


# ---------------------------------------------------------------------------
# mode weights
# ---------------------------------------------------------------------------

def _axis_weights(char: str, cutoff: int) -> np.ndarray:
    """L2 weight of each 1D mode on (0,1): 1/2 generically, 1 for the
    constant cosine, 0 for the nonexistent sin(0 pi y)."""
    w = np.full(cutoff + 1, 0.5)
    w[0] = 1.0 if char == "c" else 0.0
    return w


def _weights(basis: str, cutoff: int) -> np.ndarray:
    wx = _axis_weights(basis[0], cutoff)
    wy = _axis_weights(basis[1], cutoff)
    return np.outer(wx, wy)


@lru_cache(maxsize=None)
def _mode_mask(basis: str, cutoff: int) -> np.ndarray:
    """The modes that exist (no sin(0 pi t) factor); cached and read-only."""
    out = _weights(basis, cutoff) > 0
    out.flags.writeable = False
    return out


def _tail_add(a: FloatBall, b: FloatBall) -> FloatBall:
    """Tail-bound addition that keeps exact zeros exact, so band-limited
    fields stay band-limited under linear combinations."""
    if a.upper() == 0.0:
        return b
    if b.upper() == 0.0:
        return a
    return a + b


def _widened(norm: FloatBall, tail: FloatBall) -> FloatBall:
    """``norm`` widened by the tail at both ends, kept >= 0: ||f|| is within
    t of ||g|| when ||f - g|| <= t.  A zero tail returns ``norm``."""
    if tail.upper() == 0.0:
        return norm
    w = norm.widened(tail.upper())
    return w if w.lower() >= 0.0 else FloatBall.from_endpoints(0.0, w.upper())


_PI2 = FB_PI * FB_PI


@lru_cache(maxsize=None)
def mode_weights(cutoff: int, kind: str, q: Fraction) -> BallGrid:
    """Certified weights of the modes n, m <= cutoff: (1 + n^2 + m^2)^q for
    kind "sobolev", the Stokes eigenvalue power (pi^2 (n^2 + m^2))^q for
    kind "stokes" (q > 0; 0 at n = m = 0).  One `grid_pow` runs over the
    distinct n^2 + m^2.  The table is cached and read-only."""
    n = np.arange(cutoff + 1)
    s = n[:, None] ** 2 + n[None, :] ** 2
    uniq, inv = np.unique(s, return_inverse=True)
    if kind == "sobolev":
        vals = grid_pow(BallGrid(1.0 + uniq), q)
    else:
        # the Stokes weight of the constant mode is 0
        vals = BallGrid.zeros(uniq.shape)
        vals.set(slice(1, None), grid_pow(BallGrid(uniq[1:] * 1.0) * _PI2, q))
    out = vals[inv.reshape(s.shape)]
    out.c.flags.writeable = out.r.flags.writeable = False
    return out


@lru_cache(maxsize=64)
def _row_weights(basis: str, cutoff: int, kind: str, q: Fraction) -> BallGrid:
    """The weights of a row of `weighted_sq_terms`: the L2 weight of each
    mode times its `mode_weights` entry (the L2 weight alone without a
    kind), flattened.  Cached and read-only."""
    w = BallGrid(_weights(basis, cutoff))
    if kind is not None:
        w = w * mode_weights(cutoff, kind, q)
    out = w.reshape(-1)
    out.c.flags.writeable = out.r.flags.writeable = False
    return out


def weighted_sq_terms(basis: str, grids: BallGrid, kind: str = None,
                      q=0) -> Tuple[BallGrid, BallGrid]:
    """The terms of `FourierField.weighted_sq_ball` for every grid of a
    (k, n+1, n+1) stack in ``basis``: k rows, each a grid's balls, and the
    weights of a row.  `BallGrid.sumsq_rows` of them gives the k sums."""
    k, cutoff = grids.shape[0], grids.shape[-1] - 1
    return (grids.reshape(k, -1),
            _row_weights(basis, cutoff, kind, Fraction(q)))


# ---------------------------------------------------------------------------
# FourierField
# ---------------------------------------------------------------------------

def _ratio_rows(g: np.ndarray) -> list:
    """Each entry of the float grid g as str(Fraction(v)), "n" or "n/d",
    read off v.as_integer_ratio() without building a Fraction; nan and inf
    raise as Fraction does."""
    return [["%d/%d" % nd if nd[1] != 1 else str(nd[0])
             for nd in map(float.as_integer_ratio, row)]
            for row in g.tolist()]


class FourierField:
    """One scalar component expanded in a product trig basis on (0,1)^2.

    ``grid`` stores expansion coefficients a_{n,m} (so that the function is
    sum a_{n,m} trig(n pi x) trig(m pi y)); ``basis`` is two characters,
    x-axis factor first, 's' or 'c'.  The field names every f with
    ||f - g||_2 <= ``tail_l2`` (and ||f - g||_{H^s} <= ``tail_hs[s]``) for
    some g whose coefficients lie in the balls, f - g anywhere in the
    spectrum.  Only the norms and `truncation_tail` below read a tail, by
    the triangle inequality: the band norm widened by it at both ends.
    """

    __slots__ = ("basis", "cutoff", "grid", "tail_l2", "tail_hs")

    def __init__(self, basis: str, cutoff: int, grid: BallGrid,
                 tail_l2: FloatBall = None, tail_hs: Dict = None):
        if basis not in TRIG_BASES:
            raise ValueError("unknown basis %r" % basis)
        self.basis = basis
        self.cutoff = cutoff
        self.tail_l2 = tail_l2 if tail_l2 is not None else FloatBall(0.0)
        if self.tail_l2.lower() < 0:
            self.tail_l2 = FloatBall.from_rounded(0.0, self.tail_l2.upper())
        self.tail_hs = dict(tail_hs or {})
        mask = _mode_mask(basis, cutoff)
        self.grid = BallGrid(grid.c * mask, grid.r * mask)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(basis: str, cutoff: int) -> "FourierField":
        return FourierField(basis, cutoff,
                            BallGrid.zeros((cutoff + 1, cutoff + 1)))

    @staticmethod
    def single_mode(basis: str, n: int, m: int, coeff=1.0) -> "FourierField":
        cut = max(n, m)
        g = BallGrid.zeros((cut + 1, cut + 1))
        b = coeff if isinstance(coeff, FloatBall) else FloatBall.exact(coeff)
        g.set((n, m), b)
        return FourierField(basis, cut, g)

    def band_limited(self) -> bool:
        return self.tail_l2.upper() == 0.0

    def _require_band_limited(self, what: str):
        if not self.band_limited():
            raise ValueError("%s needs a band-limited field "
                             "(uncontrolled tail)" % what)

    def weights(self) -> np.ndarray:
        return _weights(self.basis, self.cutoff)

    # -- linear structure ---------------------------------------------------

    def _aligned(self, other: "FourierField"):
        if self.basis != other.basis:
            raise ValueError("basis mismatch: %s vs %s"
                             % (self.basis, other.basis))
        cut = max(self.cutoff, other.cutoff)
        return self._embedded(cut), other._embedded(cut), cut

    def _embedded(self, cutoff: int) -> "FourierField":
        if cutoff == self.cutoff:
            return self
        g = BallGrid.zeros((cutoff + 1, cutoff + 1))
        n = self.cutoff + 1
        g.c[:n, :n] = self.grid.c
        g.r[:n, :n] = self.grid.r
        return FourierField(self.basis, cutoff, g, self.tail_l2,
                            self.tail_hs)

    def __add__(self, other: "FourierField") -> "FourierField":
        a, b, cut = self._aligned(other)
        zero = FloatBall(0.0)      # a band-limited operand's H^s tails
        tails = {s: _tail_add(a.tail_hs.get(s, zero), b.tail_hs.get(s, zero))
                 for s in {**a.tail_hs, **b.tail_hs}
                 if all(s in f.tail_hs or f.band_limited() for f in (a, b))}
        return FourierField(self.basis, cut, a.grid + b.grid,
                            _tail_add(a.tail_l2, b.tail_l2), tails)

    def __sub__(self, other: "FourierField") -> "FourierField":
        return self + (-other)

    def __neg__(self) -> "FourierField":
        return FourierField(self.basis, self.cutoff, -self.grid,
                            self.tail_l2, self.tail_hs)

    def scale(self, factor) -> "FourierField":
        b = factor if isinstance(factor, FloatBall) else FloatBall.exact(factor)
        mag = b.abs_ball()

        def tmul(t):
            return t if t.upper() == 0.0 else t * mag
        tails = {s: tmul(t) for s, t in self.tail_hs.items()}
        return FourierField(self.basis, self.cutoff, self.grid * b,
                            tmul(self.tail_l2), tails)

    # -- norms --------------------------------------------------------------

    def weighted_sq_ball(self, kind: str = None, q=0) -> FloatBall:
        """sum over the band of w rho a^2, with w = mode_weights(cutoff,
        kind, q) (1 without a kind) and rho the L2 weight of the mode; one
        sum under the gamma_n rule of `BallGrid.sumsq_ball`, without the
        tail."""
        n = self.cutoff + 1
        return BallGrid.sumsq_ball(*weighted_sq_terms(
            self.basis, self.grid.reshape(1, n, n), kind, q))

    def l2_sq_ball(self) -> FloatBall:
        """The square of `l2_norm_ball` (the band's sum if band-limited)."""
        if self.band_limited():
            return self.weighted_sq_ball()
        norm = self.l2_norm_ball()
        lo, hi = FloatBall(norm.lower()), FloatBall(norm.upper())
        return FloatBall.from_endpoints(max((lo * lo).lower(), 0.0),
                                        (hi * hi).upper())

    def l2_norm_ball(self) -> FloatBall:
        return _widened(fb_sqrt(self.weighted_sq_ball()), self.tail_l2)

    def hs_norm(self, s) -> FloatBall:
        """Sobolev norm (sum (1+n^2+m^2)^s rho a^2)^(1/2) widened by the
        H^s tail; at s=0 this is the L2 norm.  Needs a band-limited field
        or a stored tail for this s."""
        s = Fraction(s)
        if s == 0:
            return self.l2_norm_ball()
        tail = FloatBall(0.0) if self.band_limited() else self.tail_hs.get(s)
        if tail is None:
            raise ValueError("insufficient data: no H^%s tail bound" % s)
        return _widened(fb_sqrt(self.weighted_sq_ball("sobolev", s)), tail)

    def sup_upper(self) -> float:
        """Upper bound on the sup norm: sum of coefficient magnitudes."""
        self._require_band_limited("sup bound")
        return BallGrid(np.abs(self.grid.c), self.grid.r).ball_sum().upper()

    # -- analysis operations ------------------------------------------------

    def truncation_tail(self, cap: int) -> FloatBall:
        """The tail of `truncated(cap)` (cap = -1 keeps no mode): the tail
        plus the norm of the balls beyond ``cap``."""
        w = self.weights()
        w[:cap + 1, :cap + 1] = 0.0
        extra = fb_sqrt(self.grid.sumsq_ball(w))
        return self.tail_l2 + FloatBall.from_rounded(0.0, extra.upper())

    def truncated(self, cap: int) -> "FourierField":
        """Drop modes beyond ``cap``, adding their norm to the tail."""
        if cap >= self.cutoff:
            return self
        return FourierField(self.basis, cap, self.grid[:cap + 1, :cap + 1],
                            self.truncation_tail(cap))

    def derivative(self, axis: int) -> "FourierField":
        """Termwise derivative; sin and cos swap along the derived axis."""
        self._require_band_limited("termwise derivative")
        if axis not in (1, 2):
            raise ValueError("axis must be 1 or 2")
        char = self.basis[axis - 1]
        swapped = "c" if char == "s" else "s"
        nb = swapped + self.basis[1] if axis == 1 else self.basis[0] + swapped
        fac = _derivative_factors(char, self.cutoff)
        return FourierField(nb, self.cutoff, self.grid * (
            fac.reshape(-1, 1) if axis == 1 else fac))

    def multiply(self, other: "FourierField") -> "FourierField":
        """Pointwise product: the convolution of both fields' exponential
        extensions at the indices k, l >= 0 only, computed on the
        coefficient grids by `ball_fold_convolve` and folded back onto the
        product trig basis."""
        self._require_band_limited("product")
        other._require_band_limited("product")
        cut = self.cutoff + other.cutoff
        # a cosine axis is even in its index, a sine axis odd
        h = ball_fold_convolve(self.grid, other.grid, [
            1 if ch == "c" else -1 for ch in self.basis + other.basis])
        basis, w, aw = _product_fold(self.basis, other.basis, cut)
        return FourierField(basis, cut, BallGrid(h.c * w, h.r * aw))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        rows, cols = self.grid.shape
        out = {
            "basis": self.basis,
            "cutoff": self.cutoff,
            "re": _ratio_rows(self.grid.c),
            "im": [["0"] * cols for _ in range(rows)],
            "rad": _ratio_rows(self.grid.r),
            "tail_l2": str(Fraction(self.tail_l2.upper())),
        }
        if self.tail_hs:
            out["tail_hs"] = {str(s): str(Fraction(t.upper()))
                              for s, t in self.tail_hs.items()}
        return out

    @staticmethod
    def from_json(obj: dict) -> "FourierField":
        # centres round to nearest, radii round up and absorb their centre's
        # conversion error, so each loaded ball contains the written one;
        # entries that are doubles load exactly; "im" is written as zeros
        # and not read; a negative radius or tail bound raises ValueError
        def ball(centre, rad):
            q, r = Fraction(centre), Fraction(rad)
            if r < 0:
                raise ValueError("radius %s is negative" % rad)
            c = float(q)
            return c, _float_up(r + abs(q - Fraction(c)))

        def grid(centres, radii):
            arr = np.array([[ball(c, r) for c, r in zip(crow, rrow)]
                            for crow, rrow in zip(centres, radii)],
                           dtype=np.float64)
            return BallGrid(arr[..., 0].copy(), arr[..., 1].copy())

        def tail_ball(text):
            hi = Fraction(text)
            if hi < 0:
                raise ValueError("tail bound %s is negative" % text)
            # keep exact zeros exact so band-limitedness survives the trip
            return FloatBall(0.0) if hi == 0 \
                else FloatBall.from_endpoints(0.0, _float_up(hi))
        n = _json_int(obj, "cutoff") + 1
        if n < 1 or any(len(g) != n or any(len(row) != n for row in g)
                        for g in (obj["re"], obj["rad"])):
            raise ValueError("need cutoff >= 0 and 're', 'rad' of cutoff + 1 "
                             "rows of cutoff + 1 entries")
        tails = {Fraction(s): tail_ball(t)
                 for s, t in obj.get("tail_hs", {}).items()}
        return FourierField(obj["basis"], n - 1,
                            grid(obj["re"], obj["rad"]),
                            tail_ball(obj["tail_l2"]), tails)

    def __repr__(self):
        return "FourierField(basis=%s, cutoff=%d, tail<=%.3g)" % (
            self.basis, self.cutoff, self.tail_l2.upper())


@lru_cache(maxsize=256)
def _trig_values(char: str, cutoff: int, t: Fraction) -> BallGrid:
    """trig(n pi t) for n = 0..cutoff; cached and read-only."""
    t = Fraction(t)
    s, c = grid_sincos_pi(np.arange(cutoff + 1, dtype=object) * t.numerator,
                          t.denominator)
    out = s if char == "s" else c
    out.c.flags.writeable = out.r.flags.writeable = False
    return out


def _bilinear(a: BallGrid, grid: BallGrid, b: BallGrid) -> FloatBall:
    """sum a_n grid_{n,m} b_m under the gamma_n rule of `ball_matmul`."""
    return ball_matmul(ball_matmul(a.reshape(1, -1), grid),
                       b.reshape(-1, 1)).at((0, 0))


def _axis_fold(c1: str, c2: str, cut: int) -> Tuple[str, np.ndarray]:
    """The product's axis character and the factors that take the
    convolution at indices k >= 0 back to trig(k pi t).  Indices +-k both
    land on mode k, so k > 0 doubles; the factor 1/i of each sine axis
    leaves sin for one sine and -cos for two."""
    f = np.full(cut + 1, 2.0)
    f[0] = 1.0
    if c1 != c2:
        return "s", f
    return "c", -f if c1 == "s" else f


@lru_cache(maxsize=None)
def _product_fold(b1: str, b2: str, cut: int):
    """The basis of the product of fields in bases b1 and b2 at ``cut``,
    and the factor grid w of both axes' `_axis_fold` with |w|; cached and
    read-only."""
    (cx, fx), (cy, fy) = (_axis_fold(a, b, cut) for a, b in zip(b1, b2))
    w = np.outer(fx, fy)
    aw = np.abs(w)
    w.flags.writeable = aw.flags.writeable = False
    return cx + cy, w, aw


@lru_cache(maxsize=None)
def _derivative_factors(char: str, cutoff: int) -> BallGrid:
    """n pi for a sine axis and -n pi for a cosine axis, n = 0..cutoff:
    d/dt sin(n pi t) = n pi cos(n pi t), d/dt cos = -n pi sin; cached and
    read-only."""
    n = (1.0 if char == "s" else -1.0) * np.arange(cutoff + 1)
    out = BallGrid(n) * FB_PI
    out.c.flags.writeable = out.r.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# radial profile transforms
# ---------------------------------------------------------------------------
#
# h1(rho) = -d/d rho [gamma0 e^{-1/(1-rho^2)}] is the (negative) derivative
# of the unit radial profile.  The two families
#     phi(x) = int_0^1 h1(rho) cos(x rho) d rho
#     psi(x) = int_0^1 h1(rho) rho sin(x rho) d rho
# generate every kernel cosine coefficient:
#     C(nu; n, m) = (2 / (n m pi^2)) 2^{2 nu} [phi(x_{|n-m|}) - phi(x_{n+m})]
#     C(nu; n, 0) = (4 / (n pi)) 2^{nu} psi(x_n),        x_N = N pi 2^{-nu}
#     C(nu; 0, 0) = 1 exactly (kernel mass).

_H1_ORDER = 12
_H1_TOL = 2.0 ** -46


def _h1_coeffs(m: BallGrid, g0: FloatBall, order: int) -> BallGrid:
    """Taylor coefficients c_0..c_{order-1} of h1 about each entry of the
    column m (every |m| < 1), as the rows of a (len(m), order) grid.

    f(rho) = exp(-1/(1 - rho^2)) solves (1 - rho^2)^2 f' + 2 rho f = 0.
    About m, with w = 1 - m^2, (1 - rho^2)^2 = sum_i q_i (rho - m)^i for
    q = (w^2, -4 m w, 4 m^2 - 2 w, 4 m, 1), and matching powers of rho - m
    gives the Taylor coefficients f_k of f from f_0 = exp(-1/w) by
        q_0 (k+1) f_{k+1} = -2 m f_k - 2 f_{k-1}
                            - sum_{i=1..4} q_i (k+1-i) f_{k+1-i},
    and c_k = -gamma0 (k+1) f_{k+1}.  Each step is a ball expression in m,
    so over a ball m it encloses the coefficient at every point of the ball.
    """
    def times(x, k):
        return x * FloatBall(float(k))
    one = m.one()
    w = one - m * m
    mm = times(m, 4)
    q = (w * w, -(mm * w), mm * m - times(w, 2), mm, one)
    f = [grid_exp(-(one / w))]
    for k in range(order):
        acc = times(m * f[k], 2)
        if k:
            acc = acc + times(f[k - 1], 2)
        for i in range(1, min(k, 4) + 1):
            acc = acc + times(q[i] * f[k + 1 - i], k + 1 - i)
        f.append(-(acc / times(q[0], k + 1)))
    c = [f[k + 1] * (-g0 * FloatBall(float(k + 1)))
         for k in range(order)]
    return BallGrid.stack(c, -1)


def _h1_edge_bound(a: np.ndarray, g0: FloatBall) -> np.ndarray:
    """Upper bounds of h1 on [a, 1] for each a: h1 = 2 gamma0 rho
    e^{-1/v}/v^2 with v = 1 - rho^2 and rho <= 1, and e^{-1/v}/v^2
    increases for v <= 1/2, so it is at most its value at
    min(1 - a^2, 1/2)."""
    ab = BallGrid(a)
    v = BallGrid(np.minimum((ab.one() - ab * ab).upper(), 0.5))
    peak = grid_exp(-(v.one() / v)) / (v * v)
    return (peak * (g0 * FloatBall(2.0))).upper()


_H1_PASS = 4   # bisection levels evaluated per pass of `_h1_models`


@lru_cache(maxsize=1)
def _h1_models() -> Tuple[np.ndarray, np.ndarray, BallGrid, np.ndarray]:
    """Shared panel Taylor models of h1 on [0, 1].

    Returns (num, den, coef, rem): panel p is num[p]/den[p] +- 1/den[p],
    and on it |h1(rho) - sum_t coef[p, t] (rho - num[p]/den[p])^t| <=
    rem[p], with _H1_ORDER coefficients per row.  A panel [a, b] where
    h1 <= _H1_TOL on [a, 1] keeps a zero model with its sup as remainder.
    From depth 2 on, a panel with b < 1 keeps the midpoint series once the
    Lagrange remainder |c_ORDER| H^ORDER, with c_ORDER the recurrence over
    the whole panel and H the half-width, is at most _H1_TOL (2^-30 past
    depth 40); a panel that closes neither way is bisected.

    Each pass takes the open panels of one depth and all their descendants
    for the next _H1_PASS levels, bounds them with one `_h1_edge_bound`
    and one `_h1_coeffs` on the boxes that may take a model (depth >= 2,
    b < 1, sup above _H1_TOL), and then walks the levels top-down: a panel
    is kept where it closes and its descendants are dropped.  Four levels
    per pass keep the speculative tree small; with all nine in one pass it
    costs more than the passes it saves.  The midpoint series of every
    kept model come from one recurrence after the last pass.  Every ball
    operation is entrywise, so each remainder and each row has the bits of
    its own panel's, as a bisection one level at a time would give them.
    """
    g0 = gamma0()
    parts = []
    j, depth = np.array([0]), 0
    while len(j):
        # level k of the pass: the 2^k descendants of the frontier at
        # depth + k, node i's children at i and i + len(level)
        levels = [j]
        for _ in range(_H1_PASS - 1):
            levels.append(np.concatenate([2 * levels[-1],
                                          2 * levels[-1] + 1]))
        d = np.concatenate([np.full(len(x), depth + k)
                            for k, x in enumerate(levels)])
        den = 2 ** (d + 1)
        num = 2 * np.concatenate(levels) + 1
        mid, half = num / den, 1.0 / den
        sup = _h1_edge_bound((num - 1) / den, g0)
        rem = np.where(sup <= _H1_TOL, sup, np.inf)
        model = (rem == np.inf) & (num + 1 < den)
        box = model & (d >= 2)
        if box.any():
            top = _h1_coeffs(BallGrid(mid[box], half[box]), g0,
                             _H1_ORDER + 1)[:, _H1_ORDER]
            rem[box] = top.mag() * half[box] ** _H1_ORDER
        done = rem <= np.where(d >= 40, 2.0 ** -30, _H1_TOL)
        # top-down: a panel is live while no ancestor in the pass closed
        keep = np.zeros(len(d), dtype=bool)
        live, lo = np.ones(len(j), dtype=bool), 0
        for x in levels:
            at = slice(lo, lo + len(x))
            keep[at] = live & done[at]
            live, lo = np.tile(live & ~done[at], 2), lo + len(x)
        parts.append((num[keep], den[keep], mid[keep], model[keep],
                      rem[keep]))
        j = np.concatenate([2 * levels[-1], 2 * levels[-1] + 1])[live]
        depth += _H1_PASS
    num, den, mid, fit, rem = (np.concatenate(x) for x in zip(*parts))
    order = np.argsort(mid)
    num, den, mid, fit, rem = (x[order] for x in (num, den, mid, fit, rem))
    coef = BallGrid.zeros((len(num), _H1_ORDER))
    coef.set(fit, _h1_coeffs(BallGrid(mid[fit]), g0, _H1_ORDER))
    return num.astype(object), den.astype(object), coef, rem


_AB_DOWN = 60      # start T of the downward A_t, B_t recurrence
_MODE_BLOCK = 128  # modes per pass of `_window_grid`, bounding its arrays


def _ab_grid(num, den, top: int) -> Tuple[BallGrid, BallGrid]:
    """A_t = int_0^1 v^t cos(y v) dv and B_t = int_0^1 v^t sin(y v) dv for
    t = 0..top along a new last axis, at y = (num/den) pi > 0 for integer
    arrays num and den, by the parts recurrence A_t = (sin y - t B_{t-1})/y,
    B_t = (t A_{t-1} - cos y)/y.  It runs upward from A_0 = sin y/y,
    B_0 = (1 - cos y)/y, and downward as A_{t-1} = (cos y + y B_t)/t,
    B_{t-1} = (sin y - y A_t)/t from |A_T|, |B_T| <= int_0^1 v^T = 1/(T+1)
    at T = _AB_DOWN.  An error made at step k reaches step t upward times
    t!/(k! y^(t-k)) and downward times y^(k-t) t!/k!, so upward is stable
    for t <= y and downward for t >= y (Gautschi, SIAM Review 9, 1967).
    Both are ball enclosures, so each entry keeps the narrower one; for y
    far below 1 the upward balls overflow to inf or nan and the downward
    ones are kept.  y, sin y and cos y are the balls of `grid_pi_multiple`
    and `grid_sincos_pi`.  The window transforms of an element at cutoff
    2048 read y <= 4096 pi / 256 < 51 (scale nu >= 3, panel denominators
    >= 32), where absolute errors stay at the scale of the values.
    """
    y = grid_pi_multiple(num, den)
    s, c = grid_sincos_pi(num, den)
    with np.errstate(over="ignore", invalid="ignore"):
        up = [(s / y, (c.one() - c) / y)]
        for t in range(1, top + 1):
            a, b = up[-1]
            up.append(((s - b * t) / y, (a * t - c) / y))
    start = BallGrid(np.zeros(y.shape), _float_up(Fraction(1, _AB_DOWN + 1)))
    down = [(start, start)]
    for t in range(_AB_DOWN, 0, -1):
        a, b = down[-1]
        down.append(((c + y * b) / t, (s - y * a) / t))
    ua, ub, da, db = (BallGrid.stack(x, -1) for tables in
                      (up, down[::-1][:top + 1]) for x in zip(*tables))
    return _keep(ua.r < da.r, ua, da), _keep(ub.r < db.r, ub, db)


@lru_cache(maxsize=1)
def _panel_data():
    """What every window transform reads from the Taylor panels of h1.

    Returns the weights Kc[p, t] = 2 H^{t+1} c_t and
    Ks[p, t] = 2 H^{t+1} (c_{t-1} + mid c_t) over t = 0..ORDER (c_t = 0
    outside 0..ORDER-1) for panel p with midpoint mid, half-width H and
    model coefficients c_t; each panel's midpoint numerator and denominator
    and the index of its half-width among the distinct ones; the distinct
    half-widths' inverses (the panel denominators); and the slack
    sum rem (b - a) over the panels, summed exactly and rounded up.
    """
    num, den, coef, rem = _h1_models()
    h_den, widx = np.unique(den, return_inverse=True)
    coef = BallGrid(np.pad(coef.c, ((0, 0), (1, 1))),
                    np.pad(coef.r, ((0, 0), (1, 1))))
    # 2 H^{t+1} = 2 den^-(t+1), a power of two
    pow2 = BallGrid(2.0 / np.power.outer(den.astype(np.float64),
                                         np.arange(1, _H1_ORDER + 2)))
    mid = BallGrid((num / den).astype(np.float64)[:, None])
    kc = coef[:, 1:] * pow2
    ks = (coef[:, :-1] + coef[:, 1:] * mid) * pow2
    slack = _float_up(sum(map(Fraction, rem * pow2.c[:, 0])))
    return kc, ks, num, den, widx, h_den, slack


@lru_cache(maxsize=None)
def _window_grid(nu: int, top: int) -> Tuple[BallGrid, BallGrid]:
    """phi(x_n) and psi(x_n) at x_n = n pi 2^{-nu}, for n = 0..top.

    On a Taylor panel with midpoint mid, half-width H and model
    sum_t c_t (rho - mid)^t, the substitution rho = mid + H v gives the
    moments
        I_t^c = int (rho - mid)^t cos(x rho) = 2 H^{t+1} A_t cos(x mid)
                (t even) or -2 H^{t+1} B_t sin(x mid) (t odd),
        I_t^s = int (rho - mid)^t sin(x rho) = 2 H^{t+1} A_t sin(x mid)
                (t even) or 2 H^{t+1} B_t cos(x mid) (t odd),
    with A_t, B_t at y = x H, so that phi = sum_panels sum_t c_t I_t^c and,
    as rho = (rho - mid) + mid, psi = sum_panels sum_t c_t (I_{t+1}^s +
    mid I_t^s).  The trig factor depends on t only through its parity and
    the table only on the panel's half-width, of which there are few.

    So, per block of modes and per half-width, one `ball_matmul` contracts
    the orders of that half-width's table (A_t for even t, B_t for odd t)
    against its panels' weights of `_panel_data`, with the odd orders and
    then the even ones zeroed, under the gamma_n rule of n = ORDER + 1
    terms.  It gives four sums per panel and mode: S_c^even, S_c^odd of
    Kc and S_s^even, S_s^odd of Ks.  Then ball products and sums form
        cos(x mid) S_c^even - sin(x mid) S_c^odd       (phi's panel term),
        sin(x mid) S_s^even + cos(x mid) S_s^odd       (psi's panel term),
    and a second `ball_matmul` sums the panels under the gamma_n rule of
    the panel count.  The model remainders (a sup on the flat edge panels)
    widen every value by the slack.  The tables work in the scaled
    variable v, so all absolute errors stay at the scale of the true
    values.  phi(0) = gamma0 e^-1 (the profile at 0) and psi(0) = 0 are
    set directly.
    """
    kc, ks, mid_num, mid_den, widx, h_den, slack = _panel_data()
    order = kc.shape[1]
    even = np.arange(order) % 2 == 0
    # per half-width: its panels, and their weight rows Kc with the odd
    # orders zeroed, Kc with the even ones zeroed, then Ks alike
    groups = []
    for h in range(len(h_den)):
        p = np.nonzero(widx == h)[0]
        groups.append((p, BallGrid.stack(
            (BallGrid(np.where(m, w.c[p], 0.0), np.where(m, w.r[p], 0.0))
             for w in (kc, ks) for m in (even, ~even)), 0, np.concatenate)))
    ones = BallGrid(np.ones((1, len(widx))))
    phi, psi = BallGrid.zeros(top + 1), BallGrid.zeros(top + 1)
    for lo in range(1, top + 1, _MODE_BLOCK):
        n = np.arange(lo, min(lo + _MODE_BLOCK, top + 1), dtype=object)
        a, b = _ab_grid(n, (h_den * (1 << nu))[:, None], order - 1)
        parts = []
        for h, (p, w) in enumerate(groups):
            # the half-width's (orders, modes) table against its weight
            # rows, then the trig values at its panels' midpoints
            tab = BallGrid(np.where(even, a.c[h], b.c[h]).T,
                           np.where(even, a.r[h], b.r[h]).T)
            sums = ball_matmul(w, tab).reshape(4, len(p), -1)
            sin, cos = grid_sincos_pi(np.multiply.outer(mid_num[p], n),
                                      (mid_den[p] * (1 << nu))[:, None])
            parts.append([sums[i] for i in range(4)] + [sin, cos])
        ce, co, se, so, sin, cos = (BallGrid.stack(x, 0, np.concatenate)
                                    for x in zip(*parts))
        for out, panels in ((phi, cos * ce - sin * co),
                            (psi, sin * se + cos * so)):
            out.set(slice(lo, lo + len(n)), ball_matmul(ones, panels)[0])
    phi, psi = phi.widened(slack), psi.widened(slack)
    phi.set(0, gamma0() * fb_exp(FloatBall(-1.0)))
    psi.set(0, FloatBall(0.0))
    return phi, psi


@lru_cache(maxsize=None)
def mollifier_mode_grid(nu: int, cutoff: int) -> BallGrid:
    """C(nu; n, m) = int gamma_nu(z) cos(n pi z1) cos(m pi z2) dz for all
    n, m <= cutoff, from the two shared 1D transforms."""
    if nu < 0:
        raise ValueError("scale must be nonnegative")
    c = cutoff
    phi, psi = _window_grid(nu, 2 * c)
    idx = np.arange(1, c + 1)
    ng, mg = np.meshgrid(idx, idx, indexing="ij")
    grid = BallGrid.zeros((c + 1, c + 1))
    # (2/pi^2) 2^{2 nu} (phi(x_{|n-m|}) - phi(x_{n+m}))/(n m) for n, m >= 1
    grid.set((slice(1, None), slice(1, None)),
             (phi[np.abs(ng - mg)] - phi[ng + mg]) / BallGrid(ng * mg)
             * (FloatBall(float(1 << (2 * nu + 1))) / _PI2))
    # (4/pi) 2^nu psi(x_n)/n on the axes
    edge = psi[1:c + 1] / BallGrid(idx) \
        * (FloatBall(float(1 << (nu + 2))) / FB_PI)
    grid.set((slice(1, None), 0), edge)
    grid.set((0, slice(1, None)), edge)
    grid.set((0, 0), FloatBall(1.0))
    return grid


# ---------------------------------------------------------------------------
# trig moments of polynomials
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def axis_trig_moments(char: str, imax: int, cutoff: int,
                      a: Fraction, b: Fraction) -> BallGrid:
    """M[i, n] = int_a^b y^i trig(n pi y) dy, by parts recurrences; cached
    and read-only, since every expansion on a trim level's box reads the
    same grid."""
    a, b = Fraction(a), Fraction(b)
    out = BallGrid.zeros((imax + 1, cutoff + 1))
    apow = [a ** i for i in range(imax + 1)]
    bpow = [b ** i for i in range(imax + 1)]
    if char == "c":
        for i in range(imax + 1):
            out.set((i, 0), FloatBall.exact(
                Fraction(bpow[i] * b - apow[i] * a, i + 1)))
    # x = n pi, n = 1..cutoff, and the trig values at x a and x b
    n = np.arange(1, cutoff + 1, dtype=object)
    x = BallGrid(np.arange(1.0, cutoff + 1)) * FB_PI
    sa, ca = grid_sincos_pi(n * a.numerator, a.denominator)
    sb, cb = grid_sincos_pi(n * b.numerator, b.denominator)
    ic = (sb - sa) / x
    isn = (ca - cb) / x
    out.set((0, slice(1, None)), isn if char == "s" else ic)
    for i in range(1, imax + 1):
        av = FloatBall.exact(apow[i])
        bv = FloatBall.exact(bpow[i])
        t_over_x = BallGrid(np.full(cutoff, float(i))) / x
        ic, isn = (sb * bv - sa * av) / x - t_over_x * isn, \
            (ca * av - cb * bv) / x + t_over_x * ic
        out.set((i, slice(1, None)), isn if char == "s" else ic)
    out.c.flags.writeable = out.r.flags.writeable = False
    return out


def _poly_ball_grid(q: RationalPoly2) -> BallGrid:
    g = BallGrid.zeros((q.N + 1, q.N + 1))
    for i, row in enumerate(q.a):
        for j, v in enumerate(row):
            if v:
                g.set((i, j), FloatBall.exact(v))
    return g


def trig_poly_field(q: RationalPoly2, box, basis: str,
                    cutoff: int) -> FourierField:
    """Expand a polynomial supported on ``box`` (inside (0,1)^2) in the given
    basis.  The field carries no tail and represents the projection onto
    modes <= cutoff; `_defects` bounds the discarded mass.
    """
    (x0, x1), (y0, y1) = box
    qg = _poly_ball_grid(q)
    mx = axis_trig_moments(basis[0], qg.shape[0] - 1, cutoff, x0, x1)
    my = axis_trig_moments(basis[1], qg.shape[1] - 1, cutoff, y0, y1)
    # raw[n, m] = sum_ij q_ij mx[i, n] my[j, m]
    raw = ball_matmul(ball_matmul(BallGrid(mx.c.T, mx.r.T), qg), my)
    w = _weights(basis, cutoff)
    inv = np.where(w > 0, 1.0 / np.maximum(w, 1e-300), 0.0)
    return FourierField(basis, cutoff, BallGrid(raw.c * inv, raw.r * inv))


def _root_tail(sq: float) -> FloatBall:
    """The tail ball [0, sqrt(sq)] for an upper bound sq on a tail mass."""
    return FloatBall.from_endpoints(0.0, fb_sqrt(FloatBall(sq)).upper())


# ---------------------------------------------------------------------------
# mollified elements -> coefficient fields
# ---------------------------------------------------------------------------

def _pullback_component(elem: MollifiedElement, j: int) -> RationalPoly2:
    """Trimmed component j as a polynomial of the canonical variable: the
    base component composed once with x -> (2x - 1)/beta, beta = 1 - 2^-k,
    the trim's x -> x/beta after the canonical x -> 2x - 1."""
    base = elem.base.p1 if j == 1 else elem.base.p2
    beta = 1 - Fraction(1, 1 << elem.k)
    return base.compose_affine(2 / beta, -1 / beta, 2 / beta, -1 / beta)


def _canonical_box(elem: MollifiedElement):
    lo = Fraction(1, 1 << (elem.k + 1))
    return ((lo, 1 - lo), (lo, 1 - lo))


def _component_h1_sq(q: RationalPoly2, box) -> Fraction:
    dx, dy = q.deriv_x(), q.deriv_y()
    return poly_inner_on_box(dx, dx, box) + poly_inner_on_box(dy, dy, box)


def _defects(field: FourierField, q: RationalPoly2, box,
             h1_sq: Fraction) -> Tuple[float, float]:
    """Upper bounds on the L2 and H^1 Parseval defects of the expansion
    ``field`` of q on ``box``: the exact mass minus the lower end of the
    retained one.  The H^1 sum carries the weight pi^2 (n^2 + m^2); its
    identity holds termwise because q vanishes on the box boundary."""
    out = []
    for exact, kind in ((poly_inner_on_box(q, q, box), None),
                        (h1_sq, "stokes")):
        d = Fraction(exact) - Fraction(field.weighted_sq_ball(kind, 1).lower())
        out.append(_float_up(d) if d > 0 else TINY)
    return out[0], out[1]


@lru_cache(maxsize=None)
def _env_consts(nu: int) -> Tuple[FloatBall, FloatBall]:
    """e1, e0 with |C(nu;n,m)| <= e1/(nm) for n, m >= 1 and
    |C(nu;n,0)| <= e0/n, from the layer-cake envelope 4 g_nu(0)/pi^2: the
    upper ends of the returned balls are the bounds.  Cached: every
    mollified tail reads them, and `fb_exp` is a one-entry grid call."""
    d0 = gamma0() * fb_exp(FloatBall(-1.0)) * FloatBall(float(1 << (2 * nu)))
    return (d0 * FloatBall(4.0) / _PI2,
            d0 * FloatBall(4.0 * 2.0 ** -nu) / FB_PI)


def _mollified_tail(nu: int, cutoff: int, l2_def: float,
                    h1_def: float) -> FloatBall:
    """Certified L2 mass of the discarded mollified modes.

    Two routes, both products of a sup of the coefficient envelope over the
    discarded region with an exactly computable defect of the trimmed
    polynomial (its rational L2 or H^1 mass minus the retained partial sum);
    the smaller wins.  0 <= C <= 1 always, so the defect alone is also valid.
    """
    e = FloatBall(max(b.upper() for b in _env_consts(nu)))
    env = FloatBall(min(1.0, (e / FloatBall.exact(cutoff + 1)).upper()))
    return _root_tail(min(
        (env * env * FloatBall(l2_def)).upper(),
        (e * e * FloatBall(h1_def)
         / (FloatBall.exact((cutoff + 1) ** 4) * _PI2)).upper()))


def _mollified_hs_tail(nu: int, cutoff: int, h1_def: float,
                       s: Fraction) -> FloatBall:
    s = Fraction(s)
    if s >= 2:
        raise ValueError("H^s tails certified only for s < 2")
    e1, e0 = (FloatBall(b.upper()) for b in _env_consts(nu))
    cp2 = FloatBall.exact((cutoff + 1) ** 2)
    # sup over the discarded region of (1+n^2+m^2)^s C^2 / ((n^2+m^2) pi^2)
    lam_edge = cp2 + FloatBall(1.0)
    b_mid = fb_pow(FloatBall(1.0) + lam_edge, s) * e1 * e1 / (
        cp2 * lam_edge * _PI2)
    b_edge = fb_pow(FloatBall(1.0) + cp2, s) * e0 * e0 / (cp2 * cp2 * _PI2)
    return _root_tail((FloatBall(max(b_mid.upper(), b_edge.upper()))
                       * FloatBall(h1_def)).upper())


# a few entries: the calls on one element ask for its two components at one
# cutoff, one after another; at 64 entries the cache kept the 65 x 65
# expansions of 32 elements alive, and a long run's resident memory grew
# with the elements it had seen
@lru_cache(maxsize=8)
def _component_expansion(elem: MollifiedElement, j: int, basis: str,
                         cutoff: int):
    """Base expansion of one pulled-back trimmed component plus its L2 and
    H^1 Parseval defects (cached per element object)."""
    box = _canonical_box(elem)
    q = _pullback_component(elem, j)
    base = trig_poly_field(q, box, basis, cutoff)
    return (base,) + _defects(base, q, box, _component_h1_sq(q, box))


def mollified_field_pair(elem: MollifiedElement, cutoff: int,
                         hs_tails=()) -> Tuple[FourierField, FourierField]:
    """Canonical-domain expansion of both components of a mollified element.

    Component 1 lands in the sin.cos basis, component 2 in cos.sin; the
    L2 norm over the original square is twice the canonical norm of the
    returned pair.
    """
    nu = elem.n + 1
    cgrid = mollifier_mode_grid(nu, cutoff)
    out = []
    for j, basis in ((1, "sc"), (2, "cs")):
        base, l2_def, h1_def = _component_expansion(elem, j, basis, cutoff)
        grid = base.grid * cgrid
        tail = _mollified_tail(nu, cutoff, l2_def, h1_def)
        tails = {Fraction(s): _mollified_hs_tail(nu, cutoff, h1_def,
                                                 Fraction(s))
                 for s in hs_tails}
        out.append(FourierField(basis, cutoff, grid, tail, tails))
    return out[0], out[1]


def _pair_tail_upper(elem: MollifiedElement, cutoff: int) -> list:
    """Both components' L2 tail bounds at ``cutoff``, without a mollifier
    grid."""
    defects = (_component_expansion(elem, j, basis, cutoff)[1:]
               for j, basis in ((1, "sc"), (2, "cs")))
    return [_mollified_tail(elem.n + 1, cutoff, *d).upper() for d in defects]


def _norm2(xs) -> FloatBall:
    """The Euclidean norm of the nonnegative floats xs, as a ball."""
    return fb_sqrt(BallGrid(np.array(xs, dtype=float)).sumsq_ball())


_ELEMENT_RUNGS = (64, 128, 256, 512, 1024, 2048)


def resolve_element(elem: MollifiedElement, k: int = None,
                    hs_tails=()) -> Tuple[FourierField, FourierField]:
    """`mollified_field_pair` at the first of `_ELEMENT_RUNGS` whose joint
    L2 tail (`_norm2` of the components' tails, canonical square) is at
    most 2^-k, at the first without a k: the one rule by which a cutoff
    follows from a precision.  A rung that misses costs its tails only;
    past the top one the tail mass does not certify 2^-k (ValueError)."""
    if k is None:
        return mollified_field_pair(elem, _ELEMENT_RUNGS[0], hs_tails)
    for cutoff in _ELEMENT_RUNGS:
        if _norm2(_pair_tail_upper(elem, cutoff)).upper() <= 2.0 ** -k:
            return mollified_field_pair(elem, cutoff, hs_tails)
    raise ValueError("tail mass does not certify at this precision")


def mollified_distance(a: MollifiedElement, b: MollifiedElement,
                       kbits: int) -> BoundedValue:
    """L2 distance on the original square with radius <= 2^-kbits.  Each
    element resolves at 2^-(kbits+4), so the tails of the difference take
    at most a quarter of the radius there, where norms double."""
    if kbits > MAX_COEFF_BITS - 4:
        raise ValueError("metric precision beyond the supported range "
                         "(kbits <= %d)" % (MAX_COEFF_BITS - 4))
    fa1, fa2 = resolve_element(a, kbits + 4)
    fb1, fb2 = resolve_element(b, kbits + 4)
    total = (fa1 - fb1).l2_sq_ball() + (fa2 - fb2).l2_sq_ball()
    dist = fb_sqrt(total) * FloatBall(2.0)
    out = dist.to_bounded()
    if out.radius > Fraction(1, 1 << kbits):
        raise ValueError("distance enclosure too wide: %r" % out)
    return out


# ---------------------------------------------------------------------------
# name-level calculus
# ---------------------------------------------------------------------------

class SobolevName:
    """A Name whose approximants converge in H^s: refine(k) is within
    2^-k of the limit in the Sobolev norm.  ``hs_bound`` is an upper bound
    on the limit's H^s norm (computable from refine(0) when approximants
    expose hs_norm; supplied explicitly otherwise)."""

    __slots__ = ("name", "s", "_hs_bound")

    def __init__(self, name: Name, s, hs_bound: Optional[float] = None):
        self.name = name
        self.s = Fraction(s)
        self._hs_bound = hs_bound

    def refine(self, k: int):
        return self.name.refine(k)

    @property
    def hs_bound(self) -> float:
        if self._hs_bound is not None:
            return self._hs_bound
        p0 = self.refine(0)
        if isinstance(p0, FourierField):
            return p0.hs_norm(self.s).upper() + 1.0
        raise ValueError("hs_bound not supplied and not computable "
                         "from the first approximant")


def _derivative(p, axis: int):
    if isinstance(p, FourierField):
        return p.derivative(axis)
    raise TypeError("cannot differentiate %r" % type(p).__name__)


def differentiate(w: SobolevName, axis: int) -> Name:
    """Name of the partial derivative; valid for s >= 1 since then
    ||d(p_k) - d(limit)||_2 <= pi 2^-k, so shifting the index by 2 restores
    the 2^-k modulus."""
    if w.s < 1:
        raise ValueError("differentiation needs s >= 1")
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    return Name(lambda k: _derivative(w.refine(k + 2), axis))


# the last mode n, m of the head of `sup_constant`'s sum
_SUP_HEAD = 24


@lru_cache(maxsize=None)
def sup_constant(s: Fraction) -> FloatBall:
    """A ball holding the sup-norm embedding constant C_s = (sum over
    n, m >= 0 of (1 + n^2 + m^2)^-s)^(1/2) for s > 1.  It depends on s
    alone, so it is cached per s.

    The modes n, m <= 24 are one `mode_weights` sum.  The rest, where
    max(n, m) > 24, is at most 2 sum_{n>24} sum_{m>=0} (n^2 + m^2)^-s
    <= 2 sum_{n>24} (n^-2s + (pi/2) n^(1-2s)), since the m-sum is at most
    its first term plus int_0^inf (n^2 + x^2)^-s dx <= (pi/2) n^(1-2s) for
    s >= 1; the integral tests sum_{n>N} n^-2s <= N^(1-2s)/(2s-1) and
    sum_{n>N} n^(1-2s) <= N^(2-2s)/(2s-2) bound that.  So the sum lies
    between the head and the head plus this tail bound."""
    s = Fraction(s)
    if s <= 1:
        raise ValueError("sup-norm embedding needs s > 1")
    head = mode_weights(_SUP_HEAD, "sobolev", -s).ball_sum()
    N = FloatBall(float(_SUP_HEAD))
    tail = FloatBall(2.0) * (
        fb_pow(N, 1 - 2 * s) / FloatBall.exact(2 * s - 1)
        + FB_PI / FloatBall(2.0) * fb_pow(N, 2 - 2 * s)
        / FloatBall.exact(2 * s - 2))
    return fb_sqrt(FloatBall.from_endpoints(head.lower(),
                                            (head + tail).upper()))


def multiply(v: SobolevName, w: Name) -> Name:
    """Name of the product v*w for s > 1, following the two-step accuracy
    selection: first resolve w until the sup-embedding bound of v absorbs
    the error, then resolve v against the sup bound of that approximant."""
    if v.s <= 1:
        raise ValueError("multiplication needs s > 1")
    lead = (sup_constant(v.s) * FloatBall(max(v.hs_bound, 0.0))).upper()

    def query(n: int):
        k = n + 1 + max(0, ceil_log2(lead)) if lead > 0 else n + 1
        q = w.name.refine(k) if isinstance(w, SobolevName) else w.refine(k)
        supq = q.sup_upper()
        m = n + 1 + max(0, ceil_log2(supq)) if supq > 0 else n + 1
        p = v.refine(m)
        return p.multiply(q)

    return Name(query)
