"""IEEE-double ball arithmetic with explicit outward rounding.

This is the fast tier used by the spectral grids, the contour quadrature and
the Picard iteration.  A value is a center/radius pair of Python floats (or
numpy arrays of them).  Soundness rests only on IEEE-754 semantics of
+,-,*,/ and sqrt (correctly rounded, guaranteed by the platform): every
operation inflates the radius by a rigorous bound on its own rounding error.
Transcendentals (exp, log, sin, cos) are implemented here by argument
reduction plus Taylor series with certified remainders, each written once:
exp and log on grids, whose one-entry forms are the scalar ones, and the
sine and cosine series on FloatBall and BallGrid alike; this module trusts
nothing from libm except correctly-rounded sqrt.  Likewise the ball rules
(sum, difference, product, quotient, hull, widening and the directed ends)
are written once, on the base class of `FloatBall` and `BallGrid`, for
centres and radii that are floats or arrays.  It is the only module that
rounds: the others compute every certified number as ball expressions and
read it out through the directed ends `upper()`/`lower()`.  The package's whole trust base is
listed in the "Trust base" section of the README.

The bulk bilinear operations, `ball_matmul` and `ball_fold_convolve`, share
one rounding rule: a sum of n products computed in any order in IEEE doubles
is off by at most gamma_n times the sum of the absolute products, with
gamma_n = n u/(1 - n u) and u = 2^-53 (Higham, "Accuracy and Stability of
Numerical Algorithms", section 3.1; Rump, "Fast and parallel interval
arithmetic", BIT 1999), and the radius they return adds that term to the
propagated input radii; each states its n.  Every sum over a coefficient
grid goes through the same rule: `BallGrid.sumsq_ball` (or `sumsq_rows`,
one sum per row of a stack) for weighted sums of squares (norms, tails,
masses) and `BallGrid.ball_sum` for signed sums.
`ball_fold_convolve` is the band-limited product's kernel: it convolves the
even or odd extensions of two coefficient grids and keeps the quadrant of
nonnegative indices, folding the negative indices onto the stored ones (a
Toeplitz plus a Hankel matrix along each axis), so the extensions are never
formed.  It first widens its operands so that no entry lies strictly
between 0 and F = 2^-500 (a centre below F moves into its radius, a radius
rises to F): the extension weights 1/2 and 1/4 then scale exactly, and its
matmuls see no subnormal operand, which costs a microcode assist per
multiply-add on x86.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = ["FloatBall", "BallGrid", "CBall", "ball_matmul",
           "ball_fold_convolve", "fb_exp", "fb_log", "fb_sincos", "fb_sqrt",
           "fb_pow", "grid_exp", "grid_log", "grid_sqrt", "grid_pow",
           "grid_pi_multiple", "grid_sincos_pi", "pow_up", "ceil_log2",
           "FB_PI", "FB_LN2", "EPS", "TINY"]

# the rounding constants of every module in the package
EPS = 2.0 ** -52           # one ulp at magnitude 1
TINY = 5e-308              # absorbs subnormal rounding
_U = 2.0 ** -53            # the unit roundoff
_INFL = 1.0 + 2.0 ** -45   # generic relative inflation for radius formulas


def _bump(c: float, r: float) -> float:
    """Outward-correct a radius computed in rounded float arithmetic."""
    return (r + abs(c) * EPS + TINY) * _INFL


def _float_up(x: Fraction) -> float:
    """The smallest double >= x."""
    f = float(x)
    return f if Fraction(f) >= x else math.nextafter(f, math.inf)


@lru_cache(maxsize=None)
def _gamma(n: int) -> float:
    """gamma_n = n u/(1 - n u) with u = 2^-53, rounded up."""
    return _float_up(Fraction(n, 2 ** 53 - n))


def _up(x, k: int):
    """An upper bound on a nonnegative value V that floats computed as x by
    k correctly rounded operations, each with a positive exact result (a
    product, a quotient, a sum of nonnegative terms, or 1 - w for w < 1).
    Then V = x (1 + theta_k) with |theta_k| <= gamma_k, and forming and
    applying the factor 1 + gamma_{k+2} takes the two roundings more
    (Higham, Lemmas 3.1 and 3.3); TINY absorbs underflow."""
    return x * (1.0 + _gamma(k + 2)) + TINY


def _add_up(a, b):
    """The least float >= a + b, for floats or arrays.  TwoSum (Knuth,
    TAOCP vol. 2, 4.2.2) gives the exact error e = (a + b) - fl(a + b);
    fl(a + b) is kept when e <= 0 and stepped one float up otherwise."""
    s = a + b
    bp = s - a
    e = (a - (s - bp)) + (b - bp)
    if isinstance(s, np.ndarray):
        return np.where(e > 0.0, np.nextafter(s, np.inf), s)
    return math.nextafter(s, math.inf) if e > 0.0 else s


def pow_up(x: np.ndarray, n: int) -> np.ndarray:
    """An upper bound on x^n for floats 0 <= x <= 1 and an integer n >= 1,
    by repeated squaring in one pass.  A rounding in a multiplication chain
    for x^n enters the result raised to the power that the chain carries it
    with, and these powers sum to n - 1, so the product is x^n (1 +
    theta_{n-1}); as x <= 1, an underflow is never scaled up."""
    out, sq, k = np.ones_like(x), x, n
    while k:
        out, sq, k = (out * sq if k & 1 else out), sq * sq, k >> 1
    return _up(out, n - 1)


def ceil_log2(x: float) -> int:
    """ceil(log2 x) for a positive finite float, exactly: frexp writes x as
    f 2^e with 1/2 <= f < 1, and x is a power of two when f = 1/2."""
    f, e = math.frexp(x)
    return e - 1 if f == 0.5 else e


class _Ball:
    """The ball rules shared by `FloatBall` and `BallGrid`, each written
    once on centres and radii that are floats or numpy arrays: builtin
    `abs`, `_add_up` and `_bump` take either.  A subclass builds the
    result and names its carrier's entrywise min and max and its test that
    a comparison holds everywhere.  A FloatBall operand of a BallGrid
    broadcasts over it."""

    __slots__ = ("c", "r")

    @classmethod
    def from_rounded(cls, lo, hi):
        """The ball holding [lo, hi] for endpoints rounded to nearest, like
        ``mag()`` or ``upper()``: the radius also covers their rounding."""
        c = 0.5 * (lo + hi)
        return cls(c, _bump(c, cls._max(hi - c, c - lo)))

    # -- views ------------------------------------------------------------

    def lower(self):
        """The greatest float <= c - r."""
        return -_add_up(-self.c, self.r)

    def upper(self):
        """The least float >= c + r."""
        return _add_up(self.c, self.r)

    def mag(self):
        """The least float >= |c| + r."""
        return _add_up(abs(self.c), self.r)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, o):
        o = _fb(o)
        c = self.c + o.c
        return type(self)(c, _bump(c, self.r + o.r))

    __radd__ = __add__

    def __neg__(self):
        # +r copies an array radius, which `BallGrid.set` writes in place
        return type(self)(-self.c, +self.r)

    def __sub__(self, o):
        return self + (-_fb(o))

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        o = _fb(o)
        c = self.c * o.c
        r = abs(self.c) * o.r + abs(o.c) * self.r + self.r * o.r
        return type(self)(c, _bump(c, r * _INFL))

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = _fb(o)
        den = abs(o.c) - o.r
        if not self._all(den > 0.0):
            raise ZeroDivisionError("divisor ball contains zero")
        c = self.c / o.c
        r = ((self.r + abs(c) * o.r) / den) * _INFL
        return type(self)(c, _bump(c, r))

    def hull(self, o):
        return self.from_rounded(self._min(self.c - self.r, o.c - o.r),
                                 self._max(self.c + self.r, o.c + o.r))

    def widened(self, extra):
        return type(self)(self.c, _bump(self.c, self.r + abs(extra)))


class FloatBall(_Ball):
    """Center-radius enclosure over IEEE doubles."""

    __slots__ = ()
    _min, _max, _all = min, max, bool

    def __init__(self, c: float, r: float = 0.0):
        if not (r >= 0.0) or math.isinf(c) or math.isnan(c) or math.isinf(r):
            raise ValueError("invalid ball (%r, %r)" % (c, r))
        self.c = float(c)
        self.r = float(r)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def exact(x) -> "FloatBall":
        """Enclose an int/Fraction/float exactly (floats are exact dyadics)."""
        if isinstance(x, float):
            return FloatBall(x, 0.0)
        f = Fraction(x)
        c = f.numerator / f.denominator  # correctly rounded
        err = abs(f - Fraction(c))
        return FloatBall(c, float(err) * (1.0 + EPS) + (TINY if err else 0.0))

    @staticmethod
    def from_endpoints(lo: float, hi: float) -> "FloatBall":
        """The ball holding [lo, hi] for endpoints that are bounds already,
        such as a bound read from a file.  [0, hi] is held exactly whenever
        hi/2 is exact, so such a bound keeps its value when written back."""
        if lo == 0.0:
            # c + (hi - c) rounds to hi when c = hi/2 is exact
            c = 0.5 * hi
            if c + c == hi:
                return FloatBall(c, hi - c)
        return FloatBall.from_rounded(lo, hi)

    @staticmethod
    def from_bounded(bv) -> "FloatBall":
        """The ball around the double nearest to the centre of a
        BoundedValue, whose radius plus that rounding is rounded up."""
        cf, rf = bv.center.to_fraction(), bv.radius.to_fraction()
        c = cf.numerator / cf.denominator
        return FloatBall(c, _float_up(abs(cf - Fraction(c)) + rf))

    def to_bounded(self):
        from .approxcore import BoundedValue
        return BoundedValue.from_endpoints(
            Fraction(self.c) - Fraction(self.r),
            Fraction(self.c) + Fraction(self.r))

    # -- views ------------------------------------------------------------

    def mig(self) -> float:
        """The greatest float <= |c| - r, or 0 when that is negative."""
        m = -_add_up(-abs(self.c), self.r)
        return m if m > 0.0 else 0.0

    def contains(self, x) -> bool:
        x = Fraction(x)
        return Fraction(self.c) - Fraction(self.r) <= x <= \
            Fraction(self.c) + Fraction(self.r)

    def __repr__(self):
        return "FloatBall(%g +/- %g)" % (self.c, self.r)

    # -- arithmetic beyond the shared rules --------------------------------

    def __rtruediv__(self, o):
        return _fb(o) / self

    def abs_ball(self) -> "FloatBall":
        if abs(self.c) >= self.r:
            return FloatBall(abs(self.c), self.r)
        return FloatBall.from_rounded(0.0, self.mag())

    # hooks for the series shared with BallGrid
    def one(self):
        return FloatBall(1.0)

    def zero(self):
        return FloatBall(0.0)


def _fb(x) -> _Ball:
    if isinstance(x, _Ball):
        return x
    return FloatBall.exact(x)


# ---------------------------------------------------------------------------
# certified scalar transcendentals
# ---------------------------------------------------------------------------

# ln 2 and pi as tight balls (centers are the correctly rounded doubles,
# radii cover the distance to the true constants with margin)
FB_LN2 = FloatBall(0.6931471805599453, 1e-16)
FB_PI = FloatBall(3.141592653589793, 2e-16)
FB_PI_2 = FloatBall(1.5707963267948966, 1e-16)


# 1/k as exact balls, the coefficients of every series below
_RECIP = (None,) + tuple(FloatBall.exact(Fraction(1, k)) for k in range(1, 28))


def _exp_series(red):
    """exp(red) for |red| <= ln2/2 + slack, entrywise on a BallGrid: the
    Taylor polynomial of degree 13 plus the remainder
    |red|^14/14! e^|red| <= |red|^14/14! 1.5."""
    term = acc = red.one()
    for k in range(1, 14):
        term = term * red * _RECIP[k]
        acc = acc + term
    return acc.widened((red.mag() ** 14) / math.factorial(14) * 1.5 * _INFL
                       + TINY)


def _sincos_series(red) -> tuple:
    """sin and cos of red for |red| <= pi/4 + slack, on a FloatBall or a
    BallGrid: the Taylor polynomials of degree 13 plus the remainder
    |red|^14/14!."""
    s, c = red.zero(), red.one()
    term = c
    for k in range(1, 14):
        term = term * red * _RECIP[k]
        if k % 4 == 1:
            s = s + term
        elif k % 4 == 2:
            c = c - term
        elif k % 4 == 3:
            s = s - term
        else:
            c = c + term
    rem = (red.mag() ** 14) / math.factorial(14) * _INFL + TINY
    return s.widened(rem), c.widened(rem)


def _atanh_series(s):
    """atanh(s) for |s| <= 1/3 + slack, entrywise on a BallGrid: 14 odd
    terms plus the geometric remainder |s|^29/29 / (1 - s^2)."""
    s2 = s * s
    acc = s.zero()
    p = s
    for k in range(0, 14):
        acc = acc + p * _RECIP[2 * k + 1]
        p = p * s2
    sm = s.mag()
    return acc.widened((sm ** 29) / 29.0 / np.maximum(1.0 - sm * sm, 0.5)
                       * _INFL + TINY)


def _sincos_point(x: float) -> tuple:
    if abs(x) > 1e12:
        raise ValueError("trig argument too large for float ball reduction")
    n = int(math.floor(x / 1.5707963267948966 + 0.5))
    # |red.c| <= pi/4 + reduction slack
    s, c = _sincos_series(FloatBall(x) - FB_PI_2 * n)
    q = n % 4
    if q == 0:
        return s, c
    if q == 1:
        return c, -s
    if q == 2:
        return -s, -c
    return -c, s


def fb_sincos(x: FloatBall) -> tuple:
    s, c = _sincos_point(x.c)
    if x.r:
        # |sin(a)-sin(b)| <= |a-b|, same for cos
        s = s.widened(x.r)
        c = c.widened(x.r)
    return s, c


def fb_exp(x: FloatBall) -> FloatBall:
    return grid_exp(BallGrid(x.c, x.r)).at(())


def fb_log(x: FloatBall) -> FloatBall:
    return grid_log(BallGrid(x.c, x.r)).at(())


def fb_sqrt(x: FloatBall) -> FloatBall:
    return grid_sqrt(BallGrid(x.c, x.r)).at(())


def fb_pow(x: FloatBall, q: Fraction) -> FloatBall:
    """x**q for a rational exponent by `grid_pow`.  For q > 0 a base whose
    lower end lies in [-TINY, 0] gives [0, mag^q], as x^q rises on
    [0, mag]."""
    q = Fraction(q)
    if x.c - x.r > 0.0 or q == Fraction(1, 2) or \
            (q.denominator == 1 and abs(q.numerator) <= 64):
        return grid_pow(BallGrid(x.c, x.r), q).at(())
    if x.c - x.r >= -TINY and q > 0:
        m = x.mag()
        hi = grid_pow(BallGrid(m), q).at(()).upper() if m > 0.0 else 0.0
        return FloatBall.from_rounded(0.0, hi)
    raise ValueError("power of ball touching zero")


# ---------------------------------------------------------------------------
# vectorized grids
# ---------------------------------------------------------------------------

class BallGrid(_Ball):
    """Numpy arrays of centers and radii with outward-rounded bulk ops."""

    __slots__ = ()
    _min, _max, _all = np.minimum, np.maximum, staticmethod(np.all)

    def __init__(self, c, r=None):
        self.c = np.asarray(c, dtype=np.float64)
        if r is None:
            r = np.zeros_like(self.c)
        self.r = np.asarray(r, dtype=np.float64)
        if self.r.shape != self.c.shape:
            self.r = np.broadcast_to(self.r, self.c.shape).copy()

    @staticmethod
    def zeros(shape) -> "BallGrid":
        return BallGrid(np.zeros(shape), np.zeros(shape))

    @staticmethod
    def of(balls) -> "BallGrid":
        """The grid of a sequence of FloatBalls."""
        balls = list(balls)
        return BallGrid([b.c for b in balls], [b.r for b in balls])

    @staticmethod
    def from_endpoints(lo, hi) -> "BallGrid":
        """`FloatBall.from_endpoints` entrywise."""
        c = 0.5 * hi
        exact = (lo == 0.0) & (c + c == hi)
        return _keep(exact, BallGrid(c, hi - c), BallGrid.from_rounded(lo, hi))

    @property
    def shape(self):
        return self.c.shape

    def copy(self) -> "BallGrid":
        return BallGrid(self.c.copy(), self.r.copy())

    def __getitem__(self, idx) -> "BallGrid":
        return BallGrid(self.c[idx], self.r[idx])

    def reshape(self, *shape) -> "BallGrid":
        return BallGrid(self.c.reshape(*shape), self.r.reshape(*shape))

    # hooks for the series shared with FloatBall
    def one(self) -> "BallGrid":
        return BallGrid(np.ones(self.shape))

    def zero(self) -> "BallGrid":
        return BallGrid.zeros(self.shape)

    def at(self, idx) -> FloatBall:
        return FloatBall(float(self.c[idx]), float(self.r[idx]))

    def set(self, idx, b: FloatBall):
        self.c[idx] = b.c
        self.r[idx] = b.r

    def sumsq_ball(self, w=None) -> FloatBall:
        """Ball enclosing sum w x^2 over the grid, for nonnegative weights w
        of the grid's shape (a BallGrid or an array of exact weights; 1 when
        omitted): `sumsq_rows` of the flattened grid."""
        lo, hi = self.reshape(1, -1)._sumsq_ends(
            None if w is None else w.reshape(-1))
        return FloatBall.from_endpoints(float(lo[0]), float(hi[0]))

    def sumsq_rows(self, w=None) -> "BallGrid":
        """Balls enclosing sum w x^2 along the last axis, one per row, for
        nonnegative weights w shared by every row (a BallGrid or an array of
        exact weights of a row's length; 1 when omitted).

        The lower end sums max(w.c - w.r, 0) mig(x)^2, the upper end
        (w.c + w.r) mag(x)^2.  A term takes k = 4 roundings (mig or mag, the
        square, the weight end, the product) and the sum n - 1 more, so in
        any order each float sum S is within a factor 1 +- gamma_{n+3} of
        its exact value.  Underflow loses at most 2^-1075 per product times
        a later weight, which eta = TINY max(1, max w) covers (0 for an
        all-zero row, whose sum stays an exact 0).  The ends are
        (S_hi + eta) (1 + g) and (S_lo - eta) (1 - g), g = gamma_{n+k+2}:
        one rounding more for eta and two to form and apply the factor.
        Each row is summed as the 1-D array it is on its own.
        """
        return BallGrid.from_endpoints(*self._sumsq_ends(w))

    def _sumsq_ends(self, w):
        """The lower and upper ends of `sumsq_rows`, one per row."""
        # mag, mig and the terms, in place: a stack of rows keeps three
        # temporaries of its size
        hi = np.abs(self.c)
        lo = np.subtract(hi, self.r)
        hi += self.r
        live = hi.any(axis=-1)
        np.maximum(lo, 0.0, out=lo)
        hi *= hi
        lo *= lo
        wmax = 1.0
        if w is not None:
            wc, wr = (w.c, w.r) if isinstance(w, BallGrid) else (w, 0.0)
            w_hi = wc + wr
            hi *= w_hi
            lo *= np.maximum(wc - wr, 0.0)
            wmax = max(float(np.max(w_hi, initial=0.0)), 1.0)
        g = _gamma(hi.shape[-1] + 6)
        eta = np.where(live, TINY * wmax, 0.0)
        return (np.maximum(lo.sum(axis=-1) - eta, 0.0) * (1.0 - g),
                (hi.sum(axis=-1) + eta) * (1.0 + g))

    def ball_sum(self) -> FloatBall:
        """Ball enclosing the sum of the enclosed values.

        The centre sum of n terms is off by at most gamma_{n-1} sum |c|, and
        the float sums of |c| and of the radii are each within a factor
        1 + gamma_{n-1} of the exact ones.  Their combination takes two
        roundings, and the factor 1 + gamma_{n+3} two more to form and
        apply; `_bump` then keeps upper() and lower() outward.
        """
        n = max(self.c.size, 1)
        s = float(self.c.sum())
        rad = (float(self.r.sum()) + _gamma(n) * float(np.abs(self.c).sum())) \
            * (1.0 + _gamma(n + 3))
        return FloatBall(s, _bump(s, rad))


# ---------------------------------------------------------------------------
# certified elementary functions on grids
# ---------------------------------------------------------------------------
#
# `fb_exp`, `fb_log`, `fb_sqrt` and `fb_pow` are these grid forms on a single
# entry, so each function has one implementation.  `grid_sincos_pi` takes
# rational multiples of pi, which it reduces exactly.

def _keep(mask, exact: BallGrid, other: BallGrid) -> BallGrid:
    """``exact`` where ``mask`` holds, ``other`` elsewhere."""
    return BallGrid(np.where(mask, exact.c, other.c),
                    np.where(mask, exact.r, other.r))


def _grid_exp_point(x: np.ndarray) -> BallGrid:
    """exp of the floats x entrywise, for x <= 709: x = n ln2 + red with
    |red| <= ln2/2 + slack, exp(red) by `_exp_series`, times 2^n; below
    -745 the ball [0, 1.5e-323]."""
    if (x > 709.0).any():
        raise OverflowError("exp overflow in ball grid")
    under = x < -745.0
    n = np.rint(np.where(under, 0.0, x) / 0.6931471805599453)
    red = BallGrid(np.where(under, 0.0, x)) - BallGrid(n) * FB_LN2
    out = _exp_series(red) * BallGrid(np.ldexp(1.0, n.astype(np.int64)))
    flush = FloatBall.from_rounded(0.0, 5e-324 + 1e-323)
    return _keep(under, BallGrid(np.full(x.shape, flush.c), flush.r), out)


def grid_exp(x: BallGrid) -> BallGrid:
    """exp entrywise: exp(c) spread by the radius factor, as
    exp(c +/- r) = exp(c) exp([-r, r]) and |e^t - 1| <= r e^r for
    |t| <= r."""
    base = _grid_exp_point(x.c)
    if not x.r.any():
        return base
    if (x.r > 700.0).any():
        raise OverflowError("exp of huge ball")
    spread = x.r * _grid_exp_point(x.r).mag() * _INFL
    return _keep(x.r == 0.0, base, base * BallGrid(np.ones(x.shape), spread))


def grid_log(x: BallGrid) -> BallGrid:
    """log entrywise: with x.c = m 2^e, log m = 2 atanh((m-1)/(m+1)) and
    |(m-1)/(m+1)| <= 1/3; a radius adds x.r/lo, as
    |log a - log b| <= |a - b| / min(a, b)."""
    lo = x.c - x.r
    if not (lo > 0.0).all():
        raise ValueError("log of ball touching zero")
    m, e = np.frexp(x.c)
    mb = BallGrid(m)
    one = mb.one()
    out = _atanh_series((mb - one) / (mb + one)) * FloatBall(2.0) \
        + BallGrid(e.astype(np.float64)) * FB_LN2
    return _keep(x.r == 0.0, out, out.widened(x.r / lo * _INFL))


def grid_sqrt(x: BallGrid) -> BallGrid:
    """sqrt entrywise: the correctly rounded roots of the ends, moved one
    rounding outward; `fb_sqrt` is this on one entry."""
    hi = x.c + x.r
    if (hi < 0.0).any():
        raise ValueError("sqrt of negative ball")
    shi = np.sqrt(hi) * (1.0 + EPS) + TINY
    slo = np.sqrt(np.maximum(x.c - x.r, 0.0)) * (1.0 - EPS)
    return BallGrid.from_rounded(np.maximum(slo, 0.0), shi)


def grid_pow(x: BallGrid, q) -> BallGrid:
    """x**q entrywise for a rational exponent: products for an integer
    |q| <= 64, the square root for q = 1/2, else exp(q log x), which needs
    bases whose lower ends are positive."""
    q = Fraction(q)
    if q == 0:
        return x.one()
    if q.denominator == 1 and 0 < abs(q.numerator) <= 64:
        out = x.one()
        base = x if q > 0 else x.one() / x
        for _ in range(abs(q.numerator)):
            out = out * base
        return out
    if q == Fraction(1, 2):
        return grid_sqrt(x)
    return grid_exp(grid_log(x) * FloatBall.exact(q))


def grid_pi_multiple(num, den) -> BallGrid:
    """Balls around (num/den) pi for integer arrays num and den > 0.  The
    quotient is one correctly rounded division of Python integers, off by at
    most EPS/2 relative (or 2^-1075 when subnormal, which the product's
    TINY covers)."""
    num = np.asarray(num, dtype=object)
    quo = (num / np.asarray(den, dtype=object)).astype(np.float64)
    return BallGrid(quo, np.abs(quo) * EPS) * FB_PI


def grid_sincos_pi(num, den) -> tuple:
    """sin and cos of (num/den) pi for integer arrays num and den > 0.

    The argument is reduced exactly in integers: with r = num mod 2 den and
    k the nearest integer to 2 r/den, the angle is k pi/2 + red with
    red = (p/(2 den)) pi, p = 2 r - k den and |p| <= den/2, so |red| <= pi/4
    whatever the size of num/den and no reduction slack enters.  The series
    of `_sincos_series` then runs on red, and k mod 4 picks the quadrant.
    """
    num, den = np.broadcast_arrays(np.asarray(num, dtype=object),
                                   np.asarray(den, dtype=object))
    r = num % (2 * den)
    k = (4 * r + den) // (2 * den)
    s, c = _sincos_series(grid_pi_multiple(2 * r - k * den, 2 * den))
    q = (k % 4).astype(np.int64)
    swap = q % 2 == 1
    s, c = _keep(swap, c, s), _keep(swap, s, c)
    return (BallGrid(np.where(q >= 2, -s.c, s.c), s.r),
            BallGrid(np.where((q == 1) | (q == 2), -c.c, c.c), c.r))


# ---------------------------------------------------------------------------
# bilinear bulk operations
# ---------------------------------------------------------------------------

def ball_matmul(x: BallGrid, y: BallGrid) -> BallGrid:
    """Matrix product of ball grids.

    Each entry is a dot product of length k, the inner dimension, so its
    centre is off by at most gamma_k (|x.c| @ |y.c|).  The radius
        |x.c| @ (y.r + gamma_k |y.c|) + x.r @ (|y.c| + y.r)
    is computed in floats along at most k + 3 roundings of nonnegative
    numbers (two to form the right factor, k in the dot product, one to add
    the two products), which `_up` covers.
    """
    k = x.c.shape[-1]
    g = _gamma(k)
    ay = np.abs(y.c)
    c = x.c @ y.c
    r = np.abs(x.c) @ (y.r + g * ay) + x.r @ (ay + y.r)
    return BallGrid(c, _up(r, k + 3))


# the operand floor of `ball_fold_convolve`: F^2 = 2^-1000 is a normal double
_FLOOR = 2.0 ** -500


def _floored(x: BallGrid) -> BallGrid:
    """The operand rule of `ball_fold_convolve`: a centre with |c| < F
    becomes 0 and |c| joins its radius, rounded up by `_add_up`, and every
    radius is raised to at least F.  The ball only widens."""
    a = np.abs(x.c)
    small = a < _FLOOR
    r = x.r
    # _add_up(r, 0) is r, so only the nonzero small centres need the TwoSum
    tiny = small & (a > 0.0)
    if tiny.any():
        r = r.copy()
        r[tiny] = _add_up(r[tiny], a[tiny])
    return BallGrid(np.where(small, 0.0, x.c), np.maximum(r, _FLOOR))


def _mirror(size: int, lead: int, length: int, parity: int, hankel: int):
    """Index and sign tables that lay out an axis extension: position u
    holds index |u - lead| if that is below ``size`` (0 with sign 0
    otherwise), times the parity where u < lead.  The signs are (2, 3,
    length): the Toeplitz source, then the Hankel source, which also
    carries the parity ``hankel``; in each the centre channel, then two
    radius channels, which mirror with +1."""
    k = np.arange(length) - lead
    live = 1.0 * (np.abs(k) < size)
    c = np.where(k < 0, float(parity), 1.0) * live
    return np.minimum(np.abs(k), size - 1), np.array(
        [[c, live, live], [c * hankel, live, live]])


@lru_cache(maxsize=None)
def _fold_tables(p: int, q: int, s: int, t: int, parity: tuple):
    """The weight, index and sign tables of `ball_fold_convolve` for
    operands of shapes (p, q) and (s, t); cached and read-only."""
    def w(size, par, halve=False):
        # w(0) is 1 on an even axis, 0 on an odd one, and halved where the
        # fold counts index 0 twice; w(i) = 1/2 for i > 0
        out = np.full(size, 0.5)
        out[0] = (0.5 if halve else 1.0) if par > 0 else 0.0
        return out
    xr, xc, yr, yc = parity
    cols, csign = _mirror(q, t - 1, q + 3 * t - 3, xc, yc)
    rows, rsign = _mirror(s, s - 1, 2 * p + 2 * s - 3, yr, xr)
    out = (np.outer(w(p, xr, True), w(q, xc)),
           np.outer(w(s, yr), w(t, yc, True)),
           cols, csign[:, :, None, :], rows, rsign[:, :, :, None])
    for a in out:
        a.flags.writeable = False
    return out


def ball_fold_convolve(x: BallGrid, y: BallGrid, parity) -> BallGrid:
    """The quadrant a, b >= 0 of the 2-D convolution of the parity
    extensions of two coefficient grids, computed on the grids themselves.

    ``parity`` holds the row and column parities of x, then of y, each +1
    (even) or -1 (odd).  A grid v of shape (p, q) extends to
        E[i, j] = w(i) w(j) v[|i|, |j|],   |i| < p, |j| < q,
    times the row parity if i < 0 and the column parity if j < 0, with
    w(0) = 1 on an even axis and 0 on an odd one and w(i) = 1/2 otherwise:
    the exponential coefficients of a cosine (even) or sine (odd) series.
    For y of shape (s, t) the result is the (p + s - 1, q + t - 1) grid
        out[a, b] = sum over i + k = a, j + l = b of Ex[i, j] Ey[k, l].

    The fold.  Each extension is even or odd along each axis, so the sums
    over negative indices fold onto the stored ones.  With sigma y's
    column parity and y's column 0 halved (the fold counts it twice), on
    the columns
        sum_l Ex[i, b - l] Ey[k, l] = sum_{l >= 0} Ey[k, l] M_i[l, b],
        M_i[l, b] = Ex[i, b - l] + sigma Ex[i, b + l],
    a Toeplitz plus a Hankel matrix, two windows of x's row i laid out with
    its mirror image.  On the rows, x's row -i is rho (x's row parity)
    times row i, so with x's row 0 halved
        out[a] = sum_{i >= 0} Z_i[a] M_i,  Z_i[a] = Ey[a - i] + rho Ey[a + i],
    y's rows read with their mirror image.  Only the rows |a - i| < s of Z_i
    can be nonzero: each row i of x is one matmul of at most 2s - 1 by t by
    q + t - 1, added into those output rows, and the temporaries stay
    O((s + q) t).  The tables are cached per shape and parity.

    Weights and the floor.  Both operands first pass `_floored` with
    F = 2^-500: a centre below F in magnitude moves into its radius, and
    every radius rises to at least F.  Each new ball contains the old one,
    and a slot widens by at most F (||Ex||_1 + ||Ey||_1 + F N) over its N
    terms, the norms summing |c| + r.  Only then are the weights 1/2 and
    1/4 applied, so they are exact: a weighted entry is 0 or at least F/4.
    So no operand of the matmuls is subnormal (each costs a microcode
    assist per multiply-add on x86), and a product underflows only where
    two entries summed into M_i or Z_i cancel to below about F 2^-50, which
    TINY covers.

    Rounding.  A slot's centre is a sum over rows i of dot products of
    length t, and each term multiplies an entry of Z_i by one of M_i, each
    the sum of two weighted entries (M_i at l = 0 is twice one entry,
    exactly).  At most min(p, 2s - 1) rows i reach a slot; an added exact
    zero does not round.  Each product of the exact slot sum thus carries
    at most
        n = t + [t > 1] + min(p, 2s - 1)
    roundings (t in the dot product, one in Z_i, one in M_i when t > 1 and
    min(p, 2s - 1) - 1 in the row sum), and the centre is off by at most
    gamma_n (|Ex.c| * |Ey.c|) at that slot (Higham, section 3.1 and
    Lemma 3.1); 25 x 25 grids give n = 51, where the formed 49 x 49
    extensions took 98.  The radius
        |Ey.c| * (Ex.r + gamma_n |Ex.c|) + Ey.r * (|Ex.c| + Ex.r)
    goes through the same folds and matmuls with every sign +1 (a parity
    sign in a radius channel would cancel radii), so it adds the same
    nonnegative terms in n + 3 roundings (two to form Ex.r + gamma_n |Ex.c|
    and one to add the two parts), which `_up` covers.
    """
    (p, q), (s, t) = x.shape, y.shape
    wx, wy, cols, csign, rows, rsign = _fold_tables(p, q, s, t,
                                                    tuple(parity))
    x, y = _floored(x), _floored(y)
    n = t + (t > 1) + min(p, 2 * s - 1)
    g = _gamma(n)
    xc, xr = x.c * wx, x.r * wx
    ax = np.abs(xc)
    # the Toeplitz and Hankel sources: x's rows with their mirror image,
    # position u holding index u - (t - 1); windows [ch, i, l, b] at
    # positions t - 1 -+ l + b
    xe = np.multiply(np.stack((xc, xr + g * ax, ax + xr))[:, :, cols], csign,
                     order="C")
    shape, (s0, s1, s2, s3) = (3, p, t, q + t - 1), xe.strides
    toeplitz = np.ndarray(shape, xe.dtype, xe, (t - 1) * s3,
                          (s1, s2, -s3, s3))
    hankel = np.ndarray(shape, xe.dtype, xe, s0 + (t - 1) * s3,
                        (s1, s2, s3, s3))
    # y's rows with their mirror image, position v holding index v - (s - 1)
    yc, yr = y.c * wy, y.r * wy
    ye = np.stack((yc, np.abs(yc), yr))[:, rows] * rsign
    out = np.zeros((3, p + s - 1, q + t - 1))
    m = np.empty((3, t, q + t - 1))
    span = min(p, s) + s - 1
    z, zm = np.empty((3, span, t)), np.empty((3, span, q + t - 1))
    for i in range(p):
        lo, hi = max(i - s + 1, 0), i + s
        np.add(toeplitz[:, i], hankel[:, i], out=m)
        zi, zmi = z[:, :hi - lo], zm[:, :hi - lo]
        np.add(ye[0, :, lo - i + s - 1:hi - i + s - 1],
               ye[1, :, lo + i + s - 1:hi + i + s - 1], out=zi)
        out[:, lo:hi] += np.matmul(zi, m, out=zmi)
    return BallGrid(out[0], _up(out[1] + out[2], n + 3))


# ---------------------------------------------------------------------------
# complex discs
# ---------------------------------------------------------------------------

_CMUL = 2.25 * _U      # >= sqrt(5) u, the complex product's relative error


def _cmag(c):
    x, y = c.real, c.imag
    return np.sqrt(x * x + y * y) + 2.0 ** -536


class CBall:
    """Complex discs |z - c| <= r over IEEE doubles: centres c (a complex or
    a complex array) and radii r.  Each radius is formed in floats from the
    bound below and made an upper bound by `_up`.  The magnitude
    m = fl(sqrt(fl(x^2) + fl(y^2))) + 2^-536 of c = x + i y has
    |c| <= m (1 + u)^3, u = 2^-53: the roundings of the root lose a factor
    (1 + u)^2, squares that underflow lose at most 2^-1074 under the root,
    which the floor covers, and adding it takes the third rounding.

    * Sum (in `mul_add`): each part of fl(a + b) is off by at most u times
      its exact value, so the centre is off by u |a + b| <= u m (1 + u)^4.
    * Product: the four-multiplication formula is off by at most
      sqrt(5) u |a b| (Brent, Percival and Zimmermann, "Error bounds on
      complex floating-point multiplication", Math. Comp. 76, 2007; 2u with
      an FMA), and |x y - a b| <= |a| s + |b| r + r s for x, y within r, s
      of a, b: the radius ma (s + 2.25 u mb) + r (mb + s), times (1 + u)^6.
    * Reciprocal: 1/a = conj(a)/|a|^2 in real operations, each part off by
      gamma_5 relative (four roundings, and one for squares that underflow
      while |a|^2 >= 2^-1000), and |1/x - 1/a| <= r/(|a| (|a| - r)).  With
      lo = fl(sqrt d) (1 - gamma_5) <= |a|, the radius is
      (r/(lo - r) + gamma_5)/lo.

    Underflow in a centre loses a few 2^-1075, which TINY covers; overflow
    is not covered, so centres stay within 2^510 in magnitude.
    """

    __slots__ = ("c", "r", "_m")

    def __init__(self, c, r=0.0, m=None):
        self.c = c
        self.r = r
        self._m = m

    @staticmethod
    def of(re, im) -> "CBall":
        """The disc holding re + i im for FloatBall or BallGrid parts: it is
        within re.r + im.r of the centre."""
        return CBall(re.c + 1j * im.c, _up(re.r + im.r, 1))

    @property
    def m(self):
        if self._m is None:
            self._m = _cmag(self.c)
        return self._m

    def mag(self):
        """An upper bound on |z| over the disc: (m + r) (1 + u)^3."""
        return _up(self.m + self.r, 4)

    def __getitem__(self, idx) -> "CBall":
        return CBall(self.c[idx], self.r[idx])

    def widened(self, extra) -> "CBall":
        return CBall(self.c, _up(self.r + extra, 1), self._m)

    def __mul__(self, o: "CBall") -> "CBall":
        ma, mb = self.m, o.m
        return CBall(self.c * o.c,
                     _up(ma * (o.r + _CMUL * mb) + self.r * (mb + o.r), 10))

    def mul_add(self, o: "CBall", a: "CBall") -> "CBall":
        """self * o + a, the Horner step: the product's and the sum's
        radii in one expression, six roundings deep, times (1 + u)^6."""
        ma, mb = self.m, o.m
        c = self.c * o.c + a.c
        m = _cmag(c)
        return CBall(c, _up(ma * (o.r + _CMUL * mb) + self.r * (mb + o.r)
                            + a.r + _U * m, 12), m)

    def reciprocal(self) -> "CBall":
        a, b = self.c.real, self.c.imag
        d = a * a + b * b
        if not np.all((d >= 2.0 ** -1000) & (d <= 2.0 ** 1020)):
            raise ValueError("complex reciprocal outside its range")
        lo = np.sqrt(d) * (1.0 - _gamma(5))
        gap = lo - self.r
        if not np.all(gap > 0.0):
            raise ZeroDivisionError("disc contains zero")
        return CBall(self.c.conjugate() * (1.0 / d),
                     _up((self.r / gap + _gamma(5)) / lo, 4))
