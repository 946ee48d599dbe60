"""The exact ball record, closed-form special functions in exact integer
and ``Fraction`` series, approximation streams, and the shared table of
analytic constants.

``BoundedValue`` stores center +/- radius as two dyadic ``Fraction``s
(denominator a power of two) and carries no arithmetic: certificates,
artifacts and `beta` keep their numbers in it, and every computation runs
in `floatball` balls or in exact integers and ``Fraction``s.  The
canonical form m * 2**e (m odd, or m = e = 0) appears only in the JSON
schema and the rounding helpers.

Every transcendental value here comes from rational data through exact
integer or ``Fraction`` series with stated tail bounds: Beta from its
incomplete-Beta series at 1/2 in fixed-point integers, E_1 and ln from
their power series, and the contour angle's cosine and sine from
``math.isqrt``.  pi, ln 2 and Euler's constant are 60-digit literals
(`_PI`, `_LN2`, `_EULER`), each within `_LITERAL_ERR` = 10^-60, which
every ball built on them carries.  No integral here is taken by
quadrature, and no module of the package imports mpmath.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Tuple, Union

__all__ = [
    "BoundedValue",
    "Name",
    "ConstantsTable",
    "beta",
    "gamma_tail",
    "contour_angle",
    "bv_e1",
]

# pi, ln 2 and Euler's constant rounded to 60 decimals, each within
# _LITERAL_ERR
_PI = Fraction("3.141592653589793238462643383279502884197169399375105820974945")
_LN2 = Fraction("0.693147180559945309417232121458176568075500134360255254120680")
_EULER = Fraction("0.577215664901532860606512090082402431042159335939923598805767")
_LITERAL_ERR = Fraction(1, 10 ** 60)

_Number = Union[int, Fraction]


def _dyadic(x: _Number) -> Fraction:
    """x as an exact dyadic ``Fraction``: ValueError for a Fraction whose
    denominator is not a power of two, TypeError for a float or any type
    other than int and Fraction."""
    if isinstance(x, Fraction):
        q = x.denominator
        if q & (q - 1):
            raise ValueError("fraction %s is not dyadic" % x)
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("cannot convert %r to a dyadic rational" % (x,))


def _split(f: Fraction) -> Tuple[int, int]:
    """The canonical (m, e) of a dyadic f = m 2^e: m odd, or m = e = 0."""
    p = f.numerator
    if p == 0:
        return 0, 0
    shift = (p & -p).bit_length() - 1  # nonzero only for an integer
    return p >> shift, shift - (f.denominator.bit_length() - 1)


def _join(m: int, e: int) -> Fraction:
    """m 2^e as a Fraction."""
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _round(f: Fraction, prec: int, direction: int) -> Fraction:
    """f rounded to a dyadic with about ``prec`` significant bits, toward
    -inf for ``direction`` < 0 and toward +inf for > 0."""
    p, q = f.numerator, f.denominator
    if p == 0:
        return Fraction(0)
    e = p.bit_length() - q.bit_length() - prec  # floor(log2 |f|) within 1
    # m = f * 2**-e, rounded in the requested direction
    if e >= 0:
        num, den = p, q << e
    else:
        num, den = p << (-e), q
    m = num // den if direction < 0 else -((-num) // den)
    return _join(m, e)


class BoundedValue:
    """The exact record of a ball: center and radius are dyadic
    ``Fraction``s (denominator a power of two), checked on construction,
    and the value lies in [center - radius, center + radius].

    It carries no arithmetic.  Certificates, artifacts and `beta` keep
    their numbers in it; every computation runs in `floatball` balls or in
    exact integers and `Fraction`s, and :meth:`from_endpoints` rounds a
    computed interval outward at the precision it is given.
    """

    __slots__ = ("center", "radius")

    def __init__(self, center: _Number, radius: _Number = 0):
        center, radius = _dyadic(center), _dyadic(radius)
        if radius < 0:
            raise ValueError("negative radius")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)

    def __setattr__(self, *a):
        raise AttributeError("BoundedValue is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def exact(cls, x: _Number) -> "BoundedValue":
        return cls(x)

    @classmethod
    def from_endpoints(cls, lo: Fraction, hi: Fraction,
                       prec: int) -> "BoundedValue":
        """Enclose the interval [lo, hi] (given as Fractions) outward, with
        center and radius rounded at ``prec`` bits."""
        if lo > hi:
            raise ValueError("empty interval")
        c = _round(Fraction(lo + hi, 2), prec, -1)
        r = max(hi - c, c - lo)
        return cls(c, _round(r, prec, +1))

    # -- views --------------------------------------------------------------

    def lower(self) -> Fraction:
        return self.center - self.radius

    def upper(self) -> Fraction:
        return self.center + self.radius

    def contains(self, x: Fraction) -> bool:
        return self.lower() <= x <= self.upper()

    def mag(self) -> Fraction:
        """Upper bound on |value|."""
        return abs(self.center) + self.radius

    def __float__(self):
        return float(self.center)

    def __repr__(self):
        return "BoundedValue(%s +/- %s)" % (float(self.center),
                                            float(self.radius))

    # -- serialization (each part {"m": str, "e": int}, canonical) ------------

    def to_json(self) -> dict:
        (cm, ce), (rm, re) = _split(self.center), _split(self.radius)
        return {"c": {"m": str(cm), "e": ce}, "r": {"m": str(rm), "e": re}}

    @classmethod
    def from_json(cls, obj: dict) -> "BoundedValue":
        c, r = obj["c"], obj["r"]
        return cls(_join(int(c["m"]), int(c["e"])),
                   _join(int(r["m"]), int(r["e"])))


# ---------------------------------------------------------------------------
# Names (precision-indexed approximation streams)
# ---------------------------------------------------------------------------

class Name:
    """An approximation stream for a point of a represented metric space.

    ``query(k)`` must return an element of the dense set with distance at most
    2**-k from the represented point; results are memoized so a name is a pure
    deterministic function of (seed data, k).
    """

    def __init__(self, query: Callable[[int], object]):
        self._query = query
        self._cache: dict = {}

    def refine(self, k: int):
        if k < 0:
            raise ValueError("precision index must be nonnegative")
        if k not in self._cache:
            self._cache[k] = self._query(k)
        return self._cache[k]

    @staticmethod
    def constant(value) -> "Name":
        return Name(lambda k: value)


# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------

def _iroot(n: int, q: int) -> int:
    """floor(n^(1/q)) of an integer n >= 1, by Newton's method from above:
    each integer step stays at or above the floor (AM-GM) and falls
    strictly while it is above it."""
    x = 1 << -(-n.bit_length() // q)  # 2^ceil(bits/q) > n^(1/q)
    while (y := ((q - 1) * x + n // x ** (q - 1)) // q) < x:
        x = y
    return x


def _half_sum(x: Fraction, y: Fraction, P: int) -> Tuple[int, int]:
    """Integers lo <= 2^P S(x, y) <= hi, S(x, y) = sum_n c_n 2^-n/(x + n)
    with c_n = (1 - y)_n/n!, for x > 0 and 0 < y <= 1 (see `beta`)."""
    p, q = x.numerator, x.denominator
    a, b = y.numerator, y.denominator
    t_lo = t_hi = 1 << P  # 2^P c_n 2^-n, rounded down and up
    lo = hi = n = 0
    while True:
        tail = -(-2 * t_hi * q // (p + n * q))  # >= 2^P 2 c_n 2^-n/(x + n)
        if tail <= 1:
            return lo, hi + tail
        lo += t_lo * q // (p + n * q)
        hi += -(-t_hi * q // (p + n * q))
        n += 1
        # c_n 2^-n = c_{n-1} 2^-(n-1) (n - y)/(2n)
        t_lo = t_lo * (b * n - a) // (2 * b * n)
        t_hi = -(-t_hi * (b * n - a) // (2 * b * n))


def beta(x: Fraction, y: Fraction, k: int = 24) -> BoundedValue:
    """Enclose B(x, y) = int_0^1 t**(x-1) (1-t)**(y-1) dt with radius <= 2**-k.

    B(x + 1, y) = B(x, y) x/(x + y) and B(x, y + 1) = B(x, y) y/(x + y)
    (DLMF 5.12.1 with Gamma(z + 1) = z Gamma(z)) take both arguments into
    (0, 1] at the cost of an exact rational factor R.  Split the integral
    at 1/2 and expand (1 - t)**(y-1) = sum_n c_n t^n, c_n = (1 - y)_n/n!,
    on [0, 1/2], and t**(x-1) likewise on [1/2, 1] (DLMF 8.17.4, 8.17.7):

        B(x, y) = 2^-x S(x, y) + 2^-y S(y, x),
        S(x, y) = sum_{n>=0} c_n 2^-n/(x + n).

    For y in (0, 1] the c_n are nonnegative and do not increase (c_{n+1}
    = c_n (n + 1 - y)/(n + 1)), so the terms from n on sum to at most
    2 c_n 2^-n/(x + n); `_half_sum` stops once that is one unit.  Both
    sums run in integers scaled by 2^P, P = max(80, k + 30) + 8, with
    c_n 2^-n and each term rounded down for the lower sum and up for the
    upper, and 2^-x 2^P for x = p/q is the integer q-th root of
    2^(qP - p) (`_iroot`), rounded likewise, a qP-bit integer: the cost
    grows with the denominators, which are at most 20 in the certificate.
    The ends, times R, round outward at max(80, k + 30) bits.
    """
    x, y = Fraction(x), Fraction(y)
    if x <= 0 or y <= 0:
        raise ValueError("beta arguments must be positive")
    prec = max(80, k + 30)
    P = prec + 8
    a, b, R = x, y, Fraction(1)
    while a > 1:
        a -= 1
        R *= a / (a + b)
    while b > 1:
        b -= 1
        R *= b / (a + b)
    lo = hi = 0
    for u, v in ((a, b), (b, a)):
        p, q = u.numerator, u.denominator
        n = 1 << (q * P - p)
        e_lo = _iroot(n, q)
        s_lo, s_hi = _half_sum(u, v, P)
        lo += e_lo * s_lo
        hi += (e_lo + (e_lo ** q != n)) * s_hi
    out = BoundedValue.from_endpoints(R * Fraction(lo, 1 << 2 * P),
                                      R * Fraction(hi, 1 << 2 * P), prec)
    if out.radius > Fraction(1, 1 << k):
        raise RuntimeError("beta(%s, %s) did not meet radius 2^-%d"
                           % (x, y, k))
    return out


@lru_cache(maxsize=None)
def contour_angle(prec: int) -> Tuple[Tuple[Fraction, Fraction],
                                      Tuple[Fraction, Fraction]]:
    """Exact ends (lo, hi), each pair within 2^-prec, of cos(3 pi/5) =
    (1 - sqrt 5)/4 < 0 and sin(3 pi/5) = sqrt(10 + 2 sqrt 5)/4, the fixed
    contour angle's cosine and sine.  With r = isqrt(5 4^prec), sqrt 5
    lies in [r, r + 1] 2^-prec, and so 4 2^prec sin(3 pi/5) =
    sqrt((10 2^prec + 2 sqrt5 2^prec) 2^prec) lies between the integer
    roots of (10 2^prec + 2r) 2^prec and of that plus 2^(prec+1), the
    latter rounded up."""
    one = 1 << prec
    r = math.isqrt(5 << 2 * prec)
    cos = (Fraction(one - r - 1, 4 * one), Fraction(one - r, 4 * one))
    s_lo = math.isqrt((10 * one + 2 * r) << prec)
    s_hi = math.isqrt((10 * one + 2 * r + 2) << prec) + 1
    return cos, (Fraction(s_lo, 4 * one), Fraction(s_hi, 4 * one))


def _reduced(x: Fraction) -> Tuple[Fraction, int]:
    """(m, e) with x = m 2^e and m in [2/3, 4/3], for a positive x."""
    e = x.numerator.bit_length() - x.denominator.bit_length()
    m = x / Fraction(2) ** e  # in (1/2, 2)
    if m > Fraction(4, 3):
        m, e = m / 2, e + 1
    elif m < Fraction(2, 3):
        m, e = m * 2, e - 1
    return m, e


def _ln_bounds(m: Fraction, e: int, err: Fraction) \
        -> Tuple[Fraction, Fraction]:
    """lo <= ln x <= hi for x = m 2^e, m in [2/3, 4/3] (`_reduced`),
    hi - lo <= 2 err + 2 |e| 10^-60.  ln x = e ln 2 + 2 atanh s,
    s = (m - 1)/(m + 1) in [-1/5, 1/7], and 2 atanh s = 2 sum_{j odd}
    s^j/j (DLMF 4.6.1, 4.37.24); the terms after j sum to at most
    2 |s|^(j+2)/((j + 2)(1 - s^2)).  The partial sum is exact, and ln 2 is
    `_LN2` within `_LITERAL_ERR`."""
    s = (m - 1) / (m + 1)
    total, power, j = Fraction(0), s, 1  # power = s^j
    while True:
        total += power / j
        power *= s * s
        j += 2
        tail = 2 * abs(power) / (j * (1 - s * s))
        if tail <= err:
            break
    mid, rad = e * _LN2 + 2 * total, tail + abs(e) * _LITERAL_ERR
    return mid - rad, mid + rad


def bv_e1(x: _Number, prec: int) -> BoundedValue:
    """Exponential integral E_1(x) = int_x^inf e^-s/s ds of an exact positive
    dyadic x, with radius at most 1.75 2^-prec.

    E_1(x) = -gamma - ln x + sum_{j>=1} (-1)^(j+1) x^j/(j j!) with gamma
    Euler's constant (DLMF 6.6.2).  The partial sum is exact.  Once
    j + 1 > x the terms decrease in magnitude, so the alternating tail after
    term j is at most the next term; the sum stops when that is <= 2^-prec.
    gamma is `_EULER` within `_LITERAL_ERR` and ln x is `_ln_bounds`' to
    2^-(prec+2); the ends round outward to multiples of 2^-(prec+2).  So
    the radius is at most 1.5 2^-prec plus the literals' share
    (1 + |e|) 10^-60, e the binary exponent of x, and a ``prec`` at which
    that share passes 2^-(prec+2) raises ValueError: the limit is
    prec <= 197 for x in [2/3, 4/3], a bit lower for each doubling of x
    away from 1.
    """
    x = _dyadic(x)
    if x <= 0:
        raise ValueError("E_1 needs a positive argument")
    target = Fraction(1, 1 << prec)
    m, e = _reduced(x)
    if (1 + abs(e)) * _LITERAL_ERR > target / 4:
        raise ValueError("E_1(%s) cannot meet radius 2^-%d: the 60-digit "
                         "literals do not reach it" % (x, prec))
    partial, power, j = Fraction(0), Fraction(1), 0  # power = x^j / j!
    while True:
        j += 1
        power = power * x / j
        partial += power / j if j % 2 else -power / j
        tail = power * x / ((j + 1) * (j + 1))  # |term j + 1|
        if j + 1 > x and tail <= target:
            break
    ln_lo, ln_hi = _ln_bounds(m, e, target / 4)
    scale = 1 << (prec + 2)
    lo = math.floor((partial - tail - _EULER - _LITERAL_ERR - ln_hi) * scale)
    hi = math.ceil((partial + tail - _EULER + _LITERAL_ERR - ln_lo) * scale)
    return BoundedValue(Fraction(lo + hi, 2 * scale),
                        Fraction(hi - lo, 2 * scale))


def gamma_tail(l, t, k: int = 24) -> BoundedValue:
    """Upper enclosure of int_l^infty exp(t*r*cos(3pi/5)) / r dr.

    l and t are balls (`BoundedValue` or `FloatBall`), both strictly
    positive.  The integral is E_1(x) with x = t |cos(3pi/5)| l, and E_1
    decreases, so :func:`bv_e1` at a dyadic lower bound of x (from the
    lower ends of t, l and |cos(3pi/5)|) bounds it for every t and l in
    the balls; the result is [0, that bound].  It asks `bv_e1` for
    max(80, k + 30) bits, so a k past 167 raises ValueError (a smaller k
    too when x is far from 1).
    """
    l_lo, t_lo = Fraction(l.lower()), Fraction(t.lower())
    if l_lo <= 0 or t_lo <= 0:
        raise ValueError("gamma_tail requires l > 0 and t > 0")
    prec = max(80, k + 30)
    cos_hi = contour_angle(prec)[0][1]  # negative
    x = _round(t_lo * l_lo * -cos_hi, prec, -1)
    return BoundedValue.from_endpoints(Fraction(0), bv_e1(x, prec).upper(),
                                       prec)


# ---------------------------------------------------------------------------
# Constants table
# ---------------------------------------------------------------------------

def _is_ball_json(obj) -> bool:
    """Whether obj has the form `BoundedValue.to_json` writes, with a
    nonnegative radius and exponents |e| <= 2048, which cover every double
    (-1074 <= e <= 971) and keep `_join`'s shift small."""
    def dyadic(d):
        if not (isinstance(d, dict) and set(d) == {"m", "e"}
                and isinstance(d["m"], str) and type(d["e"]) is int
                and abs(d["e"]) <= 2048):
            return None
        try:
            return int(d["m"])
        except ValueError:
            return None
    if not (isinstance(obj, dict) and set(obj) == {"c", "r"}):
        return False
    c, r = dyadic(obj["c"]), dyadic(obj["r"])
    return c is not None and r is not None and r >= 0


class ConstantsTable:
    """The analytic constants consumed by the solver layers.

    Only the assumed bilinear constant M is configuration (default 1), and
    it must be positive as a double ball; ``provenance`` records whether
    it was configured or defaulted.  B1 and Ctilde = M B1 are recomputed, not stored.  The
    sup-norm embedding constant C_s depends on no configuration, so it is
    not here but `spectral.sup_constant`.

    Every smoothing constant is 1, so no formula carries one.  Mode by mode
    with x = t lambda >= 0:
      * ||A^alpha e^{-tA} a|| <= t^-alpha ||a|| for 0 <= alpha <= e, since
        sup_x x^alpha e^{-x} = (alpha/e)^alpha <= 1;
      * ||e^{-tA} a - a|| <= t^{1/2} ||A^{1/2} a||, since
        |e^{-x} - 1| <= min(1, x) <= sqrt(x).
    """

    def __init__(self, M=None):
        from .floatball import FloatBall  # floatball imports this module
        self.M = M if M is not None else BoundedValue.exact(1)
        m = FloatBall.from_bounded(self.M)  # the ball every consumer reads
        if m.lower() <= 0:
            raise ValueError("the bilinear constant M must be positive as a "
                             "double ball, not %r" % m)
        self.provenance = {"M": "configured" if M is not None else "default"}
        self._beta_cache: dict = {}

    def beta_value(self, x: Fraction, y: Fraction, k: int = 24) -> BoundedValue:
        key = ("beta", Fraction(x), Fraction(y), k)
        if key not in self._beta_cache:
            self._beta_cache[key] = beta(x, y, k)
        return self._beta_cache[key]

    @property
    def B1(self) -> BoundedValue:
        """The paper's max{B(1/2,1/4), B(1/4,1/4), 1}, which is
        B(1/4,1/4).  Gamma(1/4) Gamma(3/4) = pi/sin(pi/4) = pi sqrt2 and
        Gamma(1/2)^2 = pi, so B(1/4,1/4)/B(1/2,1/4) =
        Gamma(1/4) Gamma(3/4)/Gamma(1/2)^2 = sqrt2 > 1; and
        B(1/4,1/4) = Gamma(1/4)^2/sqrt(pi) = 7.416... > 1."""
        return self.beta_value(Fraction(1, 4), Fraction(1, 4))

    @property
    def Ctilde(self):
        """Ctilde = M B1 as a `floatball.FloatBall` product."""
        from .floatball import FloatBall  # floatball imports this module
        return FloatBall.from_bounded(self.M) * FloatBall.from_bounded(self.B1)

    _default = None

    @classmethod
    def default(cls) -> "ConstantsTable":
        if cls._default is None:
            cls._default = cls()
        return cls._default

    def to_json(self) -> dict:
        return {"M": self.M.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "ConstantsTable":
        """The table with the M of ``obj``; a body that is not an object, or
        any other key, raises ValueError, since the derived constants are
        not configuration."""
        if not isinstance(obj, dict):
            raise ValueError("a constants table is a JSON object, not %s"
                             % type(obj).__name__)
        extra = sorted(set(obj) - {"M"})
        if extra:
            raise ValueError("a constants table sets only M, not %s"
                             % ", ".join(extra))
        if "M" in obj and not _is_ball_json(obj["M"]):
            raise ValueError('M must be a ball {"c": {"m": str, "e": int}, '
                             '"r": {"m": str, "e": int}} of integer strings '
                             'm, |e| <= 2048 and a nonnegative radius')
        return cls(**{k: BoundedValue.from_json(v) for k, v in obj.items()})
