"""Exact and directed-rounded arithmetic, approximation streams, closed-form
special functions, and the shared table of analytic constants.

One exact carrier serves both tiers: ``Fraction`` (stdlib).  The
polynomial algebra uses it as is; ``BoundedValue``, the outward-rounded ball
tier, stores center +/- radius as two dyadic ``Fraction``s (denominator a
power of two) and rounds every operation outward so the true result stays
enclosed.  ``+``, ``-``, ``*`` and ``widened`` round at ``DEFAULT_PREC`` =
120 bits whatever precision the caller asks for.  The canonical form
m * 2**e (m odd, or m = e = 0) appears only in the JSON schema and the
rounding helpers.

Every transcendental value here comes from rational data through exact
integer or ``Fraction`` series with stated tail bounds: Beta from its
incomplete-Beta series at 1/2 in fixed-point integers, E_1 and ln from
their power series, square roots (and so the contour angle's cosine and
sine) from ``math.isqrt``.  pi, ln 2 and Euler's constant are 60-digit
literals (`_PI`, `_LN2`, `_EULER`), each within `_LITERAL_ERR` = 10^-60,
which every ball built on them carries.  No integral here is taken by
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
    "bv_sqrt",
]

DEFAULT_PREC = 120

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
    """Center-radius enclosure of a real number; both parts are dyadic
    ``Fraction``s (denominator a power of two), checked on construction.

    The true value is guaranteed to lie in [center - radius, center + radius].
    ``+``, ``-``, ``*``, ``/``, :meth:`widened` and :meth:`hull` round at
    ``DEFAULT_PREC`` = 120 bits whatever precision the caller works at: the
    mantissas shrink to 120 bits and the radius grows outward.
    :meth:`rounded`, :meth:`scale` and the functions of this module round
    outward at the ``prec`` they are given.
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

    @staticmethod
    def exact(x: _Number) -> "BoundedValue":
        return BoundedValue(x)

    @staticmethod
    def from_fraction(f: Fraction, prec: int = DEFAULT_PREC) -> "BoundedValue":
        q = f.denominator
        if q & (q - 1) == 0:
            return BoundedValue(f)
        return BoundedValue.from_endpoints(f, f, prec)

    @staticmethod
    def from_endpoints(lo: Fraction, hi: Fraction,
                       prec: int = DEFAULT_PREC) -> "BoundedValue":
        """Enclose the interval [lo, hi] (given as Fractions) outward."""
        if lo > hi:
            raise ValueError("empty interval")
        c = _round(Fraction(lo + hi, 2), prec, -1)
        r = max(hi - c, c - lo)
        return BoundedValue(c, _round(r, prec, +1))

    # -- views --------------------------------------------------------------

    def lower(self) -> Fraction:
        return self.center - self.radius

    def upper(self) -> Fraction:
        return self.center + self.radius

    def contains(self, x: Fraction) -> bool:
        return self.lower() <= x <= self.upper()

    def overlaps(self, other: "BoundedValue") -> bool:
        return self.lower() <= other.upper() and other.lower() <= self.upper()

    def mag(self) -> Fraction:
        """Upper bound on |value|."""
        return abs(self.center) + self.radius

    def mignitude(self) -> Fraction:
        """Lower bound on |value| (zero if the interval straddles 0)."""
        return max(abs(self.center) - self.radius, Fraction(0))

    def __float__(self):
        return float(self.center)

    def __repr__(self):
        return "BoundedValue(%s +/- %s)" % (float(self.center), float(self.radius))

    # -- rounding -----------------------------------------------------------

    def rounded(self, prec: int = DEFAULT_PREC) -> "BoundedValue":
        """The ball with center and radius mantissas of at most ``prec``
        bits: the center rounds toward -inf, and the radius absorbs that
        error and rounds up."""
        c, r = self.center, self.radius
        if c.numerator.bit_length() <= prec and r.numerator.bit_length() <= prec:
            return self
        cm, ce = _split(c)
        s = abs(cm).bit_length() - prec
        if s > 0:
            c = _join(cm >> s, ce + s)  # floor toward -inf
            r += _join(1, ce + s)       # rounding error < 2**(ce+s)
        rm, re = _split(r)
        s = rm.bit_length() - prec
        if s > 0:
            r = _join(-((-rm) >> s), re + s)  # ceil
        return BoundedValue(c, r)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "BoundedValue") -> "BoundedValue":
        return BoundedValue(self.center + other.center,
                            self.radius + other.radius).rounded()

    def __neg__(self) -> "BoundedValue":
        return BoundedValue(-self.center, self.radius)

    def __sub__(self, other: "BoundedValue") -> "BoundedValue":
        return self + (-other)

    def __mul__(self, other: "BoundedValue") -> "BoundedValue":
        c = self.center * other.center
        r = (abs(self.center) * other.radius
             + abs(other.center) * self.radius
             + self.radius * other.radius)
        return BoundedValue(c, r).rounded()

    def scale(self, f: Union[int, Fraction], prec: int = DEFAULT_PREC) -> "BoundedValue":
        """Multiply by an exact rational scalar."""
        f = Fraction(f)
        q = f.denominator
        if q & (q - 1) == 0:  # dyadic scalar: exact fast path
            return BoundedValue(self.center * f, self.radius * abs(f)).rounded(prec)
        lo = self.lower() * f
        hi = self.upper() * f
        if lo > hi:
            lo, hi = hi, lo
        return BoundedValue.from_endpoints(lo, hi, prec)

    def __truediv__(self, other: "BoundedValue") -> "BoundedValue":
        if other.mignitude() == 0:
            raise ZeroDivisionError("divisor interval contains zero")
        a, b = self.lower(), self.upper()
        c, d = other.lower(), other.upper()
        qs = (a / c, a / d, b / c, b / d)
        return BoundedValue.from_endpoints(min(qs), max(qs))

    def widened(self, extra: "BoundedValue") -> "BoundedValue":
        """Grow the radius by an upper bound of ``extra`` (which must be >= 0)."""
        return BoundedValue(self.center, self.radius + extra.mag()).rounded()

    def hull(self, other: "BoundedValue") -> "BoundedValue":
        return BoundedValue.from_endpoints(min(self.lower(), other.lower()),
                                           max(self.upper(), other.upper()))

    # -- serialization (each part {"m": str, "e": int}, canonical) ------------

    def to_json(self) -> dict:
        (cm, ce), (rm, re) = _split(self.center), _split(self.radius)
        return {"c": {"m": str(cm), "e": ce}, "r": {"m": str(rm), "e": re}}

    @staticmethod
    def from_json(obj: dict) -> "BoundedValue":
        c, r = obj["c"], obj["r"]
        return BoundedValue(_join(int(c["m"]), int(c["e"])),
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

def bv_sqrt(x: BoundedValue, prec: int = DEFAULT_PREC) -> BoundedValue:
    """Directed-rounded square root of a nonnegative enclosure."""
    lo, hi = x.lower(), x.upper()
    if hi < 0:
        raise ValueError("sqrt of negative interval")
    lo = max(lo, Fraction(0))

    def root(f: Fraction, up: int) -> Fraction:
        # sqrt(f) rounded down (up = 0) or up (up = 1) to a multiple of
        # 1/(den 2^prec); exactly 0 at 0
        if f == 0:
            return Fraction(0)
        s = math.isqrt((f.numerator * f.denominator) << (2 * prec))
        return Fraction(s + up, f.denominator << prec)

    return BoundedValue.from_endpoints(root(lo, 0), root(hi, 1), prec)


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
def contour_angle(prec: int) -> Tuple[BoundedValue, BoundedValue]:
    """Enclosures of cos(3 pi/5) = (1 - sqrt 5)/4 < 0 and sin(3 pi/5) =
    sqrt(10 + 2 sqrt 5)/4, the fixed contour angle's cosine and sine, from
    `bv_sqrt`'s integer roots."""
    r5 = bv_sqrt(BoundedValue.exact(5), prec)
    cos = BoundedValue((1 - r5.center) / 4, r5.radius / 4)
    sin = bv_sqrt(BoundedValue(10 + 2 * r5.center, 2 * r5.radius), prec)
    return cos, sin.scale(Fraction(1, 4), prec)


def _ln_bounds(x: Fraction, err: Fraction) -> Tuple[Fraction, Fraction]:
    """lo <= ln x <= hi for a positive dyadic x, hi - lo <= 2 err + 2 |e|
    10^-60.  With x = m 2^e, m in [2/3, 4/3], ln x = e ln 2 + 2 atanh s,
    s = (m - 1)/(m + 1) in [-1/5, 1/7], and 2 atanh s = 2 sum_{j odd}
    s^j/j (DLMF 4.6.1, 4.37.24); the terms after j sum to at most
    2 |s|^(j+2)/((j + 2)(1 - s^2)).  The partial sum is exact, and ln 2 is
    `_LN2` within `_LITERAL_ERR`."""
    e = x.numerator.bit_length() - x.denominator.bit_length()
    m = x / Fraction(2) ** e  # in (1/2, 2)
    if m > Fraction(4, 3):
        m, e = m / 2, e + 1
    elif m < Fraction(2, 3):
        m, e = m * 2, e - 1
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


def bv_e1(x: _Number, prec: int = DEFAULT_PREC) -> BoundedValue:
    """Exponential integral E_1(x) = int_x^inf e^-s/s ds of an exact positive
    dyadic x.

    E_1(x) = -gamma - ln x + sum_{j>=1} (-1)^(j+1) x^j/(j j!) with gamma
    Euler's constant (DLMF 6.6.2).  The partial sum is exact.  Once
    j + 1 > x the terms decrease in magnitude, so the alternating tail after
    term j is at most the next term; the sum stops when that is <= 2^-prec.
    gamma is `_EULER` within `_LITERAL_ERR` and ln x is `_ln_bounds`' to
    2^-(prec+2); the ends round outward to multiples of 2^-(prec+2).  The
    sum cancels to O(1 + ln x), so the absolute error stays a few units of
    2^-prec while 2^-prec is well above the literals' 10^-60 (prec up to
    about 190).
    """
    x = _dyadic(x)
    if x <= 0:
        raise ValueError("E_1 needs a positive argument")
    target = Fraction(1, 1 << prec)
    partial, power, j = Fraction(0), Fraction(1), 0  # power = x^j / j!
    while True:
        j += 1
        power = power * x / j
        partial += power / j if j % 2 else -power / j
        tail = power * x / ((j + 1) * (j + 1))  # |term j + 1|
        if j + 1 > x and tail <= target:
            break
    ln_lo, ln_hi = _ln_bounds(x, target / 4)
    scale = 1 << (prec + 2)
    lo = math.floor((partial - tail - _EULER - _LITERAL_ERR - ln_hi) * scale)
    hi = math.ceil((partial + tail - _EULER + _LITERAL_ERR - ln_lo) * scale)
    return BoundedValue(Fraction(lo + hi, 2 * scale),
                        Fraction(hi - lo, 2 * scale))


def gamma_tail(l: BoundedValue, t: BoundedValue, k: int = 24) -> BoundedValue:
    """Upper enclosure of int_l^infty exp(t*r*cos(3pi/5)) / r dr.

    Both l and t must be strictly positive.  The integral is E_1(x) with
    x = t |cos(3pi/5)| l, and E_1 decreases, so :func:`bv_e1` at a dyadic
    lower bound of x (from the lower ends of t, l and |cos(3pi/5)|) bounds it
    for every t and l in the balls; the result is [0, that bound].
    """
    if l.lower() <= 0 or t.lower() <= 0:
        raise ValueError("gamma_tail requires l > 0 and t > 0")
    prec = max(80, k + 30)
    c = contour_angle(prec)[0]  # negative
    x = _round(t.lower() * l.lower() * -c.upper(), prec, -1)
    return BoundedValue.from_endpoints(Fraction(0), bv_e1(x, prec).upper(),
                                       prec)


# ---------------------------------------------------------------------------
# Constants table
# ---------------------------------------------------------------------------

def _is_ball_json(obj) -> bool:
    """Whether obj has the form `BoundedValue.to_json` writes, with a
    nonnegative radius."""
    def dyadic(d):
        if not (isinstance(d, dict) and set(d) == {"m", "e"}
                and isinstance(d["m"], str) and type(d["e"]) is int):
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
    it must be positive; ``provenance`` records whether it was configured
    or defaulted.  B1 and Ctilde = M B1 are recomputed, not stored.  The
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
        self.M = M if M is not None else BoundedValue.exact(1)
        if self.M.lower() <= 0:
            raise ValueError("the bilinear constant M must be positive, "
                             "not [%s, %s]" % (float(self.M.lower()),
                                               float(self.M.upper())))
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
    def Ctilde(self) -> BoundedValue:
        return self.M * self.B1

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
                             'm and a nonnegative radius')
        return cls(**{k: BoundedValue.from_json(v) for k, v in obj.items()})
