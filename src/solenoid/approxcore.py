"""Exact and directed-rounded arithmetic, approximation streams, closed-form
special functions, and the shared table of analytic constants.

Two numeric carriers live here:

* ``Fraction`` (stdlib) is the exact rational tier used by the polynomial
  algebra.
* ``Dyadic`` / ``BoundedValue`` form the outward-rounded ball tier: a value is
  stored as center +/- radius with both parts dyadic (mantissa * 2**exponent),
  and every operation rounds outward so the true result stays enclosed.

Transcendental enclosures (exp, log, sin, cos, Gamma, pi, Euler's gamma)
are delegated to ``mpmath.iv`` interval arithmetic, with exact conversions
in both directions.  Beta and the exponential integral E_1 are closed forms
on them; no integral here is taken by quadrature.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Union

from mpmath import iv
from mpmath.libmp import finf, fninf, to_rational

__all__ = [
    "Dyadic",
    "BoundedValue",
    "Name",
    "refine",
    "ConstantsTable",
    "beta",
    "gamma_tail",
    "bv_e1",
    "bv_exp",
    "bv_log",
    "bv_sin",
    "bv_cos",
    "bv_pi",
    "bv_euler",
    "bv_gamma",
    "bv_pow",
    "bv_sqrt",
]

DEFAULT_PREC = 120

_Number = Union[int, Fraction, "Dyadic"]


class Dyadic:
    """A dyadic rational mantissa * 2**exponent in canonical form.

    Canonical means the mantissa is odd or zero (zero has exponent 0), so
    equality of values is equality of representations.
    """

    __slots__ = ("m", "e")

    def __init__(self, m: int, e: int = 0):
        m = int(m)
        if m == 0:
            e = 0
        else:
            shift = (m & -m).bit_length() - 1
            m >>= shift
            e += shift
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "e", int(e))

    def __setattr__(self, *a):
        raise AttributeError("Dyadic is immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_fraction(f: Fraction) -> "Dyadic":
        """Exact conversion; raises if the denominator is not a power of two."""
        q = f.denominator
        if q & (q - 1):
            raise ValueError("fraction %s is not dyadic" % f)
        return Dyadic(f.numerator, -(q.bit_length() - 1))

    @staticmethod
    def rounded(f: Fraction, prec: int, direction: int) -> "Dyadic":
        """Round a Fraction to a dyadic with about ``prec`` significant bits.

        ``direction`` < 0 rounds toward -inf, > 0 toward +inf.
        """
        p, q = f.numerator, f.denominator
        if p == 0:
            return Dyadic(0)
        mag = p.bit_length() - q.bit_length()  # floor(log2 |f|) within 1
        e = mag - prec
        # m = f * 2**-e, rounded in the requested direction
        if e >= 0:
            num, den = p, q << e
        else:
            num, den = p << (-e), q
        if direction < 0:
            m = num // den
        else:
            m = -((-num) // den)
        return Dyadic(m, e)

    # -- conversions -------------------------------------------------------

    def to_fraction(self) -> Fraction:
        if self.e >= 0:
            return Fraction(self.m << self.e)
        return Fraction(self.m, 1 << (-self.e))

    def __float__(self) -> float:
        f = self.to_fraction()
        return f.numerator / f.denominator

    # -- arithmetic (always exact) ----------------------------------------

    def __add__(self, other: "Dyadic") -> "Dyadic":
        e = min(self.e, other.e)
        return Dyadic((self.m << (self.e - e)) + (other.m << (other.e - e)), e)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.m, self.e)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        return self + (-other)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic(self.m * other.m, self.e + other.e)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.m), self.e)

    def _cmp(self, other: "Dyadic") -> int:
        d = self - other
        return (d.m > 0) - (d.m < 0)

    def __lt__(self, o):
        return self._cmp(o) < 0

    def __le__(self, o):
        return self._cmp(o) <= 0

    def __gt__(self, o):
        return self._cmp(o) > 0

    def __ge__(self, o):
        return self._cmp(o) >= 0

    def __eq__(self, o):
        return isinstance(o, Dyadic) and self.m == o.m and self.e == o.e

    def __hash__(self):
        return hash((self.m, self.e))

    def __repr__(self):
        return "Dyadic(%d, %d)" % (self.m, self.e)

    @property
    def sign(self) -> int:
        return (self.m > 0) - (self.m < 0)

    def bit_length(self) -> int:
        return abs(self.m).bit_length()

    # -- serialization (schema: {"m": str, "e": int}) ----------------------

    def to_json(self) -> dict:
        return {"m": str(self.m), "e": self.e}

    @staticmethod
    def from_json(obj: dict) -> "Dyadic":
        return Dyadic(int(obj["m"]), int(obj["e"]))


_D0 = Dyadic(0)
_D1 = Dyadic(1)


def _as_dyadic(x: _Number) -> Dyadic:
    if isinstance(x, Dyadic):
        return x
    if isinstance(x, int):
        return Dyadic(x)
    if isinstance(x, Fraction):
        return Dyadic.from_fraction(x)
    raise TypeError("cannot convert %r to Dyadic" % (x,))


class BoundedValue:
    """Center-radius enclosure of a real number with dyadic parts.

    The true value is guaranteed to lie in [center - radius, center + radius].
    Addition, subtraction and multiplication of dyadics are exact; the only
    rounding happens in :meth:`rounded`, which shrinks the mantissas and grows
    the radius outward, and in division / transcendental functions.
    """

    __slots__ = ("center", "radius")

    def __init__(self, center: Dyadic, radius: Dyadic = _D0):
        if radius.sign < 0:
            raise ValueError("negative radius")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)

    def __setattr__(self, *a):
        raise AttributeError("BoundedValue is immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def exact(x: _Number) -> "BoundedValue":
        return BoundedValue(_as_dyadic(x))

    @staticmethod
    def from_fraction(f: Fraction, prec: int = DEFAULT_PREC) -> "BoundedValue":
        q = f.denominator
        if q & (q - 1) == 0:
            return BoundedValue(Dyadic.from_fraction(f))
        return BoundedValue.from_endpoints(f, f, prec)

    @staticmethod
    def from_endpoints(lo: Fraction, hi: Fraction,
                       prec: int = DEFAULT_PREC) -> "BoundedValue":
        """Enclose the interval [lo, hi] (given as Fractions) outward."""
        if lo > hi:
            raise ValueError("empty interval")
        c = Dyadic.rounded(Fraction(lo + hi, 2), prec, -1)
        cf = c.to_fraction()
        r = Fraction(max(hi - cf, cf - lo))
        return BoundedValue(c, Dyadic.rounded(r, prec, +1) if r else _D0)

    # -- views --------------------------------------------------------------

    def lower(self) -> Fraction:
        return (self.center - self.radius).to_fraction()

    def upper(self) -> Fraction:
        return (self.center + self.radius).to_fraction()

    def contains(self, x: Fraction) -> bool:
        return self.lower() <= x <= self.upper()

    def overlaps(self, other: "BoundedValue") -> bool:
        return self.lower() <= other.upper() and other.lower() <= self.upper()

    def mag(self) -> Dyadic:
        """Upper bound on |value|."""
        return abs(self.center) + self.radius

    def mignitude(self) -> Dyadic:
        """Lower bound on |value| (zero if the interval straddles 0)."""
        m = abs(self.center) - self.radius
        return m if m.sign > 0 else _D0

    def __float__(self):
        return float(self.center)

    def __repr__(self):
        return "BoundedValue(%s +/- %s)" % (float(self.center), float(self.radius))

    # -- rounding -----------------------------------------------------------

    def rounded(self, prec: int = DEFAULT_PREC) -> "BoundedValue":
        c, r = self.center, self.radius
        cb, rb = c.bit_length(), r.bit_length()
        if cb <= prec and rb <= prec:
            return self
        if cb > prec:
            s = cb - prec
            new_c = Dyadic(c.m >> s, c.e + s)  # floor toward -inf
            r = r + Dyadic(1, c.e + s)         # rounding error < 2**(c.e+s)
            c = new_c
        if r.bit_length() > prec:
            s = r.bit_length() - prec
            r = Dyadic(-((-r.m) >> s), r.e + s)  # ceil
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
            d = Dyadic(f.numerator, -(q.bit_length() - 1))
            return BoundedValue(self.center * d, self.radius * abs(d)).rounded(prec)
        lo = self.lower() * f
        hi = self.upper() * f
        if lo > hi:
            lo, hi = hi, lo
        return BoundedValue.from_endpoints(lo, hi, prec)

    def __truediv__(self, other: "BoundedValue") -> "BoundedValue":
        if other.mignitude().sign == 0:
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

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"c": self.center.to_json(), "r": self.radius.to_json()}

    @staticmethod
    def from_json(obj: dict) -> "BoundedValue":
        return BoundedValue(Dyadic.from_json(obj["c"]), Dyadic.from_json(obj["r"]))


# ---------------------------------------------------------------------------
# mpmath.iv bridge for transcendental enclosures
# ---------------------------------------------------------------------------

def _iv_from_dyadic(d: Dyadic):
    # iv.mpf(int) rounds outward to the working precision; ldexp is exact.
    return iv.ldexp(iv.mpf(d.m), d.e)


def _iv_from_bv(x: BoundedValue):
    lo = _iv_from_dyadic(x.center - x.radius)
    hi = _iv_from_dyadic(x.center + x.radius)
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


def _iv_call(fun, x: BoundedValue, prec: int) -> BoundedValue:
    old = iv.prec
    try:
        iv.prec = prec + 10
        return _bv_from_iv(fun(_iv_from_bv(x)), prec)
    finally:
        iv.prec = old


def bv_exp(x: BoundedValue, prec: int = DEFAULT_PREC) -> BoundedValue:
    return _iv_call(iv.exp, x, prec)


def bv_log(x: BoundedValue, prec: int = DEFAULT_PREC) -> BoundedValue:
    if x.lower() <= 0:
        raise ValueError("log of interval touching zero")
    return _iv_call(iv.log, x, prec)


def bv_sin(x: BoundedValue, prec: int = DEFAULT_PREC) -> BoundedValue:
    return _iv_call(iv.sin, x, prec)


def bv_cos(x: BoundedValue, prec: int = DEFAULT_PREC) -> BoundedValue:
    return _iv_call(iv.cos, x, prec)


def bv_gamma(x: BoundedValue, prec: int = DEFAULT_PREC) -> BoundedValue:
    """Gamma function of a positive enclosure."""
    if x.lower() <= 0:
        raise ValueError("gamma needs a positive interval")
    return _iv_call(iv.gamma, x, prec)


def _iv_constant(const, prec: int) -> BoundedValue:
    # an mpmath constant is evaluated at the precision current when read
    old = iv.prec
    try:
        iv.prec = prec + 10
        return _bv_from_iv(const, prec)
    finally:
        iv.prec = old


def bv_pi(prec: int = DEFAULT_PREC) -> BoundedValue:
    return _iv_constant(iv.pi, prec)


def bv_euler(prec: int = DEFAULT_PREC) -> BoundedValue:
    """Euler's constant gamma = 0.5772..."""
    return _iv_constant(iv.euler, prec)


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
# Names (precision-indexed approximation streams)
# ---------------------------------------------------------------------------

class Name:
    """An approximation stream for a point of a represented metric space.

    ``query(k)`` must return an element of the dense set with distance at most
    2**-k from the represented point; results are memoized so a name is a pure
    deterministic function of (seed data, k).
    """

    def __init__(self, query: Callable[[int], object], label: str = ""):
        self._query = query
        self._cache: dict = {}
        self.label = label

    def refine(self, k: int):
        if k < 0:
            raise ValueError("precision index must be nonnegative")
        if k not in self._cache:
            self._cache[k] = self._query(k)
        return self._cache[k]

    @staticmethod
    def constant(value, label: str = "") -> "Name":
        return Name(lambda k: value, label)


def refine(name: Name, k: int):
    """Query a name at precision k: distance to the limit is at most 2**-k."""
    return name.refine(k)


# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------

def beta(x: Fraction, y: Fraction, k: int = 24) -> BoundedValue:
    """Enclose B(x, y) = int_0^1 (1-t)**(x-1) t**(y-1) dt with radius <= 2**-k.

    Closed form B = Gamma(x) Gamma(y) / Gamma(x+y) (DLMF 5.12.1) in
    outward interval arithmetic.
    """
    x, y = Fraction(x), Fraction(y)
    if x <= 0 or y <= 0:
        raise ValueError("beta arguments must be positive")
    prec = max(80, k + 30)

    def gamma(v: Fraction) -> BoundedValue:
        return bv_gamma(BoundedValue.from_fraction(v, prec), prec)

    out = (gamma(x) * gamma(y) / gamma(x + y)).rounded(prec)
    if out.radius.to_fraction() > Fraction(1, 1 << k):
        raise RuntimeError("beta(%s, %s) did not meet radius 2^-%d"
                           % (x, y, k))
    return out


_COS_BETA_CACHE: dict = {}


def cos_contour_angle(prec: int = DEFAULT_PREC) -> BoundedValue:
    """Enclosure of cos(3*pi/5), the fixed contour angle cosine (negative)."""
    if prec not in _COS_BETA_CACHE:
        _COS_BETA_CACHE[prec] = bv_cos(bv_pi(prec).scale(Fraction(3, 5)), prec)
    return _COS_BETA_CACHE[prec]


def bv_e1(x: _Number, prec: int = DEFAULT_PREC) -> BoundedValue:
    """Exponential integral E_1(x) = int_x^inf e^-s/s ds of an exact positive
    dyadic x.

    E_1(x) = -gamma - ln x + sum_{j>=1} (-1)^(j+1) x^j/(j j!) with gamma
    Euler's constant (DLMF 6.6.2).  The partial sum is exact.  Once
    j + 1 > x the terms decrease in magnitude, so the alternating tail after
    term j is at most the next term; the sum stops when that is <= 2^-prec.
    The sum cancels to O(1 + ln x), so the absolute error stays a few units
    of 2^-prec.
    """
    x = _as_dyadic(x).to_fraction()
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
    series = BoundedValue.from_endpoints(partial - tail, partial + tail, prec)
    g, lg = bv_euler(prec), bv_log(BoundedValue.exact(x), prec)
    # dyadic balls subtract exactly
    return BoundedValue(series.center - g.center - lg.center,
                        series.radius + g.radius + lg.radius)


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
    c = cos_contour_angle(prec)  # negative
    x = Dyadic.rounded(t.lower() * l.lower() * -c.upper(), prec, -1)
    return BoundedValue.from_endpoints(Fraction(0), bv_e1(x, prec).upper(),
                                       prec)


# ---------------------------------------------------------------------------
# Constants table
# ---------------------------------------------------------------------------

class ConstantsTable:
    """The analytic constants consumed by the solver layers.

    Entries are configuration with documented defaults; ``provenance`` records
    for each field whether it was configured or derived in-package.  Required
    relations (c1 and B1 as maxima, Ctilde = c1*M*B1) are recomputed, not
    stored independently.
    """

    def __init__(self, C=None, C_alpha=None, C_s=None, M=None,
                 C_half_time=None, prec: int = DEFAULT_PREC):
        one = BoundedValue.exact(1)
        self.prec = prec
        self.C = C if C is not None else one
        self._C_alpha = dict(C_alpha or {})
        self._C_s = dict(C_s or {})
        self.M = M if M is not None else one
        # C_half_time is the constant in ||e^{-tA}a - a|| <= C t^{1/2}
        # ||A^{1/2} a||.  The default 1 is derived: mode by mode with
        # x = t lambda >= 0, |e^{-x} - 1| <= min(1, x) <= sqrt(x).
        self.C_half_time = C_half_time if C_half_time is not None else one
        self.provenance = {
            "C": "configured" if C is not None else "default",
            "C_alpha": "configured" if C_alpha else "derived",
            "C_s": "configured" if C_s else "default/derived",
            "M": "configured" if M is not None else "default",
            "C_half_time": "configured" if C_half_time is not None
            else "derived",
        }
        self._beta_cache: dict = {}

    def C_alpha(self, alpha: Fraction) -> BoundedValue:
        """The constant in ||A^alpha e^{-tA} a|| <= C_alpha t^-alpha ||a||.
        The default 1 is derived: mode by mode with x = t lambda,
        sup_x x^alpha e^{-x} = (alpha/e)^alpha <= 1 for 0 < alpha <= e."""
        alpha = Fraction(alpha)
        if alpha == 0:
            return BoundedValue.exact(1)
        return self._C_alpha.get(alpha, BoundedValue.exact(1))

    def C_s(self, s: Fraction) -> BoundedValue:
        """Sup-norm embedding constant for exponent s > 1.

        Default is the honest bound (sum over n,m >= 0 of (1+n^2+m^2)^-s)^(1/2)
        by certified partial sum plus integral tail.
        """
        s = Fraction(s)
        if s in self._C_s:
            return self._C_s[s]
        if s <= 1:
            raise ValueError("sup-norm embedding needs s > 1")
        key = ("C_s", s)
        if key in self._beta_cache:
            return self._beta_cache[key]
        prec = self.prec
        N = 24
        total = BoundedValue.exact(0)
        for n in range(N + 1):
            for m in range(N + 1):
                term = bv_pow(BoundedValue.exact(1 + n * n + m * m), -s, prec)
                total = total + term
        # tail over max(n,m) > N: bounded by 2 * sum_{n>N} sum_{m>=0} (n^2+m^2)^-s
        # <= 2 * sum_{n>N} [ n^-2s + (pi/2) n^(1-2s) ] <= 2*integral bound
        # sum_{n>N} n^(1-2s) <= N^(2-2s)/(2s-2); sum_{n>N} n^-2s <= N^(1-2s)/(2s-1)
        Nf = BoundedValue.exact(N)
        t1 = bv_pow(Nf, 1 - 2 * s, prec).scale(Fraction(1, 1) / (2 * s - 1))
        t2 = bv_pow(Nf, 2 - 2 * s, prec) * bv_pi(prec).scale(Fraction(1, 2)).scale(
            Fraction(1, 1) / (2 * s - 2))
        tail = (t1 + t2).scale(2)
        enclosed = total.widened(tail)
        out = bv_sqrt(BoundedValue.from_endpoints(enclosed.lower(),
                                                  enclosed.upper(), prec), prec)
        self._beta_cache[key] = out
        return out

    def beta_value(self, x: Fraction, y: Fraction, k: int = 24) -> BoundedValue:
        key = ("beta", Fraction(x), Fraction(y), k)
        if key not in self._beta_cache:
            self._beta_cache[key] = beta(x, y, k)
        return self._beta_cache[key]

    @property
    def c1(self) -> BoundedValue:
        """max{C_{1/4}, C_{1/2}, C_{3/4}, 1}."""
        out = BoundedValue.exact(1)
        for a in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            ca = self.C_alpha(a)
            if ca.upper() > out.upper():
                out = out.hull(ca)
        lo = max(Fraction(1), out.lower())
        return BoundedValue.from_endpoints(lo, max(lo, out.upper()), self.prec)

    @property
    def B1(self) -> BoundedValue:
        """max{B(1/2,1/4), B(1/4,1/4), 1}."""
        b1 = self.beta_value(Fraction(1, 2), Fraction(1, 4))
        b2 = self.beta_value(Fraction(1, 4), Fraction(1, 4))
        hi = max(Fraction(1), b1.upper(), b2.upper())
        lo = max(Fraction(1), b1.lower(), b2.lower())
        return BoundedValue.from_endpoints(lo, hi, self.prec)

    @property
    def Ctilde(self) -> BoundedValue:
        return self.c1 * self.M * self.B1

    _default = None

    @classmethod
    def default(cls) -> "ConstantsTable":
        if cls._default is None:
            cls._default = cls()
        return cls._default

    def to_json(self) -> dict:
        return {
            "C": self.C.to_json(),
            "M": self.M.to_json(),
            "C_half_time": self.C_half_time.to_json(),
            "C_alpha": {str(k): v.to_json() for k, v in self._C_alpha.items()},
            "C_s": {str(k): v.to_json() for k, v in self._C_s.items()},
            "provenance": self.provenance,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ConstantsTable":
        def _bv(o):
            return BoundedValue.from_json(o)
        return cls(
            C=_bv(obj["C"]) if "C" in obj else None,
            M=_bv(obj["M"]) if "M" in obj else None,
            C_half_time=_bv(obj["C_half_time"]) if "C_half_time" in obj else None,
            C_alpha={Fraction(k): _bv(v) for k, v in obj.get("C_alpha", {}).items()},
            C_s={Fraction(k): _bv(v) for k, v in obj.get("C_s", {}).items()},
        )
