"""Exact and directed-rounded arithmetic, approximation streams, closed-form
special functions, and the shared table of analytic constants.

One exact carrier serves both tiers: ``Fraction`` (stdlib).  The
polynomial algebra uses it as is; ``BoundedValue``, the outward-rounded ball
tier, stores center +/- radius as two dyadic ``Fraction``s (denominator a
power of two) and rounds every operation outward so the true result stays
enclosed.  ``+``, ``-``, ``*`` and ``widened`` round at ``DEFAULT_PREC`` =
120 bits whatever precision the caller asks for.  The canonical form
m * 2**e (m odd, or m = e = 0) appears only in the JSON schema, the mpmath
bridge and the rounding helpers.

Transcendental enclosures (log, sin, cos, Gamma, pi, Euler's gamma)
are delegated to ``mpmath.iv`` interval arithmetic, with exact conversions
in both directions.  Beta and the exponential integral E_1 are closed forms
on them; no integral here is taken by quadrature.  mpmath is imported on the
first such call (:func:`_mp`), not with this module: of the CLI commands,
``horizon``, ``solve`` and ``selftest`` reach it; ``basis``, and
``semigroup``, ``fracpower``, ``pressure`` and ``project`` on a component
pair, a field or a mollified element, never load it.
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
    "bv_e1",
    "bv_log",
    "bv_sin",
    "bv_cos",
    "bv_pi",
    "bv_euler",
    "bv_gamma",
    "bv_sqrt",
]

DEFAULT_PREC = 120

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
# mpmath.iv bridge for transcendental enclosures
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _mp():
    """mpmath's interval context ``iv`` and the mpf helpers ``finf``,
    ``fninf`` and ``to_rational``, imported on first use: the import takes
    about 40 ms, and most CLI commands never need it."""
    from mpmath import iv
    from mpmath.libmp import finf, fninf, to_rational
    return iv, finf, fninf, to_rational


def _iv_from_dyadic(d: Fraction):
    # iv.mpf(int) rounds outward to the working precision; ldexp is exact.
    iv = _mp()[0]
    m, e = _split(d)
    return iv.ldexp(iv.mpf(m), e)


def _iv_from_bv(x: BoundedValue):
    lo = _iv_from_dyadic(x.lower())
    hi = _iv_from_dyadic(x.upper())
    return lo + (hi - lo) * _mp()[0].mpf([0, 1])


def _mpf_tuple_to_fraction(t) -> Fraction:
    _, finf, fninf, to_rational = _mp()
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
    iv = _mp()[0]
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
    iv = _mp()[0]
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
    if out.radius > Fraction(1, 1 << k):
        raise RuntimeError("beta(%s, %s) did not meet radius 2^-%d"
                           % (x, y, k))
    return out


@lru_cache(maxsize=None)
def cos_contour_angle(prec: int = DEFAULT_PREC) -> BoundedValue:
    """Enclosure of cos(3*pi/5), the fixed contour angle cosine (negative)."""
    return bv_cos(bv_pi(prec).scale(Fraction(3, 5)), prec)


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
