"""Truncated Taylor-series arithmetic with enclosure coefficients.

This serves the bump kernel's fixed panel models: a function written
against :class:`TSeries` is evaluated once around a panel midpoint (for the
polynomial part) and once over the whole panel (for the Lagrange remainder
coefficient), giving a panel model of order ``p``.

Coefficients are :class:`~solenoid.approxcore.BoundedValue` or
:class:`~solenoid.floatball.FloatBall`; any type with the same operator
surface plus the ``one``/``zero`` and ``exp_ball``/``log_ball``/
``sincos_ball`` hooks works.
"""

from __future__ import annotations

from fractions import Fraction

from .approxcore import BoundedValue

__all__ = ["TSeries"]


class TSeries:
    """Coefficients c[0..order] of sum c[j] (t - t0)^j, truncated."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = list(coeffs)

    @property
    def order(self):
        return len(self.c) - 1

    @staticmethod
    def variable(center, order: int) -> "TSeries":
        c = [center, center.one()] + [center.zero()] * (order - 1)
        return TSeries(c[:order + 1])

    @staticmethod
    def constant(value, order: int) -> "TSeries":
        return TSeries([value] + [value.zero()] * order)

    def _zero(self):
        return self.c[0].zero()

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
        return TSeries([a.scale(f) for a in self.c])

    def reciprocal(self):
        f0 = self.c[0]
        n = self.order
        g = [f0.one() / f0]
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
        g = [self.c[0].exp_ball()]
        for k in range(1, n + 1):
            acc = self._zero()
            for j in range(1, k + 1):
                acc = acc + (self.c[j] * g[k - j]).scale(j)
            g.append(acc.scale(Fraction(1, k)))
        return TSeries(g)

    def log(self):
        f0 = self.c[0]
        n = self.order
        g = [f0.log_ball()]
        for k in range(1, n + 1):
            acc = self.c[k].scale(k)
            for j in range(1, k):
                acc = acc - g[j].scale(j) * self.c[k - j]
            g.append(acc.scale(Fraction(1, k)) / f0)
        return TSeries(g)

    def sincos(self):
        n = self.order
        s0, c0 = self.c[0].sincos_ball()
        s, c = [s0], [c0]
        for k in range(1, n + 1):
            sa = self._zero()
            ca = self._zero()
            for j in range(1, k + 1):
                fj = self.c[j].scale(j)
                sa = sa + fj * c[k - j]
                ca = ca + fj * s[k - j]
            s.append(sa.scale(Fraction(1, k)))
            c.append((-ca).scale(Fraction(1, k)))
        return TSeries(s), TSeries(c)

    def sin(self):
        return self.sincos()[0]

    def cos(self):
        return self.sincos()[1]

    def pow_frac(self, q: Fraction):
        q = Fraction(q)
        if q == 0:
            return TSeries.constant(self.c[0].one(), self.order)
        if q.denominator == 1 and 0 < q.numerator <= 32:
            out = self
            for _ in range(q.numerator - 1):
                out = out * self
            return out
        if self.order == 0 and isinstance(self.c[0], BoundedValue):
            from .approxcore import bv_pow
            return TSeries([bv_pow(self.c[0], q)])
        return self.log().scale(q).exp()
