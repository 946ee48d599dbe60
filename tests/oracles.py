"""Independent routes kept only as cross-checks for the library.

Each function here computes a value the package also computes, by a
different method, so that tests can require the two enclosures to overlap.
"""

from fractions import Fraction
from functools import lru_cache

import numpy as np

from solenoid.approxcore import BoundedValue, bv_pow, certified_integral
from solenoid.floatball import BallGrid, FloatBall
from solenoid.spectral import FourierField


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
            if s.radius.to_fraction() <= target / 4:
                break
            delta /= 4
        parts = parts + s
        lo_cut = delta
    if x < 1:
        delta = Fraction(1, 2)
        while True:
            s = sliver(x, y, delta)
            if s.radius.to_fraction() <= target / 4:
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
