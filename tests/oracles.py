"""Independent routes kept only as cross-checks for the library.

Each function here computes a value the package also computes, by a
different method, so that tests can require the two enclosures to overlap.
"""

from fractions import Fraction

from solenoid.approxcore import BoundedValue, bv_pow, certified_integral


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
