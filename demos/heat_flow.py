"""Heat flow of a single Fourier mode, certified two ways.

The semigroup multiplies the (1,1) coefficient by an enclosure of
e^{-2 pi^2 t} in closed form.  The paper's contour representation
integrates the resolvent along a sector boundary instead: `contour_factors`
encloses the ray up to the radius l that `tail_cutoff_l` certifies, and the
rest of the ray adds at most 2^-(K+7) per unit coefficient, so the ray's
interval widened by that must contain the same number.  Run:

    python3 demos/heat_flow.py
"""

import math
from fractions import Fraction

import numpy as np

from solenoid.floatball import FloatBall
from solenoid.spectral import FourierField
from solenoid.stokes import contour_factors, semigroup_apply, tail_cutoff_l

K = 20
a = FourierField.single_mode("sc", 1, 1)
print("datum: the single mode sin(pi x) cos(pi y)")
print()

for t in (Fraction(1, 64), Fraction(1, 8), Fraction(1, 2)):
    exact = math.exp(-float(t) * 2 * math.pi ** 2)
    bd = semigroup_apply(a, t, K).grid.at((1, 1))
    l = float(tail_cutoff_l(t, 1, K).upper())
    fc, fr, panels = contour_factors(np.array([2]), FloatBall.exact(t), l)
    bc = FloatBall(fc[0], fr[0]).widened(2.0 ** -(K + 7))
    print("t = %-5s  exact factor %.12f" % (t, exact))
    print("   closed form:   %.12f +/- %.2e" % (bd.c, bd.r))
    print("   contour (l = %g, %d panels): %.12f +/- %.2e"
          % (l, panels, bc.c, bc.r))
    inside = bc.lower() <= exact <= bc.upper()
    print("   contour interval contains the exact factor:", inside)
    print()
