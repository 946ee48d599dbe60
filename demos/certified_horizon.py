"""Contraction certificate and Picard decay for a mollified datum.

Builds the standard mollified solenoidal element, computes its certified
contraction horizon, and then watches the Picard iterates collapse: the
measured successive differences sit far below the certified geometric
envelope L eps^(m-1).  Run:

    python3 demos/certified_horizon.py        (under a second)
"""

import math
import time

from solenoid import nse
from solenoid import polyfield as pf
from solenoid.approxcore import BoundedValue

print("building the datum: mollified degree-4 solenoidal polynomial")
a = pf.mollify(pf.solenoidal_kernel(4)[0], 1, 2)

t0 = time.time()
cert = nse.compute_horizon(a, mode_cap=12)
print("certificate computed in %.1fs" % (time.time() - t0))
print()
print("  horizon      T_a = %s  (~%.3g)" % (cert.T_frac, float(cert.T_frac)))
print("  functional   k0  = %.6f  <  1/(8 Ctilde) = %.6f"
      % (float(cert.k0.upper()),
         float((BoundedValue.exact(1)
                / cert.constants.Ctilde.scale(8)).lower())))
print("  contraction  eps = %.6f  (< 1)" % float(cert.epsilon.upper()))
print("  envelope     L   = %.6f" % float(cert.L.upper()))
print("  w recursion     ", " ".join("%.4f" % float(w)
                                     for w in cert.w_m[:6]))
print()

T = cert.T_frac
K = 8
eps = float(cert.epsilon.upper())
L = float(cert.L.upper())
print("iterating at t = T_a, precision 2^-%d:" % K)
prev = None
for m in range(5):
    t0 = time.time()
    u = nse.iterate(a, cert, m, T, K)
    if prev is not None:
        cut = max(u[0].cutoff, prev[0].cutoff)
        gap = 0.0
        for f, g in zip(u, prev):
            d = f._embedded(cut).grid.c - g._embedded(cut).grid.c
            gap += float((d * d * f._embedded(cut).weights()).sum())
        gap = math.sqrt(gap)
        bound = L * eps ** max(m - 2, 0)
        print("  m=%d  |u_m - u_(m-1)| = %.3e   certified envelope %.3e"
              "   (%.1fs)" % (m, gap, bound, time.time() - t0))
    prev = u
