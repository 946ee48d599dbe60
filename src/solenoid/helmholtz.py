"""The Helmholtz projection onto divergence-free fields on (0,1)^2.

The projection solves the Dirichlet problem Delta phi = d/dx u2 - d/dy u1,
phi = 0 on the boundary, and returns (-d/dy phi, d/dx phi).  In the mixed
product bases this is a pure mode-by-mode recombination: with u1 expanded in
sin.cos (coefficients a) and u2 in cos.sin (coefficients b),

    phi_{n,m}     = (n b_{n,m} - m a_{n,m}) / ((n^2+m^2) pi)
    (P u)_{1,n,m} = (m^2 a_{n,m} - n m b_{n,m}) / (n^2+m^2)   (sin.cos)
    (P u)_{2,n,m} = (n^2 b_{n,m} - n m a_{n,m}) / (n^2+m^2)   (cos.sin)

for n, m >= 1; modes with n = 0 or m = 0 are gradients and project to zero.
Each mode's factor matrix [[m^2, -nm], [-nm, n^2]]/(n^2+m^2) is an
orthogonal projection, so an input perturbation (the tails) of joint L2
size t moves each output component by at most t; that is the only tail a
projection carries.

Worked example: u = (0, cos pi x sin pi y), i.e. a = 0, b = 1 at n = m = 1.
Then Delta phi = -pi sin pi x sin pi y, so phi = sin pi x sin pi y / (2 pi)
and

    P u = (-(1/2) sin pi x cos pi y, (1/2) cos pi x sin pi y).

The complement u - P u = ((1/2) sin pi x cos pi y, (1/2) cos pi x sin pi y)
is the gradient of -cos pi x cos pi y / (2 pi), hence curl-free and
orthogonal to P u, as the projection requires.

All inputs must present component 1 in the sin.cos basis and component 2 in
cos.sin.  This is not a restriction in the solver: mollified elements,
semigroup outputs, and the nonlinearity all land in exactly these bases.
"""

from __future__ import annotations

import bisect
from functools import lru_cache
from typing import Tuple

import numpy as np

from .approxcore import Name
from .floatball import BallGrid, FloatBall
from .polyfield import MollifiedElement
from .spectral import FourierField, _norm2, resolve_element

__all__ = [
    "VectorFieldName", "resolve_field", "project", "project_pair",
    "divergence", "truncation_index",
]


def resolve_field(u, k: int = None, hs_tails=()):
    """Concrete coefficients of a field argument.

    A VectorFieldName is refined at precision level k; a MollifiedElement
    is expanded by `spectral.resolve_element`, at the smallest cutoff whose
    joint L2 tail meets 2^-k (at its first rung without a k), with H^s tail
    bounds for each s in ``hs_tails``; a pair of FourierFields or a single
    FourierField is passed through unchanged.  Bases are not checked here.
    """
    if isinstance(u, VectorFieldName):
        if k is None:
            raise ValueError("a name resolves only at a precision level, "
                             "and this call has none")
        return u.refine(k)
    if isinstance(u, MollifiedElement):
        return resolve_element(u, k, hs_tails)
    if isinstance(u, FourierField) or (
            isinstance(u, tuple) and len(u) == 2
            and all(isinstance(f, FourierField) for f in u)):
        return u
    raise TypeError("unsupported field argument %r" % type(u).__name__)


def _as_pair(u, k: int = None) -> Tuple[FourierField, FourierField]:
    """Resolve a vector-field argument to a concrete (sc, cs) field pair."""
    u = resolve_field(u, k)
    if not isinstance(u, tuple):
        raise TypeError("expected a component pair, got %r" % type(u).__name__)
    f1, f2 = u
    if f1.basis != "sc" or f2.basis != "cs":
        raise ValueError("a vector field needs component 1 in sin.cos and "
                         "component 2 in cos.sin (got %s, %s)"
                         % (f1.basis, f2.basis))
    return f1, f2


class VectorFieldName:
    """Name of an (L2)^2 vector field: refine(k) yields a component pair
    (sin.cos, cos.sin) whose combined L2 distance to the field is <= 2^-k."""

    __slots__ = ("name",)

    def __init__(self, name: Name):
        self.name = name

    @staticmethod
    def constant(f1: FourierField, f2: FourierField) -> "VectorFieldName":
        pair = _as_pair((f1, f2))
        return VectorFieldName(Name(lambda k: pair))

    def refine(self, k: int) -> Tuple[FourierField, FourierField]:
        return _as_pair(self.name.refine(k))


@lru_cache(maxsize=None)
def _mode_factors(cut: int) -> Tuple[BallGrid, BallGrid, BallGrid]:
    """The projection's mode factors m^2, n^2 and n m over n^2 + m^2 for
    n, m <= cut, 0 where n = 0 or m = 0; cached and read-only."""
    n = np.arange(cut + 1)
    ng, mg = np.meshgrid(n, n, indexing="ij")
    den = BallGrid(np.maximum(ng * ng + mg * mg, 1))
    live = (ng >= 1) & (mg >= 1)
    out = tuple(BallGrid(np.where(live, num, 0)) / den
                for num in (mg * mg, ng * ng, ng * mg))
    for g in out:
        g.c.flags.writeable = g.r.flags.writeable = False
    return out


def project_pair(f1: FourierField, f2: FourierField) \
        -> Tuple[FourierField, FourierField]:
    """Mode-wise Helmholtz projection of a concrete field pair.

    Total and exact up to enclosure arithmetic; each output component
    carries the joint tail sqrt(t1^2 + t2^2) of the input tails.
    """
    f1, f2 = _as_pair((f1, f2))
    cut = max(f1.cutoff, f2.cutoff)
    g1 = f1._embedded(cut).grid
    g2 = f2._embedded(cut).grid
    mm, nn, nm = _mode_factors(cut)
    p1 = mm * g1 + -(nm * g2)
    p2 = nn * g2 + -(nm * g1)
    tails = [f1.tail_l2.upper(), f2.tail_l2.upper()]
    tail = FloatBall(0.0) if not any(tails) else \
        FloatBall.from_endpoints(0.0, _norm2(tails).upper())
    return (FourierField("sc", cut, p1, tail),
            FourierField("cs", cut, p2, tail))


def divergence(f1: FourierField, f2: FourierField) -> FourierField:
    """d/dx f1 + d/dy f2 for a band-limited (sc, cs) pair; lands in cos.cos."""
    f1, f2 = _as_pair((f1, f2))
    return f1.derivative(1) + f2.derivative(2)


def truncation_index(u, K: int) -> int:
    """Smallest N with d1^2 + d2^2 <= 2^-2(K+1), for d_j the tail of
    component j truncated below N (`FourierField.truncation_tail`).

    For a band-limited pair with cutoff c the answer is at most c + 1.

    The search bisects N = 0..c+1, as the computed test is monotone in N:
    a larger N masks more weights to 0 in `sumsq_ball`, and a round-to-
    nearest float sum of nonnegative terms cannot rise when a term falls
    to 0; its `live`, eta and wmax = 1 do not depend on the mask, and the
    square root, the sum with the presented tail and the square are
    monotone.  Whatever N the bisection returns passed the test itself.
    """
    if K < 0:
        raise ValueError("precision must be nonnegative")
    f1, f2 = _as_pair(u, K + 2)
    cut = max(f1.cutoff, f2.cutoff)
    a, b = f1._embedded(cut), f2._embedded(cut)
    target = 0.25 ** (K + 1)

    def fits(N):
        d1, d2 = a.truncation_tail(N - 1), b.truncation_tail(N - 1)
        return (d1 * d1 + d2 * d2).upper() <= target
    N = bisect.bisect_left(range(cut + 2), True, key=fits)
    if N > cut + 1:
        raise ValueError("tail mass does not certify at this precision")
    return N


def project(u, K: int) -> Tuple[FourierField, FourierField]:
    """2^-K approximation of the Helmholtz projection of u.

    ``u`` is a VectorFieldName, a MollifiedElement, or a concrete
    (sin.cos, cos.sin) pair.  The argument resolves at 2^-(K+3), an eighth
    of the budget, which leaves the truncation search room under its
    2^-(K+2) target for the series tail; the emitted pair is the truncated
    projection series itself, which is divergence-free and band-limited
    apart from the certified tail.
    """
    if K < 0:
        raise ValueError("precision must be nonnegative")
    f1, f2 = _as_pair(u, K + 3)
    N = truncation_index((f1, f2), K + 1)
    cap = max(N - 1, 0)
    p1, p2 = project_pair(f1.truncated(cap), f2.truncated(cap))
    return p1, p2
