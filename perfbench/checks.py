"""Output checks: each compares a program output with a value from
``refs`` or with a property the output must have, and raises CheckError
with the reason when it does not hold.

Outputs arrive either as ``solenoid`` objects (in-process workloads) or as
the CLI's JSON artifacts; both are first reduced to plain arrays.  Float
centres and radii, and the decimal or p/q strings of the artifacts, are
exact rationals, so containment is decided without rounding: exactly in
fractions, or in mpmath at refs.DPS digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

import refs

BUDGET = 2.0 ** -8


class CheckError(AssertionError):
    """An output failed its check."""


@dataclass
class Field:
    """Coefficient balls of one component: centres c, radii r, and an
    L2 tail bound for everything the balls leave out."""

    basis: str
    c: np.ndarray
    r: np.ndarray
    tail: Fraction

    @classmethod
    def of(cls, f) -> "Field":
        return cls(f.basis, np.array(f.grid.c, dtype=float),
                   np.array(f.grid.r, dtype=float),
                   Fraction(f.tail_l2.upper()))

    @classmethod
    def from_json(cls, obj: dict) -> "Field":
        def arr(rows):
            return np.array([[float(Fraction(v)) for v in row] for row in rows])
        return cls(obj["basis"], arr(obj["re"]), arr(obj["rad"]),
                   Fraction(obj["tail_l2"]))

    @property
    def size(self) -> int:
        return self.c.shape[0]

    def weights(self) -> np.ndarray:
        return refs.mode_weights(self.basis, self.size)


def _mpf(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def require(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# linear operators: coefficient-wise containment
# ---------------------------------------------------------------------------

def check_modewise(inp: Field, out: Field, factor, what: str):
    """Every live mode of ``out`` must contain inp * factor(n, m)."""
    require(out.basis == inp.basis and out.size == inp.size,
            "%s: basis or band changed" % what)
    w = inp.weights()
    with mpmath.workdps(refs.DPS):
        for n, m in zip(*np.nonzero(w)):
            exact = mpmath.mpf(float(inp.c[n, m])) * factor(int(n), int(m))
            err = abs(mpmath.mpf(float(out.c[n, m])) - exact)
            require(err <= mpmath.mpf(float(out.r[n, m])),
                    "%s: mode (%d, %d) misses the reference by %s (radius %g)"
                    % (what, n, m, mpmath.nstr(err, 5), out.r[n, m]))


def _excess_sq(out: Field, exact, size: int) -> Fraction:
    """Sum over modes of w * (distance from the exact coefficient to the
    ball, or the whole exact coefficient for a mode the output dropped)."""
    w = refs.mode_weights(out.basis, size)
    total = Fraction(0)
    for n in range(size):
        for m in range(size):
            if w[n, m] == 0:
                continue
            e = exact[n][m]
            if n < out.size and m < out.size:
                gap = abs(Fraction(float(out.c[n, m])) - e) - \
                    Fraction(float(out.r[n, m]))
                if gap > 0:
                    total += Fraction(w[n, m]) * gap * gap
            elif e:
                total += Fraction(w[n, m]) * e * e
    return total


def check_projection(inp1: Field, inp2: Field, out1: Field, out2: Field):
    """The projected pair must enclose the exact Helmholtz projection:
    coefficient balls plus the stated tail, in exact fractions."""
    to_q = [[[Fraction(float(v)) for v in row] for row in f.c]
            for f in (inp1, inp2)]
    p1, p2 = refs.helmholtz_exact(*to_q)
    for out, exact, label in ((out1, p1, "u1"), (out2, p2, "u2")):
        ex = _excess_sq(out, exact, len(exact))
        require(ex <= out.tail ** 2,
                "project: %s leaves the enclosure by %.3g (tail %.3g)"
                % (label, math.sqrt(ex), float(out.tail)))


# ---------------------------------------------------------------------------
# scalars: pressure, horizon constants
# ---------------------------------------------------------------------------

def check_overlap(a, b, what: str):
    """Two enclosures (lo, hi) of the same value must intersect."""
    require(a[0] <= b[1] and b[0] <= a[1],
            "%s: [%s, %s] and [%s, %s] are disjoint"
            % (what, float(a[0]), float(a[1]), float(b[0]), float(b[1])))


def check_contains(iv, value, what: str):
    """The interval (lo, hi) of Fractions must contain the mpf ``value``."""
    with mpmath.workdps(refs.DPS):
        require(_mpf(iv[0]) <= value <= _mpf(iv[1]),
                "%s: [%s, %s] misses %s" % (what, float(iv[0]), float(iv[1]),
                                            mpmath.nstr(value, 17)))


def check_radius(iv, budget: float, what: str):
    require(float(iv[1] - iv[0]) / 2 <= budget,
            "%s: radius above 2^%d" % (what, round(math.log2(budget))))


def check_horizon(eps_iv, L_iv, contractive: bool):
    check_contains(eps_iv, refs.contraction_epsilon(), "horizon epsilon")
    check_contains(L_iv, refs.envelope_L(), "horizon L")
    require(contractive and eps_iv[1] < 1, "horizon: not contractive")


# ---------------------------------------------------------------------------
# the mild solution
# ---------------------------------------------------------------------------

def pair_radius(pair) -> float:
    """L2 size of the enclosure: ball radii plus tails, both components."""
    out = 0.0
    for f in pair:
        out = math.hypot(out, math.sqrt(float((f.r ** 2 * f.weights()).sum()))
                         + float(f.tail))
    return out


def check_solve_radius(pair):
    rad = pair_radius(pair)
    require(rad <= BUDGET, "solve: radius %.3g above 2^-8" % rad)


def check_centre(pair, ref1, ref2, allowance: float, what: str):
    """The centre must lie within 2^-8 + allowance in L2 of the reference."""
    size = max(pair[0].size, ref1.shape[0])
    d = 0.0
    for f, ref in zip(pair, (ref1, ref2)):
        diff = refs.embed(f.c, size) - refs.embed(ref, size)
        d += float((diff ** 2 * refs.mode_weights(f.basis, size)).sum())
    d = math.sqrt(d)
    require(d <= BUDGET + allowance,
            "%s: centre %.3g from the reference (allowed %.3g)"
            % (what, d, BUDGET + allowance))
    return d


def check_exact_solution(pair, coeffs, decay):
    """Every coefficient ball of the output, widened by the output's tail,
    must contain decay * u0; ``coeffs`` maps (component, n, m) to the
    coefficient of u0 and ``decay`` is an mpf."""
    with mpmath.workdps(refs.DPS):
        for j, f in enumerate(pair):
            w = f.weights()
            ex = mpmath.mpf(0)
            for n, m in zip(*np.nonzero(w)):
                e = decay * coeffs.get((j, int(n), int(m)), 0)
                gap = abs(mpmath.mpf(float(f.c[n, m])) - e) - \
                    mpmath.mpf(float(f.r[n, m]))
                if gap > 0:
                    ex += mpmath.mpf(float(w[n, m])) * gap * gap
            for (jj, n, m), v in coeffs.items():
                require(jj != j or (n < f.size and m < f.size),
                        "solve: exact mode (%d, %d) dropped" % (n, m))
            require(mpmath.sqrt(ex) <= _mpf(f.tail),
                    "solve: exact solution outside the enclosure of u%d "
                    "by %s" % (j + 1, mpmath.nstr(mpmath.sqrt(ex), 5)))


# ---------------------------------------------------------------------------
# basis artifacts
# ---------------------------------------------------------------------------

def check_basis(payload: dict, count: int):
    elems = payload["elements"]
    require(len(elems) == count, "basis: %d elements, asked %d"
            % (len(elems), count))
    for obj in elems:
        a1 = [[Fraction(v) for v in row] for row in obj["a1"]]
        a2 = [[Fraction(v) for v in row] for row in obj["a2"]]
        require(any(v for row in a1 + a2 for v in row), "basis: zero element")
        require(refs.poly_divergence_free(a1, a2),
                "basis: element is not exactly divergence-free")
