"""Exact algebra of divergence-free, boundary-free polynomial fields.

Everything structural here is exact rational arithmetic: the constraint
system on coefficients, its nullspace and the enumeration of rational
kernel points.  An element gamma_n * Trim_k p is its record (p, k, n);
its Fourier coefficients come from :mod:`solenoid.spectral`.  The radial
structure of the bump kernel (it depends on the coordinates only through
max(|z1|,|z2|)) lets every integral against it collapse to one dimension:
its normalization gamma0 = 1/(4 E_2(1)) is one exact series.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import List, Sequence, Tuple

from .approxcore import _EULER, _LITERAL_ERR
from .floatball import FloatBall, fb_sqrt

__all__ = [
    "RationalPoly2", "SolenoidalPolyPair", "MollifiedElement",
    "constraint_matrix", "kernel_basis", "matrix_rank", "solenoidal_kernel",
    "enumerate_solenoidal_polys", "index_of_kernel_point", "mollify",
    "approximation_defect", "gamma0", "poly_name",
]

_F0 = Fraction(0)
_F1 = Fraction(1)


# ---------------------------------------------------------------------------
# rational polynomials in two variables
# ---------------------------------------------------------------------------

class RationalPoly2:
    """Polynomial sum a[i][j] x^i y^j with Fraction coefficients.

    The stored degree is tight: unless the polynomial is zero, some entry in
    row N or column N is nonzero.
    """

    __slots__ = ("a", "N")

    def __init__(self, grid: Sequence[Sequence[Fraction]]):
        # one pass converts what is not a Fraction yet and finds the degree
        rows, deg = [], 0
        for i, row in enumerate(grid):
            row = [v if type(v) is Fraction else Fraction(v) for v in row]
            last = next((j for j in range(len(row) - 1, -1, -1) if row[j]), -1)
            if last >= 0:
                deg = max(deg, i, last)
            rows.append(row)
        pad = (_F0,) * (deg + 1)
        self.N = deg
        self.a = tuple(tuple(row[:deg + 1]) + pad[len(row):]
                       for row in rows[:deg + 1]) + (pad,) * (deg + 1 - len(rows))

    @staticmethod
    def zero() -> "RationalPoly2":
        return RationalPoly2([[_F0]])

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.a for v in row)

    def coeff(self, i: int, j: int) -> Fraction:
        if 0 <= i <= self.N and 0 <= j <= self.N:
            return self.a[i][j]
        return _F0

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x: Fraction, y: Fraction) -> Fraction:
        x, y = Fraction(x), Fraction(y)
        acc = _F0
        for i in range(self.N, -1, -1):
            row = _F0
            for j in range(self.N, -1, -1):
                row = row * y + self.a[i][j]
            acc = acc * x + row
        return acc

    # -- calculus and algebra -----------------------------------------------

    def deriv_x(self) -> "RationalPoly2":
        if self.N == 0:
            return RationalPoly2.zero()
        return RationalPoly2([[self.a[i + 1][j] * (i + 1)
                               for j in range(self.N + 1)]
                              for i in range(self.N)])

    def deriv_y(self) -> "RationalPoly2":
        if self.N == 0:
            return RationalPoly2.zero()
        return RationalPoly2([[self.a[i][j + 1] * (j + 1)
                               for j in range(self.N)]
                              for i in range(self.N + 1)])

    def __add__(self, o: "RationalPoly2") -> "RationalPoly2":
        n = max(self.N, o.N)
        return RationalPoly2([[self.coeff(i, j) + o.coeff(i, j)
                               for j in range(n + 1)] for i in range(n + 1)])

    def __neg__(self) -> "RationalPoly2":
        return RationalPoly2([[-v for v in row] for row in self.a])

    def __sub__(self, o: "RationalPoly2") -> "RationalPoly2":
        return self + (-o)

    def scale(self, f: Fraction) -> "RationalPoly2":
        f = Fraction(f)
        return RationalPoly2([[v * f for v in row] for row in self.a])

    def __eq__(self, o) -> bool:
        return isinstance(o, RationalPoly2) and self.a == o.a

    def __hash__(self):
        return hash(self.a)

    def coeff_abs_sum(self) -> Fraction:
        return sum((abs(v) for row in self.a for v in row), _F0)

    def compose_affine(self, sx: Fraction, cx: Fraction,
                       sy: Fraction, cy: Fraction) -> "RationalPoly2":
        """Return p(sx*x + cx, sy*y + cy) expanded exactly.

        With a = A/D, sx = Sx/ex, cx = Cx/ex (and so for y), the output
        coefficient is (Bx^T A By)[d1][d2] / (D ex^n ey^n), where
        Bx[i][d] = ex^(n-i) times the t^d coefficient of (Sx t + Cx)^i:
        two integer matrix products and one division per coefficient."""
        n = self.N
        A, D = _common_denominator([v for row in self.a for v in row])
        bx, ex = _binomial_table(Fraction(sx), Fraction(cx), n)
        by, ey = _binomial_table(Fraction(sy), Fraction(cy), n)
        # AB[i][d2] = sum_j a_ij By[j][d2]
        AB = [[sum(map(operator.mul, A[i * (n + 1):(i + 1) * (n + 1)], col))
               for col in zip(*by)] for i in range(n + 1)]
        den = D * ex ** n * ey ** n
        return RationalPoly2([[Fraction(sum(map(operator.mul, colx, colab)),
                                        den)
                               for colab in zip(*AB)] for colx in zip(*bx)])

    def to_json(self) -> list:
        return [[str(v) for v in row] for row in self.a]

    @staticmethod
    def from_json(obj: list) -> "RationalPoly2":
        return RationalPoly2([[Fraction(v) for v in row] for row in obj])

    def __repr__(self):
        return "RationalPoly2(N=%d)" % self.N


def _common_denominator(values: Sequence[Fraction]) -> Tuple[List[int], int]:
    """Integers n_i and one D > 0 with values[i] = n_i / D."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _binomial_table(s: Fraction, c: Fraction, n: int) \
        -> Tuple[List[List[int]], int]:
    """Integer rows B[i] of length n + 1 and e > 0 with
    (s t + c)^i = sum_d B[i][d] t^d / e^n for i <= n."""
    (S, C), e = _common_denominator([s, c])
    rows = [[1] + [0] * n]
    for i in range(1, n + 1):
        prev = rows[-1]
        rows.append([C * prev[0]] + [C * prev[d] + S * prev[d - 1]
                                     for d in range(1, n + 1)])
    return [[v * e ** (n - i) for v in row] for i, row in enumerate(rows)], e


@lru_cache(maxsize=256)
def _axis_powers(a: Fraction, b: Fraction, count: int) \
        -> Tuple[Tuple[int, ...], int]:
    """The axis power integrals (b^d - a^d)/d, d = 1..count, as integers
    over one denominator, cached per (a, b, count) and read-only: the
    boxes of a trimmed field depend only on its trim index."""
    num, den = _common_denominator([(b ** d - a ** d) / d
                                    for d in range(1, count + 1)])
    return tuple(num), den


def poly_inner_on_box(p: RationalPoly2, q: RationalPoly2,
                      box: Tuple[Tuple[Fraction, Fraction],
                                 Tuple[Fraction, Fraction]]) -> Fraction:
    """Exact integral of p*q over an axis-aligned rational box.

    With the axis power integrals X_d = int x^d dx and Y_d = int y^d dy, the
    integral is the Hankel contraction
        sum_{i,k} X_{i+k} sum_l q_kl sum_j p_ij Y_{j+l}.
    p, q, X and Y are put over common denominators first, so the
    contraction runs in O(N^3) Python-int operations and one `Fraction`
    division at the end gives the exact value."""
    (xa, xb), (ya, yb) = box
    xa, xb, ya, yb = map(Fraction, (xa, xb, ya, yb))
    n, m = p.N + 1, q.N + 1
    X, dx = _axis_powers(xa, xb, n + m - 1)
    Y, dy = _axis_powers(ya, yb, n + m - 1)
    P, dp = _common_denominator([v for row in p.a for v in row])
    Q, dq = _common_denominator([v for row in q.a for v in row])
    Qrows = [Q[k * m:(k + 1) * m] for k in range(m)]
    acc = 0
    for i in range(n):
        Pi = P[i * n:(i + 1) * n]
        # A_l = sum_j p_ij Y_{j+l}
        A = [sum(map(operator.mul, Pi, Y[l:l + n])) for l in range(m)]
        for k, Qk in enumerate(Qrows):
            acc += X[i + k] * sum(map(operator.mul, Qk, A))
    return Fraction(acc, dp * dq * dx * dy)


# ---------------------------------------------------------------------------
# solenoidal pairs and the coefficient constraint system
# ---------------------------------------------------------------------------

class SolenoidalPolyPair:
    """Vector polynomial (p1, p2), divergence-free and zero on the boundary
    of (-1,1)^2 when is_solenoidal() holds."""

    __slots__ = ("p1", "p2")

    def __init__(self, p1: RationalPoly2, p2: RationalPoly2):
        self.p1 = p1
        self.p2 = p2

    @property
    def N(self) -> int:
        return max(self.p1.N, self.p2.N)

    @staticmethod
    def zero() -> "SolenoidalPolyPair":
        return SolenoidalPolyPair(RationalPoly2.zero(), RationalPoly2.zero())

    def is_zero(self) -> bool:
        return self.p1.is_zero() and self.p2.is_zero()

    def is_solenoidal(self) -> bool:
        """Exact rational test of the divergence and boundary conditions."""
        div = self.p1.deriv_x() + self.p2.deriv_y()
        if not div.is_zero():
            return False
        n = self.N
        for p in (self.p1, self.p2):
            for j in range(n + 1):
                if sum(p.coeff(i, j) for i in range(n + 1)) != 0:
                    return False
                if sum((-1) ** i * p.coeff(i, j) for i in range(n + 1)) != 0:
                    return False
            for i in range(n + 1):
                if sum(p.coeff(i, j) for j in range(n + 1)) != 0:
                    return False
                if sum((-1) ** j * p.coeff(i, j) for j in range(n + 1)) != 0:
                    return False
        return True

    def __add__(self, o: "SolenoidalPolyPair") -> "SolenoidalPolyPair":
        return SolenoidalPolyPair(self.p1 + o.p1, self.p2 + o.p2)

    def __sub__(self, o: "SolenoidalPolyPair") -> "SolenoidalPolyPair":
        return SolenoidalPolyPair(self.p1 - o.p1, self.p2 - o.p2)

    def scale(self, f: Fraction) -> "SolenoidalPolyPair":
        return SolenoidalPolyPair(self.p1.scale(f), self.p2.scale(f))

    def __eq__(self, o) -> bool:
        return (isinstance(o, SolenoidalPolyPair) and self.p1 == o.p1
                and self.p2 == o.p2)

    def __hash__(self):
        return hash((self.p1, self.p2))

    def lipschitz_bound(self) -> Fraction:
        """Bound L with |p_j(u) - p_j(v)| <= L(|u1-v1| + |u2-v2|) on the
        closed square, from derivative coefficient sums."""
        best = _F0
        for p in (self.p1, self.p2):
            best = max(best, p.deriv_x().coeff_abs_sum(),
                       p.deriv_y().coeff_abs_sum())
        return best

    def l2_norm_sq(self) -> Fraction:
        box = ((-_F1, _F1), (-_F1, _F1))
        return poly_inner_on_box(self.p1, self.p1, box) + \
            poly_inner_on_box(self.p2, self.p2, box)

    def to_json(self) -> dict:
        n = self.N
        def grid(p):
            return [[str(p.coeff(i, j)) for j in range(n + 1)]
                    for i in range(n + 1)]
        return {"N": n, "a1": grid(self.p1), "a2": grid(self.p2)}

    @staticmethod
    def from_json(obj: dict) -> "SolenoidalPolyPair":
        return SolenoidalPolyPair(RationalPoly2.from_json(obj["a1"]),
                                  RationalPoly2.from_json(obj["a2"]))

    def __repr__(self):
        return "SolenoidalPolyPair(N=%d)" % self.N


def constraint_matrix(N: int) -> List[List[int]]:
    """Integer matrix whose nullspace is the space of degree-N solenoidal
    coefficient vectors.

    Unknown ordering: a1 flattened row-major (index i*(N+1)+j), then a2 with
    offset (N+1)^2.  Rows: the divergence identities, then the two edge
    families of leading-coefficient conditions, then the boundary sum and
    alternating-sum families.
    """
    if N < 0:
        raise ValueError("degree must be nonnegative")
    w = N + 1
    ncols = 2 * w * w
    def a1(i, j):
        return i * w + j
    def a2(i, j):
        return w * w + i * w + j
    rows = []
    for i in range(N):
        for j in range(N):
            r = [0] * ncols
            r[a1(i + 1, j)] = i + 1
            r[a2(i, j + 1)] = j + 1
            rows.append(r)
    for i in range(N):
        r = [0] * ncols
        r[a1(i + 1, N)] = i + 1
        rows.append(r)
    for j in range(N):
        r = [0] * ncols
        r[a2(N, j + 1)] = j + 1
        rows.append(r)
    for j in range(w):  # column sums over i, plain and alternating
        for comp in (a1, a2):
            for sign in (False, True):
                r = [0] * ncols
                for i in range(w):
                    r[comp(i, j)] = (-1) ** i if sign else 1
                rows.append(r)
    for i in range(w):  # row sums over j
        for comp in (a1, a2):
            for sign in (False, True):
                r = [0] * ncols
                for j in range(w):
                    r[comp(i, j)] = (-1) ** j if sign else 1
                rows.append(r)
    return rows


def _row_reduce(rows: List[List[Fraction]]):
    """Gaussian elimination over the rationals; returns (rank, rref, pivots).

    Each step touches only the pivot row's nonzero columns: the other
    entries of a row it updates would subtract f * 0.  The constraint
    matrices are sparse (the degree-4 one is 64 x 50 with 240 nonzeros).
    """
    m = [[Fraction(v) for v in row] for row in rows]
    if not m:
        return 0, [], []
    pivots = []
    r = 0
    for c in range(len(m[0])):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        row = m[r]
        inv = 1 / row[c]
        nonzero = [j for j, v in enumerate(row) if v]
        for j in nonzero:
            row[j] *= inv
        for i, other in enumerate(m):
            f = other[c]
            if i != r and f != 0:
                for j in nonzero:
                    other[j] -= f * row[j]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return r, m, pivots


def matrix_rank(rows) -> int:
    return _row_reduce(rows)[0]


def kernel_basis(rows: List[List[int]]) -> List[List[Fraction]]:
    """Exact rational basis of the nullspace of the given matrix."""
    if not rows:
        return []
    ncols = len(rows[0])
    rank, rref, pivots = _row_reduce(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [_F0] * ncols
        v[fc] = _F1
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(v)
    return basis


@lru_cache(maxsize=None)
def solenoidal_kernel(N: int) -> Tuple[SolenoidalPolyPair, ...]:
    """Basis of degree-N solenoidal pairs, as polynomial objects."""
    basis = kernel_basis(constraint_matrix(N))
    w = N + 1
    out = []
    for v in basis:
        g1 = [[v[i * w + j] for j in range(w)] for i in range(w)]
        g2 = [[v[w * w + i * w + j] for j in range(w)] for i in range(w)]
        out.append(SolenoidalPolyPair(RationalPoly2(g1), RationalPoly2(g2)))
    return tuple(out)


# ---------------------------------------------------------------------------
# enumeration of rational kernel points
# ---------------------------------------------------------------------------

def cantor_pair(a: int, b: int) -> int:
    return (a + b) * (a + b + 1) // 2 + b

def cantor_unpair(z: int) -> Tuple[int, int]:
    w = (math.isqrt(8 * z + 1) - 1) // 2
    b = z - w * (w + 1) // 2
    return w - b, b

def _nat_to_int(n: int) -> int:
    return n // 2 if n % 2 == 0 else -(n + 1) // 2

def _int_to_nat(z: int) -> int:
    return 2 * z if z >= 0 else -2 * z - 1

def _nat_to_fraction(t: int) -> Fraction:
    u, v = cantor_unpair(t)
    return Fraction(_nat_to_int(u), v + 1)

def _fraction_to_nat(q: Fraction) -> int:
    q = Fraction(q)
    return cantor_pair(_int_to_nat(q.numerator), q.denominator - 1)

def _nat_to_tuple(t: int, d: int) -> Tuple[int, ...]:
    out = []
    for _ in range(d - 1):
        t, last = cantor_unpair(t)
        out.append(last)
    out.append(t)
    return tuple(reversed(out))

def _tuple_to_nat(vals: Sequence[int]) -> int:
    t = vals[0]
    for v in vals[1:]:
        t = cantor_pair(t, v)
    return t


def enumerate_solenoidal_polys(index: int) -> SolenoidalPolyPair:
    """Deterministic total enumeration of rational solenoidal pairs.

    Index 0 is the zero field.  Otherwise the index factors as
    2^N (2t + 1), so the degree N is read off the 2-adic valuation (keeping
    degrees small for small indices) and t encodes the rational coordinates
    in the cached kernel basis of degree N.
    """
    if index < 0:
        raise ValueError("index must be nonnegative")
    if index == 0:
        return SolenoidalPolyPair.zero()
    N = (index & -index).bit_length() - 1
    t = (index >> (N + 1))
    basis = solenoidal_kernel(N)
    if not basis:
        return SolenoidalPolyPair.zero()
    codes = _nat_to_tuple(t, len(basis))
    out = SolenoidalPolyPair.zero()
    for code, b in zip(codes, basis):
        c = _nat_to_fraction(code)
        if c != 0:
            out = out + b.scale(c)
    return out


def index_of_kernel_point(N: int, coords: Sequence[Fraction]) -> int:
    """Inverse of the enumeration for a point given in the degree-N kernel
    basis coordinates."""
    basis = solenoidal_kernel(N)
    if len(coords) != len(basis):
        raise ValueError("expected %d coordinates" % len(basis))
    t = _tuple_to_nat([_fraction_to_nat(Fraction(c)) for c in coords])
    return (2 * t + 1) << N


# ---------------------------------------------------------------------------
# the bump kernel's normalization
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def gamma0() -> FloatBall:
    """Normalizing constant of the bump kernel, 1/(8 J_0) = 1/(4 E_2(1))
    with J_0 = (1/2) int_0^1 exp(-1/(1-u)) du.  E_2(1) = e^-1 - E_1(1) =
    gamma + 1 + sum_{j>=1} (-1)^j (j+1)/(j j!) (DLMF 8.19.12, 6.6.2), whose
    terms decrease: the first omitted one plus the error of `_EULER` bound
    |s - E_2(1)| by tau for the exact partial sum s, and gamma0 lies
    within tau/(4 (s - tau)^2) of 1/(4 s)."""
    s = _EULER + 1 + sum(Fraction((-1) ** j * (j + 1), j * math.factorial(j))
                         for j in range(1, 48))
    # the first omitted term, 49/(48 48!), plus the error of _EULER
    tau = Fraction(49, 48 * math.factorial(48)) + _LITERAL_ERR
    return FloatBall.nearest(1 / (4 * s), tau / (4 * (s - tau) ** 2))


# ---------------------------------------------------------------------------
# mollified elements
# ---------------------------------------------------------------------------

class MollifiedElement:
    """The field gamma_n * Trim_k(base), stored symbolically.

    A base that fails `is_solenoidal` raises ValueError, since the
    certified tails hold only for a divergence-free base that vanishes on
    its box's boundary."""

    __slots__ = ("base", "k", "n")

    def __init__(self, base: SolenoidalPolyPair, k: int, n: int):
        if k < 1:
            raise ValueError("trim index must be >= 1")
        if n <= k:
            raise ValueError("mollifier index must satisfy n >= k+1")
        if not base.is_solenoidal():
            raise ValueError("the element's base is not solenoidal: its "
                             "divergence or its boundary values are not 0")
        self.base = base
        self.k = k
        self.n = n

    def to_json(self) -> dict:
        return {"base": self.base.to_json(), "k": self.k, "n": self.n}

    @staticmethod
    def from_json(obj: dict) -> "MollifiedElement":
        return MollifiedElement(SolenoidalPolyPair.from_json(obj["base"]),
                                _json_int(obj, "k"), _json_int(obj, "n"))

    def __repr__(self):
        return "MollifiedElement(N=%d, k=%d, n=%d)" % (
            self.base.N, self.k, self.n)


def _json_int(obj: dict, key: str) -> int:
    """obj[key], refused with ValueError unless it is a JSON integer: a
    float, a bool or a string would load as some other record."""
    v = obj[key]
    if type(v) is not int:
        raise ValueError("%s must be a JSON integer, not %r" % (key, v))
    return v


def mollify(p: SolenoidalPolyPair, k: int, n: int) -> MollifiedElement:
    """gamma_n * Trim_k(p): with beta = 1 - 2^-k, Trim_k p is p(x/beta,
    y/beta) on the closed box [-beta, beta]^2 and zero outside it."""
    return MollifiedElement(p, k, n)


def approximation_defect(p: SolenoidalPolyPair, k: int, n: int)\
        -> FloatBall:
    """Upper bound on the L2 distance between p and its trimmed-and-mollified
    version, from the exact Lipschitz modulus of p, as the ball [0, bound]."""
    if k < 1 or n <= k:
        raise ValueError("need k >= 1 and n >= k+1")
    if p.is_zero():
        return FloatBall(0.0)
    L = p.lipschitz_bound()
    # sup-norm gaps: trim moves arguments by at most 2^{-k+1} per coordinate
    # and truncates a 2^{-k} collar where |p| <= L 2^{-k}; mollification
    # shifts arguments by at most 2^{-n} per coordinate.
    c = Fraction(1, 1 << k)
    sup_gap = 4 * L * c + 4 * L * Fraction(1, 1 << n)
    # each component, L2 over the square of area 4, two components
    bound = 2 * sup_gap
    vec = fb_sqrt(FloatBall(2.0)) * FloatBall.exact(bound)
    return FloatBall.from_endpoints(0.0, vec.upper())


def poly_name(p: SolenoidalPolyPair, max_k: int = 60):
    """Name of the field p whose level-K approximant is a mollified element
    within 2^-K in L2."""
    from .approxcore import Name

    def query(K: int):
        for k in range(1, max_k + 1):
            d = approximation_defect(p, k, k + 1)
            if d.upper() <= Fraction(1, 1 << K):
                return mollify(p, k, k + 1)
        raise RuntimeError("no trim level met the requested accuracy")

    return Name(query)
