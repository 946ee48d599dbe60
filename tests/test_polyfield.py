"""Tests for the exact solenoidal polynomial algebra and the mollifier.

Structural identities (divergence, boundary conditions, trim substitution)
are exact rational zero tests.  Quadrature-backed quantities are checked
against independent oracles: sympy for symbolic calculus, numpy/scipy grid
integration for convolutions, and a frozen 40-digit value for the kernel
normalization.
"""

import ast
import pathlib
import random
from fractions import Fraction as F
from functools import lru_cache

import numpy as np
import pytest
import sympy as sp
from mpmath import mp
from scipy.integrate import simpson

from solenoid.polyfield import (
    MollifiedElement, RationalPoly2, SolenoidalPolyPair, approximation_defect,
    constraint_matrix, enumerate_solenoidal_polys, gamma0,
    index_of_kernel_point, kernel_basis, matrix_rank, mollify,
    poly_inner_on_box, poly_name, solenoidal_kernel,
)
from solenoid.polyfield import _row_reduce
from solenoid.floatball import FloatBall
from solenoid.spectral import (_canonical_box, _component_h1_sq,
                               _pullback_component)
from solenoid import polyfield as pf
from oracles import (RefBall, _moments_upto, dense_row_reduce,
                     fraction_compose_affine, fraction_inner_on_box,
                     gamma0_bounded, gamma_radial_moment, mollified_value,
                     mollifier_cos_coefficient, mollifier_mass, sup_bound,
                     support_halfwidth, trimmed_form)

# frozen oracle (40-digit quadrature of the kernel normalization)
GAMMA0 = F("1.683552623428849090226069715040108371621")


def _sympy_pair(pair):
    x, y = sp.symbols("x y")
    out = []
    for p in (pair.p1, pair.p2):
        e = 0
        for i in range(p.N + 1):
            for j in range(p.N + 1):
                c = p.a[i][j]
                if c:
                    e += sp.Rational(c.numerator, c.denominator) * x**i * y**j
        out.append(sp.expand(e))
    return out, (x, y)


def _padded_grid(grid):
    """The (a, N) of RationalPoly2's former constructor: every entry wrapped
    in a new Fraction, the rows padded to a full square, then cut to the
    degree."""
    rows = [[F(v) for v in row] for row in grid]
    if not rows:
        rows = [[F(0)]]
    size = max(len(rows), max(len(r) for r in rows))
    full = [[rows[i][j] if i < len(rows) and j < len(rows[i]) else F(0)
             for j in range(size)] for i in range(size)]
    deg = 0
    for i in range(size):
        for j in range(size):
            if full[i][j] != 0:
                deg = max(deg, i, j)
    return tuple(tuple(full[i][j] for j in range(deg + 1))
                 for i in range(deg + 1)), deg


class TestPolyConstructor:
    @pytest.mark.parametrize("grid", [
        [], [[]], [[], []], [[0]], [[0, 0], [0]], [[F(0)] * 4] * 4,
        [[1, 2, 0, 0], [0, 3]],            # ragged, trailing zeros
        [[0], [0], [0, 0, 5], [0, 0, 0]],  # degree from a later row
        [[1], [F(1, 2), 0, 0]],            # a zero tail past the degree
        [[3, F(-1, 7)], [F(2, 3)]],        # ints mixed with Fractions
        [[0, 0, 0, 0, 0, 0, F(1, 9)]],     # one long row
        [[F(1, 3)]] + [[0]] * 6,           # zero rows past the degree
    ])
    def test_matches_padded_grid(self, grid):
        p = RationalPoly2(grid)
        assert (p.a, p.N) == _padded_grid(grid)
        assert all(type(v) is F for row in p.a for v in row)

    def test_random_ragged_grids(self):
        rng = random.Random(34)
        for _ in range(300):
            grid = [[rng.choice([0, 0, 1, -2, F(rng.randint(-9, 9), 7)])
                     for _ in range(rng.randint(0, 6))]
                    for _ in range(rng.randint(0, 6))]
            p = RationalPoly2(grid)
            assert (p.a, p.N) == _padded_grid(grid), grid

    def test_keeps_fraction_entries(self):
        v = F(5, 3)
        p = RationalPoly2([[0, v], [1]])
        assert p.a[0][1] is v


class TestConstraintMatrix:
    def test_divergence_rows_two_entries(self):
        for N in (2, 3, 5):
            rows = constraint_matrix(N)
            for idx in range(N * N):  # the first N^2 rows are Eq.-style pairs
                nz = [(c, v) for c, v in enumerate(rows[idx]) if v]
                assert len(nz) == 2
                i, j = divmod(idx, N)
                assert sorted(v for _, v in nz) == sorted([i + 1, j + 1])

    def test_degree_zero_forces_zero_field(self):
        assert kernel_basis(constraint_matrix(0)) == []

    def test_degree_one_empty_kernel_with_rank_oracle(self):
        rows = constraint_matrix(1)
        ncols = len(rows[0])
        r1 = matrix_rank(rows)
        r2 = matrix_rank([r[::-1] for r in rows])
        assert r1 == r2 == ncols
        assert kernel_basis(rows) == []

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            constraint_matrix(-1)


class TestKernelBasis:
    def test_identity_matrix(self):
        eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        assert kernel_basis(eye) == []

    def test_zero_matrix(self):
        z = [[0] * 3 for _ in range(2)]
        b = kernel_basis(z)
        assert len(b) == 3
        for i, v in enumerate(b):
            assert v[i] == 1 and sum(map(abs, v)) == 1

    def test_random_integer_matrices(self):
        rng = random.Random(7)
        for _ in range(25):
            m = rng.randrange(1, 5)
            n = rng.randrange(1, 6)
            rows = [[rng.randrange(-4, 5) for _ in range(n)]
                    for _ in range(m)]
            basis = kernel_basis(rows)
            for v in basis:
                for row in rows:
                    assert sum(a * b for a, b in zip(row, v)) == 0
            alt = matrix_rank([r[::-1] for r in rows])
            assert len(basis) == n - alt


    def test_sparse_elimination_matches_dense(self):
        # the elimination updates only the pivot row's nonzero columns; it
        # must give the dense elimination's rank, reduced form and pivots,
        # hence the same basis, which satisfies the constraints exactly and
        # has the dimension the reversed-column rank gives
        for N in range(7):
            rows = constraint_matrix(N)
            assert _row_reduce(rows) == dense_row_reduce(rows)
            n = len(rows[0])
            basis = kernel_basis(rows)
            for v in basis:
                for row in rows:
                    assert sum(a * b for a, b in zip(row, v)) == 0
            alt = matrix_rank([r[::-1] for r in rows])
            assert len(basis) == n - alt

class TestSolenoidalKernel:
    def test_dimensions_up_to_degree_four(self):
        assert [len(solenoidal_kernel(N)) for N in range(5)] == [0, 0, 0, 0, 1]

    def test_basis_is_exactly_solenoidal(self):
        for e in solenoidal_kernel(4) + solenoidal_kernel(5):
            assert e.is_solenoidal()

    def test_stream_function_field_is_member(self):
        # (d/dy, -d/dx) of (1-x^2)^2 (1-y^2)^2, built independently in sympy
        x, y = sp.symbols("x y")
        psi = (1 - x**2) ** 2 * (1 - y**2) ** 2
        comps = [sp.expand(sp.diff(psi, y)), sp.expand(-sp.diff(psi, x))]
        grids = []
        for e in comps:
            g = [[F(0)] * 9 for _ in range(9)]
            for (i, j), c in sp.Poly(e, x, y).as_dict().items():
                g[i][j] = F(int(c))
            grids.append(RationalPoly2(g))
        pair = SolenoidalPolyPair(*grids)
        assert pair.is_solenoidal()
        base = solenoidal_kernel(4)[0]
        # one-dimensional kernel: the two must be proportional
        ratio = None
        for i in range(5):
            for j in range(5):
                a, b = pair.p1.coeff(i, j), base.p1.coeff(i, j)
                if b:
                    if ratio is None:
                        ratio = a / b
                    assert a == ratio * b
        assert pair == base.scale(ratio)

    def test_sympy_divergence_oracle(self):
        for idx in (4, 20, 33, 100):
            pair = enumerate_solenoidal_polys(idx)
            (e1, e2), (x, y) = _sympy_pair(pair)
            assert sp.expand(sp.diff(e1, x) + sp.diff(e2, y)) == 0

    def test_kernel_density_rational_rounding(self):
        # rounding real coordinates to rationals keeps exact membership
        rng = random.Random(3)
        basis = solenoidal_kernel(5)
        for k in (4, 10, 16):
            out = SolenoidalPolyPair.zero()
            for b in basis:
                c = F(round(rng.uniform(-2, 2) * (1 << k)), 1 << k)
                out = out + b.scale(c)
            assert out.is_solenoidal()

    def test_uniform_coefficient_bound(self):
        pair = enumerate_solenoidal_polys(48)
        bound = sup_bound(pair)
        rng = random.Random(11)
        for _ in range(40):
            x = F(rng.randrange(-64, 65), 64)
            y = F(rng.randrange(-64, 65), 64)
            assert abs(pair.p1(x, y)) <= bound
            assert abs(pair.p2(x, y)) <= bound


class TestEnumeration:
    def test_index_zero_is_zero_field(self):
        assert enumerate_solenoidal_polys(0).is_zero()

    def test_outputs_are_solenoidal(self):
        for idx in range(0, 60):
            assert enumerate_solenoidal_polys(idx).is_solenoidal()

    def test_deterministic(self):
        a = enumerate_solenoidal_polys(37)
        b = enumerate_solenoidal_polys(37)
        assert a == b

    def test_pairing_inverse_reaches_chosen_point(self):
        for coords in ([F(3, 2)], [F(-7, 5)], [F(0)]):
            idx = index_of_kernel_point(4, coords)
            got = enumerate_solenoidal_polys(idx)
            want = solenoidal_kernel(4)[0].scale(coords[0])
            assert got == want

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            enumerate_solenoidal_polys(-1)


def _pulled_back(pair, k):
    """The trim's box on the canonical square and the two pulled-back
    components of the element gamma_{k+1} * Trim_k(pair)."""
    el = mollify(pair, k, k + 1)
    return _canonical_box(el), (_pullback_component(el, 1),
                                _pullback_component(el, 2))


class TestTrim:
    """Trim_k p is p(x/beta, y/beta) on [-beta, beta]^2 and zero outside,
    beta = 1 - 2^-k.  The library carries it only as the pulled-back pair
    on the canonical box: the base composed with x -> (2x - 1)/beta, on
    [2^-(k+1), 1 - 2^-(k+1)]^2."""

    def test_substitution_example(self):
        # k = 1: the trim's value at (1/4, 0) is p(1/2, 0), and (1/4, 0)
        # lands on (5/8, 1/2) in the canonical square
        pair = solenoidal_kernel(4)[0]
        _, (q1, q2) = _pulled_back(pair, 1)
        assert (q1(F(5, 8), F(1, 2)), q2(F(5, 8), F(1, 2))) == \
            (pair.p1(F(1, 2), F(0)), pair.p2(F(1, 2), F(0)))
        rng = random.Random(2027)
        for k in (1, 2, 3):
            beta = 1 - F(1, 1 << k)
            _, qs = _pulled_back(pair, k)
            for _ in range(10):
                x, y = (F(rng.randint(-64, 64), 64) * beta for _ in "xy")
                for q, p in zip(qs, (pair.p1, pair.p2)):
                    assert q((x + 1) / 2, (y + 1) / 2) == p(x / beta, y / beta)

    def test_zero_outside_and_on_inner_boundary(self):
        pair = solenoidal_kernel(4)[0]
        for k in (1, 2):
            beta = 1 - F(1, 1 << k)
            box, qs = _pulled_back(pair, k)
            # the box is the image of [-beta, beta]^2, outside which the
            # trim is zero: the expansion integrates over it alone
            assert box == (((1 - beta) / 2, (1 + beta) / 2),) * 2
            (lo, hi), _ = box
            # on the box edge the pulled-back pair hits the zero boundary:
            # N + 2 zeros of a degree-N polynomial along each edge
            ts = [lo + (hi - lo) * F(i, pair.N + 1)
                  for i in range(pair.N + 2)]
            for q in qs:
                for t in ts:
                    assert q(lo, t) == q(hi, t) == q(t, lo) == q(t, hi) == 0

    def test_divergence_exact_zero(self):
        # both components are composed with one map of slope 2/beta, so
        # every first derivative is the base's scaled by 2/beta and the
        # divergence stays exactly zero
        pair = enumerate_solenoidal_polys(12)
        _, (q1, q2) = _pulled_back(pair, 2)
        beta = 1 - F(1, 4)
        s, c = 2 / beta, -1 / beta
        assert q1.deriv_x() == fraction_compose_affine(
            pair.p1.deriv_x(), s, c, s, c).scale(s)
        assert q2.deriv_y() == fraction_compose_affine(
            pair.p2.deriv_y(), s, c, s, c).scale(s)
        assert (q1.deriv_x() + q2.deriv_y()).is_zero()
        (e1, e2), (x, y) = _sympy_pair(SolenoidalPolyPair(q1, q2))
        assert sp.expand(sp.diff(e1, x) + sp.diff(e2, y)) == 0

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError, match="trim index"):
            mollify(solenoidal_kernel(4)[0], 0, 2)


def test_no_trimmed_form_in_the_library():
    # an element is its record (base, k, n): no module defines or imports
    # a second, rescaled form of it
    gone = {"TrimmedField", "trim"}
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "solenoid"
    offenders = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [n for a in node.names for n in (a.name, a.asname)]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets
                         if isinstance(t, ast.Name)]
            else:
                continue
            offenders += ["%s:%d %s" % (path.name, node.lineno, n)
                          for n in set(names) & gone]
    assert not offenders, offenders
    assert MollifiedElement.__slots__ == ("base", "k", "n")
    assert not hasattr(pf, "TrimmedField") and not hasattr(pf, "trim")


class TestGramKernel:
    """The integer Hankel contraction `poly_inner_on_box` against the
    term-by-term `Fraction` loop `oracles.fraction_inner_on_box`: both are
    exact, so they must be equal."""

    DENS = (1, 2, 3, 7, 9, 21, 27, 81, 243, 2 ** 20, 3 ** 13 * 7)

    @classmethod
    def _poly(cls, rng, deg):
        if rng.random() < 0.05:
            return RationalPoly2.zero()
        return RationalPoly2([[F(rng.randint(-10 ** 6, 10 ** 6),
                                 rng.choice(cls.DENS))
                               if rng.random() < 0.8 else F(0)
                               for _ in range(deg + 1)]
                              for _ in range(deg + 1)])

    @classmethod
    def _end(cls, rng):
        return F(rng.randint(-40, 40), rng.choice(cls.DENS))

    @classmethod
    def _box(cls, rng):
        axes = []
        for _ in range(2):
            a = cls._end(rng)
            # a zero-width axis now and then
            b = a if rng.random() < 0.1 else cls._end(rng)
            axes.append((a, b))
        return tuple(axes)

    def test_matches_fraction_loop(self):
        rng = random.Random(2021)
        seen = set()
        for case in range(500):
            p = self._poly(rng, rng.randint(0, 8))
            q = self._poly(rng, rng.randint(0, 8))
            box = self._box(rng)
            got = poly_inner_on_box(p, q, box)
            assert isinstance(got, F)
            assert got == fraction_inner_on_box(p, q, box), case
            seen.add((p.N != q.N, p.is_zero() or q.is_zero(),
                      box[0][0] == box[0][1] or box[1][0] == box[1][1]))
        # unequal degrees, the zero polynomial and a zero-width box all
        # occurred
        assert {k[0] for k in seen} == {True, False}
        assert {k[1] for k in seen} == {True, False}
        assert {k[2] for k in seen} == {True, False}

    def test_integer_box_ends(self):
        p = RationalPoly2([[F(1, 3), F(2)], [F(-5, 7), F(0)]])
        for box in (((0, 1), (-1, 1)), ((2, -3), (F(1, 2), 5))):
            assert poly_inner_on_box(p, p, box) == \
                fraction_inner_on_box(p, p, box)

    def test_component_h1_sq(self):
        rng = random.Random(2022)
        for _ in range(40):
            q = self._poly(rng, rng.randint(0, 7))
            box = self._box(rng)
            dx, dy = q.deriv_x(), q.deriv_y()
            assert _component_h1_sq(q, box) == \
                fraction_inner_on_box(dx, dx, box) + \
                fraction_inner_on_box(dy, dy, box)

    @pytest.mark.parametrize("N", [2, 4, 6])
    def test_pair_norms(self, N):
        square = ((F(-1), F(1)), (F(-1), F(1)))
        for pair in solenoidal_kernel(N)[:3]:
            pair = pair.scale(F(-5, 7))
            assert pair.l2_norm_sq() == \
                fraction_inner_on_box(pair.p1, pair.p1, square) + \
                fraction_inner_on_box(pair.p2, pair.p2, square)
            for k in (1, 2, 3):
                # the trim scales the mass by beta^2 and the pullback to
                # the canonical square by 1/4
                box, qs = _pulled_back(pair, k)
                mass = sum(poly_inner_on_box(q, q, box) for q in qs)
                assert mass == sum(fraction_inner_on_box(q, q, box)
                                   for q in qs)
                assert mass == ((1 - F(1, 1 << k)) / 2) ** 2 * \
                    pair.l2_norm_sq()


    def test_cached_axis_tables_two_boxes(self):
        # the axis tables are cached per (a, b, count): two boxes in one
        # process each read their own
        rng = random.Random(2023)
        boxes = [_pulled_back(solenoidal_kernel(4)[0], k)[0]
                 for k in (1, 2)] + [((F(1, 4), F(3, 4)), (F(1, 8), F(7, 8)))]
        for _ in range(3):
            for box in boxes:
                p = self._poly(rng, rng.randint(0, 6))
                q = self._poly(rng, rng.randint(0, 6))
                assert poly_inner_on_box(p, q, box) == \
                    fraction_inner_on_box(p, q, box)

    def test_cached_axis_tables_read_only(self):
        box = ((F(-3, 4), F(3, 4)), (F(1, 3), F(2)))
        rng = random.Random(2026)
        for deg in (0, 1, 4, 8):
            p = self._poly(rng, deg)
            want = fraction_inner_on_box(p, p, box)
            assert poly_inner_on_box(p, p, box) == want
            X, dx = pf._axis_powers(F(-3, 4), F(3, 4), 2 * deg + 1)
            assert pf._axis_powers(F(-3, 4), F(3, 4), 2 * deg + 1) \
                == (X, dx)
            with pytest.raises(TypeError):
                X[0] = 0
            with pytest.raises(AttributeError):
                X.append(0)
            assert poly_inner_on_box(p, p, box) == want


class TestComposeAffine:
    """The integer affine composition `RationalPoly2.compose_affine`
    against the term-by-term `Fraction` loop
    `oracles.fraction_compose_affine`: both are exact, so they must be
    equal."""

    @staticmethod
    def _scalars(rng):
        # non-dyadic: 1/beta = 2^k/(2^k - 1) of the trim indices k = 1..4,
        # and seeded rationals
        inv_betas = [1 / (1 - F(1, 1 << k)) for k in range(1, 5)]
        pick = lambda: rng.choice(inv_betas + [  # noqa: E731
            F(rng.randint(-30, 30), rng.choice(TestGramKernel.DENS))])
        return pick(), pick(), pick(), pick()

    def test_matches_fraction_loop(self):
        rng = random.Random(2024)
        for case in range(200):
            p = TestGramKernel._poly(rng, rng.randint(0, 8))
            args = self._scalars(rng)
            assert p.compose_affine(*args) == \
                fraction_compose_affine(p, *args), case

    def test_zero_and_constant(self):
        rng = random.Random(2025)
        const = RationalPoly2([[F(-7, 3)]])
        assert const.N == 0
        for _ in range(5):
            args = self._scalars(rng)
            got = RationalPoly2.zero().compose_affine(*args)
            assert got == fraction_compose_affine(RationalPoly2.zero(), *args)
            assert got.is_zero() and got.N == 0
            assert const.compose_affine(*args) == const == \
                fraction_compose_affine(const, *args)


class TestMollifierKernel:
    def test_gamma0_frozen_oracle(self):
        g = gamma0()
        assert isinstance(g, FloatBall)
        assert g.contains(GAMMA0)
        assert g.r < 2.0 ** -50
        # the 90-bit closed form in e^-1 and E_1(1): same centre, and the
        # exact series is no wider
        ref = FloatBall.from_bounded(gamma0_bounded(60))
        assert g.c == ref.c and g.r <= ref.r
        with mp.workdps(50):
            v = 1 / (4 * mp.expint(2, 1))
            assert mp.mpf(g.c) - mp.mpf(g.r) <= v <= mp.mpf(g.c) + mp.mpf(g.r)

    def test_gamma0_closed_form_against_panel_moments(self):
        # E_2(1) closed form against the panel-model quadrature of J_0, and
        # the closed-form J_s against the same panel moments
        panel = _moments_upto(47, 40)
        assert gamma0_bounded(60).overlaps(
            RefBall.exact(1) / panel[0].scale(8))
        for s in (1, 16, 47):
            assert gamma_radial_moment(s, 40).overlaps(panel[s]), s

    @staticmethod
    @lru_cache(maxsize=None)
    def _moment_ref(s):
        # J_s by 250-digit tanh-sinh quadrature of its defining integral
        with mp.workdps(250):
            j = mp.quad(lambda u: mp.exp(-1 / (1 - u)) * u ** s,
                        [0, mp.mpf(1) / 2, 1]) / 2
            return F(int(mp.floor(j * mp.mpf(2) ** 800)), 2 ** 800)

    def _check_moment(self, s, kbits):
        j, ref = gamma_radial_moment(s, kbits), self._moment_ref(s)
        # the reference is good to far below 2^-800 relative
        tol = ref / 2 ** 700
        assert j.lower() - tol <= ref <= j.upper() + tol, (s, kbits)
        assert j.radius <= ref / 2 ** kbits, (s, kbits)

    @pytest.mark.parametrize("s", [0, 1, 16, 48, 64])
    def test_moment_closed_form_precision_sweep(self, s):
        # 2^-kbits relative for kbits past the 120-bit rounding cap of
        # the reference balls' arithmetic
        for kbits in (40, 60, 100, 160):
            self._check_moment(s, kbits)

    @pytest.mark.parametrize("s", [128, 200])
    def test_moment_closed_form_hardest_cancellation(self, s):
        # |A_s| and |B_s| exceed J_s by about 4 sqrt(s) log2(e) bits, the
        # most in the range the mollifier expansions reach: 66 and 80 bits
        for kbits in (60, 160):
            self._check_moment(s, kbits)

    def test_moments_positive_decreasing(self):
        prev = None
        for s in range(0, 12):
            j = gamma_radial_moment(s, 48)
            assert j.lower() > 0
            if prev is not None:
                assert j.upper() < prev
            prev = j.upper()

    def test_mass_identity_dual_route(self):
        # direct radial quadrature of the scaled kernel against the
        # panel-model normalization; both routes must agree on mass 1
        for nu in (1, 2, 4):
            m = mollifier_mass(nu, 18)
            assert m.contains(F(1))
            assert m.radius <= F(1, 1 << 17)

    def test_cos_coefficient_at_zero_is_mass(self):
        assert mollifier_cos_coefficient(2, 0, 0, 30).contains(F(1))

    def test_cos_coefficient_symmetry_and_bound(self):
        a = mollifier_cos_coefficient(3, 2, 5, 30)
        b = mollifier_cos_coefficient(3, 5, 2, 30)
        assert a.overlaps(b)
        for (n, m) in ((1, 0), (2, 2), (7, 4)):
            c = mollifier_cos_coefficient(3, n, m, 30)
            assert abs(float(c)) <= 1.0 + 1e-12

    def test_cos_coefficient_grid_oracle(self):
        nu = 3
        g0f = float(gamma0_bounded(60))
        d = 2.0 ** -nu
        s = np.linspace(-d, d, 3201)
        r = np.maximum(np.abs(s)[:, None], np.abs(s)[None, :]) * 2.0 ** nu
        w = np.where(r < 1, np.exp(-1.0 / np.maximum(1 - r ** 2, 1e-300)), 0.0)
        g = g0f * 4.0 ** nu * w
        for (n, m) in ((1, 1), (4, 2), (9, 6)):
            f = g * np.cos(n * np.pi * s)[:, None] * \
                np.cos(m * np.pi * s)[None, :]
            o = simpson(simpson(f, x=s, axis=1), x=s)
            c = mollifier_cos_coefficient(nu, n, m, 30)
            assert abs(float(c) - o) < 5e-7
            assert float(c.radius) < 1e-8

    def test_frequency_guard(self):
        with pytest.raises(ValueError):
            mollifier_cos_coefficient(0, 40, 0, 20)


class TestMollify:
    def test_preconditions(self):
        p = solenoidal_kernel(4)[0]
        with pytest.raises(ValueError):
            mollify(p, 2, 2)
        with pytest.raises(ValueError):
            mollify(p, 0, 1)

    def test_zero_field_stays_zero(self):
        el = mollify(SolenoidalPolyPair.zero(), 1, 2)
        v1, v2 = mollified_value(el, F(1, 8), F(-1, 3))
        assert v1.radius == 0 and v1.center == 0
        assert v2.radius == 0 and v2.center == 0

    def test_support_nesting_exact_zero(self):
        el = mollify(solenoidal_kernel(4)[0], 1, 2)
        hw = support_halfwidth(el)
        assert hw == F(3, 4)
        for pt in ((hw + F(1, 64), F(0)), (F(1, 2), -hw - F(1, 32))):
            v1, v2 = mollified_value(el, *pt)
            assert float(v1) == 0 and v1.radius == 0
            assert float(v2) == 0 and v2.radius == 0

    def test_point_value_against_grid_convolution(self):
        el = mollify(solenoidal_kernel(4)[0], 1, 3)
        v = mollified_value(el, F(1, 8), F(1, 4), 14)
        beta, q1, q2 = trimmed_form(el)
        nu, beta = el.n, float(beta)
        g0f = float(gamma0_bounded(60))
        d = 2.0 ** -nu
        s = np.linspace(-d, d, 801)
        Z1, Z2 = np.meshgrid(s, s, indexing="ij")
        r = np.maximum(np.abs(Z1), np.abs(Z2)) * 2.0 ** nu
        w = np.where(r < 1, np.exp(-1.0 / np.maximum(1 - r ** 2, 1e-300)), 0.0)
        g = g0f * 4.0 ** nu * w
        for comp, q in zip(v, (q1, q2)):
            X, Y = 0.125 - Z1, 0.25 - Z2
            val = np.zeros_like(X)
            for i in range(q.N + 1):
                for j in range(q.N + 1):
                    c = float(q.a[i][j])
                    if c:
                        val += c * X ** i * Y ** j
            val = np.where((np.abs(X) <= beta) & (np.abs(Y) <= beta), val, 0.0)
            o = simpson(simpson(g * val, x=s, axis=1), x=s)
            assert comp.lower() - 1e-6 <= o <= comp.upper() + 1e-6

    def test_divergence_by_finite_differences(self):
        el = mollify(solenoidal_kernel(4)[0], 1, 3)
        x0, y0 = F(1, 8), F(1, 4)
        for h in (F(1, 8), F(1, 16)):
            vpx = mollified_value(el, x0 + h, y0, 14)[0]
            vmx = mollified_value(el, x0 - h, y0, 14)[0]
            vpy = mollified_value(el, x0, y0 + h, 14)[1]
            vmy = mollified_value(el, x0, y0 - h, 14)[1]
            div = (vpx - vmx + vpy - vmy).scale(F(1, 2) / h)
            # the field magnitude here is ~0.3; the divergence must vanish
            # up to quadrature noise and O(h^2) differencing error
            assert abs(float(div)) < 0.02

    def test_json_round_trip(self):
        el = mollify(enumerate_solenoidal_polys(20), 2, 4)
        el2 = MollifiedElement.from_json(el.to_json())
        assert el2.base == el.base and (el2.k, el2.n) == (el.k, el.n)
        obj = el.to_json()
        assert isinstance(obj["base"]["a1"][0][0], str) and obj["k"] == 2

    def test_non_solenoidal_base_refused(self):
        # a1 = 1 at (0, 0): not 0 on the box boundary, so the certified
        # tails, whose H^1 identity needs that, do not hold for it
        obj = mollify(solenoidal_kernel(4)[0], 1, 2).to_json()
        for key in ("a1", "a2"):
            obj["base"][key] = [["0"] * len(r) for r in obj["base"][key]]
        obj["base"]["a1"][0][0] = "1"
        assert not SolenoidalPolyPair.from_json(obj["base"]).is_solenoidal()
        with pytest.raises(ValueError, match="not solenoidal"):
            MollifiedElement.from_json(obj)

    def test_mollify_refuses_non_solenoidal_base(self):
        # the constructor checks the base, so every route refuses it: this
        # base's certified tail read 2.2e-154 at cutoff 64 while 5.5e-5 of
        # its L2 mass lay in modes 65..256
        base = solenoidal_kernel(4)[0].to_json()
        for key in ("a1", "a2"):
            base[key] = [["0"] * len(r) for r in base[key]]
        base["a1"][0][0] = "1"
        with pytest.raises(ValueError, match="not solenoidal"):
            mollify(SolenoidalPolyPair.from_json(base), 1, 2)


class TestApproximationDefect:
    def test_zero_field(self):
        d = approximation_defect(SolenoidalPolyPair.zero(), 2, 3)
        assert d.upper() == 0

    def test_monotone_in_joint_index(self):
        p = solenoidal_kernel(4)[0]
        prev = None
        for k in (1, 3, 5, 8):
            d = approximation_defect(p, k, k + 1)
            if prev is not None:
                assert d.upper() < prev
            prev = d.upper()

    def test_preconditions(self):
        p = solenoidal_kernel(4)[0]
        with pytest.raises(ValueError):
            approximation_defect(p, 0, 1)
        with pytest.raises(ValueError):
            approximation_defect(p, 3, 3)


class TestPolyName:
    def test_refined_approximants_meet_budget(self):
        p = solenoidal_kernel(4)[0].scale(F(1, 2))
        nm = poly_name(p)
        for K in (2, 6):
            el = nm.refine(K)
            assert isinstance(el, MollifiedElement)
            d = approximation_defect(p, el.k, el.n)
            assert d.upper() <= F(1, 1 << K)


class TestSerialization:
    def test_pair_round_trip(self):
        pair = enumerate_solenoidal_polys(44)
        obj = pair.to_json()
        back = SolenoidalPolyPair.from_json(obj)
        assert back == pair
        assert obj["N"] == pair.N
        # rational strings, exact
        flat = [v for row in obj["a1"] for v in row]
        assert all(isinstance(v, str) for v in flat)
