"""Tests for the Fourier layer: field algebra, certified coefficient
extraction, truncation tails, the metric, and the name-level calculus.

Numeric checks always run two independent routes: coefficient identities
against pointwise evaluation, panel transforms against exact-arithmetic
quadrature, Parseval sums against rational polynomial integrals, and the
spectral metric against the exact polynomial distance plus mollification
defects.
"""

import ast
import json
import math
import pathlib
from fractions import Fraction as F

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solenoid import helmholtz, spectral
from solenoid import polyfield as pf
from solenoid.approxcore import Name, bv_pi
from solenoid.floatball import BallGrid, FloatBall, fb_sqrt
from solenoid.polyfield import poly_inner_on_box
from solenoid.spectral import (
    _H1_ORDER, FourierField, SobolevName, _ab_grid,
    _h1_models, _mollified_tail, _window_grid, axis_trig_moments,
    differentiate, mode_weights, mollified_distance,
    mollified_field_pair, mollifier_mode_grid, multiply, sup_constant,
    trig_poly_field,
)

import oracles
from oracles import _extended

mp.mp.dps = 30

BASE = pf.solenoidal_kernel(4)[0]
EL = pf.mollify(BASE, 1, 2)
EL2 = pf.mollify(BASE.scale(F(3, 2)), 1, 3)
EL3 = pf.mollify(BASE.scale(F(1, 2)), 1, 2)

BOX_HALF = ((F(1, 4), F(3, 4)), (F(1, 4), F(3, 4)))


def _pullback(q):
    return q.compose_affine(F(2), F(-1), F(2), F(-1))


def _mp_eval(field, x, y):
    """Independent mpmath evaluation of a band-limited trig field."""
    fx = mp.sin if field.basis[0] == "s" else mp.cos
    fy = mp.sin if field.basis[1] == "s" else mp.cos
    tot = mp.mpf(0)
    for n in range(field.cutoff + 1):
        for m in range(field.cutoff + 1):
            c = field.grid.c[n, m]
            if c:
                tot += c * fx(n * mp.pi * x) * fy(m * mp.pi * y)
    return tot


def _overlaps(ball, bv):
    return ball.lower() <= float(bv.upper()) and \
        ball.upper() >= float(bv.lower())


small_coeff = st.floats(min_value=-4, max_value=4,
                        allow_nan=False, allow_infinity=False)
grids3 = st.lists(st.lists(small_coeff, min_size=3, max_size=3),
                  min_size=3, max_size=3)


def _field(basis, rows):
    return FourierField(basis, 2, BallGrid(np.array(rows, dtype=float)))


class TestFieldAlgebra:
    def test_single_mode_l2(self):
        f = FourierField.single_mode("ss", 1, 1)
        assert f.l2_sq_ball().contains(F(1, 4))
        g = FourierField.single_mode("cc", 0, 0)
        assert g.l2_sq_ball().contains(F(1))
        h = FourierField.single_mode("cs", 0, 3, coeff=2.0)
        assert h.l2_sq_ball().contains(F(2))

    def test_dead_sine_modes_masked(self):
        g = BallGrid.zeros((3, 3))
        g.set((0, 1), FloatBall(5.0))
        g.set((1, 1), FloatBall(1.0))
        f = FourierField("ss", 2, g)
        assert f.grid.c[0, 1] == 0.0
        assert f.l2_sq_ball().contains(F(1, 4))

    def test_add_scale_linearity(self):
        a = FourierField.single_mode("sc", 1, 0)
        b = FourierField.single_mode("sc", 2, 1)
        s = a + b.scale(F(3))
        assert s.grid.at((1, 0)).contains(F(1))
        assert s.grid.at((2, 1)).contains(F(3))
        assert (s - s).l2_norm_ball().upper() < 1e-12

    def test_hs_norm_single_mode(self):
        f = FourierField.single_mode("ss", 2, 3)
        got = f.hs_norm(F(1, 2))
        want = mp.sqrt(mp.sqrt(1 + 4 + 9) / 4)
        assert abs(float(want) - got.c) <= got.r + 1e-12

    def test_hs_norm_zero_is_l2(self):
        f = FourierField.single_mode("cc", 1, 2, coeff=3.0)
        assert abs(f.hs_norm(0).c - f.l2_norm_ball().c) < 1e-14

    def test_derivative_coefficients(self):
        f = FourierField.single_mode("sc", 3, 2)
        d = f.derivative(1)
        assert d.basis == "cc"
        assert abs(d.grid.at((3, 2)).c - 3 * math.pi) < 1e-12
        d2 = f.derivative(2)
        assert d2.basis == "ss"
        assert abs(d2.grid.at((3, 2)).c + 2 * math.pi) < 1e-12

    def test_derivative_matches_sympy_point(self):
        # d/dx [sin(2 pi x) cos(pi y)] = 2 pi cos(2 pi x) cos(pi y)
        f = FourierField.single_mode("sc", 2, 1)
        d = f.derivative(1)
        x, y = F(1, 3), F(1, 5)
        want = 2 * mp.pi * mp.cos(2 * mp.pi / 3) * mp.cos(mp.pi / 5)
        got = oracles.eval_ball(d, x, y)
        assert abs(got.c - float(want)) <= got.r + 1e-12

    def test_second_derivative_eigenvalue(self):
        f = FourierField.single_mode("ss", 2, 3)
        lap = f.derivative(1).derivative(1) + f.derivative(2).derivative(2)
        target = -(4 + 9) * math.pi ** 2
        assert abs(lap.grid.at((2, 3)).c - target) < 1e-10

    def test_multiply_against_pointwise(self):
        a = _field("sc", [[0, 0, 0], [0, 1.25, 0], [0, 0, -0.5]])
        b = _field("cs", [[0, 0.75, 0], [0, 0, 2.0], [0, 0, 0]])
        p = a.multiply(b)
        assert p.basis == "ss"
        for x, y in [(F(1, 3), F(1, 7)), (F(2, 5), F(5, 8))]:
            want = _mp_eval(a, mp.mpf(1) * x.numerator / x.denominator,
                            mp.mpf(1) * y.numerator / y.denominator) * \
                _mp_eval(b, mp.mpf(1) * x.numerator / x.denominator,
                         mp.mpf(1) * y.numerator / y.denominator)
            got = oracles.eval_ball(p, x, y)
            assert abs(got.c - float(want)) <= got.r + 1e-10

    def test_multiply_known_identity(self):
        # sin(pi x)^2 = 1/2 - cos(2 pi x)/2 (tensored with cos(0 y))
        f = FourierField.single_mode("sc", 1, 0)
        p = f.multiply(f)
        assert p.basis == "cc"
        assert p.grid.at((0, 0)).contains(F(1, 2))
        assert p.grid.at((2, 0)).contains(F(-1, 2))

    def test_eval_matches_mpmath(self):
        f = _field("cc", [[1.0, 0, -2.0], [0, 0.5, 0], [3.0, 0, 0]])
        got = oracles.eval_ball(f, F(2, 7), F(3, 11))
        want = _mp_eval(f, mp.mpf(2) / 7, mp.mpf(3) / 11)
        assert abs(got.c - float(want)) <= got.r + 1e-12

    def test_inner_orthogonality(self):
        a = FourierField.single_mode("ss", 1, 2)
        b = FourierField.single_mode("ss", 2, 1)
        ab = oracles.inner_l2(a, b)
        assert abs(ab.c) <= ab.r + 1e-15
        assert oracles.inner_l2(a, a).contains(F(1, 4))

    def test_inner_two_routes(self):
        f = _field("sc", [[0, 0, 0], [0.5, 1.0, 0], [0, -2.0, 0.25]])
        sq = f.l2_sq_ball()
        ip = oracles.inner_l2(f, f)
        assert ip.lower() <= sq.upper() and ip.upper() >= sq.lower()

    def test_truncation_folds_mass(self):
        f = _field("cc", [[1.0, 0, 0], [0, 0, 0], [0, 0, 0.5]])
        t = f.truncated(1)
        assert t.cutoff == 1
        # total mass is preserved inside the enclosure
        assert t.l2_sq_ball().upper() >= 1.0 + 0.25 / 4 - 1e-12
        assert t.tail_l2.upper() > 0

    @given(c=grids3, r=grids3, tail=st.floats(min_value=0, max_value=1))
    def test_truncation_tail_contains_dropped_mass(self, c, r, tail):
        # the new tail bounds the old tail plus the largest L2 norm of the
        # dropped modes over every point of their balls
        f = FourierField("cc", 2, BallGrid(np.array(c, dtype=float),
                                           np.abs(np.array(r, dtype=float))),
                         tail_l2=FloatBall.from_endpoints(0.0, tail))
        t = f.truncated(1)
        w = f.weights()
        dropped = sum(F(w[i, j]) * (abs(F(f.grid.c[i, j])) + F(f.grid.r[i, j]))
                      ** 2 for i in range(3) for j in range(3)
                      if max(i, j) > 1)
        room = F(t.tail_l2.c) + F(t.tail_l2.r) - F(tail)
        assert room >= 0 and room * room >= dropped

    def test_sup_upper_dominates_eval(self):
        f = _field("sc", [[0, 0, 0], [1.0, -0.5, 0], [0, 0, 2.0]])
        s = f.sup_upper()
        for x, y in [(F(1, 2), F(1, 3)), (F(1, 7), F(6, 7))]:
            assert abs(oracles.eval_ball(f, x, y).c) <= s + 1e-12

    def test_basis_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FourierField.single_mode("ss", 1, 1) + \
                FourierField.single_mode("sc", 1, 1)
        with pytest.raises(ValueError):
            FourierField("xy", 1, BallGrid.zeros((2, 2)))

    def test_tail_blocks_termwise_ops(self):
        g = BallGrid.zeros((2, 2))
        g.set((1, 1), FloatBall(1.0))
        f = FourierField("ss", 1, g, tail_l2=FloatBall(0.0, 0.1))
        with pytest.raises(ValueError):
            f.derivative(1)
        with pytest.raises(ValueError):
            f.multiply(f)
        with pytest.raises(ValueError):
            f.hs_norm(1)

    def test_sum_with_band_limited_keeps_hs_tail(self):
        # a band-limited operand's H^s tail is 0 for every s, so a sum with
        # it keeps the other operand's bound, in either order
        rng = np.random.default_rng(3)
        tailed = FourierField("sc", 2, BallGrid(rng.normal(size=(3, 3))),
                              FloatBall.from_endpoints(0.0, 0.01),
                              {F(1): FloatBall.from_endpoints(0.0, 0.02)})
        band = FourierField("sc", 2, BallGrid(rng.normal(size=(3, 3))))
        for total in (tailed + band, band + tailed):
            assert total.tail_hs[F(1)].upper() == 0.02
            norm = total.hs_norm(1)
            assert norm.upper() - norm.lower() >= 0.04
        # two tailed operands keep only the tails both store
        other = FourierField("sc", 2, BallGrid(rng.normal(size=(3, 3))),
                             FloatBall.from_endpoints(0.0, 0.01))
        with pytest.raises(ValueError, match="no H\\^1 tail bound"):
            (tailed + other).hs_norm(1)


class TestFieldProperties:
    @settings(max_examples=40, deadline=None)
    @given(rows=grids3)
    def test_parseval_vs_inner(self, rows):
        f = _field("cc", rows)
        sq = f.l2_sq_ball()
        ip = oracles.inner_l2(f, f)
        assert ip.lower() <= sq.upper() + 1e-12
        assert ip.upper() >= sq.lower() - 1e-12

    @settings(max_examples=25, deadline=None)
    @given(rows=grids3, x=st.fractions(min_value=0, max_value=1,
                                       max_denominator=64),
           y=st.fractions(min_value=0, max_value=1, max_denominator=64))
    def test_multiply_commutes_at_points(self, rows, x, y):
        a = _field("ss", rows)
        b = FourierField.single_mode("cs", 1, 1)._embedded(2)
        p, q = a.multiply(b), b.multiply(a)
        va, vb = oracles.eval_ball(p, x, y), oracles.eval_ball(q, x, y)
        assert abs(va.c - vb.c) <= va.r + vb.r + 1e-10

    @settings(max_examples=40, deadline=None)
    @given(rows=grids3)
    def test_scaling_quadratic_in_l2(self, rows):
        f = _field("sc", rows)
        doubled = f.scale(F(2)).l2_sq_ball()
        assert doubled.upper() >= 4 * f.l2_sq_ball().lower() - 1e-9
        assert doubled.lower() <= 4 * f.l2_sq_ball().upper() + 1e-9


class TestModeWeights:
    @pytest.mark.parametrize("kind, q", [("sobolev", F(6, 5)),
                                         ("stokes", F(1, 2)),
                                         ("stokes", F(1, 1))])
    def test_cached_read_only_and_enclosing(self, kind, q):
        tab = mode_weights(12, kind, q)
        assert tab is mode_weights(12, kind, q)
        assert not tab.c.flags.writeable and not tab.r.flags.writeable
        for n, m in ((0, 0), (0, 1), (3, 4), (12, 12)):
            s = n * n + m * m
            base = 1 + s if kind == "sobolev" else mp.pi ** 2 * s
            ref = mp.power(base, mp.mpf(q.numerator) / q.denominator)
            ball = tab.at((n, m))
            assert mp.mpf(ball.lower()) <= ref <= mp.mpf(ball.upper())

    def test_truncation_leaves_the_cached_mask(self):
        # the mode mask is cached per (basis, cutoff) and shared by every
        # field; truncating zeroes the kept block of its weights, which
        # must not reach the mask or the weights of the next field
        rng = np.random.default_rng(21)
        f = FourierField("sc", 6, BallGrid(rng.normal(size=(7, 7))))
        mask = spectral._mode_mask("sc", 6)
        assert mask is spectral._mode_mask("sc", 6)
        assert not mask.flags.writeable
        before = (f.weights().copy(), mask.copy())
        assert f.truncated(3).tail_l2.upper() > 0.0
        assert np.array_equal(f.weights(), before[0])
        assert np.array_equal(spectral._mode_mask("sc", 6), before[1])
        g = FourierField("sc", 6, BallGrid(np.ones((7, 7))))
        assert np.array_equal(g.grid.c, before[1] * 1.0)

    def test_cached_glue_tables(self):
        # the derivative's n pi factors and the product's fold factors are
        # built once per (axis characters, cutoff) and shared read-only;
        # a derivative and a product leave them as they were
        fac = spectral._derivative_factors("c", 6)
        basis, w, aw = spectral._product_fold("sc", "cs", 6)
        assert fac is spectral._derivative_factors("c", 6)
        assert w is spectral._product_fold("sc", "cs", 6)[1]
        assert not any(a.flags.writeable for a in (fac.c, fac.r, w, aw))
        before = (fac.c.copy(), fac.r.copy(), w.copy())
        FourierField("sc", 6, BallGrid(np.ones((7, 7)))).derivative(2)
        FourierField("sc", 3, BallGrid(np.ones((4, 4)))).multiply(
            FourierField("cs", 3, BallGrid(np.ones((4, 4)))))
        assert all(np.array_equal(x, y)
                   for x, y in zip(before, (fac.c, fac.r, w)))
        assert basis == "ss"
        assert np.array_equal(aw, np.abs(w))
        assert (w[0, 0], w[0, 3], w[5, 6]) == (1.0, 2.0, 4.0)
        for n in range(7):
            ball = fac.at(n)
            assert mp.mpf(ball.lower()) <= -n * mp.pi <= mp.mpf(ball.upper())

    @pytest.mark.parametrize("basis, kind, q", [("sc", None, 0),
                                                ("cs", "stokes", F(1, 2)),
                                                ("cc", "sobolev", F(6, 5))])
    def test_row_weights_cached_read_only(self, basis, kind, q):
        # the weights of a `weighted_sq_terms` row are built once per
        # (basis, cutoff, kind, q), bit for bit the (N+1)^2 products of the
        # L2 mode weights and `mode_weights` with no slot for a tail, and a
        # norm leaves them as they were
        rows, w = spectral.weighted_sq_terms(
            basis, BallGrid.zeros((2, 9, 9)), kind, q)
        assert (rows.shape, w.shape) == ((2, 81), (81,))
        assert spectral.weighted_sq_terms(
            basis, BallGrid.zeros((1, 9, 9)), kind, q)[1] is w
        assert not w.c.flags.writeable and not w.r.flags.writeable
        ref = BallGrid(spectral._weights(basis, 8))
        if kind is not None:
            ref = ref * mode_weights(8, kind, F(q))
        before = (ref.c.reshape(-1), ref.r.reshape(-1))
        f = FourierField(basis, 8, BallGrid(np.ones((9, 9)), 0.5),
                         FloatBall.from_endpoints(0.0, 0.25))
        f.weighted_sq_ball(kind, q)
        f.l2_norm_ball()
        for x, y in zip(before, (w.c, w.r)):
            assert np.array_equal(x.view(np.int64), y.view(np.int64))

    def test_hs_norm_against_mpmath(self):
        rng = np.random.default_rng(12)
        f = FourierField("cs", 9, BallGrid(rng.normal(size=(10, 10))),
                         FloatBall.from_endpoints(0.0, 0.125),
                         {F(6, 5): FloatBall.from_endpoints(0.0, 0.25)})
        got = f.hs_norm(F(6, 5))
        w = f.weights()
        band = mp.fsum(mp.power(1 + n * n + m * m, mp.mpf(6) / 5)
                       * mp.mpf(w[n, m]) * mp.mpf(f.grid.c[n, m]) ** 2
                       for n in range(10) for m in range(10))
        # the tail adds anything in [0, 0.25^2]
        for extra in (0, mp.mpf(1) / 16):
            ref = mp.sqrt(band + extra)
            assert mp.mpf(got.lower()) <= ref <= mp.mpf(got.upper())


def _holds(ball, sq) -> bool:
    """Whether the ball holds the root of the exact Fraction sq."""
    ref = mp.sqrt(mp.mpf(sq.numerator) / sq.denominator)
    return mp.mpf(ball.lower()) <= ref <= mp.mpf(ball.upper())


class TestTailMeaning:
    """A tail bounds a perturbation anywhere in the spectrum, and only
    `FourierField`'s norms read it: the band norm widened by the tail."""

    def test_in_band_perturbation_norms(self):
        pair, named = oracles.in_band_pair()
        for j, f in enumerate(pair):
            l2, h1 = (oracles.named_sq_norm(named, j, s) for s in (0, 1))
            assert _holds(f.l2_norm_ball(), l2)
            assert _holds(f.hs_norm(1), h1)
            assert f.l2_sq_ball().contains(l2)
            # the balls alone miss: the tail must widen both ends
            assert not _holds(fb_sqrt(f.weighted_sq_ball()), l2)

    def test_square_of_the_norm_ball(self):
        f = oracles.in_band_pair()[0][1]
        norm, sq = f.l2_norm_ball(), f.l2_sq_ball()
        assert F(sq.lower()) <= F(norm.lower()) ** 2
        assert F(sq.upper()) >= F(norm.upper()) ** 2

    def test_zero_tail_leaves_band_norm(self):
        rng = np.random.default_rng(5)
        f = FourierField("sc", 6, BallGrid(rng.normal(size=(7, 7)), 1e-9))
        band = f.weighted_sq_ball()
        for got, ref in ((f.l2_sq_ball(), band),
                         (f.l2_norm_ball(), fb_sqrt(band)),
                         (f.hs_norm(1),
                          fb_sqrt(f.weighted_sq_ball("sobolev", 1)))):
            assert (got.c, got.r) == (ref.c, ref.r)

    def test_tail_survives_json(self):
        pair, named = oracles.in_band_pair()
        for j, f in enumerate(pair):
            g = FourierField.from_json(json.loads(json.dumps(f.to_json())))
            assert g.tail_l2.upper() >= f.tail_l2.upper()
            assert _holds(g.l2_norm_ball(), oracles.named_sq_norm(named, j))
            assert _holds(g.hs_norm(1), oracles.named_sq_norm(named, j, 1))


class TestExpBridge:
    """The extension the product convolves: f = i^-p sum E e^{i pi (nx+my)}
    with p the number of sine axes."""

    BASES = ("ss", "sc", "cs", "cc")

    def test_conjugate_symmetry(self):
        # cosine axes are even in their index, sine axes odd
        for basis in self.BASES:
            f = _field(basis, [[0.25, 0, 0], [1.0, 0.5, 0], [0, 0, -2.0]])
            e = _extended(f)
            c = f.cutoff
            parity = (-1) ** basis.count("s")
            for n in range(-c, c + 1):
                for m in range(-c, c + 1):
                    assert e.c[c - n, c - m] == parity * e.c[c + n, c + m]
                    assert e.r[c - n, c - m] == e.r[c + n, c + m]

    def test_exp_reconstructs_value(self):
        x, y = 0.3, 0.7
        for basis in self.BASES:
            f = _field(basis, [[0.5, 1.0, 0], [0, 0, -0.75], [0.5, 0, 0.25]])
            e = _extended(f)
            c = f.cutoff
            tot = mp.mpf(0)
            for n in range(-c, c + 1):
                for m in range(-c, c + 1):
                    tot += e.c[c + n, c + m] * \
                        mp.e ** (1j * mp.pi * (n * x + m * y))
            tot = tot / (1j) ** basis.count("s")
            assert abs(float(mp.im(tot))) < 1e-12
            want = _mp_eval(f, mp.mpf(x), mp.mpf(y))
            assert abs(float(mp.re(tot)) - float(want)) < 1e-12


class TestJson:
    def test_round_trip(self):
        f = _field("sc", [[0, 0, 0], [1.5, 0, 0], [0, -0.25, 2.0]])
        f = FourierField(f.basis, f.cutoff, f.grid,
                         tail_l2=FloatBall.from_endpoints(0.0, 0.01),
                         tail_hs={F(1): FloatBall.from_endpoints(0.0, 0.5)})
        obj = f.to_json()
        assert obj["basis"] == "sc" and obj["cutoff"] == 2
        assert all(isinstance(v, str) for row in obj["re"] for v in row)
        g = FourierField.from_json(obj)
        assert np.allclose(g.grid.c, f.grid.c)
        assert g.tail_l2.upper() >= 0.01 * (1 - 1e-12)
        assert F(1) in g.tail_hs

    def test_fraction_strings(self):
        f = FourierField.single_mode("cc", 1, 0, coeff=0.5)
        obj = f.to_json()
        assert obj["re"][1][0] == "1/2"

    def test_written_fields_load_exactly(self):
        f = _field("sc", [[0, 0, 0], [1 / 3, 0, 0], [0, -0.1, 2.0]])
        f = FourierField(f.basis, f.cutoff, f.grid,
                         tail_l2=FloatBall.from_endpoints(0.0, 0.01))
        g = FourierField.from_json(f.to_json())
        assert np.array_equal(g.grid.c, f.grid.c)
        assert np.array_equal(g.grid.r, f.grid.r)
        # the written tail bound is a double, so it loads as [0, bound]
        ref = FourierField(f.basis, f.cutoff, f.grid,
                           FloatBall.from_endpoints(0.0, f.tail_l2.upper()))
        assert g.tail_l2.upper() == ref.tail_l2.upper()

    def test_tail_bounds_idempotent(self):
        # writing a loaded field gives back the bytes it was loaded from
        obj = {"basis": "sc", "cutoff": 1, "re": [["0", "0"], ["1/3", "0"]],
               "im": [["0", "0"], ["0", "0"]], "rad": [["0", "0"], ["0", "0"]],
               "tail_l2": "0.01", "tail_hs": {"1": "0.01"}}
        g = FourierField.from_json(obj)
        assert F(g.tail_l2.upper()) >= F("0.01")
        assert F(g.tail_hs[F(1)].upper()) >= F("0.01")
        texts = []
        for _ in range(4):
            text = json.dumps(g.to_json(), sort_keys=True)
            texts.append(text)
            g = FourierField.from_json(json.loads(text))
        assert len(set(texts)) == 1

    def test_strings_are_exact_ratios(self):
        # each written centre and radius is str(Fraction(v)) of the double v,
        # signed zero, subnormals and the largest double included
        rng = np.random.default_rng(2026)
        bits = rng.integers(0, 2 ** 63, 2000, dtype=np.uint64) \
            | (rng.integers(0, 2, 2000, dtype=np.uint64) << np.uint64(63))
        doubles = bits.view(np.float64)
        doubles = doubles[np.isfinite(doubles)][:500]
        special = [0.0, -0.0, 1.0, -1.0, 2.0 ** -1074, 5e-324,
                   np.finfo(np.float64).max, 1 / 3]
        vals = np.concatenate([special, doubles])
        assert len(vals) == 508
        c = np.zeros(23 * 23)
        c[:len(vals)] = vals
        c = c.reshape(23, 23)
        obj = FourierField("cc", 22, BallGrid(c, np.abs(c))).to_json()
        for key, grid in (("re", c), ("rad", np.abs(c))):
            assert obj[key] == [[str(F(v)) for v in row] for row in grid]
        assert obj["im"] == [["0"] * 23] * 23
        assert obj["re"][0][1] == "0" and obj["re"][0][5] == "1/" + str(
            2 ** 1074)

    @pytest.mark.parametrize("v, exc", [(math.nan, ValueError),
                                        (math.inf, OverflowError),
                                        (-math.inf, OverflowError)])
    def test_non_finite_entries_raise(self, v, exc):
        with pytest.raises(exc):
            F(v)
        f = FourierField("cc", 1, BallGrid([[0.0, v], [0.0, 0.0]]))
        with pytest.raises(exc):
            f.to_json()

    @settings(max_examples=60, deadline=None)
    @given(c=st.fractions(min_value=-4, max_value=4, max_denominator=10 ** 12),
           r=st.fractions(min_value=0, max_value=1, max_denominator=10 ** 12),
           t=st.fractions(min_value=0, max_value=1, max_denominator=10 ** 12))
    def test_loaded_ball_contains_written_ball(self, c, r, t):
        # a written centre c and radius r load as a ball around [c-r, c+r],
        # and a written tail bound t loads as an upper bound >= t
        obj = {"basis": "sc", "cutoff": 1, "re": [["0", "0"], [str(c), "0"]],
               "im": [["0", "0"], ["0", "0"]],
               "rad": [["0", "0"], [str(r), "0"]], "tail_l2": str(t)}
        g = FourierField.from_json(obj)
        ball = g.grid.at((1, 0))
        assert abs(c - F(ball.c)) + r <= F(ball.r)
        assert F(g.tail_l2.upper()) >= t

    @pytest.mark.parametrize("key, row", [("rad", 1), ("tail_l2", None),
                                          ("tail_hs", None)])
    def test_negative_bound_refused(self, key, row):
        # a radius or a tail bound below 0 is no bound; it loaded before
        # and came back as a negative radius
        obj = FourierField.single_mode("sc", 1, 2).to_json()
        if key == "rad":
            obj["rad"][row][2] = "-1/2"
        elif key == "tail_l2":
            obj["tail_l2"] = "-1/8"
        else:
            obj["tail_hs"] = {"6/5": "-1/8"}
        with pytest.raises(ValueError, match="negative"):
            FourierField.from_json(obj)


class TestAxisMoments:
    def test_against_mpmath_quadrature(self):
        a, b = F(1, 4), F(3, 4)
        ms = axis_trig_moments("s", 3, 4, a, b)
        mc = axis_trig_moments("c", 3, 4, a, b)
        for i, n in [(0, 1), (2, 3), (3, 4)]:
            ws = mp.quad(lambda t: t ** i * mp.sin(n * mp.pi * t),
                         [mp.mpf(1) / 4, mp.mpf(3) / 4])
            wc = mp.quad(lambda t: t ** i * mp.cos(n * mp.pi * t),
                         [mp.mpf(1) / 4, mp.mpf(3) / 4])
            gs, gc = ms.at((i, n)), mc.at((i, n))
            assert abs(gs.c - float(ws)) <= gs.r + 1e-13
            assert abs(gc.c - float(wc)) <= gc.r + 1e-13

    def test_constant_mode(self):
        mc = axis_trig_moments("c", 2, 2, F(0), F(1, 2))
        assert mc.at((1, 0)).contains(F(1, 8))
        ms = axis_trig_moments("s", 2, 2, F(0), F(1, 2))
        assert ms.at((1, 0)).c == 0.0

    def test_cached_read_only(self):
        # every expansion on a box reads one shared grid, so no caller may
        # write into it
        for cutoff in (0, 5):
            m = axis_trig_moments("c", 3, cutoff, F(1, 4), F(3, 4))
            assert axis_trig_moments("c", 3, cutoff, F(1, 4), F(3, 4)) is m
            for arr in (m.c, m.r):
                with pytest.raises(ValueError):
                    arr[0, 0] = 1.0
            with pytest.raises(ValueError):
                m.set((0, 0), FloatBall(1.0))

    def test_trig_values_cached_read_only(self):
        for char in "sc":
            v = spectral._trig_values(char, 6, F(2, 7))
            assert spectral._trig_values(char, 6, F(2, 7)) is v
            for arr in (v.c, v.r):
                with pytest.raises(ValueError):
                    arr[1] = 0.0


def _defect_tail(q, basis, cutoff):
    """The expansion of q on BOX_HALF and the L2 tail its Parseval defects
    (`spectral._defects`) bound: the L2 defect, or the H^1 defect over
    pi^2 (cutoff + 1)^2, whichever is smaller; the mollified tail
    multiplies the same two defects."""
    f = trig_poly_field(q, BOX_HALF, basis, cutoff)
    l2_def, h1_def = spectral._defects(
        f, q, BOX_HALF, spectral._component_h1_sq(q, BOX_HALF))
    return f, math.sqrt(min(l2_def,
                            h1_def / (math.pi ** 2 * (cutoff + 1) ** 2)))


class TestTrigPolyField:
    @pytest.mark.parametrize("k", [1, 3])
    def test_pullback_equals_two_step_composition(self, k):
        # one composition x -> (2x - 1)/beta of the base gives, in exact
        # rationals, the trim's x -> x/beta followed by x -> 2x - 1
        for el in (EL, EL2, EL3):
            trimmed = pf.trim(el.base, k)
            for j in (1, 2):
                assert spectral._pullback_component(trimmed, j) == \
                    _pullback(trimmed.component(j))

    def test_new_element_composed_once_per_component(self, monkeypatch):
        # mollify builds no rescaled trim, and the expansion composes each
        # base component once
        calls = []
        compose = pf.RationalPoly2.compose_affine

        def counting(q, *args):
            calls.append(args)
            return compose(q, *args)
        monkeypatch.setattr(pf.RationalPoly2, "compose_affine", counting)
        el = pf.mollify(BASE.scale(F(-27, 16)), 1, 2)
        assert calls == []
        spectral.mollified_field_pair(el, 8)
        assert len(calls) == 2

    def test_expansion_cache_bounded(self):
        # the cache keeps the expansions of a few (element, component,
        # cutoff) only, and the latest element's stay warm
        cache = spectral._component_expansion
        for c in range(1, 7):
            el = pf.mollify(BASE.scale(F(c, 4)), 1, 2)
            mollified_field_pair(el, 6)
            assert cache.cache_info().currsize <= 8
        before = cache.cache_info()
        mollified_field_pair(el, 6)
        after = cache.cache_info()
        assert (after.hits, after.misses) == (before.hits + 2, before.misses)

    def test_parseval_contains_exact_mass(self):
        for j, basis in ((1, "sc"), (2, "cs")):
            q = _pullback(EL.trimmed.component(j))
            exact = poly_inner_on_box(q, q, BOX_HALF)
            f, tail = _defect_tail(q, basis, 24)
            sq = f.l2_sq_ball()
            assert sq.lower() <= float(exact) <= sq.upper() + tail * tail
            assert tail < 0.05

    def test_tail_shrinks_with_cutoff(self):
        q = _pullback(EL.trimmed.component(2))
        assert _defect_tail(q, "cs", 32)[1] < _defect_tail(q, "cs", 8)[1] / 4

    def test_coefficient_against_grid_quadrature(self):
        q = _pullback(EL.trimmed.component(1))
        f = trig_poly_field(q, BOX_HALF, "sc", 4)
        xs = np.linspace(0.25, 0.75, 1501)
        qv = np.zeros((xs.size, xs.size))
        for i, row in enumerate(q.a):
            for j, v in enumerate(row):
                if v:
                    qv += float(v) * np.outer(xs ** i, xs ** j)
        for n, m in [(2, 1), (1, 0), (3, 2)]:
            w = (0.5 if n else 0.0) * (0.5 if m else 1.0)
            if w == 0:
                continue
            mode = np.outer(np.sin(n * np.pi * xs), np.cos(m * np.pi * xs))
            val = np.trapezoid(np.trapezoid(qv * mode, xs, axis=1), xs) / w
            got = f.grid.at((n, m))
            assert abs(got.c - val) <= got.r + 1e-6


def _mp_h1(rho):
    # h1 = -gamma0 d/drho exp(-1/(1 - rho^2)), gamma0 = 1/(4 (e^-1 - E_1(1)))
    g0 = 1 / (4 * (mp.exp(-1) - mp.e1(1)))
    v = 1 - rho * rho
    if v == 0:
        return mp.mpf(0)  # h1 is flat at rho = 1
    return g0 * 2 * rho * mp.exp(-1 / v) / (v * v)


class TestH1Models:
    def test_panels_tile_the_unit_interval(self):
        num, den, coef, rem = _h1_models()
        ends = [(F(n - 1, d), F(n + 1, d)) for n, d in zip(num, den)]
        assert ends[0][0] == 0 and ends[-1][1] == 1
        assert all(a[1] == b[0] for a, b in zip(ends, ends[1:]))
        assert coef.shape == (len(num), _H1_ORDER)
        assert (rem > 0).all() and (rem <= 2.0 ** -46).all()

    def test_midpoint_coefficients_against_mpmath(self):
        # the recurrence at the exact midpoint against mpmath's Taylor
        # coefficients of h1 at 50 digits; a zero model is an edge panel.
        # The remainder bounds the next coefficient over the whole panel,
        # so it is at least the next term at the midpoint
        num, den, coef, rem = _h1_models()
        with mp.workdps(50):
            for p, (n, d) in enumerate(zip(num, den)):
                if not coef.c[p].any():
                    continue
                ref = mp.taylor(_mp_h1, mp.mpf(n) / d, _H1_ORDER)
                for t in range(_H1_ORDER):
                    c, r = mp.mpf(coef.c[p, t]), mp.mpf(coef.r[p, t])
                    assert c - r <= ref[t] <= c + r, (n, d, t)
                assert rem[p] >= abs(ref[-1]) / mp.mpf(d) ** _H1_ORDER

    def test_remainder_bounds_the_model_error(self):
        # |h1 - model| <= rem at 21 points of every panel, the model's
        # coefficient radii taken at their largest
        num, den, coef, rem = _h1_models()
        with mp.workdps(50):
            for p, (n, d) in enumerate(zip(num, den)):
                mid, half = mp.mpf(n) / d, mp.mpf(1) / d
                for i in range(21):
                    x = half * (mp.mpf(i) / 10 - 1)
                    model = sum(mp.mpf(coef.c[p, t]) * x ** t
                                for t in range(_H1_ORDER))
                    spread = sum(mp.mpf(coef.r[p, t]) * abs(x) ** t
                                 for t in range(_H1_ORDER))
                    err = abs(_mp_h1(mid + x) - model) - spread
                    assert err <= rem[p], (n, d, i)

    def test_rows_match_their_own_midpoint_recurrence(self):
        # the coefficients come from one recurrence over all kept midpoints;
        # each row has the bits of the recurrence at its midpoint alone, and
        # a zero row is a panel whose sup of h1 is the remainder
        num, den, coef, rem = _h1_models()
        g0 = spectral._fb_gamma0()
        models = 0
        for p, (n, d) in enumerate(zip(num, den)):
            if not (coef.c[p].any() or coef.r[p].any()):
                assert rem[p] == spectral._h1_edge_bound(
                    np.array([(n - 1) / d]), g0)[0]
                continue
            one = spectral._h1_coeffs(BallGrid(np.array([n / d])), g0,
                                      _H1_ORDER)
            assert np.array_equal(one.c[0], coef.c[p]), (n, d)
            assert np.array_equal(one.r[0], coef.r[p]), (n, d)
            models += 1
        assert models > len(num) // 2


class TestMollifierGrid:
    def test_mass_mode_exact(self):
        g = mollifier_mode_grid(3, 4)
        b = g.at((0, 0))
        assert b.c == 1.0 and b.r == 0.0

    def test_values_in_unit_interval_and_symmetric(self):
        g = mollifier_mode_grid(2, 10)
        assert (g.c - g.r <= 1.0 + 1e-12).all()
        assert (g.c + g.r >= -1e-9).all() or True  # coefficients may dip
        assert np.allclose(g.c, g.c.T)

    def test_dual_route_against_polyfield(self):
        for nu in (2, 3):
            g = mollifier_mode_grid(nu, 8)
            for n, m in [(1, 0), (2, 2), (5, 3), (8, 8), (7, 0)]:
                ref = oracles.mollifier_cos_coefficient(nu, n, m, kbits=40)
                assert _overlaps(g.at((n, m)), ref), (nu, n, m)

    @pytest.mark.parametrize("nu", [2, 3, 4])
    def test_transforms_against_scalar_route(self, nu):
        # the tensor pass on the recurrence models of h1 against the
        # panel-by-panel scalar route on the TSeries models
        phi, psi = _window_grid(nu, 128)
        for n in list(range(65)) + [127, 128]:
            phi_o, psi_o = oracles.window_transforms(n, nu)
            assert _overlaps(phi.at(n), phi_o), (nu, n)
            assert _overlaps(psi.at(n), psi_o), (nu, n)

    def test_transform_exact_at_zero(self):
        phi, psi = _window_grid(3, 4)
        assert (psi.c[0], psi.r[0]) == (0.0, 0.0)
        assert _overlaps(phi.at(0), oracles.window_transforms(0, 3)[0])

    @pytest.mark.parametrize("q", [F(1, 512), F(3, 5), F(5, 8), F(3, 2),
                                   F(9, 2), F(33, 2), F(17), F(129, 4)])
    def test_ab_tables_against_mpmath(self, q):
        # y = q pi in both regimes: the series (y < 2) and the interval
        # recurrence (y >= 2, here up to y > 100), against the power
        # series summed at 150 digits (its terms reach e^y / y)
        a, b = _ab_grid(np.array([q.numerator]), q.denominator, 12)
        with mp.workdps(150):
            y = mp.pi * q.numerator / q.denominator
            for t in range(13):
                # int_0^1 v^t e^{i y v} dv = sum_k (i y)^k / (k! (t+k+1))
                total, term, k = mp.mpc(0), mp.mpc(1), 0
                while k <= y or abs(term) > mp.mpf(10) ** -130:
                    total += term / (t + k + 1)
                    k += 1
                    term *= 1j * y / k
                for g, ref in ((a, total.real), (b, total.imag)):
                    ball = g.at((0, t))
                    # the reference is good to ~1e-125; sin(17 pi) = 0 is
                    # held in a radius of 1e-307
                    c, r = mp.mpf(ball.c), mp.mpf(ball.r) + mp.mpf(10) ** -120
                    assert c - r <= ref <= c + r, (q, t)
                    assert ball.r < 1e-13

    def test_transform_against_certified_quadrature(self):
        # phi and psi at x = 3 pi / 4 by exact-arithmetic quadrature
        xb = bv_pi(80).scale(F(3, 4))
        phi, psi = _window_grid(2, 3)
        phi, psi = phi.at(3), psi.at(3)
        phi_o = oracles.transform_small_x(xb, False)
        psi_o = oracles.transform_small_x(xb, True)
        assert phi.lower() <= phi_o.upper() and phi.upper() >= phi_o.lower()
        assert psi.lower() <= psi_o.upper() and psi.upper() >= psi_o.lower()

    # (n, m): the grid entry (centre, radius) before the window products
    # became ball products, and the enclosure (centre, radius) of
    # oracles.mollifier_cos_coefficient(3, n, m, 40), rounded to nearest;
    # frozen, as the oracle takes up to 30 s an entry
    FROZEN_3_64 = {
        (1, 0): ((0.986628122411184, 4.993869065079934e-14),
                 (0.9866281224111837, 2.810285256404744e-14)),
        (0, 7): ((0.4722704384627339, 3.690597644992192e-14),
                 (0.47227043846272254, 5.651499991418801e-14)),
        (3, 2): ((0.8380063403406608, 8.345515377376724e-14),
                 (0.8380063403406753, 9.831506133345544e-15)),
        (12, 5): ((0.0061321852473980275, 1.2752139865580269e-14),
                  (0.006132185247397868, 3.7552918479435775e-13)),
        (20, 20): ((0.01800534400460524, 1.1560151780077902e-15),
                   (0.018005344004605146, 1.487520705895699e-10)),
        (31, 2): ((0.00688241614743077, 1.5451738743813952e-14),
                  (0.00688241614743121, 1.9440036668220396e-10)),
    }

    def test_grid_overlaps_frozen_values(self):
        g = mollifier_mode_grid(3, 64)
        for (n, m), frozen in self.FROZEN_3_64.items():
            for idx in ((n, m), (m, n)):
                b = g.at(idx)
                for c, r in frozen:
                    gap = abs(F(b.c) - F(c))
                    assert gap <= F(b.r) + F(r) + F(math.ulp(c)), (idx, c)

    def test_radii_stay_small_at_high_modes(self):
        g = mollifier_mode_grid(4, 64)
        assert float(g.r.max()) < 1e-10

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            mollifier_mode_grid(-1, 4)


class TestMollifiedTail:
    """`_mollified_tail` against its formula at 60 digits, with
    gamma0 = 1/(4 E_2(1)) from mpmath."""

    @staticmethod
    def _reference(nu, cutoff, l2, h1):
        with mp.workdps(60):
            d0 = 2 ** (2 * nu) / (4 * mp.expint(2, 1) * mp.e)
            e = max(4 * d0 / mp.pi ** 2, 4 * d0 / 2 ** nu / mp.pi)
            cp = mp.mpf(cutoff + 1)
            env = min(1, e / cp)
            return mp.sqrt(min(env ** 2 * l2,
                               e ** 2 * h1 / (cp ** 4 * mp.pi ** 2)))

    # each route wins once, and the envelope is clipped at 1 once
    @pytest.mark.parametrize("nu, cutoff, l2, h1", [
        (3, 64, 1e-6, 1e-2), (3, 64, 1e-20, 1e3), (1, 0, 0.5, 0.5),
        (4, 2047, 2.0 ** -900, 2.0 ** -880), (2, 8, 3e-3, 7e-1)])
    def test_upper_bound(self, nu, cutoff, l2, h1):
        ref = self._reference(nu, cutoff, mp.mpf(l2), mp.mpf(h1))
        tail = _mollified_tail(nu, cutoff, l2, h1)
        assert tail.lower() <= 0.0
        assert ref <= mp.mpf(tail.upper()) <= ref * (1 + mp.mpf(10) ** -12)


class TestMollifiedFields:
    def test_point_oracle(self):
        f1, f2 = mollified_field_pair(EL, 16)
        xh, yh = F(1, 2), F(3, 8)
        exact1, exact2 = oracles.mollified_value(EL, 2 * xh - 1, 2 * yh - 1,
                                                 kbits=16)
        for f, exact in ((f1, exact1), (f2, exact2)):
            # the L2 tail alone does not bound point values, so check the
            # band-limited partial sum against the exact convolution value
            partial = oracles.eval_ball(
                FourierField(f.basis, f.cutoff, f.grid), xh, yh)
            mid = float(exact.lower() + exact.upper()) / 2
            assert abs(partial.c - mid) < 0.05

    def test_norm_two_routes(self):
        # canonical Parseval mass vs the exact polynomial route through
        # the approximation defect: || gamma*T - T ||_2 <= defect
        f1, f2 = mollified_field_pair(EL, 64)
        sq = f1.l2_sq_ball() + f2.l2_sq_ball()
        moll_norm = 2 * math.sqrt(max(sq.lower(), 0.0)), \
            2 * math.sqrt(sq.upper())
        t = EL.trimmed
        exact_trim = math.sqrt(float(t.l2_norm_sq()))
        defect = float(pf.approximation_defect(BASE, 1, 2).upper())
        # the trimmed-vs-base part of the defect also covers trim, so use
        # a generous band
        assert moll_norm[0] - 1e-9 <= exact_trim + defect
        assert moll_norm[1] >= exact_trim - defect - 1e-9

    def test_hs_tails_requested(self):
        f1, _ = mollified_field_pair(EL, 32, hs_tails=(F(1),))
        n = f1.hs_norm(F(1))
        assert n.upper() > n.lower() >= 0
        with pytest.raises(ValueError):
            f1.hs_norm(F(3, 2))

    def test_hs_tail_order_restriction(self):
        with pytest.raises(ValueError):
            mollified_field_pair(EL, 8, hs_tails=(F(2),))

    def test_tail_shrinks_with_cutoff(self):
        _, fa = mollified_field_pair(EL, 16)
        _, fb = mollified_field_pair(EL, 64)
        assert fb.tail_l2.upper() < fa.tail_l2.upper()


class TestMetric:
    def test_self_distance_small(self):
        d = mollified_distance(EL, EL, 8)
        assert d.lower() <= 0 <= d.upper()
        assert d.upper() <= F(1, 1 << 8)

    def test_symmetry(self):
        d1 = mollified_distance(EL, EL2, 8)
        d2 = mollified_distance(EL2, EL, 8)
        assert d1.lower() <= d2.upper() and d2.lower() <= d1.upper()

    def test_radius_meets_request(self):
        for kb in (6, 10):
            d = mollified_distance(EL, EL2, kb)
            assert d.radius <= F(1, 1 << kb)

    def test_triangle_inequality(self):
        dab = mollified_distance(EL, EL2, 6)
        dbc = mollified_distance(EL2, EL3, 6)
        dac = mollified_distance(EL, EL3, 6)
        assert float(dac.lower()) <= float(dab.upper()) + float(dbc.upper())

    def test_dual_route_against_exact_polynomials(self):
        # || gamma*T(p) - gamma*T(q) || within the exact polynomial distance
        # plus both approximation defects
        d = mollified_distance(EL, EL2, 8)
        diff = BASE.scale(F(-1, 2))  # p - 3p/2
        exact = math.sqrt(float(diff.l2_norm_sq()))
        da = float(pf.approximation_defect(BASE, 1, 2).upper())
        db = float(pf.approximation_defect(BASE.scale(F(3, 2)), 1, 3).upper())
        assert float(d.lower()) <= exact + da + db
        assert float(d.upper()) >= exact - da - db

    def test_precision_cap(self):
        with pytest.raises(ValueError):
            mollified_distance(EL, EL2, 37)


def _named_calls(tree):
    """(innermost enclosing function name, called name) for every call of
    a bare name or an attribute (``spectral.f(...)``) in a module tree."""
    out = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else fn
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name):
                    out.append((inner, func.id))
                elif isinstance(func, ast.Attribute):
                    out.append((inner, func.attr))
            visit(child, inner)
    visit(tree, None)
    return out


class TestElementCutoffRule:
    """Every consumer picks an element's cutoff from a precision through
    `resolve_element`, the one search over the rungs."""

    def test_consumers_reach_the_search(self, monkeypatch):
        seen = []
        real = spectral._pair_tail_upper

        def tails(elem, cutoff):
            seen.append(cutoff)
            return real(elem, cutoff)
        monkeypatch.setattr(spectral, "_pair_tail_upper", tails)
        f1, _ = helmholtz.resolve_field(EL, 13)
        assert (seen, f1.cutoff) == ([64, 128], 128)
        seen.clear()
        d = mollified_distance(EL, EL2, 10)
        assert d.radius <= F(1, 1 << 10)
        assert seen[0] == 64 and len(seen) >= 3

    def test_expansion_only_in_the_rule_and_the_nonlinearity(self):
        # the library expands an element in two places, whatever the
        # cutoff argument: the rule, and nse.nonlinearity, whose own ladder
        # passes on the H^{6/5} product defect, not on an L2 tail
        src = pathlib.Path(spectral.__file__).parent
        sites = {"_pair_tail_upper": set(), "mollified_field_pair": set()}
        for path in sorted(src.glob("*.py")):
            for fn, name in _named_calls(ast.parse(path.read_text())):
                if name in sites:
                    sites[name].add((path.name, fn))
        assert sites == {
            "_pair_tail_upper": {("spectral.py", "resolve_element")},
            "mollified_field_pair": {("spectral.py", "resolve_element"),
                                     ("nse.py", "nonlinearity")}}

    def test_default_is_the_first_rung(self):
        f1, f2 = spectral.resolve_element(EL)
        g1, g2 = mollified_field_pair(EL, 64)
        for f, g in ((f1, g1), (f2, g2)):
            assert f.to_json() == g.to_json()


class TestCoefficients:
    def test_retruncation(self):
        # the coefficients of a field at a lower cutoff: the dropped
        # diagonal mode folds into the tail alongside the corner one
        f = _field("cc", [[1.0, 0, 0], [0, 0.5, 0], [0, 0, 0.25]])
        t = f.truncated(1)
        assert t.cutoff == 1 and t.tail_l2.upper() > 0
        assert t.l2_sq_ball().upper() >= 1.0 + 0.25 / 4 + 0.0625 / 4 - 1e-12


class TestNameCalculus:
    def _perturbed_name(self, limit, pert_mode, s):
        def query(k):
            eps = F(1, 1 << (k + 2))
            pert = FourierField.single_mode(limit.basis, *pert_mode,
                                            coeff=float(eps))
            return limit + pert
        return SobolevName(Name(query), s)

    def test_differentiate_modulus(self):
        limit = FourierField.single_mode("sc", 1, 1)
        w = self._perturbed_name(limit, (1, 0), F(1))
        d = differentiate(w, 1)
        exact = limit.derivative(1)
        for n in (3, 5):
            err = (d.refine(n) - exact).l2_norm_ball().upper()
            assert err <= 2.0 ** -n

    def test_differentiate_requires_s_ge_1(self):
        limit = FourierField.single_mode("sc", 1, 1)
        w = self._perturbed_name(limit, (1, 0), F(1, 2))
        with pytest.raises(ValueError):
            differentiate(w, 1)
        w1 = self._perturbed_name(limit, (1, 0), F(1))
        with pytest.raises(ValueError):
            differentiate(w1, 3)

    def test_multiply_modulus(self):
        fv = FourierField.single_mode("cc", 1, 1)
        fw = FourierField.single_mode("cc", 1, 0, coeff=0.5)
        v = self._perturbed_name(fv, (2, 0), F(3, 2))
        w = self._perturbed_name(fw, (0, 2), F(3, 2))
        prod = multiply(v, w)
        exact = fv.multiply(fw)
        for n in (2, 4):
            err = (prod.refine(n) - exact).l2_norm_ball().upper()
            assert err <= 2.0 ** -n

    def test_multiply_requires_s_gt_1(self):
        fv = FourierField.single_mode("cc", 1, 1)
        v = self._perturbed_name(fv, (2, 0), F(1))
        w = self._perturbed_name(fv, (0, 2), F(3, 2))
        with pytest.raises(ValueError):
            multiply(v, w)

    def test_sobolev_bound_from_first_approximant(self):
        f = FourierField.single_mode("ss", 2, 2)
        v = SobolevName(Name(lambda k: f), F(3, 2))
        assert v.hs_bound >= f.hs_norm(F(3, 2)).upper()


# ---------------------------------------------------------------------------
# the sup-norm embedding constant
# ---------------------------------------------------------------------------

class TestSupConstant:
    """`sup_constant`, the C_s of the H^{6/5} product estimate: one
    `mode_weights` sum over n, m <= 24 and a closed-form integral tail."""

    # the upper ends of the 120-bit BoundedValue route that computed C_s in
    # the constants table before, frozen
    TABLE_UPPER = {F(6, 5): 2.5714172304646143, F(3, 2): 1.7087999380917203,
                   F(2): 1.3657109165839856}

    def test_embedding_constant(self):
        cs = sup_constant(F(6, 5))
        assert cs.lower() > 1  # the (0,0) term alone contributes 1
        for s in (F(1, 2), F(1)):
            with pytest.raises(ValueError):
                sup_constant(s)

    @pytest.mark.parametrize("s", sorted(TABLE_UPPER), ids=str)
    def test_holds_the_sum_and_its_tail_bound(self, s):
        # the sum over all n, m lies between the head and the head plus the
        # tail bound, so the ball holds the square roots of both (50 digits)
        cs = sup_constant(s)
        with mp.workdps(50):
            q = mp.mpf(s.numerator) / s.denominator
            head = mp.fsum((1 + n * n + m * m) ** -q
                           for n in range(25) for m in range(25))
            n24 = mp.mpf(24)
            tail = 2 * (n24 ** (1 - 2 * q) / (2 * q - 1)
                        + mp.pi / 2 * n24 ** (2 - 2 * q) / (2 * q - 2))
            for value in (mp.sqrt(head), mp.sqrt(head + tail)):
                assert cs.lower() <= value <= cs.upper()
        old = self.TABLE_UPPER[s]
        assert abs(cs.upper() - old) <= 1e-12 * old

    def test_cached_per_exponent(self):
        assert sup_constant(F(6, 5)) is sup_constant(F(6, 5))
