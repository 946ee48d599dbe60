"""Soundness tests for the double-precision ball layer.

The transcendental checks compare against mpmath evaluated at 30 digits,
which is an independent implementation; containment must hold for every
sampled argument.
"""

import ast
import math
import pathlib
import random
import re
import sys
from fractions import Fraction as F

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from solenoid.floatball import (
    FB_LN2, FB_PI, FB_PI_2,
    BallGrid, FloatBall, ball_fold_convolve, ball_matmul, ceil_log2,
    fb_exp, fb_log, fb_pow, fb_sincos, fb_sqrt, grid_exp,
    grid_log, grid_pow, grid_sincos_pi, pow_up,
)
from solenoid.floatball import (_ATANH, _EXP, _SINCOS, TINY, _add_up,
                                _atanh_series, _exp_series, _floored,
                                _gamma, _sincos_series)

from oracles import RefBall, ball_convolve

mp.mp.dps = 30

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
small = st.floats(min_value=-30.0, max_value=30.0,
                  allow_nan=False, allow_infinity=False)


def _contains_mp(ball, value) -> bool:
    return mp.mpf(ball.lower()) <= value <= mp.mpf(ball.upper())


class TestBallOps:
    @given(x=finite, y=finite)
    def test_add_mul_contain_exact(self, x, y):
        bx, by = FloatBall(x), FloatBall(y)
        assert (bx + by).contains(F(x) + F(y))
        assert (bx * by).contains(F(x) * F(y))
        assert (bx - by).contains(F(x) - F(y))

    @given(x=finite, y=finite.filter(lambda v: abs(v) > 1e-3))
    def test_div_contains_exact(self, x, y):
        assert (FloatBall(x) / FloatBall(y)).contains(F(x) / F(y))

    def test_div_through_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            FloatBall(1.0) / FloatBall(0.5, 0.5)

    def test_exact_fraction_enclosure(self):
        b = FloatBall.exact(F(1, 3))
        assert b.contains(F(1, 3)) and b.r < 1e-16

    @given(hi=st.floats(min_value=0.0, max_value=1e300))
    def test_zero_based_interval(self, hi):
        # [0, hi] is enclosed, and exactly so unless hi/2 is inexact
        b = FloatBall.from_endpoints(0.0, hi)
        assert b.contains(F(0)) and b.contains(F(hi))
        if hi >= 2.0 ** -1021:
            assert b.lower() == 0.0 and b.upper() == hi

    def test_zero_based_interval_subnormal(self):
        hi = 3 * 5e-324  # hi/2 rounds, so the generic rule applies
        b = FloatBall.from_endpoints(0.0, hi)
        assert b.contains(F(0)) and b.contains(F(hi))

    def test_abs_ball_through_zero(self):
        # fl(0.1 + 0.7) lies below the exact |c| + r of this ball
        b = FloatBall(-0.1, 0.7).abs_ball()
        assert b.contains(F(0.1) + F(0.7)) and b.contains(F(0))

    @given(c=finite, r=st.floats(min_value=0, max_value=1e6))
    def test_abs_ball_contains_extremes(self, c, r):
        b = FloatBall(c, r).abs_ball()
        assert b.contains(abs(F(c)) + F(r))
        assert b.contains(max(abs(F(c)) - F(r), F(0)))

    @given(x=finite, r=st.floats(min_value=0, max_value=10.0))
    def test_hull_and_widen(self, x, r):
        a = FloatBall(x, r)
        b = FloatBall(x + 1.0, 0.0)
        h = a.hull(b)
        assert h.contains(F(x)) and h.contains(F(x + 1.0))
        assert a.widened(0.5).contains(F(x) + F(r))


class TestTranscendentals:
    @given(x=st.floats(min_value=-700, max_value=700,
                       allow_nan=False, allow_infinity=False))
    def test_exp_containment(self, x):
        assert _contains_mp(fb_exp(FloatBall(x)), mp.exp(mp.mpf(x)))

    @given(x=finite)
    def test_sincos_containment(self, x):
        s, c = fb_sincos(FloatBall(x))
        assert _contains_mp(s, mp.sin(mp.mpf(x)))
        assert _contains_mp(c, mp.cos(mp.mpf(x)))

    @given(x=st.floats(min_value=1e-12, max_value=1e12,
                       allow_nan=False, allow_infinity=False))
    def test_log_containment(self, x):
        assert _contains_mp(fb_log(FloatBall(x)), mp.log(mp.mpf(x)))

    def test_exp_log_round_trip(self):
        b = fb_log(fb_exp(FloatBall(1.25)))
        assert b.contains(F(1.25))

    def test_pythagorean_identity(self):
        for x in (0.1, 1.0, 2.5, 40.0, -13.7):
            s, c = fb_sincos(FloatBall(x))
            assert (s * s + c * c).contains(F(1))

    def test_ball_argument_spread(self):
        e = fb_exp(FloatBall(0.0, 0.5))
        assert e.lower() <= math.exp(-0.5) and e.upper() >= math.exp(0.5)
        s = fb_sincos(FloatBall(0.0, 0.2))[0]
        assert s.lower() <= math.sin(-0.2) and s.upper() >= math.sin(0.2)

    def test_sqrt(self):
        b = fb_sqrt(FloatBall(2.0))
        assert _contains_mp(b, mp.sqrt(2))
        z = fb_sqrt(FloatBall(0.0, 1e-8))
        assert z.lower() <= 0.0 <= z.upper()

    def test_pow_rational(self):
        b = fb_pow(FloatBall(2.0), F(1, 3))
        assert _contains_mp(b, mp.cbrt(2))
        assert fb_pow(FloatBall(3.0), F(4)).contains(F(81))
        assert fb_pow(FloatBall(2.0), F(-2)).contains(F(1, 4))

    @pytest.mark.parametrize("q", [F(1, 4), F(6, 5)])
    @pytest.mark.parametrize("c", [0.0, 1e-300])
    def test_pow_of_ball_with_lower_end_zero(self, q, c):
        # the lower end 0 once sent fb_pow into endless recursion
        b = fb_pow(FloatBall(c, c), q)
        qm = mp.mpf(q.numerator) / q.denominator
        assert b.lower() <= 0.0
        assert _contains_mp(b, mp.power(2 * mp.mpf(c), qm))
        assert b.upper() <= 2 * float(mp.power(2 * mp.mpf(c), qm)) + 1e-306

    @pytest.mark.parametrize("q", [F(1, 4), F(6, 5)])
    def test_pow_of_ball_reaching_below_zero(self, q):
        # [-1e-300, 1e-300] holds negative bases, whose rational powers
        # are not defined: an error, not a recursion
        with pytest.raises(ValueError):
            fb_pow(FloatBall(0.0, 1e-300), q)

    def test_log_rejects_zero(self):
        with pytest.raises(ValueError):
            fb_log(FloatBall(0.5, 0.5))

    def test_large_trig_argument_rejected(self):
        with pytest.raises(ValueError):
            fb_sincos(FloatBall(1e13))[1]

    def test_constants_carry_their_distance(self):
        # each constant is the double nearest its value, and its radius is
        # that double's distance to the 60-digit literal plus the literal's
        # 10^-60, rounded up: at most the true distance plus 2 10^-60, one
        # rounding up
        with mp.workdps(80):
            for ball, ref in ((FB_LN2, mp.ln2), (FB_PI, mp.pi),
                              (FB_PI_2, mp.pi / 2)):
                dist = abs(mp.mpf(ball.c) - ref)
                assert ball.c == float(ref)
                assert dist <= ball.r <= (dist + 2 * mp.mpf(10) ** -60) \
                    * (1 + mp.mpf(2) ** -52)


class TestBridge:
    @given(x=st.fractions(min_value=-100, max_value=100,
                          max_denominator=1 << 20))
    def test_round_trip_contains(self, x):
        bv = RefBall.from_fraction(x)
        fb = FloatBall.from_bounded(bv)
        assert fb.contains(x)
        assert fb.to_bounded().contains(x)

    def test_to_bounded_is_the_endpoint_ball(self):
        # the former to_bounded, from_endpoints(c - r, c + r) at 120 bits,
        # written out in Fractions: on doubles it is the exact ball (c, r)
        def rounded(f, up):
            p, q = f.numerator, f.denominator
            if p == 0:
                return F(0)
            e = p.bit_length() - q.bit_length() - 120
            num, den = (p, q << e) if e >= 0 else (p << -e, q)
            return F(-((-num) // den) if up else num // den) * F(2) ** e

        rng = random.Random(34)
        balls = [(0.0, 0.0), (0.0, 5e-324), (1.0, 0.0), (5e-324, 5e-324),
                 (-1.5, 2.2250738585072014e-308), (-2.0 ** 1000, 1e-300),
                 (2.0 ** 1000, 2.0 ** 990)]
        for _ in range(20000):
            c = math.ldexp(rng.uniform(-1, 1), rng.randint(-1074, 1001))
            r = rng.choice([
                0.0, math.ldexp(rng.random(), -1022),  # subnormal
                abs(c) * math.ldexp(rng.random(), -rng.randint(0, 60)),
                math.ldexp(rng.random(), rng.randint(-1074, 1000))])
            balls.append((c, r))
        for c, r in balls:
            lo, hi = F(c) - F(r), F(c) + F(r)
            mid = rounded((lo + hi) / 2, False)
            ref = (mid, rounded(max(hi - mid, mid - lo), True))
            bv = FloatBall(c, r).to_bounded()
            assert (bv.center, bv.radius) == ref == (F(c), F(r)), (c, r)


class TestBallGrid:
    def test_elementwise_containment(self):
        a = BallGrid(np.array([1.0, -2.0, 0.25]), np.array([0.0, 1e-15, 0.0]))
        b = BallGrid(np.array([3.0, 0.5, -4.0]))
        s = a + b
        p = a * b
        for i, (x, y) in enumerate([(1, 3), (-2, 0.5), (0.25, -4)]):
            assert s.at(i).contains(F(x) + F(y))
            assert p.at(i).contains(F(x) * F(y))

    def test_scale_ball(self):
        g = BallGrid(np.array([2.0, -6.0]))
        out = g * FloatBall.exact(F(1, 3))
        assert out.at(0).contains(F(2, 3))
        assert out.at(1).contains(F(-2))

    def test_sumsq_ball(self):
        g = BallGrid(np.array([3.0, 4.0]))
        assert g.sumsq_ball().contains(F(25))

    def test_hull_covers_both(self):
        a = BallGrid(np.array([0.0]), np.array([1.0]))
        b = BallGrid(np.array([5.0]), np.array([0.5]))
        h = a.hull(b)
        assert h.at(0).contains(F(-1)) and h.at(0).contains(F(11, 2))

    def test_negation_copies_radius(self):
        # `set` writes in place, so -g must not share g's radius
        g = BallGrid(np.array([1.0, 2.0]), np.array([0.5, 0.25]))
        n = -g
        n.set(0, FloatBall(0.0, 4.0))
        assert g.r[0] == 0.5 and g.c[0] == 1.0

    def test_set_and_at(self):
        g = BallGrid.zeros((2, 2))
        g.set((1, 0), FloatBall(7.0, 0.125))
        got = g.at((1, 0))
        assert got.c == 7.0 and got.r == 0.125


def _gamma_exact(n):
    return F(n, 2 ** 53 - n)


class TestBilinear:
    """Exact Fraction references for the gamma_n rule of the matmul and the
    convolution, on data engineered to cancel."""

    def test_matmul_cancelling_dot(self):
        k = 64
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, k))
        y = rng.normal(size=(k, 1))
        rest = sum(F(x[0, i]) * F(y[i, 0]) for i in range(k - 1))
        y[k - 1, 0] = float(-rest / F(x[0, k - 1]))
        exact = sum(F(x[0, i]) * F(y[i, 0]) for i in range(k))
        abs_sum = sum(abs(F(x[0, i]) * F(y[i, 0])) for i in range(k))
        assert abs(exact) < abs_sum * F(1, 10 ** 12)
        out = ball_matmul(BallGrid(x), BallGrid(y)).at((0, 0))
        assert out.contains(exact)
        assert F(out.r) >= _gamma_exact(k) * abs_sum

    def test_convolve_contains_exact(self):
        rng = np.random.default_rng(11)
        x = BallGrid(rng.normal(size=(3, 4)), np.abs(rng.normal(size=(3, 4))))
        y = BallGrid(rng.normal(size=(5, 2)),
                     np.abs(rng.normal(size=(5, 2))) * 1e-3)
        out = ball_convolve(x, y)
        assert out.shape == (7, 5)
        n = 2 + min(3, 5)
        for _ in range(4):
            # a point of each input ball: an endpoint or the centre
            px = [[F(x.c[i, j]) + rng.integers(-1, 2) * F(x.r[i, j])
                   for j in range(4)] for i in range(3)]
            py = [[F(y.c[i, j]) + rng.integers(-1, 2) * F(y.r[i, j])
                   for j in range(2)] for i in range(5)]
            for a in range(7):
                for b in range(5):
                    pairs = [(i, j, a - i, b - j) for i in range(3)
                             for j in range(4)
                             if 0 <= a - i < 5 and 0 <= b - j < 2]
                    val = sum(px[i][j] * py[k][l] for i, j, k, l in pairs)
                    ball = out.at((a, b))
                    assert ball.contains(val)
                    abs_sum = sum(abs(F(x.c[i, j]) * F(y.c[k, l]))
                                  for i, j, k, l in pairs)
                    assert F(ball.r) >= _gamma_exact(n) * abs_sum


def _slot_terms(p, q, s, t, a, b):
    """The index quadruples (i, j, k, l) of x[i, j] y[k, l] in slot (a, b)
    of the full convolution of a (p, q) grid by an (s, t) grid."""
    return [(i, j, a - i, b - j) for i in range(p) for j in range(q)
            if 0 <= a - i < s and 0 <= b - j < t]


def _check_points(x, y, origin, rng, draws=6):
    """ball_convolve(x, y, origin) against the exact Fraction convolution
    of points of the input balls: the centres, every upper end, every lower
    end and ``draws`` random choices among the three per entry.  Returns
    the output and the slot terms by output index."""
    out = ball_convolve(x, y, origin)
    (p, q), (s, t) = x.shape, y.shape
    assert out.shape == (p + s - 1 - origin, q + t - 1 - origin)
    slots = {(a - origin, b - origin): _slot_terms(p, q, s, t, a, b)
             for a in range(origin, p + s - 1)
             for b in range(origin, q + t - 1)}
    fixed = [np.zeros, np.ones, lambda shape: -np.ones(shape)]
    picks = [(f(x.shape), f(y.shape)) for f in fixed] + \
        [(rng.integers(-1, 2, size=x.shape), rng.integers(-1, 2, size=y.shape))
         for _ in range(draws)]
    for sx, sy in picks:
        px = [[F(x.c[i, j]) + int(sx[i, j]) * F(x.r[i, j]) for j in range(q)]
              for i in range(p)]
        py = [[F(y.c[k, l]) + int(sy[k, l]) * F(y.r[k, l]) for l in range(t)]
              for k in range(s)]
        for slot, terms in slots.items():
            val = sum((px[i][j] * py[k][l] for i, j, k, l in terms), F(0))
            assert out.at(slot).contains(val), (slot, sx, sy)
    return out, slots


class TestConvolveOrigin:
    """`ball_convolve` from a nonzero output origin: each kept slot holds
    the exact sum and keeps the gamma_n radius of the full convolution."""

    # x of shape (3, 4), y of shape (5, 4): the full output is 7 x 7; at
    # origin 5 row 0 of x reaches no kept slot, at 6 rows 0 and 1 do not
    @pytest.mark.parametrize("origin", [0, 1, 3, 5, 6])
    def test_kept_slots_contain_exact(self, origin):
        rng = np.random.default_rng(100 + origin)
        x = BallGrid(rng.normal(size=(3, 4)), np.abs(rng.normal(size=(3, 4))))
        y = BallGrid(rng.normal(size=(5, 4)),
                     np.abs(rng.normal(size=(5, 4))) * 1e-3)
        out, slots = _check_points(x, y, origin, rng)
        n = 4 + min(3, 5)
        for slot, terms in slots.items():
            abs_sum = sum(abs(F(x.c[i, j]) * F(y.c[k, l]))
                          for i, j, k, l in terms)
            assert F(out.at(slot).r) >= _gamma_exact(n) * abs_sum


FLOOR = 2.0 ** -500


class TestOperandFloor:
    """The operand rule of `ball_convolve` (centres below F = 2^-500
    flushed into the radius, radii raised to F) on subnormal, zero and
    near-F entries, against exact Fraction sums."""

    SUB = 3 * 2.0 ** -1074

    def test_floored_entries(self):
        below, above = math.nextafter(FLOOR, 0.0), math.nextafter(FLOOR, 1.0)
        x = BallGrid([self.SUB, -below, above, 0.0, 1.0, -above],
                     [0.0, FLOOR, 0.0, 2.0 ** -1074, 0.0, 2.0 ** -600])
        fl = _floored(x)
        assert list(fl.c) == [0.0, 0.0, above, 0.0, 1.0, -above]
        # a flushed centre joins its radius; every radius is at least F
        assert F(fl.r[0]) >= F(self.SUB) and F(fl.r[1]) >= F(below) + F(FLOOR)
        assert (fl.r >= FLOOR).all()
        for i in range(x.c.size):
            assert F(fl.c[i]) - F(fl.r[i]) <= F(x.c[i]) - F(x.r[i])
            assert F(x.c[i]) + F(x.r[i]) <= F(fl.c[i]) + F(fl.r[i])

    def _engineered(self):
        below, above = math.nextafter(FLOOR, 0.0), math.nextafter(FLOOR, 1.0)
        return BallGrid([[self.SUB, 0.0, below, above],
                         [-below, 0.0, -self.SUB, 0.75 * FLOOR]],
                        [[0.0, 2.0 ** -1074, FLOOR, 0.0],
                         [2.0 * FLOOR, 0.0, 2.0 ** -1074, 0.5 * FLOOR]])

    def test_twosum_on_small_entries_only(self):
        # the floor runs its TwoSum only where a centre lies below F; on
        # every other entry the rule's _add_up(r, 0) is r, so the floor
        # equals the rule applied to every entry, bit for bit
        rng = np.random.default_rng(9)
        for n_small in (0, 1, 40):
            c = rng.normal(size=(25, 25)) * 2.0 ** rng.integers(-40, 3,
                                                                (25, 25))
            r = np.abs(rng.normal(size=(25, 25))) * 2.0 ** -60
            idx = rng.choice(625, size=n_small, replace=False)
            c.flat[idx] = np.ldexp(rng.uniform(-1, 1, n_small),
                                   rng.integers(-1074, -500, n_small))
            small = np.abs(c) < FLOOR
            ref_r = np.maximum(_add_up(r, np.where(small, np.abs(c), 0.0)),
                               FLOOR)
            fl = _floored(BallGrid(c, r))
            assert np.array_equal(fl.c, np.where(small, 0.0, c))
            assert np.array_equal(fl.r.view(np.int64), ref_r.view(np.int64))

    def test_single_scale_factor(self):
        # one exact operand entry 2^60: each slot is one product, so any
        # mass the rule drops shows at the slot's scale
        x = self._engineered()
        y = BallGrid([[2.0 ** 60]], [[0.0]])
        _check_points(x, y, 0, np.random.default_rng(1))

    def test_mixed_scales_and_cancelling_slot(self):
        # slot (1, 1) collects four products whose centres cancel; the
        # other entries mix the floor cases with ordinary numbers
        rng = np.random.default_rng(5)
        x = self._engineered()
        xc = x.c.copy()
        xc[0, 0], xc[1, 1] = 1.25, -0.5
        x = BallGrid(xc, x.r)
        # y[0, 0] is solved for below
        yc = np.array([[0.0, -3.0, 2.0 ** 60],
                       [self.SUB, 0.0, 1.0 / 3.0]])
        terms = _slot_terms(2, 4, 2, 3, 1, 1)
        rest = sum(F(xc[i, j]) * F(yc[k, l]) for i, j, k, l in terms)
        yc[0, 0] = float(-rest / F(xc[1, 1]))
        y = BallGrid(yc, [[0.0, 2.0 ** -1074, 0.0], [2.0 ** -1074, FLOOR, 0.0]])
        exact = sum(F(xc[i, j]) * F(yc[k, l]) for i, j, k, l in terms)
        abs_sum = sum(abs(F(xc[i, j]) * F(yc[k, l])) for i, j, k, l in terms)
        assert abs(exact) < abs_sum * F(1, 10 ** 12)
        _check_points(x, y, 0, rng, draws=12)
        _check_points(x, y, 1, rng, draws=12)

    def test_matmuls_see_no_entry_below_the_floor(self):
        # the output is the convolution of the floored operands, and those
        # hold 0 or magnitudes >= F only, so the channels built from them
        # (c, |c|, r, r + g |c|, |c| + r) hold no entry in (0, F)
        x = self._engineered()
        y = BallGrid([[2.0 ** 60, self.SUB], [0.0, 1.0]],
                     [[0.0, 0.0], [2.0 ** -1074, 0.0]])
        for g in (x, y):
            fl = _floored(g)
            a = np.abs(fl.c)
            assert ((a == 0.0) | (a >= FLOOR)).all()
            assert (fl.r >= FLOOR).all()
        out = ball_convolve(x, y)
        again = ball_convolve(_floored(x), _floored(y))
        assert np.array_equal(out.c, again.c)
        assert np.array_equal(out.r, again.r)


PARITIES = [(a, b, c, d) for a in (1, -1) for b in (1, -1)
            for c in (1, -1) for d in (1, -1)]


def _ext_weight(i, parity):
    """The exact weight of signed index i in an axis extension."""
    if i == 0:
        return F(1) if parity > 0 else F(0)
    return F(1, 2) if i > 0 else F(parity, 2)


def _fold_terms(xshape, yshape, parity):
    """Slot (a, b) -> [((i, j), (k, l), w)]: the terms w x[i, j] y[k, l] of
    the convolution of both parity extensions, over the stored indices,
    with w the product of the four exact extension weights and signs."""
    (p, q), (s, t) = xshape, yshape
    xr, xc, yr, yc = parity
    slots = {}
    for i in range(1 - p, p):
        for j in range(1 - q, q):
            wx = _ext_weight(i, xr) * _ext_weight(j, xc)
            if wx == 0:
                continue
            for k in range(1 - s, s):
                for l in range(1 - t, t):
                    a, b = i + k, j + l
                    w = wx * _ext_weight(k, yr) * _ext_weight(l, yc)
                    if a >= 0 and b >= 0 and w != 0:
                        slots.setdefault((a, b), []).append(
                            ((abs(i), abs(j)), (abs(k), abs(l)), w))
    return slots


def _fold_n(xshape, yshape):
    """The documented count of `ball_fold_convolve`."""
    (p, q), (s, t) = xshape, yshape
    return t + (t > 1) + min(p, 2 * s - 1)


def _check_fold(x, y, parity, rng, draws=4):
    """ball_fold_convolve against the exact Fraction sums of points of the
    input balls (the centres, all upper ends, all lower ends and ``draws``
    random choices among the three per entry), and its radius against
    gamma_n times the exact sum of |terms| at the centres, on every slot;
    returns the output and the slot terms."""
    out = ball_fold_convolve(x, y, parity)
    (p, q), (s, t) = x.shape, y.shape
    assert out.shape == (p + s - 1, q + t - 1)
    terms = _fold_terms(x.shape, y.shape, parity)
    g = _gamma_exact(_fold_n(x.shape, y.shape))
    check = [(a, b) for a in range(p + s - 1) for b in range(q + t - 1)]
    fixed = [np.zeros, np.ones, lambda shape: -np.ones(shape)]
    picks = [(f(x.shape), f(y.shape)) for f in fixed] + \
        [(rng.integers(-1, 2, size=x.shape), rng.integers(-1, 2, size=y.shape))
         for _ in range(draws)]
    for sx, sy in picks:
        px = [[F(x.c[i, j]) + int(sx[i, j]) * F(x.r[i, j]) for j in range(q)]
              for i in range(p)]
        py = [[F(y.c[k, l]) + int(sy[k, l]) * F(y.r[k, l]) for l in range(t)]
              for k in range(s)]
        for slot in check:
            val = sum((w * px[i][j] * py[k][l]
                       for (i, j), (k, l), w in terms.get(slot, [])), F(0))
            assert out.at(slot).contains(val), (slot, sx, sy)
    for slot in check:
        abs_sum = sum((abs(w * F(x.c[ij]) * F(y.c[kl]))
                       for ij, kl, w in terms.get(slot, [])), F(0))
        assert F(out.at(slot).r) >= g * abs_sum, slot
    return out, terms


def _random_balls(rng, shape, scale=1e-3):
    return BallGrid(rng.normal(size=shape),
                    np.abs(rng.normal(size=shape)) * scale)


class TestFoldConvolve:
    """`ball_fold_convolve` against exact Fraction sums over the parity
    extensions: engineered cancellation, the index-0 row and column,
    unequal shapes and operands at the floor."""

    @pytest.mark.parametrize("parity", PARITIES)
    def test_index_zero_row_and_column(self, parity):
        # row 0 and column 0 of both operands are nonzero, whatever the
        # parity: the even axes count them once, the odd ones not at all
        rng = np.random.default_rng(sum((3 ** i) * (v > 0)
                                        for i, v in enumerate(parity)))
        x = _random_balls(rng, (3, 3))
        y = _random_balls(rng, (3, 4))
        _check_fold(x, y, parity, rng)

    def test_cancelling_slot_fed_by_every_part(self):
        # slot (2, 2) of 5 x 5 operands takes Toeplitz terms (columns
        # b - l >= 0), Hankel terms (b + l, l >= 1) and x's mirrored rows
        # (signed i < 0); one entry of y is solved for so that the exact
        # centre sum cancels
        parity, slot, pick = (-1, 1, 1, -1), (2, 2), (4, 1)
        rng = np.random.default_rng(20261018)
        # exact operands: the radius is then the rounding term alone
        x = BallGrid(rng.normal(size=(5, 5)))
        yc = rng.normal(size=(5, 5))
        terms = _fold_terms((5, 5), (5, 5), parity)[slot]
        parts = {"toeplitz": False, "hankel": False, "mirrored row": False}
        for (i, j), (k, l), w in terms:
            parts["mirrored row"] |= k > slot[0]
            parts["toeplitz"] |= j <= slot[1] and l <= slot[1]
            parts["hankel"] |= j > slot[1]
        assert all(parts.values()), parts
        yc[pick] = 0.0
        rest = sum(w * F(x.c[ij]) * F(yc[kl]) for ij, kl, w in terms)
        kappa = sum(w * F(x.c[ij]) for ij, kl, w in terms if kl == pick)
        yc[pick] = float(-rest / kappa)
        y = BallGrid(yc, np.zeros((5, 5)))
        exact = sum(w * F(x.c[ij]) * F(yc[kl]) for ij, kl, w in terms)
        abs_sum = sum(abs(w * F(x.c[ij]) * F(yc[kl])) for ij, kl, w in terms)
        assert abs(exact) < abs_sum * F(1, 10 ** 12)
        out, _ = _check_fold(x, y, parity, rng, draws=8)
        n = _fold_n((5, 5), (5, 5))
        assert n == 5 + 1 + 5
        assert F(out.at(slot).r) >= _gamma_exact(n) * abs_sum

    @pytest.mark.parametrize("shapes", [((1, 1), (25, 25)),
                                        ((25, 25), (1, 1)),
                                        ((6, 6), (5, 5)), ((4, 4), (8, 8)),
                                        ((2, 5), (4, 3))])
    def test_unequal_shapes(self, shapes):
        rng = np.random.default_rng(len(str(shapes)))
        big = max(p * q for p, q in shapes) > 100
        for parity in ([(1, 1, 1, 1), (-1, 1, 1, -1), (1, -1, -1, 1)]
                       if big else PARITIES):
            x = _random_balls(rng, shapes[0])
            y = _random_balls(rng, shapes[1])
            _check_fold(x, y, parity, rng, draws=1)

    def test_weights_after_the_floor_are_exact(self):
        # entries with odd significands just above F, at F, at 2F and
        # subnormal ones; every slot of a product by the exact 2^60 is one
        # weighted product.  Weighted by 1/2 or 1/4 after the floor, a
        # kept centre is at least F/4, a normal number, so the weighted
        # product is exact and the slot's centre is that product
        above = math.nextafter(FLOOR, 1.0)
        sub = 3 * 2.0 ** -1074
        xc = np.array([[above, -3 * above, FLOOR],
                       [2 * FLOOR, sub, -above],
                       [-sub, 5 * above, 0.0]])
        xr = np.array([[0.0, 2.0 ** -1074, 0.0],
                       [sub, 0.0, FLOOR],
                       [0.0, 0.0, 2.0 ** -1074]])
        x = BallGrid(xc, xr)
        y = BallGrid([[2.0 ** 60]], [[0.0]])
        for parity in [(1, 1, 1, 1), (1, -1, 1, 1), (-1, 1, 1, 1),
                       (-1, -1, 1, 1)]:
            out, terms = _check_fold(x, y, parity, np.random.default_rng(3))
            for slot, ts in terms.items():
                (ij, kl, w), = ts
                if abs(xc[ij]) >= FLOOR:
                    assert F(out.c[slot]) == w * F(xc[ij]) * 2 ** 60
                else:
                    assert out.c[slot] == 0.0

    def test_floor_and_cancellation_mixed(self):
        # the floor cases next to ordinary numbers, a cancelling slot and
        # every parity
        rng = np.random.default_rng(5)
        below, above = math.nextafter(FLOOR, 0.0), math.nextafter(FLOOR, 1.0)
        sub = 3 * 2.0 ** -1074
        x = BallGrid([[1.25, below, -sub, above],
                      [-0.5, 0.0, above, 1.0 / 3.0]],
                     [[0.0, 2.0 ** -1074, FLOOR, 0.0],
                      [2.0 * FLOOR, 0.0, 2.0 ** -1074, 0.5 * FLOOR]])
        for parity in PARITIES:
            yc = np.array([[0.75, -3.0, 2.0 ** 60], [sub, 1.0, 1.0 / 3.0]])
            terms = _fold_terms((2, 4), (2, 3), parity).get((1, 1), [])
            live = [kl for ij, kl, w in terms if kl != (1, 1)]
            if live:
                pick = live[0]
                yc[pick] = 0.0
                rest = sum(w * F(x.c[ij]) * F(yc[kl]) for ij, kl, w in terms)
                kappa = sum(w * F(x.c[ij]) for ij, kl, w in terms
                            if kl == pick)
                if kappa:
                    yc[pick] = float(-rest / kappa)
            y = BallGrid(yc, [[0.0, 2.0 ** -1074, 0.0], [2.0 ** -1074,
                                                        FLOOR, 0.0]])
            _check_fold(x, y, parity, rng, draws=6)


def _balls(rng, n, lo_exp, hi_exp):
    """n balls with random 53-bit centres of both signs, magnitudes 2^e for
    e uniform in [lo_exp, hi_exp], and radii from 0 to twice the centre, so
    that about a third of them straddle zero."""
    e = rng.integers(lo_exp, hi_exp + 1, size=n)
    c = np.ldexp(rng.uniform(-1.0, 1.0, size=n), e)
    r = np.abs(c) * rng.choice([0.0, 1e-3, 0.7, 2.0], size=n)
    return BallGrid(c, r)


def _sumsq_ends(g, wc, wr):
    """The exact ends sum max(wc - wr, 0) mig^2 and sum (wc + wr) mag^2."""
    lo = hi = F(0)
    for c, r, a, b in zip(g.c.ravel(), g.r.ravel(), np.ravel(wc),
                          np.ravel(wr)):
        c, r, a, b = F(c), F(r), F(a), F(b)
        mig = max(abs(c) - r, F(0))
        lo += max(a - b, F(0)) * mig * mig
        hi += (a + b) * (abs(c) + r) ** 2
    return lo, hi


class TestCoefficientSums:
    """The gamma_n rule of `sumsq_ball` and `ball_sum` against exact
    Fraction sums of every term, on 625-term grids."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sumsq_encloses_both_exact_ends(self, seed):
        rng = np.random.default_rng(seed)
        g = _balls(rng, 625, -500, 500)
        w = BallGrid(np.ldexp(rng.uniform(0.5, 1.0, 625),
                              rng.integers(-20, 21, 625)),
                     np.ldexp(rng.uniform(0.0, 0.1, 625),
                              rng.integers(-40, -19, 625)))
        lo, hi = _sumsq_ends(g, w.c, w.r)
        out = g.sumsq_ball(w)
        assert out.contains(lo) and out.contains(hi)
        # the gamma_n allowance is present, and the ends move by little more
        g = _gamma_exact(625)
        assert F(out.lower()) <= lo * (1 - g)
        assert F(out.upper()) >= hi * (1 + g)
        assert F(out.upper()) <= hi * (1 + 4 * _gamma_exact(631))

    def test_sumsq_plain_and_array_weights(self):
        rng = np.random.default_rng(4)
        g = _balls(rng, 625, -300, 300)
        lo, hi = _sumsq_ends(g, np.ones(625), np.zeros(625))
        out = g.sumsq_ball()
        assert out.contains(lo) and out.contains(hi)
        w = rng.uniform(0.0, 3.0, size=625)
        lo, hi = _sumsq_ends(g, w, np.zeros(625))
        out = g.sumsq_ball(w)
        assert out.contains(lo) and out.contains(hi)

    def test_sumsq_straddling_zero_has_zero_lower_end(self):
        g = BallGrid(np.array([0.25, -2.0, 0.5]), np.array([0.5, 3.0, 0.5]))
        out = g.sumsq_ball()
        assert out.lower() == 0.0
        assert out.contains(F(0)) and out.contains(F(3, 4) ** 2 + 25 + 1)

    def test_sumsq_underflow_under_large_weights(self):
        # squares below the subnormal range vanish in floats, but weights of
        # 2^500 make the exact terms about 2^-580 each
        rng = np.random.default_rng(5)
        c = np.ldexp(rng.uniform(1.0, 2.0, size=625), -540)
        g = BallGrid(c)
        w = np.full(625, 2.0 ** 500)
        lo, hi = _sumsq_ends(g, w, np.zeros(625))
        out = g.sumsq_ball(w)
        assert hi > 0 and out.contains(lo) and out.contains(hi)

    @pytest.mark.parametrize("n", [2, 9, 170, 626, 2401])
    def test_sumsq_rows_is_the_flat_rule_per_row(self, n):
        # each row of a stack sums as the 1-D grid it is on its own: the
        # rule written out on one flat array, bit for bit, zero rows too
        rng = np.random.default_rng(n)
        rows = [_balls(rng, n, -300, 300) for _ in range(4)]
        rows[2] = BallGrid.zeros(n)
        stack = BallGrid(np.stack([g.c for g in rows]),
                         np.stack([g.r for g in rows]))
        w = BallGrid(rng.uniform(0.0, 3.0, n), rng.uniform(0.0, 1e-3, n))
        got = stack.sumsq_rows(w)
        for i, g in enumerate(rows):
            a = np.abs(g.c)
            mag, mig = a + g.r, np.maximum(a - g.r, 0.0)
            hi = float((mag * mag * (w.c + w.r)).sum())
            lo = float((mig * mig * np.maximum(w.c - w.r, 0.0)).sum())
            eta = TINY * max(float((w.c + w.r).max()), 1.0) \
                if mag.any() else 0.0
            gm = _gamma(n + 6)
            ref = FloatBall.from_endpoints(max(lo - eta, 0.0) * (1.0 - gm),
                                           (hi + eta) * (1.0 + gm))
            assert (got.c[i], got.r[i]) == (ref.c, ref.r)
            one = g.sumsq_ball(w)
            assert (one.c, one.r) == (ref.c, ref.r)

    def test_grid_from_endpoints_is_the_scalar_rule(self):
        lo = np.array([0.0, 0.0, 0.0, 1.0, -2.0, 0.0])
        hi = np.array([0.25, 5e-324, 3.0, 1.5, 7.0, 0.1])
        got = BallGrid.from_endpoints(lo, hi)
        for i in range(lo.size):
            ref = FloatBall.from_endpoints(float(lo[i]), float(hi[i]))
            assert (got.c[i], got.r[i]) == (ref.c, ref.r)

    def test_sumsq_of_zeros_is_exact_zero(self):
        out = BallGrid.zeros((25, 25)).sumsq_ball(np.full((25, 25), 9.0))
        assert (out.c, out.r) == (0.0, 0.0)

    @pytest.mark.parametrize("seed", [6, 7])
    def test_ball_sum_encloses_exact_sum(self, seed):
        rng = np.random.default_rng(seed)
        g = _balls(rng, 625, -500, 500)
        # cancel the largest term against an equal and opposite one
        i, j = np.argsort(np.abs(g.c))[-2:]
        g.c[i] = -g.c[j]
        exact = sum(F(v) for v in g.c)
        spread = sum(F(v) for v in g.r)
        out = g.ball_sum()
        assert out.contains(exact - spread) and out.contains(exact + spread)
        abs_sum = sum(abs(F(v)) for v in g.c)
        assert F(out.r) >= spread + _gamma_exact(624) * abs_sum


# a hand rounding rule: the old inflation factor, a float inflation literal,
# a multiple of EPS, or a libm constant or function
_HAND_ROUNDING = re.compile(
    r"\b_UP\b|\b1e-(9|1[0-5])\b|\b\d+\s*\*\s*EPS\b"
    r"|\bmath\.(pi|exp|hypot|log2)\b")


def test_no_hand_rounding_outside_floatball():
    # nse, spectral, helmholtz and stokes round only through floatball's
    # ball rules; a line that only steers a search is marked "# steering:"
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "solenoid"
    offenders = []
    for name in ("nse.py", "spectral.py", "helmholtz.py", "stokes.py"):
        for i, line in enumerate((src / name).read_text().splitlines(), 1):
            if _HAND_ROUNDING.search(line) and "# steering:" not in line:
                offenders.append("%s:%d: %s" % (name, i, line.strip()))
    assert not offenders, offenders


def test_rounding_constants_defined_only_in_floatball():
    # every module takes EPS and TINY from floatball, so the package has one
    # rounding model
    names = {"EPS", "_EPS", "TINY", "_TINY"}
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "solenoid"
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "floatball.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                offenders += ["%s:%d" % (path.name, node.lineno)
                              for tgt in targets for n in ast.walk(tgt)
                              if isinstance(n, ast.Name) and n.id in names]
    assert not offenders, offenders


# numpy's complex dtypes, by attribute or by name in a dtype string
_COMPLEX_DTYPES = {"complex64", "complex128", "complex256", "complex_",
                   "cdouble", "csingle", "clongdouble", "complexfloating"}
_COMPLEX_DTYPE_STR = re.compile(r"[<>=|]?(c(8|16|32)|complex(64|128|256)?)")


def _complex_uses(tree: ast.AST):
    """Line and form of each place the tree builds or reads a complex
    number: the builtin `complex`, an imaginary literal, `.imag`,
    `.conjugate` or a numpy complex dtype."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "complex":
            yield node.lineno, "complex"
        elif isinstance(node, ast.Constant) and isinstance(node.value, complex):
            yield node.lineno, repr(node.value)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and _COMPLEX_DTYPE_STR.fullmatch(node.value):
            yield node.lineno, repr(node.value)
        elif isinstance(node, ast.Attribute) and (
                node.attr in ("imag", "conjugate")
                or node.attr in _COMPLEX_DTYPES):
            yield node.lineno, "." + node.attr


def test_no_complex_numbers_in_the_library():
    # one rounding model: the library's complex numbers are pairs of real
    # balls, so no module relies on the error of a complex float operation
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "solenoid"
    offenders = ["%s:%d %s" % (path.name, line, form)
                 for path in sorted(src.glob("*.py"))
                 for line, form in _complex_uses(ast.parse(path.read_text()))]
    assert not offenders, offenders


def test_complex_guard_sees_each_form():
    snippet = ("a = complex(1, 2)\nb = 3j\nc = x.imag\nd = x.conjugate()\n"
               "e = np.zeros(3, dtype=np.complex128)\nf = y.astype('c16')\n"
               "g = np.zeros(2, dtype=complex)\nh = x.real + x.shape[0]\n")
    assert sorted(line for line, _ in _complex_uses(ast.parse(snippet))) \
        == [1, 2, 3, 4, 5, 6, 7]


class TestGridElementary:
    """The array forms against 60-digit mpmath, at engineered arguments."""

    @staticmethod
    def _encloses(g: BallGrid, refs):
        for i, ref in enumerate(refs):
            lo = mp.mpf(float(g.c.flat[i])) - mp.mpf(float(g.r.flat[i]))
            hi = mp.mpf(float(g.c.flat[i])) + mp.mpf(float(g.r.flat[i]))
            assert lo <= ref <= hi, (i, ref, g.c.flat[i], g.r.flat[i])

    def _check_sincos(self, num, den):
        s, c = grid_sincos_pi(num, den)
        num, den = np.broadcast_arrays(np.asarray(num, dtype=object),
                                       np.asarray(den, dtype=object))
        with mp.workdps(60):
            x = [mp.mpf(int(a)) / int(b) for a, b in zip(num.flat, den.flat)]
            self._encloses(s, [mp.sinpi(v) for v in x])
            self._encloses(c, [mp.cospi(v) for v in x])
        return s, c

    def test_sincos_at_zero_and_quarter_turns(self):
        s, c = self._check_sincos([0, 1, 2, 3, 4, -1, -2],
                                  [1, 2, 2, 2, 2, 2, 1])
        assert s.r.max() < 1e-14 and c.r.max() < 1e-14

    def test_sincos_at_subnormal_rationals(self):
        self._check_sincos([1, 3, 5, -7], [2 ** 1074, 2 ** 1070, 2 ** 1060,
                                           2 ** 1065])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 2 ** 10 + 1, 2 ** 20 - 1,
                                   2 ** 20])
    def test_sincos_next_to_half_turns(self, n):
        # n/2 -+ 2^-50: the reduced argument is +-2^-50 pi next to a
        # multiple of pi/2, where a float reduction would lose it
        num = [n * 2 ** 49 - 1, n * 2 ** 49, n * 2 ** 49 + 1]
        s, c = self._check_sincos(num, 2 ** 50)
        assert s.r.max() < 1e-14 and c.r.max() < 1e-14
        # +-(2n + 1)/4 and -+ 2^-40: the reduced argument is at or next to
        # +-pi/4, where the series' remainder is largest ((pi/4)^14/14! =
        # 3.9e-13 at degree 13)
        num = [(2 * n + 1) * 2 ** 38 + e for e in (-1, 0, 1)]
        s, c = self._check_sincos(num + [-v for v in num], 2 ** 40)
        assert s.r.max() < 1e-14 and c.r.max() < 1e-14

    def test_sincos_at_transform_indices(self):
        # x_n mid with n up to 2 cutoff = 4096, panel midpoints k/2048 and
        # scale 2^-3, as the window transforms use them
        n = np.array([1, 63, 64, 127, 128, 2047, 4096], dtype=object)
        mids = np.array([1, 1023, 2047], dtype=object)
        self._check_sincos(np.multiply.outer(mids, n), 2048 * 8)
        # n/4: every odd n reduces to +-pi/4 exactly
        s, c = self._check_sincos(n, 4)
        assert s.r.max() < 1e-14 and c.r.max() < 1e-14

    def test_sincos_reduction_is_exact_at_large_arguments(self):
        # (2^36 + 1/3) pi: a float reduction by multiples of pi/2 carries
        # their slack, some 2^37 ulps of pi/2
        s, c = self._check_sincos([3 * 2 ** 36 + 1], 3)
        assert s.r.max() < 1e-14 and c.r.max() < 1e-14
        assert fb_sincos(FloatBall((2 ** 36 + 1 / 3) * math.pi))[0].r > 1e-6

    ARGS = np.array([2.0 ** -500, -2.0 ** -500, 0.0, 1 + 2.0 ** -52,
                     1 - 2.0 ** -52, -1.0, 12.5, -700.0, 700.0, -800.0])
    RADII = np.array([0.0, 2.0 ** -520, 0.0, 2.0 ** -60, 1e-3, 0.5, 0.0,
                      1.0, 0.0, 0.0])

    def _ends(self, x):
        return [mp.mpf(float(c)) + k * mp.mpf(float(r))
                for c, r in zip(x.c, x.r) for k in (-1, 1)]

    EXP_EDGE_ARGS = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -500, 2.0 ** -60,
                     1.0, -1.0, 0.5 * math.log(2.0), 12.5, -700.0, 700.0,
                     709.0, 709.5, -745.0, -745.5, -800.0]
    EXP_EDGE_RADII = [0.0, 5e-324, 2.0 ** -500, 2.0 ** -60, 0.5, 700.0, 700.5]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_exp_against_mpmath(self):
        x = BallGrid(self.ARGS, self.RADII)
        e = grid_exp(x)
        with mp.workdps(60):
            refs = [mp.exp(v) for v in self._ends(x)]
        self._encloses(BallGrid(np.repeat(e.c, 2), np.repeat(e.r, 2)), refs)
        # one-entry balls at signed zeros, subnormals, the overflow and flush
        # edges and huge radii: a centre above 709, a radius above 700 or an
        # upper end past the largest float is refused (an infinite radius
        # by FloatBall); every other ball encloses exp at both ends
        for c in self.EXP_EDGE_ARGS:
            for r in self.EXP_EDGE_RADII:
                x = BallGrid(np.array([c]), np.array([r]))
                with mp.workdps(60):
                    refs = [mp.exp(v) for v in self._ends(x)]
                if c > 709.0 or r > 700.0 or refs[1] > sys.float_info.max:
                    with pytest.raises((OverflowError, ValueError)):
                        fb_exp(FloatBall(c, r))
                    continue
                e = fb_exp(FloatBall(c, r))
                self._encloses(BallGrid(np.array([e.c] * 2),
                                        np.array([e.r] * 2)), refs)
        # (k -+ 1/2) ln 2 and one ulp either side for |k| <= 1: the reduced
        # argument is at or next to -+ln2/2, where the series' rounding is
        # largest, and is held to 9 ulps (a term-by-term ball series took
        # 16 to 22)
        x = np.array([k * math.log(2.0) + h * 0.5 * math.log(2.0)
                      for k in (-1, 0, 1) for h in (-1, 1)])
        x = BallGrid(np.concatenate([np.nextafter(x, -np.inf), x,
                                     np.nextafter(x, np.inf)]))
        e = grid_exp(x)
        with mp.workdps(60):
            self._encloses(e, [mp.exp(mp.mpf(float(v))) for v in x.c])
        assert (e.r <= 2e-15 * e.c).all()

    def test_log_and_pow_against_mpmath(self):
        # mantissas 1/2 and next to it (the last three) put |s| at or next
        # to 1/3, where the atanh series' remainder is largest
        base = np.array([2.0 ** 500, 2.0 ** -500, 1 + 2.0 ** -52,
                         1 - 2.0 ** -52, 3.0, 1e-3, 0.5, 0.5 + 2.0 ** -41,
                         0.51])
        rad = np.array([0.0, 2.0 ** -560, 2.0 ** -60, 0.0, 1e-2, 1e-6, 0.0,
                        0.0, 0.0])
        x = BallGrid(base, rad)
        ends = self._ends(x)
        with mp.workdps(60):
            self._encloses(BallGrid(np.repeat(grid_log(x).c, 2),
                                    np.repeat(grid_log(x).r, 2)),
                           [mp.log(v) for v in ends])
            for q in (F(6, 5), F(-3, 7), F(1, 2), F(2)):
                p = grid_pow(x, q)
                ref = [mp.power(v, mp.mpf(q.numerator) / q.denominator)
                       for v in ends]
                self._encloses(BallGrid(np.repeat(p.c, 2), np.repeat(p.r, 2)),
                               ref)
        assert grid_log(x).r[-3:].max() < 2e-15

    def test_grid_exp_equals_scalar_exp(self):
        # fb_exp is grid_exp on one entry; entries do not interact, so each
        # entry of a 2-D grid's exp has the bits of fb_exp on that entry
        x = BallGrid(self.ARGS.reshape(2, 5), self.RADII.reshape(2, 5))
        e = grid_exp(x)
        for i in np.ndindex(x.shape):
            b = fb_exp(x.at(i))
            assert (e.c[i], e.r[i]) == (b.c, b.r)

    @pytest.mark.parametrize("series, bound, ref", [
        (_sincos_series, 13 / 16, lambda v: (mp.sin(v), mp.cos(v))),
        (_exp_series, 3 / 8, lambda v: (mp.exp(v),)),
        (_atanh_series, 11 / 32, lambda v: (mp.atanh(v),)),
    ])
    def test_series_on_exact_and_wide_balls(self, series, bound, ref):
        # each series alone, without the widening that the reduction and
        # the reassembly of grid_exp, grid_log and grid_sincos_pi add: on
        # exact balls only the rounding term covers the centre's error, and
        # on balls of radius 2^-20 only the spread term reaches the ends;
        # an argument past the table's bound is refused
        c = np.array([0.0, 2.0 ** -60, -2.0 ** -30, 0.1, -0.3, 0.3,
                      bound - 2.0 ** -18, 2.0 ** -18 - bound])
        for r in (0.0, 2.0 ** -20):
            out = series(BallGrid(c, np.full(c.shape, r)))
            out = out if isinstance(out, tuple) else (out,)
            with mp.workdps(60):
                for k in (-1, 0, 1):
                    refs = [ref(mp.mpf(float(v)) + k * mp.mpf(r)) for v in c]
                    for j, g in enumerate(out):
                        self._encloses(g, [f[j] for f in refs])
        with pytest.raises(ValueError):
            series(BallGrid([0.0, bound * 1.01]))

    @pytest.mark.parametrize("table, rows", [
        (_SINCOS, [(mp.sin, lambda i: (-1) ** (i // 2) if i % 2 else 0),
                   (mp.cos, lambda i: 0 if i % 2 else (-1) ** (i // 2))]),
        (_EXP, [(mp.exp, lambda i: 1)]),
        (_ATANH, [(mp.atanh, lambda i: mp.factorial(i) / i if i % 2 else 0)]),
    ])
    def test_series_remainders_at_the_bound(self, table, rows):
        # the Taylor remainder bound rho_j |x| of each table against 60-digit
        # values at the edge of its domain: the term is below 0.2 ulp, under
        # the slack of the rounding term, so no containment test sees it
        d = table.step * len(table.coef) - 1       # the degree, 17, 13, 33
        with mp.workdps(60):
            for x in (mp.mpf(table.bound), -mp.mpf(table.bound)):
                for j, (f, a) in enumerate(rows):
                    taylor = sum(a(i) * x ** i / mp.factorial(i)
                                 for i in range(d + 1))
                    assert abs(f(x) - taylor) <= table.rem[0, j, 0] * abs(x)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            grid_log(BallGrid([1.0, 0.5], [0.0, 0.5]))
        with pytest.raises(OverflowError):
            grid_exp(BallGrid([1.0, 710.0]))


# engineered balls (centre, radius): signed zeros, exact balls, subnormal
# centres and radii, magnitudes 2^+-500 and pairs whose sums cancel
_EDGE_BALLS = [
    (0.0, 0.0), (-0.0, 0.0), (0.0, 5e-324), (-0.0, 2.0 ** -1030),
    (5e-324, 0.0), (-5e-324, 1e-310), (3 * 2.0 ** -1070, 5e-324),
    (2.0 ** 500, 0.0), (-2.0 ** 500, 2.0 ** 450), (2.0 ** -500, 2.0 ** -560),
    (-2.0 ** -500, 0.0), (1.0, 2.0 ** -60), (-1.0, 2.0 ** -60),
    (1 + 2.0 ** -52, 0.0), (-1 - 2.0 ** -52, 1e-300), (0.1, 0.7),
    (-0.1, 0.7), (3.0, 0.5), (1e300, 1e290), (-12.5, 0.0),
]

# each rule that FloatBall and BallGrid share, on two operands
_SHARED_RULES = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": lambda x, y: x / y,
    "hull": lambda x, y: x.hull(y),
    "neg": lambda x, y: -x,
    "widened": lambda x, y: x.widened(y.c),
    "from_rounded": lambda x, y: type(x).from_rounded(
        x.c - abs(y.c), x.c + abs(y.c)),
    "from_endpoints": lambda x, y: type(x).from_endpoints(
        x.c - abs(y.c), x.c + abs(y.c)),
    "from_endpoints_zero": lambda x, y: type(x).from_endpoints(
        0.0 * x.c, abs(x.c)),
}


def _bits(*vals):
    return np.array([float(v) for v in vals]).tobytes()


def _outcome(f):
    """The bits of the FloatBall f(), or the type of its error: a grid's
    entry is read by `at`, whose FloatBall rejects what overflowed."""
    try:
        b = f()
        return _bits(b.c, b.r)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return type(exc)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
class TestScalarEqualsOneEntryGrid:
    """Each ball rule gives the same bits on FloatBalls as on one-entry
    BallGrids, error or not, at engineered operands."""

    @staticmethod
    def _grid(b):
        return BallGrid(np.array([b[0]]), np.array([b[1]]))

    @pytest.mark.parametrize("rule", sorted(_SHARED_RULES))
    def test_rule(self, rule):
        op = _SHARED_RULES[rule]
        for a in _EDGE_BALLS:
            for b in _EDGE_BALLS:
                want = _outcome(lambda: op(FloatBall(*a), FloatBall(*b)))
                got = _outcome(lambda: op(self._grid(a), self._grid(b)).at(0))
                assert want == got, (rule, a, b)

    @pytest.mark.parametrize("rule", ["add", "sub", "mul", "div"])
    def test_scalar_operand_of_a_grid(self, rule):
        op = _SHARED_RULES[rule]
        for a in _EDGE_BALLS:
            for b in _EDGE_BALLS:
                want = _outcome(lambda: op(FloatBall(*a), FloatBall(*b)))
                got = _outcome(lambda: op(self._grid(a), FloatBall(*b)).at(0))
                assert want == got, (rule, a, b)

    @pytest.mark.parametrize("view", ["lower", "upper", "mag"])
    def test_view(self, view):
        for a in _EDGE_BALLS:
            want = getattr(FloatBall(*a), view)()
            got = getattr(self._grid(a), view)()
            assert _bits(want) == _bits(got[0]), (view, a)

    @pytest.mark.parametrize("divisor", [(0.0, 0.0), (-0.0, 0.0),
                                         (5e-324, 5e-324), (0.5, 0.5),
                                         (-2.0 ** -500, 2.0 ** -500),
                                         (1.0, 2.0), (-3.0, 3.0)])
    def test_divisor_touching_zero(self, divisor):
        with pytest.raises(ZeroDivisionError):
            FloatBall(1.0) / FloatBall(*divisor)
        with pytest.raises(ZeroDivisionError):
            self._grid((1.0, 0.0)) / self._grid(divisor)


class TestDirectedEnds:
    """upper() and lower() are the floats next to c + r and c - r on the
    outer side, exactly."""

    def _check(self, b):
        lo, hi = b.lower(), b.upper()
        exact_lo, exact_hi = F(b.c) - F(b.r), F(b.c) + F(b.r)
        assert F(lo) <= exact_lo and F(hi) >= exact_hi
        # and no float lies strictly between each end and its exact value
        assert F(math.nextafter(lo, math.inf)) > exact_lo or F(lo) == exact_lo
        assert F(math.nextafter(hi, -math.inf)) < exact_hi or F(hi) == exact_hi

    def test_radius_below_half_an_ulp(self):
        # the ends of this ball used to round back onto the centre
        b = FloatBall(0.019291508253563072, 1.19e-18)
        self._check(b)
        assert b.lower() < b.c < b.upper()

    def test_random_balls_against_fractions(self):
        rng = random.Random(8)
        for _ in range(2000):
            c = rng.uniform(-1, 1) * 2.0 ** rng.randint(-60, 60)
            r = abs(c) * 2.0 ** rng.randint(-80, 0) * rng.random()
            self._check(FloatBall(c, r))

    def test_zero_centre_and_subnormal_radii(self):
        for b in (FloatBall(0.0), FloatBall(0.0, 5e-324), FloatBall(-0.0, 0.0),
                  FloatBall(1e-310, 5e-324), FloatBall(1.0, 5e-324),
                  FloatBall(-2.0 ** -1022, 2.0 ** -1074)):
            self._check(b)
        assert FloatBall(0.0).upper() == 0.0 == FloatBall(0.0).lower()
        assert FloatBall(1.0, 5e-324).upper() == math.nextafter(1.0, 2.0)

    def test_exact_ends_are_kept(self):
        # [0, hi] balls, as the tail bounds and their JSON round trip use
        for hi in (0.0, 1e-300, 0.3, 2.917393947e-3, 1e300):
            b = FloatBall.from_endpoints(0.0, hi)
            assert b.upper() == hi and b.lower() == 0.0
        g = BallGrid([0.5, -1.0, 0.019291508253563072], [0.25, 0.0, 1.19e-18])
        assert list(g.upper()) == [g.at(i).upper() for i in range(3)]

    @staticmethod
    def _check_abs(b):
        """mag() and mig() are the floats next to |c| + r and max(|c| - r,
        0) on the outer side, exactly."""
        hi, lo = b.mag(), b.mig()
        exact_hi = abs(F(b.c)) + F(b.r)
        exact_lo = max(abs(F(b.c)) - F(b.r), F(0))
        assert F(hi) >= exact_hi and F(lo) <= exact_lo and lo >= 0.0
        assert F(math.nextafter(hi, -math.inf)) < exact_hi or F(hi) == exact_hi
        assert F(math.nextafter(lo, math.inf)) > exact_lo or F(lo) == exact_lo

    def test_mag_mig_radius_below_half_an_ulp(self):
        # |c| + r used to round back onto |c|
        for c in (0.019291508253563072, -0.019291508253563072):
            b = FloatBall(c, 1.19e-18)
            self._check_abs(b)
            assert b.mig() < abs(c) < b.mag()

    def test_mag_mig_against_fractions(self):
        rng = random.Random(9)
        for _ in range(2000):
            c = rng.uniform(-1, 1) * 2.0 ** rng.randint(-60, 60)
            r = abs(c) * 2.0 ** rng.randint(-80, 1) * rng.random()
            self._check_abs(FloatBall(c, r))
        for b in (FloatBall(0.0), FloatBall(0.0, 5e-324), FloatBall(1.0, 2.0),
                  FloatBall(1.0, 5e-324), FloatBall(-2.0 ** -1022, 2.0 ** -1074)):
            self._check_abs(b)

    def test_grid_mag_is_scalar_mag(self):
        g = BallGrid([0.019291508253563072, -0.019291508253563072, 0.5, 0.0],
                     [1.19e-18, 1.19e-18, 0.25, 5e-324])
        assert list(g.mag()) == [g.at(i).mag() for i in range(4)]
        for i in range(4):
            self._check_abs(g.at(i))


class TestIntegerRules:
    def test_pow_up_bounds_the_power(self):
        x = np.array([0.0, 5e-324, 1e-7, 0.3, 0.45, 0.6, 0.999999, 1.0])
        for n in (1, 2, 3, 45, 64):
            up = pow_up(x, n)
            for v, u in zip(x, up):
                assert F(float(u)) >= F(float(v)) ** n, (v, n)
            assert (up <= x ** n * (1 + 1e-13) + 1e-300).all()

    def test_ceil_log2_exact(self):
        for x in (1.0, 2.0, 3.0, 0.75, 0.5, 2.0 ** -1074, 2.0 ** 1023,
                  math.nextafter(4.0, 5.0), math.nextafter(4.0, 3.0), 1e-300):
            k = ceil_log2(x)
            assert F(2) ** (k - 1) < F(x) <= F(2) ** k, x
