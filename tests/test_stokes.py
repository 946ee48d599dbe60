"""Tests for the Stokes semigroup, its contour primitives and fractional
powers.

The load-bearing oracle is residue calculus: closing the sector contour
around the pole gives the diagonal heat factor e^{-t pi^2 (n^2+m^2)}, so
every certified mode enclosure must contain that closed form.  The ray
integral itself is cross-checked against mpmath numerical quadrature, and
the fractional-power closed form against its integral representation.
"""

import ast
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solenoid import polyfield as pf
from solenoid import stokes as sk
from solenoid.approxcore import BoundedValue, Name
from solenoid.floatball import BallGrid, FloatBall, fb_sqrt
from solenoid.helmholtz import VectorFieldName
from solenoid.spectral import FourierField, _norm2, mollified_field_pair

import oracles

BETA = 3 * math.pi / 5
EL = pf.mollify(pf.solenoidal_kernel(4)[0], 1, 2)


def _sol_mode(n, m, scale=1.0):
    return (FourierField.single_mode("sc", n, m, m * scale),
            FourierField.single_mode("cs", n, m, -n * scale))


def _pair_diff(p, q):
    s = (p[0] - q[0]).l2_sq_ball() + (p[1] - q[1]).l2_sq_ball()
    return math.sqrt(max(s.upper(), 0.0))


def _heat(s, t):
    return math.exp(-float(t) * math.pi ** 2 * s)


class TestContourFactors:
    @staticmethod
    def _ray(t, s, l):
        """The finite ray integral by mpmath quadrature at 30 digits, on 16
        pieces of [0, l], and the quadrature's error estimate."""
        with mpmath.workdps(30):
            eib = mpmath.expjpi(mpmath.mpf(3) / 5)
            lam = mpmath.pi ** 2 * s

            def g(r):
                return mpmath.im(mpmath.exp(t * r * eib) * eib
                                 / (r * eib + lam)) / mpmath.pi
            return mpmath.quad(g, mpmath.linspace(0, l, 17), error=True)

    def test_quadrature_matches_mpmath(self, monkeypatch):
        # independent numeric oracle for the finite ray integral, at the
        # library's series orders and at short ones, where the truncation
        # bounds of the geometric and the moment series carry the radius
        l, svals = 80.0, np.array([1, 5, 72])
        times = (F(1, 64), F(1, 8), F(1, 2), F(1))
        refs = {t: [self._ray(mpmath.mpf(t.numerator) / t.denominator, s, l)
                    for s in svals] for t in times}
        for orders in ((sk._J, sk._KMAX), (8, 10)):
            monkeypatch.setattr(sk, "_J", orders[0])
            monkeypatch.setattr(sk, "_KMAX", orders[1])
            for t in times:
                fc, fr, _ = sk.contour_factors(svals, FloatBall.exact(t), l)
                for s, (ref, err), c, r in zip(svals, refs[t], fc, fr):
                    assert err < 1e-25
                    assert abs(mpmath.mpf(c) - ref) <= mpmath.mpf(r) + 1e-25, \
                        (orders, t, s)

    @pytest.mark.parametrize("t", [F(1, 64), F(1, 8), F(1, 2), F(1)])
    def test_encloses_heat_factor_with_tail(self, t):
        tb = FloatBall.exact(t)
        tbv = BoundedValue.exact(t)
        l = float(sk.tail_cutoff_l(tbv, 1, 14).upper())
        g3 = float(sk._gamma3_value(l, tbv, 14).upper())
        svals = np.array([1, 2, 5, 13, 72])
        fc, fr, _ = sk.contour_factors(svals, tb, l)
        for s, c, r in zip(svals, fc, fr):
            assert abs(c - _heat(s, t)) <= r + g3

    def test_deterministic(self):
        a = sk.contour_factors(np.array([2, 8]), FloatBall(0.125), 50.0)
        b = sk.contour_factors(np.array([2, 8]), FloatBall(0.125), 50.0)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert a[2] == b[2]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            sk.contour_factors(np.array([0]), FloatBall(0.5), 10.0)
        with pytest.raises(ValueError):
            sk.contour_factors(np.array([2]), FloatBall(0.0), 10.0)


class TestTailCutoff:
    def test_certified_by_quad_oracle(self):
        t, K = BoundedValue.exact(F(1)), 10
        l = float(sk.tail_cutoff_l(t, 1, K).upper())
        c = math.cos(BETA)
        head = float(mpmath.quad(lambda r: mpmath.exp(c * r) / r,
                                 [l, 40 * l]))
        analytic_tail = math.exp(c * 40 * l) / (-c * 40 * l)
        rem = (head + analytic_tail) / (math.pi * math.sin(BETA))
        assert rem <= 2.0 ** -(K + 7)

    def test_monotone_in_t(self):
        ls = [float(sk.tail_cutoff_l(BoundedValue.exact(t), 1, 8).upper())
              for t in (F(1, 32), F(1, 4), F(2))]
        assert ls[0] >= ls[1] >= ls[2]

    def test_monotone_in_norm(self):
        big = float(sk.tail_cutoff_l(F(1, 4), 2, 8).upper())
        small = float(sk.tail_cutoff_l(F(1, 4), 1, 8).upper())
        assert small <= big

    def test_zero_time_rejected(self):
        with pytest.raises(ValueError):
            sk.tail_cutoff_l(0, 1, 8)

    def test_search_returns_its_gamma3(self):
        # the contour oracle reads gamma_3 from _gamma3_value at the cutoff
        # tail_cutoff_l returns; the remainder there must meet the target
        t, norm, K = BoundedValue.exact(F(1, 4)), BoundedValue.exact(2), 8
        l = float(sk.tail_cutoff_l(t, norm, K).upper())
        g3 = sk._gamma3_value(l, t, K)
        assert (g3 * FloatBall.from_bounded(norm)).upper() <= \
            F(1, 2 ** (K + 7))


class TestResolvent:
    def test_single_mode_value(self):
        f = FourierField.single_mode("sc", 1, 1, 1.0)
        r = oracles.resolvent_apply(f, 1)
        assert r.grid.at((1, 1)).contains(
            F(1) / (1 + F(2) * F(math.pi) ** 2)) or \
            abs(r.grid.at((1, 1)).c - 1 / (1 + 2 * math.pi ** 2)) < 1e-14

    def test_zero_field(self):
        z = FourierField.zero("sc", 4)
        assert oracles.resolvent_apply(z, 1).l2_norm_ball().upper() < 1e-100

    def test_inverse_identity(self):
        rng = np.random.default_rng(7)
        g = BallGrid(rng.normal(size=(5, 5)))
        f = FourierField("sc", 4, g)
        lam = FloatBall(2.5)
        r = oracles.resolvent_apply(f, lam)
        # (lam I + A) r reproduces f mode-wise
        n = np.arange(5)
        s = n[:, None] ** 2 + n[None, :] ** 2
        back = r.grid.c * (lam.c + math.pi ** 2 * s)
        live = f.weights() > 0
        assert np.max(np.abs((back - f.grid.c) * live)) < 1e-10

    def test_complex_lambda(self):
        f = FourierField.single_mode("sc", 1, 1, 1.0)
        rr, ri = oracles.resolvent_apply(f, (FloatBall(1.0), FloatBall(2.0)))
        ref = 1.0 / (1 + 2j + 2 * math.pi ** 2)
        assert abs(rr.grid.at((1, 1)).c - ref.real) < 1e-12
        assert abs(ri.grid.at((1, 1)).c - ref.imag) < 1e-12

    def test_pole_rejected(self):
        f = FourierField.single_mode("sc", 1, 1, 1.0)
        with pytest.raises(ValueError):
            oracles.resolvent_apply(f, FloatBall(-2 * math.pi ** 2, 1e-3))

    def test_tailed_field_rejected(self):
        g = FourierField("sc", 2, FourierField.zero("sc", 2).grid,
                         FloatBall.from_endpoints(0.0, 0.5))
        with pytest.raises(ValueError):
            oracles.resolvent_apply(g, 1)


class TestSemigroup:
    def test_time_zero_identity(self):
        u = _sol_mode(2, 3)
        o = sk.semigroup_apply(u, 0, 10)
        assert _pair_diff(o, u) < 1e-100

    @pytest.mark.parametrize("K", [12, 20])
    @pytest.mark.parametrize("t", [F(1, 64), F(1, 2)])
    def test_heat_factor_enclosure(self, K, t):
        for n, m in [(1, 1), (2, 5), (6, 6)]:
            u = _sol_mode(n, m)
            o1, o2 = sk.semigroup_apply(u, t, K)
            fac = _heat(n * n + m * m, t)
            for out, src in ((o1, u[0]), (o2, u[1])):
                b = out.grid.at((n, m))
                assert abs(b.c - src.grid.at((n, m)).c * fac) <= b.r

    def test_precision_scales(self):
        u = _sol_mode(1, 1)
        for K in (8, 16):
            o = sk.semigroup_apply(u, F(1, 8), K)
            fac = _heat(2, F(1, 8))
            dev = _pair_diff(o, (u[0].scale(fac), u[1].scale(fac)))
            assert dev <= 2.0 ** -K

    def test_contractivity(self):
        u = _sol_mode(2, 1, 1.3)
        nin = math.sqrt((u[0].l2_sq_ball() + u[1].l2_sq_ball()).upper())
        for t in (F(1, 16), F(1, 2), F(3)):
            o = sk.semigroup_apply(u, t, 10)
            nout = math.sqrt((o[0].l2_sq_ball() + o[1].l2_sq_ball()).upper())
            assert nout <= nin + 2.0 ** -10

    def test_semigroup_law(self):
        u = _sol_mode(1, 2)
        K = 12
        once = sk.semigroup_apply(u, F(3, 8), K)
        twice = sk.semigroup_apply(sk.semigroup_apply(u, F(1, 8), K),
                                   F(1, 4), K)
        assert _pair_diff(once, twice) <= 2.0 ** -(K - 2)

    def test_small_time_encloses_heat_factor(self):
        # at t = 2^-40 the (1, 1) coefficient 1e-7 moves by about 1.8e-18,
        # far below 2^-K: the output must still enclose e^{-lam t} a, not
        # return a unchanged
        t = F(1, 1 << 40)
        u = _sol_mode(1, 1, 1e-7)
        out = sk.semigroup_apply(u, t, 4)
        with mpmath.workdps(50):
            fac = mpmath.exp(-2 * mpmath.pi ** 2 * t.numerator / t.denominator)
            for o, src in zip(out, u):
                b = o.grid.at((1, 1))
                exact = mpmath.mpf(src.grid.at((1, 1)).c) * fac
                assert abs(mpmath.mpf(b.c) - exact) <= mpmath.mpf(b.r)

    @pytest.mark.parametrize("hi", [F(1, 2), F(1, 1 << 40)])
    def test_interval_time_from_zero(self, hi):
        # over t = [0, hi] every live mode ball of a unit-coefficient pair
        # contains e^{-lam s} for s at both ends and inside
        cut = 4
        ones = tuple(FourierField(b, cut, BallGrid(np.ones((cut + 1,
                                                            cut + 1))))
                     for b in ("sc", "cs"))
        out = sk.semigroup_apply(ones, oracles.RefBall.from_endpoints(F(0), hi),
                                 20)
        with mpmath.workdps(50):
            for f in out:
                for n, m in zip(*np.nonzero(f.weights() > 0)):
                    b = f.grid.at((n, m))
                    lam = mpmath.pi ** 2 * int(n * n + m * m)
                    for s in (F(0), hi / 3, hi / 2, hi * F(7, 8), hi):
                        v = mpmath.exp(-lam * s.numerator / s.denominator)
                        assert abs(mpmath.mpf(b.c) - v) <= mpmath.mpf(b.r), \
                            (f.basis, n, m, s)

    def test_single_field_accepted(self):
        f = FourierField.single_mode("sc", 1, 1, 1.0)
        o = sk.semigroup_apply(f, F(1, 4), 10)
        b = o.grid.at((1, 1))
        assert abs(b.c - _heat(2, F(1, 4))) <= b.r

    def test_mollified_element(self):
        o1, o2 = sk.semigroup_apply(EL, F(1, 8), 8)
        assert o1.basis == "sc" and o2.basis == "cs"
        # the input tail passes through unchanged (contractivity)
        f1, _ = mollified_field_pair(EL, 64)
        assert o1.tail_l2.upper() <= f1.tail_l2.upper() * (1 + 1e-12)
        nin = math.sqrt(sum(f.l2_sq_ball().upper()
                            for f in mollified_field_pair(EL, 64)))
        nout = math.sqrt((o1.l2_sq_ball() + o2.l2_sq_ball()).upper())
        assert nout <= nin + 2.0 ** -8

    def test_element_resolves_at_its_budget(self):
        # at cutoff 64 the element's joint tail is 2.05e-4, over 2^-15; at
        # K = 13 it resolves at rung 256, and its tail passes through the
        # semigroup within the 2^-15 the resolver is asked for
        out = sk.semigroup_apply(EL, F(1, 8), 13)
        assert [f.cutoff for f in out] == [256, 256]
        assert _norm2([f.tail_l2.upper() for f in out]).upper() <= 2.0 ** -15

    def test_in_band_tail_survives(self):
        # the tail bounds a perturbation inside the band; e^{-tA} does not
        # increase it, so it passes through, and each output norm holds the
        # norm of e^{-tA} applied to the named field
        pair, named = oracles.in_band_pair()
        t = F(1, 32)
        out = sk.semigroup_apply(pair, t, 12)
        with mpmath.workdps(40):
            for j, (o, f) in enumerate(zip(out, pair)):
                assert o.tail_l2.upper() >= f.tail_l2.upper()
                sq = mpmath.mpf(0)
                for (i, n, m), v in named.items():
                    if i == j:
                        lam_t = (n * n + m * m) * t
                        sq += mpmath.mpf(v.numerator) ** 2 / v.denominator ** 2 \
                            / 4 * mpmath.exp(-2 * mpmath.pi ** 2 * lam_t.numerator
                                             / lam_t.denominator)
                norm = o.l2_norm_ball()
                assert mpmath.mpf(norm.lower()) <= mpmath.sqrt(sq) \
                    <= mpmath.mpf(norm.upper())

    def test_commutes_with_frac_power(self):
        u = FourierField.single_mode("sc", 2, 3, 1.0)
        a = sk.frac_power_apply(sk.semigroup_apply(u, F(1, 4), 12), F(1, 2))
        b = sk.semigroup_apply(sk.frac_power_apply(u, F(1, 2)), F(1, 4), 12)
        assert (a - b).l2_norm_ball().upper() < 2e-5

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            sk.semigroup_apply(_sol_mode(1, 1), -1, 8)


def _full_pair(cutoff, seed):
    """A pair with a coefficient on every live mode up to ``cutoff``."""
    rng = np.random.default_rng(seed)
    return tuple(FourierField(b, cutoff, BallGrid(rng.uniform(
        -1, 1, (cutoff + 1, cutoff + 1)))) for b in ("sc", "cs"))


def _assert_inside(inner, outer):
    """Every live mode ball of ``inner`` lies inside that of ``outer``."""
    for fi, fo in zip(inner, outer):
        live = fi.weights() > 0
        for idx in zip(*np.nonzero(live)):
            bi, bo = fi.grid.at(idx), fo.grid.at(idx)
            assert bo.lower() <= bi.lower() and bi.upper() <= bo.upper(), \
                (fi.basis, idx, bi.c, bi.r, bo.c, bo.r)


class TestDefaultRoute:
    """The closed-form heat factors are the semigroup's one route: each of
    their balls lies inside the ball of the contour oracle, and the route
    makes no contour call at all."""

    @pytest.mark.parametrize("K", [12, 20])
    @pytest.mark.parametrize("t", [F(1, 64), F(5, 32), F(1, 2), F(1)])
    def test_inside_contour_ball(self, K, t):
        pair = _full_pair(6, K)
        _assert_inside(sk.semigroup_apply(pair, t, K),
                       oracles.contour_semigroup(pair, t, K))

    def test_inside_contour_ball_at_interval_time(self):
        t = oracles.RefBall.from_endpoints(F(1, 8), F(1, 8) + F(1, 2 ** 20))
        pair = _full_pair(6, 3)
        out = sk.semigroup_apply(pair, t, 12)
        _assert_inside(out, oracles.contour_semigroup(pair, t, 12))
        # the interval ball holds the factors at both ends of the time
        for f, g in zip(out, pair):
            for tq in (t.lower(), t.upper()):
                b, a = f.grid.at((2, 3)), g.grid.at((2, 3)).c
                assert b.lower() <= a * _heat(13, tq) <= b.upper()

    def test_wide_interval_time_at_cutoff_8(self):
        # lam t spans about 150 to 1600 at mode (8, 8) over t in [1/8, 5/4]:
        # the ball is the hull of the factors at the two ends of the time
        t = oracles.RefBall.from_endpoints(F(1, 8), F(5, 4))
        pair = _full_pair(8, 7)
        out = sk.semigroup_apply(pair, t, 12)
        _assert_inside(out, oracles.contour_semigroup(pair, t, 12))
        for f, g in zip(out, pair):
            for n, m in ((1, 1), (3, 5), (8, 8)):
                b, a = f.grid.at((n, m)), g.grid.at((n, m)).c
                ends = sorted(a * _heat(n * n + m * m, tq)
                              for tq in (t.lower(), t.upper()))
                assert b.lower() <= ends[0] and ends[1] <= b.upper()
                assert b.r <= 0.5 * (ends[1] - ends[0]) * (1 + 1e-9)

    def test_element_inside_contour_ball(self):
        out = sk.semigroup_apply(EL, F(1, 8), 8)
        _assert_inside(out, oracles.contour_semigroup(EL, F(1, 8), 8))
        for o, f in zip(out, mollified_field_pair(EL, 64)):
            assert o.tail_l2.c == f.tail_l2.c and o.tail_l2.r == f.tail_l2.r

    def test_default_makes_no_contour_call(self, monkeypatch):
        def contour(*args):
            raise LookupError("contour route")
        monkeypatch.setattr(sk, "contour_factors", contour)
        monkeypatch.setattr(sk, "tail_cutoff_l", contour)
        pair = _full_pair(4, 5)
        t = oracles.RefBall.from_endpoints(F(1, 8), F(1, 8) + F(1, 2 ** 20))
        for tt in (F(1, 8), F(1, 10), t):
            sk.semigroup_apply(pair, tt, 12)
        sk.semigroup_apply(EL, F(1, 8), 8)

    def test_exact_times_share_the_cached_table(self):
        pair = _full_pair(4, 6)
        sk._heat_factor.cache_clear()
        sk.semigroup_apply(pair, F(3, 16), 12)
        sk.semigroup_apply(pair, BoundedValue.exact(F(3, 16)), 12)
        info = sk._heat_factor.cache_info()
        assert info.misses == 1 and info.hits == 1


def test_only_contour_primitives_name_the_contour():
    # the contour semigroup is a test oracle: in the library, no function
    # but the contour primitives themselves refers to one of them
    prims = {"contour_factors", "tail_cutoff_l", "_gamma3_value",
             "gamma_tail"}
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "solenoid"
    offenders = []
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef) or fn.name in prims:
                continue
            for node in ast.walk(fn):
                name = getattr(node, "id", getattr(node, "attr", None))
                if name in prims:
                    offenders.append("%s:%d %s in %s" % (
                        path.name, node.lineno, name, fn.name))
    assert not offenders, offenders


def test_semigroup_leaves_numpy_ma_unloaded():
    # numpy.ma takes about 14 ms to import and the semigroup needs none of
    # it; under numpy 2.4 a plain np.unique would load it
    root = pathlib.Path(__file__).resolve().parents[1]
    code = "\n".join([
        "import sys",
        "from fractions import Fraction",
        "from solenoid.spectral import FourierField",
        "from solenoid.stokes import semigroup_apply",
        "u = (FourierField.single_mode('sc', 2, 3, 3.0),",
        "     FourierField.single_mode('cs', 2, 3, -2.0))",
        "o = semigroup_apply(u, Fraction(1, 64), 12)",
        "assert o[0].grid.c[2, 3] != 3.0, 'the identity shortcut was taken'",
        "print('numpy.ma' in sys.modules)"])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestSemigroupProperties:
    coeff = st.floats(min_value=-2, max_value=2,
                      allow_nan=False, allow_infinity=False)

    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 4), c=coeff,
           tnum=st.integers(1, 8))
    def test_mode_decay(self, n, m, c, tnum):
        t = F(tnum, 8)
        u = _sol_mode(n, m, c or 1.0)
        o = sk.semigroup_apply(u, t, 10)
        fac = _heat(n * n + m * m, t)
        assert _pair_diff(o, (u[0].scale(fac), u[1].scale(fac))) <= 2.0 ** -10

    @settings(max_examples=10, deadline=None)
    @given(c1=coeff, c2=coeff)
    def test_linearity(self, c1, c2):
        a, b = _sol_mode(1, 1, c1 or 0.5), _sol_mode(2, 1, c2 or 0.5)
        joint = sk.semigroup_apply((a[0] + b[0], a[1] + b[1]), F(1, 4), 10)
        pa = sk.semigroup_apply(a, F(1, 4), 10)
        pb = sk.semigroup_apply(b, F(1, 4), 10)
        assert _pair_diff(joint, (pa[0] + pb[0], pa[1] + pb[1])) <= 2.0 ** -8


class TestModeCutoff:
    def test_certifies_displayed_bound(self):
        f = FourierField.single_mode("sc", 1, 1, 1.0)
        t, l, K = F(1, 100), F(2), 4
        k = oracles.mode_cutoff(t, f, l, K)
        S = f.hs_norm(1).upper() ** 2
        B = float(l) * math.exp(float(l) * float(t)) / (2 * math.pi)
        assert B * B * S / (1 + 2 * k * k) < 2.0 ** (-2 * (K + 7))
        # minimality: one step down violates the bound
        if k > 0:
            kk = k - 1
            assert B * B * S / (1 + 2 * kk * kk) >= 2.0 ** (-2 * (K + 7)) \
                * (1 - 1e-9)

    def test_grows_with_lt(self):
        f = FourierField.single_mode("sc", 1, 1, 1.0)
        small = oracles.mode_cutoff(F(1, 100), f, F(2), 4)
        large = oracles.mode_cutoff(F(2), f, F(2), 4)
        assert large > small

    def test_mollified_element_has_weighted_sum(self):
        k = oracles.mode_cutoff(F(1, 100), EL, F(1), 2)
        assert isinstance(k, int) and k > 0


class TestFracPower:
    def test_half_power_single_mode(self):
        f = FourierField.single_mode("sc", 1, 1, 1.0)
        p = sk.frac_power_apply(f, F(1, 2))
        assert p.grid.at((1, 1)).contains(
            F(math.sqrt(2) * math.pi ** 2).limit_denominator(10 ** 13)) or \
            abs(p.grid.at((1, 1)).c - math.sqrt(2 * math.pi ** 2)) < 1e-12

    def test_exponent_additivity(self):
        rng = np.random.default_rng(3)
        f = FourierField("cs", 4, BallGrid(rng.normal(size=(5, 5))))
        one = sk.frac_power_apply(f, F(3, 5))
        two = sk.frac_power_apply(sk.frac_power_apply(f, F(3, 10)), F(3, 10))
        assert (one - two).l2_norm_ball().upper() < 1e-10

    @pytest.mark.parametrize("alpha", [0, 1, F(-1, 2), F(3, 2)])
    def test_exponent_range(self, alpha):
        f = FourierField.single_mode("sc", 1, 1, 1.0)
        with pytest.raises(ValueError):
            sk.frac_power_apply(f, alpha)

    def test_integral_representation(self):
        # sin(pi a)/pi times the integral equals lam^a; certified both ways
        for s, alpha in ((2, F(1, 4)), (5, F(1, 2))):
            v = oracles.power_integral(s, alpha, k=8)
            lam = math.pi ** 2 * s
            ref = lam ** float(alpha) * math.pi / math.sin(math.pi *
                                                           float(alpha))
            assert float(v.lower()) <= ref <= float(v.upper())
            norm = math.sin(math.pi * float(alpha)) / math.pi
            direct = sk.frac_power_apply(
                FourierField.single_mode("sc", 1, 1, 1.0)
                if s == 2 else FourierField.single_mode("sc", 1, 2, 1.0),
                alpha).grid.at((1, 1) if s == 2 else (1, 2))
            assert abs(float(v.upper()) * norm - direct.c) < 2.0 ** -6

    def test_warm_band_limited_pair_runs_no_exp(self, monkeypatch):
        # pi^{2 alpha} is read only for a tail: a warm call on a
        # band-limited pair at alpha = 3/5 runs no exp series at all
        from solenoid import floatball
        rng = np.random.default_rng(5)
        pair = (FourierField("sc", 6, BallGrid(rng.normal(size=(7, 7)))),
                FourierField("cs", 6, BallGrid(rng.normal(size=(7, 7)))))
        cold = sk.frac_power_apply(pair, F(3, 5))
        calls = []

        def counted(x):
            calls.append(x.shape)
            return grid_exp(x)
        grid_exp = floatball.grid_exp
        monkeypatch.setattr(floatball, "grid_exp", counted)
        warm = sk.frac_power_apply(pair, F(3, 5))
        assert calls == []
        for a, b in zip(cold, warm):
            assert a.grid.c.tobytes() == b.grid.c.tobytes()
            assert a.grid.r.tobytes() == b.grid.r.tobytes()
            assert (a.tail_l2.c, a.tail_l2.r) == (0.0, 0.0) == \
                (b.tail_l2.c, b.tail_l2.r)

    def test_mollified_tail_propagates(self):
        p1, p2 = sk.frac_power_apply(EL, F(1, 4))
        assert p1.tail_l2.upper() > 0
        f1, _ = mollified_field_pair(EL, 64, hs_tails=(F(1, 2),))
        bound = math.pi * f1.tail_hs[F(1, 2)].upper() * 1.01
        assert p1.tail_l2.upper() <= bound

    def test_tail_without_data_rejected(self):
        g = FourierField("sc", 2, FourierField.zero("sc", 2).grid,
                         FloatBall.from_endpoints(0.0, 0.5))
        with pytest.raises(ValueError):
            sk.frac_power_apply(g, F(1, 2))

    def test_name_rejected(self):
        # A^alpha is unbounded on L2, so no refinement level of a name
        # bounds its error: this name's refine(k) is 2^-(k+1) off at mode
        # (1, 2), where A^{1/2} a is 2 sqrt(5) pi = 14.05 and A^{1/2}
        # refine(0) is 2.5 sqrt(5) pi = 17.56
        def refine(k):
            return (FourierField.single_mode("sc", 1, 2, 2 + 2.0 ** -(k + 1)),
                    FourierField.single_mode("cs", 1, 2, -1.0))
        with pytest.raises(ValueError):
            sk.frac_power_apply(VectorFieldName(Name(refine)), F(1, 2))

    @pytest.mark.parametrize("beta", [F(1, 4), F(1, 2)])
    def test_norm_two_routes(self, beta):
        # ||A^beta u|| as one weighted sum against the L2 norm of the
        # applied power, and both against a 40-digit mpmath value
        rng = np.random.default_rng(8)
        pair = (FourierField("sc", 6, BallGrid(rng.normal(size=(7, 7)))),
                FourierField("cs", 6, BallGrid(rng.normal(size=(7, 7)))))
        norm = sk.frac_power_norm(pair, beta)
        applied = sk.frac_power_apply(pair, beta)
        other = fb_sqrt(applied[0].l2_sq_ball() + applied[1].l2_sq_ball())
        assert norm.lower() <= other.upper() and other.lower() <= norm.upper()
        with mpmath.workdps(40):
            total = mpmath.mpf(0)
            q = 2 * mpmath.mpf(beta.numerator) / beta.denominator
            for f in pair:
                w = f.weights()
                for n in range(7):
                    for m in range(7):
                        lam = mpmath.pi ** 2 * (n * n + m * m)
                        total += lam ** q * mpmath.mpf(w[n, m]) \
                            * mpmath.mpf(f.grid.c[n, m]) ** 2
            ref = F(mpmath.nstr(mpmath.sqrt(total), 35))
        assert norm.contains(ref) and other.contains(ref)
        assert norm.r <= other.r

    def test_norm_needs_band_limited_fields(self):
        g = FourierField("sc", 2, FourierField.zero("sc", 2).grid,
                         FloatBall.from_endpoints(0.0, 0.5))
        with pytest.raises(ValueError):
            sk.frac_power_norm([g], F(1, 4))


class TestSmoothing:
    def test_alpha_zero_is_contractivity(self):
        rep = oracles.smoothing_bound_check(_sol_mode(1, 2), 0, F(1, 2))
        assert rep["ok"] and rep["margin"] >= 0

    def test_default_table_margins(self):
        u = _sol_mode(2, 1, 0.8)
        for t in (F(1, 16), F(1, 2), F(2)):
            rep = oracles.smoothing_bound_check(u, F(1, 4), t)
            assert rep["margin"] >= 0

    def test_calculus_lower_bound(self):
        # sup_t (t lam)^a e^{-t lam} = (a/e)^a: any valid C_a exceeds it
        alpha = 0.25
        lam = 2 * math.pi ** 2
        ts = np.linspace(1e-4, 2.0, 4000)
        sup = float(np.max((ts * lam) ** alpha * np.exp(-ts * lam)))
        assert abs(sup - (alpha / math.e) ** alpha) < 1e-3
        # the library's constant, 1, exceeds it
        assert 1.0 >= sup - 1e-3

    # the exponents the library's smoothing steps use: alpha = 0 and
    # beta + 1/4 for the defect channels beta in {0, 1/4, 1/2, 3/5}
    ALPHAS = (F(0), F(1, 4), F(1, 2), F(3, 4), F(17, 20))
    TIMES = (F(1, 1024), F(1, 64), F(1, 4))

    @staticmethod
    def _nearest_mode(t, x):
        """The mode (n, m), 1 <= n, m <= 12, whose lambda t lies nearest x,
        where x t^-1 lambda^alpha e^{-lambda t} peaks."""
        with mpmath.workdps(50):
            return min(((n, m) for n in range(1, 13) for m in range(1, 13)),
                       key=lambda nm: abs(mpmath.pi ** 2 * (nm[0] ** 2
                                          + nm[1] ** 2) * t.numerator
                                          / t.denominator - x))

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_unit_constant_at_every_exponent(self, alpha):
        # ||A^alpha e^{-tA} a|| <= t^-alpha ||a||, mode by mode
        # (lambda t)^alpha e^{-lambda t} <= (alpha/e)^alpha <= 1, at 50
        # digits on every mode of the band and through the oracle's
        # enclosures on the mode whose lambda t lies nearest alpha, where
        # the ratio peaks
        with mpmath.workdps(50):
            a = mpmath.mpf(alpha.numerator) / alpha.denominator
            peak = (a / mpmath.e) ** a if alpha else mpmath.mpf(1)
            for t in self.TIMES:
                tm = mpmath.mpf(t.numerator) / t.denominator
                ratio = {}
                for n in range(1, 13):
                    for m in range(1, 13):
                        x = mpmath.pi ** 2 * (n * n + m * m) * tm
                        ratio[n, m] = x ** a * mpmath.exp(-x)
                        assert ratio[n, m] <= peak <= 1
                nm = self._nearest_mode(t, a)
                rep = oracles.smoothing_bound_check(_sol_mode(*nm), alpha, t)
                assert rep["ok"] and rep["margin"] >= 0, (alpha, t, nm)
                # the enclosures hold the 50-digit ratio of the two sides
                assert mpmath.mpf(rep["lhs_upper"]) >= \
                    ratio[nm] * mpmath.mpf(rep["rhs_lower"]), (alpha, t, nm)

    def test_half_time_bound_unit_constant(self):
        # ||e^{-tA} a - a|| <= t^{1/2} ||A^{1/2} a||, mode by mode
        # |e^{-x} - 1| <= sqrt(x) with x = lambda t, at 50 digits on every
        # mode of the band, and through the library's semigroup and
        # fractional-power norm on the mode nearest the peak of
        # (1 - e^{-x})/sqrt(x)
        with mpmath.workdps(50):
            xs = mpmath.findroot(
                lambda x: 2 * x * mpmath.exp(-x) - (1 - mpmath.exp(-x)), 1)
            assert (1 - mpmath.exp(-xs)) / mpmath.sqrt(xs) < 0.64
            for t in self.TIMES:
                tm = mpmath.mpf(t.numerator) / t.denominator
                for n in range(1, 13):
                    for m in range(1, 13):
                        x = mpmath.pi ** 2 * (n * n + m * m) * tm
                        assert abs(mpmath.exp(-x) - 1) <= mpmath.sqrt(x)
        for t, root in zip(self.TIMES, (F(1, 32), F(1, 8), F(1, 2))):
            u = _sol_mode(*self._nearest_mode(t, xs))
            moved = _pair_diff(sk.semigroup_apply(u, t, 30), u)
            half = sk.frac_power_norm(u, F(1, 2))
            assert moved <= float(root) * half.lower(), t

    def test_needs_positive_time(self):
        with pytest.raises(ValueError):
            oracles.smoothing_bound_check(_sol_mode(1, 1), F(1, 4), 0)

