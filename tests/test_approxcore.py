"""Oracle-first tests for the dyadic ball layer, names, quadrature and
special functions.

Expected values marked as frozen were computed with independent
high-precision oracles (mpmath at 40 digits) and hard-coded here.
"""

import ast
import pathlib
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from solenoid import approxcore
from solenoid.approxcore import (
    BoundedValue, ConstantsTable, Name, beta, bv_e1, bv_sqrt, gamma_tail,
)
from solenoid.floatball import FloatBall

from oracles import TSeries, beta_gamma, beta_quadrature, bv_pow, \
    certified_integral

# frozen oracle values (40-digit mpmath)
PI_SQRT2 = F("4.442882938158366247015880990060693698615")
PI = F("3.141592653589793238462643383279502884197")
GT_1_1 = F("0.8838363368108198452809378558925656668766")
E_MINUS_1 = F("1.718281828459045235360287471352662497757")

fractions = st.fractions(min_value=-8, max_value=8,
                         max_denominator=1 << 12)


def _dyadic(m, e):
    return F(m) * F(2) ** e


class TestBallJson:
    @given(cm=st.integers(-10**6, 10**6), ce=st.integers(-60, 60),
           rm=st.integers(0, 10**6), re=st.integers(-60, 60))
    def test_json_round_trip(self, cm, ce, rm, re):
        # integers with trailing zeros (e > 0, m even) included
        b = BoundedValue(_dyadic(cm, ce), _dyadic(rm, re))
        obj = b.to_json()
        for part, value in ((obj["c"], b.center), (obj["r"], b.radius)):
            m, e = int(part["m"]), part["e"]
            assert type(part["m"]) is str and type(e) is int
            assert m % 2 == 1 or (m == 0 and e == 0)
            assert _dyadic(m, e) == value
        back = BoundedValue.from_json(obj)
        assert (back.center, back.radius) == (b.center, b.radius)
        assert back.to_json() == obj

    def test_canonical_form(self):
        assert BoundedValue(96).to_json()["c"] == {"m": "3", "e": 5}
        assert BoundedValue(F(-7, 4096)).to_json()["c"] == {"m": "-7", "e": -12}
        assert BoundedValue(0).to_json() == {"c": {"m": "0", "e": 0},
                                             "r": {"m": "0", "e": 0}}
        # a written form that is not canonical loads to its value
        b = BoundedValue.from_json({"c": {"m": "12", "e": 3},
                                    "r": {"m": "0", "e": 17}})
        assert (b.center, b.radius) == (96, 0)

    def test_parts_are_dyadic_fractions(self):
        b = BoundedValue.from_fraction(F(1, 3)) * BoundedValue.exact(5)
        for part in (b.center, b.radius, b.lower(), b.upper(), b.mag()):
            assert type(part) is F
            assert part.denominator & (part.denominator - 1) == 0

    def test_constructor_refuses_non_dyadic(self):
        with pytest.raises(ValueError):
            BoundedValue(F(1, 3))
        with pytest.raises(ValueError):
            BoundedValue(0, F(1, 6))
        with pytest.raises(TypeError):
            BoundedValue(0.5)
        with pytest.raises(TypeError):
            BoundedValue(1, 0.25)
        with pytest.raises(TypeError):
            BoundedValue.exact("1")
        with pytest.raises(ValueError):
            BoundedValue(1, -1)


class TestBoundedValue:
    @given(x=fractions, y=fractions)
    def test_enclosure_soundness_mul_add(self, x, y):
        bx = BoundedValue.from_fraction(x)
        by = BoundedValue.from_fraction(y)
        assert (bx + by).contains(x + y)
        assert (bx * by).contains(x * y)
        assert (bx - by).contains(x - y)

    @given(x=fractions, y=fractions.filter(lambda f: abs(f) > F(1, 100)))
    def test_enclosure_soundness_div(self, x, y):
        bx = BoundedValue.from_fraction(x)
        by = BoundedValue.from_fraction(y)
        assert (bx / by).contains(x / y)

    @given(x=fractions)
    def test_rounding_keeps_enclosure(self, x):
        b = BoundedValue.from_fraction(x)
        wide = b * BoundedValue.from_fraction(F(1, 3))
        assert wide.rounded(16).contains(x / 3)

    def test_expression_tree_oracle(self):
        # exact rational oracle on a fixed composite expression
        x, y, z = F(3, 7), F(-5, 11), F(9, 4)
        bx, by, bz = (BoundedValue.from_fraction(v) for v in (x, y, z))
        expr = (bx * by - bz) * (bx + by) / (bz * bz + BoundedValue.exact(1))
        oracle = (x * y - z) * (x + y) / (z * z + 1)
        assert expr.contains(oracle)

    def test_sqrt(self):
        s = bv_sqrt(BoundedValue.exact(2))
        assert s.contains(F("1.41421356237309504880168872420969807857")) or \
            (s.lower() ** 2 <= 2 <= s.upper() ** 2)
        assert s.lower() ** 2 <= 2 <= s.upper() ** 2

    def test_pow_rational(self):
        p = bv_pow(BoundedValue.exact(4), F(1, 2))
        assert p.contains(F(2))


class TestName:
    def _cauchy_name(self, limit: F) -> Name:
        def q(k):
            step = F(1, 3 * (1 << k))
            return BoundedValue.from_endpoints(limit - step, limit + step)
        return Name(q)

    def test_dense_point_constant(self):
        v = BoundedValue.exact(F(5, 8))
        n = Name.constant(v)
        for k in (0, 3, 9):
            assert n.refine(k) is v

    @given(k=st.integers(0, 20), j=st.integers(0, 20))
    def test_consistency(self, k, j):
        n = self._cauchy_name(F(1, 3))
        a, b = n.refine(k), n.refine(j)
        gap = abs(a.center - b.center)
        assert gap <= F(1, 1 << k) + F(1, 1 << j)

    def test_series_name_partial_sums(self):
        # name of sum 2^-i built from partial sums with certified tail
        def q(k):
            s = sum(F(1, 1 << i) for i in range(1, k + 2))
            return BoundedValue.from_endpoints(s, s + F(1, 1 << (k + 1)))
        n = Name(q)
        oracle = F(1)
        for k in (0, 4, 10):
            assert n.refine(k).contains(oracle)

    def test_negative_precision_rejected(self):
        with pytest.raises(ValueError):
            Name.constant(1).refine(-1)


class TestQuadrature:
    def test_polynomial_exact(self):
        v = certified_integral(lambda t: t * t, F(0), F(1), F(1, 1 << 20))
        assert v.contains(F(1, 3))

    def test_exp_oracle(self):
        v = certified_integral(lambda t: t.exp(), F(0), F(1), F(1, 1 << 24))
        assert v.contains(E_MINUS_1)
        assert v.radius <= F(1, 1 << 24)

    def test_sin_oracle(self):
        # integral of sin over [0, pi/2] approx 1; use rational bounds around pi/2
        v = certified_integral(lambda t: t.sin(), F(0), F(1), F(1, 1 << 24))
        assert v.contains(F("0.4596976941318602825990633925570233"))


class TestTaylorSeries:
    def test_certified_integral_frozen(self):
        # TSeries picks bv_exp, bv_log, bv_sin and bv_cos for BoundedValue
        # coefficients, and reproduces the results of the former type
        # switches bit for bit; the values are frozen from that route
        frozen = (
            (lambda x: (x * x).exp() / (x + 1),
             {"c": {"m": "1271871471161012921919350297525992809", "e": -120},
              "r": {"m": "22235003869454419557561034459566337", "e": -146}}),
            (lambda x: (x + 2).log() * x.sin(),
             {"c": {"m": "594138465876335810456011542178966227", "e": -120},
              "r": {"m": "406522884264536197031852450679438031", "e": -153}}),
        )
        for f, want in frozen:
            got = certified_integral(f, F(0), F(1), F(1, 1 << 30))
            assert got.to_json() == want

    def test_hooks_of_both_ball_types(self):
        # TSeries on either ball type: its constants, exact scalings and
        # exp, log and sincos follow the coefficient type
        # 50-digit mpmath values
        sqrt_e = F("1.6487212707001281468486507878141635716537761007101")
        log_half = F("-0.69314718055994530941723212145817656807550013436026")
        sin_half = F("0.47942553860420300027328793521557138808180336794060")
        cos_half = F("0.87758256189037271611628158260382965199164519710974")
        for x in (BoundedValue.exact(F(1, 2)), FloatBall(0.5)):
            t = TSeries.variable(x, 3)
            assert t.c[1].contains(F(1)) and t.c[2].contains(F(0))
            assert t.reciprocal().c[0].contains(F(2))
            assert TSeries.constant(x, 2).pow_frac(F(0)).c[0].contains(F(1))
            e = t.exp()
            assert type(e.c[0]) is type(x)
            assert e.c[0].contains(sqrt_e) and e.c[3].contains(sqrt_e / 6)
            assert t.log().c[0].contains(log_half)
            s, c = t.sincos()
            assert type(s.c[0]) is type(x) and s.c[0].contains(sin_half)
            assert c.c[0].contains(cos_half) and s.c[1].contains(cos_half)

    def test_exp_coefficients(self):
        t = TSeries.variable(BoundedValue.exact(0), 6)
        g = t.exp()
        fact = 1
        for k, c in enumerate(g.c):
            if k:
                fact *= k
            assert c.contains(F(1, fact))

    def test_log1p_coefficients(self):
        t = TSeries.variable(BoundedValue.exact(1), 6)
        g = t.log()
        assert g.c[0].contains(F(0))
        for k in range(1, 7):
            assert g.c[k].contains(F((-1) ** (k + 1), k))

    def test_sincos_coefficients(self):
        t = TSeries.variable(BoundedValue.exact(0), 5)
        s, c = t.sincos()
        assert s.c[0].contains(F(0)) and c.c[0].contains(F(1))
        assert s.c[1].contains(F(1)) and s.c[3].contains(F(-1, 6))
        assert c.c[2].contains(F(-1, 2)) and c.c[4].contains(F(1, 24))

    def test_reciprocal(self):
        t = TSeries.variable(BoundedValue.exact(2), 4)
        g = t.reciprocal()
        for k in range(5):
            assert g.c[k].contains(F((-1) ** k, 2 ** (k + 1)))


class TestBeta:
    def test_trivial_one_one(self):
        assert beta(F(1), F(1), 20).contains(F(1))

    def test_reflection_34_14(self):
        b = beta(F(3, 4), F(1, 4), 20)
        assert b.contains(PI_SQRT2)
        assert b.radius <= F(1, 1 << 20)

    def test_reflection_half_half(self):
        assert beta(F(1, 2), F(1, 2), 16).contains(PI)

    def test_symmetry_overlap(self):
        a = beta(F(2, 3), F(5, 4), 16)
        b = beta(F(5, 4), F(2, 3), 16)
        assert a.overlaps(b)

    def test_positivity(self):
        assert beta(F(3, 2), F(7, 3), 12).lower() > 0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            beta(F(0), F(1))
        with pytest.raises(ValueError):
            beta(F(1), F(-2))

    def test_quadrature_oracle_regular(self):
        # B(2,3) = 1/12 exactly
        assert beta(F(2), F(3), 20).contains(F(1, 12))

    @pytest.mark.parametrize("x", [F(1, 2), F(1, 4), F(3, 4), F(3, 20)])
    def test_closed_form_overlaps_quadrature(self, x):
        # the four arguments the certificate uses, against the independent
        # quadrature route (kept cheap at k = 12)
        b = beta(x, F(1, 4))
        assert b.radius <= F(1, 1 << 24)
        assert b.overlaps(beta_quadrature(x, F(1, 4), 12))

    def test_reflection_34_14_high_precision(self):
        # B(3/4,1/4) = pi sqrt 2 from mpmath at 200 bits, as a bracket of
        # width 3 * 2^-200 that contains it
        with mp.workprec(200):
            m = int(mp.floor(mp.pi * mp.sqrt(2) * mp.mpf(2) ** 200))
        lo, hi = F(m - 1, 1 << 200), F(m + 2, 1 << 200)
        b = beta(F(3, 4), F(1, 4), 60)
        assert b.lower() <= lo and hi <= b.upper()
        assert b.radius <= F(1, 1 << 60)

    @pytest.mark.parametrize("x", [F(1, 2), F(1, 4), F(3, 4), F(3, 20)])
    def test_series_inside_the_gamma_closed_form(self, x):
        # the certificate's four values against Gamma(x) Gamma(y)/Gamma(x+y)
        # in mpmath's interval arithmetic: they overlap, and the integer
        # series is no wider
        b, ref = beta(x, F(1, 4)), beta_gamma(x, F(1, 4))
        assert b.overlaps(ref) and b.radius <= ref.radius

    @pytest.mark.parametrize("x", [F(1, 2), F(3, 20)])
    def test_meets_high_precision(self, x):
        # every k is honoured, past the 120 bits of BoundedValue arithmetic
        with mp.workdps(250):
            ref = mp.beta(mp.mpf(x.numerator) / x.denominator, mp.mpf(1) / 4)
        for k in range(100, 201, 10):
            b = beta(x, F(1, 4), k)
            assert b.radius <= F(1, 1 << k), k
            with mp.workdps(250):
                assert _mp_of(b.lower()) <= ref <= _mp_of(b.upper()), k

    def test_exact_past_gamma_minimum(self):
        # x + y beyond the minimum of Gamma near 1.4616, where iv.gamma
        # switches from the decreasing to the increasing branch
        for x, y, val in ((F(1), F(1, 2), F(2)), (F(2), F(3), F(1, 12))):
            b = beta(x, y, 60)
            assert b.contains(val)
            assert b.radius <= F(1, 1 << 60)


class TestGammaTail:
    def test_oracle_containment(self):
        g = gamma_tail(BoundedValue.exact(1), BoundedValue.exact(1), 16)
        assert g.lower() <= GT_1_1 <= g.upper()

    def test_monotone_in_l(self):
        one = BoundedValue.exact(1)
        g1 = gamma_tail(one, one, 16)
        g2 = gamma_tail(BoundedValue.exact(2), one, 16)
        assert g2.upper() < g1.upper()

    def test_decreasing_in_t(self):
        one = BoundedValue.exact(1)
        prev = None
        for t in (1, 2, 4, 8):
            g = gamma_tail(one, BoundedValue.exact(t), 16)
            if prev is not None:
                assert g.upper() < prev
            prev = g.upper()

    def test_domain_errors(self):
        one = BoundedValue.exact(1)
        zero = BoundedValue.exact(0)
        with pytest.raises(ValueError):
            gamma_tail(zero, one)
        with pytest.raises(ValueError):
            gamma_tail(one, zero)


def _mp_of(f: F):
    """A Fraction as an mpf at the working precision."""
    return mp.mpf(f.numerator) / f.denominator


def _mp_frac(v) -> F:
    """An mpf as the exact Fraction it stores."""
    m, e = v.man_exp
    return F(m) * F(2) ** e


def _e1_ref(x: F) -> F:
    """E_1(x) by mpmath at 60 digits."""
    with mp.workdps(60):
        return _mp_frac(mp.e1(mp.mpf(x.numerator) / x.denominator))


def _tail_ref(l: F, t: F):
    """E_1(x) and e^-x/x for x = t |cos(3 pi/5)| l by mpmath at 60 digits."""
    with mp.workdps(60):
        x = mp.mpf(l.numerator) / l.denominator * \
            (mp.mpf(t.numerator) / t.denominator) * -mp.cos(3 * mp.pi / 5)
        return _mp_frac(mp.e1(x)), _mp_frac(mp.exp(-x) / x)


class TestE1:
    """bv_e1 against 60-digit mpmath, over a sweep of precisions so that each
    part of the bound (partial sum, tail, gamma, log) is the tight one
    somewhere."""

    def test_e1_of_one(self):
        ref = _e1_ref(F(1))
        for prec in (80, 90, 120):
            v = bv_e1(1, prec)
            assert v.contains(ref)
            assert v.radius <= F(1, 1 << (prec - 2))

    @pytest.mark.parametrize("x", [F(1, 1 << 32), F(3, 1 << 10), F(1),
                                   F(41, 4), F(25, 2), F(13), F(38), F(50)])
    def test_precision_sweep(self, x):
        ref = _e1_ref(x)
        for prec in range(10, 131, 3):
            v = bv_e1(x, prec)
            assert v.contains(ref), (x, prec)
            assert v.radius <= F(1, 1 << (prec - 5)), (x, prec)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bv_e1(0, 80)
        with pytest.raises(ValueError):
            bv_e1(F(1, 3), 80)  # not dyadic


class TestGammaTailSoundness:
    """gamma_tail encloses E_1(t |cos(3 pi/5)| l) from above, within 2^-k,
    at engineered (l, t, k)."""

    @staticmethod
    def _check(l: F, t: F, k: int):
        g = gamma_tail(BoundedValue.exact(l), BoundedValue.exact(t), k)
        ref, closed = _tail_ref(l, t)
        assert g.lower() <= 0 and g.lower() <= ref <= g.upper()
        assert g.upper() - ref <= F(1, 1 << k)
        # below e^-x/x, the bound from int_x^inf e^-s/s ds <= e^-x/x
        assert g.upper() < closed

    def test_x_near_zero(self):
        self._check(F(1), F(1, 1 << 30), 24)

    def test_selftest_case(self):
        # the contour cutoff the selftest accepts for t = 1/8, K = 10
        self._check(F(264.6977960169688), F(1, 8), 22)

    @pytest.mark.parametrize("l, t", [
        (F(160), F(1, 4)), (F(165), F(1, 4)), (F(2600), F(1, 64)),
        (F(81), F(1, 2)), (F(655, 4), F(1, 4))])
    def test_queries_range(self, l, t):
        # x = t |cos beta| l between 12 and 13, K = 12
        self._check(l, t, 24)

    @pytest.mark.parametrize("l", [F(1481, 32), F(1553, 32)])
    def test_past_the_queries_range(self, l):
        # x = 14.3 and 15.0, either side of where e^-x/x alone meets 2^-(k+1)
        self._check(l, F(1), 24)

    def test_large_x_high_precision(self):
        self._check(F(162), F(1), 60)   # x ~ 50
        self._check(F(123), F(1), 60)   # x ~ 38: heavy cancellation

    def test_balls_bound_at_their_lower_ends(self):
        t = BoundedValue.from_fraction(F(1, 10))
        l = BoundedValue(400, F(1, 4))
        g = gamma_tail(l, t, 24)
        ref, _ = _tail_ref(l.lower(), t.lower())
        assert t.radius > 0 and ref <= g.upper()
        assert g.upper() - ref <= F(1, 1 << 24)


def test_no_adaptive_quadrature_in_the_library():
    # the library certifies integrals by closed forms and recurrences; the
    # adaptive quadrature, the generic Taylor-series engine with its
    # transcendental hooks and the panel moments built on it are test
    # oracles only, and so is the band-limited product's route through the
    # formed extensions; the library's one dense set is the mollified
    # trimmed polynomials, so the kernel-moment expansion gamma_nu * q and
    # its closed-form moments J_s stay out too; helpers only tests call (the
    # scalar sin and cos, point values and inner products of fields) and the
    # semigroup's contour knob are gone as well
    banned = {"certified_integral", "taylor_panel_integral", "heapq",
              "TSeries", "taylor", "exp_ball", "log_ball", "sincos_ball",
              "_moments_upto", "_w_panel_models", "ball_convolve",
              "_extended", "_axis_extension", "HElement", "BallPoly2",
              "mollify_poly", "poly_mul", "_kernel_moment",
              "gamma_radial_moment", "fb_sin", "fb_cos", "eval_ball",
              "inner_l2", "force_contour", "_tail_search"}
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "solenoid"
    offenders = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, ast.Import):
                names = {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom):
                names = {a.name for a in node.names} | {node.module or ""}
            elif isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            offenders += ["%s:%d %s" % (path.name, node.lineno, n)
                          for n in names & banned]
    assert not offenders, offenders


def test_no_module_imports_mpmath():
    # every transcendental value of the library comes from floatball's
    # series or from an exact series in approxcore; mpmath is a test
    # reference only, imported neither up front nor lazily
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "solenoid"
    offenders = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Call):
                names = [a.value for a in node.args
                         if isinstance(a, ast.Constant)
                         and isinstance(a.value, str)]
            else:
                continue
            offenders += ["%s:%d %s" % (path.name, node.lineno, n)
                          for n in names if n.split(".")[0] == "mpmath"]
    assert not offenders, offenders


def test_literals_within_their_error():
    # pi, ln 2 and Euler's constant against 80-digit mpmath
    with mp.workdps(80):
        for lit, ref in ((approxcore._PI, mp.pi), (approxcore._LN2, mp.ln2),
                         (approxcore._EULER, mp.euler)):
            assert abs(_mp_of(lit) - ref) < _mp_of(approxcore._LITERAL_ERR)


def test_contour_angle_closed_forms():
    # cos(3 pi/5) and sin(3 pi/5) from square roots, against 60-digit
    # mpmath, at the precisions the contour asks for
    with mp.workdps(60):
        cos, sin = mp.cos(3 * mp.pi / 5), mp.sin(3 * mp.pi / 5)
        for prec in (60, 80, 120, 170):
            c, s = approxcore.contour_angle(prec)
            assert _mp_of(c.lower()) <= cos <= _mp_of(c.upper()), prec
            assert _mp_of(s.lower()) <= sin <= _mp_of(s.upper()), prec
            assert max(c.radius, s.radius) <= F(1, 1 << (prec - 2)), prec


def test_public_names_defined_in_their_module():
    # every name a module lists in __all__ is bound at its top level by a
    # def, a class or an assignment, not imported and not gone
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "solenoid"
    missing = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined, public = set(), []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for t in targets:
                    for n in ast.walk(t):
                        if isinstance(n, ast.Name):
                            defined.add(n.id)
                            if n.id == "__all__":
                                public = ast.literal_eval(node.value)
        missing += ["%s: %s" % (path.name, n) for n in public
                    if n not in defined]
    assert not missing, missing


def test_no_module_names_a_smoothing_constant():
    # every smoothing constant is 1, so the library names none: no
    # attribute, def or string key C_alpha, C_half_time or c1, and no
    # mention of the first two anywhere
    gone = {"C_alpha", "C_half_time", "c1"}
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "solenoid"
    offenders = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = node.name
            elif isinstance(node, ast.Constant):
                name = node.value
            else:
                continue
            if isinstance(name, str) and name in gone:
                offenders.append("%s:%d %s" % (path.name, node.lineno, name))
        offenders += ["%s %s" % (path.name, w)
                      for w in ("C_alpha", "C_half_time") if w in text]
    assert not offenders, offenders


class TestConstantsTable:
    def test_c_alpha_zero_is_one(self):
        # at alpha = 0 the smoothing bound is contractivity, and 1 is the
        # least constant: sup_x x^0 e^{-x} = 1 at x = 0, while the peak
        # (alpha/e)^alpha of x^alpha e^{-x} stays below 1 and tends to 1
        # as alpha -> 0+
        with mp.workdps(50):
            assert all(mp.exp(-x) <= 1 for x in
                       (mp.mpf(0), mp.mpf(10) ** -40, mp.mpf(1), mp.mpf(50)))
            peaks = [(a / mp.e) ** a for a in
                     (mp.mpf(1) / 4, mp.mpf(10) ** -3, mp.mpf(10) ** -20)]
            assert all(p < 1 for p in peaks) and peaks == sorted(peaks)
            assert 1 - peaks[-1] < mp.mpf(10) ** -18

    def test_c1_b1_invariants(self):
        # the table holds no smoothing constant, nor their maximum c1 (each
        # is 1), nor the M-free C_s (`spectral.sup_constant`); B1 is
        # B(1/4,1/4), the proved winner of max{B(1/2,1/4), B(1/4,1/4), 1}
        ct = ConstantsTable.default()
        assert not any(hasattr(ct, n) for n in ("c1", "C_alpha",
                                                "C_half_time", "C_s"))
        b1, b2 = beta(F(1, 2), F(1, 4)), beta(F(1, 4), F(1, 4))
        assert ct.B1.to_json() == b2.to_json()
        assert b2.lower() > max(b1.upper(), 1)
        with mp.workdps(50):
            # Gamma(1/4) Gamma(3/4) = pi sqrt2 gives B(1/4,1/4) =
            # sqrt2 B(1/2,1/4)
            assert mp.almosteq(mp.beta(0.25, 0.25),
                               mp.sqrt(2) * mp.beta(0.5, 0.25),
                               mp.mpf(10) ** -45)
        # B1 should contain max(B(1/2,1/4), B(1/4,1/4)) from the frozen oracles
        assert ct.B1.contains(F("7.41629870920548767373540138878104018487"))

    def test_ctilde_recomputed(self):
        # Ctilde = M B1, with no smoothing factor
        for ct in (ConstantsTable.default(),
                   ConstantsTable(M=BoundedValue.exact(2))):
            assert ct.Ctilde.to_json() == (ct.M * ct.B1).to_json()

    def test_positive_entries(self):
        ct = ConstantsTable.default()
        for bv in (ct.M, ct.B1, ct.Ctilde):
            assert bv.lower() > 0 or bv.upper() > 0
        assert ct.Ctilde.lower() > 0

    def test_derived_defaults(self):
        # C_half_time = 1 from |e^-x - 1| <= min(1, x) <= sqrt(x), and
        # C_alpha = 1 from sup_x x^alpha e^-x = (alpha/e)^alpha <= 1 (the
        # maximum at x = alpha), mode by mode with x = t lambda >= 0
        # (both proofs are in the ConstantsTable docstring); the table
        # records provenance only for M
        ct = ConstantsTable.default()
        assert ct.provenance == {"M": "default"}
        assert ConstantsTable(M=BoundedValue.exact(2)).provenance["M"] == \
            "configured"
        # neither a smoothing constant nor C is configuration
        with pytest.raises(TypeError):
            ConstantsTable(C_half_time=BoundedValue.exact(2))
        with pytest.raises(TypeError):
            ConstantsTable(C=BoundedValue.exact(2))
        two = BoundedValue.exact(2).to_json()
        for key, val in (("C_alpha", {"1/4": two}), ("C_s", {"6/5": two}),
                         ("C_half_time", two)):
            with pytest.raises(ValueError):
                ConstantsTable.from_json({"M": two, key: val})
        alphas = (F(1, 4), F(1, 2), F(3, 5), F(3, 4), F(17, 20), F(1))
        with mp.workdps(50):
            xs = [mp.mpf(1), mp.mpf(2) ** -200, mp.mpf(10) ** -40,
                  mp.mpf(50), mp.mpf(10) ** 6] \
                + [mp.mpf(a.numerator) / a.denominator for a in alphas]
            for x in xs:
                assert abs(mp.exp(-x) - 1) <= min(1, x) <= mp.sqrt(x)
                for a in alphas:
                    am = mp.mpf(a.numerator) / a.denominator
                    peak = (am / mp.e) ** am
                    assert x ** am * mp.exp(-x) <= peak * (1 + mp.mpf(10) ** -45)
                    assert peak <= 1
            for a in alphas:
                am = mp.mpf(a.numerator) / a.denominator
                assert mp.almosteq(am ** am * mp.exp(-am), (am / mp.e) ** am,
                                   mp.mpf(10) ** -45)

    def test_json_round_trip(self):
        ct = ConstantsTable.default()
        ct2 = ConstantsTable.from_json(ct.to_json())
        assert ct2.M.contains(ct.M.center)

    @pytest.mark.parametrize("M", [BoundedValue.exact(0),
                                   BoundedValue.exact(-1),
                                   BoundedValue.from_endpoints(F(-2), F(4))],
                             ids=["zero", "negative", "straddles-zero"])
    def test_nonpositive_m_rejected(self, M):
        # M must have a positive lower end: Ctilde = M B1 divides the
        # horizon search, so 0 in M is a division by zero downstream
        with pytest.raises(ValueError, match="M must be positive"):
            ConstantsTable(M=M)
        with pytest.raises(ValueError, match="M must be positive"):
            ConstantsTable.from_json({"M": M.to_json()})

    @pytest.mark.parametrize("M", [
        2, "x", {"c": 1}, {"c": [1, 0], "r": [0, 0]},
        {"c": {"m": "1.5", "e": 0}, "r": {"m": "0", "e": 0}},
        {"c": {"m": 1, "e": 0}, "r": {"m": "0", "e": 0}},
        {"c": {"m": "1", "e": "0"}, "r": {"m": "0", "e": 0}},
        {"c": {"m": "1", "e": True}, "r": {"m": "0", "e": 0}},
        {"c": {"m": "1", "e": 0}, "r": {"m": "-1", "e": 0}},
        {"c": {"m": "1", "e": 0}, "r": {"m": "0", "e": 0}, "x": 1}])
    def test_malformed_m_rejected(self, M):
        # a value that is not the ball form `BoundedValue.to_json` writes
        # names M and the form, where it raised a bare TypeError or a
        # message that named neither
        with pytest.raises(ValueError, match=r'M must be a ball \{"c": '
                           r'\{"m": str, "e": int\}, "r": '):
            ConstantsTable.from_json({"M": M})

    @pytest.mark.parametrize("body", [[1], "CM", 2, None])
    def test_non_object_table_rejected(self, body):
        with pytest.raises(ValueError, match="is a JSON object"):
            ConstantsTable.from_json(body)
