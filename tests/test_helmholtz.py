"""Tests for the Helmholtz projection.

The worked single-mode value is checked against the boundary-value problem
solved symbolically (phi = sin sin / 2 pi for the (1,1) cosine-sine input);
structural properties (idempotence, gradient annihilation, divergence-free
output, orthogonality, linearity) are checked with enclosure arithmetic on
band-limited fields and on mollified elements.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solenoid import helmholtz, spectral
from solenoid import polyfield as pf
from solenoid.approxcore import Name
from solenoid.floatball import BallGrid, FloatBall
from solenoid.helmholtz import (
    VectorFieldName, divergence, project, project_pair, truncation_index,
)
from solenoid.nse import IterationCertificate, compute_horizon
from solenoid.spectral import FourierField, mollified_field_pair
from solenoid.stokes import frac_power_apply, semigroup_apply

import oracles
from oracles import inner_l2

EL = pf.mollify(pf.solenoidal_kernel(4)[0], 1, 2)
EL_PAIR = mollified_field_pair(EL, 32)


def _mode_pair(n, m, c1, c2, cutoff=None):
    cut = cutoff or max(n, m)
    g1, g2 = BallGrid.zeros((cut + 1, cut + 1)), BallGrid.zeros((cut + 1,
                                                                 cut + 1))
    g1.set((n, m), FloatBall(float(c1)))
    g2.set((n, m), FloatBall(float(c2)))
    return FourierField("sc", cut, g1), FourierField("cs", cut, g2)


def _sol_mode(n, m, scale=1.0):
    """Divergence-free single mode (m sin cos, -n cos sin)."""
    return _mode_pair(n, m, m * scale, -n * scale)


def _grad_mode(n, m, scale=1.0):
    """Gradient of cos(n pi x) cos(m pi y): (-n sin cos, -m cos sin)."""
    return _mode_pair(n, m, -n * scale, -m * scale)


def _pair_norm(p):
    s = p[0].l2_sq_ball() + p[1].l2_sq_ball()
    return math.sqrt(max(s.upper(), 0.0))


def _pair_diff_norm(p, q):
    return _pair_norm((p[0] - q[0], p[1] - q[1]))


class TestWorkedExample:
    def test_cos_sin_mode(self):
        # worked example of the solenoid.helmholtz docstring:
        # u = (0, cos pi x sin pi y): phi solves Delta phi = -pi sin sin,
        # so phi = sin sin / (2 pi) and P u = (-1/2 sin cos, 1/2 cos sin)
        u1, u2 = _mode_pair(1, 1, 0.0, 1.0)
        p1, p2 = project_pair(u1, u2)
        assert p1.grid.at((1, 1)).contains(F(-1, 2))
        assert p2.grid.at((1, 1)).contains(F(1, 2))

    def test_projection_is_orthogonal_part(self):
        # the complement u - P u must be the gradient of -cos cos / (2 pi)
        u1, u2 = _mode_pair(1, 1, 0.0, 1.0)
        p1, p2 = project_pair(u1, u2)
        r1, r2 = u1 - p1, u2 - p2
        assert r1.grid.at((1, 1)).contains(F(1, 2))
        assert r2.grid.at((1, 1)).contains(F(1, 2))
        # curl of the remainder vanishes: d/dx r2 - d/dy r1 = 0
        curl = r2.derivative(1) - r1.derivative(2)
        assert curl.l2_norm_ball().upper() < 1e-12


class TestStructure:
    def test_cached_mode_factors(self):
        # the factor tables are built once per cutoff and read-only; the
        # projection reads them as it built them on every call
        mm, nn, nm = helmholtz._mode_factors(6)
        assert helmholtz._mode_factors(6)[0] is mm
        assert not any(g.c.flags.writeable or g.r.flags.writeable
                       for g in (mm, nn, nm))
        n = np.arange(7)
        ng, mg = np.meshgrid(n, n, indexing="ij")
        den = BallGrid(np.maximum(ng * ng + mg * mg, 1))
        live = (ng >= 1) & (mg >= 1)
        for got, num in zip((mm, nn, nm), (mg * mg, ng * ng, ng * mg)):
            ref = BallGrid(np.where(live, num, 0)) / den
            assert np.array_equal(got.c, ref.c)
            assert np.array_equal(got.r, ref.r)

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 5), (3, 3), (4, 1)])
    def test_solenoidal_modes_reproduced(self, n, m):
        u = _sol_mode(n, m, 0.75)
        p = project_pair(*u)
        assert _pair_diff_norm(p, u) < 1e-12

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (5, 2)])
    def test_gradients_annihilated(self, n, m):
        p = project_pair(*_grad_mode(n, m, 2.0))
        assert _pair_norm(p) < 1e-12

    def test_axis_modes_are_gradients(self):
        # sin(n pi x) tensor the constant is d/dx of -cos(n pi x)/(n pi)
        u1, u2 = _mode_pair(2, 0, 1.0, 0.0, cutoff=2)
        p = project_pair(u1, u2)
        assert _pair_norm(p) < 1e-12

    def test_idempotent(self):
        u1, u2 = _mode_pair(2, 1, 1.5, -0.25)
        p = project_pair(u1, u2)
        pp = project_pair(*p)
        assert _pair_diff_norm(pp, p) < 1e-10

    def test_output_divergence_free(self):
        u1, u2 = _mode_pair(3, 2, 0.8, 0.3)
        p1, p2 = project_pair(u1, u2)
        assert divergence(p1, p2).l2_norm_ball().upper() < 1e-10

    def test_orthogonality(self):
        u1, u2 = _mode_pair(2, 3, 1.0, 2.0)
        p1, p2 = project_pair(u1, u2)
        ip = inner_l2(u1 - p1, p1) + inner_l2(u2 - p2, p2)
        assert abs(ip.c) <= ip.r + 1e-12

    def test_linearity(self):
        a = _mode_pair(1, 2, 1.0, 0.5)
        b = _mode_pair(2, 1, -0.5, 1.0, cutoff=2)
        sum_first = project_pair(a[0] + b[0], a[1] + b[1])
        pa, pb = project_pair(*a), project_pair(*b)
        assert _pair_diff_norm(sum_first, (pa[0] + pb[0], pa[1] + pb[1])) \
            < 1e-11

    def test_contraction(self):
        u = _mode_pair(3, 1, 1.2, -0.7)
        p = project_pair(*u)
        assert _pair_norm(p) <= _pair_norm(u) + 1e-12


class TestStructureProperties:
    coeff = st.floats(min_value=-3, max_value=3,
                      allow_nan=False, allow_infinity=False)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 4), c1=coeff, c2=coeff)
    def test_idempotence_random_modes(self, n, m, c1, c2):
        u = _mode_pair(n, m, c1, c2)
        p = project_pair(*u)
        assert _pair_diff_norm(project_pair(*p), p) < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 4), c=coeff)
    def test_decomposition_sums_back(self, n, m, c):
        u = _mode_pair(n, m, c, -c / 2)
        p = project_pair(*u)
        # gradient part + solenoidal part recovers u exactly
        assert _pair_diff_norm(((u[0] - p[0]) + p[0], (u[1] - p[1]) + p[1]),
                               u) < 1e-10


class TestTruncationIndex:
    def test_band_limited_bound(self):
        u = _mode_pair(2, 3, 1.0, 1.0)
        assert truncation_index(u, 8) <= 4

    def test_homogeneity(self):
        u = _mode_pair(2, 2, 0.5, 0.5, cutoff=4)
        N = truncation_index(u, 6)
        doubled = (u[0].scale(F(2)), u[1].scale(F(2)))
        assert truncation_index(doubled, 5) <= N

    def test_certified_tail_against_oracle(self):
        f1, f2 = EL_PAIR
        K = 5
        N = truncation_index((f1, f2), K)
        # oracle: direct coefficient sum over the discarded band up to the
        # available 4N modes plus the certified analytic tail
        total = 0.0
        for f in (f1, f2):
            hi = (np.abs(f.grid.c) + f.grid.r) ** 2 * f.weights()
            total += hi.sum() - hi[:N, :N].sum() + f.tail_l2.upper() ** 2
        assert 2 * total <= 2.0 ** (-2 * (K + 1)) * (1 + 1e-9)

    def test_negative_precision_rejected(self):
        with pytest.raises(ValueError):
            truncation_index(_mode_pair(1, 1, 1, 1), -1)

    @staticmethod
    def _both(u, K):
        """The bisection's and the scan's answer, or None where it raises."""
        out = []
        for search in (truncation_index, oracles.truncation_index_scan):
            try:
                out.append(search(u, K))
            except ValueError:
                out.append(None)
        return out

    def test_bisection_matches_the_scan(self):
        # random pairs whose coefficients decay at random rates, so the
        # answer falls anywhere in 0..c+1 or past it
        rng = np.random.default_rng(38)
        answers = set()
        for _ in range(800):
            cut = int(rng.integers(1, 25))
            decay = np.exp(-rng.uniform(0.1, 3.0)
                           * np.add.outer(np.arange(cut + 1),
                                          np.arange(cut + 1)))
            pair = tuple(FourierField(
                basis, cut,
                BallGrid(rng.normal(size=(cut + 1, cut + 1)) * decay,
                         rng.uniform(0.0, 1e-2 * rng.uniform(),
                                     (cut + 1, cut + 1))),
                FloatBall.from_endpoints(0.0, rng.uniform(0.0, 1e-2)))
                for basis in ("sc", "cs"))
            got, ref = self._both(pair, int(rng.integers(0, 15)))
            assert got == ref
            answers.add(got)
        assert None in answers and len(answers) > 10

    @pytest.mark.parametrize("K, N", [(6, 10), (8, 14), (10, 20)])
    def test_bisection_matches_the_scan_on_the_element(self, K, N):
        # the search `project(EL, K)` runs
        pair = helmholtz._as_pair(EL, K + 3)
        assert self._both(pair, K + 1) == [N, N]

    @pytest.mark.parametrize("K", [3, 5, 7])
    def test_projected_tail_meets_its_budget(self, K):
        # truncation_index(u, K + 1) promises 2 (d1^2 + d2^2) <= 2^-2(K+2)
        # for the tails d_j of the truncated pair, so the projection's tail
        # sqrt(2 (d1^2 + d2^2)) stays within 2^-(K+2); adding the squared
        # tails to the band mass (the reading of a tail as mass beyond the
        # band) let it reach 1.33 times that at K = 7
        p1, p2 = project(EL_PAIR, K)
        for p in (p1, p2):
            assert p.tail_l2.upper() <= 2.0 ** -(K + 2) * (1 + 1e-12)


class TestProjectOnNames:
    def test_solenoidal_element_close_to_itself(self):
        p = project(EL_PAIR, 6)
        trunc = (EL_PAIR[0].truncated(p[0].cutoff),
                 EL_PAIR[1].truncated(p[1].cutoff))
        # EL is solenoidal, so the projection moves it by the certified
        # budget only
        assert _pair_diff_norm(p, trunc) <= 2.0 ** -5
        # and the retained coefficients are essentially unchanged
        assert float(np.abs(p[0].grid.c - trunc[0].grid.c).max()) < 1e-10

    def test_name_resolution(self):
        pair = _mode_pair(1, 1, 0.0, 1.0)
        v = VectorFieldName(Name(lambda k: pair))
        p1, p2 = project(v, 10)
        assert p1.grid.at((1, 1)).contains(F(-1, 2))

    def test_precision_self_consistency(self):
        pK = project(EL_PAIR, 5)
        pK2 = project(EL_PAIR, 7)
        assert _pair_diff_norm(pK, pK2) <= 2.0 ** -5 + 2.0 ** -7

    def test_in_band_tail_survives(self):
        # a tail that bounds a perturbation inside the band passes through
        # the projection, and each output norm holds the norm of P applied
        # to the named field: (P f)_1 = (m^2 a - n m b) / (n^2 + m^2),
        # (P f)_2 = (n^2 b - n m a) / (n^2 + m^2) at n, m >= 1
        pair, named = oracles.in_band_pair()
        out = project(pair, 3)
        modes = {(n, m) for _, n, m in named}
        proj = {}
        for n, m in modes:
            a, b = named.get((0, n, m), 0), named.get((1, n, m), 0)
            d = n * n + m * m
            proj[(0, n, m)] = F(m * m * a - n * m * b, d)
            proj[(1, n, m)] = F(n * n * b - n * m * a, d)
        for j, p in enumerate(out):
            assert p.tail_l2.upper() >= pair[j].tail_l2.upper()
            sq = oracles.named_sq_norm(proj, j)
            norm = p.l2_norm_ball()
            assert F(norm.lower()) ** 2 <= sq <= F(norm.upper()) ** 2

    def test_mollified_element_accepted(self):
        p1, p2 = project(EL, 4)
        assert p1.basis == "sc" and p2.basis == "cs"

    @pytest.mark.parametrize("K", [10, 12])
    def test_element_meets_budget_past_rung_64(self, K):
        # at cutoff 64 the element's joint tail 2.05e-4 would leave the
        # truncation search no room from K = 10 on; resolved at 2^-(K+3),
        # the element leaves it room
        p = project(EL, K)
        assert spectral._norm2([f.tail_l2.upper() for f in p]).upper() \
            <= 2.0 ** -K

    def test_element_past_top_rung_rejected(self, monkeypatch):
        # with 64 as the top rung, 2^-13 is past what the element certifies
        monkeypatch.setattr(spectral, "_ELEMENT_RUNGS", (64,))
        with pytest.raises(ValueError, match="does not certify"):
            project(EL, 10)


class TestValidation:
    def test_basis_order_enforced(self):
        f1 = FourierField.single_mode("cs", 1, 1)
        f2 = FourierField.single_mode("sc", 1, 1)
        with pytest.raises(ValueError):
            project_pair(f1, f2)

    def test_non_pair_rejected(self):
        with pytest.raises(TypeError):
            project("field", 4)

    def test_name_without_precision(self):
        v = VectorFieldName(Name(lambda k: _mode_pair(1, 1, 1, 1)))
        with pytest.raises(ValueError):
            from solenoid.helmholtz import _as_pair
            _as_pair(v)


# Every entry point resolves its field argument through
# helmholtz.resolve_field; this pins the result kind (output bases, or the
# exception type) of each one on each argument kind.
_RES_PAIR = _mode_pair(1, 2, 2, -1)
_RES_ARGS = {
    "pair": lambda: _RES_PAIR,
    "name": lambda: VectorFieldName.constant(*_RES_PAIR),
    "element": lambda: EL,
    "field": lambda: _RES_PAIR[0],
    "swapped": lambda: _RES_PAIR[::-1],
    "unsupported": lambda: "not a field",
}
_RES_OPS = {
    "project": lambda u: project(u, 4),
    "semigroup_apply": lambda u: semigroup_apply(u, F(1, 8), 4),
    "frac_power_apply": lambda u: frac_power_apply(u, F(1, 2)),
    "compute_horizon": lambda u: compute_horizon(u, mode_cap=8),
}
_LINEAR = {"pair": "sc/cs", "name": "sc/cs", "element": "sc/cs",
           "field": "sc", "swapped": "cs/sc", "unsupported": TypeError}
_PAIR_ONLY = {"field": TypeError, "swapped": ValueError}
_RES_EXPECTED = {
    "project": dict(_LINEAR, **_PAIR_ONLY),
    "semigroup_apply": _LINEAR,
    "frac_power_apply": dict(_LINEAR, name=ValueError),
    "compute_horizon": dict({k: IterationCertificate
                             for k in ("pair", "name", "element")},
                            unsupported=TypeError, **_PAIR_ONLY),
}


def _result_kind(out):
    if isinstance(out, tuple):
        return "/".join(f.basis for f in out)
    if isinstance(out, FourierField):
        return out.basis
    return type(out)


@pytest.mark.parametrize("op", sorted(_RES_OPS))
@pytest.mark.parametrize("arg", sorted(_RES_ARGS))
def test_field_argument_resolution(op, arg):
    expected = _RES_EXPECTED[op][arg]
    u = _RES_ARGS[arg]()
    if isinstance(expected, type) and issubclass(expected, Exception):
        with pytest.raises(expected):
            _RES_OPS[op](u)
    else:
        assert _result_kind(_RES_OPS[op](u)) == expected
