"""Tests for the nonlinear layer: B(u), the contraction certificate, the
Picard iteration, the smoothness lift, solve, and pressure recovery.

Oracles: the convection term of a single mode is integrated independently on
a real-space quadrature grid (exact for trig polynomials of bounded degree);
the m = 0 lift is compared with the diagonal heat multipliers; pressure
recovers a symbolic potential.  Certificate identities are replayed from
their defining recursions.  Claim-style bounds are measured on actual
iterates and compared against the certified tables.
"""

import dataclasses
import inspect
import math
import pathlib
from fractions import Fraction as F

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solenoid import floatball, nse, stokes
from solenoid import polyfield as pf
from solenoid import spectral
from solenoid.approxcore import BoundedValue, ConstantsTable, Name, bv_sqrt
from solenoid.floatball import BallGrid, FloatBall
from solenoid.helmholtz import VectorFieldName, divergence
from solenoid.spectral import (FourierField, SobolevName,
                               mollified_field_pair)
from solenoid.stokes import frac_power_apply, frac_power_norm, semigroup_apply

from oracles import (CellEngine, RecomputingCellEngine, WideCapEngine,
                     _axis_extension, _extended, axis_product_table,
                     eval_ball, fraction_claim1_exponent, product_to_sum,
                     rounded_root_exponent)

EL = pf.mollify(pf.solenoidal_kernel(4)[0], 1, 2)
CT = ConstantsTable.default()
TRIG = ("ss", "sc", "cs", "cc")


def _cert():
    # computed once; the horizon search is the expensive part
    if not hasattr(_cert, "value"):
        _cert.value = nse.compute_horizon(EL, mode_cap=12)
    return _cert.value


def _mode_pair(n, m, c1, c2, cutoff=None):
    cut = cutoff or max(n, m)
    g1 = BallGrid.zeros((cut + 1, cut + 1))
    g2 = BallGrid.zeros((cut + 1, cut + 1))
    g1.set((n, m), FloatBall(float(c1)))
    g2.set((n, m), FloatBall(float(c2)))
    return FourierField("sc", cut, g1), FourierField("cs", cut, g2)


def _sol_mode(n, m, scale=1.0, cutoff=None):
    return _mode_pair(n, m, m * scale, -n * scale, cutoff)


def _constant_forcing():
    """A constant forcing of band 2."""
    return nse.Forcing.constant(*_sol_mode(1, 1, 0.01, cutoff=2))


def _varying_forcing(t):
    """`_constant_forcing` on the time cells below t/2 and a forcing of band
    16 from there, declared with four times the constant one's bound."""
    wide, narrow = _sol_mode(2, 3, 0.01, cutoff=16), \
        _sol_mode(1, 1, 0.01, cutoff=2)
    return nse.Forcing(lambda lo, hi: wide if lo >= t / 2 else narrow,
                       _constant_forcing().sup_l2 * 4)


def _pair_norm_upper(p):
    s = p[0].l2_sq_ball() + p[1].l2_sq_ball()
    return math.sqrt(max(s.upper(), 0.0))


def _center_diff(p, q):
    cut = max(p[0].cutoff, q[0].cutoff)
    tot = 0.0
    for a, b in zip(p, q):
        ea, eb = a._embedded(cut), b._embedded(cut)
        d = ea.grid.c - eb.grid.c
        tot += float((d * d * ea.weights()).sum())
    return math.sqrt(tot)


def _pair_slack(p):
    """Certified radius of a pair: coefficient radii plus tails."""
    return nse._pair_radius(p) + math.hypot(p[0].tail_l2.upper(),
                                            p[1].tail_l2.upper())


# ---------------------------------------------------------------------------
# the coefficient-space product
# ---------------------------------------------------------------------------

class TestFastProduct:
    RNG = np.random.default_rng(20260823)

    def _random_field(self, basis, cut):
        c = self.RNG.normal(size=(cut + 1, cut + 1))
        r = np.abs(self.RNG.normal(size=(cut + 1, cut + 1))) * 1e-12
        return FourierField(basis, cut, BallGrid(c, r))

    @pytest.mark.parametrize("b1", ["sc", "cs", "cc", "ss"])
    @pytest.mark.parametrize("b2", ["sc", "cs"])
    def test_matches_reference_product(self, b1, b2):
        f = self._random_field(b1, 5)
        g = self._random_field(b2, 4)
        fast = nse._mul_fast(f, g)
        ref = product_to_sum(f, g)
        assert fast.basis == ref.basis
        assert float(np.abs(fast.grid.c - ref.grid.c).max()) < 1e-11
        # enclosure property both ways: each center sits in the other's ball
        gap = np.abs(fast.grid.c - ref.grid.c)
        assert bool((gap <= fast.grid.r + ref.grid.r + 1e-15).all())

    def _sparse_field(self, basis, cut):
        # random values on the corner modes, the diagonal neighbour of the
        # origin and two random modes; the rest is zero
        c = np.zeros((cut + 1, cut + 1))
        modes = [(0, 0), (0, cut), (cut, 0), (cut, cut), (1, 1)] + [
            tuple(self.RNG.integers(0, cut + 1, size=2)) for _ in range(2)]
        for n, m in modes:
            if n <= cut and m <= cut:
                c[n, m] = self.RNG.normal()
        r = np.abs(self.RNG.normal(size=c.shape)) * 1e-12 * (c != 0)
        return FourierField(basis, cut, BallGrid(c, r))

    @pytest.mark.parametrize("cuts", [(0, 24), (24, 0), (2, 2), (3, 7),
                                      (24, 12), (24, 24)])
    def test_all_basis_pairs_against_product_to_sum(self, cuts):
        # all 16 basis pairs; dense fields up to cutoff 7, sparse ones with
        # a cutoff of 12 or more, so that the scalar route stays quick
        make = self._sparse_field if max(cuts) >= 12 else self._random_field
        for b1 in TRIG:
            for b2 in TRIG:
                f, g = make(b1, cuts[0]), make(b2, cuts[1])
                fast, ref = nse._mul_fast(f, g), product_to_sum(f, g)
                assert fast.basis == ref.basis
                assert fast.cutoff == ref.cutoff == sum(cuts)
                scale = max(float(np.abs(ref.grid.c).max()), 1.0)
                gap = np.abs(fast.grid.c - ref.grid.c)
                assert float(gap.max()) < 1e-13 * scale
                # each centre sits in the other's ball, checked exactly
                for idx in zip(*np.nonzero(gap)):
                    assert abs(F(fast.grid.c[idx]) - F(ref.grid.c[idx])) <= \
                        F(fast.grid.r[idx]) + F(ref.grid.r[idx])

    def test_one_product_route(self):
        assert nse._mul_fast is FourierField.multiply

    def test_cancelling_slot_holds_exact_sum(self):
        # f in sin.cos and g in cos.sin at cutoff 24; one coefficient of g
        # is chosen so that the terms of slot (24, 24) cancel
        cut, slot = 24, (24, 24)
        rng = np.random.default_rng(20261018)
        f = FourierField("sc", cut, BallGrid(rng.normal(size=(cut + 1,) * 2)))
        gc = rng.normal(size=(cut + 1, cut + 1))
        _, xt = axis_product_table("s", "c", cut, cut)
        _, yt = axis_product_table("c", "s", cut, cut)
        xs = [(i, j, s) for i in range(cut + 1) for j in range(cut + 1)
              for k, s in xt[i][j] if k == slot[0]]
        ys = [(i, j, s) for i in range(cut + 1) for j in range(cut + 1)
              for k, s in yt[i][j] if k == slot[1]]
        terms = [((n1, m1), (n2, m2), F(sx * sy, 4))
                 for n1, n2, sx in xs for m1, m2, sy in ys]
        fc = f.grid.c
        pick = (3, 21)
        gc[pick] = 0.0
        rest = sum(w * F(fc[a]) * F(gc[b]) for a, b, w in terms)
        kappa = sum(w * F(fc[a]) for a, b, w in terms if b == pick)
        gc[pick] = float(-rest / kappa)
        g = FourierField("cs", cut, BallGrid(gc))
        exact = sum(w * F(fc[a]) * F(g.grid.c[b]) for a, b, w in terms)
        abs_sum = sum(abs(w * F(fc[a]) * F(g.grid.c[b])) for a, b, w in terms)
        assert abs(exact) < abs_sum * F(1, 10 ** 12)
        ball = nse._mul_fast(f, g).grid.at(slot)
        assert ball.contains(exact)
        # the documented count of FourierField.multiply ->
        # ball_fold_convolve on the 25 x 25 grids:
        # n = t + [t > 1] + min(p, 2 s - 1) = 25 + 1 + 25
        n = (cut + 1) + 1 + (cut + 1)
        assert F(ball.r) >= F(n, 2 ** 53 - n) * abs_sum

    def test_subnormal_halving_stays_enclosed(self):
        # an odd subnormal coefficient cannot be halved exactly by the
        # extension; the large factor blows that up past TINY
        tiny = 3 * 2.0 ** -1074
        f = FourierField.single_mode("cc", 1, 1, tiny)
        g = FourierField.single_mode("cc", 0, 0, 2.0 ** 60)
        p = nse._mul_fast(f, g)
        assert p.grid.at((1, 1)).contains(F(tiny) * 2 ** 60)

    def test_extension_keeps_exact_entries_exact(self):
        # the extension's weights 1, 1/2 and 1/4 scale normal numbers
        # exactly: only an entry whose scaled centre or radius is below
        # 2^-1021 (subnormal, with a margin) has its radius stepped up,
        # and a zero radius stays 0
        sub = 3 * 2.0 ** -1074
        c = np.array([[0.0, 0.75, sub], [-1.5, 2.0 ** -1000, 0.0],
                      [2.0 ** -1021, 1.0 / 3.0, -sub]])
        r = np.array([[0.0, 0.0, 0.0], [2.0 ** -40, 0.0, sub],
                      [0.0, 1e-12, 2.0 ** -30]])
        f = FourierField("sc", 2, BallGrid(c, r))
        e = _extended(f)
        idx = np.abs(np.arange(-2, 3))
        w = np.outer(_axis_extension("s", 2), _axis_extension("c", 2))
        cw = c[idx[:, None], idx] * w
        rw = r[idx[:, None], idx] * np.abs(w)
        frail = np.zeros_like(w, dtype=bool)
        for a in range(5):
            for b in range(5):
                v = [c[idx[a], idx[b]], r[idx[a], idx[b]]]
                lo = F(v[0]) * F(w[a, b]) - F(v[1]) * abs(F(w[a, b]))
                hi = F(v[0]) * F(w[a, b]) + F(v[1]) * abs(F(w[a, b]))
                ball = e.at((a, b))
                assert ball.contains(lo) and ball.contains(hi)
                frail[a, b] = 0 < abs(w[a, b]) < 1 and any(
                    x != 0 and abs(x * w[a, b]) < 2.0 ** -1021 for x in v)
        assert np.array_equal(e.c, cw)
        assert np.array_equal(e.r[~frail], rw[~frail])
        # both kinds occur: stepped-up radii and exact zero radii kept
        assert frail.any() and (e.r[frail] > rw[frail]).all()
        assert ((rw == 0.0) & ~frail).any()

    def test_single_mode_product(self):
        # sin(pi x)cos(2 pi y) * cos(pi x)sin(pi y) expands over four modes
        f = FourierField.single_mode("sc", 1, 2)
        g = FourierField.single_mode("cs", 1, 1)
        p = nse._mul_fast(f, g)
        assert p.basis == "ss"
        # x: sin cos = (sin 2t)/2; y: cos(2t) sin(t) = (sin 3t - sin t)/2
        assert p.grid.at((2, 3)).contains(F(1, 4))
        assert p.grid.at((2, 1)).contains(F(-1, 4))


# ---------------------------------------------------------------------------
# the nonlinearity
# ---------------------------------------------------------------------------

def _convection_oracle(u1, u2, out_cut, grid=96):
    """Real-space quadrature of (u.grad)u for band-limited input.

    Midpoint quadrature on a grid x grid mesh is exact for the trig
    polynomials involved once grid exceeds twice the output band, so the
    only error is roundoff.  Returns coefficient arrays in sin.cos and
    cos.sin layout up to out_cut.
    """
    xs = (np.arange(grid) + 0.5) / grid
    X, Y = np.meshgrid(xs, xs, indexing="ij")

    def field_values(f, dx=0, dy=0):
        vals = np.zeros_like(X)
        cx = {"s": np.sin, "c": np.cos}
        for n in range(f.cutoff + 1):
            for m in range(f.cutoff + 1):
                c = f.grid.c[n, m]
                if c == 0.0:
                    continue
                gx = cx[f.basis[0]](n * np.pi * X)
                gy = cx[f.basis[1]](m * np.pi * Y)
                if dx:
                    gx = (np.cos if f.basis[0] == "s" else
                          lambda z: -np.sin(z))(n * np.pi * X) * n * np.pi
                if dy:
                    gy = (np.cos if f.basis[1] == "s" else
                          lambda z: -np.sin(z))(m * np.pi * Y) * m * np.pi
                vals += c * gx * gy
        return vals

    v1, v2 = field_values(u1), field_values(u2)
    w1 = v1 * field_values(u1, dx=1) + v2 * field_values(u1, dy=1)
    w2 = v1 * field_values(u2, dx=1) + v2 * field_values(u2, dy=1)

    def coeffs(vals, basis):
        out = np.zeros((out_cut + 1, out_cut + 1))
        cx = {"s": np.sin, "c": np.cos}
        for n in range(out_cut + 1):
            for m in range(out_cut + 1):
                gx = cx[basis[0]](n * np.pi * X)
                gy = cx[basis[1]](m * np.pi * Y)
                rho = (2 if n else 1) * (2 if m else 1)
                out[n, m] = rho * (vals * gx * gy).mean()
        return out
    return coeffs(w1, "sc"), coeffs(w2, "cs")


def _project_arrays(a, b):
    """Mode-by-mode solenoidal part of coefficient arrays (sc, cs)."""
    cut = a.shape[0] - 1
    n = np.arange(cut + 1, dtype=float)
    ng, mg = np.meshgrid(n, n, indexing="ij")
    den = ng * ng + mg * mg
    den[0, 0] = 1.0
    live = (ng >= 1) & (mg >= 1)
    p1 = np.where(live, (mg * mg * a - ng * mg * b) / den, 0.0)
    p2 = np.where(live, (ng * ng * b - ng * mg * a) / den, 0.0)
    return p1, p2


class TestNonlinearity:
    def test_zero_is_zero(self):
        z = (FourierField.zero("sc", 2), FourierField.zero("cs", 2))
        b = nse.nonlinearity(z, 8)
        # only the underflow guard of the enclosure arithmetic survives
        assert _pair_norm_upper(b) < 1e-100

    def test_symmetric_mode_vanishes(self):
        # the (1,1) cell flow: its convection term is a pure gradient
        b1, b2 = nse.nonlinearity_pair(*_sol_mode(1, 1))
        assert _pair_norm_upper((b1, b2)) < 1e-10

    def test_single_mode_oracle(self):
        u1, u2 = _sol_mode(1, 2)
        b1, b2 = nse.nonlinearity_pair(u1, u2)
        w1, w2 = _convection_oracle(u1, u2, b1.cutoff)
        p1, p2 = _project_arrays(w1, w2)
        assert float(np.abs(b1.grid.c - p1).max()) < 1e-9
        assert float(np.abs(b2.grid.c - p2).max()) < 1e-9
        # a lone solenoidal mode is a steady flow: its convection term is a
        # pure gradient, so both routes must see (essentially) zero here
        assert _pair_norm_upper((b1, b2)) < 1e-9

    def test_two_mode_oracle(self):
        # distinct Laplacian eigenvalues, so the convection term survives
        # the projection (same-eigenvalue combinations are steady flows)
        a = _sol_mode(1, 2, cutoff=2)
        b = _sol_mode(1, 1, cutoff=2)
        u1, u2 = a[0] + b[0], a[1] + b[1]
        b1, b2 = nse.nonlinearity_pair(u1, u2)
        w1, w2 = _convection_oracle(u1, u2, b1.cutoff)
        p1, p2 = _project_arrays(w1, w2)
        assert float(np.abs(b1.grid.c - p1).max()) < 1e-9
        assert float(np.abs(b2.grid.c - p2).max()) < 1e-9
        assert _pair_norm_upper((b1, b2)) > 0.1  # not a degenerate case

    def test_output_solenoidal(self):
        b1, b2 = nse.nonlinearity_pair(*_sol_mode(2, 3, 0.5))
        assert divergence(b1, b2).l2_norm_ball().upper() < 1e-9

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(1, 3), m=st.integers(1, 3),
           c=st.floats(min_value=-2, max_value=2, allow_nan=False))
    def test_quadratic_scaling(self, n, m, c):
        u = _sol_mode(n, m)
        scaled = (u[0].scale(F(3, 2)), u[1].scale(F(3, 2)))
        b = nse.nonlinearity_pair(*u)
        bs = nse.nonlinearity_pair(*scaled)
        ref = (b[0].scale(F(9, 4)), b[1].scale(F(9, 4)))
        assert _center_diff(bs, ref) < 1e-9

    def test_name_route_matches_band_route(self):
        u = _sol_mode(1, 2)
        names = tuple(SobolevName(Name(lambda k, f=f: f),
                                  F(6, 5)) for f in u)
        b = nse.nonlinearity(names, 4)
        ref = nse.nonlinearity_pair(*u)
        assert _center_diff(b, ref) <= 2.0 ** -4 + _pair_slack(b) + 1e-9

    def test_low_smoothness_name_rejected(self):
        u = _sol_mode(1, 1)
        names = tuple(SobolevName(Name(lambda k, f=f: f), F(1)) for f in u)
        with pytest.raises(ValueError, match="insufficient smoothness"):
            nse.nonlinearity(names, 4)

    def test_bare_l2_tail_rejected(self):
        g = BallGrid.zeros((3, 3))
        g.set((1, 1), FloatBall(1.0))
        tail = FloatBall.from_endpoints(0.0, 0.1)
        u = (FourierField("sc", 2, g, tail), FourierField.zero("cs", 2))
        with pytest.raises(ValueError, match="insufficient smoothness"):
            nse.nonlinearity(u, 4)

    def test_mollified_element_certifies_coarse(self):
        b1, b2 = nse.nonlinearity(EL, 1)
        assert b1.tail_l2.upper() <= 0.5
        assert _pair_norm_upper((b1, b2)) < 10.0

    def test_mollified_element_budget_bounded(self):
        with pytest.raises(nse.BudgetError):
            nse.nonlinearity(EL, 12)


# ---------------------------------------------------------------------------
# the contraction certificate
# ---------------------------------------------------------------------------

class TestCertificate:
    def test_epsilon_strictly_contractive(self):
        c = _cert()
        assert c.epsilon.upper() < 1

    def test_cap_inequalities(self):
        from solenoid.approxcore import BoundedValue
        c = _cert()
        one = BoundedValue.exact(1)
        assert c.K_cap.upper() < (one / CT.Ctilde.scale(2)).lower()
        assert c.k0.upper() < (one / CT.Ctilde.scale(8)).lower()

    def test_claim_table_below_cap(self):
        c = _cert()
        for beta in (F(1, 4), F(1, 2)):
            for m, val in enumerate(c.K_beta_m[beta]):
                if m >= 1:
                    assert val.upper() <= c.K_cap.upper() * (1 + 1e-12)

    def test_epsilon_and_l_identities(self):
        c = _cert()
        eps = CT.Ctilde * c.K_cap.scale(2)
        assert abs(float(c.epsilon.upper()) - float(eps.upper())) < 1e-12
        L = c.K_cap.scale(2) * CT.beta_value(F(3, 4), F(1, 4))
        assert float(c.L.lower()) <= float(L.upper())
        assert float(L.lower()) <= float(c.L.upper())

    def test_m_table_recursion_replayed(self):
        c = _cert()
        m0 = {b: c.M_beta_m[b][0] for b in c.M_beta_m}
        for b in c.M_beta_m:
            for m in range(len(c.M_beta_m[b]) - 1):
                nxt = m0[b] + CT.M * \
                    c.M_beta_m[F(1, 4)][m] * c.M_beta_m[F(1, 2)][m] * \
                    CT.beta_value(F(3, 4) - b, F(1, 4))
                got = c.M_beta_m[b][m + 1]
                assert got.lower() <= nxt.upper()
                assert nxt.lower() <= got.upper()

    @pytest.mark.parametrize("M", [1, 2, F(3, 7)])
    def test_k_and_m_tables_one_recursion(self, M):
        # the K and M tables come from one recursion, and for any M both
        # match bit for bit the reference below: a loop per table, each
        # taking the product as x_{1/4} x_{1/2} M
        ct = ConstantsTable(M=BoundedValue.from_fraction(F(M)))
        c = nse.compute_horizon(EL, constants=ct, mode_cap=12)
        q, h = F(1, 4), F(1, 2)
        K0 = BoundedValue.exact(1) / ct.Ctilde.scale(8)
        K = {q: [K0], h: [K0]}
        Mt = {b: [c.a_norm] for b in (q, h, F(3, 5))}
        for m in range(8):
            prod = K[q][m] * K[h][m] * ct.M
            for b in (q, h):
                K[b].append(K0 + ct.beta_value(1 - b - q, q) * prod)
            prod = Mt[q][m] * Mt[h][m] * ct.M
            for b in (q, h, F(3, 5)):
                Mt[b].append(Mt[b][0] + ct.beta_value(F(3, 4) - b, q) * prod)
        for got, ref in ((c.K_beta_m, K), (c.M_beta_m, Mt)):
            assert {b: [v.to_json() for v in vs] for b, vs in got.items()} \
                == {b: [v.to_json() for v in vs] for b, vs in ref.items()}

    def test_w_recursion_fixed_point(self):
        c = _cert()
        limit = 4 * (math.sqrt(2) - 1) / math.sqrt(2)
        w = F(1)
        for wm in c.w_m:
            assert wm == w
            assert float(wm) <= limit + 1e-12
            w = 1 + w * w / 8

    def test_zero_datum(self):
        z = (FourierField.zero("sc", 1), FourierField.zero("cs", 1))
        c = nse.compute_horizon(z)
        assert float(c.k0.upper()) < 1e-100
        assert c.T_frac > 0

    def test_doubling_shrinks_horizon(self):
        pair = tuple(nse._strip_tail(f) for f in mollified_field_pair(EL, 16))
        doubled = (pair[0].scale(F(2)), pair[1].scale(F(2)))
        c1 = nse.compute_horizon(pair, mode_cap=12)
        c2 = nse.compute_horizon(doubled, mode_cap=12)
        assert c2.T_frac <= c1.T_frac

    def test_name_resolution_only_shrinks(self):
        # the exact pair is a finer presentation of the same field than a
        # name carrying the generic 2^-k resolution slack
        pair = tuple(nse._strip_tail(f) for f in mollified_field_pair(EL, 16))
        exact = nse.compute_horizon(pair, mode_cap=12)
        named = nse.compute_horizon(VectorFieldName.constant(*pair),
                                    mode_cap=12)
        assert exact.T_frac >= named.T_frac

    def test_json_serialization(self):
        d = _cert().to_json()
        for key in ("T_a", "k0", "K_cap", "epsilon", "L", "K_beta_m",
                    "M_beta_m", "w_m", "k_hat", "seed_res", "a_norm"):
            assert key in d


class TestClaim1Search:
    """The exact root-free Claim-1 search, `nse._claim1_exponent`, against
    the rounded-root loop it replaced, `oracles.rounded_root_exponent`, and
    bit for bit against its own `Fraction` form,
    `oracles.fraction_claim1_exponent`."""

    @staticmethod
    def _bound16(c):
        # compute_horizon's bound: 1/(16 Ctilde), less what the resolution
        # floor seed_res takes from the 1/(8 Ctilde) total
        one, ct = BoundedValue.exact(1), c.constants
        return min((one / ct.Ctilde.scale(16)).lower(),
                   (one / ct.Ctilde.scale(8)).lower() - c.seed_res)

    @staticmethod
    def _mx(c):
        return F(c.half_norm)

    def test_half_norm_bounds_quarter_norm(self):
        # the Claim-1 norm max{||A^{1/4}u||, ||A^{1/2}u||} is ||A^{1/2}u||:
        # every live mode of an (sc, cs) pair has lambda >= pi^2, so
        # ||A^{1/4}u|| <= pi^{-1/2} ||A^{1/2}u||; the computed upper ends
        # keep that order on random seeds from 1e-300 to 1e2
        rng = np.random.default_rng(36)
        seeds = [_cert().seed]
        for scale in (1e-300, 1e-150, 1e-20, 1.0, 1e2):
            for cut in (1, 2, 5, 12, 24):
                grids = [rng.standard_normal((cut + 1, cut + 1)) * scale
                         for _ in range(2)]
                seeds.append((FourierField("sc", cut, BallGrid(grids[0])),
                              FourierField("cs", cut, BallGrid(grids[1]))))
        for seed in seeds:
            quarter = frac_power_norm(seed, F(1, 4)).upper()
            half = frac_power_norm(seed, F(1, 2)).upper()
            assert quarter <= half
        assert not hasattr(_cert(), "quarter_norm")

    def test_matches_rounded_root_over_scales(self):
        # the README seed norm scaled by 10^-12 .. 10^6, with and without
        # forcing
        c = _cert()
        b, mx = self._bound16(c), float(self._mx(c))
        for G in (0.0, 1e-3, 0.5):
            for i in range(-96, 49):
                m = F(mx * 10.0 ** (i / 8))
                assert nse._claim1_exponent(m, b, G, 2, 400) == \
                    rounded_root_exponent(m, b, G), (i, G)
                for j0, j_max in ((2, 400), (9, 30), (40, 41)):
                    assert nse._claim1_exponent(m, b, G, j0, j_max) == \
                        fraction_claim1_exponent(m, b, G, j0, j_max), \
                        (i, G, j0)

    @pytest.mark.parametrize("j", [4, 8, 28, 60])
    def test_exact_tie_rejected(self, j):
        # mx = b 2^{j/4}: at T = 2^-j, T^{1/4} mx equals b exactly
        b = self._bound16(_cert())
        mx = b * 2 ** (j // 4)
        assert nse._claim1_exponent(mx, b, 0.0, j, j) is None
        assert nse._claim1_exponent(mx, b, 0.0, j, j + 1) == j + 1
        assert nse._claim1_exponent(mx, b, 0.0, 2, 400) == j + 1
        assert rounded_root_exponent(mx, b, 0.0) == j + 1
        # the forcing moves the least j on, in both exact searches alike
        for G in (0.0, 1e-3):
            for j0, j_max in ((j, j), (j, j + 1), (2, 400)):
                assert nse._claim1_exponent(mx, b, G, j0, j_max) == \
                    fraction_claim1_exponent(mx, b, G, j0, j_max)

    def test_nonpositive_bound_or_range(self):
        for b in (F(0), F(-1, 8)):
            assert nse._claim1_exponent(F(0), b, 0.0, 2, 400) is None
        assert nse._claim1_exponent(F(10 ** 9), F(1, 64), 0.0, 2, 40) \
            is None
        for G in (0.0, 1e-3, 0.5):
            for mx, b, j0, j_max in ((F(3, 7), F(0), 2, 400),
                                     (F(3, 7), F(-1, 8), 2, 400),
                                     (F(3, 7), F(1, 64), 12, 11),
                                     (F(0), F(1, 64), 2, 6)):
                assert fraction_claim1_exponent(mx, b, G, j0, j_max) == \
                    nse._claim1_exponent(mx, b, G, j0, j_max)
        # j0 > j_max: no j to test
        assert nse._claim1_exponent(F(0), F(1, 64), 0.0, 12, 11) is None
        # a forcing term that no j in range brings below b
        assert nse._claim1_exponent(F(0), F(1, 64), 4.0, 2, 6) is None

    def test_certificate_horizons_match_rounded_root(self):
        z = (FourierField.zero("sc", 1), FourierField.zero("cs", 1))
        pair = tuple(nse._strip_tail(f) for f in mollified_field_pair(EL, 16))
        forcing = nse.Forcing.constant(*_sol_mode(1, 1, 0.5, cutoff=2))
        certs = {"readme": _cert(), "zero": nse.compute_horizon(z),
                 "name": nse.compute_horizon(VectorFieldName.constant(*pair),
                                             mode_cap=12),
                 "forced": nse.compute_horizon(pair, mode_cap=12,
                                               forcing=forcing)}
        assert certs["zero"].T_frac == F(1, 4)
        assert certs["name"].seed_res > 0
        for name, c in certs.items():
            j = rounded_root_exponent(self._mx(c), self._bound16(c),
                                      c.forcing_sup)
            assert c.T_frac == F(1, 2 ** j), name

    def test_no_root_per_halving(self, monkeypatch):
        # a warm horizon takes sqrt 2 and the fourth root at the chosen T,
        # however many halvings its search makes; theta2 takes none
        z = (FourierField.zero("sc", 1), FourierField.zero("cs", 1))
        datums = ((EL, 12), (z, 24))
        certs = [nse.compute_horizon(d, mode_cap=cap) for d, cap in datums]
        assert certs[0].j_a - certs[1].j_a >= 20
        calls = []
        real = nse.bv_sqrt

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(nse, "bv_sqrt", counted)
        for d, cap in datums:
            calls.clear()
            nse.compute_horizon(d, mode_cap=cap)
            assert len(calls) <= 3
        calls.clear()
        for c in certs:
            for k in range(4, 24):
                nse._theta2(c, k)
        assert not calls


class TestLazyMTable:
    """The M table is built on first read, from the certificate's a_norm,
    its constants' recursion coefficients and M: a horizon builds none."""

    @staticmethod
    def _count_recursion(monkeypatch):
        calls = []
        real = nse._recursion

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        monkeypatch.setattr(nse, "_recursion", counting)
        return calls

    def test_warm_horizon_builds_no_m_table(self, monkeypatch):
        nse.compute_horizon(EL, mode_cap=12)
        calls = self._count_recursion(monkeypatch)
        z = (FourierField.zero("sc", 1), FourierField.zero("cs", 1))
        c = nse.compute_horizon(z, mode_cap=24)
        assert len(calls) == 0
        first = c.M_beta_m
        assert len(calls) == 1
        assert c.M_beta_m is first
        assert len(calls) == 1

    def test_json_form_unchanged(self):
        c = nse.compute_horizon(EL, mode_cap=12)
        d = c.to_json()
        assert list(d) == ["T_a", "k0", "K_cap", "epsilon", "L", "K_beta_m",
                           "M_beta_m", "w_m", "k_hat", "seed_res", "a_norm"]
        assert list(d["M_beta_m"]) == ["1/4", "1/2", "3/5"]
        assert all(len(vs) == 9 for vs in d["M_beta_m"].values())
        assert d["M_beta_m"]["1/4"][0] == c.a_norm.to_json()
        assert "M_beta_m" not in {f.name for f in dataclasses.fields(c)}

    def test_replaced_copy_builds_an_equal_table(self):
        # `oracles.WideCapEngine` runs on such a copy
        c = nse.compute_horizon(EL, mode_cap=12)
        seed = tuple(f._embedded(2 * c.seed_cutoff) for f in c.seed)
        for read_first in (False, True):
            if read_first:
                c.M_beta_m
            copy = dataclasses.replace(c, seed=seed)
            assert copy.to_json() == c.to_json()
            assert copy.M_beta_m is not c.M_beta_m


class TestDatumFreeTables:
    """K_cap, epsilon, L, the K table, the Beta coefficients of the K and M
    recursion and the w table are built once per constants table; a warm
    horizon of a new datum pays only for what depends on it."""

    def test_warm_horizon_reads_no_beta_value(self, monkeypatch):
        first = nse.compute_horizon(EL, mode_cap=12)
        calls = []
        real = CT.beta_value

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        monkeypatch.setattr(CT, "beta_value", counting)
        z = (FourierField.zero("sc", 1), FourierField.zero("cs", 1))
        for d, cap in ((EL, 8), (z, 24)):
            c = nse.compute_horizon(d, mode_cap=cap)
            assert c.w_m is first.w_m
        assert not calls

    def test_certificates_own_k_lists(self):
        first = nse.compute_horizon(EL, mode_cap=12)
        want = {b: [v.to_json() for v in vs]
                for b, vs in first.K_beta_m.items()}
        for vs in first.K_beta_m.values():
            vs[0] = BoundedValue.exact(99)
            vs.append(BoundedValue.exact(7))
        second = nse.compute_horizon(EL, mode_cap=12)
        assert {b: [v.to_json() for v in vs]
                for b, vs in second.K_beta_m.items()} == want

    def test_own_tables_per_constants(self):
        ct2 = ConstantsTable(M=BoundedValue.exact(2))
        tabs = nse._datum_free_tables(ct2)
        assert nse._datum_free_tables(ct2) is tabs
        assert nse._datum_free_tables(CT) is not tabs
        c2 = nse.compute_horizon(EL, constants=ct2, mode_cap=12)
        c1 = nse.compute_horizon(EL, mode_cap=12)
        for key in ("K_cap", "L", "K_beta_m"):
            assert c2.to_json()[key] != c1.to_json()[key], key
        # epsilon = 2 Ctilde K_cap from each certificate's own table; as
        # K_cap is proportional to 1/Ctilde, M cancels from epsilon's value
        for c, ct in ((c1, CT), (c2, ct2)):
            assert c.epsilon.to_json() == \
                (ct.Ctilde * c.K_cap.scale(2)).to_json()

    def test_warm_element_counters(self, monkeypatch):
        # after one element at trim level 1, a new scaled element at that
        # level takes no trig values (the moment grids are cached) and only
        # the two roots of its k0 lead
        base = pf.solenoidal_kernel(4)[0]
        nse.compute_horizon(pf.mollify(base.scale(F(5, 4)), 1, 2),
                            mode_cap=12)
        counts = {"sincos": 0, "sqrt": 0}

        def counted(mod, name, key):
            real = getattr(mod, name)

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(mod, name, wrapper)

        counted(spectral, "grid_sincos_pi", "sincos")
        counted(nse, "bv_sqrt", "sqrt")
        nse.compute_horizon(pf.mollify(base.scale(F(-23, 16)), 1, 2),
                            mode_cap=12)
        assert counts == {"sincos": 0, "sqrt": 2}


# ---------------------------------------------------------------------------
# iteration, lift, claims
# ---------------------------------------------------------------------------

class TestIterate:
    def test_initial_value_is_datum(self):
        c = _cert()
        for m in (0, 2, 5):
            p = nse.iterate(EL, c, m, 0, 4)
            ref = mollified_field_pair(EL, 64)
            assert _center_diff(p, ref) <= 2.0 ** -4 + _pair_slack(p)

    def test_initial_value_states_its_distance(self):
        # at mode cap 24 the README element's seed_res (6.13e-4) meets
        # 2^-8, so t = 0 returns the seed: its tail must bound the seed's
        # distance to the datum, which the expansion at cutoff 128 puts at
        # least 4.5e-5 away in each component
        c = nse.compute_horizon(EL, mode_cap=24)
        p = nse.iterate(EL, c, 3, 0, 8)
        assert [f.cutoff for f in p] == [24, 24]
        assert nse._norm2([f.tail_l2.upper() for f in p]).upper() <= 2.0 ** -8
        for f, g in zip(p, spectral.mollified_field_pair(EL, 128)):
            assert F(f.tail_l2.upper()) >= c.seed_res / 2
            band = floatball.fb_sqrt((nse._strip_tail(g) - f).weighted_sq_ball())
            assert band.lower() - g.tail_l2.upper() > 4.5e-5
            assert (band + g.tail_l2).upper() <= f.tail_l2.upper()

    def test_initial_value_budget_enforced(self):
        # at 2^-13 the floor 6.13e-4 rules out the seed; the README element
        # then resolves at rung 128, whose joint tail 3.68e-5 meets the
        # 2^-13 = 1.22e-4 the call asks for
        c = nse.compute_horizon(EL, mode_cap=24)
        p = nse.iterate(EL, c, 3, 0, 13)
        assert [f.cutoff for f in p] == [128, 128]
        assert nse._norm2([f.tail_l2.upper() for f in p]).upper() \
            <= 2.0 ** -13
        # a concrete pair cannot be refined: its expansion at cutoff 64
        # carries tails 1.45e-4 each, 2.05e-4 jointly, over 2^-13
        pair = spectral.mollified_field_pair(EL, 64)
        c = nse.compute_horizon(pair, mode_cap=24)
        with pytest.raises(nse.BudgetError):
            nse.iterate(pair, c, 3, 0, 13)

    def test_m_zero_is_semigroup(self):
        c = _cert()
        t = c.T_frac / 2
        p = nse.iterate(EL, c, 0, t, 10)
        q = semigroup_apply(c.seed, t, 10)
        assert _center_diff(p, q) <= 2.0 ** -9

    def test_horizon_enforced(self):
        c = _cert()
        with pytest.raises(nse.HorizonError):
            nse.iterate(EL, c, 1, c.T_frac * 2, 6)
        with pytest.raises(nse.HorizonError):
            nse.iterate(EL, c, 1, F(-1, 8), 6)

    def test_small_time_modulus_path(self):
        c = _cert()
        k = 5
        eta = nse.eta_modulus(c, 3, k + 1)
        if eta is None or c.seed_res > F(1, 2 ** (k + 1)):
            pytest.skip("resolution floor blocks the modulus path here")
        p = nse.iterate(EL, c, 3, F(1, 2 ** max(eta, 60)), k)
        assert _center_diff(p, c.seed) == 0.0
        assert p[0].tail_l2.upper() <= 2.0 ** -(k + 1) * (1 + 1e-12)

    def test_modulus_values(self):
        c = _cert()
        assert F(1, 2 ** c.j_a) == c.T_frac
        e1 = nse.eta_modulus(c, 1, 6)
        assert e1 is None or e1 >= c.j_a

    @staticmethod
    def _exact_datum_cert():
        # u0 = (2a s1c2 + b s2c1, -a c1s2 - 2b c2s1) with a = 1/16,
        # b = -3/64: its stream function is a Laplacian eigenfunction
        a, b = 1 / 16, -3 / 64
        g1, g2 = np.zeros((3, 3)), np.zeros((3, 3))
        g1[1, 2], g1[2, 1], g2[1, 2], g2[2, 1] = 2 * a, b, -a, -2 * b
        pair = (FourierField("sc", 2, BallGrid(g1)),
                FourierField("cs", 2, BallGrid(g2)))
        return nse.compute_horizon(pair, mode_cap=12)

    # theta, frozen from the route that rebuilt a smoothing-constant ball at
    # every step of the search and took the rounded root of each horizon
    THETA2 = {("readme", 8): 29, ("readme", 12): 36, ("readme", 16): None,
              ("exact", 8): 25, ("exact", 12): 29, ("exact", 16): 37}

    @staticmethod
    def _theta2_ratio(c, k, theta):
        """M B(3/4,1/4) (W* v)^2 / 2^-(k+1) at 50 digits, with v the
        Claim-1 functional seed_res + T^{1/4} mx at T = 2^-theta (no
        forcing), or its floor seed_res when theta is None; each constant
        enters by its upper end."""
        ct = c.constants
        with mp.workdps(50):
            def up(bv):
                x = bv.upper()
                return mp.mpf(x.numerator) / x.denominator
            v = mp.mpf(c.seed_res.numerator) / c.seed_res.denominator
            if theta is not None:
                v += mp.mpf(2) ** (mp.mpf(-theta) / 4) * mp.mpf(c.half_norm)
            lead = up(ct.M) * up(ct.beta_value(F(3, 4), F(1, 4)))
            ws = (4 - 2 * mp.sqrt(2)) * v
            return lead * ws * ws / mp.mpf(2) ** -(k + 1)

    def test_theta2_frozen(self):
        certs = {"readme": _cert(), "exact": self._exact_datum_cert()}
        for (name, k), theta in self.THETA2.items():
            c = certs[name]
            assert nse._theta2(c, k) == theta, (name, k)
            if theta is None:
                # the resolution floor alone misses the budget
                assert self._theta2_ratio(c, k, None) > 1 - 2.0 ** -40
                continue
            # the condition holds at theta, and one halving earlier it
            # fails or holds only within 2^-40 of its bound
            assert self._theta2_ratio(c, k, theta) <= 1, (name, k)
            if theta - 1 >= c.j_a:
                assert self._theta2_ratio(c, k, theta - 1) > \
                    1 - 2.0 ** -40, (name, k)

    def test_energy_chain(self):
        c = _cert()
        t = c.T_frac
        p = nse.iterate(EL, c, 2, t, 8)
        bound = float(c.a_norm.upper()) + float(c.L.upper()) \
            + _pair_slack(p) + 2.0 ** -7
        assert _pair_norm_upper(p) <= bound


class TestSmoothnessLift:
    def test_time_must_be_positive(self):
        with pytest.raises(ValueError):
            nse.smoothness_lift(1, 0, 6, _cert())
        with pytest.raises(ValueError):
            nse.smoothness_lift(1, F(-1, 4), 6, _cert())

    def test_m_zero_heat_oracle(self):
        c = _cert()
        t = c.T_frac
        lift = nse.smoothness_lift(0, t, 8, c)
        lam = None
        for i in (0, 1):
            f = lift.band[i]
            seed = c.seed[i]._embedded(f.cutoff)
            n = np.arange(f.cutoff + 1, dtype=float)
            ng, mg = np.meshgrid(n, n, indexing="ij")
            lam = np.pi ** 2 * (ng * ng + mg * mg)
            oracle = seed.grid.c * np.exp(-float(t) * lam)
            gap = np.abs(f.grid.c - oracle)
            assert bool((gap <= f.grid.r + seed.grid.r + 1e-12).all())

    def test_h65_certificate_dominates_oracle(self):
        c = _cert()
        lift = nse.smoothness_lift(0, c.T_frac, 8, c)
        tot = 0.0
        for f in lift.band:
            n = np.arange(f.cutoff + 1, dtype=float)
            ng, mg = np.meshgrid(n, n, indexing="ij")
            w = (1 + ng * ng + mg * mg) ** F(6, 5) * f.weights()
            tot += float((w * f.grid.c ** 2).sum())
        assert math.sqrt(tot) <= lift.hs65.upper() * (1 + 1e-9)

    def test_lift_reports_meet_budget(self):
        c = _cert()
        lift = nse.smoothness_lift(1, c.T_frac, 8, c)
        assert nse._pair_radius(lift.u) + lift.defect[F(0)] <= 2.0 ** -8 \
            * (1 + 1e-9)

    @staticmethod
    def _engine_radius(cert, t, P, m):
        pair, d = nse._Engine(cert, t, P).eval(m)
        return (FloatBall(nse._pair_radius(pair)) + d.at(0)).upper()

    def test_ladder_returns_smallest_doubling(self, monkeypatch):
        # a small datum at a fine budget: one cell reaches about 4.7e-9 and
        # two cells 2.7e-9, against 2^-28 = 3.7e-9
        a = pf.mollify(pf.solenoidal_kernel(4)[0].scale(F(1, 16)), 1, 2)
        c = nse.compute_horizon(a, mode_cap=12)
        t, m, K = c.T_frac, 5, 28
        lift = nse.smoothness_lift(m, t, K, c)
        assert lift.panels == 2
        assert self._engine_radius(c, t, lift.panels, m) <= 2.0 ** -K
        assert self._engine_radius(c, t, lift.panels // 2, m) > 2.0 ** -K
        monkeypatch.setattr(nse, "_PANEL_CAP", 1)
        with pytest.raises(nse.BudgetError):
            nse.smoothness_lift(m, t, K, c)

    def test_one_cell_overlaps_eight(self):
        # the one-cell hull and the eight-cell quadrature enclose the same
        # iterate: every coefficient ball of one meets the other's once
        # both are widened by their L2 tails (a coefficient of weight w
        # moves by at most tail / sqrt(w) <= 2 tail)
        c = _cert()
        one, eight = (nse.smoothness_lift(3, c.T_frac, 8, c, panels=P)
                      for P in (1, 8))
        assert (one.panels, eight.panels) == (1, 8)
        for f, g in zip(one.u, eight.u):
            assert (f.basis, f.cutoff) == (g.basis, g.cutoff)
            slack = f.grid.r + g.grid.r + 2 * (f.tail_l2.upper()
                                               + g.tail_l2.upper())
            assert bool((np.abs(f.grid.c - g.grid.c) <= slack).all())


class TestRoundingRules:
    """The engine's defect weights against 60-digit mpmath."""

    @pytest.mark.parametrize("t_scale", [F(1), F(1, 3)])
    def test_defect_weight_table(self, t_scale):
        # the weights carry no smoothing constant: each is 1
        cert = _cert()
        t = cert.T_frac * t_scale
        P = 8
        eng = nse._Engine(cert, t, P)
        with mp.workdps(60):
            h = mp.mpf(t.numerator) / t.denominator / P
            for i, g in enumerate((F(1, 4), F(1, 2), F(3, 4), F(17, 20))):
                gm = mp.mpf(g.numerator) / g.denominator
                end = h ** (1 - gm) / (1 - gm)
                near = (2 * h) ** (1 - gm) / (1 - gm)
                far = [h * (k * h) ** -gm for k in range(1, P)]
                for ball, ref in ([(eng._W_end.at((i, 0)), end),
                                   (eng._W_int.at((i, 0)), near)]
                                  + [(eng._W_end.at((i, k)), far[k - 1])
                                     for k in range(1, P)]
                                  + [(eng._W_int.at((i, k)), far[k - 1])
                                     for k in range(1, P)]):
                    assert mp.mpf(ball.lower()) <= ref <= mp.mpf(ball.upper())
                    assert ball.r <= 1e-13 * abs(ball.c)

    def test_second_solve_runs_no_series(self, monkeypatch):
        # the defect weights and the H^{6/5} factor are cached: a second
        # warm solve at the same horizon runs no exp or atanh series
        c = _cert()
        nse.solve(EL, None, c.T_frac, 8, cert=c)
        calls = {"_exp_series": 0, "_atanh_series": 0}
        for name in calls:
            series = getattr(floatball, name)

            def counting(x, name=name, series=series):
                calls[name] += 1
                return series(x)
            monkeypatch.setattr(floatball, name, counting)
        nse.solve(EL, None, c.T_frac, 8, cert=c)
        assert calls == {"_exp_series": 0, "_atanh_series": 0}

    def test_ladder_top_keeps_heat_tables_warm(self):
        # an engine at P = 64 cells reads the 65 heat tables k h, k = 0..64;
        # a second one on the same certificate finds every one cached
        c = _cert()
        nse._Engine(c, c.T_frac, 64)
        before = stokes._heat_factor.cache_info()
        nse._Engine(c, c.T_frac, 64)
        after = stokes._heat_factor.cache_info()
        assert after.misses == before.misses
        assert after.hits - before.hits == 65

    @pytest.mark.parametrize("P", [1, 2, 8])
    def test_cached_weights_are_fresh_and_read_only(self, P):
        c = _cert()
        eng = nse._Engine(c, c.T_frac / 3, P)
        fresh = nse._defect_weights.__wrapped__(P, c.T_frac / 3 / P)
        for got, ref in zip((eng._W_int, eng._W_end), fresh):
            for x, y in ((got.c, ref.c), (got.r, ref.r)):
                assert not x.flags.writeable
                assert np.array_equal(x.view(np.int64), y.view(np.int64))
                with pytest.raises(ValueError):
                    x[0, 0] = 0.0
        assert nse._Engine(c, c.T_frac / 3, P)._W_int is eng._W_int


class TestLevelEngine:
    """The level engine against the cell-by-cell recursion of
    `oracles.CellEngine`: the same centres, radii, tails and defect
    vectors, bit for bit; and against `oracles.RecomputingCellEngine`,
    which runs the product of every cell at every level: the same
    centres, inside its balls and defects."""

    @staticmethod
    def _bits(x):
        return np.ascontiguousarray(x, dtype=np.float64).view(np.int64)

    def _same(self, got, ref):
        (pair, d), (rpair, rd) = got, ref
        for f, g in zip(pair, rpair):
            assert (f.basis, f.cutoff) == (g.basis, g.cutoff)
            for x, y in ((f.grid.c, g.grid.c), (f.grid.r, g.grid.r),
                         ([f.tail_l2.c, f.tail_l2.r],
                          [g.tail_l2.c, g.tail_l2.r])):
                assert np.array_equal(self._bits(x), self._bits(y))
        assert np.array_equal(self._bits(d.c), self._bits(rd.c))
        assert np.array_equal(self._bits(d.r), self._bits(rd.r))

    def _check(self, cert, t, P, depths):
        ref = CellEngine(cert, t, P)
        for m in depths:
            self._same(nse._Engine(cert, t, P).eval(m), ref.eval(m))

    # P = 1 has no gap hull and no Duhamel sum before the endpoint, P = 2
    # one gap, and P <= 2 pads the defect weight table to two cells
    @pytest.mark.parametrize("t_scale", [F(1), F(1, 2)])
    @pytest.mark.parametrize("P", [1, 2, 3, 4, 8])
    def test_readme_datum(self, t_scale, P):
        c = _cert()
        self._check(c, c.T_frac * t_scale, P, (1, 2, 4))

    @staticmethod
    def _forced_cert(forcing):
        pair = tuple(nse._strip_tail(f) for f in mollified_field_pair(EL, 16))
        return nse.compute_horizon(pair, mode_cap=12, forcing=forcing)

    @classmethod
    def _varying_cert(cls):
        """The certificate of `_varying_forcing(t)`, t the horizon of
        `_constant_forcing`'s: its horizon is t too, so its cells split
        at t/2."""
        t = cls._forced_cert(_constant_forcing()).T_frac
        c = cls._forced_cert(_varying_forcing(t))
        assert c.T_frac == t == F(1, 2 ** 29)
        return c

    def _inside(self, got, ref):
        """got's centres are ref's bit for bit, each of its coefficient and
        tail balls lies inside ref's and each defect entry's upper end is
        at most ref's, compared in Fraction."""
        def ends(c, r):
            return F(c) - F(r), F(c) + F(r)
        (pair, d), (rpair, rd) = got, ref
        for f, g in zip(pair, rpair):
            assert (f.basis, f.cutoff) == (g.basis, g.cutoff)
            assert np.array_equal(self._bits(f.grid.c),
                                  self._bits(g.grid.c))
            balls = zip(f.grid.c.ravel().tolist() + [f.tail_l2.c],
                        f.grid.r.ravel().tolist() + [f.tail_l2.r],
                        g.grid.c.ravel().tolist() + [g.tail_l2.c],
                        g.grid.r.ravel().tolist() + [g.tail_l2.r])
            for c, r, rc, rr in balls:
                (lo, hi), (rlo, rhi) = ends(c, r), ends(rc, rr)
                assert rlo <= lo and hi <= rhi
        for c, r, rc, rr in zip(d.c, d.r, rd.c, rd.r):
            assert ends(c, r)[1] <= ends(rc, rr)[1]

    @pytest.mark.parametrize("t_scale", [F(1), F(1, 2)])
    @pytest.mark.parametrize("P", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("datum", ["readme", "constant", "varying"])
    def test_reuse_stays_inside_the_recomputing_recursion(self, datum, P,
                                                          t_scale):
        # a final cell keeps the product of the level where its iterate
        # became final; running it again at every level only re-subtracts
        # cell 0's all-zero Duhamel row, which can widen but not move
        c = {"readme": _cert,
             "constant": lambda: self._forced_cert(_constant_forcing()),
             "varying": self._varying_cert}[datum]()
        t = c.T_frac * t_scale
        ref = RecomputingCellEngine(c, t, P)
        for m in range(1, 6):
            self._inside(nse._Engine(c, t, P).eval(m), ref.eval(m))

    @pytest.mark.parametrize("P", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_products_only_while_a_cell_can_move(self, P, m, monkeypatch):
        # level j runs the product on the cells j..P-1 only
        calls = []
        product = nse.nonlinearity_pair

        def counting(u1, u2):
            calls.append(u1.cutoff)
            return product(u1, u2)
        monkeypatch.setattr(nse, "nonlinearity_pair", counting)
        c = _cert()
        nse._Engine(c, c.T_frac, P).eval(m)
        assert len(calls) == sum(max(P - j, 0) for j in range(m))

    @pytest.mark.parametrize("P", [1, 2, 3, 4, 8])
    def test_constant_forcing(self, P):
        c = self._forced_cert(_constant_forcing())
        self._check(c, c.T_frac, P, (0, 1, 2))

    def test_forcing_bands_differ_by_cell(self):
        # the first cells force inside the seed band, the later ones past
        # it, so the cap is the wide forcing's band and the seed and the
        # narrow forcing cells are zero-padded to it
        c = self._varying_cert()
        self._check(c, c.T_frac, 4, (0, 1, 2))

    def test_cap_is_the_widest_band(self):
        # the seed's band without forcing or with narrow forcing, the widest
        # projected forcing cell when that is wider
        c = _cert()
        assert nse._Engine(c, c.T_frac, 2).cap == c.seed_cutoff == 12
        fc, vc = self._forced_cert(_constant_forcing()), self._varying_cert()
        assert fc.seed_cutoff == vc.seed_cutoff == 12
        assert nse._Engine(fc, fc.T_frac, 4).cap == 12
        assert nse._Engine(vc, vc.T_frac, 1).cap == 12
        assert nse._Engine(vc, vc.T_frac, 4).cap == 16

    def test_every_product_runs_at_the_cap(self, monkeypatch):
        # under cell-varying forcing bands every cell of every level holds
        # its iterate at the cap, the narrow cells 0-1 as the wide 2-3;
        # level j runs the cells j..3, 4 + 3 + 2 products
        cutoffs = []
        product = nse.nonlinearity_pair

        def recording(u1, u2):
            cutoffs.append((u1.cutoff, u2.cutoff))
            return product(u1, u2)
        c = self._varying_cert()
        monkeypatch.setattr(nse, "nonlinearity_pair", recording)
        eng = nse._Engine(c, c.T_frac, 4)
        eng.eval(3)
        assert eng.cap == 16
        assert cutoffs == [(16, 16)] * 9

    @pytest.mark.parametrize("m", [1, 3])
    def test_one_product_per_cell_and_level(self, m, monkeypatch):
        calls = []
        product = nse.nonlinearity_pair

        def counting(u1, u2):
            calls.append(u1.cutoff)
            return product(u1, u2)
        monkeypatch.setattr(nse, "nonlinearity_pair", counting)
        c = _cert()
        lift = nse.smoothness_lift(m, c.T_frac, 8, c, panels=4)
        # every engine of the panel doubling 4, 8, ..., lift.panels, whose
        # level j runs the cells j..P-1
        doublings = [4 * 2 ** k for k in range(lift.panels.bit_length() - 2)]
        assert doublings[-1] == lift.panels
        assert len(calls) == sum(max(P - j, 0)
                                 for P in doublings for j in range(m))


class TestEngineBand:
    """The engine at the seed's band against `oracles.WideCapEngine`, the
    engine at twice that band: both enclose the same iterate."""

    @pytest.mark.parametrize("datum", ["readme", "seeded"])
    @pytest.mark.parametrize("mode_cap", [8, 12, 16])
    def test_lift_meets_the_wide_cap_oracle(self, datum, mode_cap,
                                            monkeypatch):
        self._check(datum, mode_cap, None, monkeypatch)

    @pytest.mark.parametrize("forcing", ["constant", "varying"])
    @pytest.mark.parametrize("datum", ["readme", "seeded"])
    @pytest.mark.parametrize("mode_cap", [8, 12, 16])
    def test_forced_lift_meets_the_wide_cap_oracle(self, datum, mode_cap,
                                                   forcing, monkeypatch):
        # the forcing of `TestLevelEngine`: narrow on every cell, or narrow
        # on the first half and of band 16 on the second, on 4 cells
        self._check(datum, mode_cap, forcing, monkeypatch)

    @staticmethod
    def _check(datum, mode_cap, forcing, monkeypatch):
        # the parameters of solve's lift at K = 8: depth 5, budget 2^-9;
        # every coefficient ball of one lift meets the other's once both
        # are widened by their L2 tails (a coefficient of weight w moves by
        # at most tail / sqrt(w) <= 2 tail), the modes past the seed's band
        # included, where the narrow field holds exact zeros
        a = EL if datum == "readme" else \
            pf.mollify(pf.solenoidal_kernel(4)[0].scale(F(-27, 16)), 1, 2)
        c = nse.compute_horizon(a, mode_cap=mode_cap,
                                forcing=_constant_forcing() if forcing
                                else None)
        t = c.T_frac
        if forcing == "varying":
            # the varying forcing's certificate keeps the horizon t, so
            # its cells split at t/2
            c = nse.compute_horizon(a, mode_cap=mode_cap,
                                    forcing=_varying_forcing(t))
            assert c.T_frac == t
        P = 1 if forcing is None else 4
        narrow = nse.smoothness_lift(5, t, 9, c, panels=P)
        monkeypatch.setattr(nse, "_Engine", WideCapEngine)
        wide = nse.smoothness_lift(5, t, 9, c, panels=P)
        N = c.seed_cutoff
        band = 16 if forcing == "varying" else 0
        for f, g in zip(narrow.u, wide.u):
            assert (f.cutoff, g.cutoff) == (max(N, band), max(2 * N, band))
            fg = f._embedded(g.cutoff).grid
            slack = fg.r + g.grid.r + 2 * (f.tail_l2.upper()
                                           + g.tail_l2.upper())
            assert bool((np.abs(fg.c - g.grid.c) <= slack).all())
        assert narrow.defect[F(0)] <= 2.0 ** -9


class TestClaimBounds:
    def test_beta_norm_tables_realized(self):
        c = _cert()
        for m in (1, 2):
            for t in (c.T_frac / 2, c.T_frac):
                lift = nse.smoothness_lift(m, t, 8, c)
                for beta in (F(1, 4), F(1, 2)):
                    ap = frac_power_apply(lift.band, beta)
                    measured = float(t) ** float(beta) * \
                        (_pair_norm_upper(ap) + lift.defect[beta])
                    idx = min(m, len(c.K_beta_m[beta]) - 1)
                    cap = float(c.K_beta_m[beta][idx].upper())
                    assert measured <= cap * (1 + 1e-9)

    def test_successive_difference_decay(self):
        c = _cert()
        t = c.T_frac
        eps = float(c.epsilon.upper())
        L = float(c.L.upper())
        iterates = [nse.iterate(EL, c, m, t, 8) for m in range(0, 6)]
        diffs, slacks = [], []
        for m in range(5):
            p, q = iterates[m], iterates[m + 1]
            diffs.append(_center_diff(p, q))
            slacks.append(_pair_slack(p) + _pair_slack(q))
        for m in range(1, 5):
            assert diffs[m] <= L * eps ** (m - 1) + slacks[m]
        for m in range(1, 4):
            if diffs[m] <= slacks[m + 1]:
                continue  # at the enclosure floor; the ratio is vacuous
            assert diffs[m + 1] / diffs[m] <= eps + 0.05


# ---------------------------------------------------------------------------
# solve and forcing
# ---------------------------------------------------------------------------

class TestSolve:
    @staticmethod
    def _table_constants(cert):
        """(centre, radius) of every constant of the table and the
        certificate that the engine, the moduli and the depth choice read,
        as exact fractions."""
        ct = cert.constants
        bvs = [ct.M, cert.epsilon, cert.L,
               ct.M * ct.beta_value(F(3, 4), F(1, 4))]
        return {(b.center, b.radius) for b in bvs}

    @pytest.mark.parametrize("datum", ["exact", "readme"])
    def test_second_solve_converts_no_table_constant(self, datum,
                                                     monkeypatch):
        # the certificate keeps FloatBall views of its constants: after one
        # solve, a second solve on the same certificate converts none of
        # them again (the exact datum takes the small-time route, the README
        # datum the engine)
        if datum == "exact":
            c = TestIterate._exact_datum_cert()
            a = c.seed
        else:
            c, a = _cert(), EL
        first = nse.solve(a, None, c.T_frac, 8, cert=c)
        seen = []
        convert = FloatBall.from_bounded

        def counting(bv):
            seen.append((bv.center, bv.radius))
            return convert(bv)
        monkeypatch.setattr(FloatBall, "from_bounded", staticmethod(counting))
        second = nse.solve(a, None, c.T_frac, 8, cert=c)
        monkeypatch.undo()
        assert not set(seen) & self._table_constants(c)
        assert len(seen) <= 1      # the small-time route's T^(1/4) at most
        for f, g in zip(first, second):
            assert np.array_equal(f.grid.c, g.grid.c)
            assert np.array_equal(f.grid.r, g.grid.r)
            assert f.tail_l2.upper() == g.tail_l2.upper()

    def test_readme_solve_runs_one_cell(self, monkeypatch):
        # the README datum meets its budget on one time cell, and no
        # doubling: the cell's iterate is final from level 0, so one product
        # serves every level
        calls, lifts = [], []
        product, lift = nse.nonlinearity_pair, nse.smoothness_lift

        def counting(u1, u2):
            calls.append(u1.cutoff)
            return product(u1, u2)

        def recording(m, *args, **kwargs):
            lifts.append((m, lift(m, *args, **kwargs)))
            return lifts[-1][1]
        monkeypatch.setattr(nse, "nonlinearity_pair", counting)
        monkeypatch.setattr(nse, "smoothness_lift", recording)
        c = _cert()
        nse.solve(EL, None, c.T_frac, 8, cert=c)
        [(m, result)] = lifts
        assert result.panels == 1
        assert m > 1 and len(calls) == 1

    _WITNESS = {}

    @classmethod
    def _witness(cls, mode_cap):
        """The exact datum with stream function a sin pi x sin 2 pi y +
        b sin 2 pi x sin pi y, (a, b) = (5/64, -3/64), its exact
        coefficients and its certificate at ``mode_cap``."""
        if mode_cap not in cls._WITNESS:
            a, b = F(5, 64), F(-3, 64)
            named = {(0, 1, 2): 2 * a, (0, 2, 1): b,
                     (1, 1, 2): -a, (1, 2, 1): -2 * b}
            grids = [np.zeros((3, 3)), np.zeros((3, 3))]
            for (j, n, m), v in named.items():
                grids[j][n, m] = float(v)
            pair = (FourierField("sc", 2, BallGrid(grids[0])),
                    FourierField("cs", 2, BallGrid(grids[1])))
            cls._WITNESS[mode_cap] = (pair, named, nse.compute_horizon(
                pair, mode_cap=mode_cap))
        return cls._WITNESS[mode_cap]

    @pytest.mark.parametrize("mode_cap", [2, 12])
    @pytest.mark.parametrize("K", [8, 20])
    def test_exact_datum_enclosed(self, mode_cap, K):
        # u(t) = e^{-5 pi^2 t} u0; at K = 8 solve takes the small-time
        # route, whose tail 2^-10 bounds a move of the seed inside the
        # band, and at K = 20 the engine route: on both every norm holds
        # the true one, and every exact coefficient lies in its ball
        # widened by tail / sqrt(rho) = 2 tail
        pair, named, c = self._witness(mode_cap)
        T = c.T_frac
        u = nse.solve(pair, None, T, K, cert=c)
        with mp.workdps(40):
            decay = mp.exp(-5 * mp.pi ** 2 * T.numerator / T.denominator)
            for j, f in enumerate(u):
                sq = sum(v * v / 4 for (i, _, _), v in named.items() if i == j)
                norm = f.l2_norm_ball()
                true = mp.sqrt(mp.mpf(sq.numerator) / sq.denominator) * decay
                assert mp.mpf(norm.lower()) <= true <= mp.mpf(norm.upper())
                slack = 2 * mp.mpf(f.tail_l2.upper())
                for n in range(f.cutoff + 1):
                    for m in range(f.cutoff + 1):
                        if f.weights()[n, m] == 0:
                            continue
                        v = named.get((j, n, m), F(0))
                        exact = mp.mpf(v.numerator) / v.denominator * decay
                        assert abs(mp.mpf(f.grid.c[n, m]) - exact) <= \
                            mp.mpf(f.grid.r[n, m]) + slack

    def test_zero_data_zero_solution(self):
        z = (FourierField.zero("sc", 2), FourierField.zero("cs", 2))
        c = nse.compute_horizon(z)
        u = nse.solve(z, None, c.T_frac / 2, 8, cert=c)
        assert _pair_norm_upper(u) <= 2.0 ** -8

    def test_precision_self_consistency(self):
        c = _cert()
        t = c.T_frac / 2
        u6 = nse.solve(EL, None, t, 6, cert=c)
        u8 = nse.solve(EL, None, t, 8, cert=c)
        assert _center_diff(u6, u8) <= 2.0 ** -6 + 2.0 ** -8

    def test_agrees_with_semigroup_to_first_order(self):
        c = _cert()
        t = c.T_frac / 4
        u = nse.solve(EL, None, t, 8, cert=c)
        u0 = semigroup_apply(c.seed, t, 9)
        gap = _center_diff(u, u0)
        first_order = float(c.L.upper()) / (1 - float(c.epsilon.upper()))
        assert gap <= first_order + _pair_slack(u) + _pair_slack(u0) \
            + 2.0 ** -8

    def test_constant_forcing_m0_oracle(self):
        # with u frozen at m = 0 the forced iterate is the heat flow of the
        # datum plus the closed-form constant-forcing integral
        f1, f2 = _sol_mode(1, 1, 0.01, cutoff=2)
        forcing = nse.Forcing.constant(f1, f2)
        pair = tuple(nse._strip_tail(f) for f in mollified_field_pair(EL, 16))
        c = nse.compute_horizon(pair, mode_cap=12, forcing=forcing)
        t = c.T_frac
        u = nse.iterate(pair, c, 0, t, 8)
        lam = np.pi ** 2 * 2.0
        drive = 0.01 * (1 - math.exp(-float(t) * lam)) / lam
        seed = c.seed[0]._embedded(u[0].cutoff)
        expect = seed.grid.c.copy()
        n = np.arange(u[0].cutoff + 1, dtype=float)
        ng, mg = np.meshgrid(n, n, indexing="ij")
        expect *= np.exp(-float(t) * np.pi ** 2 * (ng * ng + mg * mg))
        expect[1, 1] += drive
        gap = np.abs(u[0]._embedded(u[0].cutoff).grid.c - expect)
        tol = u[0].grid.r.max() + u[0].tail_l2.upper() + 1e-10
        assert float(gap.max()) <= tol + 2.0 ** -8

    def test_forcing_must_be_the_certificates(self):
        # a forced certificate run without its forcing, and an unforced one
        # run with a forcing, are refused before any iteration
        forcing = _constant_forcing()
        pair = tuple(nse._strip_tail(f) for f in mollified_field_pair(EL, 16))
        forced = nse.compute_horizon(pair, mode_cap=12, forcing=forcing)
        free = nse.compute_horizon(pair, mode_cap=12)
        for f, c in ((None, forced), (forcing, free),
                     (_constant_forcing(), forced)):
            with pytest.raises(ValueError, match="forcing"):
                nse.solve(pair, f, c.T_frac, 8, cert=c)
        assert forced.forcing is forcing and free.forcing is None
        assert forced.forcing_sup == forcing.sup_l2 and free.forcing_sup == 0

    @pytest.mark.parametrize("bad", [-1e-3, -math.inf, math.inf, math.nan])
    def test_forcing_bound_must_be_finite_nonnegative(self, bad):
        # a negative bound would enlarge d = b - 2 T G and so the horizon
        with pytest.raises(ValueError, match="sup_l2"):
            nse.Forcing(lambda lo, hi: _sol_mode(1, 1), bad)

    def test_forcing_bound_accepts_zero_and_ints(self):
        assert nse.Forcing(lambda lo, hi: _sol_mode(1, 1), 0).sup_l2 == 0.0
        assert nse.Forcing(lambda lo, hi: _sol_mode(1, 1), 2).sup_l2 == 2.0

    def test_forcing_shrinks_horizon(self):
        f1, f2 = _sol_mode(1, 1, 0.5, cutoff=2)
        forcing = nse.Forcing.constant(f1, f2)
        pair = tuple(nse._strip_tail(f) for f in mollified_field_pair(EL, 16))
        free = nse.compute_horizon(pair, mode_cap=12)
        forced = nse.compute_horizon(pair, mode_cap=12, forcing=forcing)
        assert forced.T_frac <= free.T_frac


class TestOwners:
    """Each input of the Picard path is set in one place: the forcing and
    the constants on the certificate, the time-cell cap in `nse`; M is the
    only assumed constant, the product estimates read C_s from
    `spectral.sup_constant` rather than a table, and the lift keeps no
    Claim-II schedule."""

    @pytest.mark.parametrize("fn", [nse.solve, nse.iterate,
                                    nse.smoothness_lift, nse._Engine,
                                    nse.nonlinearity, spectral.multiply],
                             ids=lambda fn: fn.__name__)
    def test_no_second_owner(self, fn):
        params = inspect.signature(fn).parameters
        assert not {"forcing", "constants", "panel_cap"} & set(params)

    def test_lift_keeps_what_the_tracer_reads(self):
        # perfbench's tracer reads the depth m as the first argument and the
        # ladder's start as the keyword panels
        params = list(inspect.signature(nse.smoothness_lift).parameters)
        assert params[0] == "m" and "panels" in params

    def test_m_is_the_only_assumed_constant(self):
        params = inspect.signature(ConstantsTable.__init__).parameters
        assert list(params) == ["self", "M"]

    def test_lift_result_fields(self):
        # the tracer reads panels; hs65 and defect are the lift's H^{6/5}
        # certificate and engine defect
        names = tuple(f.name for f in dataclasses.fields(nse.LiftResult))
        assert names == ("u", "band", "hs65", "defect", "panels")

    def test_no_claim2_schedule(self):
        src = pathlib.Path(nse.__file__).resolve().parent
        offenders = ["%s: %s" % (path.name, word)
                     for path in sorted(src.glob("*.py"))
                     for word in ("claim2", "_CLAIM2")
                     if word in path.read_text()]
        assert not offenders, offenders


# ---------------------------------------------------------------------------
# pressure recovery
# ---------------------------------------------------------------------------

def _pressure_test_flow():
    a = _sol_mode(1, 2, 0.3, cutoff=3)
    b = _sol_mode(2, 1, -0.2, cutoff=3)
    return a[0] + b[0], a[1] + b[1]


class TestPressure:
    def test_zero_everything(self):
        u = (FourierField.zero("sc", 1), FourierField.zero("cs", 1))
        q = nse.PressureQuery((F(1, 2), F(1, 2)))
        p = nse.pressure(u, None, q, 8)
        assert p.lower() <= 0 <= p.upper()

    def test_path_independence(self):
        u = _pressure_test_flow()
        x = (F(1, 3), F(2, 5))
        q1 = nse.PressureQuery(x)
        q2 = nse.PressureQuery(x, path=((F(0), F(0)), (F(0), F(2, 5)),
                                        (F(1, 3), F(2, 5))))
        p1 = nse.pressure(u, None, q1, 8)
        p2 = nse.pressure(u, None, q2, 8)
        assert p1.lower() <= p2.upper() and p2.lower() <= p1.upper()

    def test_anchor_gauge(self):
        u = _pressure_test_flow()
        q = nse.PressureQuery((F(0), F(0)), path=((F(0), F(0)),))
        p = nse.pressure(u, None, q, 10)
        assert p.lower() <= 0 <= p.upper()

    def test_gradient_forcing_recovers_potential(self):
        # f = grad(cos pi x cos pi y); with u = 0 the pressure is the
        # potential rebased to vanish at the anchor
        g1 = BallGrid.zeros((2, 2))
        g2 = BallGrid.zeros((2, 2))
        g1.set((1, 1), FloatBall(-math.pi))
        g2.set((1, 1), FloatBall(-math.pi))
        fpair = (FourierField("sc", 1, g1), FourierField("cs", 1, g2))
        u = (FourierField.zero("sc", 1), FourierField.zero("cs", 1))
        x = (F(1, 4), F(1, 2))
        p = nse.pressure(u, fpair, nse.PressureQuery(x), 8)
        exact = math.cos(math.pi / 4) * math.cos(math.pi / 2) - 1.0
        assert p.lower() <= exact <= p.upper()
        assert float(p.upper() - p.lower()) <= 2.0 ** -7

    def test_gradient_consistency(self):
        u = _pressure_test_flow()
        h1, h2 = nse.pressure_field(u)
        x, y = F(3, 8), F(5, 13)
        d = F(1, 256)
        pp = nse.pressure(u, None, nse.PressureQuery((x + d, y)), 12)
        pm = nse.pressure(u, None, nse.PressureQuery((x - d, y)), 12)
        fd = float((pp - pm).upper()) / (2 * float(d))
        hv = eval_ball(h1, x, y)
        # second-order finite-difference error: |h1''| <= (pi cut)^2 sup|h1|
        curv = (math.pi * h1.cutoff) ** 2 * h1.sup_upper()
        tol = curv * float(d) ** 2 / 6 + float(hv.r) + 2.0 ** -9
        assert abs(fd - float(hv.c)) <= tol

    def test_tail_data_rejected(self):
        g = BallGrid.zeros((2, 2))
        g.set((1, 1), FloatBall(1.0))
        tail = FloatBall.from_endpoints(0.0, 0.25)
        u = (FourierField("sc", 1, g, tail), FourierField.zero("cs", 1))
        with pytest.raises(ValueError, match="insufficient smoothness"):
            nse.pressure_field(u)

    def test_budget_failure_raises(self):
        u = _pressure_test_flow()
        q = nse.PressureQuery((F(1, 3), F(2, 5)))
        with pytest.raises(nse.BudgetError):
            nse.pressure(u, None, q, 64)

    def test_query_validation(self):
        with pytest.raises(ValueError):
            nse.PressureQuery((F(3, 2), F(1, 2))).resolved_path()
        with pytest.raises(ValueError):
            nse.PressureQuery((F(1, 2), F(1, 2)),
                              path=((F(1, 4), F(0)),
                                    (F(1, 2), F(1, 2)))).resolved_path()
        with pytest.raises(ValueError):
            nse.PressureQuery((F(1, 2), F(1, 2)),
                              path=((F(0), F(0)),
                                    (F(1, 2), F(1, 2)))).resolved_path()
