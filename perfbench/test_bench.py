"""Tests of the benchmark's own references and checks.

    python3 -m pytest -q perfbench/test_bench.py

The references are checked against textbook values; every output check is
shown to pass on a true output and to reject a deliberately perturbed one.
"""

import math
import os
import sys
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import refs  # noqa: E402
from checks import CheckError, Field  # noqa: E402

# the degree-4 solenoidal kernel element (the README datum's polynomial)
KERNEL = {"N": 4,
          "a1": [["0", "1", "0", "-1", "0"], ["0"] * 5,
                 ["0", "-2", "0", "2", "0"], ["0"] * 5,
                 ["0", "1", "0", "-1", "0"]],
          "a2": [["0"] * 5, ["-1", "0", "2", "0", "-1"], ["0"] * 5,
                 ["1", "0", "-2", "0", "1"], ["0"] * 5]}


def close(a, b, tol=mpmath.mpf(10) ** -30):
    return abs(a - b) <= tol * max(1, abs(b))


# ---------------------------------------------------------------------------
# references against textbook values
# ---------------------------------------------------------------------------

class TestScalarReferences:
    def test_beta_closed_forms(self):
        with mpmath.workdps(refs.DPS):
            assert close(refs.beta_fn(F(3, 4), F(1, 4)),
                         mpmath.pi * mpmath.sqrt(2))
            assert close(refs.beta_fn(F(1, 2), F(1, 2)), mpmath.pi)
            assert close(refs.beta_fn(F(1), F(1)), mpmath.mpf(1))

    def test_ctilde_is_beta_quarter_quarter(self):
        with mpmath.workdps(refs.DPS):
            assert close(refs.ctilde(), refs.beta_fn(F(1, 4), F(1, 4)))
            assert close(refs.ctilde(), mpmath.beta(0.25, 0.25))
            # B(1/2, 1/4) < B(1/4, 1/4), so the max in C~ is B(1/4, 1/4)
            assert refs.beta_fn(F(1, 2), F(1, 4)) < refs.ctilde()

    def test_horizon_constants(self):
        with mpmath.workdps(refs.DPS):
            assert close(refs.contraction_epsilon(),
                         (mpmath.sqrt(2) - 1) / mpmath.sqrt(2))
            k_cap = (mpmath.sqrt(2) - 1) / (2 * mpmath.sqrt(2) * refs.ctilde())
            assert close(refs.contraction_epsilon(), 2 * refs.ctilde() * k_cap)
            assert close(refs.envelope_L(),
                         2 * k_cap * refs.beta_fn(F(3, 4), F(1, 4)))

    def test_mode_factors(self):
        with mpmath.workdps(refs.DPS):
            assert refs.heat_factor(0, 0, F(1, 3)) == 1
            assert close(refs.heat_factor(1, 1, F(1, 2)),
                         mpmath.exp(-mpmath.pi ** 2))
            assert close(refs.power_factor(1, 0, F(1, 2)), mpmath.pi)
            assert close(refs.power_factor(3, 4, F(1, 2)), 5 * mpmath.pi)

    def test_gradient_pressure(self):
        s = F(3)
        with mpmath.workdps(refs.DPS):
            assert refs.gradient_pressure(F(0), F(0), s) == 0
            assert close(refs.gradient_pressure(F(1, 2), F(1, 3), s),
                         -3 / mpmath.pi)


class TestExactReferences:
    def test_helmholtz_worked_example(self):
        # P(0, cos pi x sin pi y) = (-1/2 sin pi x cos pi y, 1/2 cos pi x sin pi y)
        a = [[F(0)] * 2 for _ in range(2)]
        b = [[F(0)] * 2 for _ in range(2)]
        b[1][1] = F(1)
        p1, p2 = refs.helmholtz_exact(a, b)
        assert (p1[1][1], p2[1][1]) == (F(-1, 2), F(1, 2))

    def test_helmholtz_idempotent_and_kills_gradients(self):
        rng = np.random.default_rng(1)
        a = [[F(int(v), 7) for v in row] for row in rng.integers(-9, 9, (5, 5))]
        b = [[F(int(v), 5) for v in row] for row in rng.integers(-9, 9, (5, 5))]
        p = refs.helmholtz_exact(a, b)
        assert refs.helmholtz_exact(*p) == p
        # grad cos(n pi x) cos(m pi y) = -pi (n s.c, m c.s)
        g1 = [[F(-n) for m in range(5)] for n in range(5)]
        g2 = [[F(-m) for m in range(5)] for n in range(5)]
        zero = [[F(0)] * 5 for _ in range(5)]
        assert refs.helmholtz_exact(g1, g2) == (zero, zero)

    def test_polynomial_divergence(self):
        a1 = [[F(v) for v in row] for row in KERNEL["a1"]]
        a2 = [[F(v) for v in row] for row in KERNEL["a2"]]
        assert refs.poly_divergence_free(a1, a2)
        a1[0][1] += 1
        assert not refs.poly_divergence_free(a1, a2)


class TestNumericReferences:
    def test_bump_mass(self):
        # int_0^1 exp(-1/(1-u)) du = E_2(1)
        x, w = np.polynomial.legendre.leggauss(400)
        u = (x + 1) / 2
        got = float(np.sum(refs._bump(u) * w / 2))
        assert abs(got - float(mpmath.expint(2, 1))) < 1e-13

    def test_mollifier_transform(self):
        ker = refs.mollifier_transform(3, 20)
        assert abs(ker[0, 0] - 1) < 1e-14
        assert np.allclose(ker, ker.T, atol=1e-15)
        assert np.abs(ker).max() <= 1 + 1e-14
        # brute-force 2-D midpoint rule on the support [-1, 1]^2
        g = (np.arange(2000) + 0.5) / 1000 - 1
        Z1, Z2 = np.meshgrid(g, g, indexing="ij")
        W = refs._bump(np.maximum(np.abs(Z1), np.abs(Z2)) ** 2)
        for n, m in ((1, 0), (3, 5), (17, 2)):
            val = (W * np.cos(n * np.pi * Z1 / 8)
                   * np.cos(m * np.pi * Z2 / 8)).sum() / W.sum()
            assert abs(val - ker[n, m]) < 1e-6

    def test_mollified_parseval(self):
        # the unmollified coefficients carry the exact L2 mass in the limit
        c1, c2, l2 = refs.trimmed_coefficients(KERNEL, 1, 96, nodes=160)
        kept = ((c1 ** 2 * refs.mode_weights("sc", 96)).sum()
                + (c2 ** 2 * refs.mode_weights("cs", 96)).sum())
        assert 0 <= l2 - kept < 1e-3 * l2

    def test_galerkin_exact_mode_mix(self):
        # the (1,2)+(2,1) stream function is a Laplacian eigenfunction: the
        # convection term projects to zero and the flow decays like e^{-5 pi^2 t}
        c1, c2 = np.zeros((12, 12)), np.zeros((12, 12))
        a, b = 0.3, -0.2
        c1[1, 2], c1[2, 1], c2[1, 2], c2[2, 1] = 2 * a, b, -a, -2 * b
        t = 0.01
        r1, r2, err = refs.galerkin_reference(c1, c2, t)
        decay = math.exp(-5 * math.pi ** 2 * t)
        assert np.abs(r1 - c1 * decay).max() < 1e-12
        assert np.abs(r2 - c2 * decay).max() < 1e-12
        assert err < 1e-12

    def test_galerkin_conserves_energy_in_convection(self):
        rng = np.random.default_rng(3)
        g = refs.Galerkin(10)
        a, b = g.project(rng.normal(size=(10, 10)), rng.normal(size=(10, 10)))
        a[9, :] = a[:, 9] = b[9, :] = b[:, 9] = 0   # keep the product resolved
        p, q = g.convection(a, b)
        energy = (p * a * g.w1).sum() + (q * b * g.w2).sum()
        assert abs(energy) < 1e-9 * max(1.0, np.abs(p).max())
        assert np.abs(p).max() > 0.1


# ---------------------------------------------------------------------------
# every check passes a true output and rejects a perturbed one
# ---------------------------------------------------------------------------

def _perturbed(f: Field, n=1, m=1, by=None) -> Field:
    c = f.c.copy()
    c[n, m] += by if by is not None else 10 * f.r[n, m] + 1e-9
    return Field(f.basis, c, f.r, f.tail)


@pytest.fixture(scope="module")
def solenoid_modules():
    from solenoid import helmholtz, nse, stokes
    from solenoid.floatball import BallGrid
    from solenoid.spectral import FourierField
    return helmholtz, nse, stokes, BallGrid, FourierField


def _pair(mods, c1, c2):
    BallGrid, FourierField = mods[3], mods[4]
    z = np.zeros_like(c1)
    return (FourierField("sc", c1.shape[0] - 1, BallGrid(c1, z)),
            FourierField("cs", c2.shape[0] - 1, BallGrid(c2, z)))


def _arrays():
    import random
    import workloads
    return workloads.random_pair_arrays(random.Random(5))


class TestChecksRejectPerturbations:
    def test_semigroup(self, solenoid_modules):
        import workloads
        arrays = _arrays()
        t = F(3, 16)
        out = solenoid_modules[2].semigroup_apply(
            _pair(solenoid_modules, *arrays), t, 12)
        check = workloads.modewise_check(
            arrays, lambda n, m: refs.heat_factor(n, m, t), "semigroup")
        good = (Field.of(out[0]), Field.of(out[1]))
        check(good)
        with pytest.raises(CheckError):
            check((good[0], _perturbed(good[1])))

    def test_fracpower(self, solenoid_modules):
        import workloads
        arrays = _arrays()
        out = solenoid_modules[2].frac_power_apply(
            _pair(solenoid_modules, *arrays), F(3, 5))
        check = workloads.modewise_check(
            arrays, lambda n, m: refs.power_factor(n, m, F(3, 5)), "fracpower")
        good = (Field.of(out[0]), Field.of(out[1]))
        check(good)
        with pytest.raises(CheckError):
            check((_perturbed(good[0], 2, 1), good[1]))

    def test_projection(self, solenoid_modules):
        import workloads
        arrays = _arrays()
        out = solenoid_modules[0].project(_pair(solenoid_modules, *arrays), 8)
        check = workloads.projection_check(arrays)
        good = (Field.of(out[0]), Field.of(out[1]))
        check(good)
        with pytest.raises(CheckError):
            check((good[0], _perturbed(good[1], 2, 2)))
        # a dropped mode must be paid for by the tail
        cut = Field(good[0].basis, good[0].c[:2, :2], good[0].r[:2, :2],
                    good[0].tail)
        with pytest.raises(CheckError):
            check((cut, good[1]))

    def test_pressure_paths_and_gradient(self, solenoid_modules):
        _, nse, _, _, _ = solenoid_modules
        pair = _pair(solenoid_modules, *_arrays())
        x = (F(1, 3), F(2, 7))
        p1 = nse.pressure(pair, None, nse.PressureQuery(x), 8)
        p2 = nse.pressure(pair, None, nse.PressureQuery(
            x, path=((0, 0), (0, x[1]), x)), 8)
        iv1, iv2 = (p1.lower(), p1.upper()), (p2.lower(), p2.upper())
        checks.check_overlap(iv1, iv2, "paths")
        with pytest.raises(CheckError):
            checks.check_overlap(iv1, (iv2[0] + 1, iv2[1] + 1), "paths")
        s = float(np.pi)
        g = np.zeros((2, 2))
        g[1, 1] = -s
        zero = _pair(solenoid_modules, np.zeros((2, 2)), np.zeros((2, 2)))
        p = nse.pressure(zero, _pair(solenoid_modules, g, g.copy()),
                         nse.PressureQuery(x), 8)
        want = refs.gradient_pressure(x[0], x[1], F(s))
        checks.check_contains((p.lower(), p.upper()), want, "gradient")
        with pytest.raises(CheckError):
            checks.check_contains((p.lower() + F(1, 10 ** 6),
                                   p.upper() + F(1, 10 ** 6)), want, "gradient")

    def test_horizon(self):
        eps, L = refs.contraction_epsilon(), refs.envelope_L()

        def around(v, r=F(1, 10 ** 20)):
            q = F(mpmath.nstr(v, 35))
            return q - r, q + r
        checks.check_horizon(around(eps), around(L), True)
        with pytest.raises(CheckError):
            checks.check_horizon(around(eps * (1 + mpmath.mpf(10) ** -12)),
                                 around(L), True)
        with pytest.raises(CheckError):
            checks.check_horizon(around(eps), around(L * 2), True)
        with pytest.raises(CheckError):
            checks.check_horizon(around(eps), around(L), False)

    def test_solve_radius_and_centre(self):
        c1, c2, _ = refs.mollified_coefficients(KERNEL, 1, 2, 32)
        r = np.full((17, 17), 1e-6)
        pair = (Field("sc", c1[:17, :17].copy(), r, F(0)),
                Field("cs", c2[:17, :17].copy(), r, F(0)))
        checks.check_solve_radius(pair)
        checks.check_centre(pair, c1, c2, 0.0, "solve")
        with pytest.raises(CheckError):
            checks.check_solve_radius((pair[0], Field("cs", pair[1].c, r,
                                                      F(1, 200))))
        with pytest.raises(CheckError):
            checks.check_centre((_perturbed(pair[0], 3, 4, 0.02), pair[1]),
                                c1, c2, 0.0, "solve")

    def test_exact_solution(self):
        coeffs = {(0, 1, 2): F(1, 8), (0, 2, 1): F(-1, 16),
                  (1, 1, 2): F(-1, 16), (1, 2, 1): F(1, 8)}
        decay = refs.heat_factor(1, 2, F(1, 1024))
        grids = [np.zeros((3, 3)), np.zeros((3, 3))]
        for (j, n, m), v in coeffs.items():
            grids[j][n, m] = float(decay * float(v))
        r = np.full((3, 3), 1e-12)
        pair = (Field("sc", grids[0], r, F(0)), Field("cs", grids[1], r, F(0)))
        checks.check_exact_solution(pair, coeffs, decay)
        bad = _perturbed(pair[1], 2, 1, 1e-6)
        with pytest.raises(CheckError):
            checks.check_exact_solution((pair[0], bad), coeffs, decay)
        # the same miss is allowed once the output's tail covers it
        covered = Field(bad.basis, bad.c, bad.r, F(1, 10 ** 5))
        checks.check_exact_solution((pair[0], covered), coeffs, decay)

    def test_basis(self):
        payload = {"elements": [KERNEL, KERNEL]}
        checks.check_basis(payload, 2)
        with pytest.raises(CheckError):
            checks.check_basis(payload, 3)
        bad = {"N": 4, "a1": [row[:] for row in KERNEL["a1"]],
               "a2": KERNEL["a2"]}
        bad["a1"][2][1] = "-1"
        with pytest.raises(CheckError):
            checks.check_basis({"elements": [bad]}, 1)


class TestClock:
    def test_bursts_run_inside_a_long_call_and_are_taken_out(self):
        import signal
        import time

        import clock
        before = signal.getsignal(signal.SIGALRM)
        clk = clock.Clock()
        seen = {}

        def call():
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 2.5:
                sum(i * i for i in range(1000))
            seen["wall"] = time.perf_counter() - t0
            return 7

        value, error, work, scaled = clk.timed(call)
        assert value == 7 and error is None
        # the bursts ran inside the call and their time is not the call's
        assert 0 < work < seen["wall"]
        assert scaled > 0
        assert signal.getsignal(signal.SIGALRM) == before
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_child_bursts_are_read_from_their_file(self, tmp_path):
        import clock
        path = str(tmp_path / "bursts.json")
        sampler = clock.Sampler()
        with sampler:
            clock._window(0.3)
        sampler.save(path)
        assert clock.load_bursts(path) == (sampler.spent, sampler.runs)
        assert sampler.runs > 0
        assert clock.load_bursts(str(tmp_path / "missing.json")) == (0.0, 0)

    def test_failed_call_is_timed_and_returned(self):
        import clock

        def fail():
            raise ValueError("boom")

        value, error, work, scaled = clock.Clock().timed(fail)
        assert value is None and isinstance(error, ValueError)
        assert work >= 0 and scaled >= 0
