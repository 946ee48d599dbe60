"""Acceptance gate: one test per criterion, each printing a single
pass/fail line with its measured margin.

Every criterion is executed at the stated tolerance.  The helper records
the verdict before asserting so that the line appears in the captured
output of failing tests as well.
"""

import math
import random
import time
from fractions import Fraction as F

from solenoid import cli
from solenoid import nse
from solenoid import polyfield as pf
from solenoid.approxcore import Name
from solenoid.floatball import BallGrid, FloatBall
from solenoid.helmholtz import divergence, project_pair
from solenoid.polyfield import (
    constraint_matrix, matrix_rank, solenoidal_kernel,
)
from solenoid.spectral import (FourierField, SobolevName,
                               mollified_field_pair)
from solenoid.stokes import frac_power_apply, semigroup_apply

from oracles import RefBall, contour_semigroup

EL = pf.mollify(pf.solenoidal_kernel(4)[0], 1, 2)


def _verdict(num, ok, detail):
    print("criterion %2d: %s  (%s)" % (num, "PASS" if ok else "FAIL",
                                       detail), flush=True)
    assert ok, "criterion %d: %s" % (num, detail)


def _mode_pair(n, m, c1, c2, cutoff=None):
    cut = cutoff or max(n, m)
    g1 = BallGrid.zeros((cut + 1, cut + 1))
    g2 = BallGrid.zeros((cut + 1, cut + 1))
    g1.set((n, m), FloatBall(float(c1)))
    g2.set((n, m), FloatBall(float(c2)))
    return FourierField("sc", cut, g1), FourierField("cs", cut, g2)


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
    return nse._pair_radius(p) + math.hypot(p[0].tail_l2.upper(),
                                            p[1].tail_l2.upper())


def _random_element(rng, small=False):
    basis = solenoidal_kernel(4)
    coeffs = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in basis]
    if all(c == 0 for c in coeffs):
        coeffs[0] = F(1, 2)
    acc = basis[0].scale(coeffs[0])
    for b, c in zip(basis[1:], coeffs[1:]):
        acc = acc + b.scale(c)
    if small:
        acc = acc.scale(F(1, 16))
    k = rng.choice((1, 2))
    return pf.mollify(acc, k, k + 1)


def test_criterion_01_exact_solenoidal_algebra():
    t0 = time.time()
    checked = 0
    for N in range(2, 9):
        kernel = solenoidal_kernel(N)
        for elem in kernel:
            assert elem.is_solenoidal()
            checked += 1
        rows = constraint_matrix(N)
        ncols = 2 * (N + 1) ** 2
        rank_alt = matrix_rank([r[::-1] for r in rows])
        assert len(kernel) == ncols - rank_alt
    elapsed = time.time() - t0
    _verdict(1, elapsed < 10.0,
             "%d basis elements exact, dims match alternate-order rank "
             "oracle, %.1fs" % (checked, elapsed))


def test_criterion_02_semigroup_contour_oracle():
    t0 = time.time()
    cases = 0
    for K in (12, 20):
        for t in (F(1, 64), F(1, 8), F(1, 2), F(1)):
            for n in range(1, 7):
                for m in range(1, 7):
                    a = FourierField.single_mode("sc", n, m)
                    out = contour_semigroup(a, t, K)
                    exact = math.exp(-float(t) * math.pi ** 2
                                     * (n * n + m * m))
                    ball = out.grid.at((n, m))
                    assert float(ball.c) - float(ball.r) <= exact \
                        <= float(ball.c) + float(ball.r), (n, m, t, K)
                    cases += 1
    elapsed = time.time() - t0
    _verdict(2, elapsed < 60.0,
             "%d mode/time/precision cases enclose the heat factor, "
             "%.1fs" % (cases, elapsed))


def test_criterion_03_semigroup_contractivity():
    rng = random.Random(3)
    K = 10
    worst = 0.0
    for _ in range(20):
        elem = _random_element(rng)
        pair = mollified_field_pair(elem, 8)
        in_norm = math.hypot(
            math.sqrt(max(pair[0].l2_sq_ball().upper(), 0.0)),
            math.sqrt(max(pair[1].l2_sq_ball().upper(), 0.0)))
        for _ in range(5):
            t = F(rng.randint(1, 64), 64)
            out = semigroup_apply(pair, t, K)
            out_norm = _pair_norm_upper(out)
            worst = max(worst, out_norm - in_norm)
            assert out_norm <= in_norm + 2.0 ** (-K + 1)
    _verdict(3, True, "100 applications, worst norm gain %.3g <= 2^-%d"
             % (worst, K - 1))


def test_criterion_04_helmholtz_suite():
    K = 12
    failures = []

    u = _mode_pair(2, 1, 1.5, -0.25)
    p = project_pair(*u)
    pp = project_pair(*p)
    if _center_diff(pp, p) + _pair_slack(pp) > 2 * 2.0 ** -K:
        failures.append("idempotence")

    grad = _mode_pair(2, 3, -2.0, -3.0)  # gradient of cos(2 pi x)cos(3 pi y)
    if _pair_norm_upper(project_pair(*grad)) > 2.0 ** -K:
        failures.append("gradient annihilation")

    p1, p2 = project_pair(*_mode_pair(3, 2, 0.8, 0.3))
    div = divergence(p1, p2)
    if not all(div.grid.at((n, m)).contains(F(0))
               for n in range(div.cutoff + 1)
               for m in range(div.cutoff + 1)):
        failures.append("divergence enclosure")

    # worked example (solenoid.helmholtz docstring): (0, cos pi x sin pi y)
    # has phi = sin pi x sin pi y / (2 pi) and so maps to
    # (-(1/2) sin pi x cos pi y, (1/2) cos pi x sin pi y)
    w1, w2 = project_pair(*_mode_pair(1, 1, 0.0, 1.0))
    tol = 2.0 ** -12
    if not (abs(float(w1.grid.at((1, 1)).c) + 0.5) <= tol
            and abs(float(w2.grid.at((1, 1)).c) - 0.5) <= tol):
        failures.append(
            "worked example: got (%+.4f, %+.4f), expected (-1/2, +1/2)"
            % (float(w1.grid.at((1, 1)).c), float(w2.grid.at((1, 1)).c)))

    _verdict(4, not failures,
             "all sub-checks within tolerance" if not failures
             else "; ".join(failures))


def test_criterion_05_fractional_powers():
    a = FourierField.single_mode("sc", 1, 1)
    half = frac_power_apply(a, F(1, 2))
    ball = half.grid.at((1, 1))
    exact = math.sqrt(2) * math.pi
    ok1 = float(ball.c) - float(ball.r) <= exact \
        <= float(ball.c) + float(ball.r)

    u = _mode_pair(2, 3, 0.7, -0.4)
    twice = tuple(frac_power_apply(f, F(1, 4)) for f in u)
    twice = tuple(frac_power_apply(f, F(1, 4)) for f in twice)
    once = tuple(frac_power_apply(f, F(1, 2)) for f in u)
    gap = _center_diff(twice, once)
    slack = _pair_slack(twice) + _pair_slack(once)
    ok2 = gap <= slack + 1e-12
    _verdict(5, ok1 and ok2,
             "(2 pi^2)^(1/2) enclosed; additivity gap %.3g <= %.3g"
             % (gap, slack))


def test_criterion_06_horizon_certificates():
    rng = random.Random(6)
    limit = 4 * (math.sqrt(2) - 1) / math.sqrt(2)
    eps_worst = 0.0
    for i in range(10):
        elem = _random_element(rng, small=True)
        cert = nse.compute_horizon(elem, mode_cap=12)
        eps = float(cert.epsilon.upper())
        eps_worst = max(eps_worst, eps)
        assert eps < 1
        # 1/(2 Ctilde), Ctilde = M B1 in the reference balls
        ct = cert.constants
        half_inv = (RefBall.exact(1) /
                    (RefBall.of(ct.M) * ct.B1).scale(2)).lower()
        assert cert.K_cap.upper() < half_inv
        w = F(1)
        for wm in cert.w_m:
            assert wm == w and float(wm) <= limit + 1e-12
            w = 1 + w * w / 8
    _verdict(6, True,
             "10 certificates contractive, worst epsilon %.6f < 1, "
             "w recursion bounded by %.4f" % (eps_worst, limit))


def test_criterion_07_claim4_decay():
    t0 = time.time()
    K = 8
    cert = nse.compute_horizon(EL, mode_cap=12)
    eps = float(cert.epsilon.upper())
    L = float(cert.L.upper())
    T = cert.T_frac
    worst_ratio = 0.0
    for t in (T, T / 2, T / 4):
        iterates = [nse.iterate(EL, cert, m, t, K) for m in range(7)]
        diffs, slacks = [], []
        for m in range(6):
            diffs.append(_center_diff(iterates[m], iterates[m + 1]))
            slacks.append(_pair_slack(iterates[m])
                          + _pair_slack(iterates[m + 1]))
        for m in range(1, 6):
            assert diffs[m] <= L * eps ** (m - 1) + slacks[m], (t, m)
        for m in range(1, 5):
            if diffs[m] <= slacks[m] or diffs[m] == 0.0:
                continue  # difference sits at the enclosure floor
            ratio = diffs[m + 1] / diffs[m]
            worst_ratio = max(worst_ratio, ratio)
            assert ratio <= eps + 0.05, (t, m, ratio)
    elapsed = time.time() - t0
    _verdict(7, elapsed < 600.0,
             "m=1..5 at three times, bound met, worst ratio %.3g <= "
             "%.3f, %.0fs" % (worst_ratio, eps + 0.05, elapsed))


def test_criterion_08_pressure_path_independence():
    rng = random.Random(8)
    a = _mode_pair(1, 2, 0.6, -0.3, cutoff=3)
    b = _mode_pair(1, 1, 0.25, -0.25, cutoff=3)
    u = (a[0] + b[0], a[1] + b[1])
    for _ in range(5):
        x = F(rng.randint(1, 15), 16)
        y = F(rng.randint(1, 15), 16)
        q1 = nse.PressureQuery((x, y))
        q2 = nse.PressureQuery((x, y), path=((F(0), F(0)), (F(0), y),
                                             (x, y)))
        p1 = nse.pressure(u, None, q1, 8)
        p2 = nse.pressure(u, None, q2, 8)
        assert p1.lower() <= p2.upper() and p2.lower() <= p1.upper(), (x, y)
    _verdict(8, True, "5 random interior points, both corner paths overlap")


def test_criterion_09_precision_self_consistency():
    rng = random.Random(9)
    checked = []
    for trial in range(3):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        u = _mode_pair(n, m, rng.uniform(-1, 1), rng.uniform(-1, 1),
                       cutoff=3)
        K = rng.choice((6, 8))
        budget = 2.0 ** -K + 2.0 ** -(K + 2)

        from solenoid.helmholtz import project
        pa, pb = project(u, K), project(u, K + 2)
        assert _center_diff(pa, pb) <= budget
        checked.append("project")

        t = F(rng.randint(1, 8), 64)
        sa = semigroup_apply(u, t, K)
        sb = semigroup_apply(u, t, K + 2)
        assert _center_diff(sa, sb) <= budget
        checked.append("semigroup")

        names = tuple(SobolevName(Name(lambda k, f=f: f), F(6, 5))
                      for f in u)
        na = nse.nonlinearity(names, K)
        nb = nse.nonlinearity(names, K + 2)
        assert _center_diff(na, nb) <= budget + _pair_slack(na) \
            + _pair_slack(nb)
        checked.append("nonlinearity")

    small = _mode_pair(1, 2, 0.02, -0.01, cutoff=2)
    cert = nse.compute_horizon(small)
    t = cert.T_frac / 2
    for K in (6, 8):
        ua = nse.solve(small, None, t, K, cert=cert)
        ub = nse.solve(small, None, t, K + 2, cert=cert)
        assert _center_diff(ua, ub) <= 2.0 ** -K + 2.0 ** -(K + 2)
        checked.append("solve")

    u = _mode_pair(1, 2, 0.6, -0.3, cutoff=2)
    q = nse.PressureQuery((F(1, 3), F(2, 5)))
    pa = nse.pressure(u, None, q, 8)
    pb = nse.pressure(u, None, q, 10)
    assert pa.lower() <= pb.upper() and pb.lower() <= pa.upper()
    assert float(pa.upper() - pb.lower()) <= 2.0 ** -8 + 2.0 ** -10
    checked.append("pressure")
    _verdict(9, True, "randomized sweep over %d operation instances"
             % len(checked))


def test_criterion_10_selftest_determinism(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["selftest", "--output", str(out1)]) == 0
    assert cli.main(["selftest", "--output", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    _verdict(10, identical, "two selftest runs byte-identical"
             if identical else "artifacts differ")
