"""Independent references for the benchmark's output checks.

Nothing in this module imports ``solenoid``.  Every value is computed from
the mathematics directly: mpmath for heat factors, operator powers and the
Gamma-function constants, exact fractions for the Helmholtz mode factors and
the divergence of polynomial pairs, and plain numpy for the (non-rigorous)
Galerkin reference of the Navier-Stokes flow and the Fourier data of
mollified polynomial fields.

Conventions (those of the paper's setting): on the unit square a velocity
pair carries component 1 in the sin.cos basis and component 2 in cos.sin,
and the Stokes operator acts on mode (n, m) by lam = pi^2 (n^2 + m^2).
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

DPS = 40


# ---------------------------------------------------------------------------
# scalar constants and mode factors (mpmath)
# ---------------------------------------------------------------------------

def heat_factor(n: int, m: int, t: Fraction):
    """e^{-pi^2 (n^2 + m^2) t} as an mpf at DPS digits."""
    with mpmath.workdps(DPS):
        return mpmath.exp(-mpmath.pi ** 2 * (n * n + m * m)
                          * mpmath.mpf(t.numerator) / t.denominator)


def power_factor(n: int, m: int, alpha: Fraction):
    """(pi^2 (n^2 + m^2))^alpha as an mpf at DPS digits."""
    with mpmath.workdps(DPS):
        a = mpmath.mpf(alpha.numerator) / alpha.denominator
        return (mpmath.pi ** 2 * (n * n + m * m)) ** a


def beta_fn(x: Fraction, y: Fraction):
    """Euler's Beta function Gamma(x) Gamma(y) / Gamma(x + y)."""
    with mpmath.workdps(DPS):
        fx = mpmath.mpf(x.numerator) / x.denominator
        fy = mpmath.mpf(y.numerator) / y.denominator
        return mpmath.gamma(fx) * mpmath.gamma(fy) / mpmath.gamma(fx + fy)


def ctilde():
    """C~ = max{B(1/2,1/4), B(1/4,1/4), 1} = B(1/4,1/4) = Gamma(1/4)^2/sqrt(pi)
    (with the unit constants C_alpha = M = 1)."""
    with mpmath.workdps(DPS):
        return mpmath.gamma(mpmath.mpf(1) / 4) ** 2 / mpmath.sqrt(mpmath.pi)


def contraction_epsilon():
    """epsilon = 2 C~ K_cap with K_cap = (sqrt2 - 1)/(2 sqrt2 C~), i.e.
    1 - 1/sqrt(2), independent of the datum."""
    with mpmath.workdps(DPS):
        return 1 - 1 / mpmath.sqrt(2)


def envelope_L():
    """L = 2 K_cap C_{1/4} B(3/4, 1/4) = pi (sqrt2 - 1) / C~, using
    B(3/4, 1/4) = pi / sin(pi/4) = pi sqrt(2)."""
    with mpmath.workdps(DPS):
        return mpmath.pi * (mpmath.sqrt(2) - 1) / ctilde()


def gradient_pressure(x: Fraction, y: Fraction, scale: Fraction):
    """Pressure of the pure-gradient forcing f = scale/pi * grad(cos pi x
    cos pi y) gauged to vanish at the origin: (scale/pi)(cos pi x cos pi y - 1).
    ``scale`` is the exact float value used for pi in the forcing."""
    with mpmath.workdps(DPS):
        px = mpmath.pi * mpmath.mpf(x.numerator) / x.denominator
        py = mpmath.pi * mpmath.mpf(y.numerator) / y.denominator
        s = mpmath.mpf(scale.numerator) / scale.denominator
        return s / mpmath.pi * (mpmath.cos(px) * mpmath.cos(py) - 1)


# ---------------------------------------------------------------------------
# exact Helmholtz factors and polynomial divergence (fractions)
# ---------------------------------------------------------------------------

def helmholtz_exact(a, b):
    """Exact projection of a (sin.cos, cos.sin) coefficient pair.

    ``a`` and ``b`` are square lists of Fractions indexed [n][m].  With
    phi_{nm} = (n b - m a)/((n^2 + m^2) pi) the projected pair is
    ((m^2 a - n m b)/(n^2+m^2), (n^2 b - n m a)/(n^2+m^2)) for n, m >= 1;
    modes with n = 0 or m = 0 are gradients and project to zero.
    """
    size = len(a)
    p1 = [[Fraction(0)] * size for _ in range(size)]
    p2 = [[Fraction(0)] * size for _ in range(size)]
    for n in range(1, size):
        for m in range(1, size):
            d = n * n + m * m
            p1[n][m] = (m * m * a[n][m] - n * m * b[n][m]) / d
            p2[n][m] = (n * n * b[n][m] - n * m * a[n][m]) / d
    return p1, p2


def poly_divergence_free(a1, a2) -> bool:
    """Exact test that p1 = sum a1[i][j] x^i y^j and p2 likewise have
    d/dx p1 + d/dy p2 = 0 and vanishing normal trace on the square
    (-1, 1)^2: p1(+-1, y) = 0 and p2(x, +-1) = 0."""
    n = len(a1)
    for i in range(n):
        for j in range(n):
            dx = (i + 1) * a1[i + 1][j] if i + 1 < n else 0
            dy = (j + 1) * a2[i][j + 1] if j + 1 < n else 0
            if dx + dy != 0:
                return False
    for s in (1, -1):
        for j in range(n):
            if sum(a1[i][j] * s ** i for i in range(n)) != 0:
                return False
        for i in range(n):
            if sum(a2[i][j] * s ** j for j in range(n)) != 0:
                return False
    return True


# ---------------------------------------------------------------------------
# L2 geometry of the mixed bases
# ---------------------------------------------------------------------------

def mode_weights(basis: str, size: int) -> np.ndarray:
    """int_0^1 trig^2: 1/2 for n >= 1, 1 for cos(0), 0 for sin(0)."""
    def axis(ch):
        w = np.full(size, 0.5)
        w[0] = 1.0 if ch == "c" else 0.0
        return w
    return np.outer(axis(basis[0]), axis(basis[1]))


def embed(c: np.ndarray, size: int) -> np.ndarray:
    out = np.zeros((size, size))
    k = min(size, c.shape[0])
    out[:k, :k] = c[:k, :k]
    return out


# ---------------------------------------------------------------------------
# Fourier data of a mollified trimmed polynomial (numpy quadrature)
# ---------------------------------------------------------------------------

def _bump(u):
    """W(u) = exp(-1/(1-u)) on [0, 1), 0 at u = 1."""
    out = np.zeros_like(u)
    inside = u < 1
    out[inside] = np.exp(-1.0 / (1.0 - u[inside]))
    return out


def mollifier_transform(scale_bits: int, size: int, nodes: int = 400):
    """C[n, m] = int gamma(z) cos(n pi z1) cos(m pi z2) dz for the unit-mass
    kernel gamma(z) ~ W(max(|z1|,|z2|)^2) of support [-d, d]^2, d = 2^-bits.

    On the triangle |z2| <= z1 the kernel depends on z1 only, so each entry
    is a 1-D integral of W(r^2) against cos(a r) sin(b r)/b (b -> r when
    b = 0), summed over both triangles; Gauss-Legendre on [0, 1] converges
    fast because W is smooth and flat at r = 1.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    r = (x + 1) / 2
    w = w / 2
    wr = _bump(r * r) * w
    d = 2.0 ** -scale_bits
    k = np.arange(size) * math.pi * d
    cos_kr = np.cos(np.outer(k, r))                       # [n, node]
    sinc = np.empty_like(cos_kr)                          # sin(b r)/b
    sinc[0] = r
    sinc[1:] = np.sin(np.outer(k[1:], r)) / k[1:, None]
    tri = (cos_kr * wr) @ sinc.T                          # int W cos(a r) sin(b r)/b
    mass = 8.0 * float(np.sum(wr * r))                    # 4 triangles x 2
    return 4.0 * (tri + tri.T) / mass


def _poly_values(a, z1, z2):
    """sum a[i][j] z1^i z2^j on the tensor grid z1 x z2."""
    coef = np.array([[float(Fraction(v)) for v in row] for row in a])
    v1 = np.vander(z1, coef.shape[0], increasing=True)
    v2 = np.vander(z2, coef.shape[1], increasing=True)
    return v1 @ coef @ v2.T


def trimmed_coefficients(base_json: dict, k: int, size: int,
                         nodes: int = 96):
    """Sin.cos / cos.sin coefficients on the unit square of Trim_k(p), the
    polynomial pair p (``a1``, ``a2`` of a SolenoidalPolyPair artifact,
    given on (-1, 1)^2) rescaled to |z|_inf <= beta = 1 - 2^-k and cut to
    zero outside, pulled back by z = 2x - 1.  Gauss-Legendre on the box is
    exact for the polynomial part.  Returns (c1, c2, l2_sq) with l2_sq the
    field's exact L2 mass on the unit square."""
    beta = 1 - 2.0 ** -k
    lo, hi = (1 - beta) / 2, (1 + beta) / 2
    x, w = np.polynomial.legendre.leggauss(nodes)
    xs = lo + (hi - lo) * (x + 1) / 2
    ws = w * (hi - lo) / 2
    z = (2 * xs - 1) / beta
    p1 = _poly_values(base_json["a1"], z, z)
    p2 = _poly_values(base_json["a2"], z, z)
    idx = np.arange(size) * math.pi
    S = np.sin(np.outer(idx, xs)) * ws                    # [n, node]
    C = np.cos(np.outer(idx, xs)) * ws
    w1, w2 = mode_weights("sc", size), mode_weights("cs", size)
    with np.errstate(divide="ignore", invalid="ignore"):
        c1 = np.where(w1 > 0, (S @ p1 @ C.T) / w1, 0.0)
        c2 = np.where(w2 > 0, (C @ p2 @ S.T) / w2, 0.0)
    return c1, c2, float(ws @ (p1 * p1 + p2 * p2) @ ws)


def mollified_coefficients(base_json: dict, k: int, n: int, size: int):
    """Coefficients of gamma_n * Trim_k(p) on the unit square, the README's
    mollified element.  In the unit-square variable the kernel has
    half-width 2^-(n+1); the trimmed field keeps that far from the edge, so
    the convolution multiplies each mode by the kernel transform.  Returns
    (c1, c2, tail): ``tail`` estimates the L2 mass beyond the band as the
    unmollified defect (exact mass minus retained Parseval sum) times the
    largest kernel transform outside the band."""
    c1, c2, l2_sq = trimmed_coefficients(base_json, k, size)
    kept = float((c1 ** 2 * mode_weights("sc", size)).sum()
                 + (c2 ** 2 * mode_weights("cs", size)).sum())
    ker = mollifier_transform(n + 1, 4 * size)
    outside = np.ones_like(ker, dtype=bool)
    outside[:size, :size] = False
    tail = math.sqrt(max(l2_sq - kept, 0.0)) * float(np.abs(ker[outside]).max())
    ker = ker[:size, :size]
    return c1 * ker, c2 * ker, tail


# ---------------------------------------------------------------------------
# Galerkin reference for the Navier-Stokes flow (non-rigorous, numpy)
# ---------------------------------------------------------------------------

class Galerkin:
    """Mode-truncated Navier-Stokes on the unit square,
    du/dt = -A u - P (u.grad) u, with the convection term computed
    pseudo-spectrally on a midpoint grid that resolves the products exactly,
    and integrating-factor RK4 in time."""

    def __init__(self, size: int):
        self.size = size
        grid = 2 * size + 2
        xs = (np.arange(grid) + 0.5) / grid
        k = np.arange(size) * math.pi
        self.S = np.sin(np.outer(k, xs))
        self.C = np.cos(np.outer(k, xs))
        self.kS = self.S * k[:, None]
        self.kC = self.C * k[:, None]
        self.grid = grid
        n = np.arange(size, dtype=float)
        self.lam = math.pi ** 2 * (n[:, None] ** 2 + n[None, :] ** 2)
        self.w1 = mode_weights("sc", size)
        self.w2 = mode_weights("cs", size)
        nn, mm = np.meshgrid(n, n, indexing="ij")
        den = nn ** 2 + mm ** 2
        den[0, 0] = 1.0
        live = (nn >= 1) & (mm >= 1)
        self.f_mm = np.where(live, mm ** 2 / den, 0.0)
        self.f_nn = np.where(live, nn ** 2 / den, 0.0)
        self.f_nm = np.where(live, nn * mm / den, 0.0)

    def convection(self, a, b):
        """P (u.grad) u in coefficient space."""
        S, C, kS, kC = self.S, self.C, self.kS, self.kC
        u1 = S.T @ a @ C
        u2 = C.T @ b @ S
        u1x = kC.T @ a @ C
        u1y = -(S.T @ a @ kS)
        u2x = -(kS.T @ b @ S)
        u2y = C.T @ b @ kC
        g1 = u1 * u1x + u2 * u1y
        g2 = u1 * u2x + u2 * u2y
        g = self.grid ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            c1 = np.where(self.w1 > 0, (S @ g1 @ C.T) / (g * self.w1), 0.0)
            c2 = np.where(self.w2 > 0, (C @ g2 @ S.T) / (g * self.w2), 0.0)
        return (self.f_mm * c1 - self.f_nm * c2,
                self.f_nn * c2 - self.f_nm * c1)

    def project(self, a, b):
        """Helmholtz projection of a coefficient pair (the datum's is
        divergence-free already; this only removes quadrature noise)."""
        return (self.f_mm * a - self.f_nm * b, self.f_nn * b - self.f_nm * a)

    def evolve(self, a, b, t: float, steps: int):
        a = embed(a, self.size)
        b = embed(b, self.size)
        h = t / steps
        e_half = np.exp(-self.lam * h / 2)
        e_full = e_half * e_half

        def rhs(x, y):
            p, q = self.convection(x, y)
            return -p, -q

        for _ in range(steps):
            k1 = rhs(a, b)
            k2 = rhs(e_half * (a + h / 2 * k1[0]), e_half * (b + h / 2 * k1[1]))
            k3 = rhs(e_half * a + h / 2 * k2[0], e_half * b + h / 2 * k2[1])
            k4 = rhs(e_full * a + h * e_half * k3[0],
                     e_full * b + h * e_half * k3[1])
            a = e_full * a + h / 6 * (e_full * k1[0] + 2 * e_half * (k2[0] + k3[0])
                                      + k4[0])
            b = e_full * b + h / 6 * (e_full * k1[1] + 2 * e_half * (k2[1] + k3[1])
                                      + k4[1])
        return a, b

    def l2(self, a, b) -> float:
        return math.sqrt(float((a * a * self.w1).sum() + (b * b * self.w2).sum()))


def galerkin_reference(c1, c2, t: float, steps: int = 16):
    """Galerkin/RK solution at time t from coefficient data (c1, c2) on
    the full band of the data, and its stated error: the change against a
    run on two thirds of the band with half the steps.  The datum's own
    truncation tail is the caller's to add."""
    fine = Galerkin(c1.shape[0])
    coarse = Galerkin(2 * c1.shape[0] // 3)
    a, b = fine.project(c1, c2)
    a, b = fine.evolve(a, b, t, 2 * steps)
    ac, bc = coarse.evolve(*coarse.project(embed(c1, coarse.size),
                                           embed(c2, coarse.size)), t, steps)
    err = fine.l2(a - embed(ac, fine.size), b - embed(bc, fine.size))
    return a, b, err
