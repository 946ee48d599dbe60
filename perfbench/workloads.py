"""The three workloads.  Each one has a set-up and a round: a fixed list of
operations whose inputs come from the round's seeded generator.  An
operation is timed alone; its check runs after the clock stops.

* ``solve``    in-process: warm contraction horizon of the README datum,
               horizon and mild solution of a seeded mollified datum and of
               a seeded exact datum.
* ``queries``  in-process, warm: semigroup, pressure (both corner paths),
               fractional powers and projection on small random pairs.
* ``cold-cli`` one fresh interpreter running the CLI per operation.

Every workload takes a scratch directory for its input artifacts and the
burst and span files of the processes it starts.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

import checks
import refs
from checks import Field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

K_SOLVE = 8           # solve precision: budget 2^-8
MODE_CAP = 12         # seed band of the horizon and solve operations
K_SEMIGROUP = 12
K_SMALL = 8           # pressure and projection precision
ALPHAS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 5))
IMPORT_PROBES = 7     # fresh interpreters per start-up measurement
# passes of the light CLI commands per cold-cli round: (cutoff of the input
# pairs, basis count, fractional power); the j-th command of every pass is
# one slot
LIGHT_PASSES = ((4, 6, Fraction(1, 4)), (8, 12, Fraction(3, 5)))
CLI_TIMEOUT = 150


class OpFailed(RuntimeError):
    """The program reported a failure (exception or non-zero exit)."""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    bursts: Optional[str] = None   # burst file of the child process it runs
    slot: Optional[str] = None     # timed with the ops of the same slot name


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def child_command(mode: str, path: str):
    """A fresh interpreter that runs cli_child.py (``--clock`` or
    ``--spans``, saving to ``path``); the CLI arguments follow."""
    return [sys.executable, os.path.join(HERE, "cli_child.py"), mode, path]


def fresh_import_seconds(clk, scratch: str):
    """Median (wall, scaled) time of a fresh interpreter that imports
    solenoid.cli: interpreter start-up plus every module's import."""
    walls, scaled = [], []
    for i in range(IMPORT_PROBES):
        path = os.path.join(scratch, "import-%d.json" % i)
        _, error, wall, scale = clk.timed(lambda: subprocess.run(
            child_command("--clock", path), env=child_env(), check=True,
            timeout=CLI_TIMEOUT), path)
        if error is not None:
            raise error
        walls.append(wall)
        scaled.append(scale)
    return statistics.median(walls), statistics.median(scaled)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def random_grid(rng, basis: str, cutoff: int) -> np.ndarray:
    """Coefficients k/64 / (1 + n^2 + m^2), k uniform in -64..64, on the
    live modes, decaying like a smooth field.  The checks take each float
    as the exact rational it is."""
    w = refs.mode_weights(basis, cutoff + 1)
    c = np.zeros((cutoff + 1, cutoff + 1))
    for n in range(cutoff + 1):
        for m in range(cutoff + 1):
            if w[n, m]:
                c[n, m] = rng.randint(-64, 64) / 64 / (1 + n * n + m * m)
    return c


def random_pair_arrays(rng, cutoff=None):
    """A random (sin.cos, cos.sin) pair; the cutoff is drawn from 2..8
    unless given."""
    if cutoff is None:
        cutoff = rng.randint(2, 8)
    return random_grid(rng, "sc", cutoff), random_grid(rng, "cs", cutoff)


def random_point(rng):
    def coord():
        q = rng.randint(2, 12)
        return Fraction(rng.randint(1, q - 1), q)
    return coord(), coord()


def field_json(basis: str, c: np.ndarray) -> dict:
    zeros = [["0"] * c.shape[1] for _ in range(c.shape[0])]
    return {"basis": basis, "cutoff": c.shape[0] - 1,
            "re": [[str(Fraction(float(v))) for v in row] for row in c],
            "im": zeros, "rad": zeros, "tail_l2": "0"}


def pair_json(c1, c2) -> dict:
    return {"schema": "solenoid/1", "kind": "pair",
            "u1": field_json("sc", c1), "u2": field_json("cs", c2)}


def as_fields(c1, c2):
    z = Fraction(0)
    return (Field("sc", c1, np.zeros_like(c1), z),
            Field("cs", c2, np.zeros_like(c2), z))


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

class SolveWorkload:
    """Warm horizon + solve on mollified and exact datums."""

    def __init__(self, scratch: str, traced: bool):
        pass

    def setup(self, clk):
        """Import, then one horizon per mollifier scale the datums use (all
        have n = 2): this fills the datum-independent constants."""
        def fill():
            from solenoid import nse
            from solenoid import polyfield as pf
            self.nse, self.pf = nse, pf
            self.readme = pf.mollify(pf.solenoidal_kernel(4)[0], 1, 2)
            nse.compute_horizon(self.readme, mode_cap=MODE_CAP)
        _, error, wall, scaled = clk.timed(fill)
        if error is not None:
            raise error
        return wall, scaled

    def seeded_element(self, rng):
        """The degree-4 kernel (a single element) times a seeded rational
        c in [1/2, 2], trimmed at k = 1 and mollified at n = 2.  Data of
        this size take the engine route at T_a like the README datum; data
        16 times smaller switch between the engine (~15 s) and the
        small-time modulus (~1 ms) from one scale to the next."""
        c = Fraction(rng.choice((-1, 1)) * rng.randint(8, 32), 16)
        return self.pf.mollify(self.pf.solenoidal_kernel(4)[0].scale(c), 1, 2)

    def exact_datum(self, rng):
        """u0 = (2a s1c2 + b s2c1, -a c1s2 - 2b c2s1): stream function
        a sin pi x sin 2 pi y + b sin 2 pi x sin pi y, an eigenfunction of
        the Laplacian, so the flow is e^{-5 pi^2 t} u0."""
        from solenoid.floatball import BallGrid
        from solenoid.spectral import FourierField
        a = Fraction(rng.choice((-1, 1)) * rng.randint(1, 8), 64)
        b = Fraction(rng.choice((-1, 1)) * rng.randint(1, 8), 64)
        coeffs = {(0, 1, 2): 2 * a, (0, 2, 1): b,
                  (1, 1, 2): -a, (1, 2, 1): -2 * b}
        grids = [np.zeros((3, 3)), np.zeros((3, 3))]
        for (j, n, m), v in coeffs.items():
            grids[j][n, m] = float(v)
        pair = (FourierField("sc", 2, BallGrid(grids[0], np.zeros((3, 3)))),
                FourierField("cs", 2, BallGrid(grids[1], np.zeros((3, 3)))))
        return pair, coeffs

    def round_ops(self, rng, index):
        """Warm horizon of the README datum, then horizon and solve of a
        seeded mollified datum and of a seeded exact datum."""
        nse = self.nse
        elem = self.seeded_element(rng)
        exact_pair, exact_coeffs = self.exact_datum(rng)
        return ([Op("horizon",
                    lambda: nse.compute_horizon(self.readme, mode_cap=MODE_CAP),
                    check_cert)]
                + self._pair_ops(elem, self._mollified_check(elem))
                + self._pair_ops(exact_pair, self._exact_check(exact_coeffs)))

    def _pair_ops(self, datum, solve_check):
        nse = self.nse
        state = {}

        def horizon():
            state["cert"] = nse.compute_horizon(datum, mode_cap=MODE_CAP)
            return state["cert"]

        def solve():
            cert = state["cert"]
            return cert.T_frac, nse.solve(datum, None, cert.T_frac, K_SOLVE,
                                          cert=cert)

        return [Op("horizon", horizon, check_cert),
                Op("solve", solve, solve_check)]

    @staticmethod
    def _mollified_check(elem):
        def check(out):
            t, u = out
            pair = (Field.of(u[0]), Field.of(u[1]))
            checks.check_solve_radius(pair)
            base = elem.base.to_json()
            c1, c2, tail = refs.mollified_coefficients(base, elem.k, elem.n,
                                                       48)
            r1, r2, err = refs.galerkin_reference(c1, c2, float(t))
            checks.check_centre(pair, r1, r2, err + tail, "solve")
        return check

    @staticmethod
    def _exact_check(coeffs):
        def check(out):
            t, u = out
            pair = (Field.of(u[0]), Field.of(u[1]))
            checks.check_solve_radius(pair)
            checks.check_exact_solution(pair, coeffs,
                                        refs.heat_factor(1, 2, Fraction(t)))
        return check


def check_cert(cert):
    checks.check_horizon((cert.epsilon.lower(), cert.epsilon.upper()),
                         (cert.L.lower(), cert.L.upper()),
                         cert.epsilon.upper() < 1)


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

class QueriesWorkload:
    """A stream of small warm requests on random band-limited pairs."""

    def __init__(self, scratch: str, traced: bool):
        self.scratch = scratch

    def setup(self, clk):
        from solenoid import helmholtz, nse, stokes
        from solenoid.floatball import BallGrid
        from solenoid.spectral import FourierField
        self.helmholtz, self.nse, self.stokes = helmholtz, nse, stokes
        self.BallGrid, self.FourierField = BallGrid, FourierField
        return fresh_import_seconds(clk, self.scratch)

    def _pair(self, c1, c2):
        z = np.zeros_like(c1)
        return (self.FourierField("sc", c1.shape[0] - 1, self.BallGrid(c1, z)),
                self.FourierField("cs", c2.shape[0] - 1, self.BallGrid(c2, z)))

    def round_ops(self, rng, index):
        """Cutoffs step through 2..8 from round to round (each query kind
        at its own phase), so every run covers the bands evenly and only
        the coefficients, times, points and exponents come from the seed."""
        st, nse, hh = self.stokes, self.nse, self.helmholtz
        ops = []

        def band(shift):
            return 2 + (index + shift) % 7

        sg = random_pair_arrays(rng, band(0))
        t = Fraction(rng.randint(1, 32), 64)
        sg_pair = self._pair(*sg)
        ops.append(Op("semigroup",
                      lambda: st.semigroup_apply(sg_pair, t, K_SEMIGROUP),
                      of_pair(modewise_check(
                          sg, lambda n, m: refs.heat_factor(n, m, t),
                          "semigroup"))))

        pr_pair = self._pair(*random_pair_arrays(rng, band(2)))
        x = random_point(rng)
        other = ((0, 0), (0, x[1]), x)
        state = {}

        def pressure(path):
            def run():
                return nse.pressure(pr_pair, None,
                                    nse.PressureQuery(x, path=path), K_SMALL)
            return run

        def keep(out):
            state["first"] = (out.lower(), out.upper())
            checks.check_radius(state["first"], 2.0 ** -K_SMALL, "pressure")

        def overlap(out):
            iv = (out.lower(), out.upper())
            checks.check_radius(iv, 2.0 ** -K_SMALL, "pressure")
            checks.check_overlap(state["first"], iv, "pressure paths")

        ops.append(Op("pressure", pressure(None), keep))
        ops.append(Op("pressure", pressure(other), overlap))

        fp = random_pair_arrays(rng, band(4))
        fp_pair = self._pair(*fp)
        for alpha in ALPHAS:
            ops.append(Op("fracpower",
                          lambda a=alpha: st.frac_power_apply(fp_pair, a),
                          of_pair(modewise_check(
                              fp, lambda n, m, a=alpha:
                              refs.power_factor(n, m, a), "fracpower"))))

        pj = random_pair_arrays(rng, band(6))
        pj_pair = self._pair(*pj)
        ops.append(Op("project", lambda: hh.project(pj_pair, K_SMALL),
                      of_pair(projection_check(pj))))

        # pure-gradient forcing: f = grad(cos pi x cos pi y), pi rounded to
        # a float s, so the pressure is (s/pi)(cos pi x cos pi y - 1)
        s = float(np.pi)
        g = np.zeros((2, 2))
        g[1, 1] = -s
        zero = self._pair(np.zeros((2, 2)), np.zeros((2, 2)))
        forcing = self._pair(g, g.copy())
        xg = random_point(rng)
        want = refs.gradient_pressure(xg[0], xg[1], Fraction(s))
        ops.append(Op("pressure",
                      lambda: nse.pressure(zero, forcing, nse.PressureQuery(xg),
                                           K_SMALL),
                      lambda out: checks.check_contains(
                          (out.lower(), out.upper()), want,
                          "gradient pressure")))
        return ops


def modewise_check(arrays, factor, what):
    """Check on an output pair of Fields: mode-wise factor of the input."""
    inp = as_fields(*arrays)

    def check(out):
        for f_in, f_out in zip(inp, out):
            checks.check_modewise(f_in, f_out, factor, what)
    return check


def projection_check(arrays):
    inp = as_fields(*arrays)
    return lambda out: checks.check_projection(*inp, *out)


def of_pair(check):
    """Adapt a Field-pair check to an in-process output pair."""
    return lambda out: check((Field.of(out[0]), Field.of(out[1])))


def of_artifact(check):
    """Adapt a Field-pair check to a CLI pair artifact."""
    def run(out):
        obj = json.loads(out)
        check((Field.from_json(obj["u1"]), Field.from_json(obj["u2"])))
    return run


# ---------------------------------------------------------------------------
# cold-cli
# ---------------------------------------------------------------------------

class ColdCliWorkload:
    """Fresh CLI processes, started one at a time.  Each is a fresh
    interpreter running ``solenoid.cli.main`` through cli_child.py, which
    times it with bursts (or traces it) from inside."""

    def __init__(self, scratch: str, traced: bool):
        self.scratch = scratch
        self.traced = traced
        self.span_files = []
        self.inputs = 0
        self.processes = 0

    def setup(self, clk):
        from solenoid import polyfield as pf
        readme = pf.mollify(pf.solenoidal_kernel(4)[0], 1, 2)
        self.readme_base = readme.base.to_json()
        self.element = self._write("element.json", {
            "schema": "solenoid/1", "kind": "element",
            "base": self.readme_base, "k": 1, "n": 2})
        return fresh_import_seconds(clk, self.scratch)

    def _write(self, name, obj) -> str:
        """Write an input artifact under a name no other operation uses."""
        self.inputs += 1
        path = os.path.join(self.scratch, "%d-%s" % (self.inputs, name))
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    def _cli(self, kind, check, *argv):
        """An operation that runs ``solenoid <argv>`` in a fresh process."""
        self.processes += 1
        path = os.path.join(self.scratch, "%s-%d.json" % (
            "spans" if self.traced else "bursts", self.processes))
        if self.traced:
            self.span_files.append(path)
        cmd = child_command("--spans" if self.traced else "--clock", path) \
            + list(argv)

        def run():
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  env=child_env(), cwd=ROOT,
                                  timeout=CLI_TIMEOUT)
            if proc.returncode != 0:
                raise OpFailed("exit %d: %s" % (proc.returncode,
                                                proc.stderr.strip()[-300:]))
            return proc.stdout
        return Op(kind, run, check, None if self.traced else path)

    def round_ops(self, rng, index):
        # fails on every call today (element projection reports the
        # divergence of a field with an L2 tail); kept and counted
        ops = [self._cli("cli-project-element",
                         self._element_projection_check(),
                         "project", "--input", self.element)]

        for cutoff, count, alpha in LIGHT_PASSES:
            light = self._light_ops(rng, cutoff, count, alpha)
            for j, op in enumerate(light):
                op.slot = "light-%d" % j
            ops += light
        return ops

    def _light_ops(self, rng, cutoff, count, alpha):
        ops = []
        ops.append(self._cli(
            "cli-light", lambda out: checks.check_basis(json.loads(out), count),
            "basis", "--degree", "4", "--count", str(count)))

        sg = random_pair_arrays(rng, cutoff)
        t = Fraction(rng.randint(1, 32), 64)
        path = self._write("semigroup.json", pair_json(*sg))
        ops.append(self._cli(
            "cli-light", of_artifact(modewise_check(
                sg, lambda n, m: refs.heat_factor(n, m, t), "cli semigroup")),
            "semigroup", "--t", str(t), "--precision", str(K_SEMIGROUP),
            "--input", path))

        path = self._write("pressure.json",
                           pair_json(*random_pair_arrays(rng, cutoff)))
        x = random_point(rng)
        point = "%s,%s" % x
        state = {}

        def keep(out):
            obj = json.loads(out)
            state["first"] = (Fraction(obj["value_lower"]),
                              Fraction(obj["value_upper"]))

        def overlap(out):
            obj = json.loads(out)
            checks.check_overlap(state["first"],
                                 (Fraction(obj["value_lower"]),
                                  Fraction(obj["value_upper"])),
                                 "cli pressure paths")

        ops.append(self._cli("cli-light", keep, "pressure", "--point", point,
                             "--input", path))
        ops.append(self._cli("cli-light", overlap, "pressure", "--point",
                             point, "--path", "0,0;0,%s;%s" % (x[1], point),
                             "--input", path))

        fp = random_pair_arrays(rng, cutoff)
        path = self._write("fracpower.json", pair_json(*fp))
        ops.append(self._cli(
            "cli-light", of_artifact(modewise_check(
                fp, lambda n, m: refs.power_factor(n, m, alpha),
                "cli fracpower")),
            "fracpower", "--alpha", str(alpha), "--input", path))

        pj = random_pair_arrays(rng, cutoff)
        path = self._write("project.json", pair_json(*pj))
        ops.append(self._cli("cli-light", of_artifact(projection_check(pj)),
                             "project", "--precision", str(K_SMALL),
                             "--input", path))
        return ops

    def _element_projection_check(self):
        def check(pair):
            c1, c2, tail = refs.mollified_coefficients(self.readme_base, 1,
                                                       2, 48)
            checks.check_centre(pair, c1, c2, tail, "cli project element")
        return of_artifact(check)


WORKLOADS = {"solve": SolveWorkload, "queries": QueriesWorkload,
             "cold-cli": ColdCliWorkload}
