"""Batch driver for the solver.

Subcommands cover basis generation, projection, the semigroup, fractional
powers, the contraction horizon, the mild solution, pressure recovery, and
a deterministic self-test.  All numeric inputs are decimal or "p/q" strings
converted exactly; results are JSON artifacts with a certificate section
listing every budget line and its consumer.  Identical configuration and
inputs produce byte-identical artifacts.

Exit codes: 0 success, 2 parse error, 3 precondition violation, 4 horizon
violation, 5 certified budget not met.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from . import nse
from . import polyfield as pf
from .approxcore import ConstantsTable
from .helmholtz import divergence, project, resolve_field
from .polyfield import MollifiedElement
from .spectral import FourierField
from .stokes import frac_power_apply, semigroup_apply

SCHEMA = "solenoid/1"
CONSTANTS_ENV = "SOLENOID_CONSTANTS"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_HORIZON = 4
EXIT_BUDGET = 5


class CliError(Exception):
    """Carries the exit code and a machine-parsable diagnostic category."""

    def __init__(self, code: int, category: str, message: str):
        super().__init__(message)
        self.code = code
        self.category = category


def _parse_exact(text: str) -> Fraction:
    """Exact conversion of a decimal or p/q literal; no float ingestion."""
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(EXIT_PARSE, "parse",
                       "cannot read %r as an exact decimal or p/q" % text)


@dataclass
class RunConfig:
    """Validated run description, assembled from the parsed arguments."""

    command: str
    input_path: Optional[str] = None
    output_path: Optional[str] = None
    precision: int = 8
    t: Fraction = Fraction(0)
    alpha: Optional[Fraction] = None
    degree: int = 4
    count: int = 1
    point: Optional[Tuple[Fraction, Fraction]] = None
    path_points: Optional[Tuple[Tuple[Fraction, Fraction], ...]] = None
    constants_path: Optional[str] = None
    emit_csv: Optional[str] = None
    mode_cap: int = 24

    def __post_init__(self):
        if self.precision < 1:
            raise CliError(EXIT_PRECONDITION, "precondition",
                           "precision must be at least 1")
        if self.t < 0:
            raise CliError(EXIT_PRECONDITION, "precondition",
                           "time must be nonnegative")
        if self.mode_cap <= 0:
            raise CliError(EXIT_PRECONDITION, "precondition",
                           "the mode cap must be positive")
        if self.count < 0:
            raise CliError(EXIT_PRECONDITION, "precondition",
                           "the count must be nonnegative")


def _load_constants(config: RunConfig) -> Optional[ConstantsTable]:
    path = config.constants_path or os.environ.get(CONSTANTS_ENV)
    if not path:
        return None
    try:
        with open(path) as fh:
            return ConstantsTable.from_json(json.load(fh))
    except (OSError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CliError(EXIT_PARSE, "parse",
                       "constants table %s unreadable: %s" % (path, exc))


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(EXIT_PARSE, "parse",
                       "input %s unreadable: %s" % (path, exc))
    if obj.get("schema") != SCHEMA:
        raise CliError(EXIT_PARSE, "parse",
                       "input %s lacks the %r schema marker" % (path, SCHEMA))
    return obj


def _load_field_input(config: RunConfig):
    """Read a field argument: a component pair, a single field, or a
    mollified element."""
    if config.input_path is None:
        raise CliError(EXIT_PARSE, "parse", "this command needs --input")
    obj = _load_json(config.input_path)
    kind = obj.get("kind")
    try:
        if kind == "pair":
            return (FourierField.from_json(obj["u1"]),
                    FourierField.from_json(obj["u2"]))
        if kind == "field":
            return FourierField.from_json(obj["field"])
        if kind == "element":
            return MollifiedElement.from_json(obj)
    except (KeyError, ValueError, TypeError) as exc:
        raise CliError(EXIT_PARSE, "parse",
                       "malformed %r input: %s" % (kind, exc))
    except OverflowError:
        raise CliError(EXIT_PARSE, "parse", "malformed %r input: an entry "
                       "lies outside the double range" % kind)
    raise CliError(EXIT_PARSE, "parse",
                   "unknown input kind %r (expected pair/field/element)"
                   % kind)


def _load_vector_input(config: RunConfig):
    """Read a vector field argument, a component pair or a mollified
    element; a single scalar field is a precondition violation."""
    u = _load_field_input(config)
    if isinstance(u, FourierField):
        raise CliError(EXIT_PRECONDITION, "precondition",
                       "%s needs a component pair or an element"
                       % config.command)
    return u


def _budget_line(consumer: str, exponent: int) -> dict:
    return {"consumer": consumer, "amount": "2^-%d" % exponent,
            "value": str(Fraction(1, 2 ** exponent))}


def _certificate(K: int, lines: List[dict]) -> dict:
    total = sum(Fraction(entry["value"]) for entry in lines)
    if total > Fraction(1, 2 ** K):
        raise CliError(EXIT_BUDGET, "budget",
                       "internal ledger exceeds the 2^-%d target" % K)
    return {"target": "2^-%d" % K, "budget": lines,
            "sum": str(total), "closed": True}


def _pair_json(pair) -> dict:
    return {"kind": "pair", "u1": pair[0].to_json(), "u2": pair[1].to_json()}


def _emit(config: RunConfig, payload: dict) -> None:
    payload = dict(payload)
    payload["schema"] = SCHEMA
    text = json.dumps(payload, sort_keys=True, indent=1,
                      separators=(",", ": ")) + "\n"
    if config.output_path:
        with open(config.output_path, "w") as fh:
            fh.write(text)
    else:
        _write_stdout(text)
    if config.emit_csv:
        _write_csv(config.emit_csv, payload)


def _write_stdout(text: str) -> None:
    """Write all of ``text`` to standard output.

    A write-through text stream (as under PYTHONUNBUFFERED) drops what a
    partial write(2) left over, and a signal that interrupts a write to a
    full pipe makes one: the artifact would end at 64 KiB with exit 0.  So
    the encoded text goes to the file descriptor in a loop that resumes
    after each partial write; a stream with no descriptor (a StringIO, a
    test capture) is written as a stream.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding))
    while data:
        data = data[os.write(fd, data):]


def _write_csv(path: str, payload: dict) -> None:
    """Flat coefficient table for external plotting."""
    rows = []
    for label in ("u1", "u2", "field"):
        obj = payload.get(label)
        if not isinstance(obj, dict) or "re" not in obj:
            continue
        for n, row in enumerate(obj["re"]):
            for m, val in enumerate(row):
                rows.append((label, n, m, val, obj["rad"][n][m]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("component", "n", "m", "coefficient", "radius"))
    writer.writerows(rows)
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _run_basis(config: RunConfig) -> dict:
    basis = pf.solenoidal_kernel(config.degree)
    if not basis and config.count > 0:
        raise CliError(EXIT_PRECONDITION, "precondition",
                       "degree %d has no nonzero solenoidal polynomials"
                       % config.degree)
    out = []
    for i in range(config.count):
        elem = basis[i % len(basis)].scale(Fraction(1 + i // len(basis)))
        if not elem.is_solenoidal():
            raise CliError(EXIT_BUDGET, "budget",
                           "enumerated element failed the exact checks")
        out.append(elem.to_json())
    return {"kind": "basis", "degree": config.degree,
            "count": config.count, "elements": out}


def _run_project(config: RunConfig) -> dict:
    u = _load_vector_input(config)
    K = config.precision
    p1, p2 = project(u, K)
    cert = _certificate(K, [
        _budget_line("datum resolution", K + 3),
        _budget_line("series truncation tail", K + 2),
    ])
    # the tail of a projected series is a certified L2 remainder with no
    # termwise derivative, so the divergence is that of the band part
    div = divergence(nse._strip_tail(p1), nse._strip_tail(p2))
    return {"kind": "pair", "u1": p1.to_json(), "u2": p2.to_json(),
            "divergence_sup": str(Fraction(div.l2_norm_ball().upper())),
            "certificate": cert}


def _run_semigroup(config: RunConfig) -> dict:
    u = _load_field_input(config)
    K = config.precision
    out = semigroup_apply(u, config.t, K)
    cert = _certificate(K, [_budget_line("heat-factor enclosure", K)])
    result = {"t": str(config.t), "certificate": cert}
    if isinstance(out, tuple):
        result.update(_pair_json(out))
    else:
        result.update({"kind": "field", "field": out.to_json()})
    return result


def _run_fracpower(config: RunConfig) -> dict:
    if config.alpha is None:
        raise CliError(EXIT_PARSE, "parse", "fracpower needs --alpha")
    u = _load_field_input(config)
    out = frac_power_apply(u, config.alpha)
    result = {"alpha": str(config.alpha)}
    if isinstance(out, tuple):
        result.update(_pair_json(out))
    else:
        result.update({"kind": "field", "field": out.to_json()})
    return result


def _run_horizon(config: RunConfig) -> dict:
    a = _load_vector_input(config)
    ct = _load_constants(config)
    cert = nse.compute_horizon(a, constants=ct, mode_cap=config.mode_cap)
    eps = cert.epsilon
    return {"kind": "horizon", "certificate": cert.to_json(),
            "epsilon_upper": str(eps.upper()),
            "contractive": bool(eps.upper() < 1)}


def _run_solve(config: RunConfig) -> dict:
    a = _load_vector_input(config)
    ct = _load_constants(config)
    K = config.precision
    cert = nse.compute_horizon(a, constants=ct, mode_cap=config.mode_cap)
    u = nse.solve(a, None, config.t, K, cert=cert)
    ledger = _certificate(K, [
        _budget_line("geometric iteration tail", K + 1),
        _budget_line("iterate enclosure", K + 1),
    ])
    out = {"t": str(config.t), "certificate": ledger,
           "horizon": cert.to_json()}
    out.update(_pair_json(u))
    return out


def _run_pressure(config: RunConfig) -> dict:
    if config.point is None:
        raise CliError(EXIT_PARSE, "parse", "pressure needs --point")
    u = _load_field_input(config)
    if not (isinstance(u, tuple) and len(u) == 2):
        raise CliError(EXIT_PRECONDITION, "precondition",
                       "pressure needs a band-limited component pair")
    K = config.precision
    query = nse.PressureQuery(config.point, path=config.path_points)
    value = nse.pressure(u, None, query, K)
    cert = _certificate(K, [_budget_line("path quadrature", K)])
    return {"kind": "pressure", "point": [str(c) for c in config.point],
            "value": value.to_json(),
            "value_lower": str(value.lower()),
            "value_upper": str(value.upper()),
            "certificate": cert}


def _run_selftest(config: RunConfig) -> dict:
    """Small deterministic battery; the artifact is the certificate of the
    runs plus their key enclosures, reproducible byte for byte."""
    report = {"kind": "selftest", "checks": []}

    basis = pf.solenoidal_kernel(4)
    report["checks"].append({
        "name": "basis-exactness",
        "count": len(basis),
        "all_solenoidal": all(b.is_solenoidal() for b in basis),
    })

    mode = (FourierField.single_mode("sc", 1, 1),
            FourierField.single_mode("cs", 1, 1, -1.0))
    heat = semigroup_apply(mode, Fraction(1, 8), 10)
    report["checks"].append({
        "name": "semigroup-mode11",
        "coefficient": str(Fraction(heat[0].grid.c[1][1])),
        "radius": str(Fraction(heat[0].grid.r[1][1])),
    })

    elem = pf.mollify(basis[0], 1, 2)
    pair = resolve_field(elem)
    p1, p2 = project(pair, 6)
    report["checks"].append({
        "name": "projection-idempotence-budget",
        "cutoff": p1.cutoff,
        "tail": str(Fraction(p1.tail_l2.upper())),
    })

    band = (nse._strip_tail(pair[0]), nse._strip_tail(pair[1]))
    cert = nse.compute_horizon(band, mode_cap=8)
    report["checks"].append({
        "name": "horizon-contraction",
        "epsilon_upper": str(cert.epsilon.upper()),
        "T_a": str(cert.T_frac),
        "contractive": bool(cert.epsilon.upper() < 1),
    })

    u = _pressure_flow()
    q = nse.PressureQuery((Fraction(1, 3), Fraction(1, 4)))
    p = nse.pressure(u, None, q, 8)
    report["checks"].append({
        "name": "pressure-enclosure",
        "lower": str(p.lower()),
        "upper": str(p.upper()),
    })
    report["passed"] = all(
        c.get("all_solenoidal", True) and c.get("contractive", True)
        for c in report["checks"])
    return report


def _pressure_flow():
    from .floatball import BallGrid, FloatBall
    g1 = BallGrid.zeros((3, 3))
    g2 = BallGrid.zeros((3, 3))
    g1.set((1, 2), FloatBall(0.5))
    g2.set((1, 2), FloatBall(-0.25))
    g1.set((2, 1), FloatBall(-0.125))
    g2.set((2, 1), FloatBall(-0.25))
    return (FourierField("sc", 2, g1), FourierField("cs", 2, g2))


_RUNNERS = {
    "basis": _run_basis,
    "project": _run_project,
    "semigroup": _run_semigroup,
    "fracpower": _run_fracpower,
    "horizon": _run_horizon,
    "solve": _run_solve,
    "pressure": _run_pressure,
    "selftest": _run_selftest,
}


def run(config: RunConfig) -> int:
    try:
        payload = _RUNNERS[config.command](config)
    except CliError:
        raise
    except nse.HorizonError as exc:
        raise CliError(EXIT_HORIZON, "horizon", str(exc))
    except nse.BudgetError as exc:
        raise CliError(EXIT_BUDGET, "budget", str(exc))
    except ValueError as exc:
        raise CliError(EXIT_PRECONDITION, "precondition", str(exc))
    except OverflowError as exc:
        raise CliError(EXIT_PRECONDITION, "precondition",
                       "a value lies outside the double range: %s" % exc)
    _emit(config, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solenoid",
        description="certified Navier-Stokes solver driver")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *shared):
        """--output, and those of the shared options --input, --precision,
        --constants and --emit-csv that are named in ``shared``: each
        subcommand takes exactly the options its runner reads."""
        if "input" in shared:
            p.add_argument("--input", dest="input_path", metavar="INPUT",
                           required=True, help="input artifact (JSON)")
        p.add_argument("--output", dest="output_path", metavar="OUTPUT",
                       help="output artifact path (default standard output)")
        if "precision" in shared:
            p.add_argument("--precision", type=int, default=8,
                           help="precision index K (budget 2^-K)")
        if "constants" in shared:
            p.add_argument("--constants", dest="constants_path",
                           metavar="CONSTANTS",
                           help="M override (JSON); also read from $"
                                + CONSTANTS_ENV)
        if "emit-csv" in shared:
            p.add_argument("--emit-csv", dest="emit_csv",
                           help="also write flat coefficient CSV here")

    p = sub.add_parser("basis", help="enumerate exact solenoidal "
                                     "polynomial pairs")
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--count", type=int, default=1)
    common(p)

    p = sub.add_parser("project", help="Helmholtz projection")
    common(p, "input", "precision", "emit-csv")

    p = sub.add_parser("semigroup", help="apply the Stokes semigroup")
    p.add_argument("--t", required=True, help="time (decimal or p/q)")
    common(p, "input", "precision", "emit-csv")

    p = sub.add_parser("fracpower", help="apply a fractional power")
    p.add_argument("--alpha", required=True,
                   help="exponent in (0,1), decimal or p/q")
    common(p, "input", "emit-csv")

    p = sub.add_parser("horizon", help="contraction certificate")
    p.add_argument("--mode-cap", dest="mode_cap", type=int, default=24)
    common(p, "input", "constants")

    p = sub.add_parser("solve", help="certified mild solution")
    p.add_argument("--t", required=True)
    p.add_argument("--mode-cap", dest="mode_cap", type=int, default=12)
    common(p, "input", "precision", "constants", "emit-csv")

    p = sub.add_parser("pressure", help="pressure path integral")
    p.add_argument("--point", required=True,
                   help="target point as 'x,y' (decimal or p/q entries)")
    p.add_argument("--path", dest="path_points", metavar="PATH",
                   help="semicolon-separated waypoint list 'x,y;x,y;...' "
                        "from the anchor")
    common(p, "input", "precision")

    p = sub.add_parser("selftest", help="deterministic verification battery")
    common(p)
    return parser


def _parse_point(text: str) -> Tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(EXIT_PARSE, "parse",
                       "a point must be two comma-separated coordinates")
    return _parse_exact(parts[0]), _parse_exact(parts[1])


def _parse_path(text: str) -> Tuple[Tuple[Fraction, Fraction], ...]:
    return tuple(_parse_point(seg) for seg in text.split(";") if seg)


# the RunConfig fields given as text, with their parsers
_PARSED = {"t": _parse_exact, "alpha": _parse_exact, "point": _parse_point,
           "path_points": _parse_path}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The parsed arguments as a RunConfig: each subcommand sets the fields
    it has options for (argparse holds their defaults), and RunConfig's
    defaults fill the rest.  An empty text option counts as absent."""
    given = {}
    for key, val in vars(args).items():
        if key not in _PARSED:
            given[key] = val
        elif val:
            given[key] = _PARSED[key](val)
    return RunConfig(**given)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        config = _config_from_args(args)
        return run(config)
    except CliError as exc:
        sys.stderr.write("E:%s: %s\n" % (exc.category, exc))
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
