"""Tests for the batch driver.

Each subcommand is driven in-process through main(); one subprocess run
checks the installed entry point.  Oracles: the closed-form heat factor for
the semigroup command, the mode factor (2 pi^2)^(1/2) for fracpower, and
byte comparison for determinism.  Error paths are checked against the
documented exit codes.
"""

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

from solenoid import cli, helmholtz
from solenoid import polyfield as pf
from solenoid import spectral
from solenoid.approxcore import BoundedValue, ConstantsTable
from solenoid.floatball import BallGrid, FloatBall
from solenoid.polyfield import SolenoidalPolyPair
from solenoid.spectral import FourierField


def _mode_pair_json(n, m, c1, c2, cut=None):
    cut = cut or max(n, m)
    g1 = BallGrid.zeros((cut + 1, cut + 1))
    g2 = BallGrid.zeros((cut + 1, cut + 1))
    g1.set((n, m), FloatBall(float(c1)))
    g2.set((n, m), FloatBall(float(c2)))
    pair = (FourierField("sc", cut, g1), FourierField("cs", cut, g2))
    return {"schema": cli.SCHEMA, "kind": "pair",
            "u1": pair[0].to_json(), "u2": pair[1].to_json()}


@pytest.fixture
def mode11(tmp_path):
    path = tmp_path / "mode11.json"
    path.write_text(json.dumps(_mode_pair_json(1, 1, 1.0, -1.0)))
    return str(path)


def _small_pair_json():
    # small-amplitude two-mode solenoidal datum; band-limited, so horizon
    # and solve stay cheap
    obj = _mode_pair_json(1, 2, 0.02, -0.01, cut=2)
    obj2 = _mode_pair_json(1, 1, 0.01, -0.01, cut=2)
    for comp in ("u1", "u2"):
        for i, row in enumerate(obj2[comp]["re"]):
            for j, val in enumerate(row):
                cur = F(obj[comp]["re"][i][j]) + F(val)
                obj[comp]["re"][i][j] = str(cur)
    return obj


@pytest.fixture
def small_pair(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(_small_pair_json()))
    return str(path)


def _run(*argv):
    return cli.main(list(argv))


def _child_env(**extra):
    root = pathlib.Path(__file__).resolve().parents[1]
    return {**os.environ, "PYTHONPATH": str(root / "src"), **extra}


def _readme_element(tmp_path):
    elem = pf.mollify(pf.solenoidal_kernel(4)[0], 1, 2)
    path = tmp_path / "element.json"
    path.write_text(json.dumps({"schema": cli.SCHEMA, "kind": "element",
                                "base": elem.base.to_json(),
                                "k": 1, "n": 2}))
    return str(path)


class TestBasis:
    def test_count_and_exactness(self, tmp_path):
        out = tmp_path / "basis.json"
        assert _run("basis", "--degree", "4", "--count", "10",
                    "--output", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == cli.SCHEMA
        assert len(payload["elements"]) == 10
        for obj in payload["elements"]:
            assert SolenoidalPolyPair.from_json(obj).is_solenoidal()

    def test_degree_without_kernel_rejected(self, tmp_path):
        assert _run("basis", "--degree", "1", "--count", "1",
                    "--output", str(tmp_path / "x.json")) \
            == cli.EXIT_PRECONDITION


class TestSemigroup:
    def test_heat_factor_oracle(self, tmp_path, mode11):
        out = tmp_path / "heat.json"
        assert _run("semigroup", "--t", "1/10", "--precision", "12",
                    "--input", mode11, "--output", str(out)) == 0
        payload = json.loads(out.read_text())
        c = F(payload["u1"]["re"][1][1])
        r = F(payload["u1"]["rad"][1][1])
        exact = math.exp(-0.2 * math.pi ** 2)
        assert float(c - r) <= exact <= float(c + r)
        assert payload["certificate"]["closed"]

    def test_csv_emission(self, tmp_path, mode11):
        out = tmp_path / "heat.json"
        csv_path = tmp_path / "heat.csv"
        assert _run("semigroup", "--t", "1/8", "--input", mode11,
                    "--output", str(out), "--emit-csv", str(csv_path)) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "component,n,m,coefficient,radius"
        assert any(line.startswith("u1,1,1,") for line in lines)


class TestProject:
    def test_ledger_closes(self, tmp_path, mode11):
        out = tmp_path / "proj.json"
        assert _run("project", "--input", mode11, "--precision", "9",
                    "--output", str(out)) == 0
        cert = json.loads(out.read_text())["certificate"]
        total = sum(F(line["value"]) for line in cert["budget"])
        assert total <= F(1, 2 ** 9)
        assert all(line["consumer"] for line in cert["budget"])

    def test_ledger_reports_what_ran(self, tmp_path, mode11, monkeypatch):
        # the budget lines name the resolution and the truncation target
        # that `project` used, not fixed shares of the budget
        ran = {}
        as_pair, index = helmholtz._as_pair, helmholtz.truncation_index

        def resolving(u, k=None):
            ran.setdefault("datum resolution", k)
            return as_pair(u, k)

        def truncating(u, K):
            ran["series truncation tail"] = K + 1  # its target is 2^-(K+1)
            return index(u, K)
        monkeypatch.setattr(helmholtz, "_as_pair", resolving)
        monkeypatch.setattr(helmholtz, "truncation_index", truncating)
        out = tmp_path / "proj.json"
        assert _run("project", "--input", mode11, "--precision", "9",
                    "--output", str(out)) == 0
        budget = json.loads(out.read_text())["certificate"]["budget"]
        assert {line["consumer"]: line["amount"] for line in budget} == \
            {consumer: "2^-%d" % e for consumer, e in ran.items()} == \
            {"datum resolution": "2^-12", "series truncation tail": "2^-11"}

    def test_divergence_reported_small(self, tmp_path, mode11):
        out = tmp_path / "proj.json"
        _run("project", "--input", mode11, "--precision", "8",
             "--output", str(out))
        payload = json.loads(out.read_text())
        assert F(payload["divergence_sup"]) < F(1, 10 ** 9)

    def test_element_input(self, tmp_path):
        # a projected element keeps its L2 tail; the reported divergence is
        # that of the band part
        path = _readme_element(tmp_path)
        out = tmp_path / "proj.json"
        assert _run("project", "--input", path, "--precision", "8",
                    "--output", str(out)) == 0
        payload = json.loads(out.read_text())
        assert (payload["u1"]["basis"], payload["u2"]["basis"]) == ("sc", "cs")
        assert F(payload["divergence_sup"]) < F(1, 2 ** 8)

    @pytest.mark.parametrize("command", ["project", "horizon"])
    def test_element_written_by_to_json(self, tmp_path, command):
        # MollifiedElement.to_json, tagged with kind and schema, is the
        # element input format
        elem = pf.mollify(pf.solenoidal_kernel(4)[0], 1, 2)
        obj = dict(elem.to_json(), kind="element", schema=cli.SCHEMA)
        path = tmp_path / "element.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / "out.json"
        assert _run(command, "--input", str(path), "--output", str(out)) == 0
        assert json.loads(out.read_text())["kind"] in ("pair", "horizon")


class TestFracpower:
    def test_mode_factor(self, tmp_path, mode11):
        out = tmp_path / "fp.json"
        assert _run("fracpower", "--alpha", "1/2", "--input", mode11,
                    "--output", str(out)) == 0
        payload = json.loads(out.read_text())
        c = F(payload["u1"]["re"][1][1])
        r = F(payload["u1"]["rad"][1][1])
        assert abs(float(c) - math.sqrt(2) * math.pi) <= float(r) + 1e-12

    def test_alpha_out_of_range(self, mode11):
        assert _run("fracpower", "--alpha", "3/2", "--input", mode11) \
            == cli.EXIT_PRECONDITION


class TestHorizonAndSolve:
    def test_horizon_contractive(self, tmp_path, small_pair):
        out = tmp_path / "hz.json"
        assert _run("horizon", "--input", small_pair,
                    "--output", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["contractive"] is True
        assert F(payload["epsilon_upper"]) < 1
        for key in ("T_a", "k0", "K_cap", "epsilon", "L", "w_m"):
            assert key in payload["certificate"]

    def test_solve_within_horizon(self, tmp_path, small_pair):
        out = tmp_path / "sol.json"
        code = _run("solve", "--input", small_pair, "--t",
                    "1/1152921504606846976", "--precision", "6",
                    "--output", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["certificate"]["closed"]
        assert payload["kind"] == "pair"

    def test_solve_has_no_panel_cap(self, tmp_path, small_pair):
        # the time-cell ladder's cap is a constant of the library
        assert _run("solve", "--input", small_pair, "--t", "0",
                    "--panel-cap", "8", "--output",
                    str(tmp_path / "x.json")) == cli.EXIT_PARSE

    def test_solve_outside_horizon(self, tmp_path, small_pair):
        assert _run("solve", "--input", small_pair, "--t", "1/2",
                    "--output", str(tmp_path / "x.json")) \
            == cli.EXIT_HORIZON

    def test_solve_at_time_zero_meets_its_budget(self, tmp_path):
        # solve at --precision 12 runs iterate at 2^-13; at t = 0 the
        # README element resolves at rung 128, whose tails meet 2^-13
        out = tmp_path / "x.json"
        assert _run("solve", "--input", _readme_element(tmp_path), "--t",
                    "0", "--precision", "12", "--output", str(out)) == 0
        payload = json.loads(out.read_text())
        assert sum(F(payload[c]["tail_l2"]) ** 2 for c in ("u1", "u2")) \
            <= F(1, 2 ** 26)
        # its expansion at cutoff 64, a concrete pair with tails of
        # 2.05e-4 jointly, over 2^-13, cannot be refined: the budget is
        # not met
        elem = pf.mollify(pf.solenoidal_kernel(4)[0], 1, 2)
        f1, f2 = spectral.mollified_field_pair(elem, 64)
        pair = tmp_path / "pair.json"
        pair.write_text(json.dumps({"schema": cli.SCHEMA, "kind": "pair",
                                    "u1": f1.to_json(), "u2": f2.to_json()}))
        assert _run("solve", "--input", str(pair), "--t", "0",
                    "--precision", "12",
                    "--output", str(out)) == cli.EXIT_BUDGET

    def test_element_past_top_rung_is_a_precondition(self, tmp_path,
                                                     monkeypatch):
        # with 64 as the top rung, project --precision 10 asks the element
        # for 2^-13, past its joint tail 2.05e-4 there
        monkeypatch.setattr(spectral, "_ELEMENT_RUNGS", (64,))
        assert _run("project", "--input", _readme_element(tmp_path),
                    "--precision", "10") == cli.EXIT_PRECONDITION

    def test_constants_override_consumed(self, tmp_path, small_pair,
                                         monkeypatch):
        table = ConstantsTable(M=BoundedValue.exact(2))
        override = tmp_path / "constants.json"
        override.write_text(json.dumps(table.to_json()))
        base_out = tmp_path / "hz0.json"
        over_out = tmp_path / "hz1.json"
        assert _run("horizon", "--input", small_pair,
                    "--output", str(base_out)) == 0
        monkeypatch.setenv(cli.CONSTANTS_ENV, str(override))
        assert _run("horizon", "--input", small_pair,
                    "--output", str(over_out)) == 0
        base = json.loads(base_out.read_text())["certificate"]["T_a"]
        over = json.loads(over_out.read_text())["certificate"]["T_a"]
        # doubling M doubles Ctilde and so shrinks the certified horizon
        assert base != over


    @pytest.mark.parametrize("table", [
        # only M is configuration: any other constant in the file, such as
        # a smoothing constant (each is 1), is a parse error, not silently
        # ignored
        {"C_half_time": BoundedValue.exact(2).to_json()},
        # malformed tables
        {"C": 2}, "CM", [1],
        # C is not a constant of the table: a well-formed C is refused too
        {"C": BoundedValue.exact(2).to_json()},
        # M must be positive
        {"M": BoundedValue.exact(0).to_json()},
        {"M": BoundedValue.exact(-1).to_json()},
        {"M": BoundedValue.from_endpoints(F(-2), F(4)).to_json()}])
    def test_constants_file_rejected(self, tmp_path, small_pair, table,
                                     capsys):
        override = tmp_path / "constants.json"
        override.write_text(json.dumps(table))
        assert _run("horizon", "--input", small_pair, "--constants",
                    str(override)) == cli.EXIT_PARSE
        assert "Traceback" not in capsys.readouterr().err


    @pytest.mark.parametrize("M", [
        2, "x", {"c": 1}, {"c": [1, 0], "r": [0, 0]}])
    def test_malformed_m_named(self, tmp_path, small_pair, M, capsys):
        override = tmp_path / "constants.json"
        override.write_text(json.dumps({"M": M}))
        assert _run("horizon", "--input", small_pair, "--constants",
                    str(override)) == cli.EXIT_PARSE == 2
        err = capsys.readouterr().err
        assert 'M must be a ball {"c": {"m": str, "e": int}, "r": ' in err
        assert "Traceback" not in err


class TestPressure:
    def test_path_independence(self, tmp_path, mode11):
        out1, out2 = tmp_path / "p1.json", tmp_path / "p2.json"
        assert _run("pressure", "--input", mode11, "--point", "1/3,2/5",
                    "--output", str(out1)) == 0
        assert _run("pressure", "--input", mode11, "--point", "1/3,2/5",
                    "--path", "0,0;0,2/5;1/3,2/5",
                    "--output", str(out2)) == 0
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        assert F(a["value_lower"]) <= F(b["value_upper"])
        assert F(b["value_lower"]) <= F(a["value_upper"])

    def test_budget_miss_is_exit_5(self, mode11):
        assert _run("pressure", "--input", mode11, "--point", "1/3,2/5",
                    "--precision", "64") == cli.EXIT_BUDGET

    def test_point_outside_domain(self, mode11):
        assert _run("pressure", "--input", mode11, "--point", "3/2,1/2") \
            == cli.EXIT_PRECONDITION


class TestErrorHandling:
    def test_parse_error_on_bad_time(self, mode11):
        assert _run("semigroup", "--t", "0.1x", "--input", mode11) \
            == cli.EXIT_PARSE

    def test_parse_error_on_missing_file(self):
        assert _run("project", "--input", "/nonexistent-artifact.json") \
            == cli.EXIT_PARSE

    def test_parse_error_on_missing_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "pair"}))
        assert _run("project", "--input", str(bad)) == cli.EXIT_PARSE

    def test_parse_error_on_exp_basis(self, tmp_path):
        # the product trig bases are the only field bases
        field = FourierField.single_mode("ss", 1, 1).to_json()
        field["basis"] = "exp"
        bad = tmp_path / "exp.json"
        bad.write_text(json.dumps({"schema": cli.SCHEMA, "kind": "field",
                                   "field": field}))
        assert _run("semigroup", "--t", "1/10", "--input", str(bad)) \
            == cli.EXIT_PARSE

    def test_precondition_on_zero_precision(self, mode11):
        assert _run("semigroup", "--t", "1/10", "--precision", "0",
                    "--input", mode11) == cli.EXIT_PRECONDITION

    def test_exact_time_parsing(self):
        assert cli._parse_exact("0.125") == F(1, 8)
        assert cli._parse_exact("3/7") == F(3, 7)
        with pytest.raises(cli.CliError):
            cli._parse_exact("1e-3x")


# the subcommands that take --input, with their other arguments
_INPUT_ARGS = {
    "semigroup": ("--t", "1/8"),
    "project": (),
    "fracpower": ("--alpha", "1/4"),
    "horizon": (),
    "solve": ("--t", "1/1073741824"),
    "pressure": ("--point", "1/3,2/5"),
}


def _refused_inputs(tmp_path):
    """Three malformed inputs: an element of the degree-4 shape whose base
    is a1 = 1 at (0, 0) and 0 elsewhere (not solenoidal), and the mode-11
    pair with radius -1/2 at mode (1, 1) or the centre 1e400 there."""
    base = pf.solenoidal_kernel(4)[0].to_json()
    for key in ("a1", "a2"):
        base[key] = [["0"] * len(row) for row in base[key]]
    base["a1"][0][0] = "1"
    bad = {"schema": cli.SCHEMA, "kind": "element", "base": base,
           "k": 1, "n": 2}
    negative = _mode_pair_json(1, 1, 1.0, -1.0)
    negative["u1"]["rad"][1][1] = "-1/2"
    huge = _mode_pair_json(1, 1, 1.0, -1.0)
    huge["u1"]["re"][1][1] = "1e400"
    paths = {}
    for name, obj in (("non-solenoidal", bad), ("negative-radius", negative),
                      ("huge-entry", huge)):
        paths[name] = tmp_path / (name + ".json")
        paths[name].write_text(json.dumps(obj))
    return {k: str(v) for k, v in paths.items()}


class TestRefusedInputs:
    """Inputs that are no enclosure exit with a code and a message, not a
    traceback: a non-solenoidal element base, whose certified tails would
    not hold (its L2 tail read 2.2e-154 at cutoff 64 while 5.5e-5 of its
    mass lay past it), a negative radius, an entry past the double range,
    a time past it and a negative count."""

    @pytest.mark.parametrize("name", ["non-solenoidal", "negative-radius",
                                      "huge-entry"])
    @pytest.mark.parametrize("command", sorted(_INPUT_ARGS))
    def test_malformed_input_is_a_parse_error(self, tmp_path, capsys,
                                              command, name):
        path = _refused_inputs(tmp_path)[name]
        code = _run(command, *_INPUT_ARGS[command], "--input", path,
                    "--output", str(tmp_path / "out.json"))
        err = capsys.readouterr().err
        assert code == cli.EXIT_PARSE, err
        assert err.startswith("E:parse: malformed") and "Traceback" not in err
        assert not (tmp_path / "out.json").exists()

    def test_time_past_the_double_range(self, capsys, mode11):
        assert _run("semigroup", "--t", "1e400", "--input", mode11) \
            == cli.EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "outside the double range" in err and "Traceback" not in err

    def test_negative_count(self, capsys):
        assert _run("basis", "--count", "-3") == cli.EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "count must be nonnegative" in err and "Traceback" not in err


class TestSelftest:
    def test_deterministic_and_passing(self, tmp_path):
        out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
        assert _run("selftest", "--output", str(out1)) == 0
        assert _run("selftest", "--output", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert json.loads(out1.read_text())["passed"] is True

    def test_projection_follows_the_cutoff_rule(self, tmp_path):
        # the selftest projects the element as `project` would, from the
        # rule's default expansion
        out = tmp_path / "s.json"
        assert _run("selftest", "--output", str(out)) == 0
        check, = [c for c in json.loads(out.read_text())["checks"]
                  if c["name"] == "projection-idempotence-budget"]
        elem = pf.mollify(pf.solenoidal_kernel(4)[0], 1, 2)
        p1, _ = helmholtz.project(helmholtz.resolve_field(elem), 6)
        assert (check["cutoff"], F(check["tail"])) == \
            (p1.cutoff, F(p1.tail_l2.upper()))


@pytest.fixture(scope="module")
def input_kinds(tmp_path_factory):
    """The README element, the pair that `project --precision 8` writes
    for it, and that pair's u1 as a single field."""
    root = tmp_path_factory.mktemp("kinds")
    elem = pf.mollify(pf.solenoidal_kernel(4)[0], 1, 2)
    paths = {"element": root / "element.json", "pair": root / "pair.json",
             "field": root / "field.json"}
    paths["element"].write_text(json.dumps(
        dict(elem.to_json(), kind="element", schema=cli.SCHEMA)))
    assert _run("project", "--precision", "8", "--input",
                str(paths["element"]), "--output", str(paths["pair"])) == 0
    u1 = json.loads(paths["pair"].read_text())["u1"]
    paths["field"].write_text(json.dumps(
        {"schema": cli.SCHEMA, "kind": "field", "field": u1}))
    return {k: str(v) for k, v in paths.items()}


# each subcommand's arguments besides --input, and its exit code on a
# (pair, field, element) input; the README lists the input kinds each takes
_MATRIX = {
    "basis": ((), (2, 2, 2)),
    "semigroup": (("--t", "1/8"), (0, 0, 0)),
    "project": ((), (3, 3, 0)),
    "fracpower": (("--alpha", "1/4"), (3, 3, 0)),
    "horizon": ((), (0, 3, 0)),
    "solve": (("--t", "1/1073741824"), (0, 3, 0)),
    "pressure": (("--point", "1/3,2/5"), (3, 3, 3)),
    "selftest": ((), (2, 2, 2)),
}


class TestInputKinds:
    @pytest.mark.parametrize("kind", ["pair", "field", "element"])
    @pytest.mark.parametrize("command", sorted(_MATRIX))
    def test_documented_exit_code(self, tmp_path, capsys, input_kinds,
                                  command, kind):
        args, codes = _MATRIX[command]
        code = _run(command, *args, "--input", input_kinds[kind],
                    "--output", str(tmp_path / "out.json"))
        err = capsys.readouterr().err
        assert code == codes[("pair", "field", "element").index(kind)], err
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def written_kinds(tmp_path_factory):
    """The artifacts the subcommands write, on the small band-limited pair:
    a pair from `project`, a pair from `solve`, a pair and a field from
    `semigroup`, and a `horizon` certificate."""
    root = tmp_path_factory.mktemp("written")
    pair, field = root / "in_pair.json", root / "in_field.json"
    obj = _small_pair_json()
    pair.write_text(json.dumps(obj))
    field.write_text(json.dumps(
        {"schema": cli.SCHEMA, "kind": "field", "field": obj["u1"]}))
    runs = {
        "project": ("project", "--precision", "8", "--input", pair),
        "solve": ("solve", "--t", "1/1152921504606846976", "--precision",
                  "6", "--input", pair),
        "semigroup-pair": ("semigroup", "--t", "1/8", "--input", pair),
        "semigroup-field": ("semigroup", "--t", "1/8", "--input", field),
        "horizon": ("horizon", "--input", pair),
    }
    out = {}
    for name, argv in runs.items():
        out[name] = str(root / (name + ".json"))
        assert _run(*map(str, argv), "--output", out[name]) == 0, name
    return out


# each subcommand that reads --input, with its other arguments, and its
# exit code on the artifacts of `written_kinds`, as the README input table
# states: `project` and `semigroup` pairs are band-limited, a `semigroup`
# field is a field, and a `solve` pair carries an L2 tail (about 2^-8 here)
# and no H^1/2 tail bound
_WRITTEN = ("project", "solve", "semigroup-pair", "semigroup-field")
_READERS = {
    "project-K4": (("project", "--precision", "4"), (0, 0, 0, 3)),
    "project-K8": (("project", "--precision", "8"), (0, 3, 0, 3)),
    "semigroup": (("semigroup", "--t", "1/8"), (0, 0, 0, 0)),
    "fracpower": (("fracpower", "--alpha", "1/4"), (0, 3, 0, 0)),
    "horizon": (("horizon",), (0, 0, 0, 3)),
    "solve": (("solve", "--t", "0", "--precision", "4"), (0, 0, 0, 3)),
    "pressure": (("pressure", "--point", "1/3,2/5"), (0, 3, 0, 3)),
}


class TestWrittenKinds:
    @pytest.mark.parametrize("artifact", _WRITTEN)
    @pytest.mark.parametrize("reader", sorted(_READERS))
    def test_documented_exit_code(self, tmp_path, capsys, written_kinds,
                                  reader, artifact):
        argv, codes = _READERS[reader]
        code = _run(*argv, "--input", written_kinds[artifact],
                    "--output", str(tmp_path / "out.json"))
        err = capsys.readouterr().err
        assert code == codes[_WRITTEN.index(artifact)], err
        assert "Traceback" not in err

    def test_solve_pair_misses_a_finer_budget_at_t0(self, tmp_path, capsys,
                                                     written_kinds):
        # a solve artifact's L2 tail meets 2^-5 at t = 0 (--precision 4,
        # exit 0 in the table above) but not 2^-9: --precision 8 is a
        # budget that cannot be met (exit 5)
        code = _run("solve", "--t", "0", "--precision", "8", "--input",
                    written_kinds["solve"], "--output",
                    str(tmp_path / "out.json"))
        err = capsys.readouterr().err
        assert code == cli.EXIT_BUDGET, err
        assert "the datum's tails miss 2^-9 at t = 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["horizon", "solve"])
    def test_ball_json_is_canonical(self, written_kinds, command):
        # every {"m", "e"} pair is canonical (m odd, or m = e = 0), and
        # every ball loads back to the same ball
        balls, parts = [], []

        def walk(obj):
            if isinstance(obj, dict):
                if set(obj) == {"c", "r"}:
                    balls.append(obj)
                if set(obj) == {"m", "e"}:
                    parts.append(obj)
                for v in obj.values():
                    walk(v)
            elif isinstance(obj, list):
                for v in obj:
                    walk(v)
        walk(json.loads(pathlib.Path(written_kinds[command]).read_text()))
        assert len(balls) > 10 and len(parts) == 2 * len(balls)
        for part in parts:
            m, e = int(part["m"]), part["e"]
            assert m % 2 == 1 or (m == 0 and e == 0), part
        for ball in balls:
            assert BoundedValue.from_json(ball).to_json() == ball


# the options each subcommand's runner reads, and no others
_OPTIONS = {
    "basis": {"--degree", "--count", "--output"},
    "project": {"--input", "--output", "--precision", "--emit-csv"},
    "semigroup": {"--t", "--input", "--output", "--precision", "--emit-csv"},
    "fracpower": {"--alpha", "--input", "--output", "--emit-csv"},
    "horizon": {"--mode-cap", "--input", "--output", "--constants"},
    "solve": {"--t", "--mode-cap", "--input", "--output", "--precision",
              "--constants", "--emit-csv"},
    "pressure": {"--point", "--path", "--input", "--output", "--precision"},
    "selftest": {"--output"},
}


class TestOptions:
    def test_each_subcommand_parses_what_its_runner_reads(self):
        parser = cli._build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        got = {name: {o for a in p._actions for o in a.option_strings}
               - {"-h", "--help"} for name, p in sub.choices.items()}
        assert got == _OPTIONS

    def test_unread_options_rejected(self, tmp_path, mode11):
        constants = tmp_path / "constants.json"
        constants.write_text(json.dumps(ConstantsTable().to_json()))
        assert _run("basis", "--precision", "8") == cli.EXIT_PARSE
        assert _run("pressure", "--input", mode11, "--point", "1/3,2/5",
                    "--constants", str(constants)) == cli.EXIT_PARSE


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "basis.json"
        proc = subprocess.run(
            [sys.executable, "-m", "solenoid.cli", "basis", "--degree",
             "4", "--count", "2", "--output", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(out.read_text())["count"] == 2


class TestColdProcess:
    def test_light_commands_leave_mpmath_unloaded(self, mode11):
        # mpmath (about 40 ms of import) waits for the first transcendental
        # enclosure, which none of these commands asks for; the ball of
        # bv_pi(60) is the one mpmath gave when it was imported up front
        commands = [
            ["basis", "--degree", "4", "--count", "3"],
            ["semigroup", "--t", "1/8", "--input", mode11],
            ["pressure", "--point", "1/3,2/5", "--input", mode11],
            ["pressure", "--point", "1/3,2/5", "--path",
             "0,0;0,2/5;1/3,2/5", "--input", mode11],
            ["fracpower", "--alpha", "1/4", "--input", mode11],
            ["project", "--input", mode11],
        ]
        code = "\n".join([
            "import contextlib, io, json, sys",
            "from solenoid import cli",
            "assert 'mpmath' not in sys.modules, 'import'",
            "for argv in json.loads(sys.argv[1]):",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        assert cli.main(argv) == 0, argv",
            "    assert 'mpmath' not in sys.modules, argv",
            "from solenoid.approxcore import bv_pi",
            "ball = bv_pi(60)",
            "assert 'mpmath' in sys.modules",
            "print(json.dumps(ball.to_json(), sort_keys=True))"])
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(commands)],
            capture_output=True, text=True, timeout=120, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            "c": {"m": "905502432259640355", "e": -58},
            "r": {"m": "153", "e": -67}}

    def test_artifact_survives_signals_on_a_full_pipe(self, tmp_path):
        # unbuffered standard output, a 10 ms SIGALRM timer and a reader
        # that waits: the README element's projection at --precision 10
        # (101 263 bytes) overfills the 64 KiB pipe, and a signal during
        # the blocked write returns a partial count, which must not end the
        # artifact
        path = _readme_element(tmp_path)
        code = "\n".join([
            "import signal, sys",
            "from solenoid import cli",
            "signal.signal(signal.SIGALRM, lambda *a: None)",
            "sys.stderr.write('ready\\n')",
            "signal.setitimer(signal.ITIMER_REAL, 0.01, 0.01)",
            "rc = cli.main(['project', '--precision', '10', '--input',",
            "               sys.argv[1]])",
            "signal.setitimer(signal.ITIMER_REAL, 0)",
            "sys.exit(rc)"])
        with subprocess.Popen(
                [sys.executable, "-c", code, path], stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=_child_env(PYTHONUNBUFFERED="1")) as proc:
            try:
                assert proc.stderr.readline() == b"ready\n"
                time.sleep(1.5)
                out = proc.stdout.read()
                assert proc.wait(timeout=120) == 0, proc.stderr.read()
            finally:
                proc.kill()
        assert len(out) > 65536
        assert json.loads(out)["kind"] == "pair"
