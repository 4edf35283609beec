import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import zipfile
from fractions import Fraction
from pathlib import Path

import pytest

from rnforms.cli import cmd_bracket, main, parse_form_expression
from rnforms.instances import LieAlgebraData, PolyAlgebroidData
from rnforms.linfty import pairwise_compatibility
from rnforms.report import Report
from rnforms.rings import InputError
from rnforms.scenario import build_scenario, load_shipped

SRC = Path(__file__).resolve().parents[1] / "src"
SCENARIOS = SRC / "rnforms" / "scenarios"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_all_shipped(capsys):
    for name in ("aff1", "heisenberg3", "so3", "abelian2", "poly-tangent-r2"):
        code, out, _ = run_cli(capsys, "--scenario", str(SCENARIOS / f"{name}.json"),
                               "validate")
        assert code == 0, name
        assert "status: pass" in out


def test_unknown_flag_exit_2(capsys):
    code, _, _ = run_cli(capsys, "--scenario", str(SCENARIOS / "aff1.json"),
                         "frobnicate")
    assert code == 2


AFF1 = str(SCENARIOS / "aff1.json")

# argv that the command table does not take; each exits 2 with the usage
# line and one input error on stderr and nothing on stdout
MALFORMED_ARGV = [
    ("validate",),                                              # no --scenario
    ("--scenario", AFF1),                                       # no command word
    ("--scenario", AFF1, "check"),
    ("--scenario", AFF1, "frobnicate"),                         # unknown command
    ("--scenario", AFF1, "check", "linfty", "extra"),
    ("--scenario", AFF1, "--", "validate"),
    ("--scenario", AFF1, "validate", "--kind", "weak"),         # not this command's
    ("--scenario", AFF1, "bracket", "--left", "N2", "--right", "N2", "--kind", "weak"),
    ("--scen", AFF1, "validate"),                               # abbreviations
    ("--scenario", AFF1, "check", "nijenhuis", "--ki", "weak"),
    ("--scenario", AFF1, "validate", "--format"),               # missing value
    ("--scenario", "--format", "json", "validate"),
    ("--scenario", AFF1, "bracket", "--left", "N2"),            # missing option
    ("--scenario", AFF1, "check", "nijenhuis"),
    ("--scenario", AFF1, "--format", "xml", "validate"),        # outside the choices
    ("--scenario", AFF1, "check", "nijenhuis", "--kind", "strong"),
    ("--scenario", AFF1, "--format", "json", "--format", "text", "validate"),  # twice
    ("--scenario", AFF1, "bracket", "--left", "N2", "--right", "N2", "--left=N3"),
]


@pytest.mark.parametrize("argv", MALFORMED_ARGV,
                         ids=lambda argv: " ".join(argv).replace(AFF1, "aff1.json"))
def test_malformed_argv_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    usage, error = err.splitlines()
    assert usage.startswith("usage: rnforms --scenario FILE")
    assert error.startswith("input error: ")


def test_help_lists_every_command(capsys):
    for argv in (("-h",), ("--scenario", AFF1, "check", "--help")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: rnforms --scenario FILE")
        assert "  check nijenhuis --kind weak|coboundary|full\n" in out
        assert "  suite stienon-xu\n" in out


def test_options_with_equals_and_after_the_command_words(capsys):
    expected = run_cli(capsys, "--scenario", AFF1, "--format", "json",
                       "check", "nijenhuis", "--kind", "weak")
    assert expected[0] == 0
    for argv in (("--scenario=" + AFF1, "--format=json", "check", "nijenhuis", "--kind=weak"),
                 ("check", "nijenhuis", "--kind", "weak", "--format", "json",
                  "--scenario", AFF1),
                 ("--kind", "weak", "check", "--scenario", AFF1, "nijenhuis",
                  "--format=json")):
        assert run_cli(capsys, *argv) == expected, argv


# (argv, exit code, sha256 of stdout) of argv that the argparse-based CLI
# accepted, printed by it: text reports, the default format and "=" values,
# which the golden JSON hashes below do not cover
ACCEPTED_ARGV = [
    (("--scenario", str(SCENARIOS / "heisenberg3.json"), "check", "nijenhuis",
      "--kind=coboundary"), 0, "2d86697500592dcb854eb3409994c428b640665d3a55c93357efaf089be4f6aa"),
    (("--scenario=" + str(SCENARIOS / "so3.json"), "check", "pqn"), 1,
     "cea5d41df4e63db89dbfdbca8db970c12c36b06dbd0acb7bd3ee1c1d66d45e3f"),
    (("--scenario", AFF1, "--format", "text", "bracket", "--left=underlineN", "--right", "pi"),
     0, "a2a4b4a2a8159edc5d5a09afd813ef13fa7844facf4958935efc35e9e25404ab"),
    (("--scenario", str(SCENARIOS / "heisenberg3.json"), "suite", "witt"), 0,
     "a398d20a7559f5bcbbdb99e0cdf2da027aab224a759c020bbc56b21d7fa107fd"),
]


def test_accepted_argv_prints_the_same_bytes(capsys):
    for argv, expected_code, digest in ACCEPTED_ARGV:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (expected_code, ""), argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "--scenario", "/nonexistent.json", "validate")
    assert code == 2
    assert "input error" in err


def test_unreadable_scenario_exit_2(tmp_path, capsys):
    """A directory and a file that is not UTF-8 used to end in a traceback
    (exit 1, the code of a mathematical failure)."""
    not_utf8 = tmp_path / "utf16.json"
    not_utf8.write_bytes(b"\xff\xfe{\x00}\x00")
    for path in (tmp_path, not_utf8):
        code, out, err = run_cli(capsys, "--scenario", str(path), "validate")
        assert (code, out) == (2, "")
        assert err.startswith(f"input error: cannot read scenario file {path}: "), err


def test_broken_jacobi_exit_2(tmp_path, capsys):
    bad = {
        "name": "bad",
        "instance": {"lie_algebra": {
            "dim": 3, "basis": ["e1", "e2", "e3"],
            "brackets": {"e1,e2": {"e3": "1"}, "e1,e3": {"e1": "1"}}}},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run_cli(capsys, "--scenario", str(path), "validate")
    assert code == 2
    assert "(e1, e2, e3)" in err


def test_solvable_variant_loads(tmp_path, capsys):
    variant = {
        "name": "aff-variant",
        "instance": {"lie_algebra": {
            "dim": 2, "basis": ["e1", "e2"],
            "brackets": {"e1,e2": {"e1": "1", "e2": "1"}}}},
    }
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(variant))
    code, out, _ = run_cli(capsys, "--scenario", str(path), "validate")
    assert code == 0


def test_bracket_recognition(capsys):
    code, out, _ = run_cli(capsys, "--scenario", str(SCENARIOS / "heisenberg3.json"),
                           "bracket", "--left", "N2", "--right", "N3")
    assert code == 0
    assert "2*N4" in out
    code, out, _ = run_cli(capsys, "--scenario", str(SCENARIOS / "heisenberg3.json"),
                           "bracket", "--left", "N2", "--right", "l2")
    assert "l3" in out
    code, out, _ = run_cli(capsys, "--scenario", str(SCENARIOS / "aff1.json"),
                           "bracket", "--left", "l2", "--right", "l3")
    assert code == 0
    assert "0" in out
    for name, left, right, detail in RECOGNIZED:
        code, out, err = run_cli(capsys, "--scenario", str(SCENARIOS / f"{name}.json"),
                                 "--format", "json", "bracket", "--left", left,
                                 "--right", right)
        assert (code, err) == (0, ""), (name, left, right)
        assert json.loads(out)["checks"][0]["detail"] == detail, (name, left, right)


# (scenario, left, right, the recognized bracket): sums and multiples of
# catalog forms, zero, and a component outside the catalog named by its
# first nonzero canonical tuple and the value there
RECOGNIZED = [
    ("aff1", "underlineN", "pi", "<arity-0 form outside the catalog; value at () is (-4)*e1^e2>"),
    ("heisenberg3", "underlineN", "underlineH",
     "<arity-3 form outside the catalog; value at ('e1', 'e2', 'e3') is (-3)*1>"),
    ("poly-tangent-r2", "underlineOmega", "pi",
     "<arity-1 form outside the catalog; value at ('a1',) is (x2)*a1>"),
    ("heisenberg3", "N2 + N3", "l2", "l3 + l4"),
    ("heisenberg3", "N1", "N4", "3*N4"),
    ("abelian2", "N2", "l2", "0"),
]


def test_bracket_recognition_reads_only_certificates():
    """Recognizing [l2, l3] = 0 on a 5-dimensional Heisenberg algebra reads
    each component through its certificate (the order family), not every
    canonical tuple of the window: 13,650 memo entries when it did."""
    raw = {"name": "heisenberg5",
           "instance": {"lie_algebra": {
               "dim": 5, "basis": ["e1", "e2", "e3", "e4", "e5"],
               "brackets": {"e1,e2": {"e5": "1"}, "e3,e4": {"e5": "1"}}}}}
    scenario = build_scenario(raw)
    report = cmd_bracket(scenario, {"left": "l2", "right": "l3"})
    assert report.checks[0].detail == "0"
    entries = sum(len(node._memo) for node in scenario.instance._form_nodes.values())
    assert entries < 1000, entries


def test_bracket_grammar(capsys):
    scenario = load_shipped("heisenberg3")
    expr = parse_form_expression("2/3 N2 + N3 - 1 N2", scenario)
    assert set(expr.components) == {2, 3}
    with pytest.raises(InputError):
        parse_form_expression("frob3", scenario)
    with pytest.raises(InputError):
        parse_form_expression("N2 + underlineN", scenario)
    with pytest.raises(InputError):
        # degree-0 and degree-1 generators cannot share one family
        parse_form_expression("N2 + l3", scenario)
    with pytest.raises(InputError):
        parse_form_expression("", scenario)
    with pytest.raises(InputError, match="1/0"):
        parse_form_expression("1/0*N2", scenario)
    code, out, err = run_cli(capsys, "--scenario", str(SCENARIOS / "heisenberg3.json"),
                             "bracket", "--left", "1/0*N2", "--right", "N1")
    assert (code, out) == (2, "")
    assert "1/0" in err


@pytest.mark.parametrize("expression", ("N2 +", "N2 + + N3", "N2 ++N3", "+", "N2 -",
                                        "N2 -+N3", "N2 - -N3"))
def test_bracket_dangling_or_doubled_sign_exit_2(capsys, expression):
    """A sign with no term after it, or two signs that are not "+-", is an
    input error, never a dropped term."""
    code, out, err = run_cli(capsys, "--scenario", str(SCENARIOS / "heisenberg3.json"),
                             "bracket", "--left", expression, "--right", "N1")
    assert (code, out) == (2, "")
    assert repr(expression.strip()) in err


def test_bracket_signs_between_terms():
    scenario = load_shipped("heisenberg3")
    for text, coefficient in (("N2 - N3", -1), ("N2 + -N3", -1), ("N2 +-N3", -1),
                              ("N2 + N3", 1), ("N2+N3", 1), ("N2 - 3/2 N3", Fraction(-3, 2))):
        expr = parse_form_expression(text, scenario)
        assert list(expr.component(3).linear_terms().values()) == [coefficient], text
        assert list(expr.component(2).linear_terms().values()) == [1], text
    for text in ("+N2", "+-N2", "-N2", " + N2"):
        expr = parse_form_expression(text, scenario)
        assert list(expr.component(2).linear_terms().values()) == [
            -1 if "-" in text else 1], text


@pytest.mark.parametrize("name", ("l0", "l1", "N0"))
def test_bracket_out_of_range_term_is_named(capsys, name):
    code, out, err = run_cli(capsys, "--scenario", str(SCENARIOS / "heisenberg3.json"),
                             "bracket", "--left", name, "--right", "N1")
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: {name}:"), err


def test_bracket_underline_terms(capsys):
    code, out, _ = run_cli(capsys, "--scenario", str(SCENARIOS / "heisenberg3.json"),
                           "bracket", "--left", "underlineN", "--right", "underlineH")
    assert code == 0


def test_check_exit_codes(capsys):
    code, _, _ = run_cli(capsys, "--scenario", str(SCENARIOS / "aff1.json"),
                         "check", "linfty")
    assert code == 0
    code, _, _ = run_cli(capsys, "--scenario", str(SCENARIOS / "aff1.json"),
                         "check", "nijenhuis", "--kind", "full")
    assert code == 0
    code, _, _ = run_cli(capsys, "--scenario", str(SCENARIOS / "aff1.json"),
                         "check", "pqn")
    assert code == 0


def test_mathematical_failure_exit_1(tmp_path, capsys):
    # so3's shipped N = diag(1,1,2) has torsion, so the full check fails
    code, out, _ = run_cli(capsys, "--scenario", str(SCENARIOS / "so3.json"),
                           "check", "nijenhuis", "--kind", "full")
    assert code == 1
    assert "status: fail" in out


def test_polynomial_dual_form_labels(tmp_path, capsys):
    # N = diag(1, x1) does not commute with pi# for pi = x1 a1^a2, so
    # condition (b) fails on the unit duals, printed as dual-form labels
    raw = {
        "name": "poly-labels",
        "instance": {"poly_algebroid": {
            "base_dim": 2, "coordinates": ["x1", "x2"], "rank": 2, "generators": ["a1", "a2"],
            "anchor": [[{"1": "1"}, "0"], ["0", {"1": "1"}]], "brackets": {}}},
        "grading": "shifted2",
        "data": {"pi": {"a1^a2": {"x1": "1"}}, "N": [["1", "0"], ["0", {"x1": "1"}]]},
    }
    path = tmp_path / "poly-labels.json"
    path.write_text(json.dumps(raw))
    code, out, _ = run_cli(capsys, "--scenario", str(path), "check", "pqn")
    assert code == 1
    assert "      counterexample: (a,b) = (a1*, a2*)" in out.splitlines()
    code, out, _ = run_cli(capsys, "--scenario", str(path), "--format", "json", "check", "pqn")
    assert code == 1
    conditions = {c["name"]: c for c in json.loads(out)["checks"]}
    assert conditions["condition (b)"]["counterexample"] == "(a,b) = (a1*, a2*)"


def test_json_determinism(capsys):
    args = ("--scenario", str(SCENARIOS / "aff1.json"), "--format", "json",
            "check", "linfty")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["status"] == "pass"
    assert payload["exit_code"] == 0
    assert all(c["anchor"] for c in payload["checks"])


# (scenario, key path, value) of values of the wrong JSON type; _MISSING
# removes the key.  Each used to raise a traceback (exit 1), or to load
# misread data: "a": "01" as ["0", "1"], "i_max": "4" as 4.
_MISSING = object()
SHAPE_ERRORS = [
    ("aff1", ("name",), 5),
    ("aff1", ("name",), ["aff1"]),
    ("aff1", ("instance", "lie_algebra", "dim"), _MISSING),
    ("aff1", ("instance", "lie_algebra", "dim"), "two"),
    ("aff1", ("instance", "lie_algebra", "dim"), 2.0),
    ("aff1", ("instance", "lie_algebra", "dim"), True),
    ("aff1", ("instance", "lie_algebra", "basis"), "e1e2"),
    ("aff1", ("instance", "lie_algebra", "brackets"), [["e1", "e2"]]),
    ("aff1", ("instance", "lie_algebra", "brackets", "e1,e2"), [["e2", "1"]]),
    ("aff1", ("data", "N"), 5),
    ("aff1", ("data", "N"), ["12", "34"]),
    ("aff1", ("data", "pi"), ["e1^e2"]),
    ("aff1", ("data", "omega"), "x"),
    ("aff1", ("data", "alpha"), 1),
    ("aff1", ("data", "n"), "x"),
    ("aff1", ("data", "n"), 2.5),
    ("aff1", ("data", "a"), "01"),
    ("aff1", ("data", "b"), "1"),
    ("aff1", ("suite", "i_max"), "4"),
    ("aff1", ("suite", "m_max"), False),
    ("poly-tangent-r2", ("instance", "poly_algebroid", "base_dim"), _MISSING),
    ("poly-tangent-r2", ("instance", "poly_algebroid", "rank"), "2"),
    ("poly-tangent-r2", ("instance", "poly_algebroid", "coordinates"), "x1x2"),
    ("poly-tangent-r2", ("instance", "poly_algebroid", "generators"), {"a1": 1}),
    ("poly-tangent-r2", ("instance", "poly_algebroid", "anchor"), 3),
    ("poly-tangent-r2", ("instance", "poly_algebroid", "anchor"), [[{"1": "1"}, "0"]]),
    ("poly-tangent-r2", ("suite", "poly_degree_bound"), 1.0),
]


def _edited(name, path, value):
    raw = json.loads((SCENARIOS / f"{name}.json").read_text())
    block = raw
    for key in path[:-1]:
        block = block[key]
    if value is _MISSING:
        del block[path[-1]]
    else:
        block[path[-1]] = value
    return raw


def test_scenario_shape_errors(tmp_path, capsys):
    base = json.loads((SCENARIOS / "aff1.json").read_text())
    base["data"]["N"] = [["1"]]
    with pytest.raises(InputError):
        build_scenario(base)
    base = json.loads((SCENARIOS / "aff1.json").read_text())
    base["data"]["pi"] = {"e1": "1"}
    with pytest.raises(InputError):
        build_scenario(base)
    base = json.loads((SCENARIOS / "aff1.json").read_text())
    base["data"]["H"] = {"e1^e2^e3": "1"}
    with pytest.raises(InputError):
        build_scenario(base)
    for name, path, value in SHAPE_ERRORS:
        with pytest.raises(InputError, match=re.escape(path[-1])):
            build_scenario(_edited(name, path, value))
    bad_power = _edited("poly-tangent-r2", ("data", "omega"), {"a1^a2": {"x2^b": "1"}})
    with pytest.raises(InputError, match="bad exponent 'b'"):
        build_scenario(bad_power)
    # "x2^" used to read as x2
    no_power = _edited("poly-tangent-r2", ("data", "omega"), {"a1^a2": {"x2^": "1"}})
    with pytest.raises(InputError, match="bad exponent '' in monomial 'x2\\^'"):
        build_scenario(no_power)
    # "a": "01" used to load as ["0", "1"] and pass
    path = tmp_path / "string_pencil.json"
    path.write_text(json.dumps(_edited("aff1", ("data", "a"), "01")))
    code, out, err = run_cli(capsys, "--scenario", str(path), "check", "linfty")
    assert (code, out) == (2, "")
    assert err == "input error: data.a must be a list, got '01'\n"


def test_unknown_scenario_keys_exit_2(tmp_path, capsys):
    # misspelled omega, suite and pi used to load as defaults and pass
    raw = json.loads((SCENARIOS / "aff1.json").read_text())
    raw["data"]["omgea"] = {"e1^e2": "1"}
    raw["sute"] = raw.pop("suite")
    raw["data"]["pi "] = raw["data"].pop("pi")
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "--scenario", str(path), "check", "pqn")
    assert code == 2
    assert "status: pass" not in out
    assert "'sute'" in err
    for level, key in (("data", "omgea"), ("data", "pi "), ("suite", "imax")):
        raw = json.loads((SCENARIOS / "aff1.json").read_text())
        raw[level][key] = "1"
        with pytest.raises(InputError, match=repr(key)):
            build_scenario(raw)
    for block in ("lie_algebra", "poly_algebroid"):
        name = "aff1" if block == "lie_algebra" else "poly-tangent-r2"
        raw = json.loads((SCENARIOS / f"{name}.json").read_text())
        raw["instance"][block]["bracket"] = {}
        with pytest.raises(InputError, match="'bracket'"):
            build_scenario(raw)
    raw = json.loads((SCENARIOS / "aff1.json").read_text())
    raw["instance"]["lie_algbra"] = raw["instance"]["lie_algebra"]
    with pytest.raises(InputError, match="instance"):
        build_scenario(raw)
    # both instance blocks used to load the Lie algebra and drop the other
    raw = json.loads((SCENARIOS / "aff1.json").read_text())
    poly = json.loads((SCENARIOS / "poly-tangent-r2.json").read_text())
    raw["instance"].update(poly["instance"])
    path = tmp_path / "two_instances.json"
    path.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "--scenario", str(path), "validate")
    assert (code, out) == (2, "")
    assert "'lie_algebra'" in err and "'poly_algebroid'" in err, err
    with pytest.raises(InputError):
        build_scenario(["not", "an", "object"])


def _repeated(name, path, key, value):
    """The text of a shipped scenario whose object at ``path`` repeats
    ``key`` verbatim, with ``value``, after its other keys."""
    raw = json.loads((SCENARIOS / f"{name}.json").read_text())
    block = raw
    for part in path[:-1]:
        block = block[part]
    inner = json.dumps(block[path[-1]])
    block[path[-1]] = "@repeated@"
    return json.dumps(raw).replace(
        '"@repeated@"', f"{inner[:-1]}, {json.dumps(key)}: {json.dumps(value)}}}")


def _duplicate_names():
    """(scenario, message) for a repeated basis, coordinate and generator
    name, for a key repeated verbatim, for two keys that name the same
    bracket pair, monomial or polynomial term, and for a name list of the
    wrong length.  A scenario is a dict or, for a repeated key, JSON text.
    Each but one used to load and pass validate, "x1" meaning the second
    coordinate, the later of two repeated or aliased keys silently replacing
    the earlier, two aliased polynomial terms being summed, an empty list
    reading as the default names; one coordinate short ended in a traceback
    (exit 1)."""
    lie = {"instance": {"lie_algebra": {"dim": 2, "basis": ["e1", "e1"]}}}
    coordinates = _edited("poly-tangent-r2", ("instance", "poly_algebroid", "coordinates"),
                          ["x1", "x1"])
    coordinates["data"].update(omega={"a1^a2": {"x1": "1"}}, alpha={"a1^a2": {"x1^2": "1"}})
    generators = _edited("poly-tangent-r2", ("instance", "poly_algebroid", "generators"),
                         ["a1", "a1"])
    generators["data"] = {}
    brackets = _edited("aff1", ("instance", "lie_algebra", "brackets"),
                       {"e1,e2": {"e2": "1"}, "e1, e2": {"e1": "1"}})
    pi = _edited("aff1", ("data", "pi"), {"e1^e2": "1", "e1 ^ e2": "-1"})
    omega = _edited("poly-tangent-r2", ("data", "omega"),
                    {"a1^a2": {"x2": "1"}, "a1 ^ a2": {"x1": "1"}})
    H = _edited("heisenberg3", ("data", "H"), {"e1^e2^e3": "1", "e1 ^ e2^e3": "2"})
    alpha = _edited("poly-tangent-r2", ("data", "alpha"), {"a1^a2": "1", " a1^a2": "2"})
    basis = _edited("aff1", ("instance", "lie_algebra", "basis"), [])
    no_coordinates = _edited("poly-tangent-r2", ("instance", "poly_algebroid", "coordinates"),
                             [])
    no_generators = _edited("poly-tangent-r2", ("instance", "poly_algebroid", "generators"), [])
    one_coordinate = _edited("poly-tangent-r2", ("instance", "poly_algebroid", "coordinates"),
                             ["x1"])
    one_generator = _edited("poly-tangent-r2", ("instance", "poly_algebroid", "generators"),
                            ["a1"])
    repeated_pi = _repeated("aff1", ("data",), "pi", {})
    repeated_lie = _repeated("aff1", ("instance", "lie_algebra"), "brackets", {})
    # aliased polynomial terms; each sum is a valid scenario (the shipped
    # anchor and N where the second term is 0)
    poly_omega = _edited("poly-tangent-r2", ("data", "omega"),
                         {"a1^a2": {"x1 x2": "1", "x2 x1": "1"}})
    poly_N = _edited("poly-tangent-r2", ("data", "N", 0, 0),
                     {"1": "1", "x1^2": "1", "x1 x1": "0"})
    poly_anchor = _edited("poly-tangent-r2", ("instance", "poly_algebroid", "anchor", 0, 0),
                          {"1": "1", "x1^0": "0"})
    return [(repeated_pi, "repeated key 'pi' in a JSON object"),
            (repeated_lie, "repeated key 'brackets' in a JSON object"),
            (poly_omega, "polynomial keys 'x1 x2' and 'x2 x1' name the same monomial"),
            (poly_N, "polynomial keys 'x1^2' and 'x1 x1' name the same monomial"),
            (poly_anchor, "polynomial keys '1' and 'x1^0' name the same monomial"),
            (lie, "duplicate basis name 'e1'"),
            (coordinates, "duplicate coordinate name 'x1'"),
            (generators, "duplicate generator name 'a1'"),
            (brackets, "bracket keys 'e1,e2' and 'e1, e2' name the same pair"),
            (pi, "data.pi keys 'e1^e2' and 'e1 ^ e2' name the same monomial"),
            (omega, "data.omega keys 'a1^a2' and 'a1 ^ a2' name the same monomial"),
            (H, "data.H keys 'e1^e2^e3' and 'e1 ^ e2^e3' name the same monomial"),
            (alpha, "data.alpha keys 'a1^a2' and ' a1^a2' name the same monomial"),
            (basis, "basis name count does not match dimension"),
            (no_coordinates, "coordinate name count does not match base dimension"),
            (no_generators, "generator name count does not match rank"),
            (one_coordinate, "coordinate name count does not match base dimension"),
            (one_generator, "generator name count does not match rank")]


def test_duplicate_names_exit_2(tmp_path, capsys):
    for n, (raw, message) in enumerate(_duplicate_names()):
        scenario = tmp_path / f"duplicate{n}.json"
        scenario.write_text(raw if isinstance(raw, str) else json.dumps(raw))
        for command in (("validate",), ("check", "nijenhuis", "--kind", "weak")):
            code, out, err = run_cli(capsys, "--scenario", str(scenario), *command)
            assert (code, out, err) == (2, "", f"input error: {message}\n"), (message, command)
    with pytest.raises(InputError, match="duplicate generator name 'a2'"):
        PolyAlgebroidData(1, 3, generator_names=("a1", "a2", "a2"))
    with pytest.raises(InputError, match="duplicate basis name 'f'"):
        LieAlgebraData(3, basis_names=("f", "g", "f"))


EMPTY_SUITE_BOUNDS = [
    # (scenario, suite field, value, command, message); each used to run no
    # check at all, or one over a degenerate family, and report a pass
    ("aff1", "i_max", 0, ("suite", "witt"),
     "the intertwining suite bound i_max must be >= 1"),
    ("aff1", "i_max", 0, ("suite", "lemma"), "suite bounds must be >= 2"),
    ("poly-tangent-r2", "poly_degree_bound", -2, ("suite", "lemma"),
     "suite.poly_degree_bound must be >= 0, got -2"),
    ("poly-tangent-r2", "poly_degree_bound", -2, ("suite", "main-theorem"),
     "suite.poly_degree_bound must be >= 0, got -2"),
]


def test_empty_suite_bounds_exit_2(tmp_path, capsys):
    for name, key, value, command, message in EMPTY_SUITE_BOUNDS:
        path = tmp_path / f"{name}-{key}.json"
        path.write_text(json.dumps(_edited(name, ("suite", key), value)))
        code, out, err = run_cli(capsys, "--scenario", str(path), "--format", "json",
                                 *command)
        assert (code, out, err) == (2, "", f"input error: {message}\n"), (name, key, command)
    assert build_scenario(_edited("poly-tangent-r2", ("suite", "poly_degree_bound"), 0)) \
        .poly_degree_bound == 0
    with pytest.raises(InputError, match="k_max >= 2"):
        pairwise_compatibility(load_shipped("aff1").instance, 1, Report("check linfty", "aff1"))


def test_scenario_round_trip_matches_builders(aff, h3):
    s = load_shipped("aff1")
    assert s.instance.rank == aff.rank
    e1, e2 = s.instance.generator(0), s.instance.generator(1)
    assert s.instance.sn_bracket(e1, e2) == aff.sn_bracket(aff.generator(0),
                                                           aff.generator(1))
    h = load_shipped("heisenberg3")
    assert h.instance.sn_bracket(h.instance.generator(0), h.instance.generator(1)) \
        == h3.sn_bracket(h3.generator(0), h3.generator(1))


def _shrunk(tmp_path, name, bounds=2, flip_grading=False):
    raw = json.loads((SCENARIOS / f"{name}.json").read_text())
    raw.setdefault("suite", {})
    raw["suite"].update({"i_max": bounds, "m_max": bounds, "n_max": bounds})
    if flip_grading:
        raw["grading"] = {"negated": "shifted2", "shifted2": "negated"}[raw["grading"]]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    return str(path)


EXIT_MATRIX = {
    # command key -> {scenario: expected exit code}
    ("validate",): dict.fromkeys(
        ("aff1", "heisenberg3", "so3", "abelian2", "poly-tangent-r2"), 0),
    ("bracket", "--left", "N2", "--right", "N2"): dict.fromkeys(
        ("aff1", "heisenberg3", "so3", "abelian2", "poly-tangent-r2"), 0),
    ("check", "linfty"): dict.fromkeys(
        ("aff1", "heisenberg3", "so3", "abelian2", "poly-tangent-r2"), 0),
    ("check", "nijenhuis", "--kind", "weak"): dict.fromkeys(
        ("aff1", "heisenberg3", "so3", "abelian2", "poly-tangent-r2"), 0),
    ("check", "nijenhuis", "--kind", "coboundary"): dict.fromkeys(
        ("aff1", "heisenberg3", "so3", "abelian2", "poly-tangent-r2"), 0),
    ("check", "nijenhuis", "--kind", "full"): {
        "aff1": 0, "heisenberg3": 0, "so3": 1, "abelian2": 0, "poly-tangent-r2": 0},
    ("check", "pqn"): {
        "aff1": 0, "heisenberg3": 0, "so3": 1, "abelian2": 0, "poly-tangent-r2": 0},
    ("suite", "lemma"): {
        "aff1": 0, "heisenberg3": 0, "so3": 0, "abelian2": 0, "poly-tangent-r2": 0},
    ("suite", "witt"): {
        "aff1": 0, "heisenberg3": 0, "so3": 0, "abelian2": 0, "poly-tangent-r2": 2},
    ("suite", "main-theorem"): {
        "aff1": 0, "heisenberg3": 0, "so3": 1, "abelian2": 0, "poly-tangent-r2": 0},
    ("suite", "stienon-xu"): {
        "aff1": 0, "heisenberg3": 2, "so3": 2, "abelian2": 0, "poly-tangent-r2": 0},
}


REPORT_HASHES = Path(__file__).with_name("report_hashes.json")


def _report_hashes(tmp_path, capsys, flip_grading=False):
    """sha256 of the JSON report of every EXIT_MATRIX pair, keyed
    "scenario: command"; asserts each pair's exit code on the way."""
    paths = {name: _shrunk(tmp_path, name, flip_grading=flip_grading)
             for name in ("aff1", "heisenberg3", "so3", "abelian2", "poly-tangent-r2")}
    hashes = {}
    for command, expectations in EXIT_MATRIX.items():
        for name, expected in expectations.items():
            code, out, _ = run_cli(capsys, "--scenario", paths[name], "--format", "json",
                                   *command)
            assert code == expected, (command, name, code, expected)
            hashes[f"{name}: {' '.join(command)}"] = hashlib.sha256(out.encode()).hexdigest()
    return hashes


def test_exit_code_contract_on_every_shipped_scenario(tmp_path, capsys):
    # the golden hashes pin every report byte for byte; regenerate them
    # only for an intended report change
    assert _report_hashes(tmp_path, capsys) == json.loads(REPORT_HASHES.read_text())


def test_grading_is_validated_and_changes_no_report(tmp_path, capsys):
    """Each command names the grading of the forms it builds, so the
    scenario key builds nothing: with the other grading every report is
    byte for byte the same.  A misspelled grading is still an input error."""
    assert (_report_hashes(tmp_path, capsys, flip_grading=True)
            == json.loads(REPORT_HASHES.read_text()))
    raw = json.loads((SCENARIOS / "aff1.json").read_text())
    raw["grading"] = "negatd"
    path = tmp_path / "misspelled.json"
    path.write_text(json.dumps(raw))
    assert run_cli(capsys, "--scenario", str(path), "validate") == (
        2, "", "input error: unknown grading convention 'negatd'\n")


def _console_command():
    """(argv, env) of the installed console script, or else of its
    [project.scripts] target in pyproject.toml, run in a fresh interpreter
    with src on PYTHONPATH."""
    exe = shutil.which("rnforms")
    if exe is not None:
        return [exe], None
    scripts = (SRC.parent / "pyproject.toml").read_text().split("[project.scripts]")[1]
    module, function = re.search(r'^rnforms\s*=\s*"([\w.]+):(\w+)"', scripts, re.M).groups()
    code = f"import sys\nfrom {module} import {function}\nsys.exit({function}())"
    return [sys.executable, "-c", code], {**os.environ, "PYTHONPATH": str(SRC)}


def test_console_entry_point():
    command, env = _console_command()
    result = subprocess.run(
        [*command, "--scenario", str(SCENARIOS / "aff1.json"), "validate"],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert "status: pass" in result.stdout


def _python(code, pythonpath):
    """Run ``code`` in a fresh interpreter with only ``pythonpath`` on
    PYTHONPATH; its stdout, or a failure with its stderr."""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(pythonpath)})
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_adds_no_introspection_modules():
    """Every command pays for its imports: importing the CLI must not pull
    in dataclasses or its chain (inspect, ast, dis, tokenize), nor argparse
    and the gettext it imports."""
    code = "import sys\n{}\nprint(' '.join(sorted(sys.modules)))"
    bare = set(_python(code.format("pass"), SRC).split())
    added = set(_python(code.format("import rnforms.cli"), SRC).split()) - bare
    assert "rnforms.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize",
                        "argparse", "gettext"}, sorted(added)


def test_load_shipped_from_a_zipped_install(tmp_path):
    archive = tmp_path / "rnforms.zip"
    with zipfile.ZipFile(archive, "w") as zipped:
        for path in sorted((SRC / "rnforms").rglob("*")):
            if path.suffix in (".py", ".json"):
                zipped.write(path, path.relative_to(SRC).as_posix())
    out = _python("import rnforms.scenario as s\n"
                  "assert s.__file__.startswith(%r), s.__file__\n"
                  "scenario = s.load_shipped('aff1')\n"
                  "print(scenario.name, scenario.preconditions.passed)" % str(archive),
                  archive)
    assert out.split() == ["aff1", "True"]
