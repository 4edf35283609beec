import ast
import decimal
import hashlib
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import time
import zipfile
from fractions import Fraction
from pathlib import Path

import pytest

from rnforms import cli
from rnforms.catalog import l2_form
from rnforms.cli import cmd_bracket, main, parse_form_expression
from rnforms.forms import is_zero
from rnforms.graded import GradingConvention
from rnforms.instances import LieAlgebraData, PolyAlgebroidData
from rnforms.linfty import (coefficient_suite, deformed_instance,
                            nijenhuis_deformation_theorem_check, pairwise_compatibility)
from rnforms.pqn import main_theorem_harness, stienon_xu_harness
from rnforms.report import Report
from rnforms.rings import InputError
from rnforms.scenario import INDEX_LIMIT, build_scenario, load_scenario, load_shipped

from report_hashes import (EXIT_MATRIX, FAILING_PQN_REPORTS, PINNED, failing_pqn_reports,
                           report_hashes)

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
    expr, grading = parse_form_expression("2/3 N2 + N3 - 1 N2", scenario)
    assert (set(expr.components), grading) == ({2, 3}, GradingConvention.NEGATED)
    expr, grading = parse_form_expression("pi - underlineN", load_shipped("aff1"))
    assert (set(expr.components), grading) == ({0, 1}, GradingConvention.SHIFTED2)
    with pytest.raises(InputError):
        parse_form_expression("frob3", scenario)
    with pytest.raises(InputError, match="term 'underlineN' uses the shifted2 convention,"
                                         " earlier terms use negated"):
        parse_form_expression("N2 + underlineN", scenario)
    with pytest.raises(InputError, match=re.escape("distinct convention degrees [0, 1]")):
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
    for left, right in (("N2", "underlineN"), ("underlineH", "l2")):
        code, out, err = run_cli(capsys, "--scenario", str(SCENARIOS / "heisenberg3.json"),
                                 "bracket", "--left", left, "--right", right)
        assert (code, out, err) == (
            2, "", "input error: mixing grading conventions in an insertion\n")


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
        expr, _ = parse_form_expression(text, scenario)
        assert list(expr.component(3).linear_terms().values()) == [coefficient], text
        assert list(expr.component(2).linear_terms().values()) == [1], text
    for text in ("+N2", "+-N2", "-N2", " + N2"):
        expr, _ = parse_form_expression(text, scenario)
        assert list(expr.component(2).linear_terms().values()) == [
            -1 if "-" in text else 1], text


@pytest.mark.parametrize("name", ("l0", "l1", "N0"))
def test_bracket_out_of_range_term_is_named(capsys, name):
    code, out, err = run_cli(capsys, "--scenario", str(SCENARIOS / "heisenberg3.json"),
                             "bracket", "--left", name, "--right", "N1")
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: {name}:"), err


def test_bracket_indices_stop_at_the_index_limit(capsys):
    scenario = load_shipped("heisenberg3")
    for name in (f"N{INDEX_LIMIT}", f"l{INDEX_LIMIT}", f"N0{INDEX_LIMIT}"):
        assert list(parse_form_expression(name, scenario)[0].components) == [INDEX_LIMIT]
    # past 4300 digits int() itself would refuse the index, with exit 3
    for name in (f"N{INDEX_LIMIT + 1}", f"l{INDEX_LIMIT + 1}", "N" + "9" * 5000):
        code, out, err = run_cli(capsys, "--scenario", str(SCENARIOS / "heisenberg3.json"),
                                 "bracket", "--left", "N1", "--right", name)
        assert (code, out, err) == (2, "", f"input error: {name}: indices above"
                                    f" {INDEX_LIMIT} (the index limit) are refused\n")


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


# [c*l2, c*N3] = -c^2 l4 on heisenberg3: with c of 2200 digits the label's
# ratio has 4400, past Python's default limit on int-to-str conversion (4300)
HUGE = "7" * 2200
HUGE_LABEL = ("--scenario", str(SCENARIOS / "heisenberg3.json"),
              "bracket", "--left", f"{HUGE}*l2", "--right", f"{HUGE}*N3")


def test_a_rational_of_any_size_is_printed(capsys):
    c = int(HUGE)
    code, out, err = run_cli(capsys, *HUGE_LABEL)
    label = f"-{decimal.Decimal(c * c)}*l4"
    assert (code, err, len(label)) == (0, "", 4404)
    assert f"\n      {label}\n" in out


# a numeral past that limit on input, which ``Fraction`` raises as a malformed
# number: refused by its length, with a 20-digit prefix, not echoed in full
LONG = "7" * 5000
LONG_ERROR = ("input error: rational number of 5000 digits, past the limit of 4300"
              f" digits per integer: '{LONG[:20]}'...\n")


def test_a_numeral_past_the_digit_limit_is_refused_by_its_length(tmp_path, capsys):
    raw = json.loads((SCENARIOS / "heisenberg3.json").read_text())
    raw["data"]["lambda"] = LONG
    path = tmp_path / "long-lambda.json"
    path.write_text(json.dumps(raw))
    bracket = ("--scenario", str(SCENARIOS / "heisenberg3.json"), "bracket", "--right", "N3")
    assert run_cli(capsys, *bracket, "--left", f"{LONG}*l2") == (2, "", LONG_ERROR)
    assert run_cli(capsys, "--scenario", str(path), "validate") == (2, "", LONG_ERROR)
    # an ordinary malformed numeral keeps its message
    assert run_cli(capsys, *bracket, "--left", "7/0*l2") == (
        2, "", "input error: not a rational number: '7/0'\n")


def test_a_polynomial_exponent_past_the_digit_limit_is_refused(tmp_path, capsys):
    # int() of the exponent raised past 4300 digits, an internal error (exit 3)
    raw = json.loads((SCENARIOS / "poly-tangent-r2.json").read_text())
    raw["data"]["pi"] = {"a1^a2": {"x1^" + "9" * 5000: "1"}}
    path = tmp_path / "long-exponent.json"
    path.write_text(json.dumps(raw))
    assert run_cli(capsys, "--scenario", str(path), "validate") == (2, "", (
        "input error: rational number of 5000 digits, past the limit of 4300 digits per"
        f" integer: '{'9' * 20}'...\n"))


def test_a_polynomial_exponent_of_any_size_is_printed(tmp_path, capsys):
    # omega = pi = x1^e a1^a2 with e of 4300 digits: the bracket's exponent
    # 2e has 4301, which str() of an int refused (exit 3)
    e = 10**4300 - 1
    raw = json.loads((SCENARIOS / "poly-tangent-r2.json").read_text())
    raw["data"]["pi"] = raw["data"]["omega"] = {"a1^a2": {f"x1^{decimal.Decimal(e)}": "1"}}
    path = tmp_path / "long-exponent.json"
    path.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "--scenario", str(path), "bracket",
                             "--left", "underlineOmega", "--right", "pi")
    exponent = str(decimal.Decimal(2 * e))
    assert (code, err, len(exponent)) == (0, "", 4301)
    assert f"x1^{exponent}" in out


@pytest.mark.parametrize("field", ["lambda", "n"])
def test_an_unquoted_json_integer_past_the_digit_limit_is_refused(field, tmp_path, capsys):
    # the literal reaches parse_rational as the JSON parser reads it, before
    # any int of 5000 digits is built (which the interpreter refuses)
    raw = json.loads((SCENARIOS / "heisenberg3.json").read_text())
    raw["data"][field] = "LONG"
    path = tmp_path / f"long-{field}.json"
    path.write_text(json.dumps(raw).replace('"LONG"', LONG))
    assert run_cli(capsys, "--scenario", str(path), "validate") == (2, "", LONG_ERROR)


def _crash(scenario, args):
    raise RuntimeError("planted crash")


# a crash that is no input: ``cli.dispatch`` raises, in-process (patched to
# ``_crash``) and in a process that patches it before the entry ``cli.run``
CRASH = ("--scenario", AFF1, "validate")
CRASH_ENTRY = ("-c", "from rnforms import cli\n"
                     "def crash(scenario, args):\n"
                     "    raise RuntimeError('planted crash')\n"
                     "cli.dispatch = crash\n"
                     "cli.run()\n")


def test_internal_error_exit_3(capsys, monkeypatch):
    # a crash, not a failed identity, so exit 3 with one line on stderr
    monkeypatch.setattr(cli, "dispatch", _crash)
    code, out, err = run_cli(capsys, *CRASH)
    assert (code, out, err) == (3, "", "internal error: RuntimeError: planted crash\n")


def test_polynomial_dual_form_labels(tmp_path, capsys):
    # N = diag(1, x1) does not commute with pi# for pi = x1 a1^a2, so
    # condition (b) fails on the unit duals, printed as dual-form labels
    raw = {
        "name": "poly-labels",
        "instance": {"poly_algebroid": {
            "base_dim": 2, "coordinates": ["x1", "x2"], "rank": 2, "generators": ["a1", "a2"],
            "anchor": [[{"1": "1"}, "0"], ["0", {"1": "1"}]], "brackets": {}}},
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


@pytest.mark.parametrize("path", [("suite", "i_max"), ("suite", "m_max"), ("suite", "n_max"),
                                  ("suite", "poly_degree_bound"), ("data", "n"),
                                  ("data", "a"), ("data", "b")], ids=".".join)
def test_index_limit_bounds_each_arity_of_a_scenario(path):
    assert INDEX_LIMIT == 12            # the messages name it
    where, listed = ".".join(path), path[-1] in ("a", "b")
    build_scenario(_edited("aff1", path, ["1"] * 12 if listed else 12))
    message = (f"{where} must have at most 12 entries (the index limit), got 13" if listed
               else f"{where} must be <= 12 (the index limit), got 13")
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        build_scenario(_edited("aff1", path, ["1"] * 13 if listed else 13))


# inputs that ran until they crashed (exit 3) before the index limit, or
# for minutes before the digit limit bounded an exponent:
# case -> (scenario, edit of its JSON or None, command, message)
EXPONENT_ERROR = ("rational number of 100000000 digits, past the limit of 4300 digits"
                  " per integer: '1e99999999'...")
RUNAWAY_INPUTS = {
    "N-index": ("heisenberg3", None, ("bracket", "--left", "N3", "--right",
                                      "N99999999999999999999"),
                "N99999999999999999999: indices above 12 (the index limit) are refused"),
    "l-index": ("heisenberg3", None, ("bracket", "--left", "l3", "--right", "l300"),
                "l300: indices above 12 (the index limit) are refused"),
    "data.n": ("abelian2", (("data", "n"), 1000000),
               ("check", "nijenhuis", "--kind", "coboundary"),
               "data.n must be <= 12 (the index limit), got 1000000"),
    "i_max-lemma": ("abelian2", (("suite", "i_max"), 1000), ("suite", "lemma"),
                    "suite.i_max must be <= 12 (the index limit), got 1000"),
    "i_max-witt": ("abelian2", (("suite", "i_max"), 1000), ("suite", "witt"),
                   "suite.i_max must be <= 12 (the index limit), got 1000"),
    "lambda-exponent": ("heisenberg3", (("data", "lambda"), "1e99999999"), ("validate",),
                        EXPONENT_ERROR),
    "a-exponent": ("heisenberg3", (("data", "a"), ["0", "1e99999999"]), ("validate",),
                   EXPONENT_ERROR),
}


def _address_space(limit):
    """A preexec function that caps the child's address space at ``limit`` bytes."""
    return lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("case", RUNAWAY_INPUTS)
def test_runaway_input_exits_2_at_once(tmp_path, case):
    """Under a 1 GB address-space cap on the child alone, each input exits 2
    within a second, start-up included; each used to overflow, run out of
    memory (exit 3) or compute a power of ten for minutes."""
    name, edit, command, message = RUNAWAY_INPUTS[case]
    path = SCENARIOS / f"{name}.json"
    if edit:
        path = tmp_path / path.name
        path.write_text(json.dumps(_edited(name, *edit)))
    start = time.monotonic()
    done = _spawn_cli("--scenario", str(path), *command, stdout=subprocess.PIPE,
                      preexec_fn=_address_space(1 << 30), timeout=60)
    elapsed = time.monotonic() - start
    assert (done.returncode, done.stdout, done.stderr) == (
        2, b"", f"input error: {message}\n".encode())
    assert elapsed < 1, elapsed


@pytest.mark.parametrize("side", ["N12", "l12"])
def test_top_arity_bracket_finishes_in_256mb(side):
    """[N12, N12] and [l12, l12] on heisenberg3, at the index limit: an
    insertion sums over the distinct splits of a key and builds no table of
    the C(23, 12) unshuffles, so each exits 0 within 2 s under a 256 MB
    address-space cap on the child alone (with that table, both ran out of
    memory)."""
    start = time.monotonic()
    done = _spawn_cli("--scenario", str(SCENARIOS / "heisenberg3.json"), "bracket",
                      "--left", side, "--right", side, stdout=subprocess.PIPE,
                      preexec_fn=_address_space(256 << 20), timeout=60)
    elapsed = time.monotonic() - start
    assert (done.returncode, done.stdout, done.stderr) == (0, (
        f"command: bracket\nscenario: heisenberg3\nPASS  [{side}, {side}]  ::  "
        "Richardson-Nijenhuis bracket\n      0\nstatus: pass\n").encode(), b"")
    assert elapsed < 2, elapsed


def test_deeply_nested_scenario_exits_2(tmp_path, capsys):
    """A name of 100,000 nested arrays overflows the JSON decoder's
    recursion limit: a parse error like any other, exit 2 (it was an
    internal error, exit 3), in-process and through the process entry."""
    path = tmp_path / "deep.json"
    path.write_text('{"name": ' + "[" * 100000 + "]" * 100000 + "}")
    argv = ("--scenario", str(path), "validate")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("input error: scenario does not parse: maximum recursion depth")
    assert err.count("\n") == 1
    done = _spawn_cli(*argv, stdout=subprocess.PIPE, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (2, b"", err.encode())


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
    with pytest.raises(InputError, match=re.escape("a 3-form needs rank >= 3")):
        build_scenario(base)
    # below rank 3 a data.H of the wrong type used to load silently
    for value in ([], "", 0, False):
        for name in ("aff1", "heisenberg3"):
            with pytest.raises(InputError, match="^data.H must be a JSON object$"):
                build_scenario(_edited(name, ("data", "H"), value))
    path = tmp_path / "list_background.json"
    path.write_text(json.dumps(_edited("aff1", ("data", "H"), [])))
    code, out, err = run_cli(capsys, "--scenario", str(path), "validate")
    assert (code, out, err) == (2, "", "input error: data.H must be a JSON object\n")
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
        .instance.poly_degree_bound == 0
    with pytest.raises(InputError, match="k_max >= 2"):
        pairwise_compatibility(load_shipped("aff1").instance, 1, Report("check linfty", "aff1"))


# command -> its certificates on poly-tangent-r2 at the shipped bounds
POLY_CERTIFICATES = {
    ("check", "linfty"): 1,
    ("check", "nijenhuis", "--kind", "weak"): 3,
    ("check", "nijenhuis", "--kind", "coboundary"): 4,
    ("check", "nijenhuis", "--kind", "full"): 5,
    ("suite", "lemma"): 24,
    ("suite", "main-theorem"): 6,
    ("suite", "stienon-xu"): 1,
}


@pytest.mark.parametrize("degree,size", [(2, 24), (0, 4)])
def test_declared_degree_reaches_every_certificate(tmp_path, capsys, degree, size):
    """suite.poly_degree_bound declares the instance's test family (4 basis
    multivectors times the coordinate monomials of degree <= the bound), and
    every certificate of every command covers that family: the CLI's 44,
    the library harnesses called on the instance with no family (the same
    bytes), and a certificate on the deformed instance."""
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(_edited("poly-tangent-r2", ("suite", "poly_degree_bound"),
                                       degree)))
    note = f"declared family of {size} elements"
    reports = {}
    for command, expected in POLY_CERTIFICATES.items():
        code, out, _ = run_cli(capsys, "--scenario", str(path), "--format", "json", *command)
        assert code == 0, command
        reports[command] = out
        certificates = [c for c in json.loads(out)["checks"] if c["complete"] is not None]
        assert len(certificates) == expected, command
        assert all(c["detail"].endswith(f"({note})") and c["complete"] is False
                   for c in certificates), command
    s = load_scenario(path)
    inst = s.instance
    assert inst.poly_degree_bound == degree
    library = {
        ("check", "nijenhuis", "--kind", "full"):
            nijenhuis_deformation_theorem_check(inst, s.N, s.pencil_coefficients),
        ("suite", "lemma"): coefficient_suite(inst, s.i_max, s.m_max, s.n_max),
        ("suite", "main-theorem"): main_theorem_harness(inst, s.pi, s.N, s.omega, s.H),
        ("suite", "stienon-xu"): stienon_xu_harness(inst, s.pi, s.N, s.omega, s.alpha),
    }
    for command, report in library.items():
        assert report.to_json() + "\n" == reports[command], command
    deformed = deformed_instance(inst, s.N)
    assert deformed.poly_degree_bound == degree
    assert is_zero(l2_form(deformed)).family_note == note


def test_a_bound_below_the_order_gives_no_false_value(tmp_path, capsys):
    """[l2, N3] = -l4 has order 1 and is nonzero at (1, 1, x2, a2).  At
    poly_degree_bound 0 the declared family holds no x_i, so each
    certificate walks its order family, and the bracket prints -1*l4 at
    bound 0 as at the shipped bound 1, not 0."""
    for bound in (0, 1):
        path = tmp_path / f"poly-{bound}.json"
        path.write_text(json.dumps(_edited("poly-tangent-r2", ("suite", "poly_degree_bound"),
                                           bound)))
        code, out, err = run_cli(capsys, "--scenario", str(path),
                                 "bracket", "--left", "l2", "--right", "N3")
        assert (code, err) == (0, ""), bound
        assert "\n      -1*l4\n" in out, bound


def test_scenario_round_trip_matches_builders(aff, h3):
    s = load_shipped("aff1")
    assert s.instance.rank == aff.rank
    e1, e2 = s.instance.generator(0), s.instance.generator(1)
    assert s.instance.sn_bracket(e1, e2) == aff.sn_bracket(aff.generator(0),
                                                           aff.generator(1))
    h = load_shipped("heisenberg3")
    assert h.instance.sn_bracket(h.instance.generator(0), h.instance.generator(1)) \
        == h3.sn_bracket(h3.generator(0), h3.generator(1))


def test_exit_code_contract_on_every_shipped_scenario(tmp_path):
    # the golden hashes pin every report byte for byte; regenerate them
    # only for an intended report change (tests/report_hashes.py runs the
    # same comparison without pytest)
    assert report_hashes(tmp_path) == json.loads(PINNED.read_text())


def test_pqn_reports_on_failing_scenarios(tmp_path):
    # pins the two harnesses and check pqn byte for byte where they fail
    assert failing_pqn_reports(tmp_path) == FAILING_PQN_REPORTS


def test_grading_is_validated_and_changes_no_report(tmp_path, capsys):
    """Each command names the grading of the forms it builds, so a scenario
    carries none: a "grading" key, well spelled or not, is an unknown key,
    an input error that prints no report under any command."""
    for grading in ("negated", "shifted2", "negatd"):
        raw = json.loads((SCENARIOS / "aff1.json").read_text())
        raw["grading"] = grading
        path = tmp_path / f"grading-{grading}.json"
        path.write_text(json.dumps(raw))
        for command in EXIT_MATRIX:
            assert run_cli(capsys, "--scenario", str(path), "--format", "json",
                           *command) == (
                2, "", "input error: unknown key 'grading' in scenario;"
                " expected one of ['data', 'instance', 'name', 'suite']\n")


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


def test_importing_a_module_loads_only_its_own_imports():
    """The package binds no names, so ``import rnforms`` runs no module
    and ``import rnforms.scenario`` runs only what scenario imports: not
    the form kernel, the catalog, the checkers or the report."""
    code = ("import sys\n{}\n"
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'rnforms')))")
    assert _python(code.format("import rnforms"), SRC).split() == ["rnforms"]
    assert _python(code.format("import rnforms.scenario"), SRC).split() == [
        "rnforms", "rnforms.dualforms", "rnforms.elements", "rnforms.graded",
        "rnforms.instances", "rnforms.rings", "rnforms.scenario"]


def test_readme_library_use_runs():
    """README's "Library use" block runs as written, and each expression
    whose line ends in a comment gives the value the comment starts with."""
    readme = (SRC.parent / "README.md").read_text()
    block = readme.split("\n## Library use\n")[1].split("```python\n")[1].split("\n```")[0]
    lines, namespace, checked = block.splitlines(), {}, 0
    for statement in ast.parse(block).body:
        code = ast.get_source_segment(block, statement)
        if not isinstance(statement, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        comment = lines[statement.end_lineno - 1].partition("  # ")[2]
        assert not comment or comment.startswith(repr(value)), (code, value)
        checked += bool(comment)
    assert checked == 3


def test_load_shipped_from_a_zipped_install(tmp_path):
    archive = tmp_path / "rnforms.zip"
    with zipfile.ZipFile(archive, "w") as zipped:
        for path in sorted((SRC / "rnforms").rglob("*")):
            if path.suffix in (".py", ".json"):
                zipped.write(path, path.relative_to(SRC).as_posix())
    out = _python("import rnforms.cli as c, rnforms.scenario as s\n"
                  "assert s.__file__.startswith(%r), s.__file__\n"
                  "scenario = s.load_shipped('aff1')\n"
                  "print(scenario.name, c.cmd_validate(scenario, {}).passed)" % str(archive),
                  archive)
    assert out.split() == ["aff1", "True"]


CLI_ENTRY = ("-m", "rnforms.cli")


def _spawn_cli(*argv, prefix=(), entry=CLI_ENTRY, env=None, **kwargs):
    """``python [prefix] -m rnforms.cli argv`` (or another ``entry``) in a
    fresh process with src on PYTHONPATH; stderr is captured."""
    env = {**os.environ, "PYTHONPATH": str(SRC), **(env or {})}
    return subprocess.run([sys.executable, *prefix, *entry, *argv],
                          stderr=subprocess.PIPE, env=env, **kwargs)


PROCESS_ARGV = {
    "pass": ("--scenario", str(SCENARIOS / "aff1.json"), "validate"),
    "fail": ("--scenario", str(SCENARIOS / "so3.json"), "check", "pqn"),
    "input-error": ("--scenario", str(SCENARIOS / "aff1.json"),
                    "bracket", "--left", "N0", "--right", "N1"),
    "crash": CRASH,
    "help": ("-h",),
}


@pytest.mark.parametrize("sink", ["pipe", "file"])
@pytest.mark.parametrize("case", PROCESS_ARGV)
def test_process_ends_with_the_bytes_and_code_of_main(tmp_path, capsys, monkeypatch, case,
                                                      sink):
    """The process entry point skips finalization: what reaches its stdout
    and stderr, and its exit code, are those of main in-process."""
    argv, entry = PROCESS_ARGV[case], CLI_ENTRY
    if case == "crash":
        monkeypatch.setattr(cli, "dispatch", _crash)
        entry = CRASH_ENTRY
    code, out, err = run_cli(capsys, *argv)
    assert code == {"pass": 0, "fail": 1, "input-error": 2, "crash": 3, "help": 0}[case]
    if sink == "pipe":
        done = _spawn_cli(*argv, entry=entry, stdout=subprocess.PIPE)
        stdout = done.stdout
    else:
        with open(tmp_path / "stdout", "wb") as file:
            done = _spawn_cli(*argv, entry=entry, stdout=file)
        stdout = (tmp_path / "stdout").read_bytes()
    assert (done.returncode, stdout, done.stderr) == (code, out.encode(), err.encode())


def test_profiled_process_still_prints_its_profile(capsys):
    """Under cProfile the entry point exits through SystemExit, which
    cProfile catches: it prints its table after the report and exits 0,
    as it does for any script.  os._exit would have skipped both."""
    code, out, _ = run_cli(capsys, *PROCESS_ARGV["fail"])
    done = _spawn_cli(*PROCESS_ARGV["fail"], prefix=("-m", "cProfile"),
                      stdout=subprocess.PIPE)
    assert (code, done.returncode, done.stderr) == (1, 0, b"")
    assert done.stdout.startswith(out.encode())
    assert b"function calls" in done.stdout[len(out):]


@pytest.mark.parametrize("traced", [False, True])
def test_atexit_callbacks_run_only_under_a_tracer(traced):
    code = ("import atexit, runpy, sys\n"
            "atexit.register(print, 'finalized', file=sys.stderr)\n"
            f"{'sys.settrace(lambda *args: None)' if traced else ''}\n"
            "runpy.run_module('rnforms.cli', run_name='__main__')\n")
    done = subprocess.run([sys.executable, "-c", code, *PROCESS_ARGV["fail"]],
                          capture_output=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 1
    assert b"status: fail" in done.stdout
    assert done.stderr == (b"finalized\n" if traced else b"")


def test_closed_stdout_exits_with_the_report_code():
    # descriptor 1 closed at start-up: sys.stdout is None, nothing to write
    done = _spawn_cli(*PROCESS_ARGV["pass"], preexec_fn=lambda: os.close(1))
    assert (done.returncode, done.stderr) == (0, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("case", ["pass", "fail", "help"])
def test_write_error_on_stdout_exits_3(case, unbuffered):
    # buffered, the print succeeds and the flush fails; unbuffered, the print fails
    with open("/dev/full", "wb") as full:
        done = _spawn_cli(*PROCESS_ARGV[case], stdout=full,
                          env={"PYTHONUNBUFFERED": unbuffered})
    assert (done.returncode, done.stderr) == (
        3, b"internal error: OSError: [Errno 28] No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(("argv", "entry", "stdout_full", "code"), [
    (("--scenario", str(SCENARIOS / "aff1.json"), "bogus"), CLI_ENTRY, False, 2),
    (("--scenario", str(SCENARIOS / "missing.json"), "validate"), CLI_ENTRY, False, 2),
    (PROCESS_ARGV["input-error"], CLI_ENTRY, False, 2),
    (PROCESS_ARGV["crash"], CRASH_ENTRY, False, 3),
    (PROCESS_ARGV["pass"], CLI_ENTRY, True, 3),
    (PROCESS_ARGV["fail"], CLI_ENTRY, False, 1),
], ids=["unknown-command", "missing-file", "input-error", "crash", "stdout-full", "fail"])
def test_write_error_on_stderr_keeps_the_exit_code(argv, entry, stdout_full, code):
    """A usage, input-error or internal-error message that cannot be
    written to stderr is dropped: the exit code is the one it reports,
    never the 1 of a failed identity by accident."""
    with open("/dev/full", "wb") as full:
        done = subprocess.run([sys.executable, *entry, *argv],
                              stdout=full if stdout_full else subprocess.PIPE, stderr=full,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == code
    if not stdout_full:
        assert (b"status: fail" in done.stdout) == (code == 1)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_final_flush_of_stderr_keeps_the_exit_code():
    # stderr block-buffered on /dev/full, with bytes that only run's flush writes
    code = ("import sys\n"
            "from rnforms import cli\n"
            "sys.stderr = open('/dev/full', 'w', buffering=1 << 16)\n"
            "cli.main = lambda: sys.stderr.write('unwritten') and 2\n"
            "cli.run()\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert (done.returncode, done.stdout, done.stderr) == (2, b"", b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_flush_drops_the_unwritten_report(monkeypatch, capsys):
    with open("/dev/full", "w", buffering=1 << 16) as full:
        monkeypatch.setattr(sys, "stdout", full)
        code = main(list(PROCESS_ARGV["pass"]))
        monkeypatch.undo()
        full.flush()    # the buffered report now goes to os.devnull, not to /dev/full
    assert code == 3
    assert capsys.readouterr().err == (
        "internal error: OSError: [Errno 28] No space left on device\n")
