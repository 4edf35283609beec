"""The coefficient grammar and the size boundaries of the scenario schema.

A ``lie_algebra`` scenario reads each coefficient as a rational: a JSON
string "p/q" or a JSON number, which loads like the string it prints as.
A JSON object (a polynomial) is refused there.  A ``poly_algebroid``
scenario reads a coefficient as a string or an exponent-keyed object, and
refuses a JSON number.  Dimensions and ranks below 1 are refused with the
schema's own message.  Every case runs the CLI and compares exit code,
stdout and stderr.
"""

import json
from pathlib import Path

import pytest

from rnforms.cli import main

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "rnforms" / "scenarios"

# (scenario, path to the coefficient, the command that reads it)
LIE_COEFFICIENTS = [
    ("aff1", ("data", "N", 0, 0), ("check", "pqn")),
    ("aff1", ("data", "pi", "e1^e2"), ("check", "pqn")),
    ("aff1", ("data", "omega", "e1^e2"), ("check", "pqn")),
    ("heisenberg3", ("data", "H", "e1^e2^e3"), ("check", "pqn")),
    ("aff1", ("data", "alpha", "e1^e2"), ("suite", "stienon-xu")),
    ("aff1", ("instance", "lie_algebra", "brackets", "e1,e2", "e2"), ("check", "pqn")),
]


def _id(value):
    return ".".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _edited(name, path, value):
    raw = json.loads((SCENARIOS / f"{name}.json").read_text())
    block = raw
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    return raw


def _run(tmp_path, capsys, raw, *argv):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(raw))
    code = main(["--scenario", str(path), "--format", "json", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("number", [2, 0.5, -3])
@pytest.mark.parametrize("name,path,argv", LIE_COEFFICIENTS, ids=_id)
def test_lie_number_coefficient_loads_like_its_string(tmp_path, capsys, name, path, argv,
                                                      number):
    as_string = _run(tmp_path, capsys, _edited(name, path, str(number)), *argv)
    as_number = _run(tmp_path, capsys, _edited(name, path, number), *argv)
    assert as_string[2] == ""
    assert as_number == as_string


@pytest.mark.parametrize("name,path,argv", LIE_COEFFICIENTS, ids=_id)
def test_lie_polynomial_coefficient_exits_2(tmp_path, capsys, name, path, argv):
    code, out, err = _run(tmp_path, capsys, _edited(name, path, {"1": "1"}), *argv)
    # a bracket row is read by the same coefficient reader as the data
    message = "polynomial coefficient in a rational-coefficient instance"
    assert (code, out, err) == (2, "", f"input error: {message}\n")


@pytest.mark.parametrize("path", [("data", "N", 1, 1), ("data", "pi", "a1^a2"),
                                  ("instance", "poly_algebroid", "anchor", 0, 0)],
                         ids=_id)
def test_poly_number_coefficient_exits_2(tmp_path, capsys, path):
    code, out, err = _run(tmp_path, capsys, _edited("poly-tangent-r2", path, 2),
                          "check", "pqn")
    assert (code, out, err) == (2, "", "input error: not a polynomial: 2\n")


@pytest.mark.parametrize("name,path,message", [
    ("aff1", ("instance", "lie_algebra", "dim"), "Lie algebra dimension must be positive"),
    ("poly-tangent-r2", ("instance", "poly_algebroid", "base_dim"),
     "base dimension and rank must be positive"),
    ("poly-tangent-r2", ("instance", "poly_algebroid", "rank"),
     "base dimension and rank must be positive"),
], ids=_id)
@pytest.mark.parametrize("size", [0, -1])
def test_size_below_one_exits_2(tmp_path, capsys, name, path, message, size):
    raw = _edited(name, path, size)
    code, out, err = _run(tmp_path, capsys, raw, "validate")
    assert (code, out, err) == (2, "", f"input error: {message}\n")
