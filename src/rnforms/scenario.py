"""Scenario files: JSON descriptions of an instance plus the tensor data and
suite bounds the CLI commands operate on.

Schema (all coefficients are rational strings "p/q" or, on polynomial
instances, exponent-keyed maps {"x1^2 x2": "1/3", "1": "2"}):

{
  "name": "aff1",
  "instance": {
    "lie_algebra": {"dim": 2, "basis": ["e1","e2"],
                     "brackets": {"e1,e2": {"e2": "1"}}}
    // or "poly_algebroid": {"base_dim", "coordinates", "rank",
    //                       "generators", "anchor", "brackets"}
  },
  "data": {
    "pi":     {"e1^e2": "1"},          // bivector, wedge-monomial keys
    "N":      [["2","0"],["0","2"]],   // rank x rank matrix
    "omega":  {"e1^e2": "-1"},         // 2-form table on dual monomials
    "H":      {"e1^e2^e3": "1"},       // 3-form table
    "alpha":  {},                      // 2-form for the manifold triple
    "lambda": "0",                     // declared scalar, optional
    "a": ["0","1"],                    // pencil coefficients a_1, a_2, ...
    "b": ["1","1"],                    // wedge-sum coefficients
    "n": 2                             // bracket index for the co-boundary check
  },
  "suite": {"i_max": 4, "m_max": 4, "n_max": 4, "poly_degree_bound": 1}
}

The suite bounds, n and the lengths of a and b are at most ``INDEX_LIMIT``
(12), like the indices k of the CLI's N<k> and l<k>: a form's work grows
combinatorially in its arity (heisenberg3's [N12, N12] takes seconds,
[N16, N16] minutes), so a larger value is an input error (exit 2) rather
than a run that exhausts memory.  No shipped value exceeds 4.

Each command names the grading of every form it builds, so a scenario
carries none: a ``grading`` key is an unknown key like any other.

A key outside this schema, at any level, is an input error, and so is a
value of the wrong JSON type: name is a string (the file name when absent);
dim, base_dim, rank, n and the suite bounds are integers; a, b, basis,
coordinates and generators are lists; brackets and each of their rows are
objects.  The names in basis, coordinates and generators must be distinct,
and as many as dim, base_dim and rank; only an absent or null list gives
the default names.  A key repeated verbatim in any JSON object is an input
error, and so are two keys that name the same bracket pair ("e1,e2" and
"e1, e2"), the same monomial ("e1^e2" and "e1 ^ e2") or the same
polynomial term ("x1 x2" and "x2 x1", "x1^2" and "x1 x1").

Both blocks build one kind of instance: a ``lie_algebra`` is the algebroid
over a point, with no coordinates.  The schema still reads their
coefficients differently.  In a ``lie_algebra`` a coefficient is a
rational: a string, or a JSON number that loads like the string it prints
as (2, 0.5), and an exponent-keyed map is an input error.  In a
``poly_algebroid`` it is a string or an exponent-keyed map, and a JSON
number is an input error.  A ``lie_algebra`` needs dim >= 1, a
``poly_algebroid`` base_dim >= 1 and rank >= 1.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .dualforms import DualForm
from .elements import Element
from .instances import GradedInstance, LieAlgebraData, PolyAlgebroidData
from .rings import InputError, Poly, parse_rational


class Scenario:
    """A loaded scenario: the instance, its tensor data and suite bounds.
    ``suite.poly_degree_bound`` (an integer >= 0, default 1) sets the
    instance's declared test family (``GradedInstance.poly_degree_bound``),
    the one family that ``forms.is_zero`` certifies on there."""

    def __init__(self, name: str, instance: GradedInstance, pi: Element, N: list,
                 omega: DualForm, H: DualForm, alpha: DualForm, lam: Fraction | None,
                 pencil_coefficients: list, wedge_coefficients: list, bracket_index: int,
                 i_max: int, m_max: int, n_max: int):
        self.name = name
        self.instance = instance
        self.pi = pi
        self.N = N
        self.omega = omega
        self.H = H
        self.alpha = alpha
        self.lam = lam
        self.pencil_coefficients = pencil_coefficients
        self.wedge_coefficients = wedge_coefficients
        self.bracket_index = bracket_index
        self.i_max = i_max
        self.m_max = m_max
        self.n_max = n_max


INDEX_LIMIT = 12        # see the module docstring

_TOP_KEYS = {"name", "instance", "data", "suite"}
_INSTANCE_KEYS = {"lie_algebra", "poly_algebroid"}
_LIE_KEYS = {"dim", "basis", "brackets"}
_POLY_KEYS = {"base_dim", "coordinates", "rank", "generators", "anchor", "brackets"}
_DATA_KEYS = {"pi", "N", "omega", "H", "alpha", "lambda", "a", "b", "n"}
_SUITE_KEYS = {"i_max", "m_max", "n_max", "poly_degree_bound"}


def _object(raw, where: str) -> dict:
    """A JSON object (null reads as empty); InputError naming ``where``
    otherwise."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise InputError(f"{where} must be a JSON object")
    return raw


def _matrix(raw, where: str, rows: int, cols: int) -> list:
    """A rows x cols JSON matrix (a list of lists); InputError naming
    ``where`` otherwise."""
    if (not isinstance(raw, list) or len(raw) != rows
            or any(not isinstance(row, list) or len(row) != cols for row in raw)):
        raise InputError(f"{where} must be a {rows}x{cols} matrix")
    return raw


def _block(raw, where: str, keys: set) -> dict:
    """A scenario object (null reads as empty); InputError naming every key
    outside ``keys``."""
    raw = _object(raw, where)
    unknown = sorted(set(raw) - keys)
    if unknown:
        noun = "key" if len(unknown) == 1 else "keys"
        raise InputError(f"unknown {noun} {', '.join(map(repr, unknown))} in {where};"
                         f" expected one of {sorted(keys)}")
    return raw


def _integer(block: dict, key: str, where: str, default=None, minimum=None,
             bounded=False) -> int:
    """block[key] as a JSON integer (not a bool or a float), ``default``
    when absent or null; InputError naming the field otherwise, when it is
    absent with no default, below ``minimum``, or ``bounded`` and above
    ``INDEX_LIMIT``."""
    value = block.get(key)
    if value is None:
        if default is None:
            raise InputError(f"{where}.{key} is required")
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{where}.{key} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InputError(f"{where}.{key} must be >= {minimum}, got {value}")
    if bounded and value > INDEX_LIMIT:
        raise InputError(f"{where}.{key} must be <= {INDEX_LIMIT} (the index limit),"
                         f" got {value}")
    return value


def _list(block: dict, key: str, where: str, default=None, bounded=False) -> list | None:
    """block[key] as a JSON list, ``default`` when absent or null;
    InputError naming the field otherwise, or when it is ``bounded`` and
    longer than ``INDEX_LIMIT``."""
    value = block.get(key)
    if value is None:
        return default
    if not isinstance(value, list):
        raise InputError(f"{where}.{key} must be a list, got {value!r}")
    if bounded and len(value) > INDEX_LIMIT:
        raise InputError(f"{where}.{key} must have at most {INDEX_LIMIT} entries"
                         f" (the index limit), got {len(value)}")
    return value


def _parse_brackets(raw, names) -> dict:
    index = {name: i for i, name in enumerate(names)}
    table = {}
    keys = {}                           # (i, j) -> the key that named it
    for key, coeffs in _object(raw, "brackets").items():
        parts = [p.strip() for p in str(key).split(",")]
        if len(parts) != 2 or any(p not in index for p in parts):
            raise InputError(f"bad bracket key {key!r}; expected 'e_i,e_j'")
        i, j = index[parts[0]], index[parts[1]]
        if i >= j:
            raise InputError(f"bracket key {key!r} must name generators in order")
        if (i, j) in keys:
            raise InputError(f"bracket keys {keys[(i, j)]!r} and {key!r} name the same pair")
        keys[(i, j)] = key
        row = {}
        for target, value in _object(coeffs, f"bracket {key!r}").items():
            if target not in index:
                raise InputError(f"unknown generator {target!r} in bracket {key!r}")
            row[index[target]] = value
        table[(i, j)] = row
    return table


def _parse_monomial_key(key: str, names) -> tuple:
    index = {name: i for i, name in enumerate(names)}
    if key in ("", "1"):
        return ()
    parts = [p.strip() for p in str(key).split("^")]
    if any(p not in index for p in parts):
        raise InputError(f"unknown generator in monomial {key!r}")
    indices = tuple(index[p] for p in parts)
    if list(indices) != sorted(set(indices)):
        raise InputError(f"monomial {key!r} must list distinct generators in order")
    return indices


def _monomial_items(raw, names, where: str):
    """(key, monomial, value) per key of the JSON object ``raw``; InputError
    naming ``where`` and both keys when two keys name the same monomial
    ("e1^e2" and "e1 ^ e2")."""
    keys = {}                           # monomial -> the key that named it
    for key, value in _object(raw, where).items():
        mon = _parse_monomial_key(key, names)
        if mon in keys:
            raise InputError(f"{where} keys {keys[mon]!r} and {key!r} name the same monomial")
        keys[mon] = key
        yield key, mon, value


def _lie_coefficient(value) -> Poly:
    """A coefficient of a ``lie_algebra`` scenario, a constant of its ring
    ``PolyRing(())``: a rational string or a JSON number, never an
    exponent-keyed map."""
    if isinstance(value, dict):
        raise InputError("polynomial coefficient in a rational-coefficient instance")
    return Poly.const(0, parse_rational(value))


def _parse_element(raw, instance: GradedInstance, parse, where: str) -> Element:
    return Element({mon: parse(value)
                    for _, mon, value in _monomial_items(raw, instance.generator_names, where)})


def _parse_dualform(raw, instance: GradedInstance, parse, degree: int,
                    where: str) -> DualForm:
    table = {}
    for key, mon, value in _monomial_items(raw, instance.generator_names, where):
        if len(mon) != degree:
            raise InputError(f"{key!r} is not a degree-{degree} monomial")
        table[mon] = parse(value)
    return DualForm(instance, degree, table)


def _parse_matrix(raw, instance: GradedInstance, parse) -> list:
    n = instance.rank
    raw = raw if raw is not None else [["0"] * n for _ in range(n)]
    return [[parse(v) for v in row] for row in _matrix(raw, "data.N", n, n)]


def load_scenario(path) -> Scenario:
    """Parse, build and validate a scenario; InputError on any defect."""
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8")
    except FileNotFoundError as exc:
        raise InputError(f"scenario file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        # an int literal goes through parse_rational, which refuses one past the digit limit
        raw = json.loads(text, object_pairs_hook=_unique_keys,
                         parse_int=lambda literal: int(parse_rational(literal)))
    except (json.JSONDecodeError, RecursionError) as exc:     # RecursionError: nested too deep
        raise InputError(f"scenario does not parse: {exc}") from exc
    return build_scenario(raw, default_name=path.stem)


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict; InputError naming a key that it repeats
    (plain ``json.loads`` would keep the last one)."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise InputError(f"repeated key {key!r} in a JSON object")
            seen.add(key)
    return obj


def build_scenario(raw: dict, default_name="scenario") -> Scenario:
    raw = _block(raw, "scenario", _TOP_KEYS)
    name = raw.get("name")
    if name is None:
        name = default_name
    elif not isinstance(name, str):
        raise InputError(f"scenario.name must be a string, got {name!r}")
    inst_block = _block(raw.get("instance"), "instance", _INSTANCE_KEYS)
    if len(inst_block) > 1:
        raise InputError("instance has both 'lie_algebra' and 'poly_algebroid';"
                         " give one of them")
    if "lie_algebra" in inst_block:
        where = "instance.lie_algebra"
        block = _block(inst_block["lie_algebra"], where, _LIE_KEYS)
        dim = _integer(block, "dim", where)
        names = LieAlgebraData(dim, _list(block, "basis", where)).generator_names
        parse = _lie_coefficient
        data = LieAlgebraData(
            dim, names,
            {k: {i: parse(v) for i, v in row.items()}
             for k, row in _parse_brackets(block.get("brackets"), names).items()})
    elif "poly_algebroid" in inst_block:
        where = "instance.poly_algebroid"
        block = _block(inst_block["poly_algebroid"], where, _POLY_KEYS)
        base_dim = _integer(block, "base_dim", where)
        rank = _integer(block, "rank", where)
        if base_dim < 1 or rank < 1:
            raise InputError("base dimension and rank must be positive")
        shell = PolyAlgebroidData(base_dim, rank, _list(block, "coordinates", where),
                                  _list(block, "generators", where))
        coords, gens, ring = shell.coordinates, shell.generator_names, shell.ring
        anchor = block.get("anchor")
        if anchor is not None:
            anchor = [[ring.parse(v) for v in row]
                      for row in _matrix(anchor, f"{where}.anchor", rank, base_dim)]
        brackets = {k: {i: ring.parse(v) for i, v in row.items()}
                    for k, row in _parse_brackets(block.get("brackets"), gens).items()}
        data = PolyAlgebroidData(base_dim, rank, coords, gens, anchor, brackets)
        parse = ring.parse
    else:
        raise InputError("scenario needs an instance block"
                         " (lie_algebra or poly_algebroid)")
    instance = GradedInstance(data, name=name)

    data_block = _block(raw.get("data"), "data", _DATA_KEYS)
    pi = _parse_element(data_block.get("pi"), instance, parse, "data.pi")
    if not pi.is_zero() and pi.wedge_degree() != 2:
        raise InputError("pi must be a bivector")
    N = _parse_matrix(data_block.get("N"), instance, parse)
    omega = _parse_dualform(data_block.get("omega"), instance, parse, 2, "data.omega")
    H_table = _object(data_block.get("H"), "data.H")
    if instance.rank < 3 and H_table:
        raise InputError("a 3-form needs rank >= 3")
    H = _parse_dualform(H_table, instance, parse, 3, "data.H")
    alpha = _parse_dualform(data_block.get("alpha"), instance, parse, 2, "data.alpha")
    lam = data_block.get("lambda")
    lam = None if lam is None else parse_rational(lam)
    a = [parse_rational(v) for v in _list(data_block, "a", "data", ["0", "1"], bounded=True)]
    b = [parse_rational(v) for v in _list(data_block, "b", "data", ["1"], bounded=True)]
    n = _integer(data_block, "n", "data", 2, bounded=True)
    suite = _block(raw.get("suite"), "suite", _SUITE_KEYS)
    scenario = Scenario(
        name=name, instance=instance, pi=pi, N=N, omega=omega, H=H, alpha=alpha,
        lam=lam, pencil_coefficients=a, wedge_coefficients=b, bracket_index=n,
        i_max=_integer(suite, "i_max", "suite", 4, bounded=True),
        m_max=_integer(suite, "m_max", "suite", 4, bounded=True),
        n_max=_integer(suite, "n_max", "suite", 4, bounded=True),
    )
    instance.poly_degree_bound = _integer(suite, "poly_degree_bound", "suite", 1, minimum=0,
                                          bounded=True)
    return scenario


def load_shipped(name: str) -> Scenario:
    """A scenario shipped in the package, read through importlib.resources,
    so also from a zipped install (where the file only exists inside the
    ``with``)."""
    from importlib import resources     # here: no CLI command reads a shipped file
    with resources.as_file(resources.files("rnforms") / "scenarios" / f"{name}.json") as path:
        return load_scenario(path)
