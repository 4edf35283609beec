"""What each benchmark operation must print, computed without rnforms.

The checks here use only the scenario data and the paper's formulas:

* the number of tuples in a certificate over a family of E even and O odd
  elements, summed over the arities of the certified form, where arity k
  contributes the coefficient of t^k in (1 - t)^-E (1 + t)^O;
* the arities of every certified form, from arity(K) + arity(L) - 1 for a
  Richardson-Nijenhuis bracket;
* the wedge commutator [N_i, N_j] = (j-i)(i+j-1)!/(i!j!) N_{i+j-1};
* the Nijenhuis torsion of a Lie algebra tensor, from its structure
  constants.

``problems(op, exit_code, stdout)`` lists every way one output differs
from these expectations.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction
from math import comb, factorial

from inputs import structure_constants

TUPLES = re.compile(r"^(\d+) tuples \((.*)\)$")


# -- tuple counts ---------------------------------------------------------------------


def tuple_count(even: int, odd: int, k: int) -> int:
    """Coefficient of t^k in (1 - t)^-even (1 + t)^odd: multisets of size k
    in which no odd element repeats."""
    total = 0
    for j in range(min(k, odd) + 1):
        rest = k - j
        multisets = comb(even + rest - 1, rest) if even else int(rest == 0)
        total += comb(odd, j) * multisets
    return total


def brute_count(even: int, odd: int, k: int) -> int:
    """The same count by enumerating every ordered k-tuple."""
    items = range(even + odd)
    seen = set()
    for combo in itertools.product(items, repeat=k):
        canonical = tuple(sorted(combo))
        if any(a == b and a >= even for a, b in zip(canonical, canonical[1:])):
            continue
        seen.add(canonical)
    return len(seen)


def self_test() -> list:
    """Compare the formula with enumeration on small families."""
    bad = []
    for even in range(4):
        for odd in range(4):
            for k in range(5):
                if tuple_count(even, odd, k) != brute_count(even, odd, k):
                    bad.append(f"tuple formula differs from enumeration at"
                               f" E={even} O={odd} k={k}")
    return bad


def family(raw: dict):
    """(even, odd, family note) of the family a scenario's checks run on."""
    inst = raw["instance"]
    if "lie_algebra" in inst:
        rank = int(inst["lie_algebra"]["dim"])
        return 2 ** (rank - 1), 2 ** (rank - 1), "all canonical basis tuples"
    block = inst["poly_algebroid"]
    rank, base = int(block["rank"]), int(block["base_dim"])
    bound = int(raw.get("suite", {}).get("poly_degree_bound", 1))
    scalings = comb(base + bound, bound)       # monomials of degree <= bound
    half = scalings * 2 ** (rank - 1)
    return half, half, f"declared family of {2 * half} elements"


# -- arities of the certified forms -------------------------------------------------


def br(left, right) -> frozenset:
    """Arities of the Richardson-Nijenhuis bracket of two form families."""
    return frozenset(a + b - 1 for a in left for b in right if a or b)


def _fractions(values):
    return [Fraction(v) for v in values]


def _nonzero(block) -> bool:
    return any(v not in ("0", {}) for v in (block or {}).values())


def pencil(a) -> frozenset:
    return frozenset(i for i, v in enumerate(_fractions(a), 1) if v and i != 1)


def wedge_sum(b) -> frozenset:
    return frozenset(i for i, v in enumerate(_fractions(b), 1) if v)


def square_of_sum(b, n: int) -> frozenset:
    """Arities of sum b_i b_j C(i+n-2,i) C(i+j+n-3,j) / C(i+j+n-3,i+j-1) N_{i+j-1}."""
    coeffs = {}
    for i, bi in enumerate(_fractions(b), 1):
        for j, bj in enumerate(_fractions(b), 1):
            if bi and bj:
                c = Fraction(comb(i + n - 2, i) * comb(j + i + n - 3, j),
                             comb(j + i + n - 3, i + j - 1))
                coeffs[i + j - 1] = coeffs.get(i + j - 1, 0) + bi * bj * c
    return frozenset(k for k, c in coeffs.items() if c)


def nijenhuis_certificates(kind, n_form, k_form, mu) -> dict:
    """Report name -> arities (None: reported without a tuple count)."""
    twice = br(n_form, br(n_form, mu))
    deformed = br(n_form, mu)
    certs = {}
    if k_form is not None:
        certs["deformation_square"] = twice | br(k_form, mu)
        certs["square_commutes"] = br(n_form, k_form)
    certs["weak"] = br(mu, twice)
    certs["deformed_self"] = br(deformed, deformed)
    certs["deformed_compatible"] = br(mu, deformed)
    required = {"weak": ("weak",), "coboundary": ("deformation_square", "weak"),
                "full": ("deformation_square", "square_commutes", "weak")}[kind]
    out = {}
    for key, arities in certs.items():
        if key in required or key.startswith("deformed"):
            out[f"{kind}: {key}"] = arities
        else:
            out[f"{kind}: {key} (informational)"] = None
    return out


def harness_certificates(raw: dict, extra: bool) -> dict:
    """Certificates of suite main-theorem (extra=False) and stienon-xu."""
    data = raw["data"]
    has_pi, has_omega = _nonzero(data.get("pi")), _nonzero(data.get("omega"))
    has_h = _nonzero(data.get("H"))
    n_form = frozenset({1} | ({0} if has_pi else set()) | ({2} if has_omega else set()))
    mu = frozenset({2} | ({3} if has_h and not extra else set()))
    k_form = {1}
    if extra and _nonzero(data.get("alpha")):
        k_form.add(2)
    twice = br(n_form, br(n_form, mu))
    certs = {"side A: deformation square": twice | br(k_form, mu)}
    if extra:
        return certs
    # the term groupings of the double bracket's components; the arity-0
    # grouping l2(pi,pi) vanishes for Poisson pi, which the precondition
    # checks guarantee on the ranks used here
    groupings = {0: False, 1: has_pi, 2: True, 3: has_h or has_omega,
                 4: has_h and has_omega}
    for k in range(5):
        present = k in twice or groupings[k]
        certs[f"decomposition arity {k}"] = frozenset({k}) if present else frozenset()
    if groupings[4]:
        certs["arity 4 vanishes"] = frozenset({4})
    return certs


def expected_certificates(raw: dict, args: tuple) -> dict | None:
    """Report name -> arities of every certificate an op prints, or None
    when the command prints no certificate."""
    data = raw["data"]
    suite = raw.get("suite", {})
    a = data.get("a", ["0", "1"])
    b = data.get("b", ["1"])
    n = int(data.get("n", 2))
    i_max = int(suite.get("i_max", 4))
    m_max = int(suite.get("m_max", 4))
    n_max = int(suite.get("n_max", 4))
    lie = "lie_algebra" in raw["instance"]
    if args[:2] == ("check", "linfty"):
        certs = {"self-bracket": br(pencil(a), pencil(a))}
        if lie:
            rank = int(raw["instance"]["lie_algebra"]["dim"])
            top = max(2, min(len(a), max(2, rank + 1)))
            for m in range(2, top + 1):
                for k in range(m, top + 1):
                    certs[f"compatibility [l{m},l{k}]"] = frozenset({m + k - 1})
        return certs
    if args[:2] == ("check", "nijenhuis"):
        kind = args[3]
        if kind == "weak":
            return nijenhuis_certificates(kind, wedge_sum(b), None, pencil(a))
        if kind == "coboundary":
            return nijenhuis_certificates(kind, wedge_sum(b), square_of_sum(b, n),
                                          frozenset({n}))
        if lie and first_torsion(raw) is not None:
            return {}                     # only the failed torsion precondition
        return nijenhuis_certificates(kind, frozenset({1}), frozenset({1}), pencil(a))
    if args == ("suite", "lemma"):
        certs = {}
        for i in range(1, i_max + 1):
            for j in range(1, i_max + 1):
                certs[f"wedge commutator ({i},{j})"] = frozenset({i + j - 1})
        for m in range(2, m_max + 1):
            for k in range(2, n_max + 1):
                for name in ("mixed commutator", "insertion split A",
                             "insertion split B"):
                    certs[f"{name} ({m},{k})"] = frozenset({m + k - 1})
        for m in range(2, m_max + 1):
            for k in range(m, n_max + 1):
                certs[f"bracket commutator ({m},{k})"] = frozenset({m + k - 1})
        return certs
    if args == ("suite", "witt"):
        certs = {}
        for i in range(1, i_max + 1):
            for j in range(1, i_max + 1):
                certs[f"vector field relation ({i},{j})"] = frozenset({i + j - 1})
        for i in range(1, i_max + 1):
            for j in range(1, i_max + 1):
                certs[f"module action ({i},{j})"] = frozenset({i + j})
        return certs
    if args == ("suite", "main-theorem"):
        return harness_certificates(raw, extra=False)
    if args == ("suite", "stienon-xu"):
        return harness_certificates(raw, extra=True)
    return None


# -- values computed from the structure constants ------------------------------------


def wedge_commutator(i: int, j: int) -> str:
    """How the CLI names [N_i, N_j] = (j-i)(i+j-1)!/(i!j!) N_{i+j-1}."""
    c = Fraction((j - i) * factorial(i + j - 1), factorial(i) * factorial(j))
    if c == 0:
        return "0"
    return f"N{i + j - 1}" if c == 1 else f"{c}*N{i + j - 1}"


def _label(vector: dict, names) -> str:
    bits = []
    for k in sorted(vector):
        c = vector[k]
        bits.append(names[k] if c == 1 else f"({c})*{names[k]}")
    return " + ".join(bits) if bits else "0"


def first_torsion(raw: dict):
    """(i, j, T(e_i, e_j)) for the first generator pair with nonzero
    torsion T(X,Y) = [NX,NY] - N([NX,Y] + [X,NY] - N[X,Y]), or None."""
    block = raw["instance"]["lie_algebra"]
    names = block["basis"]
    dim = int(block["dim"])
    c = structure_constants(raw)
    N = [[Fraction(v) for v in row] for row in raw["data"]["N"]]

    def apply(vec):                       # column convention: N e_i = sum_j N[j][i] e_j
        out = {}
        for i, x in vec.items():
            for j in range(dim):
                out[j] = out.get(j, 0) + N[j][i] * x
        return {k: v for k, v in out.items() if v}

    def bracket(u, v):
        out = {}
        for (p, q, k), value in c.items():
            if p in u and q in v:
                out[k] = out.get(k, 0) + u[p] * v[q] * value
        return {k: x for k, x in out.items() if x}

    def add(*vectors):
        out = {}
        for sign, vec in vectors:
            for k, x in vec.items():
                out[k] = out.get(k, 0) + sign * x
        return {k: x for k, x in out.items() if x}

    for i, j in itertools.combinations(range(dim), 2):
        X, Y = {i: Fraction(1)}, {j: Fraction(1)}
        NX, NY = apply(X), apply(Y)
        deformed = add((1, bracket(NX, Y)), (1, bracket(X, NY)), (-1, apply(bracket(X, Y))))
        t = add((1, bracket(NX, NY)), (-1, apply(deformed)))
        if t:
            return i, j, _label(t, names)
    return None


# -- checking one output ---------------------------------------------------------------


def problems(op, exit_code: int, stdout: bytes) -> list:
    """Every difference between an op's output and what it must be."""
    raw, args = op.scenario.raw, op.args
    where = op.key
    if op.expect_exit is not None and exit_code != op.expect_exit:
        return [f"{where}: exit {exit_code}, expected {op.expect_exit}"]
    if exit_code not in (0, 1):
        return [f"{where}: exit {exit_code}"]
    try:
        report = json.loads(stdout)
    except ValueError:
        return [f"{where}: output is not JSON"]
    out = []
    checks = report["checks"]
    passed = all(c["verdict"] == "pass" for c in checks)
    if report["exit_code"] != exit_code or (exit_code == 0) != passed:
        out.append(f"{where}: exit {exit_code} disagrees with its verdicts")
    if report["scenario"] != raw.get("name", op.scenario.name):
        out.append(f"{where}: report names scenario {report['scenario']!r}")
    by_name = {c["name"]: c for c in checks}

    # tuple counts of every certificate
    expected = expected_certificates(raw, args)
    if expected is not None:
        even, odd, note = family(raw)
        printed = {c["name"] for c in checks
                   if c["detail"] and TUPLES.match(c["detail"])}
        wanted = {name for name, arities in expected.items() if arities is not None}
        if printed != wanted:
            out.append(f"{where}: certificates {sorted(printed ^ wanted)} differ")
        for name in printed & wanted:
            count, family_note = TUPLES.match(by_name[name]["detail"]).groups()
            want = sum(tuple_count(even, odd, k) for k in expected[name])
            if int(count) != want or family_note != note:
                out.append(f"{where}: {name} checked {count} tuples ({family_note}),"
                           f" expected {want} ({note})")

    if args[0] == "validate" or args[0] == "suite" and args[1] in ("lemma", "witt"):
        if not passed:
            out.append(f"{where}: a check fails on a valid Lie algebra")
    if args[0] == "bracket":
        i, j = int(args[2][1:]), int(args[4][1:])
        detail = checks[0]["detail"] if len(checks) == 1 else None
        if detail != wedge_commutator(i, j):
            out.append(f"{where}: bracket is {detail!r},"
                       f" expected {wedge_commutator(i, j)!r}")
    if args[:2] == ("check", "nijenhuis") and args[3] == "full":
        torsion = by_name.get("torsion precondition")
        if "lie_algebra" in raw["instance"]:
            t = first_torsion(raw)
            names = raw["instance"]["lie_algebra"]["basis"]
            want = None if t is None else f"T({names[t[0]]},{names[t[1]]}) = {t[2]}"
        else:
            want = None                   # N = f Id has no torsion
        if torsion is None or torsion["counterexample"] != want:
            out.append(f"{where}: torsion witness"
                       f" {torsion and torsion['counterexample']!r}, expected {want!r}")
    if args == ("check", "pqn") and "lie_algebra" in raw["instance"] \
            and not _nonzero(raw["data"].get("pi")):
        # with pi = 0 condition (c) reads T = 0; it fails on the first twisted pair
        t = first_torsion(raw)
        names = raw["instance"]["lie_algebra"]["basis"]
        want = None if t is None else f"(X,Y) = ({names[t[0]]}, {names[t[1]]})"
        got = by_name.get("condition (c)", {}).get("counterexample")
        if got != want:
            out.append(f"{where}: condition (c) witness {got!r}, expected {want!r}")
    if args[0] == "suite" and args[1] in ("main-theorem", "stienon-xu") \
            or args == ("check", "pqn") and "poly_algebroid" in raw["instance"]:
        for c in checks:
            if "precondition" in c["name"] and c["verdict"] != "pass":
                out.append(f"{where}: {c['name']} fails")
        if args[0] == "suite" and by_name.get("verdict equality", {}).get("verdict") != "pass":
            out.append(f"{where}: verdict equality fails")
    return out
