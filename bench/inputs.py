"""Seeded inputs for the rnforms benchmark.

Every workload is a list of CLI operations (one command on one scenario
file).  The scenario files are either shipped ones, read from
``src/rnforms/scenarios``, or generated here from ``--seed``:

* lie-exhaustive: heisenberg3 and so3, each in its shipped basis and in a
  seeded integral unimodular change of basis in which every structure
  constant [f_i, f_j] = sum_l c^l_ij f_l is nonzero, with constants of the
  same sizes on every seed.
* poly-family: one seeded variant of poly-tangent-r2 of the same shape,
  N = f Id, pi = g a1^a2, omega = h a1^a2, alpha = k a1^a2, with f, g, h
  and k of degree <= 2 and the same terms on every seed.
* cli-matrix: the shipped scenarios, plus one seeded bracket
  [N_i, N_{5-i}] per Lie algebra.

Run ``python3 bench/inputs.py --seed 7 --out DIR`` to write the generated
scenarios of every workload to DIR.
"""

from __future__ import annotations

import argparse
import copy
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

SHIPPED = Path("src") / "rnforms" / "scenarios"
SHIPPED_NAMES = ("aff1", "heisenberg3", "so3", "abelian2", "poly-tangent-r2")

# Suite bounds and wedge sum of the lie-exhaustive inputs.  heisenberg3 ships
# with bounds 4 and N = N1 + N3; its four commands alone then take about 40 s,
# longer than a run, so both algebras use so3's shipped bounds and N = N1.
LIE_SUITE = {"i_max": 3, "m_max": 3, "n_max": 3}
LIE_WEDGE_SUM = ["1"]

LIE_COMMANDS = (
    ("suite", "lemma"),
    ("suite", "witt"),
    ("check", "nijenhuis", "--kind", "weak"),
    ("check", "nijenhuis", "--kind", "coboundary"),
)
POLY_COMMANDS = (
    ("suite", "main-theorem"),
    ("suite", "stienon-xu"),
    ("check", "nijenhuis", "--kind", "full"),
    ("check", "pqn"),
)

# The exit-code matrix of tests/test_cli.py on the shipped scenarios.  Pairs
# that exit 2, or whose run takes well over a second, are left out of
# cli-matrix; the second group is listed in SLOW_PAIRS.
EXIT_MATRIX = {
    ("validate",): dict.fromkeys(SHIPPED_NAMES, 0),
    ("bracket", "--left", "N2", "--right", "N2"): dict.fromkeys(SHIPPED_NAMES, 0),
    ("check", "linfty"): dict.fromkeys(SHIPPED_NAMES, 0),
    ("check", "nijenhuis", "--kind", "weak"): dict.fromkeys(SHIPPED_NAMES, 0),
    ("check", "nijenhuis", "--kind", "coboundary"): dict.fromkeys(SHIPPED_NAMES, 0),
    ("check", "nijenhuis", "--kind", "full"): {
        "aff1": 0, "heisenberg3": 0, "so3": 1, "abelian2": 0, "poly-tangent-r2": 0},
    ("check", "pqn"): {
        "aff1": 0, "heisenberg3": 0, "so3": 1, "abelian2": 0, "poly-tangent-r2": 0},
    ("suite", "lemma"): {
        "aff1": 0, "heisenberg3": 0, "so3": 0, "abelian2": 0, "poly-tangent-r2": 2},
    ("suite", "witt"): {
        "aff1": 0, "heisenberg3": 0, "so3": 0, "abelian2": 0, "poly-tangent-r2": 2},
    ("suite", "main-theorem"): {
        "aff1": 0, "heisenberg3": 0, "so3": 1, "abelian2": 0, "poly-tangent-r2": 0},
    ("suite", "stienon-xu"): {
        "aff1": 0, "heisenberg3": 2, "so3": 2, "abelian2": 0, "poly-tangent-r2": 0},
}
SLOW_PAIRS = {
    ("heisenberg3", ("check", "nijenhuis", "--kind", "weak")),
    ("heisenberg3", ("check", "nijenhuis", "--kind", "coboundary")),
    ("heisenberg3", ("suite", "lemma")),
    ("heisenberg3", ("suite", "witt")),
    ("heisenberg3", ("suite", "main-theorem")),
    ("so3", ("suite", "lemma")),
    ("so3", ("suite", "witt")),
    ("so3", ("suite", "main-theorem")),
    ("poly-tangent-r2", ("suite", "main-theorem")),
    ("poly-tangent-r2", ("suite", "stienon-xu")),
}

WORKLOADS = ("lie-exhaustive", "poly-family", "cli-matrix")


class Op:
    """One CLI command on one scenario, with the exit code it must give
    (None: the verdict is not known in advance and is checked otherwise)."""

    def __init__(self, scenario: "ScenarioFile", args: tuple, expect_exit, twin=None):
        self.scenario = scenario
        self.args = tuple(args)
        self.expect_exit = expect_exit
        self.key = f"{scenario.name}: {' '.join(self.args)}"
        # an op on an isomorphic scenario whose report must be the same
        # apart from the scenario name
        self.twin = twin


class ScenarioFile:
    """A scenario file with the raw data it was written from."""

    def __init__(self, name: str, path: Path, raw: dict, generated: bool):
        self.name = name
        self.path = path
        self.raw = raw
        self.generated = generated

    @property
    def lie(self) -> bool:
        return "lie_algebra" in self.raw["instance"]


def load_shipped(root: Path, name: str) -> ScenarioFile:
    path = root / SHIPPED / f"{name}.json"
    return ScenarioFile(name, path, json.loads(path.read_text()), generated=False)


# -- exact integer linear algebra --------------------------------------------------


def det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def inverse(m):
    """Inverse of a square matrix of determinant +-1, by adjugates."""
    n = len(m)
    d = det(m)
    if abs(d) != 1:
        raise ValueError("matrix is not unimodular")

    def cofactor(i, j):
        minor = [row[:j] + row[j + 1:] for k, row in enumerate(m) if k != i]
        return (-1) ** (i + j) * det(minor)

    return [[cofactor(j, i) * d for j in range(n)] for i in range(n)]


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def signed_permutation(rng: random.Random, n: int):
    order = list(range(n))
    rng.shuffle(order)
    return [[(rng.choice((-1, 1)) if order[i] == j else 0) for j in range(n)]
            for i in range(n)]


def structure_constants(raw: dict):
    """{(a, b, k): c} for [e_a, e_b] = sum_k c e_k, both orders of a, b."""
    block = raw["instance"]["lie_algebra"]
    names = block["basis"]
    c = {}
    for key, row in block["brackets"].items():
        a, b = (names.index(p.strip()) for p in key.split(","))
        for target, value in row.items():
            k = names.index(target)
            c[(a, b, k)] = Fraction(value)
            c[(b, a, k)] = -Fraction(value)
    return c


def change_basis(raw: dict, m) -> dict:
    """The same Lie algebra and tensors in the basis f_i = sum_a m[a][i] e_a."""
    n = len(m)
    inv = inverse(m)
    c = structure_constants(raw)
    names = raw["instance"]["lie_algebra"]["basis"]
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            row = {}
            for l in range(n):
                value = sum(m[a][i] * m[b][j] * coeff * inv[l][k]
                            for (a, b, k), coeff in c.items())
                if value:
                    row[names[l]] = str(value)
            if row:
                brackets[f"{names[i]},{names[j]}"] = row
    out = copy.deepcopy(raw)
    out["instance"]["lie_algebra"]["brackets"] = brackets
    data = out["data"]
    old_n = [[Fraction(v) for v in row] for row in raw["data"]["N"]]
    new_n = matmul(matmul(inv, old_n), m)
    data["N"] = [[str(v) for v in row] for row in new_n]
    if raw["data"].get("H"):
        # a top-degree form scales by the determinant of the basis change
        top = "^".join(names)
        data["H"] = {top: str(Fraction(raw["data"]["H"][top]) * det(m))}
    return out


def dense_basis_change(rng: random.Random, raw: dict):
    """A seeded basis in which every structure constant is nonzero.

    Among the matrices L U with L, U unitriangular and off-diagonal entries
    +-1, keep those giving all-nonzero constants of the smallest sizes; the
    seed picks one of them and permutes and negates the new basis vectors.
    Every seed thus gets constants of the same sizes, so the same work."""
    n = raw["instance"]["lie_algebra"]["dim"]
    below = [(i, j) for i in range(n) for j in range(i)]
    candidates = []
    for signs in itertools.product((-1, 1), repeat=2 * len(below)):
        lower = [[int(i == j) for j in range(n)] for i in range(n)]
        upper = [[int(i == j) for j in range(n)] for i in range(n)]
        for (i, j), a, b in zip(below, signs, signs[len(below):]):
            lower[i][j], upper[j][i] = a, b
        m = matmul(lower, upper)
        rows = change_basis(raw, m)["instance"]["lie_algebra"]["brackets"]
        if len(rows) == len(below) and all(len(r) == n for r in rows.values()):
            sizes = sorted(abs(Fraction(v)) for r in rows.values() for v in r.values())
            candidates.append((sizes, m))
    smallest = min(sizes for sizes, _ in candidates)
    m = rng.choice([m for sizes, m in candidates if sizes == smallest])
    return change_basis(raw, matmul(m, signed_permutation(rng, n)))


# -- polynomial variants ------------------------------------------------------------


def poly_variant(rng: random.Random, raw: dict) -> dict:
    """poly-tangent-r2 with N = f Id, pi = g a1^a2, omega = h a1^a2 and
    alpha = k a1^a2 for f = +-1 +- x1^2, g = +-1 +- x2, h = +-x2 and
    k = +-x1 x2: the shipped terms plus a linear term in g.  The seed picks
    the signs; the coefficient sizes stay those of the shipped scenario,
    since they change the work done and the memory held."""
    c = [rng.choice(("1", "-1")) for _ in range(6)]
    out = copy.deepcopy(raw)
    data = out["data"]
    f = {"1": c[0], "x1^2": c[1]}
    data["N"] = [[f, "0"], ["0", f]]
    data["pi"] = {"a1^a2": {"1": c[2], "x2": c[3]}}
    data["omega"] = {"a1^a2": {"x2": c[4]}}
    data["alpha"] = {"a1^a2": {"x1 x2": c[5]}}
    return out


# -- workloads ------------------------------------------------------------------------


def _write(out_dir: Path, name: str, raw: dict) -> ScenarioFile:
    raw = dict(raw, name=name)
    path = out_dir / f"{name}.json"
    path.write_text(json.dumps(raw, indent=2, sort_keys=True))
    return ScenarioFile(name, path, raw, generated=True)


def lie_exhaustive(root: Path, seed: int, out_dir: Path) -> list:
    rng = random.Random(f"lie-exhaustive/{seed}")
    ops = []
    for base in ("heisenberg3", "so3"):
        raw = copy.deepcopy(load_shipped(root, base).raw)
        raw["suite"] = dict(LIE_SUITE)
        raw["data"]["b"] = list(LIE_WEDGE_SUM)
        changed = dense_basis_change(rng, raw)
        shipped = _write(out_dir, f"{base}-shipped-basis", raw)
        seeded = _write(out_dir, f"{base}-basis-{seed}", changed)
        twins = [Op(shipped, args, 0) for args in LIE_COMMANDS]
        ops.extend(twins)
        ops.extend(Op(seeded, op.args, 0, twin=op) for op in twins)
    return ops


def poly_family(root: Path, seed: int, out_dir: Path) -> list:
    rng = random.Random(f"poly-family/{seed}")
    raw = poly_variant(rng, load_shipped(root, "poly-tangent-r2").raw)
    scenario = _write(out_dir, f"poly-tangent-r2-variant-{seed}", raw)
    # check nijenhuis --kind full must pass: N = f Id is torsion-free.  The
    # other verdicts depend on f, g, h, k and are checked by their contents.
    return [Op(scenario, args, 0 if args[0] == "check" and args[1] == "nijenhuis"
               else None) for args in POLY_COMMANDS]


def cli_matrix(root: Path, seed: int, out_dir: Path) -> list:
    rng = random.Random(f"cli-matrix/{seed}")
    shipped = {name: load_shipped(root, name) for name in SHIPPED_NAMES}
    ops = []
    for args, expectations in EXIT_MATRIX.items():
        for name, code in expectations.items():
            if code == 2 or (name, args) in SLOW_PAIRS:
                continue
            ops.append(Op(shipped[name], args, code))
    for name in SHIPPED_NAMES:
        if shipped[name].lie:
            i = rng.randint(1, 4)
            ops.append(Op(shipped[name],
                          ("bracket", "--left", f"N{i}", "--right", f"N{5 - i}"), 0))
    return ops


BUILDERS = {"lie-exhaustive": lie_exhaustive, "poly-family": poly_family,
            "cli-matrix": cli_matrix}


def build(workload: str, root: Path, seed: int, out_dir: Path) -> list:
    out_dir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](root, seed, out_dir)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for workload in WORKLOADS:
        for op in build(workload, Path("."), args.seed, args.out / workload):
            print(workload, op.key)


if __name__ == "__main__":
    main()
