"""The golden report hashes of the CLI, recomputed and compared.

    python3 tests/report_hashes.py

Runs each pair of ``EXIT_MATRIX`` (a command on a shipped scenario, its
suite bounds shrunk to 2) through ``rnforms.cli.main`` with ``--format
json``, checks the pair's exit code and compares the sha256 of its report
with ``tests/report_hashes.json``.  It prints each pair that differs and
exits 1 then, 0 when every pair matches.  It needs only the standard
library and the checkout's ``src``, so it runs on every Python that
``requires-python`` admits, with or without pytest;
``tests/test_cli.py`` calls the same ``report_hashes``.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from rnforms.cli import main  # noqa: E402  (needs SRC on the path)

SCENARIOS = SRC / "rnforms" / "scenarios"
PINNED = Path(__file__).with_name("report_hashes.json")
SHIPPED = ("aff1", "heisenberg3", "so3", "abelian2", "poly-tangent-r2")

EXIT_MATRIX = {
    # command key -> {scenario: expected exit code}
    ("validate",): dict.fromkeys(SHIPPED, 0),
    ("bracket", "--left", "N2", "--right", "N2"): dict.fromkeys(SHIPPED, 0),
    ("check", "linfty"): dict.fromkeys(SHIPPED, 0),
    ("check", "nijenhuis", "--kind", "weak"): dict.fromkeys(SHIPPED, 0),
    ("check", "nijenhuis", "--kind", "coboundary"): dict.fromkeys(SHIPPED, 0),
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


def shrunk(directory, name: str) -> str:
    """The path of a copy of shipped scenario ``name``, written into
    ``directory``, whose three suite bounds are 2."""
    raw = json.loads((SCENARIOS / f"{name}.json").read_text())
    raw.setdefault("suite", {}).update({"i_max": 2, "m_max": 2, "n_max": 2})
    path = Path(directory) / f"{name}.json"
    path.write_text(json.dumps(raw))
    return str(path)


def report_hashes(directory) -> dict:
    """sha256 of the JSON report of every EXIT_MATRIX pair, keyed
    "scenario: command", with the shrunk scenarios written into
    ``directory``; AssertionError when a pair exits with another code."""
    paths = {name: shrunk(directory, name) for name in SHIPPED}
    hashes = {}
    for command, expectations in EXIT_MATRIX.items():
        for name, expected in expectations.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(["--scenario", paths[name], "--format", "json", *command])
            if code != expected:
                raise AssertionError(f"{name}: {' '.join(command)} exits {code},"
                                     f" expected {expected}")
            hashes[f"{name}: {' '.join(command)}"] = hashlib.sha256(
                out.getvalue().encode()).hexdigest()
    return hashes


def run() -> int:
    pinned = json.loads(PINNED.read_text())
    with tempfile.TemporaryDirectory() as directory:
        got = report_hashes(directory)
    pairs = pinned.keys() | got.keys()
    differing = sorted(key for key in pairs if pinned.get(key) != got.get(key))
    for key in differing:
        print(f"differs: {key}")
    print(f"Python {sys.version.split()[0]}: {len(pairs) - len(differing)} of"
          f" {len(pairs)} pairs match {PINNED.name}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(run())
