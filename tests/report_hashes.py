"""The golden report hashes of the CLI, recomputed and compared.

    python3 tests/report_hashes.py

Runs each pair of ``EXIT_MATRIX`` (a command on a shipped scenario, its
suite bounds shrunk to 2) through ``rnforms.cli.main`` with ``--format
json``, checks the pair's exit code and compares the sha256 of its report
with ``tests/report_hashes.json``.  Then it runs the three PQN commands on
each of ``FAILING_PQN_SCENARIOS`` and compares exit code and hash with
``FAILING_PQN_REPORTS``.  It prints each pair that differs and exits 1
then, 0 when every pair matches.  It needs only the standard library and
the checkout's ``src``, so it runs on every Python that
``requires-python`` admits, with or without pytest; ``tests/test_cli.py``
calls the same ``report_hashes`` and ``failing_pqn_reports``.
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

# scenarios on which the PQN commands fail, beyond the shipped five
FAILING_PQN_SCENARIOS = {
    # Lie algebra: omega is not compatible with N
    "h3-bad": {
        "instance": {"lie_algebra": {"dim": 3, "basis": ["e1", "e2", "e3"],
                                     "brackets": {"e1,e2": {"e3": "1"}}}},
        "data": {"pi": {"e1^e3": "1"}, "N": [["1", "0", "0"], ["0", "2", "0"],
                                             ["0", "0", "1"]],
                 "omega": {"e1^e3": "1", "e2^e3": "1"}, "alpha": {"e1^e2": "1"}}},
    # polynomial algebroid with Euler anchor: side A and condition (c) fail
    # at (a1, a2)
    "euler-bad": {
        "instance": {"poly_algebroid": {
            "base_dim": 2, "coordinates": ["x1", "x2"], "rank": 2,
            "generators": ["a1", "a2"], "brackets": {},
            "anchor": [[{"x1": "1"}, "0"], ["0", {"x2": "1"}]]}},
        "data": {"N": [[{"x2": "1"}, "0"], ["0", "1"]], "alpha": {"a1^a2": {"x1": "1"}}},
        "suite": {"poly_degree_bound": 1}},
    # Lie algebra with torsion: side A and condition (c) fail at (e1, e2)
    "h3-torsion": {
        "instance": {"lie_algebra": {"dim": 3, "basis": ["e1", "e2", "e3"],
                                     "brackets": {"e1,e2": {"e3": "1"}}}},
        "data": {"N": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "3"]]}},
    # every term of the double-bracket decomposition is nonzero
    "poly-r3-background": {
        "instance": {"poly_algebroid": {
            "base_dim": 3, "coordinates": ["x1", "x2", "x3"], "rank": 3,
            "generators": ["a1", "a2", "a3"], "brackets": {},
            "anchor": [[{"x1": "1"}, "0", "0"], ["0", {"x2": "1"}, "0"],
                       ["0", "0", {"x3": "1"}]]}},
        "data": {"pi": {"a1^a2": {"x3": "1"}}, "N": [["2", "0", "0"], ["0", "2", "0"],
                                                     ["0", "0", "2"]],
                 "omega": {"a2^a3": {"x1": "1"}}, "H": {"a1^a2^a3": {"1": "1"}}},
        "suite": {"poly_degree_bound": 1}},
    # abelian with a background: stienon-xu refuses H != 0
    "abelian3-background": {
        "instance": {"lie_algebra": {"dim": 3, "basis": ["e1", "e2", "e3"],
                                     "brackets": {}}},
        "data": {"pi": {"e1^e2": "1"}, "N": [["2", "1", "0"], ["0", "2", "0"],
                                             ["0", "0", "2"]],
                 "omega": {"e1^e3": "1"}, "H": {"e1^e2^e3": "1"}}},
    # aff1 with a declared lambda that is not the solved one: condition (d)
    # fails on check pqn only (the harnesses pin lambda to 0 or solve none)
    "aff1-declared-lambda": {
        "instance": {"lie_algebra": {"dim": 2, "basis": ["e1", "e2"],
                                     "brackets": {"e1,e2": {"e2": "1"}}}},
        "data": {"lambda": "1"}},
}

# "scenario: command" -> (exit code, sha256 of the JSON report)
FAILING_PQN_REPORTS = {
    "h3-bad: check pqn":
        (1, "0d398ef95362f8523f29e21b52b3771d3cd6bcdca1f17b52971bb61e02bdbe92"),
    "h3-bad: suite main-theorem":
        (1, "b3705e4ba59eee565f6c3b7d4fe8f5ef58dafb616e6672822961761da9cc9181"),
    "h3-bad: suite stienon-xu":
        (1, "552824652266ff965c33070d176a9aac09efbd913d3ef14a6b84505d0006bdac"),
    "euler-bad: check pqn":
        (1, "3a5ca0023b8c145191abd186991237acdb7064d34581e4332295bfd6cec161d5"),
    "euler-bad: suite main-theorem":
        (1, "df3a801490774a992c6026e060100bcd780e9d163b0fde2aa8db4c310674f8a9"),
    "euler-bad: suite stienon-xu":
        (1, "41395189e0f6c5de14ebb3933373dce4c9103b2cb44ed19600fb7b7645259576"),
    "h3-torsion: check pqn":
        (1, "e90d5752bc25b77d8c9ccf3fa04d2d445d6e1f362a8cc00d36edbd6bdaa5c098"),
    "h3-torsion: suite main-theorem":
        (1, "3901af6b3ec35d44c7de6d8bcf69b7292950a1942f782e91a36d15d7f6dd0cf5"),
    "h3-torsion: suite stienon-xu":
        (1, "af99c08382124f77650ddbffcbfeacb9e05264f7d5195cd11b2da22348d86deb"),
    "poly-r3-background: check pqn":
        (1, "cc753a245c7001ab8947f3b2123f52b2beb1dc8d51e94ada821d90b3b6b7e7dc"),
    "poly-r3-background: suite main-theorem":
        (1, "6930d67aaf16fadb3493fda4bd06d4b72d19729c8e5fc252ff8fa8008db565cc"),
    "poly-r3-background: suite stienon-xu":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "abelian3-background: check pqn":
        (1, "0cdff8dd2662ea21e0f8448bbb42cb7fbb008914f7ea3be3666f87564fc26c04"),
    "abelian3-background: suite main-theorem":
        (1, "55b095629e257b52097bcd3f600c660462290ac254207227c5106cbccbcbf695"),
    "abelian3-background: suite stienon-xu":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "aff1-declared-lambda: check pqn":
        (1, "3285c809acdd75fd5b10379cb8aadabe658ccd9b35b0d144253068461c9cbb3c"),
    "aff1-declared-lambda: suite main-theorem":
        (0, "cce56ff88775adc389a5eeac0bcae12535ecf7c7c68f152c193a2b51e2ed03ee"),
    "aff1-declared-lambda: suite stienon-xu":
        (0, "0ad2a223118ca5aa470d7842a58dd5b128e353213c546aa54859da5710e8d47b"),
}

PQN_COMMANDS = (("check", "pqn"), ("suite", "main-theorem"), ("suite", "stienon-xu"))


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
            code, digest = _json_report(paths[name], command)
            if code != expected:
                raise AssertionError(f"{name}: {' '.join(command)} exits {code},"
                                     f" expected {expected}")
            hashes[f"{name}: {' '.join(command)}"] = digest
    return hashes


def failing_pqn_reports(directory) -> dict:
    """(exit code, sha256 of the JSON report) of each PQN command on each
    of ``FAILING_PQN_SCENARIOS``, written into ``directory``, keyed
    "scenario: command"."""
    got = {}
    for name, raw in FAILING_PQN_SCENARIOS.items():
        path = Path(directory) / f"{name}.json"
        path.write_text(json.dumps({"name": name, **raw}))
        for command in PQN_COMMANDS:
            got[f"{name}: {' '.join(command)}"] = _json_report(str(path), command)
    return got


def _json_report(path: str, command) -> tuple:
    """(exit code, sha256 of stdout) of ``command`` on the scenario at
    ``path`` with ``--format json``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["--scenario", path, "--format", "json", *command])
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def run() -> int:
    with tempfile.TemporaryDirectory() as directory:
        checks = ((json.loads(PINNED.read_text()), report_hashes(directory), PINNED.name),
                  (FAILING_PQN_REPORTS, failing_pqn_reports(directory), "FAILING_PQN_REPORTS"))
    failed = False
    for pinned, got, source in checks:
        pairs = pinned.keys() | got.keys()
        differing = sorted(key for key in pairs if pinned.get(key) != got.get(key))
        for key in differing:
            print(f"differs: {key}")
        print(f"Python {sys.version.split()[0]}: {len(pairs) - len(differing)} of"
              f" {len(pairs)} pairs match {source}")
        failed = failed or bool(differing)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
