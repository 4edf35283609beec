"""The benchmark tracer (bench/tracer.py) wraps rnforms' layers by name and
reads the size of ``GradedInstance._sn_memo``; a change to a wrapped name, a
call shape or the memo breaks it.  Run it end to end on a Lie algebra and on
the polynomial path."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "src" / "rnforms" / "scenarios"
COMMAND = ["--scenario", str(SCENARIOS / "aff1.json"), "--format", "json",
           "check", "nijenhuis", "--kind", "full"]


def _run(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300)


def _traced(tmp_path, command) -> dict:
    """The tracer's stats of ``command``, after checking that the traced run
    prints what the plain CLI prints."""
    stats = tmp_path / "stats.json"
    traced = _run([str(ROOT / "bench" / "tracer.py"), str(stats), *command])
    plain = _run(["-m", "rnforms.cli", *command])
    assert traced.returncode == plain.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    return json.loads(stats.read_text())


def test_tracer_reproduces_cli_output_and_writes_stats(tmp_path):
    payload = _traced(tmp_path, COMMAND)
    for key in ("stats", "counts", "peaks"):
        assert payload[key], key
    assert payload["stats"]["forms.is_zero"][0] > 0


def test_tracer_on_the_polynomial_path(tmp_path):
    """``check pqn`` runs the Schouten bracket on Poly coefficients but no
    certificate, and the tracer samples the memo sizes only after a
    certificate, so ``check linfty`` reads ``_sn_memo``."""
    poly = ["--scenario", str(SCENARIOS / "poly-tangent-r2.json"), "--format", "json"]
    payload = _traced(tmp_path, [*poly, "check", "pqn"])
    assert payload["stats"]["instances.validate"][0] == 1
    assert payload["stats"]["instances.sn_bracket"][0] > 0
    assert payload["stats"]["rings.poly_mul"][0] > 0
    assert payload["counts"]["rings.poly_new"] > 0
    payload = _traced(tmp_path, [*poly, "check", "linfty"])
    assert payload["peaks"]["instances.sn_memo.entries"] > 0
