"""The benchmark tracer (bench/tracer.py) wraps rnforms' layers by name; a
change to a wrapped name or call shape breaks it.  Run it once, end to end."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AFF1 = ROOT / "src" / "rnforms" / "scenarios" / "aff1.json"
COMMAND = ["--scenario", str(AFF1), "--format", "json", "check", "nijenhuis", "--kind", "full"]


def _run(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300)


def test_tracer_reproduces_cli_output_and_writes_stats(tmp_path):
    stats = tmp_path / "stats.json"
    traced = _run([str(ROOT / "bench" / "tracer.py"), str(stats), *COMMAND])
    plain = _run(["-m", "rnforms.cli", *COMMAND])
    assert traced.returncode == plain.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    payload = json.loads(stats.read_text())
    for key in ("stats", "counts", "peaks"):
        assert payload[key], key
    assert payload["stats"]["forms.is_zero"][0] > 0
