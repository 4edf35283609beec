"""The canonical-tuple walk stays behind one module: only ``forms`` reads
form memos, lookups and the piece id table, and no other module imports a
private name from it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rnforms"
KERNEL_ATTRIBUTES = {"_lookup", "_memo", "_ids"}


def _violations(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            from_forms = (node.module == "forms" and node.level == 1
                          or node.module == "rnforms.forms")
            found += [f"line {node.lineno}: imports {alias.name} from forms"
                      for alias in node.names if from_forms and alias.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and node.attr in KERNEL_ATTRIBUTES
              and isinstance(node.ctx, ast.Load)):
            found.append(f"line {node.lineno}: reads .{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "forms.py"),
                         ids=lambda p: p.name)
def test_only_forms_reads_the_tuple_kernel(path):
    assert _violations(path) == []


def test_the_guard_sees_a_violation(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from .forms import _family_tuples\n"
                      "self._ids = None\n"
                      "value = comp._lookup(key)\n")
    assert _violations(module) == ["line 1: imports _family_tuples from forms",
                                   "line 3: reads ._lookup"]
