"""Module boundaries of the package: every public name resolves, no
rnforms module imports a private name of another, and the canonical-tuple
walk stays behind one module: only ``forms`` reads form memos, lookups and
the piece id table."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import rnforms

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rnforms"
MODULES = sorted(PACKAGE.glob("*.py"))
KERNEL_ATTRIBUTES = {"_lookup", "_memo", "_ids"}


def _tree(path: Path):
    return ast.parse(path.read_text(), filename=str(path))


def _private_imports(path: Path) -> list:
    """The private names that ``path`` imports from another rnforms module
    (a relative import, or one from ``rnforms``)."""
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "rnforms"):
            found += [f"line {node.lineno}: imports {alias.name} from {node.module}"
                      for alias in node.names if alias.name.startswith("_")]
    return found


def _kernel_reads(path: Path) -> list:
    """The kernel attributes of ``forms`` that ``path`` reads."""
    return [f"line {node.lineno}: reads .{node.attr}" for node in ast.walk(_tree(path))
            if isinstance(node, ast.Attribute) and node.attr in KERNEL_ATTRIBUTES
            and isinstance(node.ctx, ast.Load)]


def test_every_public_name_resolves_once():
    """Each name of ``rnforms.__all__`` is bound in the package, once, so
    ``from rnforms import *`` works after an export is removed."""
    assert [name for name, n in Counter(rnforms.__all__).items() if n > 1] == []
    assert [name for name in rnforms.__all__ if not hasattr(rnforms, name)] == []
    namespace = {}
    exec("from rnforms import *", namespace)
    assert set(rnforms.__all__) <= set(namespace)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_private_name(path):
    assert _private_imports(path) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "forms.py"],
                         ids=lambda p: p.name)
def test_only_forms_reads_the_tuple_kernel(path):
    assert _kernel_reads(path) == []


def test_the_guard_sees_a_violation(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from .forms import _family_tuples\n"
                      "from rnforms.pqn import check_pqn, _ratio\n"
                      "from os.path import _joinrealpath\n"
                      "self._ids = None\n"
                      "value = comp._lookup(key)\n")
    assert _private_imports(module) == ["line 1: imports _family_tuples from forms",
                                        "line 2: imports _ratio from rnforms.pqn"]
    assert _kernel_reads(module) == ["line 5: reads ._lookup"]
