"""Module boundaries of the package: no rnforms module imports a private
name of another, the canonical-tuple walk stays behind one module: only ``forms`` reads form memos, lookups and
the piece id table, no function takes a certificate's test family or
builds one from Elements (a certificate covers its instance's family,
which ``forms.is_zero`` builds), only the modules that check a degree name
a grading, no module tells a Lie algebra from an algebroid but by its
structure table (a Lie algebra is the algebroid over a point), only
``cli.recognize`` evaluates a form at a tuple, no module
imports a name it does not read, every module-level function and class
is read somewhere in the package and every method but a dunder is read
there as an attribute (tests are no caller: a function only they need
lives under ``tests/``)."""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rnforms"
MODULES = sorted(PACKAGE.glob("*.py"))
KERNEL_ATTRIBUTES = {"_lookup", "_memo", "_ids"}
GRADING_NAMES = {"GradingConvention", "convention", "grading"}
INSTANCE_TYPES = {"LieAlgebraData", "PolyAlgebroidData", "PolyRing"}
# definitions that only a library user calls: the shipped scenarios by
# name, and the constructors of a constant, of the whole basis and of a
# coordinate that the tests build their fixtures and examples with
LIBRARY_ENTRY_POINTS = ["instances.GradedInstance.all_basis", "instances.GradedInstance.scalar",
                        "rings.PolyRing.var", "scenario.load_shipped"]


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


def _family_choices(path: Path) -> list:
    """Each function of ``path`` (qualified by module) that takes a
    ``test_family`` parameter or calls ``default_poly_family``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            scope = f"{scope}.{getattr(node, 'name', '<lambda>')}"
            arguments = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if any(arg.arg == "test_family" for arg in arguments):
                found.append(f"{scope}: takes test_family")
        elif isinstance(node, ast.ClassDef):
            scope = f"{scope}.{node.name}"
        elif isinstance(node, ast.Call) and "default_poly_family" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.append(f"{scope}: calls default_poly_family")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(_tree(path), path.stem)
    return found


def _evaluations(path: Path) -> list:
    """Each ``.evaluate(`` call of ``path``, by the function (qualified by
    module) that makes it, with its line."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            scope = f"{scope}.{getattr(node, 'name', '<lambda>')}"
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "evaluate":
            found.append(f"{scope}: line {node.lineno} calls .evaluate")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(_tree(path), path.stem)
    return found


def _grading_uses(path: Path) -> list:
    """Where ``path`` names a grading: ``GradingConvention`` (its export in
    ``__all__`` too), or a name, parameter or attribute ``convention`` or
    ``grading``, in line order."""
    fields = {ast.Name: "id", ast.Attribute: "attr", ast.arg: "arg", ast.alias: "name",
              ast.Constant: "value"}
    found = []
    for node in ast.walk(_tree(path)):
        name = getattr(node, fields.get(type(node), ""), None)
        if isinstance(name, str) and name in GRADING_NAMES:
            found.append((node.lineno, f"line {node.lineno}: names {name}"))
    return [entry for _, entry in sorted(found)]


def _kind_branches(path: Path) -> list:
    """Where ``path`` tells a Lie algebra from an algebroid by a second
    type: the name ``RationalRing`` (an export string too), a ``.kind``
    read, or an ``isinstance`` test against an ``INSTANCE_TYPES`` name."""
    found = []
    for node in ast.walk(_tree(path)):
        names = [getattr(node, field, None) for field in ("id", "attr", "name", "value")]
        if "RationalRing" in names:
            found.append((node.lineno, f"line {node.lineno}: names RationalRing"))
        if isinstance(node, ast.Attribute) and node.attr == "kind" \
                and isinstance(node.ctx, ast.Load):
            found.append((node.lineno, f"line {node.lineno}: reads .kind"))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" \
                and len(node.args) == 2:
            types = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            for name in (getattr(t, "id", None) or getattr(t, "attr", None) for t in types):
                if name in INSTANCE_TYPES:
                    found.append((node.lineno,
                                  f"line {node.lineno}: isinstance against {name}"))
    return [entry for _, entry in sorted(found)]


def _unused_imports(path: Path) -> list:
    """The names that ``path`` imports (``__future__`` features aside) and
    never reads."""
    tree = _tree(path)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__":
            bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
            found += [f"line {node.lineno}: imports {name}" for name in bound
                      if name not in read]
    return found


def _attribute_reads(node) -> Counter:
    """How often each attribute name is read under ``node``."""
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def _unreferenced(paths) -> list:
    """Each module-level function and class of ``paths``, as module.name,
    that nothing in ``paths`` reads but its own body: neither its module
    (by its name) nor another module (by the name it imported it under
    with ``from .module import``).  And each method of a module-level class
    but a dunder, as module.Class.name, whose name no attribute read in
    ``paths`` names but in its own body (a method is read by name alone,
    whatever the object)."""
    defined, read = set(), set()
    attributes = sum((_attribute_reads(_tree(path)) for path in paths), Counter())
    unread_methods = []
    for path in paths:
        module, tree = path.stem, _tree(path)
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                unread_methods += [
                    f"{module}.{top.name}.{node.name}" for node in top.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and attributes[node.name] == _attribute_reads(node)[node.name]]
        imported = {alias.asname or alias.name: (node.module, alias.name)
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1
                    for alias in node.names}
        for top in tree.body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                own = (module, top.name)
                defined.add(own)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    target = imported.get(node.id, (module, node.id))
                    if target != own:
                        read.add(target)
    return sorted([f"{module}.{name}" for module, name in defined - read] + unread_methods)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_private_name(path):
    assert _private_imports(path) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "forms.py"],
                         ids=lambda p: p.name)
def test_only_forms_reads_the_tuple_kernel(path):
    assert _kernel_reads(path) == []


def test_only_is_zero_chooses_a_test_family():
    """A polynomial instance declares its family (``poly_degree_bound``),
    and ``is_zero`` builds it as piece ids from that definition: no package
    function takes a family or builds it from Elements (the Element-level
    ``default_poly_family`` is a reference under ``tests/``)."""
    assert [entry for path in MODULES for entry in _family_choices(path)] == []


def test_only_recognize_evaluates_a_form():
    """A certificate reads a form through ``is_zero`` alone; the one package
    function that evaluates a form at a tuple is ``cli.recognize``, at a
    certificate's counterexample (a bracket of elements is the instance's
    ``sn_bracket``)."""
    calls = [entry for path in MODULES for entry in _evaluations(path)]
    assert calls and [entry for entry in calls if not entry.startswith("cli.recognize:")] == []


def test_only_the_degree_checks_name_a_grading():
    """Forms carry no grading, so neither the kernel nor the catalog nor
    ``pqn`` names one: only ``graded``, which defines the gradings, and the
    two degree checks (``linfty.nijenhuis_forms`` and the form expressions
    of ``cli``) do."""
    assert sorted(path.stem for path in MODULES if _grading_uses(path)) == [
        "cli", "graded", "linfty"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_kind_of_instance(path):
    """A Lie algebra is the algebroid over a point: one ring type and one
    structure table, so the package branches on ``data.base_dim == 0`` (no
    coordinates) alone, never on a ring kind or an instance type."""
    assert _kind_branches(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_does_not_read(path):
    assert _unused_imports(path) == []


def test_every_definition_has_a_caller_in_the_package():
    """A function, class or method that only tests call is a reference: it
    belongs under ``tests/``."""
    assert _unreferenced(MODULES) == LIBRARY_ENTRY_POINTS


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
    module.write_text("class Scenario:\n"
                      "    def family(self):\n"
                      "        return forms.default_poly_family(self.instance, 2)\n"
                      "def check(form, test_family=None):\n"
                      "    return [default_poly_family(i) for i in (1, 2)]\n"
                      "SUITE = lambda s, *, test_family: s\n")
    assert _family_choices(module) == ["module.Scenario.family: calls default_poly_family",
                                       "module.check: takes test_family",
                                       "module.check: calls default_poly_family",
                                       "module.<lambda>: takes test_family"]
    module.write_text("def recognize(comp, failing):\n"
                      "    return comp.evaluate(failing)\n"
                      "class Harness:\n"
                      "    def pair(self, l2, pi):\n"
                      "        return l2.evaluate((pi, pi))\n"
                      "value = (lambda f: f.evaluate(()))(form)\n"
                      "evaluate(form)\n")
    assert _evaluations(module) == ["module.recognize: line 2 calls .evaluate",
                                    "module.Harness.pair: line 5 calls .evaluate",
                                    "module.<lambda>: line 6 calls .evaluate"]
    module.write_text("from .graded import GradingConvention\n"
                      "def wedge_form(instance, k, convention=None):\n"
                      "    return shared_node(instance, (k, form.convention), build)\n"
                      "__all__ = ['GradingConvention']\n")
    assert _grading_uses(module) == ["line 1: names GradingConvention",
                                     "line 2: names convention",
                                     "line 3: names convention",
                                     "line 4: names GradingConvention"]
    module.write_text("from .rings import RationalRing\n"
                      "if instance.ring.kind == 'poly':\n"
                      "    ring = rings.RationalRing()\n"
                      "instance.kind = 'lie'\n"
                      "if isinstance(data, LieAlgebraData) or isinstance(r, (int, PolyRing)):\n"
                      "    flag = isinstance(data, instances.PolyAlgebroidData)\n"
                      "ok = isinstance(data, GradedInstance) and data.base_dim == 0\n"
                      "__all__ = ['RationalRing']\n")
    assert _kind_branches(module) == ["line 1: names RationalRing",
                                      "line 2: reads .kind",
                                      "line 3: names RationalRing",
                                      "line 5: isinstance against LieAlgebraData",
                                      "line 5: isinstance against PolyRing",
                                      "line 6: isinstance against PolyAlgebroidData",
                                      "line 8: names RationalRing"]
    module.write_text("from __future__ import annotations\n"
                      "import os.path\n"
                      "from .other import used, imported_only\n"
                      "def helper():\n"
                      "    return used()\n"
                      "def recursive(n):\n"
                      "    return recursive(n - 1)\n"
                      "class Lonely:\n"
                      "    pass\n"
                      "if __name__ == '__main__':\n"
                      "    helper()\n")
    other = tmp_path / "other.py"
    other.write_text("def used():\n"
                     "    return Ring().one().scale(2)\n"
                     "def imported_only():\n"
                     "    return 2\n"
                     "class Ring:\n"
                     "    def __add__(self, other):\n"
                     "        return self\n"
                     "    def one(self):\n"
                     "        return self.var(0)\n"
                     "    def var(self, index):\n"
                     "        return self.var(index - 1) if index else self\n"
                     "    def scale(self, factor):\n"
                     "        return self\n"
                     "    def zero(self):\n"
                     "        return self.zero()\n")
    assert _unused_imports(module) == ["line 2: imports os", "line 3: imports imported_only"]
    assert _unreferenced([module, other]) == ["module.Lonely", "module.recursive",
                                              "other.Ring.zero", "other.imported_only"]
