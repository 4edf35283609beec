"""Differential tests: the fast evaluation path of forms (shared nodes,
linear combinations, named Nijenhuis forms, the canonical-tuple kernel, the
wedge-degree window) against slow references built from the validated
graded.koszul_sign, a closure evaluator and the full enumeration of
canonical tuples."""

import gc
import itertools
import time
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from rnforms import linfty
from rnforms.catalog import extend_bundle_map, l2_form, lk_form, wedge_form
from rnforms.elements import Element
from rnforms.forms import (PolyForm, VForm, _Ids, _tuple_count, element_form, insert, is_zero,
                           rn_bracket)
from rnforms.graded import koszul_sign, unshuffles
from rnforms.instances import GradedInstance, LieAlgebraData
from rnforms import pqn
from rnforms.linfty import (coefficient_suite, nijenhuis_forms, pencil, report_nijenhuis,
                            square_of_sum, sum_of_wedges)
from rnforms.pqn import main_theorem_harness, stienon_xu_harness
from rnforms.report import Report
from rnforms.rings import InputError
from rnforms.scenario import load_shipped

from forms_reference import coordinate_monomials, declared_family
from generated_instances import (broken_jacobi3, poly_rank3, semidirect, two_step_nilpotent,
                                 with_bound)
from graded_reference import koszul_sign_by_transpositions
from linfty_reference import torsion_formulas_agree

NAMES = ("h3", "so3", "broken_jacobi3", "poly-tangent-r2")
# the window tests add poly-tangent-r2 declaring coordinate degree 2
WINDOW_NAMES = ("aff1", "h3", "so3", "broken_jacobi3", "poly-tangent-r2", "poly-tangent-r2@2")
SETTINGS = settings(max_examples=60, deadline=None)


def unbounded(monkeypatch):
    """Force every order bound to None: every form reads None, so is_zero
    walks the whole window as it did before order families.  A bound
    assigned meanwhile lands in the form, where it is read once the patch
    is undone."""
    monkeypatch.setattr(VForm, "order", property(
        lambda form: None, lambda form, order: form.__dict__.update(order=order)),
        raising=False)


@cache
def instance(name):
    """A shipped instance, or ``broken_jacobi3``; "name@d" declares the
    coordinate degree d."""
    if name == "broken_jacobi3":
        return broken_jacobi3()
    name, _, bound = name.partition("@")
    inst = load_shipped({"h3": "heisenberg3"}.get(name, name)).instance
    return with_bound(inst, int(bound)) if bound else inst


@cache
def family(name):
    return tuple(declared_family(instance(name)))


@cache
def catalog(name):
    """Forms of arity <= 3 whose insertions the suites build."""
    inst = instance(name)
    forms = [wedge_form(inst, k) for k in (1, 2, 3)] + [l2_form(inst), lk_form(inst, 3)]
    identity = [[1 if i == j else 0 for j in range(inst.rank)] for i in range(inst.rank)]
    forms.append(extend_bundle_map(inst, identity))
    forms.append(element_form(inst, inst.generator(0)))
    return tuple(forms)


def reference_insert(K, L):
    """The insertion rule as a chain of Element additions, with the Koszul
    sign of every unshuffle from graded.koszul_sign."""
    k, l = K.arity, L.arity
    shuffles = unshuffles(k, l - 1)

    def fn(args):
        parities = [arg.wedge_degree() for arg in args]
        total = Element.zero()
        for perm in shuffles:
            sign = koszul_sign(perm, parities)
            inner = K.evaluate(tuple(args[i] for i in perm[:k]))
            if inner.is_zero():
                continue
            value = L.evaluate((inner,) + tuple(args[i] for i in perm[k:]))
            if sign < 0:
                value = -value
            total = total + value
        return total

    return fn


def reference_order(inst, args):
    """Sorting permutation by (wedge degree, key), and whether an odd
    argument repeats."""
    keys = [(arg.wedge_degree(), arg.key(inst.ring)) for arg in args]
    order = sorted(range(len(args)), key=keys.__getitem__)
    repeated_odd = any(keys[a] == keys[b] and keys[a][0] % 2
                       for a, b in zip(order, order[1:]))
    return order, repeated_odd


def reference_family_tuples(inst, arity, family=None):
    """Every canonical tuple of the instance's family (the basis of a Lie
    algebra, a polynomial algebroid's declared family) or of ``family``,
    window or not, as (tuple of family elements, key) in test order:
    combinations with replacement of the positions sorted by key, minus
    those with a repeated odd id."""
    family = declared_family(inst) if family is None else list(family)
    table = id_table(inst)
    ids = [table.id_of(el) for el in family]
    for combo in itertools.combinations_with_replacement(
            sorted(range(len(ids)), key=lambda p: table.keys[ids[p]]), arity):
        key = tuple([ids[p] for p in combo])
        if not any(a == b and table.odd[a] for a, b in zip(key, key[1:])):
            yield tuple([family[p] for p in combo]), key


def basis_tuples(inst, arity, family=None):
    """The canonical tuples of :func:`reference_family_tuples`."""
    return [combo for combo, _ in reference_family_tuples(inst, arity, family)]


def in_window(form, args):
    """Whether the wedge degrees of ``args`` plus the form's shift lie in
    [0, rank], where a value can be nonzero."""
    return 0 <= form.shift + sum(el.wedge_degree() for el in args) <= form.instance.rank


@st.composite
def arguments(draw, name, min_size=1, max_size=4, zeros=True):
    """Arguments drawn from the family with repeats, scaled by small
    rationals, and (optionally) with zero arguments."""
    pool = family(name)
    size = draw(st.integers(min_size, max_size))
    out = []
    for _ in range(size):
        if zeros and draw(st.integers(0, 7)) == 0:
            out.append(Element.zero())
            continue
        el = pool[draw(st.integers(0, len(pool) - 1))]
        factor = draw(st.sampled_from((1, 1, 1, -1, 2, Fraction(1, 2))))
        out.append(el if factor == 1 else el.scale(factor))
    return tuple(out)


@st.composite
def cases(draw, **kwargs):
    name = draw(st.sampled_from(NAMES))
    return name, draw(arguments(name, **kwargs))


@SETTINGS
@given(cases(zeros=False))
def test_canonical_sign_matches_koszul_references(case):
    name, args = case
    inst = instance(name)
    form = wedge_form(inst, len(args))
    key, sign = form._canonical(args)
    order, repeated_odd = reference_order(inst, args)
    assert isinstance(sign, int)
    if repeated_odd:
        assert sign == 0
        return
    degrees = [arg.wedge_degree() for arg in args]
    assert sign == koszul_sign(order, degrees) == koszul_sign_by_transpositions(order, degrees)
    assert key == tuple(id_table(inst).id_of(args[i]) for i in order)
    assert tuple(id_table(inst).elements[i] for i in key) == tuple(args[i] for i in order)


def id_table(inst):
    """The instance's piece id table, built as the first evaluation builds it."""
    inst._ids = inst._ids or _Ids(inst)
    return inst._ids


def rule_value(form, args):
    """The rule of an atomic node on a canonical tuple, without its memo:
    a catalog rule takes the Elements, an insertion rule their ids."""
    if not form.on_ids:
        return form.fn(args)
    table = id_table(form.instance)
    return table.element(form.fn(tuple(table.id_of(arg) for arg in args)))


@SETTINGS
@given(cases(max_size=3), st.integers(0, 4))
def test_evaluate_permuted_is_signed_sorted_value(case, pick):
    name, args = case
    inst = instance(name)
    forms = [f for f in catalog(name) if f.arity == len(args)]
    if not forms:
        return
    form = forms[pick % len(forms)]
    value = form.evaluate(args)
    if any(arg.is_zero() for arg in args):
        assert value.is_zero()
        return
    order, repeated_odd = reference_order(inst, args)
    ordered = tuple(args[i] for i in order)
    sign = 0 if repeated_odd else koszul_sign(order, [a.wedge_degree() for a in args])
    assert value == form.evaluate(ordered).scale(sign)
    if sign:
        # the rule on the canonical tuple, without the memo path
        assert value == rule_value(form, ordered).scale(sign)


@cache
def insert_nodes(name):
    """Every insertion of a catalog form into one of positive arity, up to
    arity 4, with its reference rule."""
    forms = catalog(name)
    return tuple((insert(K, L), reference_insert(K, L)) for K in forms for L in forms
                 if L.arity and K.arity + L.arity - 1 <= 4)


@SETTINGS
@given(cases(min_size=4, zeros=False))
def test_insert_matches_reference_insertion(case):
    name, args = case
    for index, (node, reference) in enumerate(insert_nodes(name)):
        head = args[:node.arity]
        slow = reference(head)
        assert node.evaluate(head) == slow, index
        order, repeated_odd = reference_order(instance(name), head)
        if repeated_odd:
            continue
        ordered = tuple(head[i] for i in order)
        fast = rule_value(node, ordered)
        assert fast.scale(koszul_sign(order, [arg.wedge_degree() for arg in head])) == slow, index
        slow = reference(ordered)
        # the same label on the canonical tuples, the only ones the rule runs
        # on, so reports cannot differ; the term order is not compared, since
        # an Element equal to one met before reads that one's id and Element
        inst = instance(name)
        assert inst.basis_label(fast) == inst.basis_label(slow), index


@pytest.mark.parametrize("name", ["heisenberg3", "poly-tangent-r2"],
                         ids=lambda name: name.replace("-", "_"))
def test_equal_arguments_in_opposite_term_order_give_equal_labels(name):
    """Two equal Elements with their terms in opposite order, evaluated one
    after the other on one instance: the second reads the first one's id,
    so a value may keep the first one's term order, but the values and the
    labels reports print are equal."""
    inst = load_shipped(name).instance
    e = inst.generator
    forward = e(0) + e(1).scale(2)
    backward = e(1).scale(2) + e(0)
    assert forward == backward and list(forward.terms) != list(backward.terms)
    identity = [[1 if i == j else 0 for j in range(inst.rank)] for i in range(inst.rank)]
    forms = [wedge_form(inst, k) for k in (1, 2, 3)] + [l2_form(inst), lk_form(inst, 3),
                                                        extend_bundle_map(inst, identity)]
    nodes = [(form, lambda args, form=form: rule_value(form, args)) for form in forms]
    nodes += [(insert(K, L), reference_insert(K, L)) for K in forms for L in forms
              if K.arity + L.arity - 1 <= 3]
    other = (e(0).scale(3) + e(1), e(1))
    for index, (node, reference) in enumerate(nodes):
        labels = []
        for arg in (forward, backward):
            head = ((arg,) + other)[:node.arity]
            order, repeated_odd = reference_order(inst, head)
            if repeated_odd:
                continue
            ordered = tuple(head[i] for i in order)
            fast = node.evaluate(ordered)
            slow = reference(ordered)
            assert fast == slow, index
            assert inst.basis_label(fast) == inst.basis_label(slow), index
            labels.append(inst.basis_label(fast))
        assert len(set(labels)) <= 1, index


@SETTINGS
@given(cases(zeros=False, max_size=3), st.integers(0, 6), st.integers(0, 3))
def test_mixed_degree_argument_raises(case, pick, slot):
    name, args = case
    inst = instance(name)
    forms = [f for f in catalog(name) if f.arity == len(args)]
    forms += [insert(K, L) for K in catalog(name) for L in catalog(name)[:2]
              if K.arity + L.arity - 1 == len(args) and K.arity]
    form = forms[pick % len(forms)]
    mixed = inst.unit() + inst.generator(0)
    args = list(args)
    args[slot % len(args)] = mixed
    with pytest.raises(InputError):
        form.evaluate(tuple(args))


# -- shared nodes and linear combinations ----------------------------------------------

COEFFICIENTS = st.sampled_from((1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)))


@SETTINGS
@given(st.sampled_from(("h3", "so3", "poly-tangent-r2")), st.data())
def test_linear_combination_is_combination_of_values(name, data):
    """A rational combination of catalog forms (with repeats, so that
    coefficients merge and may cancel) evaluates to the same combination of
    the parts' values."""
    groups = {}
    for form in catalog(name):
        groups.setdefault((form.arity, form.shift), []).append(form)
    group = data.draw(st.sampled_from(sorted(groups.values(), key=lambda g: g[0].arity)))
    picks = data.draw(st.lists(st.tuples(st.sampled_from(group), COEFFICIENTS),
                               min_size=1, max_size=4))
    combination = picks[0][0].scale(picks[0][1])
    for form, coeff in picks[1:]:
        combination = (combination + form.scale(coeff) if data.draw(st.booleans())
                       else combination - form.scale(-coeff))
    args = data.draw(arguments(name, group[0].arity, group[0].arity))
    expected = Element.zero()
    for form, coeff in picks:
        expected = expected + form.evaluate(args).scale(coeff)
    assert combination.evaluate(args) == expected
    assert all(node.terms is None for node in combination.linear_terms())


@SETTINGS
@given(cases(min_size=4, zeros=False), COEFFICIENTS, COEFFICIENTS)
def test_scaled_insert_is_scaled_reference_insertion(case, a, b):
    name, args = case
    for K in catalog(name):
        for L in catalog(name):
            if not L.arity or K.arity + L.arity - 1 > 4:
                continue
            head = args[:K.arity + L.arity - 1]
            fast = insert(K.scale(a), L.scale(b))
            assert fast.evaluate(head) == reference_insert(K, L)(head).scale(a * b)
            assert fast.linear_terms().keys() == insert(K, L).linear_terms().keys()


class ClosureForm:
    """The closure design that shared nodes replaced: every scale, sum and
    insertion is a new rule with a memo of its own, and arguments are sorted
    with the validated koszul_sign."""

    def __init__(self, inst, arity, shift, fn):
        self.inst, self.arity, self.shift, self.fn = inst, arity, shift, fn
        self.memo = {}

    def evaluate(self, args):
        args = tuple(args)
        if any(arg.is_zero() for arg in args):
            return Element.zero()
        order, repeated_odd = reference_order(self.inst, args)
        if repeated_odd:
            return Element.zero()
        ordered = tuple(args[i] for i in order)
        if ordered not in self.memo:
            self.memo[ordered] = self.fn(ordered)
        value = self.memo[ordered]
        return value if koszul_sign(order, [a.wedge_degree() for a in args]) > 0 else -value

    def combine(self, other, factor):
        return ClosureForm(self.inst, self.arity, self.shift,
                           lambda args: self.evaluate(args)
                           + other.evaluate(args).scale(factor))


def closure_bracket(K, L):
    """[K, L] of two {arity: ClosureForm} families, term by term."""
    out = {}
    for Kk in K.values():
        for Ll in L.values():
            if not Kk.arity and not Ll.arity:
                continue
            arity = Kk.arity + Ll.arity - 1
            shift = Kk.shift + Ll.shift
            sign = -1 if (Kk.shift * Ll.shift) % 2 == 0 else 1

            def zero(args):
                return Element.zero()

            left = ClosureForm(Kk.inst, arity, shift,
                               reference_insert(Kk, Ll) if Ll.arity else zero)
            right = ClosureForm(Kk.inst, arity, shift,
                                reference_insert(Ll, Kk) if Kk.arity else zero)
            part = left.combine(right, sign)
            out[arity] = out[arity].combine(part, 1) if arity in out else part
    return out


@cache
def nested_brackets(name):
    return nested_brackets_on(instance(name))


def nested_brackets_on(inst):
    """[N,[N,mu]] with N = N1 - 2 N2 and mu = l2 + (1/2) l3, as shared nodes
    and as closures over the same primitive rules."""
    parts = {"N": [(wedge_form(inst, 1), 1), (wedge_form(inst, 2), -2)],
             "mu": [(l2_form(inst), 1), (lk_form(inst, 3), Fraction(1, 2))]}
    fast = {key: PolyForm(inst, [f.scale(c) for f, c in terms])
            for key, terms in parts.items()}
    slow = {key: {f.arity: ClosureForm(inst, f.arity, f.shift,
                                       lambda args, f=f, c=c: rule_value(f, args).scale(c))
                  for f, c in terms}
            for key, terms in parts.items()}
    return (rn_bracket(fast["N"], rn_bracket(fast["N"], fast["mu"])),
            closure_bracket(slow["N"], closure_bracket(slow["N"], slow["mu"])))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(("h3", "so3", "poly-tangent-r2")), st.data())
def test_nested_bracket_matches_closure_evaluator(name, data):
    fast, slow = nested_brackets(name)
    assert tuple(fast.components) == tuple(sorted(slow))
    arity = data.draw(st.sampled_from(tuple(fast.components)))
    args = data.draw(arguments(name, arity, arity))
    assert fast.component(arity).evaluate(args) == slow[arity].evaluate(args)


def test_non_unit_combination_through_its_representative():
    """insert(2K + 3L, M) and insert(M, 2K + 3L): the combination is
    reduced to a shared representative K + (3/2) L, whose coefficients stay
    Fractions (an int quotient would be a float), and the insertion equals
    the reference insertion loop on every canonical basis tuple."""
    inst = load_shipped("heisenberg3").instance
    K = wedge_form(inst, 1)
    L = extend_bundle_map(inst, [[1, 2, 0], [0, 1, 0], [0, 0, 3]])
    M = l2_form(inst)
    combination = K.scale(2) + L.scale(3)
    checked = 0
    for node, parts in ((insert(combination, M), (reference_insert(K, M), reference_insert(L, M))),
                        (insert(M, combination), (reference_insert(M, K), reference_insert(M, L)))):
        for args in basis_tuples(inst, node.arity):
            expected = parts[0](args).scale(2) + parts[1](args).scale(3)
            assert node.evaluate(args) == expected, args
            checked += not expected.is_zero()
    assert checked
    shared = [node for node in inst._form_nodes.values() if node.terms is not None]
    assert [node.terms for node in shared] == [{K: 1, L: Fraction(3, 2)}]
    assert all(type(c) is Fraction for node in shared for c in node.terms.values())
    for node in atomic_nodes((inst,)):
        for value in node._memo.values():
            assert all(plain_coefficient(c) for c in value.values())


# -- generated instances with rational structure constants -----------------------------

# no shrink phase: each shrink step re-runs a whole example, coefficient suite
# included, and shrinking one failure took minutes; a failure is reported on
# the example that failed
@settings(max_examples=8, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(st.one_of(two_step_nilpotent(), semidirect()), st.data())
def test_generated_nilpotent_kernel_matches_references(inst, data):
    """On generated instances (validated at construction), two-step
    nilpotent ones and the solvable R ⋉ R^n, the kernel agrees with the
    reference insertion loop and the closure evaluator, its piece maps hold
    int coefficients, and Fraction ones too when a structure constant is
    not integral (always on the nilpotent ones), the coefficient identities and
    [l_m, l_n] = 0 hold at bounds (2, 2, 2), and both torsion formulas
    agree on an integer N."""
    def draw_args(arity):
        return tuple(data.draw(st.lists(st.sampled_from(inst.all_basis()),
                                        min_size=arity, max_size=arity)))

    args = draw_args(3)
    for K in (wedge_form(inst, 1), l2_form(inst)):
        for L in (wedge_form(inst, 2), l2_form(inst)):
            head = args[:K.arity + L.arity - 1]
            assert insert(K, L).evaluate(head) == reference_insert(K, L)(head)
    fast, slow = nested_brackets_on(inst)
    for arity in fast.components:
        args = draw_args(arity)
        assert fast.component(arity).evaluate(args) == slow[arity].evaluate(args)
    assert coefficient_suite(inst, 2, 2, 2).passed
    N = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=inst.rank,
                                    max_size=inst.rank), min_size=inst.rank, max_size=inst.rank))
    assert torsion_formulas_agree(inst, N)
    kinds = set()
    for node in atomic_nodes((inst,)):
        for value in node._memo.values():
            assert all(plain_coefficient(c) for c in value.values())
            kinds.update(type(c) for c in value.values())
    integral = all(type(q) is int for row in inst.data.table.values()
                   for c in row.values() for _, q in c.terms())
    assert int in kinds and kinds <= {int, Fraction} and (integral or Fraction in kinds)


# -- named Nijenhuis forms -------------------------------------------------------------


@pytest.mark.parametrize("harness", ["main-theorem", "stienon-xu"])
def test_harness_computes_only_the_deformation_square(harness, monkeypatch):
    """A harness certifies exactly one form from nijenhuis_forms, the
    deformation square."""
    built, certified = [], []

    def building(*args, **kwargs):
        built.append(linfty.nijenhuis_forms(*args, **kwargs))
        return built[-1]

    def counting(form):
        certified.append(form)
        return is_zero(form)

    monkeypatch.setattr(pqn, "nijenhuis_forms", building)
    monkeypatch.setattr(pqn, "is_zero", counting)
    monkeypatch.setattr(linfty, "is_zero", counting)
    scenario = load_shipped("aff1")
    if harness == "main-theorem":
        report = main_theorem_harness(scenario.instance, scenario.pi, scenario.N,
                                      scenario.omega, scenario.H)
    else:
        report = stienon_xu_harness(scenario.instance, scenario.pi, scenario.N,
                                    scenario.omega, scenario.alpha)
    assert report.passed
    assert len(built) == 1
    read = [key for key, form in built[0].items() if any(form is f for f in certified)]
    assert read == ["deformation_square"]


@pytest.mark.parametrize("name,kind", [("so3", "coboundary"), ("so3", "weak"),
                                       ("aff1", "full")])
def test_forcing_every_certificate_leaves_report_unchanged(name, kind):
    def nijenhuis_report(force):
        scenario = load_shipped(name)
        inst = scenario.instance
        mu = pencil(inst, scenario.pencil_coefficients)
        n_form = sum_of_wedges(inst, scenario.wedge_coefficients)
        square = None if kind == "weak" else square_of_sum(inst, scenario.wedge_coefficients, 2)
        forms = nijenhuis_forms(n_form, mu, square)
        if force:
            for form in reversed(list(forms.values())):
                is_zero(form)
        report = Report(f"check nijenhuis --kind {kind}", name)
        report_nijenhuis(report, kind, forms)
        return report.to_json()

    assert nijenhuis_report(force=True) == nijenhuis_report(force=False)


# -- the canonical-tuple kernel --------------------------------------------------------


def sort_key(inst, el):
    return el.wedge_degree(), el.key(inst.ring)


@st.composite
def placements(draw):
    """A canonical rest tuple drawn from a small pool (equal even factors
    allowed) and a piece that often equals one of its elements."""
    name = draw(st.sampled_from(NAMES))
    inst = instance(name)
    pool = family(name)
    picks = sorted(draw(st.lists(st.sampled_from(pool), max_size=4)),
                   key=lambda el: sort_key(inst, el))
    rest = []
    for el in picks:
        if not (rest and el == rest[-1] and el.wedge_degree() % 2):
            rest.append(el)
    piece = draw(st.sampled_from(tuple(rest) + pool))
    return inst, piece, tuple(rest)


def placement(inst, piece, rest):
    """(the tuples the rule saw, value) of the partial application of the
    0-form ``piece`` into a form whose rule records its arguments and
    returns the unit: the insertion kernel's placement of one piece into the
    canonical ``rest``, and its sign times the unit."""
    seen = []

    def rule(args):
        seen.append(args)
        return inst.unit()

    # the unit has wedge degree 0: the rule's shift cancels its arguments' degrees
    shift = -sum(el.wedge_degree() for el in (piece,) + rest)
    node = insert(element_form(inst, piece), VForm(inst, len(rest) + 1, shift, rule))
    return seen, node.evaluate(rest)


def check_placement(inst, piece, rest):
    seen, value = placement(inst, piece, rest)
    args = (piece,) + rest
    order, repeated_odd = reference_order(inst, args)
    if repeated_odd:
        assert value.is_zero() and seen == []
        return 0
    sign = koszul_sign(order, [el.wedge_degree() for el in args])
    assert value == inst.unit().scale(sign)
    assert seen == [tuple(args[i] for i in order)]
    return sign


@SETTINGS
@given(placements())
def test_place_sign_matches_koszul_sign(case):
    check_placement(*case)


def test_place_equal_and_repeated_factors():
    inst = instance("h3")
    e1, e2, e3 = (inst.generator(i) for i in range(3))
    e12 = inst.monomial((0, 1))
    assert check_placement(inst, e1, (e1, e2)) == 0             # repeated odd factor
    assert check_placement(inst, e12, (e1, e12, e12)) == 1      # equal even factors
    assert check_placement(inst, e2, (e1, e3, e12)) == -1       # passes one odd factor
    assert check_placement(inst, e3, (e1, e2, e12)) == 1        # passes two
    assert placement(inst, e12, (e12,))[0] == [(e12, e12)]


@pytest.mark.parametrize("name", NAMES)
def test_basis_elements_are_their_own_pieces(name):
    """Each basis element is its own piece with coefficient 1, with a stable
    id: the one it got when first met, in any order, whatever is met
    later."""
    inst = instance(name)
    basis = inst.all_basis()
    fresh = _Ids(inst)
    assert [fresh.id_of(el) for el in reversed(basis)] == list(range(len(basis)))
    table = id_table(inst)
    ids = [table.id_of(el) for el in basis]
    assert len(set(ids)) == len(basis)
    for i, el in zip(ids, basis):
        assert table.split(el) == {i: 1} and table.id_of(el) == i
        assert all(type(c) is int for c in table.split(el).values())
        assert table.elements[i] == el and table.keys[i] == sort_key(inst, el)
    value = basis[1].scale(3) + basis[2].scale(Fraction(-1, 2))
    assert list(table.split(value).items()) == [(ids[1], 3), (ids[2], Fraction(-1, 2))]
    assert [type(c) for c in table.split(value).values()] == [int, Fraction]
    assert table.element(table.split(value)) == value
    assert [table.id_of(el) for el in basis] == ids


DENSE = instance("poly-tangent-r2")
DENSE_MONOMIALS = (DENSE.ring.one(),) + tuple(coordinate_monomials(DENSE.ring, 2))


@st.composite
def dense_arguments(draw, size):
    """poly-tangent-r2 basis elements times polynomials of two to four
    terms, so that every value splits into several Q-basis pieces."""
    out = []
    for _ in range(size):
        el = draw(st.sampled_from(DENSE.all_basis()))
        terms = draw(st.lists(st.tuples(st.sampled_from(DENSE_MONOMIALS), COEFFICIENTS),
                              min_size=2, max_size=4, unique_by=lambda t: t[0]._key))
        poly = DENSE.ring.zero()
        for mono, coeff in terms:
            poly = poly + mono * coeff
        out.append(el.scale(poly))
    return tuple(out)


@settings(max_examples=30, deadline=None)
@given(dense_arguments(3))
def test_dense_poly_coefficients_split_into_pieces(args):
    table = id_table(DENSE)
    for arg in args:
        pieces = table.split(arg)
        assert len(pieces) == sum(len(c.terms()) for c in arg.terms.values()) >= 2
        total = Element.zero()
        for i, coeff in pieces.items():
            piece = table.elements[i]
            assert table.id_of(piece) == i and table.keys[i] == sort_key(DENSE, piece)
            total = total + piece.scale(coeff)
        assert total == arg == table.element(pieces)
        assert table.split(arg) == pieces
    for node, reference in insert_nodes("poly-tangent-r2"):
        if node.arity <= len(args):
            head = args[:node.arity]
            assert node.evaluate(head) == reference(head)


def plain_coefficient(c):
    """A piece-map coefficient: a nonzero int, or a Fraction that is not
    integral (never a float, never an integral Fraction)."""
    return bool(c) and (type(c) is int or (type(c) is Fraction and c.denominator != 1))


def atomic_nodes(instances):
    return [obj for obj in gc.get_objects()
            if isinstance(obj, VForm) and obj.terms is None and obj.instance in instances]


def memo_nodes(instances):
    """The nodes that own a memo: atomic nodes and shared combinations."""
    return [obj for obj in gc.get_objects()
            if isinstance(obj, VForm) and type(obj._memo) is dict and obj.instance in instances]


def test_memo_keys_are_canonical_tuples():
    check_memo_keys(bounded=True)


def test_memo_keys_are_canonical_tuples_without_bounds(monkeypatch):
    unbounded(monkeypatch)
    check_memo_keys(bounded=False)


def check_memo_keys(bounded):
    """Every memo, of an atomic node or of a shared combination, is keyed by
    canonical in-window id tuples and holds clean piece maps; a shared
    combination's entry is the sum of its parts' values.  With every order
    bound forced to None the certificates walk their whole windows and fill
    over 5,000 entries; on their order families they fill a few hundred."""
    scenarios = [load_shipped(name) for name in ("aff1", "poly-tangent-r2")]
    for scenario in scenarios:
        main_theorem_harness(scenario.instance, scenario.pi, scenario.N, scenario.omega,
                             scenario.H)
    h3 = load_shipped("heisenberg3").instance
    assert coefficient_suite(h3, 3, 3, 3).passed
    keys = combination_keys = 0
    for node in memo_nodes(tuple(scenario.instance for scenario in scenarios) + (h3,)):
        table = node.instance._ids
        for key, value in node._memo.items():
            assert len(key) == node.arity and all(type(i) is int for i in key)
            order, repeated_odd = reference_order(node.instance,
                                                  [table.elements[i] for i in key])
            assert order == list(range(len(key))) and not repeated_odd, key
            assert all(type(i) is int and plain_coefficient(c) for i, c in value.items())
            assert table.split(table.element(value)) == value
            # no memo entry outside the wedge-degree window
            assert in_window(node, [table.elements[i] for i in key]), key
            keys += 1
            if node.terms is not None:
                parts = Element.zero()
                for part, coeff in node.terms.items():
                    parts = parts + table.element(part._lookup(key)).scale(coeff)
                assert table.element(value) == parts, key
                combination_keys += 1
    if bounded:
        assert 300 < keys < 1000 and combination_keys > 25, (keys, combination_keys)
    else:
        assert keys > 5000 and combination_keys > 1000


def jacobi_bracket(inst):
    """[N, [mu, mu]] for mu = l2: zero by the Jacobi identity, so is_zero
    evaluates every in-window tuple through the nested insertions."""
    n_form = PolyForm(inst, [wedge_form(inst, 1), wedge_form(inst, 2).scale(-2)])
    mu = PolyForm(inst, [l2_form(inst)])
    return rn_bracket(n_form, rn_bracket(mu, mu))


def test_is_zero_never_sorts_a_tuple(monkeypatch):
    check_never_sorts(monkeypatch, bounded=True)


def test_is_zero_never_sorts_a_tuple_without_bounds(monkeypatch):
    unbounded(monkeypatch)
    check_never_sorts(monkeypatch, bounded=False)


def check_never_sorts(monkeypatch, bounded):
    """Only the entry of evaluate sorts arguments; an
    exhaustive check (through every nested insertion) never does, on the
    order family (wedge degree <= 1 here) or, with every bound forced to
    None, on the whole window."""
    inst = load_shipped("heisenberg3").instance
    form = jacobi_bracket(inst)
    calls = []
    canonical = VForm._canonical

    def spy(self, args):
        calls.append(args)
        return canonical(self, args)

    monkeypatch.setattr(VForm, "_canonical", spy)
    certificate = is_zero(form)
    assert certificate.is_zero and calls == []
    family = [el for el in inst.all_basis() if el.wedge_degree() <= 1] if bounded else None
    assert {component.order for component in form.components.values()} == {
        1 if bounded else None}
    evaluated = [combo for arity, component in form.components.items()
                 for combo in basis_tuples(inst, arity, family) if in_window(component, combo)]
    assert len(certificate.checked) > len(evaluated) > (5 if bounded else 100)
    assert sum(len(node._memo) for node in atomic_nodes((inst,))) > len(evaluated)
    last = evaluated[-1]
    form.component(len(last)).evaluate(last)
    assert len(calls) == 1


def test_is_zero_never_hashes_an_element(monkeypatch):
    """The kernel keys its memos by ids: an exhaustive check hashes at most
    each family element once."""
    inst = load_shipped("heisenberg3").instance
    form = jacobi_bracket(inst)
    calls = []
    element_hash = Element.__hash__

    def spy(self):
        calls.append(self)
        return element_hash(self)

    monkeypatch.setattr(Element, "__hash__", spy)
    certificate = is_zero(form)
    assert len(certificate.checked) > 100
    assert len(calls) <= len(inst.all_basis())


# -- the wedge-degree window -----------------------------------------------------------


def closure_form(inst, form):
    """A catalog form as a ClosureForm over its rule, without memo or window."""
    return ClosureForm(inst, form.arity, form.shift, lambda args: rule_value(form, args))


def window_cases(inst):
    """(name, PolyForm, {arity: ClosureForm}) pairs of the same forms: the
    self-bracket [l2, l2], [N2, l2] - l3 with l3 = i_{l2} N2, and the nested
    [N,[N,mu]] of :func:`nested_brackets_on`."""
    l2, n2 = l2_form(inst), wedge_form(inst, 2)
    slow_l2, slow_n2 = closure_form(inst, l2), closure_form(inst, n2)
    slow_l3 = ClosureForm(inst, 3, -1, reference_insert(slow_l2, slow_n2))
    mixed = closure_bracket({2: slow_n2}, {2: slow_l2})
    mixed[3] = mixed[3].combine(slow_l3, -1)
    nested = nested_brackets_on(inst)
    return [("[l2,l2]", rn_bracket(l2, l2), closure_bracket({2: slow_l2}, {2: slow_l2})),
            ("[N2,l2] - l3", rn_bracket(n2, l2) - PolyForm(inst, [lk_form(inst, 3)]), mixed),
            ("[N,[N,mu]]", nested[0], nested[1])]


def reference_is_zero(inst, slow):
    """(verdict, failing tuple, counterexample, count) of the closure
    evaluator on every canonical tuple of the instance's family, inside the
    window or not; the evaluation stops at the first nonzero value."""
    count, failing, counterexample = 0, None, None
    for arity in sorted(slow):
        for combo, _ in reference_family_tuples(inst, arity):
            count += 1
            if failing is None:
                value = slow[arity].evaluate(combo)
                if not value.is_zero():
                    failing = combo
                    label = ", ".join(inst.basis_label(el) for el in combo)
                    counterexample = (f"arity {arity}: ({label})", inst.basis_label(value))
    return counterexample is None, failing, counterexample, count


def check_window_against_reference(inst):
    """The windowed certificate gives the reference's verdict, failing
    tuple, counterexample strings and count; returns the verdicts."""
    verdicts = set()
    for name, fast, slow in window_cases(inst):
        assert tuple(fast.components) == tuple(sorted(slow)), name
        certificate = is_zero(fast)
        expected = reference_is_zero(inst, slow)
        assert (certificate.is_zero, certificate.failing, certificate.counterexample,
                len(certificate.checked)) == expected, name
        verdicts.add(certificate.is_zero)
    return verdicts


@pytest.mark.parametrize("name", WINDOW_NAMES + ("poly-tangent-r2@0",))
def test_windowed_is_zero_matches_full_enumeration(name):
    """At coordinate degree 0 poly-tangent-r2's family holds constant
    sections only, which commute: every case vanishes there."""
    expected = {True} if name == "poly-tangent-r2@0" else {True, False}
    assert check_window_against_reference(instance(name)) == expected


@settings(max_examples=3, deadline=None)
@given(two_step_nilpotent(max_dim=4))
def test_windowed_is_zero_on_generated_nilpotent(inst):
    """Dimension 4 only: at 5 the reference walks 335,104 canonical tuples."""
    assert check_window_against_reference(inst) == {True, False}


def enumerated_count(parities, arity):
    """The canonical tuples of ``arity`` over distinct elements of the given
    parities, enumerated: combinations with replacement without a repeated
    odd element."""
    return sum(not any(a == b and parities[a] for a, b in zip(combo, combo[1:]))
               for combo in itertools.combinations_with_replacement(range(len(parities)), arity))


@st.composite
def counted_instances(draw):
    """A Lie algebra, or poly-tangent-r2 or a generated polynomial algebroid
    declaring coordinate degree 0 to 2."""
    lie = st.sampled_from((instance("h3"), instance("so3"), instance("aff1")))
    poly = st.sampled_from((instance("poly-tangent-r2"),)) | poly_rank3()
    inst = draw(lie | two_step_nilpotent(max_dim=4) | poly)
    return with_bound(inst, draw(st.integers(0, 2))) if inst.data.base_dim else inst


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), counted_instances())
def test_closed_count_matches_enumeration(even, odd, inst):
    """Every arity's count is the closed sum over a family's even and odd
    distinct elements: ``_tuple_count`` counts what the enumeration counts
    over ``even`` even and ``odd`` odd elements, and is_zero of a zero form
    what it counts over the instance's family, for arities 0-5."""
    parities = [el.wedge_degree() % 2 for el in declared_family(inst)]
    for arity in range(6):
        assert _tuple_count(even, odd, arity) == enumerated_count([0] * even + [1] * odd, arity)
        zero = VForm.zero(inst, arity, 0)
        assert is_zero(zero).count == enumerated_count(parities, arity), arity


def generator_products(inst, order):
    """Every product of at most ``order`` generators (1 included, unit
    coefficient): a coordinate monomial times a wedge monomial."""
    monos = [inst.ring.one()]
    if inst.data.base_dim:
        monos += coordinate_monomials(inst.ring, order)
    return [el.scale(poly) for el in inst.all_basis() for poly in monos
            if el.wedge_degree() + (poly.total_degree() if poly != 1 else 0) <= order]


def reference_order_family(inst, order):
    """The order family that is_zero walks first, as Elements, or None.  On
    the basis of a Lie algebra it is always walked: the products of at most
    ``order`` generators, the whole basis when ``order`` is None.  In a
    polynomial algebroid's declared family, only when the family contains
    it and more."""
    if not inst.data.base_dim:
        return generator_products(inst, inst.rank if order is None else order)
    if order is None:
        return None
    products = generator_products(inst, order)
    family = declared_family(inst)
    if not all(el in family for el in products) or set(family) == set(products):
        return None
    return products


def expected_walk(inst, fast, slow):
    """The top-level keys that is_zero looks up, in order: per component,
    the in-window tuples of its order family up to the first nonzero value.
    On the basis of a Lie algebra that walk is the only one, and its first
    nonzero value is the counterexample.  In a declared family that
    contains the order family and more, a nonzero value there is followed
    by the whole in-window walk up to the counterexample; in any other
    declared family the whole walk is the only one.  The counterexample
    ends the check."""
    keys = []
    for arity in sorted(slow):
        component = fast.component(arity)
        short = reference_order_family(inst, component.order)
        family = declared_family(inst) if inst.data.base_dim else None
        walks = [short] if family is None else [family] if short is None else [short, family]
        for walk in walks:
            nonzero = False
            for combo, key in reference_family_tuples(inst, arity, walk):
                if in_window(component, combo):
                    keys.append(key)
                    nonzero = not slow[arity].evaluate(combo).is_zero()
                    if nonzero:
                        break
            if not nonzero:
                break
        else:
            return keys
    return keys


@pytest.mark.parametrize("name", WINDOW_NAMES)
def test_is_zero_stops_at_the_first_nonzero(name, monkeypatch):
    check_first_nonzero(name, monkeypatch, bounded=True)


@pytest.mark.parametrize("name", WINDOW_NAMES)
def test_is_zero_stops_at_the_first_nonzero_without_bounds(name, monkeypatch):
    unbounded(monkeypatch)
    check_first_nonzero(name, monkeypatch, bounded=False)


def check_first_nonzero(name, monkeypatch, bounded):
    """A failing certificate equals the full enumeration's (count, failing
    tuple, counterexample) and evaluates nothing after its counterexample.
    With every bound forced to None, its in-window tuples up to the
    counterexample are each looked up once, and the lookup that found the
    counterexample is the check's last.  With bounds, each component walks
    its order family up to its first nonzero value, which on the basis of a
    Lie algebra is the counterexample; a declared family then walks the
    whole window up to the counterexample (:func:`expected_walk`)."""
    inst = instance(name)
    lookup = VForm._lookup
    failures = 0
    for case, fast, slow in window_cases(inst):
        top = set(fast.components.values())
        events = []             # (top-level component?, key, nonzero?) per returned lookup

        def spy(self, key):
            value = lookup(self, key)
            events.append((self in top, key, bool(value)))
            return value

        with monkeypatch.context() as patch:
            patch.setattr(VForm, "_lookup", spy)
            certificate = is_zero(fast)
        verdict, failing, counterexample, count = reference_is_zero(inst, slow)
        assert (certificate.is_zero, certificate.failing, certificate.counterexample,
                len(certificate.checked)) == (verdict, failing, counterexample, count), case
        if verdict:
            continue
        failures += 1
        outer = [event for event in events if event[0]]
        assert events[-1] == outer[-1], case
        if bounded:
            assert [key for _, key, _ in outer] == expected_walk(inst, fast, slow), case
            assert outer[-1][2], case
            continue
        in_window_tuples = [(combo, key) for arity in sorted(slow)
                            for combo, key in reference_family_tuples(inst, arity)
                            if in_window(fast.component(arity), combo)]
        upto = [combo for combo, _ in in_window_tuples].index(failing) + 1
        assert [key for _, key, _ in outer] == [key for _, key in in_window_tuples[:upto]], case
        assert [nonzero for _, _, nonzero in outer] == [False] * (upto - 1) + [True], case
    assert failures


def test_rule_of_the_wrong_wedge_degree_raises():
    """The window rests on every catalog rule being homogeneous of its
    declared shift: a value with a piece of another wedge degree is an
    internal error, never a skipped tuple."""
    inst = load_shipped("heisenberg3").instance
    e1, e2, e12 = inst.generator(0), inst.generator(1), inst.monomial((0, 1))
    calls = []

    def unit(args):
        # zero on two units, so that is_zero, which stops at the first
        # nonzero value, reaches a tuple where the unit has the wrong degree
        calls.append(args)
        return inst.unit() if any(arg.wedge_degree() for arg in args) else Element.zero()

    wrong = VForm(inst, 2, 0, unit)                 # the unit has wedge degree 0, not 2
    with pytest.raises(RuntimeError):
        wrong.evaluate((e1, e2))
    with pytest.raises(RuntimeError):
        is_zero(wrong)
    mixed = VForm(inst, 2, 0, lambda args: args[0].wedge(args[1]) + inst.unit())
    with pytest.raises(RuntimeError):
        mixed.evaluate((e1, e2))
    calls.clear()
    assert wrong.evaluate((e12, e12)).is_zero()    # wedge degree 4 > rank 3: never run
    assert calls == []


def window_counts(inst, arity, shift, family=None):
    """(canonical basis tuples, those with 0 <= s + shift <= rank) from the
    generating function in t (arity) and x (wedge degree sum s): the
    product over even basis elements of 1/(1 - t x^d) and over odd ones of
    1 + t x^d, d the wedge degree; over the distinct elements of
    ``family`` when given."""
    top = arity * inst.rank
    series = [[1] + [0] * top] + [[0] * (top + 1) for _ in range(arity)]
    for el in inst.all_basis() if family is None else family:
        d = el.wedge_degree()
        if d % 2:
            for k in range(arity, 0, -1):
                for s in range(top, d - 1, -1):
                    series[k][s] += series[k - 1][s - d]
        else:
            for k in range(1, arity + 1):
                for s in range(d, top + 1):
                    series[k][s] += series[k - 1][s - d]
    row = series[arity]
    return sum(row), sum(c for s, c in enumerate(row) if 0 <= s + shift <= inst.rank)


def test_abelian_dim4_coboundary_evaluates_only_the_window(monkeypatch):
    check_abelian_dim4_window(monkeypatch, bounded=True)


def test_abelian_dim4_coboundary_evaluates_only_the_window_without_bounds(monkeypatch):
    unbounded(monkeypatch)
    check_abelian_dim4_window(monkeypatch, bounded=False)


def check_abelian_dim4_window(monkeypatch, bounded):
    """Scaling guard: on abelian dim 4 the exhaustive co-boundary
    certificate of N = N1 + N3 covers every canonical tuple of arities 2, 4
    and 6.  Its components have order 1, so it looks up only the tuples of
    1 and generators inside the window; with every bound forced to None,
    every tuple inside the window."""
    inst = GradedInstance(LieAlgebraData(4), name="abelian4")
    b = (1, 0, 1)
    forms = nijenhuis_forms(sum_of_wedges(inst, b), lk_form(inst, 2), square_of_sum(inst, b, 2))
    depth, top = [0], []
    lookup = VForm._lookup

    def spy(form, key):
        if not depth[0]:
            top.append((form.arity, form.shift, form.order, key))
        depth[0] += 1
        try:
            return lookup(form, key)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(VForm, "_lookup", spy)
    start = time.perf_counter()
    certificate = is_zero(forms["deformation_square"])
    elapsed = time.perf_counter() - start
    assert certificate.is_zero and certificate.complete
    components = sorted({(arity, shift, order) for arity, shift, order, _ in top})
    assert components == [(2, -1, 1 if bounded else None), (4, -1, 1 if bounded else None),
                          (6, -1, 1 if bounded else None)]
    counts = [window_counts(inst, arity, shift) for arity, shift, _ in components]
    assert len(certificate.checked) == sum(total for total, _ in counts)
    if bounded:
        family = [el for el in inst.all_basis() if el.wedge_degree() <= 1]
        counts = [window_counts(inst, arity, shift, family) for arity, shift, _ in components]
    assert len(top) == len(set(top)) == sum(inside for _, inside in counts)
    assert elapsed < 5, elapsed

