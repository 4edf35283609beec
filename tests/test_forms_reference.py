"""Differential tests: the fast evaluation path of forms against slow
references built from the validated, Fraction-valued graded.koszul_sign."""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnforms.catalog import extend_bundle_map, l2_form, lk_form, wedge_form
from rnforms.elements import Element
from rnforms.forms import default_poly_family, element_form, insert
from rnforms.graded import koszul_sign, koszul_sign_by_transpositions, unshuffles
from rnforms.instances import broken_jacobi3, heisenberg3, poly_tangent_r2, so3
from rnforms.rings import InputError

NAMES = ("h3", "so3", "broken_jacobi3", "poly-tangent-r2")
SETTINGS = settings(max_examples=60, deadline=None)


@cache
def instance(name):
    return {"h3": heisenberg3, "so3": so3, "broken_jacobi3": broken_jacobi3,
            "poly-tangent-r2": poly_tangent_r2}[name]()


@cache
def family(name):
    inst = instance(name)
    if name == "poly-tangent-r2":
        return tuple(default_poly_family(inst))
    return tuple(inst.all_basis())


@cache
def catalog(name):
    """Forms of arity <= 3 whose insertions the suites build."""
    inst = instance(name)
    forms = [wedge_form(inst, k) for k in (1, 2, 3)] + [l2_form(inst), lk_form(inst, 3)]
    identity = [[1 if i == j else 0 for j in range(inst.rank)] for i in range(inst.rank)]
    forms.append(extend_bundle_map(inst, identity, inst.convention))
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
    canonical, sign = form._canonical(args)
    order, repeated_odd = reference_order(inst, args)
    assert isinstance(sign, int)
    if repeated_odd:
        assert sign == 0
        return
    degrees = [arg.wedge_degree() for arg in args]
    assert sign == koszul_sign(order, degrees) == koszul_sign_by_transpositions(order, degrees)
    assert canonical == tuple(args[i] for i in order)


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
    assert form.evaluate(ordered) == form.raw_evaluate(ordered)


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
    for node, reference in insert_nodes(name):
        head = args[:node.arity]
        fast = node.raw_evaluate(head)
        slow = reference(head)
        assert fast == slow, node.label
        # the same terms in the same order, so reports cannot differ
        assert list(fast.terms.items()) == list(slow.terms.items()), node.label
        assert node.evaluate(head) == slow, node.label


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
