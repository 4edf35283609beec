import itertools
import math
import re
from fractions import Fraction

import pytest

from rnforms.catalog import extend_bundle_map, extend_kform, l2_form, lk_form, wedge_form
from rnforms.dualforms import DualForm
from rnforms.elements import Element
from rnforms.forms import (PolyForm, VForm, as_polyform, element_form, insert, is_zero,
                           rn_bracket)
from rnforms.graded import GradingConvention, koszul_sign
from rnforms.instances import GradedInstance, LieAlgebraData
from rnforms.report import Report
from rnforms.rings import InputError

NEG, SH2 = GradingConvention.NEGATED, GradingConvention.SHIFTED2


def test_eval_examples(aff):
    e1, e2 = aff.generator(0), aff.generator(1)
    assert wedge_form(aff, 2).evaluate((e1, e2)) == e1.wedge(e2)
    assert l2_form(aff).evaluate((e1, e2)) == e2.scale(-1)
    assert wedge_form(aff, 2).evaluate((Element.zero(), e2)).is_zero()


def test_eval_errors(aff):
    with pytest.raises(InputError):
        wedge_form(aff, 2).evaluate((aff.generator(0),))
    mixed = aff.generator(0) + aff.unit()
    with pytest.raises(InputError):
        wedge_form(aff, 2).evaluate((mixed, aff.generator(1)))


def test_insert_examples(aff):
    e1, e2 = aff.generator(0), aff.generator(1)
    doubled = insert(wedge_form(aff, 1), wedge_form(aff, 2))
    assert doubled.evaluate((e1, e2)) == e1.wedge(e2).scale(2)
    l2 = l2_form(aff)
    assert insert(l2, wedge_form(aff, 1)).evaluate((e1, e2)) == l2.evaluate((e1, e2))
    X = element_form(aff, e1)
    partial = insert(X, wedge_form(aff, 2))
    assert partial.arity == 1
    assert partial.evaluate((e2,)) == e1.wedge(e2)
    into_zero_form = insert(wedge_form(aff, 2), element_form(aff, e1))
    assert into_zero_form.arity == 1
    assert into_zero_form.evaluate((e2,)).is_zero()


def test_insert_bookkeeping(h3):
    l2 = l2_form(h3)
    for k in (1, 2, 3):
        nk = wedge_form(h3, k)
        composed = insert(l2, nk)
        assert composed.arity == 2 + k - 1
        assert composed.shift == l2.shift + nk.shift
        for grading in GradingConvention:
            degree = grading.form_degree
            assert degree(composed.arity, composed.shift) == (
                degree(l2.arity, l2.shift) + degree(nk.arity, nk.shift))


def test_rn_bracket_zero_form_partial_application(aff):
    e1, e2 = aff.generator(0), aff.generator(1)
    K = wedge_form(aff, 2)
    bracket = rn_bracket(element_form(aff, e1), K)
    comp = bracket.component(1)
    assert comp is not None
    assert comp.evaluate((e2,)) == K.evaluate((e1, e2))


def iterated_eval_identity(K: VForm, args) -> bool:
    """K(X1,...,Xk) equals the iterated bracket [Xk,...,[X2,[X1,K]]...]."""
    current = as_polyform(K)
    for arg in args:
        current = rn_bracket(element_form(K.instance, arg), current)
    final = current.component(0)
    iterated = final.evaluate(()) if final is not None else Element.zero()
    return (K.evaluate(tuple(args)) - iterated).is_zero()


def test_iterated_eval_identity(aff, h3):
    for inst in (aff, h3):
        N2 = wedge_form(inst, 2)
        combos = list(itertools.combinations_with_replacement(inst.all_basis(), 2))
        assert all(iterated_eval_identity(N2, c) for c in combos)
    l3 = lk_form(h3, 3)
    for combo in itertools.combinations_with_replacement(h3.all_basis(), 3):
        assert iterated_eval_identity(l3, combo)
    X = element_form(aff, aff.generator(0))
    assert iterated_eval_identity(X, ())


def test_graded_symmetry_raw(h3):
    # primitive rules take arguments in any order; an insertion rule runs on
    # id keys only, so lk_form(3) is read through evaluate
    l3 = lk_form(h3, 3)
    forms = [wedge_form(h3, 2), wedge_form(h3, 3), l2_form(h3), l3]
    basis = h3.all_basis()
    for form in forms:
        permuted_value = form.evaluate if form is l3 else form.fn
        for combo in itertools.combinations_with_replacement(basis, form.arity):
            base = permuted_value(combo)
            parities = [el.wedge_degree() for el in combo]
            for perm in itertools.permutations(range(form.arity)):
                sign = koszul_sign(perm, parities)
                permuted = tuple(combo[i] for i in perm)
                assert (permuted_value(permuted) - base.scale(sign)).is_zero()


def test_rn_graded_antisymmetry(h3):
    # [K,L] = -(-1)^{deg K deg L} [L,K]
    cases = [(wedge_form(h3, 2), l2_form(h3)),
             (wedge_form(h3, 2), wedge_form(h3, 3)),
             (l2_form(h3), lk_form(h3, 3))]
    for K, L in cases:
        sign = -1 if (K.shift * L.shift) % 2 == 0 else 1
        diff = rn_bracket(K, L) + rn_bracket(L, K).scale(-sign)
        assert is_zero(diff).is_zero


def test_rn_graded_jacobi(aff):
    # [[K,L],M] = [K,[L,M]] - (-1)^{KL} [L,[K,M]] on triples drawn from the
    # wedge family, the bracket form, a bundle-map extension and a 2-form
    # extension
    un = extend_bundle_map(aff, [[Fraction(1), Fraction(2)],
                                 [Fraction(0), Fraction(3)]])
    uomega = extend_kform(DualForm(aff, 2, {(0, 1): Fraction(1)}))
    n2 = wedge_form(aff, 2)
    l2 = l2_form(aff)
    triples = [
        (n2, l2, wedge_form(aff, 1)),
        (n2, l2, un),
        (l2, l2, n2),
        (un, uomega, l2),
        (uomega, l2, un),
        (uomega, uomega, l2),
    ]
    for K, L, M in triples:
        kl = (K.shift % 2) * (L.shift % 2)
        lhs = rn_bracket(rn_bracket(K, L), M)
        rhs = rn_bracket(K, rn_bracket(L, M)) - rn_bracket(
            L, rn_bracket(K, M)).scale(-1 if kl else 1)
        assert is_zero(lhs - rhs).is_zero


def test_multilinearity_over_scalars(aff):
    l2 = l2_form(aff)
    e1, e2 = aff.generator(0), aff.generator(1)
    a, b = Fraction(3, 2), Fraction(-5, 7)
    combined = e1.scale(a) + e2.scale(b)
    lhs = l2.evaluate((combined, e1.wedge(e2)))
    rhs = l2.evaluate((e1, e1.wedge(e2))).scale(a) + \
        l2.evaluate((e2, e1.wedge(e2))).scale(b)
    assert (lhs - rhs).is_zero()


def test_kform_identity_for_extensions(h3):
    # the iterated-bracket identity holds for the derivation extensions too
    inst = h3
    uomega = extend_kform(DualForm(inst, 2, {(0, 1): Fraction(1)}))
    uH = extend_kform(DualForm(inst, 3, {(0, 1, 2): Fraction(1)}))
    un = extend_bundle_map(inst, [[Fraction(2), Fraction(1), 0],
                                  [0, Fraction(2), 0],
                                  [0, 0, Fraction(1)]])
    basis = inst.all_basis()
    for combo in itertools.combinations_with_replacement(basis, 2):
        assert iterated_eval_identity(uomega, combo)
    for combo in itertools.islice(
            itertools.combinations_with_replacement(basis, 3), 40):
        assert iterated_eval_identity(uH, combo)
    for el in basis:
        assert iterated_eval_identity(un, (el,))


def test_is_zero_examples(aff, broken, h3):
    cert = is_zero(rn_bracket(l2_form(aff), l2_form(aff)))
    assert cert.is_zero and cert.complete and cert.failing is None
    assert cert.family_note == "all canonical basis tuples"
    bad = is_zero(rn_bracket(l2_form(broken), l2_form(broken)))
    assert not bad.is_zero
    assert bad.counterexample is not None
    assert "e1" in bad.counterexample[0]
    # the failing canonical tuple of basis elements is kept beside its label
    basis = broken.all_basis()
    assert all(el in basis for el in bad.failing)
    assert [basis.index(el) for el in bad.failing] == sorted(basis.index(el) for el in bad.failing)
    label = ", ".join(broken.basis_label(el) for el in bad.failing)
    assert bad.counterexample[0] == f"arity {len(bad.failing)}: ({label})"
    trivial = is_zero(PolyForm(aff, []))
    assert trivial.is_zero and trivial.complete
    # the walk covers the form's own instance, the only one it can name
    un = extend_bundle_map(h3, [[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    assert is_zero(un).counterexample[0] == "arity 1: (e3)"
    # a declared family on a finite instance is a verification, not a proof
    gens = [h3.generator(i) for i in range(3)]
    partial = is_zero(wedge_form(h3, 2), gens)
    assert len(partial.checked) == 3 and not partial.complete
    assert partial.family_note == "declared family of 3 elements"
    assert partial.failing == (gens[0], gens[1])


def test_is_zero_empty_family_rejected(poly):
    form = as_polyform(wedge_form(poly, 2))
    with pytest.raises(InputError):
        is_zero(form, [])


def test_is_zero_rejects_a_zero_or_inhomogeneous_family_element(h3, poly):
    """A declared family element with no wedge degree fails with an
    InputError that names it."""
    e1, e2 = h3.generator(0), h3.generator(1)
    for family, label in (([Element.zero(), e1], "0"), ([e1 + e1.wedge(e2), e2], "e1 + e1^e2")):
        message = f"test family element {label} is zero or inhomogeneous"
        with pytest.raises(InputError, match=re.escape(message)):
            is_zero(wedge_form(h3, 2), family)
    mixed = poly.unit() + poly.generator(0)
    with pytest.raises(InputError, match="is zero or inhomogeneous"):
        is_zero(wedge_form(poly, 2), [poly.unit(), mixed])


def test_certificate_count_past_the_index_range_reaches_the_report():
    """The 12-tuples of the 1024 basis elements of abelian 10 number more
    than 2^63 - 1, past what len() of a range can give; the certificate
    counts them as an int and the report prints that count.  With 512 even
    and 512 odd basis elements the count is the coefficient of t^12 in
    (1-t)^-512 (1+t)^512."""
    abelian10 = GradedInstance(LieAlgebraData(10), "abelian10")
    certificate = is_zero(VForm.zero(abelian10, 12, 0))
    expected = sum(math.comb(512, j) * math.comb(511 + 12 - j, 12 - j) for j in range(13))
    assert certificate.is_zero and certificate.count == expected > 2 ** 63
    report = Report("check", "abelian10")
    report.add_certificate("zero", "0 = 0", certificate)
    assert report.checks[0].detail == f"{expected} tuples (all canonical basis tuples)"


def test_polyform_degree_mixing_rejected(h3):
    with pytest.raises(InputError):
        PolyForm(h3, [wedge_form(h3, 2), l2_form(h3)])


def test_degree_reporting(h3):
    def degree(grading, form):
        return grading.form_degree(form.arity, form.shift)

    assert degree(NEG, wedge_form(h3, 2)) == 0
    assert degree(NEG, lk_form(h3, 3)) == 1
    assert degree(SH2, l2_form(h3)) == 1
    omega = DualForm(h3, 2, {(0, 1): Fraction(1)})
    assert degree(SH2, extend_kform(omega)) == 0
    H = DualForm(h3, 3, {(0, 1, 2): Fraction(1)})
    assert degree(SH2, extend_kform(H)) == 1
    pi_form = element_form(h3, h3.monomial((0, 1)))
    assert degree(SH2, pi_form) == 0
