import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rnforms.catalog import (bivector_form, extend_bundle_map, extend_kform, l2_form, lk_form,
                             matrix_square, wedge_form)
from rnforms.dualforms import DualForm, differential, pi_sharp
from rnforms.elements import Element
from rnforms.forms import element_form, is_zero, rn_bracket
from rnforms.graded import GradingConvention, koszul_sign, sign_pow, unshuffles
from rnforms.pqn import main_theorem_harness, quadruple_square, vector_valued_sum
from rnforms.rings import InputError
from rnforms.scenario import load_shipped

from generated_instances import heisenberg, semidirect, two_step_nilpotent

SH2 = GradingConvention.SHIFTED2


def identity_matrix(instance):
    ring = instance.ring
    return [[ring.one() if i == j else ring.zero() for j in range(instance.rank)]
            for i in range(instance.rank)]


def test_wedge_family(aff):
    e1, e2 = aff.generator(0), aff.generator(1)
    assert wedge_form(aff, 1).evaluate((e1,)) == e1
    assert wedge_form(aff, 2).evaluate((e1, e2)) == e1.wedge(e2)
    f = aff.scalar(Fraction(2))
    assert wedge_form(aff, 3).evaluate((f, e1, e2)) == e1.wedge(e2).scale(2)
    with pytest.raises(InputError):
        wedge_form(aff, 0)


def test_l2_examples(aff):
    l2 = l2_form(aff)
    e1, e2 = aff.generator(0), aff.generator(1)
    assert l2.evaluate((e1, e2)) == e2.scale(-1)
    assert l2.evaluate((e1.wedge(e2), e1)) == e1.wedge(e2).scale(-1)
    assert l2.evaluate((aff.unit(), aff.unit())).is_zero()


def test_lk_against_direct_unshuffle_expansion(aff, h3):
    # l_k(P_1..P_k) = sum over (2, k-2)-unshuffles of
    #   eps * (-1)^{p_{s(1)}} [P_{s(1)}, P_{s(2)}] ^ P_{s(3)} ^ ... ^ P_{s(k)}
    for inst in (aff, h3):
        for k in (3, 4):
            lk = lk_form(inst, k)
            for combo in itertools.combinations_with_replacement(inst.all_basis(), k):
                parities = [el.wedge_degree() for el in combo]
                expected = Element.zero()
                for perm in unshuffles(2, k - 2):
                    eps = koszul_sign(perm, parities)
                    first, second = combo[perm[0]], combo[perm[1]]
                    p = first.require_homogeneous()
                    value = inst.sn_bracket(first, second).scale(sign_pow(p))
                    for idx in perm[2:]:
                        value = value.wedge(combo[idx])
                    expected = expected + value.scale(eps)
                assert (lk.evaluate(combo) - expected).is_zero()


def test_lk_oddly_repeated_arguments_vanish(h3):
    l3 = lk_form(h3, 3)
    e1 = h3.generator(0)
    assert l3.evaluate((e1, e1, h3.generator(1))).is_zero()
    with pytest.raises(InputError):
        lk_form(h3, 1)


def test_extend_bundle_map(aff):
    identity = identity_matrix(aff)
    un = extend_bundle_map(aff, identity)
    T = aff.monomial((0, 1))
    assert un.evaluate((T,)) == T.scale(2)
    assert un.evaluate((aff.unit(),)).is_zero()
    diag = [[Fraction(2), 0], [0, Fraction(5)]]
    assert extend_bundle_map(aff, diag).evaluate((T,)) == T.scale(7)
    with pytest.raises(InputError):
        extend_bundle_map(aff, [[Fraction(1)]])


def test_matrix_square(aff):
    N = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(2)]]
    assert matrix_square(aff, N) == [[Fraction(1), Fraction(3)],
                                     [Fraction(0), Fraction(4)]]


def test_extend_kform_normalization(aff):
    omega = DualForm(aff, 2, {(0, 1): Fraction(1)})
    uomega = extend_kform(omega)
    e1, e2 = aff.generator(0), aff.generator(1)
    assert uomega.evaluate((e1, e2)) == aff.unit()
    assert uomega.evaluate((aff.unit(), e1)).is_zero()
    assert SH2.form_degree(uomega.arity, uomega.shift) == 0


def test_extend_kform_bivector_slot(h3):
    H = DualForm(h3, 3, {(0, 1, 2): Fraction(1)})
    uH = extend_kform(H)
    pi = h3.monomial((0, 2))
    for x, y in itertools.product(range(3), repeat=2):
        X, Y = h3.generator(x), h3.generator(y)
        hxy = DualForm(h3, 1, {(m,): H.apply((X, Y, h3.generator(m)))
                               for m in range(3)})
        assert (uH.evaluate((pi, X, Y)) - pi_sharp(pi, hxy)).is_zero()


def test_bundle_map_commutes_with_wedges(aff, h3):
    # [uN, N_k] = 0 exhaustively for random N
    cases = [(aff, [[Fraction(3), Fraction(1)], [Fraction(-2), Fraction(5)]], (1, 2, 3, 4)),
             (h3, [[Fraction(1), Fraction(2), Fraction(0)],
                   [Fraction(0), Fraction(1), Fraction(4)],
                   [Fraction(7), Fraction(0), Fraction(2)]], (1, 2, 3, 4))]
    for inst, N, ks in cases:
        un = extend_bundle_map(inst, N)
        for k in ks:
            cert = is_zero(rn_bracket(un, wedge_form(inst, k)))
            assert cert.is_zero and cert.complete


def test_catalog_forms_are_shared_nodes(h3):
    """Each constructor returns the one atomic node of its defining data,
    however the data is spelled and whichever grading its caller reads it
    in: the PQN sum pi + uN + u(omega) holds the node of uN that the L-infinity
    deformation brackets."""
    inst = h3
    N = [[1, 2, 0], [0, 1, 0], [0, 0, 3]]
    un = extend_bundle_map(inst, N)
    assert un.terms is None
    assert extend_bundle_map(inst, [[Fraction(v) for v in row] for row in N]) is un
    assert extend_bundle_map(inst, identity_matrix(inst)) is not un
    assert vector_valued_sum(inst, Element.zero(), N, DualForm.zero(inst, 2)).component(1) is un
    omega = DualForm(inst, 2, {(0, 1): Fraction(1), (1, 2): Fraction(2)})
    uomega = extend_kform(omega)
    assert uomega.terms is None
    assert extend_kform(DualForm(inst, 2, {(1, 2): 2, (0, 1): 1})) is uomega
    assert extend_kform(DualForm(inst, 2, {(0, 1): 1})) is not uomega
    pi = inst.monomial((0, 2))
    pif = bivector_form(inst, pi)
    assert pif.terms is None
    assert bivector_form(inst, inst.monomial((0, 2))) is pif
    assert element_form(inst, pi) is pif
    assert element_form(inst, pi.scale(2)) is not pif
    assert lk_form(inst, 3) is lk_form(inst, 3)
    assert lk_form(inst, 3).terms is None


def test_kform_and_bivector_forms_are_graded_shifted_by_2(h3):
    """u(kappa) and a bivector have degrees k - 2 and 0 in the shifted-by-2
    grading, and no catalog constructor takes a grading."""
    inst = h3
    for k in (1, 2, 3):
        u = extend_kform(DualForm(inst, k, {tuple(range(k)): Fraction(1)}))
        assert (u.arity, SH2.form_degree(u.arity, u.shift)) == (k, k - 2)
    pif = bivector_form(inst, inst.monomial((0, 1)))
    assert (pif.arity, SH2.form_degree(pif.arity, pif.shift)) == (0, 0)
    with pytest.raises(InputError, match="zero element has no defined wedge degree"):
        bivector_form(inst, Element.zero())
    for build, args in ((extend_kform, (DualForm(inst, 1, {(0,): 1}),)),
                        (bivector_form, (inst, inst.monomial((0, 1)))),
                        (wedge_form, (inst, 2)), (l2_form, (inst,)), (lk_form, (inst, 3)),
                        (extend_bundle_map, (inst, identity_matrix(inst)))):
        with pytest.raises(TypeError):
            build(*args, SH2)


def open_kform(inst, k, rng):
    """A random k-form of ``inst``, not closed when some basis k-form is not:
    while the form is closed, the next basis k-form is added to it."""
    monomials = list(itertools.combinations(range(inst.rank), k))
    kappa = DualForm(inst, k, {mon: rng.choice((0, 1, -1, 2, Fraction(1, 2)))
                               for mon in monomials})
    for mon in monomials:
        if not differential(kappa).is_zero():
            break
        kappa = kappa + DualForm(inst, k, {mon: 1})
    return kappa


@settings(max_examples=10, deadline=None)
@example(inst=heisenberg(2), seed=0)
@given(inst=st.one_of(two_step_nilpotent(), semidirect()), seed=st.integers(0, 2 ** 32))
def test_l2_brackets_u_kappa_to_u_d_kappa(inst, seed):
    """[l2, u(kappa)] = u(d kappa) and [u(kappa), l2] = (-1)^(k+1) u(d kappa)
    for k = 1, 2, 3, on a kappa that is not closed whenever the instance
    has such a k-form (h5, the explicit example, has one for each k)."""
    rng = random.Random(seed)
    l2 = l2_form(inst)
    for k in (1, 2, 3):
        kappa = open_kform(inst, k, rng)
        dkappa = differential(kappa)
        assert inst.name != "h5" or not dkappa.is_zero()
        u, ud = extend_kform(kappa), extend_kform(dkappa)
        assert is_zero(rn_bracket(l2, u) - ud).is_zero
        assert is_zero(rn_bracket(u, l2) - ud.scale(sign_pow(k + 1))).is_zero


def test_harness_forms_are_rebuilt_from_shared_nodes():
    """After the main-theorem harness, rebuilding its degree-0 sum, its
    square and the double bracket creates no new node."""
    s = load_shipped("aff1")
    inst = s.instance
    assert main_theorem_harness(inst, s.pi, s.N, s.omega, s.H).passed
    count = inst._node_count
    n_form = vector_valued_sum(inst, s.pi, s.N, s.omega)
    quadruple_square(inst, s.pi, s.N, s.omega)
    rn_bracket(n_form, rn_bracket(n_form, l2_form(inst)))
    assert inst._node_count == count
