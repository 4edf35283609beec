import itertools
import re
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from rnforms.elements import Element
from rnforms.graded import sign_pow
from rnforms.instances import GradedInstance, LieAlgebraData, PolyAlgebroidData
from rnforms.rings import InputError, Poly
from rnforms.scenario import load_shipped

from generated_instances import (affine_x_algebroid, elements, poly_rank3, rank3_algebroid,
                                 two_step_nilpotent)
from sn_reference import reference_sn_bracket


def test_structure_bracket_examples(aff):
    e1, e2 = aff.generator(0), aff.generator(1)
    assert aff.sn_bracket(e1, e2) == e2
    assert aff.sn_bracket(e1, e1.wedge(e2)) == e1.wedge(e2)
    assert aff.sn_bracket(aff.unit(), aff.unit()).is_zero()


@pytest.mark.parametrize("bound", [-1, True, False, 1.5, "1", None])
def test_poly_degree_bound_must_be_a_nonnegative_int(poly, bound):
    """A negative bound would declare an empty family, and a bool or a
    float would stand for an int: each is an InputError, given to the
    constructor or assigned later."""
    message = f"poly_degree_bound must be an integer >= 0, got {bound!r}"
    with pytest.raises(InputError, match=re.escape(message)):
        GradedInstance(poly.data, poly_degree_bound=bound)
    inst = GradedInstance(poly.data, poly_degree_bound=0)
    with pytest.raises(InputError, match=re.escape(message)):
        inst.poly_degree_bound = bound
    assert inst.poly_degree_bound == 0


def test_degree_bookkeeping(h3):
    basis = h3.all_basis()
    for P, Q in itertools.product(basis, repeat=2):
        p, q = P.require_homogeneous(), Q.require_homogeneous()
        value = h3.sn_bracket(P, Q)
        if not value.is_zero():
            assert value.require_homogeneous() == p + q - 1


def test_graded_skew_and_leibniz_exhaustive(aff, h3, so3_inst, ab2, poly):
    """The Gerstenhaber identities that validate does not check, because they
    hold by construction (``rnforms.instances``), hold on ``sn_bracket`` over
    the family of every shipped instance and of generated ones."""
    for inst in (aff, h3, so3_inst, ab2, poly, affine_x_algebroid(), rank3_algebroid()):
        check_gerstenhaber(inst, inst.sn_bracket)

    @settings(max_examples=4, deadline=None)
    @given(inst=two_step_nilpotent(max_dim=4) | poly_rank3())
    def generated(inst):
        check_gerstenhaber(inst, inst.sn_bracket)

    generated()


def test_l2_leibniz_combination(h3):
    # l2(P^Q, R) = (-1)^{qr} l2(P,R)^Q + (-1)^{p(q+r)} l2(Q,R)^P
    from rnforms.catalog import l2_form
    l2 = l2_form(h3)
    basis = h3.all_basis()
    for P, Q, R in itertools.product(basis, repeat=3):
        p, q, r = (x.require_homogeneous() for x in (P, Q, R))
        wedge_pq = P.wedge(Q)
        if wedge_pq.is_zero():
            continue
        lhs = l2.evaluate((wedge_pq, R))
        rhs = l2.evaluate((P, R)).wedge(Q).scale(sign_pow(q * r)) + \
            l2.evaluate((Q, R)).wedge(P).scale(sign_pow(p * (q + r)))
        assert (lhs - rhs).is_zero()


def test_jacobi_validation_names_triple():
    data = LieAlgebraData(3, brackets={(0, 1): {2: 1}, (0, 2): {0: 1}})
    with pytest.raises(InputError, match=r"\(e1, e2, e3\)"):
        GradedInstance(data)


def test_two_dim_brackets_always_satisfy_jacobi():
    # any antisymmetric bracket on 2 generators is a Lie bracket
    data = LieAlgebraData(2, brackets={(0, 1): {0: Fraction(5), 1: Fraction(-7)}})
    inst = GradedInstance(data)
    assert inst.jacobiator(0, 1, 1).is_zero()


def test_solvable_variant_valid():
    # [e1,e2] = e1 + e2 is still a Lie algebra
    data = LieAlgebraData(2, brackets={(0, 1): {0: 1, 1: 1}})
    GradedInstance(data)


def test_broken_jacobi_control(broken):
    assert not broken.jacobiator(0, 1, 2).is_zero()


def test_poly_anchor_action(poly):
    x1 = poly.ring.var(0)
    a1 = poly.generator(0)
    f = poly.scalar(x1 * x1)
    assert poly.sn_bracket(a1, f) == poly.scalar(2 * x1)
    assert poly.sn_bracket(a1, poly.generator(1).scale(x1)) == poly.generator(1)


def test_poly_anchor_morphism_validation():
    ring_names = ("x1",)
    from rnforms.rings import PolyRing
    ring = PolyRing(ring_names)
    x = ring.var(0)
    # anchor rho(a1) = d/dx, rho(a2) = x d/dx with [a1,a2] = a2 is consistent:
    # [d/dx, x d/dx] = d/dx + x d^2... = (1) d/dx  -> rho(a2)' = d/dx? check kernel
    data = PolyAlgebroidData(1, 2, ring_names, ("a1", "a2"),
                             anchor=[[ring.one()], [x]],
                             brackets={(0, 1): {0: ring.one()}})
    GradedInstance(data)
    # breaking the bracket target violates the morphism property
    bad = PolyAlgebroidData(1, 2, ring_names, ("a1", "a2"),
                            anchor=[[ring.one()], [x]],
                            brackets={(0, 1): {1: ring.one()}})
    with pytest.raises(InputError, match="anchor"):
        GradedInstance(bad)


def test_instances_validate(aff, h3, so3_inst, ab2, poly):
    for inst in (aff, h3, so3_inst, ab2, poly):
        inst.validate()


# -- the Gerstenhaber identities and validate against references ----------------

def gerstenhaber_family(inst) -> list[Element]:
    """The monomial basis, and on a polynomial algebroid also the basis
    scaled by each coordinate."""
    family = list(inst.all_basis())
    for m in range(inst.data.base_dim):
        x = inst.ring.var(m)
        family.extend(el.scale(x) for el in inst.all_basis())
    return family


def check_gerstenhaber(inst, bracket):
    """Graded skew-symmetry on every ordered pair and the graded Leibniz rule
    on every triple of ``gerstenhaber_family``, in nested family order, with
    every bracket, wedge and sign recomputed in the innermost loop:

        [P,Q] = -(-1)^{(p-1)(q-1)} [Q,P]
        [P, Q^R] = [P,Q]^R + (-1)^{(p-1)q} Q^[P,R]

    InputError naming the first pair or triple that fails."""
    family = gerstenhaber_family(inst)
    for P in family:
        p = P.require_homogeneous()
        for Q in family:
            q = Q.require_homogeneous()
            skew = bracket(P, Q) + bracket(Q, P).scale(sign_pow((p - 1) * (q - 1)))
            if not skew.is_zero():
                raise InputError(
                    f"graded skew-symmetry fails on {inst.basis_label(P)},"
                    f" {inst.basis_label(Q)}")
    for P in family:
        p = P.require_homogeneous()
        for Q in family:
            q = Q.require_homogeneous()
            for R in family:
                lhs = bracket(P, Q.wedge(R))
                rhs = bracket(P, Q).wedge(R) + Q.wedge(bracket(P, R)).scale(sign_pow((p - 1) * q))
                if not (lhs - rhs).is_zero():
                    raise InputError(
                        f"graded Leibniz rule fails on {inst.basis_label(P)},"
                        f" {inst.basis_label(Q)}, {inst.basis_label(R)}")


def reference_bracket(inst):
    """The recursive reference bracket on ``inst``, one memo across calls."""
    memo = {}
    return lambda P, Q: reference_sn_bracket(inst, P, Q, memo)


def reference_validate(inst):
    """``validate`` on the reference bracket: Jacobi on generator triples,
    then the anchor morphism property."""
    bracket = reference_bracket(inst)
    names = inst.generator_names
    for i, j, k in itertools.combinations(range(inst.rank), 3):
        ei, ej, ek = inst.generator(i), inst.generator(j), inst.generator(k)
        cyclic = ((ei, ej, ek), (ej, ek, ei), (ek, ei, ej))
        jacobiator = sum((bracket(x, bracket(y, z)) for x, y, z in cyclic), Element.zero())
        if not jacobiator.is_zero():
            raise InputError(f"Jacobi identity fails on ({names[i]}, {names[j]}, {names[k]})")
    if inst.data.base_dim:
        inst._validate_anchor_morphism()


def raised(check, *args):
    """The message of the InputError ``check(*args)`` raises, or None."""
    try:
        check(*args)
    except InputError as exc:
        return str(exc)
    return None


def unchecked(name):
    """A fresh, unvalidated instance on the data of the shipped scenario
    ``name``: no bracket is memoized before a test corrupts it."""
    return GradedInstance(load_shipped(name).instance.data, name=name, check=False)


def _symmetric_e1_e2(monkeypatch):
    """h3 whose base case [e2, e1] returns +e3: Jacobi still holds (the
    Jacobiator on (e1, e2, e3) never reads [e2, e1]), skew-symmetry fails."""
    inst = unchecked("heisenberg3")
    terms = inst.data.bracket_terms
    monkeypatch.setattr(inst.data, "bracket_terms",
                        lambda i, j: terms(0, 1) if (i, j) == (1, 0) else terms(i, j))
    return inst


def _bent_anchor(monkeypatch):
    """poly-tangent-r2 whose anchor adds 1 to rho(a_i) f for f of total
    degree >= 2.  The skew-symmetry family has coefficients of degree <= 1
    only, so skew-symmetry holds; Leibniz on (a1, x1, x1) reads [a1, x1^2]."""
    inst = unchecked("poly-tangent-r2")
    anchor_apply = inst.anchor_apply

    def bent(i, coeff):
        value = anchor_apply(i, coeff)
        return value + 1 if inst.ring.coerce(coeff).total_degree() >= 2 else value

    monkeypatch.setattr(inst, "anchor_apply", bent)
    return inst


@pytest.mark.parametrize("corrupt, message", [
    (_symmetric_e1_e2, "graded skew-symmetry fails on e1, e2"),
    (_bent_anchor, "graded Leibniz rule fails on a1, (x1)*1, (x1)*1"),
])
def test_validate_failure_matches_reference(monkeypatch, corrupt, message):
    """The Gerstenhaber check catches a base case that is not antisymmetric
    and an anchor that is not a derivation, on ``sn_bracket`` as on the
    reference bracket.  No scenario can express either corruption, and
    neither breaks Jacobi."""
    inst = corrupt(monkeypatch)
    assert raised(check_gerstenhaber, inst, reference_bracket(inst)) == message
    assert all(inst.jacobiator(*t).is_zero() for t in itertools.combinations(range(inst.rank), 3))
    assert raised(check_gerstenhaber, inst, inst.sn_bracket) == message


def test_validate_passes_with_reference(aff, h3, so3_inst, ab2, poly):
    for inst in (aff, h3, so3_inst, ab2, poly):
        reference_validate(inst)
        check_gerstenhaber(inst, reference_bracket(inst))


@pytest.mark.parametrize("name", ["aff1", "heisenberg3", "so3", "abelian2", "poly-tangent-r2"])
def test_validate_brackets_only_generators(monkeypatch, name):
    """validate brackets only elements of wedge degree <= 1: generators and
    the brackets of two generators, as the Jacobiator needs."""
    inst = load_shipped(name).instance
    degrees = []
    sn_bracket = GradedInstance.sn_bracket

    def spy_bracket(self, left, right):
        degrees.extend(len(mon) for el in (left, right) for mon in el.terms)
        return sn_bracket(self, left, right)

    monkeypatch.setattr(GradedInstance, "sn_bracket", spy_bracket)
    inst.validate()
    assert max(degrees, default=0) <= 1


# -- the closed-form bracket and validate against the references ------------------

NAMED = {"aff1": lambda: load_shipped("aff1").instance,
         "h3": lambda: load_shipped("heisenberg3").instance,
         "so3": lambda: load_shipped("so3").instance,
         "poly-tangent-r2": lambda: load_shipped("poly-tangent-r2").instance,
         "affine-x": affine_x_algebroid, "rank3": rank3_algebroid}


@pytest.mark.parametrize("name", NAMED)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_closed_form_bracket_matches_reference(name, data):
    inst = NAMED[name]()
    P, Q = data.draw(elements(inst)), data.draw(elements(inst))
    assert inst.sn_bracket(P, Q) == reference_sn_bracket(inst, P, Q)


@settings(max_examples=15, deadline=None)
@given(inst=two_step_nilpotent() | poly_rank3(), data=st.data())
def test_closed_form_bracket_matches_reference_on_generated(inst, data):
    for _ in range(5):
        P, Q = data.draw(elements(inst)), data.draw(elements(inst))
        assert inst.sn_bracket(P, Q) == reference_sn_bracket(inst, P, Q)


def corrupt_gen_bracket(inst, i, j, k, factor, mirror=False):
    """[a_i, a_j] of ``inst`` read as [a_i, a_j] + factor a_k, for this
    ordered pair only, and with ``mirror`` [a_j, a_i] as [a_j, a_i] - factor a_k
    too, which keeps skew-symmetry; drops the brackets memoized before."""
    inst._sn_memo.clear()
    terms = inst.data.bracket_terms
    extra = inst.ring.coerce(factor)
    perturbed = {(i, j): extra}
    if mirror:
        perturbed[(j, i)] = perturbed.get((j, i), 0) - extra

    def bent(a, b):
        row = dict(terms(a, b))
        row[k] = row.get(k, 0) + perturbed.get((a, b), 0)
        return {target: c for target, c in row.items() if c}

    inst.data.bracket_terms = bent


def corrupt_anchor(inst, degree, factor):
    """rho(a_i) f of ``inst`` read as rho(a_i) f + factor * f_high, f_high the
    terms of f of total degree >= ``degree``; drops the brackets memoized
    before.  The perturbation stays linear in f, so the bracket stays
    bilinear."""
    inst._sn_memo.clear()
    anchor_apply = inst.anchor_apply

    def bent(i, coeff):
        coeff = inst.ring.coerce(coeff)
        high = Poly(coeff.nvars, {e: c for e, c in coeff.terms() if sum(e) >= degree})
        return anchor_apply(i, coeff) + high * factor

    inst.anchor_apply = bent


def assert_same_failure(inst):
    """validate fails exactly as the reference does on Jacobi and the anchor
    morphism, or both pass; and the Gerstenhaber check fails alike on the
    closed form and on the recursive bracket, whose message it returns."""
    for a, b in itertools.product(range(inst.rank), repeat=2):
        ea, eb = inst.generator(a), inst.generator(b)
        assert inst.sn_bracket(ea, eb) == reference_sn_bracket(inst, ea, eb)
    expected = raised(check_gerstenhaber, inst, reference_bracket(inst))
    assert raised(check_gerstenhaber, inst, inst.sn_bracket) == expected
    inst._sn_memo.clear()
    assert raised(GradedInstance.validate, inst) == raised(reference_validate, inst)
    return expected


@settings(max_examples=12, deadline=None)
@given(inst=two_step_nilpotent(max_dim=4) | poly_rank3(), data=st.data())
def test_validate_matches_reference_on_corrupted_brackets(inst, data):
    inst.validate()
    pair = st.integers(0, inst.rank - 1)
    i, j, k = data.draw(pair), data.draw(pair), data.draw(pair)
    corrupt_gen_bracket(inst, i, j, k, data.draw(st.sampled_from((1, -1, Fraction(1, 2)))),
                        mirror=data.draw(st.booleans()))
    assert_same_failure(inst)


@settings(max_examples=12, deadline=None)
@given(inst=poly_rank3() | st.builds(affine_x_algebroid) | st.builds(NAMED["poly-tangent-r2"]),
       data=st.data())
def test_validate_matches_reference_on_corrupted_anchor(inst, data):
    inst.validate()
    x1 = inst.ring.var(0)
    corrupt_anchor(inst, data.draw(st.integers(1, 2)),
                   data.draw(st.sampled_from((1, -1, x1, Fraction(1, 2)))))
    assert_same_failure(inst)


def test_generated_corruptions_reach_every_check():
    """The corruptions above do break the identities: a flipped [a2, a1]
    fails skew-symmetry first, a bent anchor fails Leibniz first, and a
    perturbed [a1, a2] can fail Jacobi, which validate checks."""
    h3 = unchecked("heisenberg3")
    corrupt_gen_bracket(h3, 1, 0, 2, 2)
    assert assert_same_failure(h3) == "graded skew-symmetry fails on e1, e2"
    poly = rank3_algebroid()
    corrupt_anchor(poly, 2, 1)
    assert assert_same_failure(poly).startswith("graded Leibniz rule fails on a1, ")
    so = unchecked("so3")
    corrupt_gen_bracket(so, 0, 1, 0, 1)
    assert raised(GradedInstance.validate, so) == "Jacobi identity fails on (e1, e2, e3)"
    assert raised(reference_validate, so) == "Jacobi identity fails on (e1, e2, e3)"
