import itertools
from fractions import Fraction

import pytest

from rnforms.graded import sign_pow
from rnforms.instances import (GradedInstance, LieAlgebraData, PolyAlgebroidData, heisenberg3,
                               poly_tangent_r2)
from rnforms.rings import InputError
from rnforms.scenario import load_shipped


def test_structure_bracket_examples(aff):
    e1, e2 = aff.generator(0), aff.generator(1)
    assert aff.sn_bracket(e1, e2) == e2
    assert aff.sn_bracket(e1, e1.wedge(e2)) == e1.wedge(e2)
    assert aff.sn_bracket(aff.unit(), aff.unit()).is_zero()


def test_degree_bookkeeping(h3):
    basis = h3.all_basis()
    for P, Q in itertools.product(basis, repeat=2):
        p, q = P.require_homogeneous(), Q.require_homogeneous()
        value = h3.sn_bracket(P, Q)
        if not value.is_zero():
            assert value.require_homogeneous() == p + q - 1


def test_graded_skew_and_leibniz_exhaustive(h3):
    basis = h3.all_basis()
    for P, Q in itertools.product(basis, repeat=2):
        p, q = P.require_homogeneous(), Q.require_homogeneous()
        lhs = h3.sn_bracket(P, Q)
        rhs = h3.sn_bracket(Q, P).scale(sign_pow((p - 1) * (q - 1)))
        assert (lhs + rhs).is_zero()
    for P, Q, R in itertools.product(basis, repeat=3):
        p, q = P.require_homogeneous(), Q.require_homogeneous()
        lhs = h3.sn_bracket(P, Q.wedge(R))
        rhs = h3.sn_bracket(P, Q).wedge(R) + Q.wedge(h3.sn_bracket(P, R)).scale(
            sign_pow((p - 1) * q))
        assert (lhs - rhs).is_zero()


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


# -- validate's failure paths against a reference -------------------------------

def reference_gerstenhaber(inst):
    """The unhoisted loops validate used to run: every bracket, wedge and
    sign recomputed in the innermost loop.  Reference for messages and for
    which pair or triple fails first."""
    family = inst._gerstenhaber_family()
    for P in family:
        p = P.require_homogeneous()
        for Q in family:
            q = Q.require_homogeneous()
            skew = inst.sn_bracket(P, Q) + inst.sn_bracket(Q, P).scale(
                sign_pow((p - 1) * (q - 1)))
            if not skew.is_zero():
                raise InputError(
                    f"graded skew-symmetry fails on {inst.basis_label(P)},"
                    f" {inst.basis_label(Q)}")
    for P in family:
        p = P.require_homogeneous()
        for Q in family:
            q = Q.require_homogeneous()
            for R in family:
                lhs = inst.sn_bracket(P, Q.wedge(R))
                rhs = inst.sn_bracket(P, Q).wedge(R) + Q.wedge(
                    inst.sn_bracket(P, R)).scale(sign_pow((p - 1) * q))
                if not (lhs - rhs).is_zero():
                    raise InputError(
                        f"graded Leibniz rule fails on {inst.basis_label(P)},"
                        f" {inst.basis_label(Q)}, {inst.basis_label(R)}")


def _symmetric_e1_e2(monkeypatch):
    """h3 whose base case [e2, e1] returns +e3: Jacobi still holds (the
    Jacobiator on (e1, e2, e3) never reads [e2, e1]), skew-symmetry fails."""
    inst = heisenberg3(check=False)
    gen_bracket = inst._gen_bracket
    monkeypatch.setattr(inst, "_gen_bracket",
                        lambda i, j: -gen_bracket(i, j) if (i, j) == (1, 0) else gen_bracket(i, j))
    return inst


def _bent_anchor(monkeypatch):
    """poly-tangent-r2 whose anchor adds 1 to rho(a_i) f for f of total
    degree >= 2.  The skew-symmetry family has coefficients of degree <= 1
    only, so skew-symmetry holds; Leibniz on (a1, x1, x1) reads [a1, x1^2]."""
    inst = poly_tangent_r2(check=False)
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
    with pytest.raises(InputError) as expected:
        reference_gerstenhaber(corrupt(monkeypatch))
    assert str(expected.value) == message
    inst = corrupt(monkeypatch)
    assert all(inst.jacobiator(*t).is_zero() for t in itertools.combinations(range(inst.rank), 3))
    with pytest.raises(InputError) as raised:
        inst.validate()
    assert str(raised.value) == str(expected.value)


def test_validate_passes_with_reference(aff, h3, so3_inst, ab2, poly):
    for inst in (aff, h3, so3_inst, ab2, poly):
        reference_gerstenhaber(inst)


@pytest.mark.parametrize("name", ["poly-tangent-r2", "heisenberg3"])
def test_validate_brackets_each_pair_once(monkeypatch, name):
    pairs = []
    active = []
    sn_bracket = GradedInstance.sn_bracket
    validate_gerstenhaber = GradedInstance._validate_gerstenhaber

    def spy_bracket(self, left, right):
        if active:
            pairs.append((left, right))
        return sn_bracket(self, left, right)

    def spy_validate(self):
        active.append(True)
        try:
            validate_gerstenhaber(self)
        finally:
            active.pop()

    monkeypatch.setattr(GradedInstance, "sn_bracket", spy_bracket)
    monkeypatch.setattr(GradedInstance, "_validate_gerstenhaber", spy_validate)
    family = len(load_shipped(name).instance._gerstenhaber_family())
    assert len(pairs) >= family * family
    assert len(set(pairs)) == len(pairs)
