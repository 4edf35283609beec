import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnforms import dualforms
from rnforms.dualforms import (DualForm, apply_matrix, background_script,
                               compat_n_pi, compat_omega_n, d_function, differential,
                               iota_element, iota_n, lie_derivative, n_star, omega_n,
                               pairing, pi_sharp)
from rnforms.elements import Element
from rnforms.rings import InputError
from rnforms.scenario import load_shipped

from dualforms_reference import (element_on_duals, reference_background_script,
                                 reference_compat_n_pi, reference_differential, reference_entry,
                                 reference_iota_element, reference_iota_n,
                                 reference_n_star, reference_omega_n)
from generated_instances import (affine_x_algebroid, elements, poly_rank3, polynomials,
                                  rank3_algebroid, semidirect, two_step_nilpotent)


def dual(inst, i):
    return DualForm(inst, 1, {(i,): inst.ring.one()})


def test_differential_heisenberg(h3):
    d3 = differential(dual(h3, 2))
    assert d3.table == {(0, 1): Fraction(-1)}
    assert differential(dual(h3, 0)).is_zero()
    assert differential(DualForm(h3, 0, {(): Fraction(5)})).is_zero()


def test_d_squared_zero_everywhere(aff, h3, so3_inst, poly):
    for inst in (aff, h3, so3_inst, poly):
        for i in range(inst.rank):
            assert differential(differential(dual(inst, i))).is_zero()
        if inst.data.base_dim:
            f = inst.ring.var(0) * inst.ring.var(1)
            assert differential(d_function(inst, f)).is_zero()


def test_lie_derivative_aff1(aff):
    e1 = aff.generator(0)
    result = lie_derivative(e1, dual(aff, 1))
    assert result.table == {(1,): Fraction(-1)}


def test_lie_derivative_on_functions(poly):
    x1 = poly.ring.var(0)
    f = DualForm(poly, 0, {(): x1 * x1})
    out = lie_derivative(poly.generator(0), f)
    assert out.table[()] == 2 * x1


def test_lie_derivative_central_invariant(ab2):
    # abelian algebra over a point: every derivative vanishes
    kappa = DualForm(ab2, 2, {(0, 1): Fraction(3)})
    assert lie_derivative(ab2.generator(0), kappa).is_zero()


def test_pi_sharp_conventions(aff):
    pi = aff.monomial((0, 1))
    assert pi_sharp(pi, dual(aff, 0)) == aff.generator(1)
    assert pi_sharp(pi, dual(aff, 1)) == aff.generator(0).scale(-1)
    from rnforms.elements import Element
    assert pi_sharp(Element.zero(), dual(aff, 0)).is_zero()


def test_pairing_determinant_convention(aff):
    pi = aff.monomial((0, 1))
    assert element_on_duals(pi, (dual(aff, 0), dual(aff, 1))) == 1
    assert element_on_duals(pi, (dual(aff, 1), dual(aff, 0))) == -1
    # <beta, pi# alpha> = pi(alpha, beta)
    for i, j in itertools.product(range(2), repeat=2):
        a, b = dual(aff, i), dual(aff, j)
        assert pairing(b, pi_sharp(pi, a)) == element_on_duals(pi, (a, b))


def test_n_star_transpose(aff):
    N = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(5)]]
    assert n_star(aff, N, dual(aff, 0)).table == {(0,): Fraction(2)}
    identity = [[Fraction(1), 0], [0, Fraction(1)]]
    assert n_star(aff, identity, dual(aff, 1)) == dual(aff, 1)
    # <N* a, X> = <a, N X> for an off-diagonal N
    N2 = [[Fraction(0), Fraction(1)], [Fraction(3), Fraction(0)]]
    for i in range(2):
        for j in range(2):
            a, X = dual(aff, i), aff.generator(j)
            assert pairing(n_star(aff, N2, a), X) == pairing(a, apply_matrix(aff, N2, X))


def test_omega_flat(aff):
    omega = DualForm(aff, 2, {(0, 1): Fraction(1)})
    assert iota_element(aff.generator(0), omega).table == {(1,): Fraction(1)}
    assert iota_element(aff.generator(1), omega).table == {(0,): Fraction(-1)}


def test_omega_n_scalar(h3):
    omega = DualForm(h3, 2, {(0, 1): Fraction(1), (1, 2): Fraction(2)})
    N = [[Fraction(3) if i == j else Fraction(0) for j in range(3)] for i in range(3)]
    assert omega_n(omega, N) == omega.scale(3)
    bad = [[Fraction(1), 0, 0], [0, Fraction(2), 0], [0, 0, Fraction(2)]]
    with pytest.raises(InputError):
        omega_n(omega, bad)


def test_iota_n_identity(h3):
    theta = DualForm(h3, 3, {(0, 1, 2): Fraction(1)})
    identity = [[Fraction(1) if i == j else Fraction(0) for j in range(3)]
                for i in range(3)]
    assert iota_n(theta, identity) == theta.scale(3)
    assert background_script(theta, identity) == theta.scale(3)


def test_compat_checks(aff):
    pi = aff.monomial((0, 1))
    scalar = [[Fraction(4), 0], [0, Fraction(4)]]
    assert compat_n_pi(aff, scalar, pi)
    assert not compat_n_pi(aff, [[Fraction(1), 0], [0, Fraction(2)]], pi)


def test_dualform_entry_antisymmetry(h3):
    H = DualForm(h3, 3, {(0, 1, 2): Fraction(1)})
    assert H.entry((1, 0, 2)) == -1
    assert H.entry((2, 0, 1)) == 1
    assert H.entry((0, 0, 1)) == 0


def test_top_degree_zero_forms(aff):
    top = differential(DualForm(aff, 2, {(0, 1): Fraction(1)}))
    assert top.k == 3 and top.is_zero()
    with pytest.raises(InputError):
        DualForm(aff, 3, {(0, 1, 2): Fraction(1)})


def test_polynomial_labels_format_each_coefficient(poly):
    x1 = poly.ring.var(0)
    coeff = x1 * x1 + 3
    assert DualForm(poly, 2, {(0, 1): coeff}).label() == "(3 + x1^2)*a1*^a2*"
    assert poly.basis_label(Element({(0, 1): coeff})) == "(3 + x1^2)*a1^a2"
    assert DualForm(poly, 1, {(0,): 1, (1,): Fraction(-1, 2) * x1}).label() == \
        "a1* + (-1/2*x1)*a2*"


# -- the tabulated operators against the loop references (dualforms_reference) ---------

SHIPPED = ("aff1", "heisenberg3", "so3", "abelian2", "poly-tangent-r2")
INSTANCES = (st.sampled_from([load_shipped(name).instance for name in SHIPPED])
             | two_step_nilpotent() | st.builds(affine_x_algebroid) | poly_rank3())
SETTINGS = settings(max_examples=40, deadline=None)


def coefficients(inst):
    rationals = st.sampled_from((0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)))
    if inst.data.base_dim:
        return polynomials(inst.ring.nvars) | rationals
    return rationals


def dual_forms(inst, k):
    keys = list(itertools.combinations(range(inst.rank), k))
    if not keys:
        return st.just(DualForm.zero(inst, k))
    tables = st.dictionaries(st.sampled_from(keys), coefficients(inst), max_size=4)
    return tables.map(lambda table: DualForm(inst, k, table))


def sections(inst):
    coeffs = st.lists(coefficients(inst), min_size=inst.rank, max_size=inst.rank)
    return coeffs.map(lambda cs: inst.element({(i,): c for i, c in enumerate(cs)}))


@st.composite
def bundle_maps(draw, inst):
    """c Id, a diagonal matrix or a full matrix."""
    n, entry = inst.rank, coefficients(inst)
    kind = draw(st.sampled_from(("scalar", "diagonal", "full")))
    if kind == "full":
        rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    else:
        diagonal = [draw(entry)] * n if kind == "scalar" else [draw(entry) for _ in range(n)]
        rows = [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return [[inst.ring.coerce(c) for c in row] for row in rows]


@SETTINGS
@given(INSTANCES, st.data())
def test_entry_differential_and_contraction_match_the_references(inst, data):
    k = data.draw(st.integers(0, inst.rank))
    kappa = data.draw(dual_forms(inst, k))
    indices = data.draw(st.lists(st.integers(0, inst.rank - 1), min_size=k, max_size=k))
    assert kappa.entry(indices) == reference_entry(kappa, indices)
    assert differential(kappa) == reference_differential(kappa)
    if k:
        X = data.draw(sections(inst))
        assert iota_element(X, kappa) == reference_iota_element(X, kappa)


@settings(max_examples=30, deadline=None)
@given(semidirect() | two_step_nilpotent() | poly_rank3(), st.data())
def test_pi_sharp_pairing_matches_the_determinant_reference(inst, data):
    """<b, pi# a> = pi(a, b), read by the permutation determinant, for a
    random bivector (the wedge-degree-2 part of a random element) and
    random 1-forms on generated instances."""
    P = data.draw(elements(inst))
    pi = Element({mon: c for mon, c in P.terms.items() if len(mon) == 2})
    a, b = data.draw(dual_forms(inst, 1)), data.draw(dual_forms(inst, 1))
    assert pairing(b, pi_sharp(pi, a)) == element_on_duals(pi, (a, b))


@SETTINGS
@given(INSTANCES, st.data())
def test_bundle_map_operators_match_the_references(inst, data):
    N = data.draw(bundle_maps(inst))
    alpha = data.draw(dual_forms(inst, 1))
    assert n_star(inst, N, alpha) == reference_n_star(inst, N, alpha)
    pi = Element(data.draw(dual_forms(inst, 2)).table)        # the same table as a bivector
    assert compat_n_pi(inst, N, pi) == reference_compat_n_pi(inst, N, pi)
    omega = data.draw(dual_forms(inst, 2))
    if compat_omega_n(inst, omega, N):
        assert omega_n(omega, N) == reference_omega_n(omega, N)
    else:
        with pytest.raises(InputError):
            omega_n(omega, N)
    theta = data.draw(dual_forms(inst, 3))
    assert iota_n(theta, N) == reference_iota_n(theta, N)
    assert background_script(theta, N) == reference_background_script(theta, N)


def test_differential_matches_the_reference_in_every_anchor_slot(poly):
    """Every entry has a nonzero derivative along every coordinate, so each
    anchor term of the Cartan formula contributes, in every slot."""
    for inst in (poly, affine_x_algebroid(), rank3_algebroid()):
        coordinates = [inst.ring.var(m) for m in range(inst.ring.nvars)]
        for k in range(inst.rank + 1):
            keys = itertools.combinations(range(inst.rank), k)
            kappa = DualForm(inst, k, {mon: sum((n + m + 1) * x for m, x in enumerate(coordinates))
                                       for n, mon in enumerate(keys)})
            assert differential(kappa) == reference_differential(kappa), (inst.name, k)


def test_differential_of_the_zero_form_tabulates_nothing(h3, poly, monkeypatch):
    """d0 is the zero (k+1)-form at once: no value is computed, in any
    degree, past the rank too."""
    monkeypatch.setattr(dualforms, "tabulate", lambda *args: pytest.fail("tabulated d0"))
    for inst in (h3, poly):
        for k in range(inst.rank + 2):
            d = differential(DualForm.zero(inst, k))
            assert d.is_zero() and d.k == k + 1 and d.instance is inst


def test_contraction_rejects_a_non_section(h3):
    with pytest.raises(InputError, match="contraction needs a wedge-degree-1 element"):
        iota_element(h3.monomial((0, 1)), DualForm(h3, 2, {(0, 1): 1}))
