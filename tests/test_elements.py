import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rnforms.elements import Element, sort_monomial
from rnforms.graded import inversion_sign
from rnforms.rings import InputError

from graded_reference import koszul_sign_by_transpositions


def test_sort_monomial_signs():
    assert sort_monomial((0, 1)) == ((0, 1), 1)
    assert sort_monomial((1, 0)) == ((0, 1), -1)
    assert sort_monomial((1, 2, 0)) == ((0, 1, 2), 1)
    assert sort_monomial((0, 0)) == ((), 0)


@given(st.lists(st.integers(min_value=-5, max_value=5), max_size=8))
def test_one_sign_rule_against_transpositions(items):
    """inversion_sign is the sign of the stable sort of ``items``, so on
    all-odd degrees the Koszul sign of its ranks; sort_monomial reads it,
    and gives ((), 0) on a repeated index."""
    order = sorted(range(len(items)), key=items.__getitem__)      # stable
    ranks = [0] * len(items)
    for rank, position in enumerate(order):
        ranks[position] = rank
    sign = koszul_sign_by_transpositions(ranks, [1] * len(items))
    assert inversion_sign(items) == sign
    expected = ((), 0) if len(set(items)) < len(items) else (tuple(sorted(items)), sign)
    assert sort_monomial(items) == expected


def test_wedge_basics(aff):
    e1, e2 = aff.generator(0), aff.generator(1)
    assert e1.wedge(e2) == aff.monomial((0, 1))
    assert e1.wedge(e1).is_zero()
    assert e2.wedge(e1) == aff.monomial((0, 1)).scale(-1)


def test_wedge_associativity_three_dim(h3):
    e1, e2, e3 = (h3.generator(i) for i in range(3))
    assert e1.wedge(e2).wedge(e3) == h3.monomial((0, 1, 2))
    assert e1.wedge(e2).wedge(e3) == e1.wedge(e2.wedge(e3))


def test_wedge_graded_commutativity(h3):
    basis = h3.all_basis()
    for a, b in itertools.product(basis, repeat=2):
        p, q = a.require_homogeneous(), b.require_homogeneous()
        sign = -1 if (p * q) % 2 else 1
        assert (a.wedge(b) - b.wedge(a).scale(sign)).is_zero()


def test_functions_wedge_as_scalars(aff):
    f = aff.scalar(Fraction(3, 2))
    e1 = aff.generator(0)
    assert f.wedge(e1) == e1.scale(Fraction(3, 2))
    assert f.wedge(f) == aff.scalar(Fraction(9, 4))


def test_element_homogeneity():
    el = Element({(0,): Fraction(1), (0, 1): Fraction(1)})
    assert el.wedge_degree() is None
    with pytest.raises(InputError):
        el.require_homogeneous()
    assert Element.zero().wedge_degree() is None


def test_element_no_zero_coefficients_stored():
    el = Element({(0,): Fraction(0), (1,): Fraction(2)})
    assert (0,) not in el.terms
    el2 = el + Element({(1,): Fraction(-2)})
    assert el2.is_zero() and not el2.terms


def test_element_hash_eq(aff, h3):
    a = aff.generator(0).wedge(aff.generator(1))
    b = aff.monomial((0, 1))
    assert a == b and hash(a) == hash(b)
    assert a != aff.generator(0)
    # a key that is not increasing distinct generator indices would make a
    # second, unequal spelling of one element (or of none), so it is refused
    for bad, message in [((1, 1), "must be strictly increasing"),
                         ((1, 0), "must be strictly increasing"),
                         ((5,), "indexes an unknown generator")]:
        with pytest.raises(InputError, match=message):
            h3.monomial(bad)
        with pytest.raises(InputError, match=message):
            h3.element({bad: 1})
    assert h3.element({(0, 1): -1}) == h3.generator(1).wedge(h3.generator(0))

