import itertools
from fractions import Fraction

import pytest

from rnforms.elements import Element, sort_monomial, wedge
from rnforms.rings import InputError


def test_sort_monomial_signs():
    assert sort_monomial((0, 1)) == ((0, 1), 1)
    assert sort_monomial((1, 0)) == ((0, 1), -1)
    assert sort_monomial((1, 2, 0)) == ((0, 1, 2), 1)
    assert sort_monomial((0, 0)) == ((), 0)


def test_wedge_basics(aff):
    e1, e2 = aff.generator(0), aff.generator(1)
    assert e1.wedge(e2) == aff.monomial((0, 1))
    assert e1.wedge(e1).is_zero()
    assert e2.wedge(e1) == aff.monomial((0, 1)).scale(-1)


def test_wedge_associativity_three_dim(h3):
    e1, e2, e3 = (h3.generator(i) for i in range(3))
    assert e1.wedge(e2).wedge(e3) == h3.monomial((0, 1, 2))
    assert wedge(e1, e2, e3) == e1.wedge(e2.wedge(e3))


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


def test_element_hash_eq(aff):
    a = aff.generator(0).wedge(aff.generator(1))
    b = aff.monomial((0, 1))
    assert a == b and hash(a) == hash(b)
    assert a != aff.generator(0)
