import math

import pytest
from hypothesis import given, strategies as st

from rnforms.graded import (GradingConvention, koszul_sign,
                            koszul_sign_by_transpositions, sign_pow, unshuffles)
from rnforms.rings import InputError


def test_identity_permutation_any_degrees():
    assert koszul_sign((0, 1, 2), (-1, 0, 3)) == 1


def test_odd_odd_swap():
    assert koszul_sign((1, 0), (-1, -1)) == -1


def test_even_odd_swap():
    assert koszul_sign((1, 0), (-1, 0)) == 1


def test_length_mismatch():
    with pytest.raises(InputError):
        koszul_sign((0, 1), (1,))
    with pytest.raises(InputError):
        koszul_sign((0, 0), (1, 1))


@st.composite
def perm_and_degrees(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    perm = draw(st.permutations(range(n)))
    degrees = draw(st.lists(st.integers(min_value=-4, max_value=4),
                            min_size=n, max_size=n))
    return tuple(perm), tuple(degrees)


@given(perm_and_degrees())
def test_inversion_count_equals_transposition_oracle(data):
    perm, degrees = data
    assert koszul_sign(perm, degrees) == koszul_sign_by_transpositions(perm, degrees)


@given(perm_and_degrees(), st.randoms(use_true_random=False))
def test_sign_composition_consistency(data, rng):
    # applying tau then sigma accumulates eps(tau) on the original degrees and
    # eps(sigma) on the permuted ones
    tau, degrees = data
    n = len(tau)
    sigma = list(range(n))
    rng.shuffle(sigma)
    composite = tuple(tau[sigma[i]] for i in range(n))
    permuted_degrees = tuple(degrees[tau[i]] for i in range(n))
    assert koszul_sign(composite, degrees) == (
        koszul_sign(tau, degrees) * koszul_sign(tuple(sigma), permuted_degrees))


@pytest.mark.parametrize("i,j,count", [(2, 1, 3), (1, 1, 2), (2, 2, 6), (0, 3, 1), (3, 0, 1)])
def test_unshuffle_counts(i, j, count):
    result = unshuffles(i, j)
    assert len(result) == count == math.comb(i + j, i)
    assert result == sorted(result)
    for perm in result:
        assert list(perm[:i]) == sorted(perm[:i])
        assert list(perm[i:]) == sorted(perm[i:])


def test_unshuffles_1_1():
    assert unshuffles(1, 1) == [(0, 1), (1, 0)]


def test_grading_conventions_share_parity():
    for p in range(6):
        neg = GradingConvention.NEGATED.degree(p)
        sh2 = GradingConvention.SHIFTED2.degree(p)
        assert neg % 2 == p % 2 == sh2 % 2
    assert GradingConvention.NEGATED.degree(3) == -3
    assert GradingConvention.SHIFTED2.degree(3) == 1
    with pytest.raises(InputError):
        GradingConvention.parse("upside-down")


def test_sign_pow_negative_exponents():
    assert sign_pow(-1) == -1
    assert sign_pow(-2) == 1
    assert isinstance(sign_pow(-3), int)
