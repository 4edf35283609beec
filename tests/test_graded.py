import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from rnforms.graded import GradingConvention, distinct_splits, koszul_sign, sign_pow, unshuffles
from rnforms.rings import InputError

from graded_reference import koszul_sign_by_transpositions


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


@given(st.lists(st.tuples(st.booleans(), st.integers(1, 3)), max_size=4), st.data())
def test_distinct_splits_are_the_unshuffles_by_value(runs, data):
    """A sorted tuple with one value per run, an odd one never repeated:
    grouping its (k, n - k)-unshuffles by the values they split into, and
    summing their Koszul signs, gives each distinct split once, as its
    weight times sign, with both position lists increasing."""
    shape = tuple((odd, 1 if odd else m) for odd, m in runs)
    entries = [r for r, (_, m) in enumerate(shape) for _ in range(m)]
    k = data.draw(st.integers(0, len(entries)))
    by_value = Counter()
    for perm in unshuffles(k, len(entries) - k):
        split = (tuple(entries[i] for i in perm[:k]), tuple(entries[i] for i in perm[k:]))
        by_value[split] += koszul_sign(perm, [shape[r][0] for r in entries])
    splits = {}
    for scale, first, rest in distinct_splits(shape, k):
        assert first == sorted(first) and rest == sorted(rest)
        splits[tuple(entries[i] for i in first), tuple(entries[i] for i in rest)] = scale
    assert splits == dict(by_value)
    assert len(splits) == len(distinct_splits(shape, k))


def test_grading_conventions_share_parity():
    """Both gradings give a form of wedge shift c a degree of the parity of c."""
    for arity in range(5):
        for shift in range(-4, 5):
            neg = GradingConvention.NEGATED.form_degree(arity, shift)
            sh2 = GradingConvention.SHIFTED2.form_degree(arity, shift)
            assert neg % 2 == shift % 2 == sh2 % 2
    # an element of wedge degree 3, as a 0-form
    assert GradingConvention.NEGATED.form_degree(0, 3) == -3
    assert GradingConvention.SHIFTED2.form_degree(0, 3) == 1
    # l2, then u(H) of a 3-form H: degree 1 in both, then in the shifted-by-2 one only
    assert [g.form_degree(2, -1) for g in GradingConvention] == [1, 1]
    assert [g.form_degree(3, -3) for g in GradingConvention] == [3, 1]


def test_sign_pow_negative_exponents():
    assert sign_pow(-1) == -1
    assert sign_pow(-2) == 1
    assert isinstance(sign_pow(-3), int)
