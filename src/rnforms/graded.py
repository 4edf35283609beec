"""Graded combinatorics: Koszul signs and unshuffles.

Signs in a graded-symmetric world depend only on degree parities, which
coincide for the two grading conventions used here (deg P = -p and
deg P = p - 2 both have the parity of the wedge degree p).
"""

from __future__ import annotations

import itertools
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .rings import InputError


class GradingConvention(str, Enum):
    """Convention degree assigned to a wedge-degree-p element."""

    NEGATED = "negated"      # deg P = -p
    SHIFTED2 = "shifted2"    # deg P = p - 2

    def degree(self, wedge_degree: int) -> int:
        if self is GradingConvention.NEGATED:
            return -wedge_degree
        return wedge_degree - 2

    @classmethod
    def parse(cls, text: str) -> "GradingConvention":
        try:
            return cls(text)
        except ValueError:
            raise InputError(f"unknown grading convention {text!r}") from None


def sign_pow(exponent: int) -> int:
    """(-1)**exponent as an exact int, valid for negative exponents too."""
    return -1 if exponent % 2 else 1


def koszul_sign(perm: Sequence[int], degrees: Sequence[int]) -> Fraction:
    """Sign eps(sigma) with X_{sigma(1)} o ... o X_{sigma(n)} = eps * X_1 o ... o X_n.

    ``perm[i]`` is the 0-based original index of the item in slot i;
    ``degrees[k]`` is the degree of original item k.  Only degree parities
    matter: an inversion pair contributes -1 exactly when both items are odd.
    """
    n = len(perm)
    if n != len(degrees):
        raise InputError("permutation and degree list lengths differ")
    if sorted(perm) != list(range(n)):
        raise InputError(f"not a permutation of 0..{n - 1}: {perm!r}")
    sign = 1
    for i in range(n):
        if degrees[perm[i]] % 2 == 0:
            continue
        for j in range(i + 1, n):
            if perm[i] > perm[j] and degrees[perm[j]] % 2 != 0:
                sign = -sign
    return Fraction(sign)


def koszul_sign_by_transpositions(perm: Sequence[int], degrees: Sequence[int]) -> Fraction:
    """Oracle: bubble the permuted list back to identity, one adjacent swap
    at a time, accumulating (-1)^{|a||b|} per swap."""
    n = len(perm)
    if n != len(degrees):
        raise InputError("permutation and degree list lengths differ")
    work = list(perm)
    sign = 1
    for i in range(n):
        j = work.index(i)
        while j > i:
            a, b = work[j - 1], work[j]
            if degrees[a] % 2 and degrees[b] % 2:
                sign = -sign
            work[j - 1], work[j] = b, a
            j -= 1
    return Fraction(sign)


def unshuffles(i: int, j: int) -> list[tuple[int, ...]]:
    """All (i,j)-unshuffles of 0..i+j-1: increasing on the first i slots and
    on the last j slots; lexicographic order, binom(i+j, i) of them."""
    if i < 0 or j < 0:
        raise InputError("unshuffle arities must be nonnegative")
    n = i + j
    items = range(n)
    result = []
    for first in itertools.combinations(items, i):
        chosen = set(first)
        rest = tuple(k for k in items if k not in chosen)
        result.append(first + rest)
    return result

