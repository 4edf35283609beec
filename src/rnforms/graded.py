"""Graded combinatorics: Koszul signs and unshuffles.

``inversion_sign`` is the package's one permutation sign: it signs
``elements.sort_monomial``, ``koszul_sign`` (on the odd entries; it signs
``forms.VForm._canonical``) and the odd part of ``distinct_splits``, which
``unshuffles`` enumerates; only the insertion of ``forms`` counts inline.
``distinct_splits`` lists the terms of an insertion on a sorted tuple of a
given shape of runs of equal entries; ``forms`` keeps them once per shape.

Signs in a graded-symmetric world depend only on degree parities, which
coincide for the two grading conventions used here: a form of arity k and
wedge shift c has degree -c in one and c + 2(k - 1) in the other, both of
the parity of c.
"""

from __future__ import annotations

import itertools
from enum import Enum
from math import comb, prod
from typing import Sequence

from .rings import InputError


class GradingConvention(str, Enum):
    """A grading of the multivector space, read off a form's (arity, wedge
    shift): the kernel's values and signs depend on the shift alone."""

    NEGATED = "negated"      # deg P = -p: N_k degree 0, l_k degree 1
    SHIFTED2 = "shifted2"    # deg P = p - 2: pi + uN + u(omega) degree 0, l2 + uH degree 1

    def form_degree(self, arity: int, shift: int) -> int:
        """The degree of a form of ``arity`` and wedge ``shift`` as a graded map."""
        if self is GradingConvention.NEGATED:
            return -shift
        return shift + 2 * (arity - 1)


def sign_pow(exponent: int) -> int:
    """(-1)**exponent as an exact int, valid for negative exponents too."""
    return -1 if exponent % 2 else 1


def inversion_sign(items) -> int:
    """(-1)**(number of inversions of ``items``): +1 or -1, the sign of the
    permutation that sorts distinct ``items``."""
    return -1 if sum(a > b for a, b in itertools.combinations(items, 2)) & 1 else 1


def koszul_sign(perm: Sequence[int], degrees: Sequence[int]) -> int:
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
    return inversion_sign([k for k in perm if degrees[k] % 2])


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


def distinct_splits(shape: tuple, k: int) -> list:
    """The distinct (k, n - k)-splits of a sorted tuple with runs of ``shape`` ((odd, multiplicity)
    per run; odd entries never repeat), as (weight * sign, first positions, rest positions): the
    C(m, j) unshuffles taking j of m copies of an even entry are one split (even entries carry
    no sign); the odd entries split by a (b, O - b)-unshuffle, signed by its inversions."""
    runs = list(zip(itertools.accumulate([m for _, m in shape], initial=0), shape))
    odds, evens = [s for s, (o, _) in runs if o], [(s, m) for s, (o, m) in runs if not o]
    splits = []
    for taken in itertools.product(*[range(m + 1) for _, m in evens]):
        b = k - sum(taken)
        if 0 <= b <= len(odds):
            first = [p for (s, _), j in zip(evens, taken) for p in range(s, s + j)]
            rest = [p for (s, m), j in zip(evens, taken) for p in range(s + j, s + m)]
            weight = prod([comb(m, j) for (_, m), j in zip(evens, taken)])
            splits += [(weight * inversion_sign(perm), sorted(first + [odds[i] for i in perm[:b]]),
                        sorted(rest + [odds[i] for i in perm[b:]]))
                       for perm in unshuffles(b, len(odds) - b)]
    return splits
