"""Reference Koszul sign: bubble the permuted list back to the identity,
one adjacent swap at a time, where ``graded.koszul_sign`` counts the odd
inversions directly."""

from rnforms.rings import InputError


def koszul_sign_by_transpositions(perm, degrees) -> int:
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
    return sign
