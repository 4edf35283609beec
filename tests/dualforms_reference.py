"""Reference dual-form operators: each form built by a loop over increasing
generator tuples, from the operand's table and the structure constants,
instead of from its defining formula on generator arguments
(``dualforms.tabulate``).

Every operator reads entries through ``reference_entry``, which takes the
sign of a permutation from its inversion count, so no sign code is shared
with ``DualForm.entry``.  ``compat_n_pi`` is compared as a matrix identity.
``element_on_duals`` evaluates a multivector on 1-forms as a permutation
determinant, the reference for the determinant convention that
``dualforms.pi_sharp`` states.  Slow, and independent of the tabulated
operators.
"""

from __future__ import annotations

import itertools

from rnforms.dualforms import DualForm, apply_matrix, matrix_mul, pi_sharp, unit_duals
from rnforms.rings import InputError


def _odd(perm) -> bool:
    """Whether the permutation ``perm`` has an odd inversion count."""
    return sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm))
               if perm[a] > perm[b]) % 2 == 1


def reference_entry(form: DualForm, indices):
    """Value on a generator tuple in any order, the sign by inversions."""
    indices = tuple(indices)
    if len(set(indices)) != len(indices):
        return form.instance.ring.zero()
    order = tuple(sorted(indices))
    value = form.table.get(order, form.instance.ring.zero())
    return -value if _odd([order.index(i) for i in indices]) else value


def element_on_duals(P, alphas):
    """Determinant-convention evaluation of a wedge-degree-p element on p
    1-forms: (P_1^...^P_p)(a_1..a_p) = det <a_i, P_j>."""
    alphas = tuple(alphas)
    if not alphas:
        raise InputError("need at least one 1-form")
    ring = alphas[0].instance.ring
    p = len(alphas)
    total = ring.zero()
    for mon, coeff in P.terms.items():
        if len(mon) != p:
            raise InputError("element degree does not match the number of 1-forms")
        det = ring.zero()
        for perm in itertools.permutations(range(p)):
            prod = ring.one()
            for row, col in enumerate(perm):
                prod = prod * reference_entry(alphas[row], (mon[col],))
            det = det + (-prod if _odd(perm) else prod)
        total = total + coeff * det
    return total


def reference_apply(form: DualForm, sections):
    """Multilinear evaluation on wedge-degree-1 elements."""
    ring = form.instance.ring
    total = ring.zero()
    for picks in itertools.product(*(s.terms.items() for s in sections)):
        coeff = ring.one()
        for _, c in picks:
            coeff = coeff * c
        total = total + coeff * reference_entry(form, [mon[0] for mon, _ in picks])
    return total


def reference_differential(kappa: DualForm) -> DualForm:
    inst = kappa.instance
    k = kappa.k
    table = {}
    for mon in itertools.combinations(range(inst.rank), k + 1):
        value = inst.ring.zero()
        for i, gi in enumerate(mon):
            rest = mon[:i] + mon[i + 1:]
            inner = kappa.table.get(rest)
            if inner:
                term = inst.anchor_apply(gi, inner)
                value = value + (term if i % 2 == 0 else -term)
        for (i, gi), (j, gj) in itertools.combinations(enumerate(mon), 2):
            bracket = inst.data.bracket_terms(gi, gj)
            if not bracket:
                continue
            rest = tuple(g for g in mon if g not in (gi, gj))
            acc = inst.ring.zero()
            for target, coeff in bracket.items():
                acc = acc + coeff * reference_entry(kappa, (target,) + rest)
            value = value + (-acc if (i + j) % 2 else acc)
        if value:
            table[mon] = value
    return DualForm(inst, k + 1, table)


def reference_iota_element(X, kappa: DualForm) -> DualForm:
    inst = kappa.instance
    table = {}
    for mon in itertools.combinations(range(inst.rank), kappa.k - 1):
        value = inst.ring.zero()
        for gmon, coeff in X.terms.items():
            value = value + coeff * reference_entry(kappa, (gmon[0],) + mon)
        if value:
            table[mon] = value
    return DualForm(inst, kappa.k - 1, table)


def reference_lie_derivative(X, kappa: DualForm) -> DualForm:
    """The Cartan formula L_X = i_X d + d i_X on a k-form, k >= 1."""
    return (reference_iota_element(X, reference_differential(kappa))
            + reference_differential(reference_iota_element(X, kappa)))


def reference_n_star(inst, N, alpha: DualForm) -> DualForm:
    table = {}
    for i in range(inst.rank):
        value = inst.ring.zero()
        for j in range(inst.rank):
            value = value + N[j][i] * reference_entry(alpha, (j,))
        if value:
            table[(i,)] = value
    return DualForm(inst, 1, table)


def reference_omega_n(omega: DualForm, N) -> DualForm:
    """omega(N X, Y) on generator pairs; no compatibility check."""
    inst = omega.instance
    table = {}
    for mon in itertools.combinations(range(inst.rank), 2):
        value = reference_apply(omega, (apply_matrix(inst, N, inst.generator(mon[0])),
                                        inst.generator(mon[1])))
        if value:
            table[mon] = value
    return DualForm(inst, 2, table)


def reference_iota_n(theta: DualForm, N) -> DualForm:
    inst = theta.instance
    table = {}
    for mon in itertools.combinations(range(inst.rank), 3):
        gens = [inst.generator(i) for i in mon]
        value = inst.ring.zero()
        for slot in range(3):
            args = list(gens)
            args[slot] = apply_matrix(inst, N, args[slot])
            value = value + reference_apply(theta, args)
        if value:
            table[mon] = value
    return DualForm(inst, 3, table)


def reference_background_script(H: DualForm, N) -> DualForm:
    inst = H.instance
    table = {}
    for mon in itertools.combinations(range(inst.rank), 3):
        gens = [inst.generator(i) for i in mon]
        value = inst.ring.zero()
        for shift in range(3):
            X, Y, Z = (gens[(0 + shift) % 3], gens[(1 + shift) % 3], gens[(2 + shift) % 3])
            value = value + reference_apply(H, (apply_matrix(inst, N, X),
                                                apply_matrix(inst, N, Y), Z))
        if value:
            table[mon] = value
    return DualForm(inst, 3, table)


def pi_sharp_matrix(inst, pi):
    """Matrix of pi# (columns are pi# of the dual generators)."""
    cols = []
    for alpha in unit_duals(inst):
        image = pi_sharp(pi, alpha)
        cols.append([image.terms.get((j,), inst.ring.zero()) for j in range(inst.rank)])
    return [[cols[j][i] for j in range(inst.rank)] for i in range(inst.rank)]


def reference_compat_n_pi(inst, N, pi) -> bool:
    """N o pi# = pi# o N* as matrices."""
    n = inst.rank
    sharp = pi_sharp_matrix(inst, pi)
    n_sharp = matrix_mul(inst, N, sharp)
    nstar = [[N[j][i] for j in range(n)] for i in range(n)]
    sharp_nstar = matrix_mul(inst, sharp, nstar)
    return all(inst.ring.coerce(n_sharp[i][j]) == inst.ring.coerce(sharp_nstar[i][j])
               for i in range(n) for j in range(n))
