"""The named vector-valued forms of the kernel.

- wedge_form(k): the k-fold wedge product, degree 0 under the negated
  convention; wedge_form(1) is the identity.
- l2_form: (P, Q) -> (-1)^p [P, Q], degree +1 in both conventions.
- lk_form(k): the insertion of l2 into the (k-1)-fold wedge.
- extend_bundle_map: the derivation extension of an endomorphism, killing
  functions, degree 0.
- extend_kform: the derivation extension of a dual k-form, arity k and
  degree k-2 under the shifted-by-2 convention.
- bivector_form: a bivector as a 0-form.

Each constructor returns the one shared node of its instance for its
defining data and convention (see forms.shared_node), so building a form
twice gives the same node and the same memo.  The convention defaults to
negated, except for extend_kform, whose forms are graded shifted by 2.

Each primitive declares its order in each argument (forms.VForm.order, the
bound behind the order family of forms.is_zero): wedge_form 0, a product;
l2_form 1, the Schouten bracket being a derivation in each slot;
extend_bundle_map 1 and extend_kform 1, derivation extensions;
bivector_form 0, as every 0-form.  lk_form, an insertion, gets 1 + 0.
"""

from __future__ import annotations

import itertools

from .dualforms import DualForm, apply_matrix, matrix_mul, _check_matrix
from .elements import Element
from .forms import VForm, element_form, insert, shared_node
from .graded import GradingConvention, sign_pow
from .instances import GradedInstance
from .rings import InputError

NEG = GradingConvention.NEGATED


def wedge_form(instance: GradedInstance, k: int, convention=NEG) -> VForm:
    """(P_1, ..., P_k) -> P_1 ^ ... ^ P_k."""
    if k < 1:
        raise InputError("wedge form needs arity >= 1")

    def fn(args):
        out = args[0]
        for arg in args[1:]:
            out = out.wedge(arg)
        return out

    return shared_node(instance, ("wedge", k, convention),
                       lambda: VForm(instance, k, 0, fn, convention, order=0))


def l2_form(instance: GradedInstance, convention=NEG) -> VForm:
    """(P, Q) -> (-1)^p [P, Q] for P of wedge degree p."""

    def fn(args):
        P, Q = args
        p = P.require_homogeneous()
        value = instance.sn_bracket(P, Q)
        return -value if p % 2 else value

    return shared_node(instance, ("l2", convention),
                       lambda: VForm(instance, 2, -1, fn, convention, order=1))


def lk_form(instance: GradedInstance, k: int, convention=NEG) -> VForm:
    """l_k = insertion of l_2 into the (k-1)-fold wedge; arity k, degree +1."""
    if k < 2:
        raise InputError("l_k needs k >= 2 (l_1 is identically zero)")
    l2 = l2_form(instance, convention)
    if k == 2:
        return l2
    return insert(l2, wedge_form(instance, k - 1, convention))


def extend_bundle_map(instance: GradedInstance, N, convention=NEG) -> VForm:
    """Derivation extension of an endomorphism: zero on functions,
    sum over factors N applied to one generator at a time."""
    _check_matrix(instance, N)
    ring = instance.ring
    N = tuple(tuple(ring.coerce(v) for v in row) for row in N)

    def fn(args):
        (P,) = args
        out = Element.zero()
        for mon, coeff in P.terms.items():
            for pos in range(len(mon)):
                image = apply_matrix(instance, N, instance.generator(mon[pos]))
                if image.is_zero():
                    continue
                prefix = instance.monomial(mon[:pos])
                suffix = instance.monomial(mon[pos + 1:])
                out = out + prefix.wedge(image).wedge(suffix).scale(coeff)
        return out

    return shared_node(instance, ("bundle map", N, convention),
                       lambda: VForm(instance, 1, 0, fn, convention, order=1))


def matrix_square(instance: GradedInstance, N):
    ring = instance.ring
    N = [[ring.coerce(v) for v in row] for row in N]
    return matrix_mul(instance, N, N)


def extend_kform(kappa: DualForm, convention=GradingConvention.SHIFTED2) -> VForm:
    """Derivation extension of a dual k-form to multivector arguments.

    On monomial arguments P_j = P_{j,1} ^ ... ^ P_{j,p_j} the value is

      sum over factor picks i_1..i_k of
        (-1)^s  kappa(P_{1,i_1},...,P_{k,i_k})  hat(P_1) ^ ... ^ hat(P_k),

      s = sum_j (i_j - 1)  +  sum_j (k - j)(p_j - 1):

    each picked factor moves to the front of its block, then the picked
    degree-1 factors move left past the earlier hatted blocks.  This is the
    unique graded-symmetric multi-derivation that restricts to the form on
    sections, commutes with the other extensions, and brackets with the
    Gerstenhaber form to the extension of the differential.  Any argument
    of wedge degree 0 has no factor to pick, so the value is zero.
    """
    instance = kappa.instance
    k = kappa.k
    if k < 1:
        raise InputError("only k >= 1 dual forms extend by derivation")

    def fn(args):
        out = Element.zero()
        for picks in itertools.product(*(arg.terms.items() for arg in args)):
            mons = [mon for mon, _ in picks]
            coeff = instance.ring.one()
            for _, c in picks:
                coeff = coeff * c
            if any(len(mon) == 0 for mon in mons):
                continue
            base = sum((k - j) * (len(mon) - 1) for j, mon in enumerate(mons, start=1))
            for positions in itertools.product(*(range(len(mon)) for mon in mons)):
                picked = [mons[j][positions[j]] for j in range(k)]
                value = kappa.entry(picked)
                if not value:
                    continue
                sign = sign_pow(base + sum(positions))
                hat = instance.unit()
                for j in range(k):
                    mon = mons[j]
                    hat = hat.wedge(instance.monomial(mon[:positions[j]] + mon[positions[j] + 1:]))
                out = out + hat.scale(sign * coeff * value)
        return out

    return shared_node(instance, ("kform", k, tuple(sorted(kappa.table.items())), convention),
                       lambda: VForm(instance, k, -k, fn, convention, order=1))


def identity_matrix(instance: GradedInstance, scale=1):
    ring = instance.ring
    one = ring.coerce(scale)
    zero = ring.zero()
    return [[one if i == j else zero for j in range(instance.rank)] for i in range(instance.rank)]


def bivector_form(instance: GradedInstance, pi: Element, convention=NEG) -> VForm:
    """A bivector as a vector-valued 0-form (degree 0 under shifted2)."""
    if not pi.is_zero() and pi.require_homogeneous() != 2:
        raise InputError("expected a wedge-degree-2 element")
    return element_form(instance, pi, convention, wedge_degree=2)
