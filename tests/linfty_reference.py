"""Reference formulas for the torsion and the deformed bracket form, each
computed another way than ``rnforms.linfty`` computes it:

* the torsion as ([X,Y]_{N,N} - [X,Y]_{N^2}) / 2, where
  ``linfty.torsion`` computes [NX,NY] - N [X,Y]_N;
* l2^N, the bracket form of the deformed structure, from the deformed
  instance's own Schouten bracket, where ``linfty.nijenhuis_forms`` reaches
  it as [uN, l2].
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from rnforms.catalog import extend_bundle_map, l2_form, matrix_square
from rnforms.dualforms import apply_matrix, check_matrix
from rnforms.forms import VForm, is_zero, rn_bracket, shared_node
from rnforms.linfty import deformed_bracket, deformed_instance, torsion


def torsion_alternate(instance, N):
    """The equivalent formula T(X,Y) = ([X,Y]_{N,N} - [X,Y]_{N^2}) / 2."""
    check_matrix(instance, N)
    bracket_n = deformed_bracket(instance, N)
    bracket_n2 = deformed_bracket(instance, matrix_square(instance, N))

    def twice_deformed(X, Y):
        NX = apply_matrix(instance, N, X)
        NY = apply_matrix(instance, N, Y)
        return (bracket_n(NX, Y) + bracket_n(X, NY)
                - apply_matrix(instance, N, bracket_n(X, Y)))

    def t(X, Y):
        return (twice_deformed(X, Y) - bracket_n2(X, Y)).scale(Fraction(1, 2))

    return t


def torsion_formulas_agree(instance, N) -> bool:
    """``linfty.torsion`` and ``torsion_alternate`` agree on generator pairs."""
    t1 = torsion(instance, N)
    t2 = torsion_alternate(instance, N)
    for i, j in itertools.combinations(range(instance.rank), 2):
        X, Y = instance.generator(i), instance.generator(j)
        if not (t1(X, Y) - t2(X, Y)).is_zero():
            return False
    return True


def l2_deformed(instance, N) -> VForm:
    """(P,Q) -> (-1)^p [P,Q] of the deformed structure, the same sign
    convention as the undeformed bracket form so that [uN, l2] matches it.
    Order 1: the Schouten extension of any anchored skew bracket is a
    biderivation, torsion or not.  One shared node per matrix."""
    check_matrix(instance, N)
    N = tuple(tuple(instance.ring.coerce(v) for v in row) for row in N)

    def build():
        deformed = deformed_instance(instance, N)

        def fn(args):
            P, Q = args
            p = P.require_homogeneous()
            value = deformed.sn_bracket(P, Q)
            return -value if p % 2 else value

        return VForm(instance, 2, -1, fn, order=1)

    return shared_node(instance, ("deformed l2", N), build)


def deformed_l2_certificate(instance, N):
    """[uN, l2] = l2^N, exhaustively."""
    lhs = rn_bracket(extend_bundle_map(instance, N), l2_form(instance))
    return is_zero(lhs - l2_deformed(instance, N))
