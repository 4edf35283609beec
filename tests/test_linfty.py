import itertools
import random
from fractions import Fraction

import pytest

from rnforms.catalog import extend_bundle_map, l2_form, lk_form, matrix_square, wedge_form
from rnforms.forms import as_polyform, is_zero, rn_bracket
from rnforms.instances import GradedInstance, LieAlgebraData
from rnforms.linfty import (check_coboundary, check_full, check_weak,
                            coefficient_suite, deformed_bracket, deformed_l2_certificate,
                            nijenhuis_deformation_theorem_check,
                            pairwise_compatibility, pencil, square_of_sum,
                            sum_of_wedges, torsion_alternate, torsion_formulas_agree,
                            torsion_is_zero, witt_action_check)
from rnforms.report import Report
from rnforms.rings import InputError


def random_matrix(rng, n):
    return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)]


def test_coefficient_suite_small(aff):
    report = coefficient_suite(aff, 2, 2, 2)
    assert report.passed
    names = [c.name for c in report.checks]
    assert any("wedge commutator" in n for n in names)
    assert any("insertion split A" in n for n in names)
    with pytest.raises(InputError):
        coefficient_suite(aff, 1, 2, 2)


def test_suite_rejects_polynomial_instances(poly):
    with pytest.raises(InputError):
        coefficient_suite(poly)


def test_wedge_commutator_specific_coefficients(h3):
    # [N2,N3] = 2 N4 and [N2,l2] = l3 and [l2,l3] = 0
    n2, n3, n4 = (wedge_form(h3, k) for k in (2, 3, 4))
    assert is_zero(rn_bracket(n2, n3) - as_polyform(n4.scale(2))).is_zero
    assert is_zero(rn_bracket(n2, l2_form(h3)) - as_polyform(lk_form(h3, 3))).is_zero
    assert is_zero(rn_bracket(l2_form(h3), lk_form(h3, 3))).is_zero


def test_wedge_scaling_witness(h3):
    # [N1, N_j] = (j-1) N_j from the commutator family at i = 1
    for j in (2, 3):
        lhs = rn_bracket(wedge_form(h3, 1), wedge_form(h3, j))
        rhs = as_polyform(wedge_form(h3, j).scale(j - 1))
        assert is_zero(lhs - rhs).is_zero


def test_pencil_examples(aff):
    assert pencil(aff, [0, 1]).is_linfty
    assert pencil(aff, [1, 1, 1]).is_linfty
    rng = random.Random(7)
    for _ in range(3):
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4)]
        candidate = pencil(aff, coeffs)
        cert = candidate.certificate()
        assert cert.is_zero and cert.complete


def test_pencil_negative_control(broken):
    candidate = pencil(broken, [0, 1])
    cert = candidate.certificate()
    assert not cert.is_zero
    assert cert.counterexample is not None


def test_pairwise_compatibility(h3):
    report = Report("t", "h3")
    pairwise_compatibility(h3, 4, report)
    assert report.passed


def test_square_of_sum_coefficients(aff):
    # single b_1: coefficient at i=j=1 is (n-1)
    sq = square_of_sum(aff, [1], 3)
    comp = sq.component(1)
    assert comp is not None
    e1 = aff.generator(0)
    assert comp.evaluate((e1,)) == e1.scale(2)
    # b = (0,1), n = 2: only the i=j=2 term, 3*N3
    sq2 = square_of_sum(aff, [0, 1], 2)
    assert list(sq2.components) == [3]
    basis = aff.all_basis()
    n3 = wedge_form(aff, 3)
    for combo in itertools.combinations_with_replacement(basis, 3):
        assert (sq2.component(3).evaluate(combo)
                - n3.evaluate(combo).scale(3)).is_zero()
    with pytest.raises(InputError):
        square_of_sum(aff, [1], 1)


def test_coboundary_square_formula(aff):
    rng = random.Random(11)
    for n in (2, 3):
        for _ in range(2):
            b = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
            if not any(b):
                b[0] = Fraction(1)
            result = check_coboundary(
                sum_of_wedges(aff, b), square_of_sum(aff, b, n),
                as_polyform(lk_form(aff, n)))
            assert result.passed


def test_check_weak_wedge_sum_against_pencil(aff):
    result = check_weak(sum_of_wedges(aff, [1, 1]), pencil(aff, [0, 1, 1]))
    assert result.passed
    assert result.certificates["deformed_self"].is_zero
    assert result.certificates["deformed_compatible"].is_zero


def test_check_full_requires_square(aff):
    with pytest.raises(InputError):
        check_full(sum_of_wedges(aff, [1]), None, pencil(aff, [0, 1]))


def test_degree_zero_enforced(aff):
    with pytest.raises(InputError):
        check_weak(as_polyform(l2_form(aff)), pencil(aff, [0, 1]))


def test_torsion_and_deformed_bracket(aff, h3):
    identity = [[Fraction(1), 0], [0, Fraction(1)]]
    bracket = deformed_bracket(aff, identity)
    e1, e2 = aff.generator(0), aff.generator(1)
    assert bracket(e1, e2) == aff.sn_bracket(e1, e2)
    ok, witness = torsion_is_zero(aff, identity)
    assert ok and witness is None
    # every endomorphism of a 2-dim algebra is torsion free
    rng = random.Random(3)
    for _ in range(5):
        assert torsion_is_zero(aff, random_matrix(rng, 2))[0]
    # but not in dimension 3
    bad = [[Fraction(1), 0, 0], [0, Fraction(2), 0], [0, 0, Fraction(0)]]
    ok, witness = torsion_is_zero(h3, bad)
    assert not ok and "T(" in witness


def test_torsion_formulas_agree_50_random(aff, h3, so3_inst, ab2):
    rng = random.Random(5)
    for inst in (aff, h3, so3_inst, ab2):
        for _ in range(50):
            assert torsion_formulas_agree(inst, random_matrix(rng, inst.rank))


def test_deformed_l2(aff):
    N = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(3)]]
    assert deformed_l2_certificate(aff, N).is_zero


def test_nijenhuis_theorem_check(aff, h3):
    report = nijenhuis_deformation_theorem_check(aff, [[Fraction(1), 0], [0, Fraction(2)]],
                                                 [0, 1, 1])
    assert report.passed
    # reported precondition failure, not an exception
    bad = [[Fraction(1), 0, 0], [0, Fraction(2), 0], [0, 0, Fraction(0)]]
    report2 = nijenhuis_deformation_theorem_check(h3, bad, [0, 1])
    assert not report2.passed
    assert report2.checks[0].name == "torsion precondition"
    assert not report2.checks[0].passed


def _integer_operators(rng, rank, count=24):
    """``count`` seeded integer matrices lam*I + M, M with 0 to ``rank``
    nonzero entries in {-1, 1, 2}."""
    cells = list(itertools.product(range(rank), repeat=2))
    for _ in range(count):
        lam = rng.randint(-2, 2)
        N = [[Fraction(lam * (i == j)) for j in range(rank)] for i in range(rank)]
        for i, j in rng.sample(cells, rng.randint(0, rank)):
            N[i][j] += rng.choice((-1, 1, 2))
        yield N


def test_nijenhuis_deformation_theorem_on_random_integer_operators(ab2, h3, so3_inst):
    """The paper's first result on seeded random integer N: a torsion-free N
    passes the full check for the pencil structure; any other N fails its
    torsion precondition and nothing else.  Torsion-freeness is decided by
    the second torsion formula, not by the check's own."""
    rng = random.Random(2016)
    abelian = [ab2] + [GradedInstance(LieAlgebraData(n), name=f"abelian{n}") for n in (3, 4)]
    for inst in abelian + [h3, so3_inst]:
        torsion_free_seen = set()
        for N in _integer_operators(rng, inst.rank):
            coefficients = [rng.randint(-2, 2) for _ in range(rng.randint(2, 3))]
            report = nijenhuis_deformation_theorem_check(inst, N, coefficients)
            t = torsion_alternate(inst, N)
            torsion_free = all(t(inst.generator(i), inst.generator(j)).is_zero()
                               for i, j in itertools.combinations(range(inst.rank), 2))
            torsion_free_seen.add(torsion_free)
            failed = [c.name for c in report.checks if not c.passed]
            assert failed == ([] if torsion_free else ["torsion precondition"]), (inst.name, N)
        # every N is torsion-free on an abelian algebra; both kinds were drawn on the others
        assert torsion_free_seen == ({True} if inst in abelian else {True, False}), inst.name


def test_full_check_negative_control(h3):
    bad = [[Fraction(1), 0, 0], [0, Fraction(2), 0], [0, 0, Fraction(0)]]
    un = extend_bundle_map(h3, bad)
    un2 = extend_bundle_map(h3, matrix_square(h3, bad))
    result = check_full(un, un2, pencil(h3, [0, 1]))
    assert not result.passed
    assert not result.certificates["deformation_square"].is_zero
    assert result.certificates["deformation_square"].counterexample is not None


def test_witt_intertwining_small(aff):
    report = witt_action_check(aff, 2)
    assert report.passed
