import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnforms.catalog import extend_bundle_map, l2_form, lk_form, matrix_square, wedge_form
from rnforms.forms import as_polyform, is_zero, rn_bracket
from rnforms.dualforms import DualForm
from rnforms.instances import GradedInstance, LieAlgebraData
from rnforms.linfty import (coefficient_suite, deformed_bracket,
                            nijenhuis_deformation_theorem_check, nijenhuis_forms,
                            pairwise_compatibility, pencil, report_nijenhuis,
                            square_of_sum, sum_of_wedges, torsion_is_zero, witt_action_check)
from rnforms.pqn import mu_with_background, vector_valued_sum
from rnforms.report import Report
from rnforms.rings import InputError

from generated_instances import heisenberg, semidirect
from linfty_reference import (deformed_l2_certificate, l2_deformed, torsion_alternate,
                              torsion_formulas_agree)


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


def self_bracket(mu):
    return is_zero(rn_bracket(mu, mu))


def test_pencil_examples(aff):
    assert self_bracket(pencil(aff, [0, 1])).is_zero
    assert self_bracket(pencil(aff, [1, 1, 1])).is_zero
    rng = random.Random(7)
    for _ in range(3):
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4)]
        cert = self_bracket(pencil(aff, coeffs))
        assert cert.is_zero and cert.complete


def test_pencil_negative_control(broken):
    cert = self_bracket(pencil(broken, [0, 1]))
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
            forms = nijenhuis_forms(sum_of_wedges(aff, b), as_polyform(lk_form(aff, n)),
                                    square_of_sum(aff, b, n))
            assert is_zero(forms["deformation_square"]).is_zero


def test_check_weak_wedge_sum_against_pencil(aff):
    forms = nijenhuis_forms(sum_of_wedges(aff, [1, 1]), pencil(aff, [0, 1, 1]))
    assert is_zero(forms["weak"]).is_zero
    assert is_zero(forms["deformed_self"]).is_zero
    assert is_zero(forms["deformed_compatible"]).is_zero
    assert "deformation_square" not in forms and "square_commutes" not in forms


def test_check_full_requires_square(aff):
    forms = nijenhuis_forms(sum_of_wedges(aff, [1]), pencil(aff, [0, 1]))
    for kind in ("coboundary", "full"):
        with pytest.raises(InputError, match=f"the {kind} check needs a candidate square"):
            report_nijenhuis(Report("t", "aff1"), kind, forms)


def test_degree_zero_enforced(aff, h3):
    with pytest.raises(InputError, match="the deforming form must have degree 0"):
        nijenhuis_forms(as_polyform(l2_form(aff)), pencil(aff, [0, 1]))
    with pytest.raises(InputError, match="the square must have degree 0"):
        nijenhuis_forms(sum_of_wedges(aff, [1]), pencil(aff, [0, 1]), l2_form(aff))
    # The PQN forms fit the shifted-by-2 grading only: there pi + uN + u(omega)
    # has degree 0 and l2 + uH (H != 0) degree 1.
    mu = mu_with_background(h3, DualForm(h3, 3, {(0, 1, 2): Fraction(1)}))
    n_form = vector_valued_sum(h3, h3.monomial((0, 2)), [[2, 0, 0], [0, 1, 0], [0, 0, 2]],
                               DualForm(h3, 2, {(0, 1): Fraction(1)}))
    assert set(n_form.components) == {0, 1, 2} and set(mu.components) == {2, 3}
    assert "weak" in nijenhuis_forms(n_form, mu)
    # N1 + N2 has degree 0 in the negated grading alone, where l2 + uH has none
    with pytest.raises(InputError, match="the deforming form must have degree 0, got 0, 2"):
        nijenhuis_forms(sum_of_wedges(h3, [1, 1]), mu)


def test_bracket_family_degree_one_enforced(aff):
    """The degree guard covers a raw mu as well as a pencil."""
    with pytest.raises(InputError, match="a bracket family must have degree 1, got 0"):
        nijenhuis_forms(sum_of_wedges(aff, [1]), wedge_form(aff, 2))
    with pytest.raises(InputError, match="a bracket family must have degree 1, got 0"):
        nijenhuis_forms(sum_of_wedges(aff, [1]), as_polyform(wedge_form(aff, 2)),
                        square_of_sum(aff, [1], 2))


def test_report_nijenhuis_entries(aff):
    """Each kind writes its required and deformed_* forms as certificates,
    the others as informational entries, in one fixed order."""
    b = [1, 1]
    forms = nijenhuis_forms(sum_of_wedges(aff, b), lk_form(aff, 2), square_of_sum(aff, b, 2))
    expected = {
        "weak": ["weak: deformation_square (informational)",
                 "weak: square_commutes (informational)", "weak: weak",
                 "weak: deformed_self", "weak: deformed_compatible"],
        "coboundary": ["coboundary: deformation_square",
                       "coboundary: square_commutes (informational)", "coboundary: weak",
                       "coboundary: deformed_self", "coboundary: deformed_compatible"],
        "full": ["full: deformation_square", "full: square_commutes", "full: weak",
                 "full: deformed_self", "full: deformed_compatible"],
    }
    for kind, names in expected.items():
        report = Report("t", "aff1")
        report_nijenhuis(report, kind, forms)
        assert [c.name for c in report.checks] == names
        assert all(c.complete is None for c in report.checks if "informational" in c.name)
        assert all(c.complete for c in report.checks if "informational" not in c.name)


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


def test_l2_deformed_is_one_shared_node(aff):
    """l2^N is hash-consed like every atomic node: one node, and one
    deformed instance, per matrix."""
    node = l2_deformed(aff, [[1, 2], [0, 3]])
    assert l2_deformed(aff, [[Fraction(1), Fraction(2)], [0, 3]]) is node
    assert l2_deformed(aff, [[1, 2], [0, 1]]) is not node


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


def check_theorem(inst, N, coefficients) -> bool:
    """Run the full check of ``N`` and assert its verdict: all entries pass
    when N is torsion-free, only the torsion precondition fails otherwise.
    Torsion-freeness is decided by the second torsion formula, not by the
    check's own.  Returns whether N is torsion-free."""
    report = nijenhuis_deformation_theorem_check(inst, N, coefficients)
    t = torsion_alternate(inst, N)
    torsion_free = all(t(inst.generator(i), inst.generator(j)).is_zero()
                       for i, j in itertools.combinations(range(inst.rank), 2))
    failed = [c.name for c in report.checks if not c.passed]
    assert failed == ([] if torsion_free else ["torsion precondition"]), (inst.name, N)
    return torsion_free


def test_nijenhuis_deformation_theorem_on_random_integer_operators(ab2, h3, so3_inst):
    """The paper's first result on seeded random integer N: a torsion-free N
    passes the full check for the pencil structure; any other N fails its
    torsion precondition and nothing else."""
    rng = random.Random(2016)
    abelian = [ab2] + [GradedInstance(LieAlgebraData(n), name=f"abelian{n}") for n in (3, 4)]
    for inst in abelian + [h3, so3_inst, heisenberg(2)]:
        torsion_free_seen = {check_theorem(inst, N, [rng.randint(-2, 2)
                                                     for _ in range(rng.randint(2, 3))])
                             for N in _integer_operators(rng, inst.rank)}
        # every N is torsion-free on an abelian algebra; both kinds were drawn on the others
        assert torsion_free_seen == ({True} if inst in abelian else {True, False}), inst.name


@settings(max_examples=12, deadline=None)
@given(semidirect(), st.integers(0, 2**32))
def test_nijenhuis_deformation_theorem_on_generated_instances(inst, seed):
    rng = random.Random(seed)
    for N in _integer_operators(rng, inst.rank, count=6):
        check_theorem(inst, N, [rng.randint(-2, 2) for _ in range(rng.randint(2, 3))])


def test_nijenhuis_deformation_theorem_on_a_polynomial_algebroid(poly):
    """On poly-tangent-r2 every constant N is torsion-free (the anchor is
    the identity and the brackets vanish), so every seeded N passes the full
    check over the family the instance declares."""
    rng = random.Random(25)
    torsion_free_seen = {check_theorem(poly, N, [rng.randint(-2, 2)
                                                 for _ in range(rng.randint(2, 3))])
                         for N in _integer_operators(rng, poly.rank, count=12)}
    assert torsion_free_seen == {True}


def test_nijenhuis_deformation_theorem_with_non_constant_operators(poly):
    """On poly-tangent-r2, the tangent bundle of R^2, diag(1 + x1^2, x2) is
    torsion-free (each entry depends on its own coordinate only) and passes
    the full check; diag(x2, x1) and [[x1, x2], [0, x1]] have torsion and
    fail the torsion precondition only.  Torsion is decided by the second
    torsion formula, as in :func:`check_theorem`."""
    x1, x2 = poly.ring.var(0), poly.ring.var(1)
    one, zero = poly.ring.one(), poly.ring.zero()
    operators = {"diag(1 + x1^2, x2)": ([[one + x1 * x1, zero], [zero, x2]], True),
                 "diag(x2, x1)": ([[x2, zero], [zero, x1]], False),
                 "[[x1, x2], [0, x1]]": ([[x1, x2], [zero, x1]], False)}
    for label, (N, torsion_free) in operators.items():
        for coefficients in ([0, 1], [2, -1, 1]):
            assert check_theorem(poly, N, coefficients) == torsion_free, (label, coefficients)


def test_full_check_negative_control(h3):
    bad = [[Fraction(1), 0, 0], [0, Fraction(2), 0], [0, 0, Fraction(0)]]
    un = extend_bundle_map(h3, bad)
    un2 = extend_bundle_map(h3, matrix_square(h3, bad))
    forms = nijenhuis_forms(un, pencil(h3, [0, 1]), un2)
    certificate = is_zero(forms["deformation_square"])
    assert not certificate.is_zero
    assert certificate.counterexample is not None


def test_witt_intertwining_small(aff):
    report = witt_action_check(aff, 2)
    assert report.passed
