"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerance.

Each test prints a single PASS line on success (run with -s to see them);
failures surface as ordinary assertion errors with the counterexample.
"""

import random
import time
from fractions import Fraction

import pytest

from rnforms import abelian2, aff1, broken_jacobi3, heisenberg3, poly_tangent_r2, so3
from rnforms.catalog import extend_bundle_map, extend_kform, l2_form, lk_form, matrix_square
from rnforms.dualforms import DualForm, differential
from rnforms.elements import Element
from rnforms.forms import as_polyform, is_zero, rn_bracket
from rnforms.graded import GradingConvention
from rnforms.linfty import (coefficient_suite, deformed_l2_certificate, nijenhuis_forms,
                            pairwise_compatibility, pencil, square_of_sum, sum_of_wedges,
                            torsion_formulas_agree, torsion_is_zero, witt_action_check)
from rnforms.pqn import (main_theorem_harness, mu_with_background,
                         section3_lemma_suite, stienon_xu_harness)
from rnforms.report import Report
from rnforms.rings import InputError


def self_bracket(mu):
    return is_zero(rn_bracket(mu, mu))


def fully_nijenhuis(n_form, k_form, mu):
    """The full check's verdict: the deformation square and the commuting
    square both vanish."""
    forms = nijenhuis_forms(n_form, mu, k_form)
    return (is_zero(forms["deformation_square"]).is_zero
            and is_zero(forms["square_commutes"]).is_zero)


def announce(number, message):
    print(f"PASS criterion {number}: {message}")


@pytest.fixture(scope="module")
def instances():
    return {
        "aff1": aff1(),
        "heisenberg3": heisenberg3(),
        "so3": so3(),
        "abelian2": abelian2(),
    }


def equality_entry(report: Report):
    return next(c for c in report.checks if c.name == "verdict equality")


def side_flags(report: Report):
    side_a = next(c for c in report.checks if c.name.startswith("side A"))
    side_b = next(c for c in report.checks
                  if c.name in ("side B: quadruple verdict", "side B: triple verdict"))
    return side_a.passed, side_b.passed


def test_criterion_1_coefficient_identities(instances):
    start = time.monotonic()
    for name in ("aff1", "heisenberg3"):
        report = coefficient_suite(instances[name], i_max=4, m_max=4, n_max=4)
        failed = [c for c in report.checks if not c.passed]
        assert not failed, failed
        assert all(c.complete for c in report.checks if c.complete is not None)
        kinds = {c.name.split(" (")[0] for c in report.checks}
        assert {"wedge commutator", "mixed commutator", "bracket commutator",
                "insertion split A", "insertion split B"} <= kinds
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"coefficient suite took {elapsed:.1f}s"
    announce(1, f"coefficient identities exact on aff1 and heisenberg3"
                f" (bounds 4, {elapsed:.1f}s)")


def test_criterion_2_linfty_characterization(instances):
    rng = random.Random(2024)
    for trial in range(5):
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)]
        cert = self_bracket(pencil(instances["aff1"], coeffs))
        assert cert.is_zero and cert.complete, (coeffs, cert.counterexample)
    cert = self_bracket(pencil(broken_jacobi3(), [0, 1]))
    assert not cert.is_zero
    assert cert.counterexample is not None
    announce(2, "5 random pencils carry complete self-bracket certificates;"
                f" broken structure fails at {cert.counterexample[0]}")


def test_criterion_3_pencil_theorem(instances):
    for name in ("aff1", "heisenberg3"):
        report = Report("pencil", name)
        pairwise_compatibility(instances[name], 4, report)
        assert report.passed
        assert all(c.complete for c in report.checks)
    rank = instances["aff1"].rank
    all_ones = self_bracket(pencil(instances["aff1"], [1] * (rank + 1)))
    assert all_ones.is_zero and all_ones.complete
    assert self_bracket(pencil(instances["heisenberg3"], [1] * 4)).is_zero
    announce(3, "pairwise compatibility certificates complete for l2..l4;"
                " all-ones pencil passes")


def test_criterion_4_coboundary_square_formula(instances):
    inst = instances["aff1"]
    rng = random.Random(4)
    for n in (2, 3):
        for trial in range(5):
            b = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(3)]
            if not any(b):
                b[1] = Fraction(1)
            forms = nijenhuis_forms(sum_of_wedges(inst, b), as_polyform(lk_form(inst, n)),
                                    square_of_sum(inst, b, n))
            cert = is_zero(forms["deformation_square"])
            assert cert.is_zero, (n, b)
            assert cert.complete
    announce(4, "square formula exact for 5 random coefficient vectors, n in {2,3}")


def test_criterion_5_deformed_bracket_and_torsion(instances):
    rng = random.Random(5)
    for name, inst in instances.items():
        for trial in range(20):
            N = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                  for _ in range(inst.rank)] for _ in range(inst.rank)]
            cert = deformed_l2_certificate(inst, N)
            assert cert.is_zero and cert.complete, (name, N, cert.counterexample)
            assert torsion_formulas_agree(inst, N), (name, N)
    announce(5, "deformed bracket matches the derivation commutator and both"
                " torsion formulas agree for 20 random maps on each algebra")


def test_criterion_6_nijenhuis_one_form_theorem(instances):
    inst = instances["aff1"]
    N = [[Fraction(1), 0], [0, Fraction(2)]]
    ok, witness = torsion_is_zero(inst, N)
    assert ok, witness
    un = extend_bundle_map(inst, N)
    un2 = extend_bundle_map(inst, matrix_square(inst, N))
    for coeffs in ([0, 1], [0, 1, 1], [0, Fraction(1, 2), -2]):
        assert fully_nijenhuis(un, un2, pencil(inst, coeffs)), coeffs
    # torsion-positive control: impossible in rank 2 (all 2-dim maps are
    # torsion free), so the failing control lives on heisenberg3
    h3 = instances["heisenberg3"]
    bad = [[Fraction(1), 0, 0], [0, Fraction(2), 0], [0, 0, Fraction(0)]]
    ok, witness = torsion_is_zero(h3, bad)
    assert not ok
    assert not fully_nijenhuis(extend_bundle_map(h3, bad),
                               extend_bundle_map(h3, matrix_square(h3, bad)),
                               pencil(h3, [0, 1]))
    announce(6, "derivation extension fully Nijenhuis for torsion-free diagonal"
                " maps; torsion-positive control fails")


def test_criterion_7_section3_lemma_suite():
    inst = heisenberg3()
    start = time.monotonic()
    pi = inst.monomial((0, 2))
    N = [[Fraction(1), 0, 0], [0, Fraction(2), 0], [0, 0, Fraction(1)]]
    omega = DualForm(inst, 2, {(0, 2): Fraction(1)})
    H = DualForm(inst, 3, {(0, 1, 2): Fraction(1)})
    report = section3_lemma_suite(inst, pi, N, omega, H)
    failed = [c.name for c in report.checks if not c.passed]
    assert not failed, failed
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"section-3 suite took {elapsed:.1f}s"
    announce(7, f"section-3 extension lemmas exhaustive on heisenberg3"
                f" ({len(report.checks)} checks, {elapsed:.1f}s)")


def test_criterion_8_background_structure(monkeypatch):
    inst = heisenberg3()
    H = DualForm(inst, 3, {(0, 1, 2): Fraction(1)})
    cert = self_bracket(mu_with_background(inst, H))
    assert cert.is_zero and cert.complete
    # the ingredients: [l2,l2] = 0, [l2,uH] = u(dH) = 0 and [uH,uH] = 0
    sh2 = GradingConvention.SHIFTED2
    l2, uH = l2_form(inst, sh2), extend_kform(H, sh2)
    assert all(is_zero(rn_bracket(a, b)).is_zero for a, b in ((l2, l2), (l2, uH), (uH, uH)))

    s = so3()
    import rnforms.pqn as pqn_module
    top = DualForm(s, 3, {(0, 1, 2): Fraction(1)})

    def deliberately_wrong(kappa):
        if kappa.k == 3:
            return DualForm(kappa.instance, 3, {(0, 1, 2): Fraction(2)})
        return differential(kappa)

    monkeypatch.setattr(pqn_module, "differential", deliberately_wrong)
    with pytest.raises(InputError, match="not closed"):
        mu_with_background(s, top)
    monkeypatch.undo()
    announce(8, "background family certified complete on heisenberg3;"
                " non-closed background rejected with the differential exhibited")


def test_criterion_9_main_theorem_verdict_equality():
    results = []
    a = aff1()
    results.append(("aff1 scalar", True, main_theorem_harness(
        a, a.monomial((0, 1)), [[Fraction(2), 0], [0, Fraction(2)]],
        DualForm.zero(a, 2), DualForm.zero(a, 3))))
    h = heisenberg3()
    top = DualForm(h, 3, {(0, 1, 2): Fraction(1)})
    results.append(("heisenberg3 background", True, main_theorem_harness(
        h, Element.zero(), [[Fraction(-2), 0, 0], [0, Fraction(1), 0],
                            [0, 0, Fraction(-2)]],
        DualForm.zero(h, 2), top)))
    results.append(("broken torsion", False, main_theorem_harness(
        h, Element.zero(), [[Fraction(1), 0, 0], [0, Fraction(2), 0],
                            [0, 0, Fraction(-2, 3)]],
        DualForm.zero(h, 2), top)))
    results.append(("broken concomitant", False, main_theorem_harness(
        h, h.monomial((0, 2)), [[Fraction(1), 0, 0], [0, Fraction(1), 0],
                                [0, 0, Fraction(1)]],
        DualForm.zero(h, 2), top)))
    for name, expected_pass, report in results:
        side_a, side_b = side_flags(report)
        assert equality_entry(report).passed, name
        assert side_a == side_b == expected_pass, (name, side_a, side_b)
        decomposition = [c for c in report.checks if c.name.startswith("decomposition")]
        assert decomposition and all(c.passed for c in decomposition), name
    announce(9, "side A and side B verdicts equal on two passing and two"
                " failing quadruples, with the component decomposition certified")


def test_criterion_10_manifold_triple_verdict_equality():
    p = poly_tangent_r2()
    ring = p.ring
    x1, x2 = ring.var(0), ring.var(1)
    conformal = ring.coerce(1) + x1 * x1
    passing = stienon_xu_harness(
        p, p.monomial((0, 1)),
        [[conformal, ring.zero()], [ring.zero(), conformal]],
        DualForm(p, 2, {(0, 1): x2}),
        DualForm(p, 2, {(0, 1): x1 * x2}))
    side_a, side_b = side_flags(passing)
    assert equality_entry(passing).passed
    assert side_a and side_b
    assert any(c.complete is False for c in passing.checks if c.complete is not None)

    s = so3()
    failing = stienon_xu_harness(
        s, Element.zero(),
        [[Fraction(1), 0, 0], [0, Fraction(1), 0], [0, 0, Fraction(2)]],
        DualForm.zero(s, 2), DualForm.zero(s, 2))
    side_a, side_b = side_flags(failing)
    assert equality_entry(failing).passed
    assert not side_a and not side_b
    announce(10, "manifold-triple verdicts equal: polynomial plane passing"
                 " (degree-2 data), so3 torsion control failing")


def test_criterion_11_polynomial_vector_field_intertwining(instances):
    report = witt_action_check(instances["heisenberg3"], i_max=4)
    failed = [c for c in report.checks if not c.passed]
    assert not failed, failed
    names = [c.name for c in report.checks]
    assert any("vector field relation (1, 2)".replace(" ", "") in n.replace(" ", "")
               for n in names)
    assert any("module action" in n for n in names)
    announce(11, "coefficient intertwining with the polynomial vector fields"
                 " verified for indices <= 4")
