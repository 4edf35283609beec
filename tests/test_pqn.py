import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnforms import catalog, forms, pqn
from rnforms.dualforms import DualForm, differential, pi_sharp
from rnforms.elements import Element
from rnforms.forms import is_zero, rn_bracket
from rnforms.instances import GradedInstance, LieAlgebraData, PolyAlgebroidData
from rnforms.pqn import (check_pqn, concomitant, koszul_bracket, main_theorem_harness,
                         mu_with_background, quadruple_conditions, stienon_xu_harness)
from rnforms.report import Report
from rnforms.rings import InputError, PolyRing
from rnforms.scenario import load_shipped

from dualforms_reference import element_on_duals
from generated_instances import poly_rank3, semidirect, two_step_nilpotent
from pqn_reference import (reference_conditions_bc, reference_dual_pairing, reference_section3,
                           reference_solve_scalar_ratio)


def dual(inst, i):
    return DualForm(inst, 1, {(i,): inst.ring.one()})


def test_koszul_bracket_zero_bivector(aff):
    out = koszul_bracket(aff, Element.zero(), dual(aff, 0), dual(aff, 1))
    assert out.is_zero()


def test_koszul_bracket_aff1_by_cartan_expansion(aff):
    # {a,b} = L_{pi#a} b - L_{pi#b} a - d(pi(a,b)) assembled term by term
    from rnforms.dualforms import d_function, lie_derivative
    inst = aff
    pi = inst.monomial((0, 1))
    for i, j in itertools.product(range(2), repeat=2):
        a, b = dual(inst, i), dual(inst, j)
        expected = (lie_derivative(pi_sharp(pi, a), b)
                    - lie_derivative(pi_sharp(pi, b), a)
                    - d_function(inst, element_on_duals(pi, (a, b))))
        assert koszul_bracket(inst, pi, a, b) == expected
        # antisymmetry
        assert (koszul_bracket(inst, pi, a, b)
                + koszul_bracket(inst, pi, b, a)).is_zero()


def test_koszul_bracket_abelian_vanishes(ab2):
    pi = ab2.monomial((0, 1))
    for i, j in itertools.product(range(2), repeat=2):
        assert koszul_bracket(ab2, pi, dual(ab2, i), dual(ab2, j)).is_zero()


def test_dual_pairing_identity(aff):
    pi = aff.monomial((0, 1))
    report = reference_dual_pairing(aff, pi)
    assert report.passed


def test_dual_pairing_identity_poly(poly):
    pi = poly.monomial((0, 1))
    report = reference_dual_pairing(poly, pi)
    assert report.passed


def test_concomitant_identity_and_scaling(h3):
    pi = h3.monomial((0, 2))
    identity = [[Fraction(1) if i == j else Fraction(0) for j in range(3)]
                for i in range(3)]
    scaled = [[Fraction(5) if i == j else Fraction(0) for j in range(3)]
              for i in range(3)]
    for N in (identity, scaled):
        for i, j in itertools.combinations(range(3), 2):
            assert concomitant(h3, pi, N, dual(h3, i), dual(h3, j)).is_zero()


def test_concomitant_cross_checked_against_bracket_combination(h3):
    from rnforms.catalog import bivector_form, extend_bundle_map, l2_form
    from rnforms.forms import as_polyform, rn_bracket
    inst = h3
    pi = inst.monomial((0, 1))
    N = [[Fraction(3), Fraction(1), 0], [0, Fraction(3), 0], [0, Fraction(1), Fraction(2)]]
    un = extend_bundle_map(inst, N)
    l2 = l2_form(inst)
    pif = bivector_form(inst, pi)
    combo = rn_bracket(pif, rn_bracket(un, l2)) + rn_bracket(
        as_polyform(un), rn_bracket(pif, as_polyform(l2)))
    comp = combo.component(1)
    for x in range(3):
        X = inst.generator(x)
        val = comp.evaluate((X,))
        for i, j in itertools.combinations(range(3), 2):
            a, b = dual(inst, i), dual(inst, j)
            lhs = element_on_duals(val, (a, b)) if not val.is_zero() else Fraction(0)
            assert lhs == concomitant(inst, pi, N, a, b).apply((X,))


def test_stienon_xu_computes_only_what_it_prints(monkeypatch):
    """Side B of the manifold-triple harness is conditions (a)-(c) and the
    exactness condition: it solves no scalar, builds no background term and
    does not run the full quadruple check."""
    def refuse(*args, **kwargs):
        raise AssertionError("stienon-xu computed a condition it does not print")

    for name in ("check_pqn", "solve_scalar_ratio", "background_script"):
        monkeypatch.setattr(pqn, name, refuse)
    for name in ("aff1", "abelian2", "poly-tangent-r2"):
        s = load_shipped(name)
        assert stienon_xu_harness(s.instance, s.pi, s.N, s.omega, s.alpha).passed, name


def _ratio_cases(inst):
    """(case, lhs, target, the lambda that fits or None) on 1-forms."""
    def form(*coeffs):
        return DualForm(inst, 1, {(i,): c for i, c in enumerate(coeffs)})

    target, zero = form(1, 2), DualForm.zero(inst, 1)
    cases = [("proportional", target.scale(Fraction(-3, 2)), target, Fraction(-3, 2)),
             ("proportional, lambda = 0", zero, target, 0),
             ("zero target, zero lhs", zero, zero, 0),
             ("zero target, nonzero lhs", form(1), zero, None),
             ("lhs outside the target's support", form(2, 1), form(1), None),
             ("two ratios", form(1, 3), target, None)]
    if inst.data.base_dim:
        cases.append(("lhs = x1 target", target.scale(inst.ring.var(0)), target, None))
    return cases


@pytest.mark.parametrize("name", ["aff1", "so3", "poly-tangent-r2"])
def test_solve_scalar_ratio_matches_the_reference(name):
    inst = load_shipped(name).instance
    for case, lhs, target, lam in _ratio_cases(inst):
        solved = pqn.solve_scalar_ratio(lhs, target)
        assert solved == reference_solve_scalar_ratio(lhs, target), case
        assert solved[0] == lam, case


def test_check_pqn_aff1_scalar(aff):
    pi = aff.monomial((0, 1))
    N = [[Fraction(3), 0], [0, Fraction(3)]]
    report = Report("check pqn", aff.name)
    passed = check_pqn(report, aff, pi, N, DualForm.zero(aff, 2), DualForm.zero(aff, 3))
    assert passed is True
    assert passed == all(c.passed for c in report.checks)
    assert len(report.checks) == 8
    lam = report.checks[-1]
    assert (lam.name, lam.passed, lam.detail) == ("lambda", True,
                                                  "forced 0 (target form vanishes)")
    # the verdict is of the entries check_pqn adds, not of the whole report
    report.add("an earlier failure", "fails", False)
    assert check_pqn(report, aff, pi, N, DualForm.zero(aff, 2), DualForm.zero(aff, 3))


def test_check_pqn_noncompatible_reported(aff):
    pi = aff.monomial((0, 1))
    N = [[Fraction(1), 0], [0, Fraction(2)]]
    report = Report("check pqn", aff.name)
    report.add("an earlier entry", "passes", True)
    passed = check_pqn(report, aff, pi, N, DualForm.zero(aff, 2), DualForm.zero(aff, 3),
                       tag="side B: ")
    entries = {c.name: c.passed for c in report.checks}
    assert not entries["side B: precondition: N o pi# = pi# o N*"]
    assert passed is False
    assert passed == all(c.passed for c in report.checks)


def test_check_pqn_degenerate_pi_exact(h3):
    # degenerate pi with N = 0: condition (b) reduces to 2H(pi#a, pi#b, .) = 0
    pi = h3.monomial((0, 2))
    zero = [[Fraction(0)] * 3 for _ in range(3)]
    H = DualForm(h3, 3, {(0, 1, 2): Fraction(1)})
    conditions = quadruple_conditions(h3, pi, zero, DualForm.zero(h3, 2), H)
    assert not conditions["b"][0]
    assert conditions["a"][0]


def test_quadruple_shape_checks(aff):
    """Both entry points refuse a malformed quadruple with the same
    messages, before any entry is added."""
    pi, N = aff.monomial((0, 1)), [[1, 0], [0, 1]]
    omega, H = DualForm.zero(aff, 2), DualForm.zero(aff, 3)
    cases = [((aff.generator(0), N, omega, H), "pi must be a bivector"),
             ((pi, [[1, 0]], omega, H), "bundle map must be a 2x2 matrix"),
             ((pi, N, H, omega), "omega must be a 2-form and H a 3-form")]
    for args, message in cases:
        with pytest.raises(InputError, match=message):
            quadruple_conditions(aff, *args)
        report = Report("check pqn", aff.name)
        with pytest.raises(InputError, match=message):
            check_pqn(report, aff, *args)
        assert report.checks == []


def test_mu_with_background(h3, so3_inst, monkeypatch):
    H = DualForm(h3, 3, {(0, 1, 2): Fraction(1)})
    mu = mu_with_background(h3, H)
    cert = is_zero(rn_bracket(mu, mu))
    assert cert.is_zero and cert.complete
    # the ingredients: [l2,l2] = 0, [l2,uH] = u(dH) = 0 and [uH,uH] = 0
    l2, uH = catalog.l2_form(h3), catalog.extend_kform(H)
    for left, right in ((l2, l2), (l2, uH), (uH, uH)):
        assert is_zero(rn_bracket(left, right)).is_zero
    assert list(mu_with_background(h3, DualForm.zero(h3, 3)).components) == [2]

    # deliberately wrong differential table: the closedness gate must fire
    import rnforms.pqn as pqn_module
    bad_table = DualForm(so3_inst, 3, {(0, 1, 2): Fraction(1)})

    def wrong_differential(kappa):
        if kappa.k == 3:
            return DualForm(kappa.instance, 3, {(0, 1, 2): Fraction(1)})
        return differential(kappa)

    monkeypatch.setattr(pqn_module, "differential", wrong_differential)
    with pytest.raises(InputError, match="not closed"):
        mu_with_background(so3_inst, bad_table)


def test_main_theorem_precondition_failure_reported(aff):
    pi = aff.monomial((0, 1))
    N = [[Fraction(1), 0], [0, Fraction(2)]]
    report = main_theorem_harness(aff, pi, N, DualForm.zero(aff, 2),
                                  DualForm.zero(aff, 3))
    assert not report.passed
    assert any("precondition" in c.name and not c.passed for c in report.checks)
    assert all("side" not in c.name for c in report.checks)


def test_main_theorem_computes_no_ingredient_certificate(monkeypatch):
    """The harness certifies no ingredient of l2 + uH: on heisenberg3 it
    certifies the five decomposition components and side A's deformation
    square, and nothing else."""
    certify = pqn.is_zero
    forms = []

    def counting(form):
        forms.append(form)
        return certify(form)

    monkeypatch.setattr(pqn, "is_zero", counting)
    s = load_shipped("heisenberg3")
    report = main_theorem_harness(s.instance, s.pi, s.N, s.omega, s.H)
    assert report.passed
    assert len(forms) == 6


def test_verdict_equality_on_remaining_shipped_scenarios(so3_inst, ab2, poly):
    # the negative so3 quadruple and the trivial abelian/polynomial ones all
    # keep the two sides equal
    H = DualForm(so3_inst, 3, {(0, 1, 2): Fraction(1)})
    report = main_theorem_harness(
        so3_inst, Element.zero(),
        [[Fraction(1), 0, 0], [0, Fraction(1), 0], [0, 0, Fraction(2)]],
        DualForm.zero(so3_inst, 2), H)
    eq = next(c for c in report.checks if c.name == "verdict equality")
    assert eq.passed and not report.passed  # equal verdicts, both failing

    ab = load_shipped("abelian2").instance
    report2 = main_theorem_harness(
        ab, ab.monomial((0, 1)),
        [[Fraction(1), 0], [0, Fraction(1)]],
        DualForm.zero(ab, 2), DualForm.zero(ab, 3))
    eq2 = next(c for c in report2.checks if c.name == "verdict equality")
    assert eq2.passed and report2.passed


def _random_quadruple(rng, inst):
    """(pi, N, omega, H, alpha) with entries in {0, 1, -1, 2}, mostly 0, and
    N = c Id or a diagonal matrix."""
    def table(k):
        return {mon: rng.choice((0, 0, 0, 1, -1, 2))
                for mon in itertools.combinations(range(inst.rank), k)}

    n = inst.rank
    diagonal = ([rng.choice((1, 2, -1))] * n if rng.random() < 0.5
                else [rng.choice((1, 2)) for _ in range(n)])
    N = [[Fraction(diagonal[i] if i == j else 0) for j in range(n)] for i in range(n)]
    return (inst.element(table(2)), N, DualForm(inst, 2, table(2)), DualForm(inst, 3, table(3)),
            DualForm(inst, 2, table(2)))


def test_both_sides_agree_on_random_quadruples():
    """Side A (the co-boundary check) and side B (the tensor conditions) give
    the same verdict on seeded random quadruples, and both verdicts occur."""
    import random
    rng = random.Random(2016)
    verdicts = set()
    for name in ("aff1", "heisenberg3", "so3", "abelian2"):
        inst = load_shipped(name).instance
        for _ in range(10):
            pi, N, omega, H, alpha = _random_quadruple(rng, inst)
            for report in (main_theorem_harness(inst, pi, N, omega, H),
                           stienon_xu_harness(inst, pi, N, omega, alpha)):
                equality = [c for c in report.checks if c.name == "verdict equality"]
                if equality:
                    assert equality[0].passed, (inst.name, report.to_text())
                    verdicts.add(equality[0].detail)
    assert verdicts == {"side A pass, side B pass", "side A fail, side B fail"}


def test_both_sides_agree_on_generated_algebras():
    """The same verdict equality on generated Lie algebras and polynomial
    algebroids, with diagonal N."""
    verdicts = set()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(semidirect(max_n=3) | two_step_nilpotent(max_dim=4) | poly_rank3(),
           st.randoms(use_true_random=False))
    def agree(inst, rng):
        pi, N, omega, H, alpha = _random_quadruple(rng, inst)
        for report in (main_theorem_harness(inst, pi, N, omega, H),
                       stienon_xu_harness(inst, pi, N, omega, alpha)):
            for entry in report.checks:
                if entry.name == "verdict equality":
                    assert entry.passed, (inst.name, report.to_text())
                    verdicts.add(entry.detail)

    agree()
    assert verdicts == {"side A pass, side B pass", "side A fail, side B fail"}


def test_stienon_xu_rejects_wrong_alpha_degree(aff):
    pi = aff.monomial((0, 1))
    N = [[Fraction(1), 0], [0, Fraction(1)]]
    with pytest.raises(InputError):
        stienon_xu_harness(aff, pi, N, DualForm.zero(aff, 2),
                           DualForm.zero(aff, 3))


# -- the section-3 and pairing references, and pqn's conditions (b) and (c) ---------------


def heisenberg3_quadruple():
    """The one input that reaches all 31 section-3 checks."""
    inst = load_shipped("heisenberg3").instance
    N = [[Fraction(1), 0, 0], [0, Fraction(2), 0], [0, 0, Fraction(1)]]
    return (inst, inst.monomial((0, 2)), N, DualForm(inst, 2, {(0, 2): Fraction(1)}),
            DualForm(inst, 3, {(0, 1, 2): Fraction(1)}))


def poly_rank3_quadruple():
    """A rank-3 polynomial algebroid over the line: rho(a1) = d/dx1, the
    other anchors 0, [a1, a2] = x1 a3.  H = x1 a1*^a2*^a3* is not zero, so
    the iterated and mixed checks run here on polynomial pieces of wedge
    degree 3, numbered as they are met.  The instance declares coordinate
    degree 0, so its family is its basis."""
    ring = PolyRing(("x1",))
    one, zero, x1 = ring.one(), ring.zero(), ring.var(0)
    data = PolyAlgebroidData(1, 3, coordinates=("x1",), anchor=[[one], [zero], [zero]],
                             brackets={(0, 1): {2: x1}})
    inst = GradedInstance(data, name="poly-rank3", poly_degree_bound=0)
    N = [[1, 0, 0], [0, 2, 0], [0, 0, 1]]
    return (inst, inst.monomial((0, 2)).scale(x1), N, DualForm(inst, 2, {(0, 2): one}),
            DualForm(inst, 3, {(0, 1, 2): x1}))


def non_closed_omega_quadruple():
    """On [e1,e2] = e2, [e1,e3] = e3 the 2-form omega = e2*^e3* is not
    closed, d omega = -2 e1*^e2*^e3*, so "differential through the bracket
    (omega)" tells [l2, u(omega)] = u(d omega) from [u(omega), l2] =
    -u(d omega)."""
    inst = GradedInstance(LieAlgebraData(3, brackets={(0, 1): {1: 1}, (0, 2): {2: 1}}),
                          name="non-closed-omega")
    identity = [[int(i == j) for j in range(3)] for i in range(3)]
    return (inst, Element.zero(), identity, DualForm(inst, 2, {(1, 2): 1}),
            DualForm.zero(inst, 3))


def shipped_quadruple(name):
    s = load_shipped(name)
    return s.instance, s.pi, s.N, s.omega, s.H


SHIPPED = ("abelian2", "aff1", "heisenberg3", "so3", "poly-tangent-r2")
INPUTS = {"heisenberg3-quadruple": heisenberg3_quadruple,
          "poly-rank3-quadruple": poly_rank3_quadruple,
          "non-closed-omega": non_closed_omega_quadruple,
          **{name: (lambda name=name: shipped_quadruple(name)) for name in SHIPPED}}


def _bumped(N):
    """N with its last diagonal entry raised by 1."""
    out = [list(row) for row in N]
    out[-1][-1] = out[-1][-1] + 1
    return out


_ORIGINAL = {**{name: getattr(pqn, name) for name in
                  ("matrix_square", "concomitant", "pi_sharp", "n_star", "apply_matrix")},
             "insert": forms.insert}

# corruption -> (patches, the checks it must break on some input)
CORRUPTIONS = {
    "wrong matrix_square": (
        [(pqn, "matrix_square",
          lambda inst, N: _bumped(_ORIGINAL["matrix_square"](inst, N)))],
        {"iterated bundle map, section level"}),
    "concomitant off by a": (
        [(pqn, "concomitant",
          lambda inst, pi, N, a, b: _ORIGINAL["concomitant"](inst, pi, N, a, b) + a)],
        {"concomitant through the bracket", "condition (b)"}),
    "perturbed pi_sharp": (
        [(pqn, "pi_sharp",
          lambda pi, alpha: _ORIGINAL["pi_sharp"](pi, alpha) + alpha.instance.generator(0))],
        {"double bivector against the background",
         "bivector slot of the background extension", "condition (b)", "condition (c)",
         "pairing identity"}),
    "perturbed n_star": (
        [(pqn, "n_star", lambda inst, N, alpha: _ORIGINAL["n_star"](inst, N, alpha) + alpha)],
        {"derivation through the pairing"}),
    # the bundle map and its extension both see N with a bumped last entry,
    # which no longer commutes with pi#
    "perturbed apply_matrix": (
        [(module, "apply_matrix",
          lambda inst, N, X: _ORIGINAL["apply_matrix"](inst, _bumped(N), X))
         for module in (pqn, catalog)],
        {"mixed bivector/bundle map against the background", "condition (c)"}),
    # forms.insert is also the kernel's own insertion, so every bracket of a
    # 3-form with a 1-form sees the doubling too
    "doubled uN o [uN,uH]": (
        [(forms, "insert",
          lambda K, L: _ORIGINAL["insert"](K, L).scale(2) if (K.arity, L.arity) == (3, 1)
          else _ORIGINAL["insert"](K, L))],
        {"iterated bundle map against the background"}),
}

CHECKED = {"derivation through the pairing", "concomitant through the bracket",
           "double bivector against the background", "bivector slot of the background extension",
           "mixed bivector/bundle map against the background",
           "iterated bundle map against the background", "iterated bundle map, section level",
           "condition (b)", "condition (c)", "pairing identity"}


def test_every_moved_check_has_a_corruption():
    assert set().union(*(broken for _, broken in CORRUPTIONS.values())) == CHECKED


def _conditions_bc(args):
    """Conditions (b) and (c) of ``pqn.quadruple_conditions``."""
    conditions = quadruple_conditions(*args)
    return {name: conditions[name] for name in "bc"}


def _reference_entries(args):
    """(section 3 entries, conditions (b) and (c), dual pairing entries),
    all from the references."""
    return (reference_section3(*args).checks,
            reference_conditions_bc(*args),
            reference_dual_pairing(*args[:2]).checks)


@pytest.mark.parametrize("corruption", list(CORRUPTIONS))
def test_moved_checks_match_the_reference_under_corruption(corruption, monkeypatch):
    """Under each corruption pqn's conditions (b) and (c) still equal the
    reference's, and the corruption fails every check listed for it."""
    patches, broken = CORRUPTIONS[corruption]
    for module, name, fn in patches:
        monkeypatch.setattr(module, name, fn)
    failing = set()
    for case, build in INPUTS.items():
        section3, conditions, pairing = _reference_entries(build())
        assert _conditions_bc(build()) == conditions, (corruption, case)
        failing |= {c.name for c in section3 + pairing if not c.passed}
        failing |= {f"condition ({name})" for name, (ok, _) in conditions.items() if not ok}
    assert broken <= failing, broken - failing


@pytest.mark.parametrize("case", list(INPUTS))
def test_section3_lemma_suite(case):
    section3, conditions, pairing = _reference_entries(INPUTS[case]())
    assert all(c.passed for c in section3), [c.name for c in section3 if not c.passed]
    if case in ("heisenberg3-quadruple", "poly-rank3-quadruple"):
        assert len(section3) == 31
    assert all(c.passed for c in pairing), [c.name for c in pairing if not c.passed]
    # each input is built afresh, so the reference shares no memo with pqn
    assert _conditions_bc(INPUTS[case]()) == conditions
