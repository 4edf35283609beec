import itertools
from fractions import Fraction

import pytest

from rnforms import catalog, heisenberg3, pqn
from rnforms.dualforms import DualForm, differential, pi_sharp
from rnforms.elements import Element
from rnforms.forms import VForm, is_zero, rn_bracket
from rnforms.graded import GradingConvention
from rnforms.instances import GradedInstance, PolyAlgebroidData
from rnforms.pqn import (PQNQuadruple, check_pqn, concomitant, dual_pairing_identity,
                         koszul_bracket, main_theorem_harness, mu_with_background,
                         section3_lemma_suite, stienon_xu_harness)
from rnforms.report import Report
from rnforms.rings import InputError, PolyRing
from rnforms.scenario import load_shipped

SH2 = GradingConvention.SHIFTED2


def dual(inst, i):
    return DualForm(inst, 1, {(i,): inst.ring.one()})


def test_koszul_bracket_zero_bivector(aff_sh2):
    out = koszul_bracket(aff_sh2, Element.zero(), dual(aff_sh2, 0), dual(aff_sh2, 1))
    assert out.is_zero()


def test_koszul_bracket_aff1_by_cartan_expansion(aff_sh2):
    # {a,b} = L_{pi#a} b - L_{pi#b} a - d(pi(a,b)) assembled term by term
    from rnforms.dualforms import d_function, element_on_duals, lie_derivative
    inst = aff_sh2
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


def test_dual_pairing_identity(aff_sh2):
    pi = aff_sh2.monomial((0, 1))
    report = dual_pairing_identity(aff_sh2, pi)
    assert report.passed


def test_dual_pairing_identity_poly(poly):
    pi = poly.monomial((0, 1))
    report = dual_pairing_identity(poly, pi)
    assert report.passed


def test_concomitant_identity_and_scaling(h3_sh2):
    pi = h3_sh2.monomial((0, 2))
    identity = [[Fraction(1) if i == j else Fraction(0) for j in range(3)]
                for i in range(3)]
    scaled = [[Fraction(5) if i == j else Fraction(0) for j in range(3)]
              for i in range(3)]
    for N in (identity, scaled):
        for i, j in itertools.combinations(range(3), 2):
            assert concomitant(h3_sh2, pi, N, dual(h3_sh2, i), dual(h3_sh2, j)).is_zero()


def test_concomitant_cross_checked_against_bracket_combination(h3_sh2):
    from rnforms.catalog import bivector_form, extend_bundle_map, l2_form
    from rnforms.dualforms import element_on_duals
    from rnforms.forms import as_polyform, rn_bracket
    inst = h3_sh2
    pi = inst.monomial((0, 1))
    N = [[Fraction(3), Fraction(1), 0], [0, Fraction(3), 0], [0, Fraction(1), Fraction(2)]]
    un = extend_bundle_map(inst, N, SH2)
    l2 = l2_form(inst, SH2)
    pif = bivector_form(inst, pi, SH2)
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


def test_check_pqn_aff1_scalar(aff_sh2):
    pi = aff_sh2.monomial((0, 1))
    N = [[Fraction(3), 0], [0, Fraction(3)]]
    quadruple = PQNQuadruple(aff_sh2, pi, N, DualForm.zero(aff_sh2, 2),
                             DualForm.zero(aff_sh2, 3))
    verdict = check_pqn(quadruple)
    assert verdict.passed
    assert verdict.lambda_solved == 0


def test_check_pqn_noncompatible_reported(aff_sh2):
    pi = aff_sh2.monomial((0, 1))
    N = [[Fraction(1), 0], [0, Fraction(2)]]
    quadruple = PQNQuadruple(aff_sh2, pi, N, DualForm.zero(aff_sh2, 2),
                             DualForm.zero(aff_sh2, 3))
    verdict = check_pqn(quadruple)
    assert not verdict.preconditions["N o pi# = pi# o N*"][0]
    assert not verdict.passed


def test_check_pqn_degenerate_pi_exact(h3_sh2):
    # degenerate pi with N = 0: condition (b) reduces to 2H(pi#a, pi#b, .) = 0
    pi = h3_sh2.monomial((0, 2))
    zero = [[Fraction(0)] * 3 for _ in range(3)]
    H = DualForm(h3_sh2, 3, {(0, 1, 2): Fraction(1)})
    quadruple = PQNQuadruple(h3_sh2, pi, zero, DualForm.zero(h3_sh2, 2), H)
    verdict = check_pqn(quadruple)
    assert not verdict.conditions["b"][0]
    assert verdict.conditions["a"][0]


def test_mu_with_background(h3_sh2, so3_inst, monkeypatch):
    H = DualForm(h3_sh2, 3, {(0, 1, 2): Fraction(1)})
    mu = mu_with_background(h3_sh2, H)
    cert = is_zero(rn_bracket(mu, mu))
    assert cert.is_zero and cert.complete
    # the ingredients: [l2,l2] = 0, [l2,uH] = u(dH) = 0 and [uH,uH] = 0
    l2, uH = catalog.l2_form(h3_sh2, SH2), catalog.extend_kform(H, SH2)
    for left, right in ((l2, l2), (l2, uH), (uH, uH)):
        assert is_zero(rn_bracket(left, right)).is_zero
    assert list(mu_with_background(h3_sh2, DualForm.zero(h3_sh2, 3)).components) == [2]

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


def test_main_theorem_precondition_failure_reported(aff_sh2):
    pi = aff_sh2.monomial((0, 1))
    N = [[Fraction(1), 0], [0, Fraction(2)]]
    report = main_theorem_harness(aff_sh2, pi, N, DualForm.zero(aff_sh2, 2),
                                  DualForm.zero(aff_sh2, 3))
    assert not report.passed
    assert any("precondition" in c.name and not c.passed for c in report.checks)
    assert all("side" not in c.name for c in report.checks)


def test_main_theorem_computes_no_ingredient_certificate(monkeypatch):
    """The harness certifies no ingredient of l2 + uH: on heisenberg3 it
    certifies the five decomposition components and side A's deformation
    square, and nothing else."""
    certify = pqn.is_zero
    forms = []

    def counting(form, test_family=None):
        forms.append(form)
        return certify(form, test_family)

    monkeypatch.setattr(pqn, "is_zero", counting)
    s = load_shipped("heisenberg3")
    report = main_theorem_harness(s.instance, s.pi, s.N, s.omega, s.H, s.test_family())
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

    from rnforms import abelian2
    ab = abelian2()
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
    from rnforms import abelian2, aff1, so3
    rng = random.Random(2016)
    verdicts = set()
    for build in (aff1, heisenberg3, so3, abelian2):
        inst = build()
        for _ in range(10):
            pi, N, omega, H, alpha = _random_quadruple(rng, inst)
            for report in (main_theorem_harness(inst, pi, N, omega, H),
                           stienon_xu_harness(inst, pi, N, omega, alpha)):
                equality = [c for c in report.checks if c.name == "verdict equality"]
                if equality:
                    assert equality[0].passed, (inst.name, report.to_text())
                    verdicts.add(equality[0].detail)
    assert verdicts == {"side A pass, side B pass", "side A fail, side B fail"}


def test_stienon_xu_rejects_wrong_alpha_degree(aff_sh2):
    pi = aff_sh2.monomial((0, 1))
    N = [[Fraction(1), 0], [0, Fraction(1)]]
    with pytest.raises(InputError):
        stienon_xu_harness(aff_sh2, pi, N, DualForm.zero(aff_sh2, 2),
                           DualForm.zero(aff_sh2, 3))


# -- the hand-rolled loops before every form identity went through is_zero -------------
#
# Kept as a reference for the moved checks.  Every function the checks share
# with rnforms.pqn is read through the module, so a corruption patched there
# reaches the reference and the checks alike.


def reference_dual_pairing(instance, pi):
    report = Report("dual pairing", instance.name)
    report.add("Poisson precondition", "[pi,pi] = 0",
               instance.sn_bracket(pi, pi).is_zero())
    ring = instance.ring
    duals = [DualForm(instance, 1, {(i,): ring.one()}) for i in range(instance.rank)]
    bad = None
    for a, b in itertools.product(duals, repeat=2):
        kb = pqn.koszul_bracket(instance, pi, a, b)
        for x in range(instance.rank):
            X = instance.generator(x)
            lhs = pqn.pairing(kb, X)
            bracket = instance.sn_bracket(pi, X)
            rhs = (-pqn.element_on_duals(bracket, (a, b)) if not bracket.is_zero()
                   else ring.zero())
            rhs = rhs + instance.anchor_on_function(pqn.pi_sharp(pi, a), pqn.pairing(b, X)) \
                if not pqn.pi_sharp(pi, a).is_zero() else rhs
            rhs = rhs - instance.anchor_on_function(pqn.pi_sharp(pi, b), pqn.pairing(a, X)) \
                if not pqn.pi_sharp(pi, b).is_zero() else rhs
            if lhs != rhs:
                bad = f"({a.label()}, {b.label()}, {instance.generator_names[x]})"
                break
        if bad:
            break
    report.add("pairing identity",
               "<{a,b},X> = -[pi,X](a,b) + rho(pi#a)<b,X> - rho(pi#b)<a,X>",
               bad is None, complete=instance.ring.kind == "rational",
               counterexample=bad)
    return report


def reference_conditions_bc(quadruple):
    """check_pqn's conditions (b) and (c) as {name: (ok, witness)}."""
    inst = quadruple.instance
    pi, N, omega, H = quadruple.pi, quadruple.N, quadruple.omega, quadruple.H
    duals = [DualForm(inst, 1, {(i,): inst.ring.one()}) for i in range(inst.rank)]
    conditions = {}
    bad = None
    for i, j in itertools.combinations(range(inst.rank), 2):
        a, b = duals[i], duals[j]
        lhs = pqn.concomitant(inst, pi, N, a, b)
        rhs_table = {}
        pa, pb = pqn.pi_sharp(pi, a), pqn.pi_sharp(pi, b)
        for m in range(inst.rank):
            if pa.is_zero() or pb.is_zero():
                continue
            value = 2 * H.apply((pa, pb, inst.generator(m)))
            if value:
                rhs_table[(m,)] = value
        if not (lhs - DualForm(inst, 1, rhs_table)).is_zero():
            bad = f"(a,b) = ({a.label()}, {b.label()})"
            break
    conditions["b"] = (bad is None, bad)

    t = pqn.torsion(inst, N)
    domega = pqn.differential(omega)
    bad = None
    for i, j in itertools.combinations(range(inst.rank), 2):
        X, Y = inst.generator(i), inst.generator(j)
        NX, NY = pqn.apply_matrix(inst, N, X), pqn.apply_matrix(inst, N, Y)
        one_form = {}
        for m in range(inst.rank):
            Z = inst.generator(m)
            value = -H.apply((NX, Y, Z)) - H.apply((X, NY, Z)) + domega.apply((X, Y, Z))
            if value:
                one_form[(m,)] = value
        rhs = pqn.pi_sharp(pi, DualForm(inst, 1, one_form))
        if not (t(X, Y) - rhs).is_zero():
            bad = f"(X,Y) = ({inst.generator_names[i]}, {inst.generator_names[j]})"
            break
    conditions["c"] = (bad is None, bad)
    return conditions


def reference_section3(instance, pi, N, omega, H, test_family=None):
    """section3_lemma_suite as it was before its form identities went
    through is_zero: hand-rolled loops over combinations_with_replacement
    triples, the pair terms as a closure and M as an ad-hoc VForm."""
    report = Report("suite section3", instance.name)
    ring = instance.ring
    l2 = pqn.l2_form(instance, SH2)
    duals = [DualForm(instance, 1, {(i,): ring.one()}) for i in range(instance.rank)]
    gens = [instance.generator(i) for i in range(instance.rank)]
    un = pqn.extend_bundle_map(instance, N, SH2)
    uomega = pqn.extend_kform(omega, SH2) if not omega.is_zero() else None
    uH = pqn.extend_kform(H, SH2) if not H.is_zero() else None

    one_forms = list(duals)
    extended = [(f"u({d.label()})", pqn.extend_kform(d, SH2)) for d in one_forms]
    extended += [("u(omega)", uomega)] if uomega else []
    extended += [("uH", uH)] if uH else []
    for (la, fa), (lb, fb) in itertools.combinations_with_replacement(extended, 2):
        cert = pqn.is_zero(pqn.rn_bracket(fa, fb), test_family)
        report.add_certificate(f"commuting extensions [{la},{lb}]",
                               "[u(kappa), u(kappa')] = 0", cert)

    if not omega.is_zero():
        ok_om = pqn.compat_omega_n(instance, omega, N)
        report.add("compatibility omega/N", "omega_flat o N = N* o omega_flat", ok_om)
        if ok_om:
            target = pqn.extend_kform(pqn.omega_n(omega, N), SH2).scale(2)
            cert = pqn.is_zero(pqn.rn_bracket(un, uomega) - target, test_family)
            report.add_certificate("bundle map against 2-form",
                                   "[uN, u(omega)] = 2 u(omega_N)", cert)

    for label, kappa in [(d.label(), d) for d in one_forms] + \
            [("omega", omega)] + ([("H", H)] if not H.is_zero() else []):
        if kappa.is_zero():
            continue
        uk = pqn.extend_kform(kappa, SH2)
        dk = pqn.differential(kappa)
        lhs = pqn.rn_bracket(uk, l2)
        if dk.is_zero():
            cert = pqn.is_zero(lhs, test_family)
        else:
            cert = pqn.is_zero(lhs - pqn.extend_kform(dk, SH2), test_family)
        report.add_certificate(f"differential through the bracket ({label})",
                               "[u(kappa), l2] = u(d kappa)", cert)

    pif = pqn.bivector_form(instance, pi, SH2) if not pi.is_zero() else None
    if pif is not None:
        bad = None
        for x in range(instance.rank):
            X = instance.generator(x)
            br = instance.sn_bracket(pi, X)
            lhs_el = un.evaluate((br,)) if not br.is_zero() else Element.zero()
            for i, j in itertools.product(range(instance.rank), repeat=2):
                a, b = duals[i], duals[j]
                lhs_v = (pqn.element_on_duals(lhs_el, (a, b))
                         if not lhs_el.is_zero() else ring.zero())
                if br.is_zero():
                    rhs_v = ring.zero()
                else:
                    rhs_v = (pqn.element_on_duals(br, (pqn.n_star(instance, N, a), b))
                             + pqn.element_on_duals(br, (a, pqn.n_star(instance, N, b))))
                if lhs_v != rhs_v:
                    bad = f"(X,a,b) = ({instance.generator_names[x]}, {a.label()}, {b.label()})"
                    break
            if bad:
                break
        report.add("derivation through the pairing",
                   "uN [pi,X](a,b) = [pi,X](N*a,b) + [pi,X](a,N*b)",
                   bad is None, counterexample=bad)

        combo = (pqn.rn_bracket(pif, pqn.rn_bracket(un, l2))
                 + pqn.rn_bracket(un, pqn.rn_bracket(pif, l2)))
        comp = combo.component(1)
        bad = None
        for x in range(instance.rank):
            X = instance.generator(x)
            val = comp.evaluate((X,))
            for i, j in itertools.combinations(range(instance.rank), 2):
                a, b = duals[i], duals[j]
                lhs_v = pqn.element_on_duals(val, (a, b)) if not val.is_zero() else ring.zero()
                rhs_v = pqn.concomitant(instance, pi, N, a, b).apply((X,))
                if lhs_v != rhs_v:
                    bad = f"(X,a,b) = ({instance.generator_names[x]}, {a.label()}, {b.label()})"
                    break
            if bad:
                break
        report.add("concomitant through the bracket",
                   "([pi,[uN,l2]] + [uN,[pi,l2]])(X)(a,b) = C(pi,N)(a,b)(X)",
                   bad is None, counterexample=bad,
                   detail="sign as this kernel's conventions force it")

        if uH is not None:
            double = pqn.rn_bracket(pif, pqn.rn_bracket(pif, uH)).component(1)
            bad = None
            for x in range(instance.rank):
                X = instance.generator(x)
                val = double.evaluate((X,))
                for i, j in itertools.combinations(range(instance.rank), 2):
                    a, b = duals[i], duals[j]
                    lhs_v = (pqn.element_on_duals(val, (a, b))
                             if not val.is_zero() else ring.zero())
                    pa, pb = pqn.pi_sharp(pi, a), pqn.pi_sharp(pi, b)
                    rhs_v = (-2 * H.apply((pa, pb, X))
                             if not (pa.is_zero() or pb.is_zero()) else ring.zero())
                    if lhs_v != rhs_v:
                        bad = f"(X,a,b) = ({instance.generator_names[x]}, {a.label()}, {b.label()})"
                        break
                if bad:
                    break
            report.add("double bivector against the background",
                       "[pi,[pi,uH]](X)(a,b) = -2 H(pi#a, pi#b, X)",
                       bad is None, counterexample=bad,
                       detail="sign as this kernel's conventions force it")

        if uH is not None:
            bad = None
            for x, y in itertools.product(range(instance.rank), repeat=2):
                X, Y = instance.generator(x), instance.generator(y)
                hxy = DualForm(instance, 1,
                               {(m,): H.apply((X, Y, instance.generator(m)))
                                for m in range(instance.rank)})
                lhs_el = uH.evaluate((pi, X, Y))
                if not (lhs_el - pqn.pi_sharp(pi, hxy)).is_zero():
                    bad = f"(X,Y) = ({instance.generator_names[x]}, {instance.generator_names[y]})"
                    break
            report.add("bivector slot of the background extension",
                       "uH(pi, X, Y) = pi#(H(X,Y,.))", bad is None,
                       counterexample=bad)

        ok_npi = pqn.compat_n_pi(instance, N, pi)
        report.add("compatibility N/pi", "N o pi# = pi# o N*", ok_npi)
        if ok_npi and uH is not None:
            combo = (pqn.rn_bracket(pif, pqn.rn_bracket(un, uH))
                     + pqn.rn_bracket(un, pqn.rn_bracket(pif, uH)))
            comp2 = combo.component(2)
            bad = None
            for x, y in itertools.combinations(range(instance.rank), 2):
                X, Y = instance.generator(x), instance.generator(y)
                val = comp2.evaluate((X, Y))
                NX = pqn.apply_matrix(instance, N, X)
                NY = pqn.apply_matrix(instance, N, Y)
                rhs = Element.zero()
                if not NX.is_zero():
                    rhs = rhs + uH.evaluate((pi, NX, Y)).scale(2)
                if not NY.is_zero():
                    rhs = rhs + uH.evaluate((pi, X, NY)).scale(2)
                if not (val - rhs).is_zero():
                    bad = f"(X,Y) = ({instance.generator_names[x]}, {instance.generator_names[y]})"
                    break
            report.add("mixed bivector/bundle map against the background",
                       "([pi,[uN,uH]] + [uN,[pi,uH]])(X,Y) = 2uH(pi,NX,Y) + 2uH(pi,X,NY)",
                       bad is None, counterexample=bad)

        if ok_npi:
            unpi = un.evaluate((pi,))
            lhs_m = pqn.pi_sharp_matrix(instance, unpi)
            two_n = [[2 * N[i][j] for j in range(instance.rank)]
                     for i in range(instance.rank)]
            rhs_m = pqn.matrix_mul(instance, two_n, pqn.pi_sharp_matrix(instance, pi))
            report.add("sharp of the derived bivector", "(uN pi)# = 2 N o pi#",
                       lhs_m == rhs_m)

    if uH is not None:
        n_sq = pqn.matrix_square(instance, N)
        un2 = pqn.extend_bundle_map(instance, n_sq, SH2)
        mhat = VForm(instance, 1, 0,
                     lambda args: (un.evaluate((un.evaluate(args),))
                                   - un2.evaluate(args)).scale(Fraction(1, 2)),
                     SH2)
        lhs3 = pqn.rn_bracket(un, pqn.rn_bracket(un, uH)).component(3)
        term1 = pqn.rn_bracket(un2, uH).component(3)
        inner3 = pqn.rn_bracket(un, uH).component(3)
        composed = pqn.insert(inner3, un)
        correction = pqn.rn_bracket(mhat, uH).component(3)

        def pairs_value(combo):
            P, Q, R = combo
            np_, nq, nr = (un.evaluate((x,)) for x in combo)
            total = Element.zero()
            if not (np_.is_zero() or nq.is_zero()):
                total = total + uH.evaluate((np_, nq, R))
            if not (np_.is_zero() or nr.is_zero()):
                total = total + uH.evaluate((np_, Q, nr))
            if not (nq.is_zero() or nr.is_zero()):
                total = total + uH.evaluate((P, nq, nr))
            return total

        bad = None
        family = test_family if test_family is not None else instance.all_basis()
        for combo in itertools.combinations_with_replacement(family, 3):
            l_val = lhs3.evaluate(combo)
            r_val = (term1.evaluate(combo)
                     + pairs_value(combo).scale(2)
                     + correction.evaluate(combo).scale(2)
                     - composed.evaluate(combo).scale(2))
            if not (l_val - r_val).is_zero():
                bad = "(" + ", ".join(instance.basis_label(el) for el in combo) + ")"
                break
        report.add(
            "iterated bundle map against the background",
            "[uN,[uN,uH]] = [u(N^2),uH] + 2*(pair terms + [M,uH]) - 2 uN o [uN,uH]",
            bad is None, counterexample=bad,
            detail="M = (uN o uN - u(N^2))/2; the pair-term-only identity holds"
                   " on section triples and is checked below")

        gens = [instance.generator(i) for i in range(instance.rank)]
        bad = None
        for combo in itertools.combinations_with_replacement(gens, 3):
            l_val = lhs3.evaluate(combo)
            r_val = (term1.evaluate(combo)
                     + pairs_value(combo).scale(2)
                     - composed.evaluate(combo).scale(2))
            if not (l_val - r_val).is_zero():
                bad = "(" + ", ".join(instance.basis_label(el) for el in combo) + ")"
                break
        report.add("iterated bundle map, section level",
                   "[uN,[uN,uH]] = [u(N^2),uH] + 2*cyclic - 2 uN o [uN,uH] on sections",
                   bad is None, counterexample=bad)
    return report




# -- the moved checks against the reference ----------------------------------------------


def heisenberg3_quadruple():
    """The one input that reaches all 31 section-3 checks."""
    inst = heisenberg3()
    N = [[Fraction(1), 0, 0], [0, Fraction(2), 0], [0, 0, Fraction(1)]]
    return (inst, inst.monomial((0, 2)), N, DualForm(inst, 2, {(0, 2): Fraction(1)}),
            DualForm(inst, 3, {(0, 1, 2): Fraction(1)}), None)


def poly_rank3_quadruple():
    """A rank-3 polynomial algebroid over the line: rho(a1) = d/dx1, the
    other anchors 0, [a1, a2] = x1 a3.  H = x1 a1*^a2*^a3* is not zero, so
    the iterated and mixed checks run here on polynomial pieces of wedge
    degree 3, numbered as they are met."""
    ring = PolyRing(("x1",))
    one, zero, x1 = ring.one(), ring.zero(), ring.var(0)
    data = PolyAlgebroidData(1, 3, coordinates=("x1",), anchor=[[one], [zero], [zero]],
                             brackets={(0, 1): {2: x1}})
    inst = GradedInstance(data, name="poly-rank3")
    N = [[1, 0, 0], [0, 2, 0], [0, 0, 1]]
    return (inst, inst.monomial((0, 2)).scale(x1), N, DualForm(inst, 2, {(0, 2): one}),
            DualForm(inst, 3, {(0, 1, 2): x1}), inst.all_basis())


def shipped_quadruple(name):
    s = load_shipped(name)
    return s.instance, s.pi, s.N, s.omega, s.H, s.test_family()


SHIPPED = ("abelian2", "aff1", "heisenberg3", "so3", "poly-tangent-r2")
INPUTS = {"heisenberg3-quadruple": heisenberg3_quadruple,
          "poly-rank3-quadruple": poly_rank3_quadruple,
          **{name: (lambda name=name: shipped_quadruple(name)) for name in SHIPPED}}


def _bumped(N):
    """N with its last diagonal entry raised by 1."""
    out = [list(row) for row in N]
    out[-1][-1] = out[-1][-1] + 1
    return out


_ORIGINAL = {name: getattr(pqn, name) for name in
             ("matrix_square", "concomitant", "pi_sharp", "n_star", "apply_matrix", "insert")}

# corruption -> (patches, the moved checks it must break on some input)
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
    "doubled uN o [uN,uH]": (
        [(pqn, "insert",
          lambda K, L: _ORIGINAL["insert"](K, L).scale(2) if (K.arity, L.arity) == (3, 1)
          else _ORIGINAL["insert"](K, L))],
        {"iterated bundle map against the background"}),
}

MOVED = {"derivation through the pairing", "concomitant through the bracket",
         "double bivector against the background", "bivector slot of the background extension",
         "mixed bivector/bundle map against the background",
         "iterated bundle map against the background", "iterated bundle map, section level",
         "condition (b)", "condition (c)", "pairing identity"}


def test_every_moved_check_has_a_corruption():
    assert set().union(*(broken for _, broken in CORRUPTIONS.values())) == MOVED


def _moved_entries(args):
    """(section 3 entries, check_pqn (b) and (c), dual pairing entries)."""
    inst, pi, N, omega, H, family = args
    verdict = check_pqn(PQNQuadruple(inst, pi, N, omega, H))
    return (section3_lemma_suite(*args).checks,
            {name: verdict.conditions[name] for name in "bc"},
            dual_pairing_identity(inst, pi).checks)


def _reference_entries(args):
    inst, pi, N, omega, H, family = args
    return (reference_section3(*args).checks,
            reference_conditions_bc(PQNQuadruple(inst, pi, N, omega, H)),
            reference_dual_pairing(inst, pi).checks)


@pytest.mark.parametrize("corruption", list(CORRUPTIONS))
def test_moved_checks_match_the_reference_under_corruption(corruption, monkeypatch):
    patches, broken = CORRUPTIONS[corruption]
    for module, name, fn in patches:
        monkeypatch.setattr(module, name, fn)
    failing = set()
    for case, build in INPUTS.items():
        new, reference = _moved_entries(build()), _reference_entries(build())
        assert new == reference, (corruption, case)
        section3, conditions, pairing = new
        failing |= {c.name for c in section3 + pairing if not c.passed}
        failing |= {f"condition ({name})" for name, (ok, _) in conditions.items() if not ok}
    assert broken <= failing, broken - failing


@pytest.mark.parametrize("case", list(INPUTS))
def test_section3_lemma_suite(case):
    new = _moved_entries(INPUTS[case]())
    section3 = new[0]
    assert all(c.passed for c in section3), [c.name for c in section3 if not c.passed]
    if case in ("heisenberg3-quadruple", "poly-rank3-quadruple"):
        assert len(section3) == 31
    # each input is built afresh, so the reference shares no memo with the checks
    assert new == _reference_entries(INPUTS[case]())
