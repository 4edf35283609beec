"""The section-3 lemmas and the Koszul-bracket pairing identity that the
PQN equivalence rests on, mostly as hand-rolled loops over basis tuples, and
the Koszul bracket by the Cartan formula (``reference_koszul_bracket``).  No
command prints these reports; ``test_pqn.py`` checks that every entry
passes on its inputs and that each planted corruption fails the entries
it must.  ``reference_conditions_bc`` recomputes conditions (b) and (c) of
``pqn.quadruple_conditions`` the same way, and ``reference_solve_scalar_ratio``
solves condition (d)'s scalar entry by entry.

Every function these checks share with ``rnforms.pqn`` is read through that
module, and the insertion through ``rnforms.forms``, so a corruption
patched there reaches the references and ``pqn``'s own conditions alike.
A bivector is read on two 1-forms by the permutation-determinant reference
``element_on_duals``, which ``pqn`` does not use.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from rnforms import forms, pqn
from rnforms.dualforms import DualForm, matrix_mul
from rnforms.elements import Element
from rnforms.forms import VForm
from rnforms.report import Report

from dualforms_reference import (element_on_duals, pi_sharp_matrix, reference_differential,
                                 reference_lie_derivative)
from forms_reference import declared_family


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
            lhs = kb.apply((X,))
            bracket = instance.sn_bracket(pi, X)
            rhs = (-element_on_duals(bracket, (a, b)) if not bracket.is_zero()
                   else ring.zero())
            rhs = rhs + instance.anchor_on_function(pqn.pi_sharp(pi, a), b.apply((X,))) \
                if not pqn.pi_sharp(pi, a).is_zero() else rhs
            rhs = rhs - instance.anchor_on_function(pqn.pi_sharp(pi, b), a.apply((X,))) \
                if not pqn.pi_sharp(pi, b).is_zero() else rhs
            if lhs != rhs:
                bad = f"({a.label()}, {b.label()}, {instance.generator_names[x]})"
                break
        if bad:
            break
    report.add("pairing identity",
               "<{a,b},X> = -[pi,X](a,b) + rho(pi#a)<b,X> - rho(pi#b)<a,X>",
               bad is None, counterexample=bad)
    return report


def reference_koszul_bracket(instance, pi, alpha, beta) -> DualForm:
    """{a,b} = L_{pi# a} b - L_{pi# b} a - d(pi(a,b)), each Lie derivative
    by the Cartan formula of the reference operators on ``instance``'s
    anchor and bracket, and pi(a,b) read by the permutation determinant."""
    a, b = (DualForm(instance, 1, form.table) for form in (alpha, beta))
    pairing = DualForm(instance, 0, {(): element_on_duals(pi, (a, b))})
    return (reference_lie_derivative(pqn.pi_sharp(pi, a), b)
            - reference_lie_derivative(pqn.pi_sharp(pi, b), a)
            - reference_differential(pairing))


def reference_solve_scalar_ratio(lhs: DualForm, target: DualForm):
    """``pqn.solve_scalar_ratio`` entry by entry: one ratio on every entry
    of the target, and no entry of lhs outside the target's support."""
    if target.is_zero():
        return (Fraction(0), "forced 0 (target form vanishes)") if lhs.is_zero() else (None, "no scalar fits")
    lam = None
    for mon, value in target.table.items():
        ratio = pqn.exact_ratio(lhs.table.get(mon), value)
        if ratio is None:
            return None, "no scalar fits"
        if lam is None:
            lam = ratio
        elif lam != ratio:
            return None, "no scalar fits"
    for mon in lhs.table:
        if mon not in target.table:
            return None, "no scalar fits"
    return lam, f"lambda = {lam}"


def reference_conditions_bc(inst, pi, N, omega, H):
    """check_pqn's conditions (b) and (c) as {name: (ok, witness)}."""
    N = [[inst.ring.coerce(v) for v in row] for row in N]
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


def reference_section3(instance, pi, N, omega, H):
    """The section-3 lemma checks, one report entry each (31 on rank 3
    when pi, omega and H are nonzero and N is compatible with pi and
    omega).  The identities between
    brackets of extensions are ``is_zero`` certificates; the others are
    hand-rolled loops over basis tuples, the iterated ones over
    combinations_with_replacement triples of the instance's family (the
    declared one on a polynomial algebroid) with the pair terms as a
    closure and M as an ad-hoc VForm."""
    report = Report("suite section3", instance.name)
    ring = instance.ring
    l2 = pqn.l2_form(instance)
    duals = [DualForm(instance, 1, {(i,): ring.one()}) for i in range(instance.rank)]
    gens = [instance.generator(i) for i in range(instance.rank)]
    un = pqn.extend_bundle_map(instance, N)
    uomega = pqn.extend_kform(omega) if not omega.is_zero() else None
    uH = pqn.extend_kform(H) if not H.is_zero() else None

    one_forms = list(duals)
    extended = [(f"u({d.label()})", pqn.extend_kform(d)) for d in one_forms]
    extended += [("u(omega)", uomega)] if uomega else []
    extended += [("uH", uH)] if uH else []
    for (la, fa), (lb, fb) in itertools.combinations_with_replacement(extended, 2):
        cert = pqn.is_zero(pqn.rn_bracket(fa, fb))
        report.add_certificate(f"commuting extensions [{la},{lb}]",
                               "[u(kappa), u(kappa')] = 0", cert)

    if not omega.is_zero():
        ok_om = pqn.compat_omega_n(instance, omega, N)
        report.add("compatibility omega/N", "omega_flat o N = N* o omega_flat", ok_om)
        if ok_om:
            target = pqn.extend_kform(pqn.omega_n(omega, N)).scale(2)
            cert = pqn.is_zero(pqn.rn_bracket(un, uomega) - target)
            report.add_certificate("bundle map against 2-form",
                                   "[uN, u(omega)] = 2 u(omega_N)", cert)

    for label, kappa in [(d.label(), d) for d in one_forms] + \
            [("omega", omega)] + ([("H", H)] if not H.is_zero() else []):
        if kappa.is_zero():
            continue
        uk = pqn.extend_kform(kappa)
        dk = pqn.differential(kappa)
        lhs = pqn.rn_bracket(l2, uk)
        if dk.is_zero():
            cert = pqn.is_zero(lhs)
        else:
            cert = pqn.is_zero(lhs - pqn.extend_kform(dk))
        report.add_certificate(f"differential through the bracket ({label})",
                               "[l2, u(kappa)] = u(d kappa)", cert)

    pif = pqn.bivector_form(instance, pi) if not pi.is_zero() else None
    if pif is not None:
        bad = None
        for x in range(instance.rank):
            X = instance.generator(x)
            br = instance.sn_bracket(pi, X)
            lhs_el = un.evaluate((br,)) if not br.is_zero() else Element.zero()
            for i, j in itertools.product(range(instance.rank), repeat=2):
                a, b = duals[i], duals[j]
                lhs_v = (element_on_duals(lhs_el, (a, b))
                         if not lhs_el.is_zero() else ring.zero())
                if br.is_zero():
                    rhs_v = ring.zero()
                else:
                    rhs_v = (element_on_duals(br, (pqn.n_star(instance, N, a), b))
                             + element_on_duals(br, (a, pqn.n_star(instance, N, b))))
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
                lhs_v = element_on_duals(val, (a, b)) if not val.is_zero() else ring.zero()
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
                    lhs_v = (element_on_duals(val, (a, b))
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
            lhs_m = pi_sharp_matrix(instance, unpi)
            two_n = [[2 * N[i][j] for j in range(instance.rank)]
                     for i in range(instance.rank)]
            rhs_m = matrix_mul(instance, two_n, pi_sharp_matrix(instance, pi))
            report.add("sharp of the derived bivector", "(uN pi)# = 2 N o pi#",
                       lhs_m == rhs_m)

    if uH is not None:
        n_sq = pqn.matrix_square(instance, N)
        un2 = pqn.extend_bundle_map(instance, n_sq)
        mhat = VForm(instance, 1, 0,
                     lambda args: (un.evaluate((un.evaluate(args),))
                                   - un2.evaluate(args)).scale(Fraction(1, 2)))
        lhs3 = pqn.rn_bracket(un, pqn.rn_bracket(un, uH)).component(3)
        term1 = pqn.rn_bracket(un2, uH).component(3)
        inner3 = pqn.rn_bracket(un, uH).component(3)
        composed = forms.insert(inner3, un)
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
        family = declared_family(instance)
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
