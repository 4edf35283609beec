"""Poisson bivectors, Koszul brackets, the Magri-Morosi concomitant, and the
exact Poisson quasi-Nijenhuis checker with background, plus the equivalence
harnesses that compare the tensor-calculus conditions against the bracket
computation on vector-valued forms.

Harness structure: side A is the co-boundary condition of pi + uN +
u(omega) for l2 + uH with square u(N^2) + [u(omega), pi], one ``is_zero``
certificate on the ``deformation_square`` form of ``nijenhuis_forms`` (the
other Nijenhuis forms are not certified); side B evaluates the four
quadruple conditions directly through Koszul brackets, torsion and the
background combination.  The two verdicts are computed independently and
asserted equal.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .catalog import (bivector_form, extend_bundle_map, extend_kform, l2_form,
                      matrix_square)
from .dualforms import (DualForm, apply_matrix, background_script, compat_n_pi,
                        compat_omega_n, d_function, differential, element_on_duals,
                        iota_n, lie_derivative, matrix_mul, n_star,
                        omega_n, pairing, pi_sharp, pi_sharp_matrix, tabulate,
                        unit_duals)
from .elements import Element
from .forms import PolyForm, element_form, insert, is_zero, rn_bracket
from .graded import GradingConvention
from .instances import GradedInstance
from .linfty import deformed_instance, nijenhuis_forms, torsion
from .report import Report
from .rings import InputError

SH2 = GradingConvention.SHIFTED2


# -- Koszul bracket and concomitant ---------------------------------------------


def koszul_bracket(instance: GradedInstance, pi: Element, alpha: DualForm,
                   beta: DualForm) -> DualForm:
    """{a,b} = L_{pi# a} b - L_{pi# b} a - d(pi(a,b)) on 1-forms, computed
    with the instance's bracket and anchor (pass a deformed instance for the
    deformed bracket's Koszul bracket)."""
    if alpha.k != 1 or beta.k != 1:
        raise InputError("the Koszul bracket acts on 1-forms")
    if alpha.instance is not instance:
        alpha = DualForm(instance, 1, alpha.table)
    if beta.instance is not instance:
        beta = DualForm(instance, 1, beta.table)
    pa = pi_sharp(pi, alpha)
    pb = pi_sharp(pi, beta)
    first = lie_derivative(pa, beta) if not pa.is_zero() else DualForm.zero(instance, 1)
    second = lie_derivative(pb, alpha) if not pb.is_zero() else DualForm.zero(instance, 1)
    scalar = element_on_duals(pi, (alpha, beta)) if not pi.is_zero() else instance.ring.zero()
    third = d_function(instance, scalar)
    return first - second - third


def concomitant(instance: GradedInstance, pi: Element, N, alpha: DualForm,
                beta: DualForm) -> DualForm:
    """Magri-Morosi concomitant C(pi,N)(a,b) = ({a,b})_{N*} - {a,b}^{mu_N}."""
    base = koszul_bracket(instance, pi, alpha, beta)
    na, nb = n_star(instance, N, alpha), n_star(instance, N, beta)
    deformed_of_base = (koszul_bracket(instance, pi, na, beta)
                        + koszul_bracket(instance, pi, alpha, nb)
                        - n_star(instance, N, base))
    deformed_inst = deformed_instance(instance, N)
    second = koszul_bracket(deformed_inst, pi, alpha, beta)
    return deformed_of_base - DualForm(instance, 1, second.table)


def dual_pairing_identity(instance: GradedInstance, pi: Element) -> Report:
    """<{a,b}, X> = -[pi,X](a,b) + rho(pi#a)<b,X> - rho(pi#b)<a,X> on all
    basis triples, plus the Poisson precondition [pi,pi] = 0."""
    report = Report("dual pairing", instance.name)
    report.add("Poisson precondition", "[pi,pi] = 0",
               instance.sn_bracket(pi, pi).is_zero())
    gens = [instance.generator(x) for x in range(instance.rank)]
    names = instance.generator_names

    def rhs(a, b, X):
        value = -element_on_duals(instance.sn_bracket(pi, X), (a, b))
        pa, pb = pi_sharp(pi, a), pi_sharp(pi, b)
        if not pa.is_zero():
            value = value + instance.anchor_on_function(pa, pairing(b, X))
        if not pb.is_zero():
            value = value - instance.anchor_on_function(pb, pairing(a, X))
        return value

    bad = next((f"({a.label()}, {b.label()}, {names[x]})"
                for a, b in itertools.product(unit_duals(instance), repeat=2)
                for kb in [koszul_bracket(instance, pi, a, b)]
                for x, X in enumerate(gens)
                if pairing(kb, X) != rhs(a, b, X)), None)
    report.add("pairing identity",
               "<{a,b},X> = -[pi,X](a,b) + rho(pi#a)<b,X> - rho(pi#b)<a,X>",
               bad is None, complete=instance.ring.kind == "rational",
               counterexample=bad)
    return report


# -- quadruple data and verdicts --------------------------------------------------


class PQNQuadruple:
    """(pi, N, omega, H, lambda) on an instance, shape-checked."""

    def __init__(self, instance: GradedInstance, pi: Element, N, omega: DualForm,
                 H: DualForm, lam=None):
        self.instance = instance
        if not pi.is_zero() and pi.require_homogeneous() != 2:
            raise InputError("pi must be a bivector")
        self.pi = pi
        n = instance.rank
        if len(N) != n or any(len(row) != n for row in N):
            raise InputError(f"N must be a {n}x{n} matrix")
        self.N = [[instance.ring.coerce(v) for v in row] for row in N]
        if omega.k != 2 or H.k != 3:
            raise InputError("omega must be a 2-form and H a 3-form")
        self.omega = omega
        self.H = H
        self.lam = None if lam is None else Fraction(lam)


class PQNVerdict:
    """Per-condition verdicts for the quadruple conditions."""

    def __init__(self):
        self.preconditions: dict = {}
        self.conditions: dict = {}
        self.lambda_solved = None
        self.lambda_note = None

    @property
    def passed(self) -> bool:
        return (all(v[0] for v in self.preconditions.values())
                and all(v[0] for v in self.conditions.values()))

    def passes_with_lambda(self, lam) -> bool:
        return self.passed and self.lambda_solved == Fraction(lam)

    def to_report(self, report: Report, tag="") -> None:
        for name, (ok, witness) in self.preconditions.items():
            report.add(f"{tag}precondition: {name}", name, ok, counterexample=witness)
        anchors = {
            "a": "[pi,pi] = 0",
            "b": "C(pi,N)(a,b) = 2 H(pi#a, pi#b, .)",
            "c": "T(X,Y) = pi#(-H(NX,Y,.) - H(X,NY,.) + d omega(X,Y,.))",
            "d": "i_N d omega - d omega_N - script_H = lambda H",
        }
        for name, (ok, witness) in self.conditions.items():
            report.add(f"{tag}condition ({name})", anchors[name], ok,
                       counterexample=witness)
        if "d" in self.conditions:
            report.add(f"{tag}lambda", "solved scalar coefficient",
                       self.lambda_solved is not None,
                       detail=self.lambda_note)


def solve_scalar_ratio(instance: GradedInstance, lhs: DualForm, target: DualForm):
    """Exact rational lambda with lhs = lambda * target, or None."""
    if target.is_zero():
        return (Fraction(0), "forced 0 (target form vanishes)") if lhs.is_zero() else (None, "no scalar fits")
    lam = None
    for mon, value in target.table.items():
        other = lhs.table.get(mon)
        ratio = exact_ratio(instance, other, value)
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


def exact_ratio(instance, numerator, denominator):
    """The scalar lam with numerator = lam * denominator (two coefficients
    of ``instance``'s ring; 0 when the numerator is None or zero), or None
    when no scalar fits."""
    ring = instance.ring
    if numerator is None or ring.is_zero(numerator):
        return Fraction(0)
    if ring.kind == "rational":
        return Fraction(numerator) / Fraction(denominator)
    # the only candidate: the ratio at the denominator's first term
    expo, c = denominator.terms()[0]
    lam = Fraction(dict(numerator.terms()).get(expo, 0), c)
    return lam if denominator * lam == numerator else None


def check_pqn(quadruple: PQNQuadruple) -> PQNVerdict:
    """Exact verdicts for the quadruple conditions; the scalar coefficient in
    (d) is solved by exact linear algebra when H is nonzero."""
    inst = quadruple.instance
    pi, N, omega, H = quadruple.pi, quadruple.N, quadruple.omega, quadruple.H
    verdict = PQNVerdict()
    ok_npi = compat_n_pi(inst, N, pi)
    verdict.preconditions["N o pi# = pi# o N*"] = (ok_npi, None)
    ok_om = compat_omega_n(inst, omega, N)
    verdict.preconditions["omega_flat o N = N* o omega_flat"] = (ok_om, None)
    dH = differential(H)
    verdict.preconditions["d H = 0"] = (dH.is_zero(),
                                        None if dH.is_zero() else dH.label())

    poisson = inst.sn_bracket(pi, pi)
    verdict.conditions["a"] = (poisson.is_zero(),
                               None if poisson.is_zero() else inst.basis_label(poisson))

    gens = [inst.generator(m) for m in range(inst.rank)]
    names = inst.generator_names

    def twice_h_on_sharps(a, b):        # 2 H(pi#a, pi#b, .)
        pa, pb = pi_sharp(pi, a), pi_sharp(pi, b)
        return tabulate(inst, 1, lambda Z: 2 * H.apply((pa, pb, Z)))

    bad = next((f"(a,b) = ({a.label()}, {b.label()})"
                for a, b in itertools.combinations(unit_duals(inst), 2)
                if not (concomitant(inst, pi, N, a, b) - twice_h_on_sharps(a, b)).is_zero()),
               None)
    verdict.conditions["b"] = (bad is None, bad)

    t = torsion(inst, N)
    domega = differential(omega)

    def torsion_target(X, Y):           # pi#(-H(NX,Y,.) - H(X,NY,.) + d omega(X,Y,.))
        NX, NY = apply_matrix(inst, N, X), apply_matrix(inst, N, Y)
        return pi_sharp(pi, tabulate(inst, 1, lambda Z: (
            -H.apply((NX, Y, Z)) - H.apply((X, NY, Z)) + domega.apply((X, Y, Z)))))

    bad = next((f"(X,Y) = ({names[i]}, {names[j]})"
                for i, j in itertools.combinations(range(inst.rank), 2)
                if not (t(gens[i], gens[j]) - torsion_target(gens[i], gens[j])).is_zero()),
               None)
    verdict.conditions["c"] = (bad is None, bad)

    if ok_om:
        lhs_d = iota_n(domega, N) - differential(omega_n(omega, N)) - background_script(H, N)
        lam, note = solve_scalar_ratio(inst, lhs_d, H)
        verdict.lambda_solved = lam
        verdict.lambda_note = note
        if lam is None:
            verdict.conditions["d"] = (False, "no scalar fits")
        else:
            residual = lhs_d - H.scale(lam)
            verdict.conditions["d"] = (residual.is_zero(),
                                       None if residual.is_zero() else residual.label())
        if quadruple.lam is not None and lam is not None and lam != quadruple.lam:
            verdict.conditions["d"] = (False,
                                       f"solved lambda {lam} != declared {quadruple.lam}")
    else:
        verdict.conditions["d"] = (False, "omega_N undefined (compatibility fails)")
    return verdict


# -- background structures ---------------------------------------------------------


def mu_with_background(instance: GradedInstance, H: DualForm) -> PolyForm:
    """l2 + uH as a degree-1 family.  Raises InputError when H is not
    closed, exhibiting the differential."""
    if H.k != 3:
        raise InputError("the background must be a 3-form")
    dH = differential(H)
    if not dH.is_zero():
        raise InputError(f"background 3-form is not closed: dH = {dH.label()}")
    parts = [l2_form(instance, SH2)]
    if not H.is_zero():
        parts.append(extend_kform(H, SH2))
    return PolyForm(instance, parts, convention=SH2)


def vector_valued_sum(instance: GradedInstance, pi: Element, N,
                      omega: DualForm) -> PolyForm:
    """pi + uN + u(omega), the degree-0 form of the quadruple harness."""
    parts = []
    if not pi.is_zero():
        parts.append(bivector_form(instance, pi, SH2))
    parts.append(extend_bundle_map(instance, N, SH2))
    if not omega.is_zero():
        parts.append(extend_kform(omega, SH2))
    return PolyForm(instance, parts, convention=SH2)


def quadruple_square(instance: GradedInstance, pi: Element, N,
                     omega: DualForm, extra: DualForm | None = None) -> PolyForm:
    """u(N^2) + [u(omega), pi] (+ u(alpha) for the manifold-triple variant)."""
    parts = [extend_bundle_map(instance, matrix_square(instance, N), SH2)]
    if not omega.is_zero() and not pi.is_zero():
        uomega = extend_kform(omega, SH2)
        bracket = rn_bracket(uomega, bivector_form(instance, pi, SH2))
        parts.extend(bracket.components.values())
    if extra is not None and not extra.is_zero():
        parts.append(extend_kform(extra, SH2))
    return PolyForm(instance, parts, convention=SH2)


def main_theorem_harness(instance: GradedInstance, pi: Element, N,
                         omega: DualForm, H: DualForm,
                         test_family=None) -> Report:
    """Verdict equality of the two independent computations:

    side A: pi + uN + u(omega) co-boundary for l2 + uH with square
            u(N^2) + [u(omega), pi]  (built from the omega given);
    side B: the quadruple conditions on (pi, N, -omega, H) with the scalar
            coefficient pinned to 0.

    Also certifies the arity-0..4 component decomposition of the double
    bracket, including that the arity-4 component [u(omega),[uN,uH]]
    vanishes."""
    report = Report("suite main-theorem", instance.name)
    ok_npi = compat_n_pi(instance, N, pi)
    ok_om = compat_omega_n(instance, omega, N)
    dH = differential(H)
    report.add("precondition: N o pi# = pi# o N*", "matrix identity", ok_npi)
    report.add("precondition: omega_flat o N = N* o omega_flat", "matrix identity", ok_om)
    report.add("precondition: d H = 0", "closed background", dH.is_zero(),
               counterexample=None if dH.is_zero() else dH.label())
    if not (ok_npi and ok_om and dH.is_zero()):
        return report

    mu = mu_with_background(instance, H)
    n_form = vector_valued_sum(instance, pi, N, omega)
    k_form = quadruple_square(instance, pi, N, omega)
    side_a = is_zero(nijenhuis_forms(n_form, mu, k_form)["deformation_square"], test_family)
    report.add("side A: co-boundary verdict",
               "[N,[N,mu]] = [K,mu] with N = pi + uN + u(omega), mu = l2 + uH",
               side_a.is_zero,
               detail="square u(N^2) + [u(omega),pi]; omega fed with + sign")
    report.add_certificate("side A: deformation square", "[N,[N,mu]] = [K,mu]", side_a)

    _decomposition_checks(report, instance, pi, N, omega, H, n_form, mu, test_family)

    side_b_quadruple = PQNQuadruple(instance, pi, N, omega.scale(-1), H, lam=0)
    verdict = check_pqn(side_b_quadruple)
    verdict.to_report(report, tag="side B: ")
    side_b = verdict.passes_with_lambda(0)
    report.add("side B: quadruple verdict",
               "conditions (a)-(d) at lambda = 0 on (pi, N, -omega, H)", side_b,
               detail="omega fed with - sign")
    report.add("verdict equality", "side A == side B", side_a.is_zero == side_b,
               detail=f"side A {'pass' if side_a.is_zero else 'fail'},"
                      f" side B {'pass' if side_b else 'fail'}")
    return report


def _decomposition_checks(report, instance, pi, N, omega, H, n_form, mu,
                          test_family) -> None:
    l2 = l2_form(instance, SH2)
    un = extend_bundle_map(instance, N, SH2)
    pif = bivector_form(instance, pi, SH2) if not pi.is_zero() else None
    uomega = extend_kform(omega, SH2) if not omega.is_zero() else None
    uH = extend_kform(H, SH2) if not H.is_zero() else None
    double = rn_bracket(n_form, rn_bracket(n_form, mu))

    def bracket2(a, b):
        if a is None or b is None:
            return None
        return rn_bracket(a, b)

    def accumulate(*polys):
        total = None
        for p in polys:
            if p is None:
                continue
            total = p if total is None else total + p
        return total

    def component_certificate(arity, grouping, name):
        comp = double.component(arity)
        comp_poly = (PolyForm(instance, [comp], convention=SH2)
                     if comp is not None else PolyForm(instance, [], convention=SH2))
        target = grouping if grouping is not None else PolyForm(instance, [],
                                                                convention=SH2)
        cert = is_zero(comp_poly - target, test_family)
        report.add_certificate(f"decomposition arity {arity}", name, cert)

    g0 = None
    if pif is not None:
        value = l2.evaluate((pi, pi))
        if not value.is_zero():
            g0 = element_form(instance, value, SH2)
    component_certificate(0, g0, "[[N,[N,mu]]]_0 = l2(pi,pi)")

    g1 = accumulate(
        bracket2(pif, bracket2(pif, uH)),
        bracket2(pif, rn_bracket(un, l2)),
        rn_bracket(un, rn_bracket(pif, l2)) if pif else None,
    )
    component_certificate(1, g1, "[pi,[pi,uH]] + [pi,[uN,l2]] + [uN,[pi,l2]]")

    domega = differential(omega)
    udomega = extend_kform(domega, SH2) if not domega.is_zero() else None
    g2 = accumulate(
        bracket2(pif, bracket2(un, uH)),
        rn_bracket(un, rn_bracket(pif, uH)) if pif and uH else None,
        rn_bracket(un, rn_bracket(un, l2)),
        bracket2(pif, udomega),
        rn_bracket(uomega, rn_bracket(pif, l2)) if uomega and pif else None,
    )
    component_certificate(2, g2,
                          "[pi,[uN,uH]] + [uN,[pi,uH]] + [uN,[uN,l2]]"
                          " + [pi,u(d omega)] + [u(omega),[pi,l2]]")

    g3 = accumulate(
        rn_bracket(un, rn_bracket(un, uH)) if uH else None,
        rn_bracket(un, rn_bracket(uomega, l2)) if uomega else None,
        bracket2(uomega, bracket2(pif, uH)),
        rn_bracket(uomega, rn_bracket(un, l2)) if uomega else None,
    )
    component_certificate(3,
                          g3,
                          "[uN,[uN,uH]] + [uN,[u(omega),l2]] + [u(omega),[pi,uH]]"
                          " + [u(omega),[uN,l2]]")

    g4 = rn_bracket(uomega, rn_bracket(un, uH)) if uomega and uH else None
    component_certificate(4, g4, "[[N,[N,mu]]]_4 = [u(omega),[uN,uH]]")
    if g4 is not None:
        report.add_certificate("arity 4 vanishes", "[u(omega),[uN,uH]] = 0",
                               is_zero(g4, test_family))


def section3_lemma_suite(instance: GradedInstance, pi: Element, N,
                         omega: DualForm, H: DualForm,
                         test_family=None) -> Report:
    """Checks of the dual-form extension identities.

    Every identity between vector-valued forms is one is_zero certificate on
    a combination of shared nodes; an identity that pairs form values with
    dual 1-forms is an exact comparison reporting its first failing case.
    The bracket-combination identities hold with the signs this kernel's
    conventions force (exactly measured; the concomitant combination carries
    +C and the double-pi combination carries -2H, the two flips cancelling
    in the equivalence propositions)."""
    report = Report("suite section3", instance.name)
    l2 = l2_form(instance, SH2)
    duals = unit_duals(instance)
    gens = [instance.generator(i) for i in range(instance.rank)]
    names = instance.generator_names
    un = extend_bundle_map(instance, N, SH2)
    uomega = extend_kform(omega, SH2) if not omega.is_zero() else None
    uH = extend_kform(H, SH2) if not H.is_zero() else None

    extended = [(f"u({d.label()})", extend_kform(d, SH2)) for d in duals]
    extended += [("u(omega)", uomega)] if uomega else []
    extended += [("uH", uH)] if uH else []
    for (la, fa), (lb, fb) in itertools.combinations_with_replacement(extended, 2):
        cert = is_zero(rn_bracket(fa, fb), test_family)
        report.add_certificate(f"commuting extensions [{la},{lb}]",
                               "[u(kappa), u(kappa')] = 0", cert)

    if not omega.is_zero():
        ok_om = compat_omega_n(instance, omega, N)
        report.add("compatibility omega/N", "omega_flat o N = N* o omega_flat", ok_om)
        if ok_om:
            target = extend_kform(omega_n(omega, N), SH2).scale(2)
            cert = is_zero(rn_bracket(un, uomega) - target, test_family)
            report.add_certificate("bundle map against 2-form",
                                   "[uN, u(omega)] = 2 u(omega_N)", cert)

    for label, kappa in [(d.label(), d) for d in duals] + \
            [("omega", omega)] + ([("H", H)] if not H.is_zero() else []):
        if kappa.is_zero():
            continue
        uk = extend_kform(kappa, SH2)
        dk = differential(kappa)
        lhs = rn_bracket(uk, l2)
        if dk.is_zero():
            cert = is_zero(lhs, test_family)
        else:
            cert = is_zero(lhs - extend_kform(dk, SH2), test_family)
        report.add_certificate(f"differential through the bracket ({label})",
                               "[u(kappa), l2] = u(d kappa)", cert)

    pif = bivector_form(instance, pi, SH2) if not pi.is_zero() else None
    if pif is not None:
        brackets = [instance.sn_bracket(pi, X) for X in gens]
        bad = next((f"(X,a,b) = ({names[x]}, {a.label()}, {b.label()})"
                    for x, br in enumerate(brackets)
                    for a, b in itertools.product(duals, repeat=2)
                    if element_on_duals(un.evaluate((br,)), (a, b))
                    != (element_on_duals(br, (n_star(instance, N, a), b))
                        + element_on_duals(br, (a, n_star(instance, N, b))))), None)
        report.add("derivation through the pairing",
                   "uN [pi,X](a,b) = [pi,X](N*a,b) + [pi,X](a,N*b)",
                   bad is None, counterexample=bad)

        comp = (rn_bracket(pif, rn_bracket(un, l2))
                + rn_bracket(un, rn_bracket(pif, l2))).component(1)
        bad = next((f"(X,a,b) = ({names[x]}, {a.label()}, {b.label()})"
                    for x, X in enumerate(gens)
                    for a, b in itertools.combinations(duals, 2)
                    if element_on_duals(comp.evaluate((X,)), (a, b))
                    != concomitant(instance, pi, N, a, b).apply((X,))), None)
        report.add("concomitant through the bracket",
                   "([pi,[uN,l2]] + [uN,[pi,l2]])(X)(a,b) = C(pi,N)(a,b)(X)",
                   bad is None, counterexample=bad,
                   detail="sign as this kernel's conventions force it")

        if uH is not None:
            double = rn_bracket(pif, rn_bracket(pif, uH)).component(1)
            bad = next((f"(X,a,b) = ({names[x]}, {a.label()}, {b.label()})"
                        for x, X in enumerate(gens)
                        for a, b in itertools.combinations(duals, 2)
                        if element_on_duals(double.evaluate((X,)), (a, b))
                        != -2 * H.apply((pi_sharp(pi, a), pi_sharp(pi, b), X))), None)
            report.add("double bivector against the background",
                       "[pi,[pi,uH]](X)(a,b) = -2 H(pi#a, pi#b, X)",
                       bad is None, counterexample=bad,
                       detail="sign as this kernel's conventions force it")

            def h_slot(X, Y):                   # H(X,Y,.)
                return tabulate(instance, 1, lambda Z: H.apply((X, Y, Z)))

            bad = next((f"(X,Y) = ({names[x]}, {names[y]})"
                        for (x, X), (y, Y) in itertools.product(enumerate(gens), repeat=2)
                        if not (uH.evaluate((pi, X, Y)) - pi_sharp(pi, h_slot(X, Y))).is_zero()),
                       None)
            report.add("bivector slot of the background extension",
                       "uH(pi, X, Y) = pi#(H(X,Y,.))", bad is None,
                       counterexample=bad)

        ok_npi = compat_n_pi(instance, N, pi)
        report.add("compatibility N/pi", "N o pi# = pi# o N*", ok_npi)
        if ok_npi and uH is not None:
            combo = rn_bracket(pif, rn_bracket(un, uH)) + rn_bracket(un, rn_bracket(pif, uH))
            cert = is_zero(combo.component(2) - insert(un, insert(pif, uH)).scale(2), gens)
            report.add("mixed bivector/bundle map against the background",
                       "([pi,[uN,uH]] + [uN,[pi,uH]])(X,Y) = 2uH(pi,NX,Y) + 2uH(pi,X,NY)",
                       cert.is_zero, counterexample=None if cert.is_zero else
                       "(X,Y) = (" + ", ".join(names[gens.index(el)] for el in cert.failing) + ")")

        if ok_npi:
            unpi = un.evaluate((pi,))
            lhs_m = pi_sharp_matrix(instance, unpi)
            two_n = [[2 * N[i][j] for j in range(instance.rank)]
                     for i in range(instance.rank)]
            rhs_m = matrix_mul(instance, two_n, pi_sharp_matrix(instance, pi))
            report.add("sharp of the derived bivector", "(uN pi)# = 2 N o pi#",
                       lhs_m == rhs_m)

    if uH is not None:
        un2 = extend_bundle_map(instance, matrix_square(instance, N), SH2)
        unun = insert(un, un)                       # uN o uN
        # twice the pair terms: uN in two distinct slots of uH
        twice_pairs = insert(un, insert(un, uH)) - insert(unun, uH)
        mhat = (unun - un2).scale(Fraction(1, 2))
        # [uN,[uN,uH]] - ([u(N^2),uH] + 2*pair terms - 2 uN o [uN,uH])
        section_residual = (rn_bracket(un, rn_bracket(un, uH)).component(3)
                            - rn_bracket(un2, uH).component(3) - twice_pairs
                            + insert(rn_bracket(un, uH).component(3), un).scale(2))

        def triple(cert):
            return None if cert.is_zero else \
                "(" + ", ".join(instance.basis_label(el) for el in cert.failing) + ")"

        cert = is_zero(section_residual - rn_bracket(mhat, uH).component(3).scale(2),
                       test_family)
        report.add(
            "iterated bundle map against the background",
            "[uN,[uN,uH]] = [u(N^2),uH] + 2*(pair terms + [M,uH]) - 2 uN o [uN,uH]",
            cert.is_zero, counterexample=triple(cert),
            detail="M = (uN o uN - u(N^2))/2; the pair-term-only identity holds"
                   " on section triples and is checked below")

        cert = is_zero(section_residual, gens)
        report.add("iterated bundle map, section level",
                   "[uN,[uN,uH]] = [u(N^2),uH] + 2*cyclic - 2 uN o [uN,uH] on sections",
                   cert.is_zero, counterexample=triple(cert))
    return report


def stienon_xu_harness(instance: GradedInstance, pi: Element, N,
                       omega: DualForm, alpha: DualForm,
                       test_family=None) -> Report:
    """Manifold-triple variant (no background): side A is the co-boundary
    check with square u(N^2) + [u(omega),pi] + u(alpha); side B is the
    condition list at H = 0 plus d alpha = i_N d omega - d omega_N."""
    report = Report("suite stienon-xu", instance.name)
    if alpha.k != 2:
        raise InputError("alpha must be a 2-form")
    ok_npi = compat_n_pi(instance, N, pi)
    ok_om = compat_omega_n(instance, omega, N)
    report.add("precondition: N o pi# = pi# o N*", "matrix identity", ok_npi)
    report.add("precondition: omega_flat o N = N* o omega_flat", "matrix identity", ok_om)
    if not (ok_npi and ok_om):
        return report

    l2 = l2_form(instance, SH2)
    n_form = vector_valued_sum(instance, pi, N, omega)
    k_form = quadruple_square(instance, pi, N, omega, extra=alpha)
    side_a = is_zero(nijenhuis_forms(n_form, l2, k_form)["deformation_square"], test_family)
    report.add("side A: co-boundary verdict",
               "[N,[N,l2]] = [K,l2] with square u(N^2) + [u(omega),pi] + u(alpha)",
               side_a.is_zero)
    report.add_certificate("side A: deformation square", "[N,[N,l2]] = [K,l2]", side_a)

    zero3 = DualForm.zero(instance, 3)
    quadruple = PQNQuadruple(instance, pi, N, omega.scale(-1), zero3)
    verdict = check_pqn(quadruple)
    conditions_abc = all(verdict.conditions[k][0] for k in ("a", "b", "c"))
    for name in ("a", "b", "c"):
        ok, witness = verdict.conditions[name]
        report.add(f"side B: condition ({name}) at H = 0", f"condition ({name})", ok,
                   counterexample=witness)
    domega = differential(omega)
    lhs = iota_n(domega, N) - differential(omega_n(omega, N)) - differential(alpha)
    report.add("side B: exactness condition",
               "i_N d omega - d omega_N - d alpha = 0", lhs.is_zero(),
               counterexample=None if lhs.is_zero() else lhs.label())
    side_b = conditions_abc and lhs.is_zero()
    report.add("side B: triple verdict", "conditions (a)-(c) + exactness", side_b)
    report.add("verdict equality", "side A == side B", side_a.is_zero == side_b,
               detail=f"side A {'pass' if side_a.is_zero else 'fail'},"
                      f" side B {'pass' if side_b else 'fail'}")
    return report
