"""Poisson bivectors, Koszul brackets, the Magri-Morosi concomitant, and the
exact Poisson quasi-Nijenhuis checker with background, plus the equivalence
harnesses that compare the tensor-calculus conditions against the bracket
computation on vector-valued forms.

Harness structure: side A is the co-boundary condition of pi + uN +
u(omega) for l2 + uH with square u(N^2) + [u(omega), pi], one ``is_zero``
certificate on the ``deformation_square`` form of ``nijenhuis_forms`` (the
other Nijenhuis forms are not certified); side B evaluates the quadruple
conditions directly through Koszul brackets, torsion and the background
combination.  A Koszul bracket is one ``tabulate``: its value on each
generator, read off the definitions of the Lie derivative and the
differential.  Conditions (a)-(c) come from one function,
``quadruple_conditions``.  ``check_pqn`` writes the preconditions, (a)-(c)
and condition (d) with its solved scalar as entries into the report it is
given and returns whether they all pass; the Stienon-Xu harness (no
background) reports (a)-(c) and the exactness of the 2-form term instead.
The two verdicts are computed independently and asserted equal.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .catalog import (bivector_form, extend_bundle_map, extend_kform, l2_form,
                      matrix_square)
from .dualforms import (DualForm, apply_matrix, background_script, check_matrix,
                        compat_n_pi, compat_omega_n, differential, iota_n, n_star,
                        omega_n, pi_sharp, tabulate, unit_duals)
from .elements import Element
from .forms import PolyForm, element_form, is_zero, rn_bracket
from .instances import GradedInstance
from .linfty import deformed_instance, nijenhuis_forms, torsion
from .report import Report
from .rings import InputError, format_rational


# -- Koszul bracket and concomitant ---------------------------------------------


def koszul_bracket(instance: GradedInstance, pi: Element, alpha: DualForm,
                   beta: DualForm) -> DualForm:
    """{a,b} = L_{pi# a} b - L_{pi# b} a - d(pi(a,b)) on 1-forms, read on
    each generator Y through (L_X b)(Y) = rho(X) b(Y) - b([X,Y]) and
    (d f)(Y) = rho(Y) f, with the instance's anchor and bracket (pass a
    deformed instance for the deformed bracket's Koszul bracket).
    pi(a,b) is read as <b, pi# a>, the determinant convention of
    ``pi_sharp``."""
    if alpha.k != 1 or beta.k != 1:
        raise InputError("the Koszul bracket acts on 1-forms")
    pa, pb = pi_sharp(pi, alpha), pi_sharp(pi, beta)
    pairing = beta.apply((pa,))                 # pi(a,b)
    rho, bracket = instance.anchor_on_function, instance.sn_bracket

    def value(Y):
        return (rho(pa, beta.apply((Y,))) - beta.apply((bracket(pa, Y),))
                - rho(pb, alpha.apply((Y,))) + alpha.apply((bracket(pb, Y),))
                - rho(Y, pairing))

    return tabulate(instance, 1, value)


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


# -- quadruple conditions --------------------------------------------------------

CONDITION_ANCHORS = {
    "a": "[pi,pi] = 0",
    "b": "C(pi,N)(a,b) = 2 H(pi#a, pi#b, .)",
    "c": "T(X,Y) = pi#(-H(NX,Y,.) - H(X,NY,.) + d omega(X,Y,.))",
    "d": "i_N d omega - d omega_N - script_H = lambda H",
}


def _shape_checked(instance: GradedInstance, pi: Element, N, omega: DualForm,
                   H: DualForm) -> tuple:
    """N coerced to the instance's ring, once pi is checked to be a
    bivector, N a matrix of the rank, omega a 2-form and H a 3-form."""
    if not pi.is_zero() and pi.require_homogeneous() != 2:
        raise InputError("pi must be a bivector")
    N = check_matrix(instance, N)
    if omega.k != 2 or H.k != 3:
        raise InputError("omega must be a 2-form and H a 3-form")
    return N


def solve_scalar_ratio(lhs: DualForm, target: DualForm):
    """Exact rational lambda with lhs = lambda * target, or None, with its
    note.  The one candidate is the ratio at the target's first entry
    (``exact_ratio``), accepted iff lhs == lambda * target."""
    if target.is_zero():
        return (Fraction(0), "forced 0 (target form vanishes)") if lhs.is_zero() else (None, "no scalar fits")
    mon, value = next(iter(target.table.items()))
    lam = exact_ratio(lhs.table.get(mon), value)
    if lam is None or lhs != target.scale(lam):
        return None, "no scalar fits"
    return lam, f"lambda = {format_rational(lam)}"


def exact_ratio(numerator, denominator):
    """The scalar lam with numerator = lam * denominator (two coefficients
    of one ring; 0 when the numerator is None or zero), or None when no
    scalar fits."""
    if not numerator:
        return Fraction(0)
    # the only candidate: the ratio at the denominator's first term
    expo, c = denominator.terms()[0]
    lam = Fraction(dict(numerator.terms()).get(expo, 0), c)
    return lam if denominator * lam == numerator else None


def _vanishing(form: DualForm):
    """(form = 0, the form's label as the witness when it is not)."""
    return (True, None) if form.is_zero() else (False, form.label())


def quadruple_conditions(instance: GradedInstance, pi: Element, N, omega: DualForm,
                         H: DualForm) -> dict:
    """Conditions (a)-(c) of the quadruple as {name: (holds, witness)}: pi
    is Poisson, the concomitant is twice H on sharps, and the torsion of N
    is the sharp of the background and d omega terms."""
    N = _shape_checked(instance, pi, N, omega, H)
    poisson = instance.sn_bracket(pi, pi)
    conditions = {"a": (poisson.is_zero(),
                        None if poisson.is_zero() else instance.basis_label(poisson))}

    gens = [instance.generator(m) for m in range(instance.rank)]
    names = instance.generator_names

    def twice_h_on_sharps(a, b):        # 2 H(pi#a, pi#b, .)
        pa, pb = pi_sharp(pi, a), pi_sharp(pi, b)
        return tabulate(instance, 1, lambda Z: 2 * H.apply((pa, pb, Z)))

    bad = next((f"(a,b) = ({a.label()}, {b.label()})"
                for a, b in itertools.combinations(unit_duals(instance), 2)
                if not (concomitant(instance, pi, N, a, b) - twice_h_on_sharps(a, b)).is_zero()),
               None)
    conditions["b"] = (bad is None, bad)

    t = torsion(instance, N)
    domega = differential(omega)

    def torsion_target(X, Y):           # pi#(-H(NX,Y,.) - H(X,NY,.) + d omega(X,Y,.))
        NX, NY = apply_matrix(instance, N, X), apply_matrix(instance, N, Y)
        return pi_sharp(pi, tabulate(instance, 1, lambda Z: (
            -H.apply((NX, Y, Z)) - H.apply((X, NY, Z)) + domega.apply((X, Y, Z)))))

    bad = next((f"(X,Y) = ({names[i]}, {names[j]})"
                for i, j in itertools.combinations(range(instance.rank), 2)
                if not (t(gens[i], gens[j]) - torsion_target(gens[i], gens[j])).is_zero()),
               None)
    conditions["c"] = (bad is None, bad)
    return conditions


def check_pqn(report: Report, instance: GradedInstance, pi: Element, N, omega: DualForm,
              H: DualForm, lam=None, tag="") -> bool:
    """Add the quadruple's entries to ``report``, each name prefixed by
    ``tag``: its three preconditions, conditions (a)-(d) and the scalar
    coefficient of (d), solved by exact linear algebra (a declared ``lam``
    that differs fails (d)).  Returns whether every entry added passes."""
    N = _shape_checked(instance, pi, N, omega, H)
    first = len(report.checks)
    ok_npi, ok_om = compat_n_pi(instance, N, pi), compat_omega_n(instance, omega, N)
    for name, (ok, witness) in {"N o pi# = pi# o N*": (ok_npi, None),
                                "omega_flat o N = N* o omega_flat": (ok_om, None),
                                "d H = 0": _vanishing(differential(H))}.items():
        report.add(f"{tag}precondition: {name}", name, ok, counterexample=witness)
    conditions = quadruple_conditions(instance, pi, N, omega, H)
    solved = note = None
    if not ok_om:
        conditions["d"] = (False, "omega_N undefined (compatibility fails)")
    else:
        lhs_d = (iota_n(differential(omega), N) - differential(omega_n(omega, N))
                 - background_script(H, N))
        solved, note = solve_scalar_ratio(lhs_d, H)
        if solved is None:
            conditions["d"] = (False, "no scalar fits")
        elif lam is not None and solved != Fraction(lam):
            conditions["d"] = (False, f"solved lambda {format_rational(solved)}"
                                      f" != declared {format_rational(Fraction(lam))}")
        else:
            conditions["d"] = _vanishing(lhs_d - H.scale(solved))
    for name, (ok, witness) in conditions.items():
        report.add(f"{tag}condition ({name})", CONDITION_ANCHORS[name], ok,
                   counterexample=witness)
    report.add(f"{tag}lambda", "solved scalar coefficient", solved is not None,
               detail=note)
    return all(c.passed for c in report.checks[first:])


# -- background structures ---------------------------------------------------------


def mu_with_background(instance: GradedInstance, H: DualForm) -> PolyForm:
    """l2 + uH as a degree-1 family.  Raises InputError when H is not
    closed, exhibiting the differential."""
    if H.k != 3:
        raise InputError("the background must be a 3-form")
    dH = differential(H)
    if not dH.is_zero():
        raise InputError(f"background 3-form is not closed: dH = {dH.label()}")
    parts = [l2_form(instance)]
    if not H.is_zero():
        parts.append(extend_kform(H))
    return PolyForm(instance, parts)


def vector_valued_sum(instance: GradedInstance, pi: Element, N,
                      omega: DualForm) -> PolyForm:
    """pi + uN + u(omega), the degree-0 form of the quadruple harness."""
    parts = []
    if not pi.is_zero():
        parts.append(bivector_form(instance, pi))
    parts.append(extend_bundle_map(instance, N))
    if not omega.is_zero():
        parts.append(extend_kform(omega))
    return PolyForm(instance, parts)


def quadruple_square(instance: GradedInstance, pi: Element, N,
                     omega: DualForm, extra: DualForm | None = None) -> PolyForm:
    """u(N^2) + [u(omega), pi] (+ u(alpha) for the manifold-triple variant)."""
    parts = [extend_bundle_map(instance, matrix_square(instance, N))]
    if not omega.is_zero() and not pi.is_zero():
        uomega = extend_kform(omega)
        bracket = rn_bracket(uomega, bivector_form(instance, pi))
        parts.extend(bracket.components.values())
    if extra is not None and not extra.is_zero():
        parts.append(extend_kform(extra))
    return PolyForm(instance, parts)


def _matrix_preconditions(report: Report, instance: GradedInstance, pi: Element, N,
                          omega: DualForm) -> bool:
    """Report the two matrix identities both harnesses need; True when both
    hold."""
    ok_npi = compat_n_pi(instance, N, pi)
    ok_om = compat_omega_n(instance, omega, N)
    report.add("precondition: N o pi# = pi# o N*", "matrix identity", ok_npi)
    report.add("precondition: omega_flat o N = N* o omega_flat", "matrix identity", ok_om)
    return ok_npi and ok_om


def _side_a(report: Report, n_form: PolyForm, mu: PolyForm, square: PolyForm,
            identity: str, setting: str, detail=None) -> bool:
    """Side A: the one certificate, on the deformation square of n_form for
    mu, reported as the co-boundary verdict and as the certificate."""
    cert = is_zero(nijenhuis_forms(n_form, mu, square)["deformation_square"])
    report.add("side A: co-boundary verdict", f"{identity} with {setting}", cert.is_zero,
               detail=detail)
    report.add_certificate("side A: deformation square", identity, cert)
    return cert.is_zero


def _verdict_equality(report: Report, side_a: bool, side_b: bool) -> Report:
    report.add("verdict equality", "side A == side B", side_a == side_b,
               detail=f"side A {'pass' if side_a else 'fail'},"
                      f" side B {'pass' if side_b else 'fail'}")
    return report


def main_theorem_harness(instance: GradedInstance, pi: Element, N,
                         omega: DualForm, H: DualForm) -> Report:
    """Verdict equality of the two independent computations:

    side A: pi + uN + u(omega) co-boundary for l2 + uH with square
            u(N^2) + [u(omega), pi]  (built from the omega given);
    side B: the quadruple conditions on (pi, N, -omega, H) with the scalar
            coefficient pinned to 0.

    Also certifies the arity-0..4 component decomposition of the double
    bracket, including that the arity-4 component [u(omega),[uN,uH]]
    vanishes."""
    report = Report("suite main-theorem", instance.name)
    matrices = _matrix_preconditions(report, instance, pi, N, omega)
    closed, witness = _vanishing(differential(H))
    report.add("precondition: d H = 0", "closed background", closed, counterexample=witness)
    if not (matrices and closed):
        return report

    mu = mu_with_background(instance, H)
    n_form = vector_valued_sum(instance, pi, N, omega)
    side_a = _side_a(report, n_form, mu, quadruple_square(instance, pi, N, omega),
                     "[N,[N,mu]] = [K,mu]",
                     "N = pi + uN + u(omega), mu = l2 + uH",
                     detail="square u(N^2) + [u(omega),pi]; omega fed with + sign")

    _decomposition_checks(report, instance, pi, N, omega, H, n_form, mu)

    side_b = check_pqn(report, instance, pi, N, omega.scale(-1), H, lam=0, tag="side B: ")
    report.add("side B: quadruple verdict",
               "conditions (a)-(d) at lambda = 0 on (pi, N, -omega, H)", side_b,
               detail="omega fed with - sign")
    return _verdict_equality(report, side_a, side_b)


def _nested(*factors):
    """[f1,[f2,...,[f(n-1),fn]...]], or None when a factor is None (zero)."""
    if any(f is None for f in factors):
        return None
    form = factors[-1]
    for f in reversed(factors[:-1]):
        form = rn_bracket(f, form)
    return form


def _decomposition_checks(report, instance, pi, N, omega, H, n_form, mu) -> None:
    """One certificate per arity: the component of [N,[N,mu]] equals the sum
    of its terms, each a nested bracket (None when a factor is zero)."""
    l2 = l2_form(instance)
    un = extend_bundle_map(instance, N)
    pif = bivector_form(instance, pi) if not pi.is_zero() else None
    uomega, uH = (extend_kform(k) if not k.is_zero() else None for k in (omega, H))
    double = rn_bracket(n_form, rn_bracket(n_form, mu))
    pair = instance.sn_bracket(pi, pi)     # l2(pi,pi) = [pi,pi]
    g4 = _nested(uomega, un, uH)
    rows = [
        (0, [None if pair.is_zero() else element_form(instance, pair)],
         "[[N,[N,mu]]]_0 = l2(pi,pi)"),
        (1, [_nested(pif, pif, uH), _nested(pif, un, l2), _nested(un, pif, l2)],
         "[pi,[pi,uH]] + [pi,[uN,l2]] + [uN,[pi,l2]]"),
        (2, [_nested(pif, un, uH), _nested(un, pif, uH), _nested(un, un, l2),
             _nested(pif, uomega, l2), _nested(uomega, pif, l2)],
         "[pi,[uN,uH]] + [uN,[pi,uH]] + [uN,[uN,l2]] + [pi,[u(omega),l2]]"
         " + [u(omega),[pi,l2]]"),
        (3, [_nested(un, un, uH), _nested(un, uomega, l2), _nested(uomega, pif, uH),
             _nested(uomega, un, l2)],
         "[uN,[uN,uH]] + [uN,[u(omega),l2]] + [u(omega),[pi,uH]] + [u(omega),[uN,l2]]"),
        (4, [g4], "[[N,[N,mu]]]_4 = [u(omega),[uN,uH]]"),
    ]
    zero = PolyForm(instance, [])
    for arity, terms, anchor in rows:
        comp = double.component(arity)
        lhs = PolyForm(instance, [] if comp is None else [comp])
        target = sum((term for term in terms if term is not None), zero)
        report.add_certificate(f"decomposition arity {arity}", anchor,
                               is_zero(lhs - target))
    if g4 is not None:
        report.add_certificate("arity 4 vanishes", "[u(omega),[uN,uH]] = 0",
                               is_zero(g4))


def stienon_xu_harness(instance: GradedInstance, pi: Element, N,
                       omega: DualForm, alpha: DualForm) -> Report:
    """Manifold-triple variant (no background): side A is the co-boundary
    check with square u(N^2) + [u(omega),pi] + u(alpha); side B is
    conditions (a)-(c) at H = 0 plus d alpha = i_N d omega - d omega_N."""
    report = Report("suite stienon-xu", instance.name)
    if alpha.k != 2:
        raise InputError("alpha must be a 2-form")
    if not _matrix_preconditions(report, instance, pi, N, omega):
        return report

    side_a = _side_a(report, vector_valued_sum(instance, pi, N, omega),
                     l2_form(instance),
                     quadruple_square(instance, pi, N, omega, extra=alpha),
                     "[N,[N,l2]] = [K,l2]", "square u(N^2) + [u(omega),pi] + u(alpha)")

    conditions = quadruple_conditions(instance, pi, N, omega.scale(-1),
                                      DualForm.zero(instance, 3))
    for name, (ok, witness) in conditions.items():
        report.add(f"side B: condition ({name}) at H = 0", f"condition ({name})", ok,
                   counterexample=witness)
    exact, witness = _vanishing(iota_n(differential(omega), N)
                                - differential(omega_n(omega, N)) - differential(alpha))
    report.add("side B: exactness condition",
               "i_N d omega - d omega_N - d alpha = 0", exact, counterexample=witness)
    side_b = exact and all(ok for ok, _ in conditions.values())
    report.add("side B: triple verdict", "conditions (a)-(c) + exactness", side_b)
    return _verdict_equality(report, side_a, side_b)
