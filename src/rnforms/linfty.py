"""Families of structures on the wedge algebra and the Nijenhuis conditions.

The wedge family N_k and the bracket family l_k satisfy exact rational
coefficient identities under the Richardson-Nijenhuis bracket:

    [N_i, N_j] = (j-i)(i+j-1)!/(i!j!) N_{i+j-1}
    [N_m, l_n] = C(m+n-2, m) l_{m+n-1}          (m, n >= 2)
    [l_m, l_n] = 0
    i_{N_m} l_n = (C(m+n-2, m) + C(m+n-3, m-1)) l_{m+n-1}
    i_{l_n} N_m = C(m+n-3, m-1) l_{m+n-1}

which make the span of both families a copy of the polynomial vector
fields acting on polynomials.  Degree-0 families deform degree-1
structures: ``nijenhuis_forms`` names the form of each of the three nested
Nijenhuis conditions and of the deformed structure's own identities, and a
caller certifies with ``is_zero`` the ones it reads (``report_nijenhuis``
certifies those of one kind into a report).  The forms carry no grading:
``nijenhuis_forms`` checks the degrees of its operands in each grading of
``graded.GradingConvention`` and keeps those in which all of them fit, the
negated one for N_k (degree 0) and l_k (degree 1), the shifted-by-2 one for
the PQN structure pi + uN + u(omega) and l2 + uH.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial

from .catalog import extend_bundle_map, lk_form, matrix_square, wedge_form
from .dualforms import apply_matrix, check_matrix
from .elements import Element
from .forms import PolyForm, VForm, as_polyform, insert, is_zero, rn_bracket
from .graded import GradingConvention
from .instances import GradedInstance, PolyAlgebroidData
from .report import Report
from .rings import InputError, format_rational


def pencil(instance: GradedInstance, coefficients) -> PolyForm:
    """mu = sum_i a_i l_i from a finite coefficient list (a_1 multiplies the
    zero 1-form, so it never contributes)."""
    parts = []
    for i, a in enumerate(coefficients, start=1):
        a = Fraction(a)
        if not a or i == 1:
            continue
        form = lk_form(instance, i)
        parts.append(form if a == 1 else form.scale(a))
    return PolyForm(instance, parts)


def pairwise_compatibility(instance: GradedInstance, k_max: int, report: Report) -> None:
    if k_max < 2:
        raise InputError("the compatibility checks need k_max >= 2")
    for m in range(2, k_max + 1):
        for n in range(m, k_max + 1):
            cert = is_zero(rn_bracket(lk_form(instance, m), lk_form(instance, n)))
            report.add_certificate(f"compatibility [l{m},l{n}]",
                                   f"[l{m},l{n}] = 0", cert)


def _matches(bracket: PolyForm, coefficient: Fraction, target: VForm | None):
    """Certificate that bracket equals coefficient * target exactly."""
    if target is None or coefficient == 0:
        return is_zero(bracket)
    return is_zero(bracket - target.scale(coefficient))


def coefficient_suite(instance: GradedInstance, i_max, m_max, n_max) -> Report:
    """Verification of the wedge/bracket coefficient identities: exhaustive on
    finite-dimensional instances, over the instance's declared family
    otherwise."""
    if i_max < 2 or m_max < 2 or n_max < 2:
        raise InputError("suite bounds must be >= 2")
    report = Report("suite lemma", instance.name)
    wedges = {k: wedge_form(instance, k) for k in range(1, i_max + i_max)}
    brackets = {k: lk_form(instance, k) for k in range(2, m_max + n_max)}
    for i in range(1, i_max + 1):
        for j in range(1, i_max + 1):
            coeff = Fraction((j - i) * factorial(i + j - 1), factorial(i) * factorial(j))
            cert = _matches(rn_bracket(wedges[i], wedges[j]), coeff, wedges.get(i + j - 1))
            report.add_certificate(
                f"wedge commutator ({i},{j})",
                f"[N{i},N{j}] = ({format_rational(coeff)}) N{i + j - 1}", cert)
    for m in range(2, m_max + 1):
        for n in range(2, n_max + 1):
            coeff = Fraction(comb(m + n - 2, m))
            cert = _matches(rn_bracket(wedges[m], brackets[n]), coeff, brackets.get(m + n - 1))
            report.add_certificate(
                f"mixed commutator ({m},{n})",
                f"[N{m},l{n}] = ({format_rational(coeff)}) l{m + n - 1}", cert)
            cert1 = _matches(as_polyform(insert(wedges[m], brackets[n])),
                             Fraction(comb(m + n - 2, m) + comb(m + n - 3, m - 1)),
                             brackets.get(m + n - 1))
            report.add_certificate(
                f"insertion split A ({m},{n})",
                f"i_N{m} l{n} = ({comb(m + n - 2, m)}+{comb(m + n - 3, m - 1)}) l{m + n - 1}",
                cert1)
            cert2 = _matches(as_polyform(insert(brackets[n], wedges[m])),
                             Fraction(comb(m + n - 3, m - 1)), brackets.get(m + n - 1))
            report.add_certificate(
                f"insertion split B ({m},{n})",
                f"i_l{n} N{m} = ({comb(m + n - 3, m - 1)}) l{m + n - 1}", cert2)
    for m in range(2, m_max + 1):
        for n in range(m, n_max + 1):
            cert = is_zero(rn_bracket(brackets[m], brackets[n]))
            report.add_certificate(f"bracket commutator ({m},{n})",
                                   f"[l{m},l{n}] = 0", cert)
    return report


def witt_action_check(instance: GradedInstance, i_max) -> Report:
    """The map v_i -> i! N_i, x_i -> i! l_{i+1} intertwines the polynomial
    vector field relation [v_i, v_j] = (j-i) v_{i+j-1} and the module action
    v_i[x_j] = j x_{i+j-1}.  Layered on the coefficient identities: the
    verification is exact rational arithmetic on both coefficient systems,
    with the bracket values themselves certified against the named targets."""
    if i_max < 1:
        raise InputError("the intertwining suite bound i_max must be >= 1")
    if instance.data.base_dim:
        raise InputError("the intertwining suite needs a finite-dimensional instance")
    report = Report("suite witt", instance.name)
    wedges = {k: wedge_form(instance, k) for k in range(1, 2 * i_max)}
    brackets = {k: lk_form(instance, k) for k in range(2, 2 * i_max + 1)}
    for i in range(1, i_max + 1):
        for j in range(1, i_max + 1):
            lhs = rn_bracket(wedges[i].scale(factorial(i)), wedges[j].scale(factorial(j)))
            coeff = Fraction((j - i) * factorial(i + j - 1))
            cert = _matches(lhs, coeff, wedges.get(i + j - 1))
            report.add_certificate(
                f"vector field relation ({i},{j})",
                f"[i! N{i}, j! N{j}] = (j-i) (i+j-1)! N{i + j - 1}", cert)
    for i in range(1, i_max + 1):
        for j in range(1, i_max + 1):
            lhs = rn_bracket(wedges[i].scale(factorial(i)),
                             brackets[j + 1].scale(factorial(j)))
            coeff = Fraction(j * factorial(i + j - 1))
            cert = _matches(lhs, coeff, brackets.get(i + j))
            report.add_certificate(
                f"module action ({i},{j})",
                f"[i! N{i}, j! l{j + 1}] = j (i+j-1)! l{i + j}", cert)
    return report


def square_of_sum(instance: GradedInstance, b, n: int) -> PolyForm:
    """The explicit square making sum_i b_i N_i co-boundary for l_n:
    sum_{i,j} b_i b_j C(i+n-2,i) C(j+i+n-3,j) / C(j+i+n-3,i+j-1) N_{i+j-1}."""
    if n < 2:
        raise InputError("the square formula needs n >= 2")
    b = [Fraction(v) for v in b]
    coeffs: dict[int, Fraction] = {}
    for i, bi in enumerate(b, start=1):
        for j, bj in enumerate(b, start=1):
            if not bi or not bj:
                continue
            num = comb(i + n - 2, i) * comb(j + i + n - 3, j)
            den = comb(j + i + n - 3, i + j - 1)
            k = i + j - 1
            coeffs[k] = coeffs.get(k, Fraction(0)) + bi * bj * Fraction(num, den)
    parts = [wedge_form(instance, k).scale(c) for k, c in sorted(coeffs.items()) if c]
    return PolyForm(instance, parts)


def sum_of_wedges(instance: GradedInstance, b) -> PolyForm:
    parts = []
    for i, bi in enumerate(b, start=1):
        bi = Fraction(bi)
        if bi:
            parts.append(wedge_form(instance, i).scale(bi))
    return PolyForm(instance, parts)


# each Nijenhuis form's identity, in the order reports list them
_IDENTITIES = {
    "deformation_square": "[N,[N,mu]] = [K,mu]",
    "square_commutes": "[N,K] = 0",
    "weak": "[mu,[N,[N,mu]]] = 0",
    "deformed_self": "[[N,mu],[N,mu]] = 0",
    "deformed_compatible": "[mu,[N,mu]] = 0",
}
_REQUIRED = {"weak": ("weak",),
             "coboundary": ("deformation_square", "weak"),
             "full": ("deformation_square", "square_commutes", "weak")}


def nijenhuis_forms(n_form, mu, k_form=None) -> dict:
    """The Nijenhuis conditions of the degree-0 form N for the degree-1
    family mu, by name, each as the form that vanishes exactly when it holds:

        weak                 [mu,[N,[N,mu]]] = 0
        deformation_square   [N,[N,mu]] = [K,mu]    (given a square K)
        square_commutes      [N,K] = 0              (given a square K)
        deformed_self        [[N,mu],[N,mu]] = 0
        deformed_compatible  [mu,[N,mu]] = 0

    N is weak Nijenhuis when ``weak`` vanishes, co-boundary Nijenhuis when
    ``deformation_square`` does, and Nijenhuis when ``square_commutes`` does
    too.  Building the forms evaluates nothing: a caller certifies with
    :func:`is_zero` only the ones it reads.

    The degrees are checked in mu, N, K order, each in the gradings that
    its predecessors left: InputError when no grading gives every component
    the wanted degree, listing the degrees in the first grading left."""
    mu = as_polyform(mu)
    n_form = as_polyform(n_form)
    checks = [(mu, 1, "a bracket family"), (n_form, 0, "the deforming form")]
    if k_form is not None:
        k_form = as_polyform(k_form)
        checks.append((k_form, 0, "the square"))
    gradings = list(GradingConvention)
    for form, wanted, what in checks:
        fits = [g for g in gradings if _degrees(form, g) <= {wanted}]
        if not fits:
            got = ", ".join(map(str, sorted(_degrees(form, gradings[0]))))
            raise InputError(f"{what} must have degree {wanted}, got {got}")
        gradings = fits
    deformed = rn_bracket(n_form, mu)
    twice = rn_bracket(n_form, deformed)
    forms = {"weak": rn_bracket(mu, twice)}
    if k_form is not None:
        forms["deformation_square"] = twice - rn_bracket(k_form, mu)
        forms["square_commutes"] = rn_bracket(n_form, k_form)
    forms["deformed_self"] = rn_bracket(deformed, deformed)
    forms["deformed_compatible"] = rn_bracket(mu, deformed)
    return forms


def _degrees(form: PolyForm, grading: GradingConvention) -> set:
    """The degrees of the components of ``form`` in ``grading``."""
    return {grading.form_degree(comp.arity, comp.shift) for comp in form.components.values()}


def report_nijenhuis(report: Report, kind, forms) -> None:
    """Certify the ``nijenhuis_forms`` of a weak, co-boundary or full check
    into ``report``: the forms the kind requires and the ``deformed_*`` ones
    as certificates, the others as informational entries.  Mathematical
    failure is data here, never an exception."""
    required = _REQUIRED[kind]
    if kind != "weak" and "deformation_square" not in forms:
        raise InputError(f"the {kind} check needs a candidate square")
    for key, anchor in _IDENTITIES.items():
        if key not in forms:
            continue
        cert = is_zero(forms[key])
        if key in required or key.startswith("deformed"):
            report.add_certificate(f"{kind}: {key}", anchor, cert)
        else:
            report.add(f"{kind}: {key} (informational)", anchor, True,
                       detail=f"holds: {cert.is_zero};"
                              " not part of the co-boundary criterion")


# -- deformed brackets and torsion ----------------------------------------------


def deformed_instance(instance: GradedInstance, N) -> GradedInstance:
    """The structure with bracket [X,Y]_N = [NX,Y] + [X,NY] - N[X,Y] and
    anchor rho o N, declaring the same test family.  A Lie algebroid only
    when N has vanishing torsion, so axiom validation is skipped."""
    N = check_matrix(instance, N)
    ring = instance.ring
    bracket = deformed_bracket(instance, N)
    table = {}
    for i, j in itertools.combinations(range(instance.rank), 2):
        value = bracket(instance.generator(i), instance.generator(j))
        row = {mon[0]: c for mon, c in value.terms.items()}
        if row:
            table[(i, j)] = row
    base = instance.data
    anchor = [[sum((N[j][i] * base.anchor[j][m] for j in range(instance.rank)), ring.zero())
               for m in range(base.base_dim)] for i in range(instance.rank)]
    data = PolyAlgebroidData(base.base_dim, base.rank, base.coordinates,
                             base.generator_names, anchor, table)
    return GradedInstance(data, name=f"{instance.name}(deformed)", check=False,
                          poly_degree_bound=instance.poly_degree_bound)


def deformed_bracket(instance: GradedInstance, N):
    """[X,Y]_N on wedge-degree-1 elements."""
    N = check_matrix(instance, N)

    def bracket(X: Element, Y: Element) -> Element:
        NX = apply_matrix(instance, N, X)
        NY = apply_matrix(instance, N, Y)
        plain = instance.sn_bracket(X, Y)
        out = instance.sn_bracket(NX, Y) + instance.sn_bracket(X, NY)
        return out - apply_matrix(instance, N, plain)

    return bracket


def torsion(instance: GradedInstance, N):
    """Nijenhuis torsion T(X,Y) = [NX,NY] - N [X,Y]_N on sections."""
    N = check_matrix(instance, N)
    bracket_n = deformed_bracket(instance, N)

    def t(X: Element, Y: Element) -> Element:
        NX = apply_matrix(instance, N, X)
        NY = apply_matrix(instance, N, Y)
        return instance.sn_bracket(NX, NY) - apply_matrix(instance, N, bracket_n(X, Y))

    return t


def torsion_is_zero(instance: GradedInstance, N) -> tuple[bool, str | None]:
    """Exact torsion test on generator pairs (the torsion is tensorial)."""
    t = torsion(instance, N)
    for i, j in itertools.combinations(range(instance.rank), 2):
        value = t(instance.generator(i), instance.generator(j))
        if not value.is_zero():
            names = instance.generator_names
            return False, f"T({names[i]},{names[j]}) = {instance.basis_label(value)}"
    return True, None


def nijenhuis_deformation_theorem_check(instance: GradedInstance, N, coefficients) -> Report:
    """For torsion-free N: the derivation extension is fully Nijenhuis for
    the pencil structure, with square the extension of N^2.  Nonzero torsion
    is a reported precondition failure, not an exception."""
    report = Report("check nijenhuis --kind full", instance.name)
    torsion_free, witness = torsion_is_zero(instance, N)
    report.add("torsion precondition", "T(X,Y) = 0", torsion_free,
               counterexample=witness)
    if not torsion_free:
        return report
    mu = pencil(instance, coefficients)
    un = extend_bundle_map(instance, N)
    un2 = extend_bundle_map(instance, matrix_square(instance, N))
    report_nijenhuis(report, "full", nijenhuis_forms(un, mu, un2))
    return report
