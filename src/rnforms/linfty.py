"""Families of structures on the wedge algebra and the Nijenhuis checkers.

The wedge family N_k and the bracket family l_k satisfy exact rational
coefficient identities under the Richardson-Nijenhuis bracket:

    [N_i, N_j] = (j-i)(i+j-1)!/(i!j!) N_{i+j-1}
    [N_m, l_n] = C(m+n-2, m) l_{m+n-1}          (m, n >= 2)
    [l_m, l_n] = 0
    i_{N_m} l_n = (C(m+n-2, m) + C(m+n-3, m-1)) l_{m+n-1}
    i_{l_n} N_m = C(m+n-3, m-1) l_{m+n-1}

which make the span of both families a copy of the polynomial vector
fields acting on polynomials.  Degree-0 families deform degree-1
structures: the three nested Nijenhuis conditions and their deformations
are checked here with exhaustive certificates.  Every form built here is
graded negated (``NEG``), where N_k has degree 0 and l_k degree 1.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from fractions import Fraction
from math import comb, factorial

from .catalog import (extend_bundle_map, l2_form, lk_form, matrix_square, wedge_form)
from .dualforms import apply_matrix, _check_matrix
from .elements import Element
from .forms import PolyForm, VForm, as_polyform, insert, is_zero, rn_bracket
from .graded import GradingConvention
from .instances import GradedInstance, LieAlgebraData, PolyAlgebroidData
from .report import Report
from .rings import InputError

NEG = GradingConvention.NEGATED


class LInftyCandidate:
    """A degree-1 form family with its self-bracket certificate."""

    def __init__(self, mu: PolyForm, test_family=None):
        self.mu = mu
        if mu.degree not in (None, 1):
            raise InputError(f"a bracket family must have degree 1, got {mu.degree}")
        self.test_family = test_family
        self._certificate = None

    def certificate(self):
        if self._certificate is None:
            square = rn_bracket(self.mu, self.mu)
            self._certificate = is_zero(square, self.test_family)
        return self._certificate

    @property
    def is_linfty(self) -> bool:
        return self.certificate().is_zero


def pencil(instance: GradedInstance, coefficients, test_family=None) -> LInftyCandidate:
    """mu = sum_i a_i l_i from a finite coefficient list (a_1 multiplies the
    zero 1-form, so it never contributes)."""
    parts = []
    for i, a in enumerate(coefficients, start=1):
        a = Fraction(a)
        if not a or i == 1:
            continue
        form = lk_form(instance, i, NEG)
        parts.append(form if a == 1 else form.scale(a))
    mu = PolyForm(instance, parts, convention=NEG)
    return LInftyCandidate(mu, test_family)


def pairwise_compatibility(instance: GradedInstance, k_max: int, report: Report) -> None:
    if k_max < 2:
        raise InputError("the compatibility checks need k_max >= 2")
    for m in range(2, k_max + 1):
        for n in range(m, k_max + 1):
            cert = is_zero(rn_bracket(lk_form(instance, m, NEG), lk_form(instance, n, NEG)))
            report.add_certificate(f"compatibility [l{m},l{n}]",
                                   f"[l{m},l{n}] = 0", cert)


def _matches(bracket: PolyForm, coefficient: Fraction, target: VForm | None,
             test_family=None):
    """Certificate that bracket equals coefficient * target exactly."""
    if target is None or coefficient == 0:
        return is_zero(bracket, test_family)
    return is_zero(bracket - target.scale(coefficient), test_family)


def coefficient_suite(instance: GradedInstance, i_max=4, m_max=4, n_max=4,
                      test_family=None) -> Report:
    """Verification of the wedge/bracket coefficient identities: exhaustive on
    finite-dimensional instances, over the declared family otherwise."""
    if i_max < 2 or m_max < 2 or n_max < 2:
        raise InputError("suite bounds must be >= 2")
    if instance.ring.kind == "poly" and test_family is None:
        raise InputError("an infinite-dimensional instance needs a declared test family")
    report = Report("suite lemma", instance.name)
    wedges = {k: wedge_form(instance, k, NEG) for k in range(1, i_max + i_max)}
    brackets = {k: lk_form(instance, k, NEG) for k in range(2, m_max + n_max)}
    for i in range(1, i_max + 1):
        for j in range(1, i_max + 1):
            coeff = Fraction((j - i) * factorial(i + j - 1), factorial(i) * factorial(j))
            cert = _matches(rn_bracket(wedges[i], wedges[j]), coeff,
                            wedges.get(i + j - 1), test_family)
            report.add_certificate(
                f"wedge commutator ({i},{j})",
                f"[N{i},N{j}] = ({coeff}) N{i + j - 1}", cert)
    for m in range(2, m_max + 1):
        for n in range(2, n_max + 1):
            coeff = Fraction(comb(m + n - 2, m))
            cert = _matches(rn_bracket(wedges[m], brackets[n]), coeff,
                            brackets.get(m + n - 1), test_family)
            report.add_certificate(
                f"mixed commutator ({m},{n})",
                f"[N{m},l{n}] = ({coeff}) l{m + n - 1}", cert)
            cert1 = _matches(as_polyform(insert(wedges[m], brackets[n])),
                             Fraction(comb(m + n - 2, m) + comb(m + n - 3, m - 1)),
                             brackets.get(m + n - 1), test_family)
            report.add_certificate(
                f"insertion split A ({m},{n})",
                f"i_N{m} l{n} = ({comb(m + n - 2, m)}+{comb(m + n - 3, m - 1)}) l{m + n - 1}",
                cert1)
            cert2 = _matches(as_polyform(insert(brackets[n], wedges[m])),
                             Fraction(comb(m + n - 3, m - 1)), brackets.get(m + n - 1),
                             test_family)
            report.add_certificate(
                f"insertion split B ({m},{n})",
                f"i_l{n} N{m} = ({comb(m + n - 3, m - 1)}) l{m + n - 1}", cert2)
    for m in range(2, m_max + 1):
        for n in range(m, n_max + 1):
            cert = is_zero(rn_bracket(brackets[m], brackets[n]), test_family)
            report.add_certificate(f"bracket commutator ({m},{n})",
                                   f"[l{m},l{n}] = 0", cert)
    return report


def witt_action_check(instance: GradedInstance, i_max=4) -> Report:
    """The map v_i -> i! N_i, x_i -> i! l_{i+1} intertwines the polynomial
    vector field relation [v_i, v_j] = (j-i) v_{i+j-1} and the module action
    v_i[x_j] = j x_{i+j-1}.  Layered on the coefficient identities: the
    verification is exact rational arithmetic on both coefficient systems,
    with the bracket values themselves certified against the named targets."""
    if i_max < 1:
        raise InputError("the intertwining suite bound i_max must be >= 1")
    if instance.ring.kind == "poly":
        raise InputError("the intertwining suite needs a finite-dimensional instance")
    report = Report("suite witt", instance.name)
    wedges = {k: wedge_form(instance, k, NEG) for k in range(1, 2 * i_max)}
    brackets = {k: lk_form(instance, k, NEG) for k in range(2, 2 * i_max + 1)}
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
    parts = [wedge_form(instance, k, NEG).scale(c) for k, c in sorted(coeffs.items()) if c]
    return PolyForm(instance, parts, convention=NEG)


def sum_of_wedges(instance: GradedInstance, b) -> PolyForm:
    parts = []
    for i, bi in enumerate(b, start=1):
        bi = Fraction(bi)
        if bi:
            parts.append(wedge_form(instance, i, NEG).scale(bi))
    return PolyForm(instance, parts, convention=NEG)


class LazyCertificates(Mapping):
    """Certificates by name, each computed on its first read."""

    def __init__(self, thunks):
        self._thunks = thunks
        self._done = {}

    def __getitem__(self, key):
        cert = self._done.get(key)
        if cert is None:
            cert = self._done[key] = self._thunks[key]()
        return cert

    def __iter__(self):
        return iter(self._thunks)

    def __len__(self):
        return len(self._thunks)


class NijenhuisReport:
    """Structured result of the weak / co-boundary / full checks.

    Mathematical failure is data here, never an exception; the three
    certificates cover the deformation-square identity, the commuting
    square, and the weak identity, plus the deformed structure's own
    certificates.  Each certificate is computed when first read: a verdict
    reads only the ones it needs, ``to_report`` reads them all."""

    def __init__(self, kind, certificates):
        self.kind = kind
        self.certificates = certificates

    @property
    def passed(self) -> bool:
        if self.kind == "weak":
            return self.certificates["weak"].is_zero
        if self.kind == "coboundary":
            return self.certificates["deformation_square"].is_zero
        return (self.certificates["deformation_square"].is_zero
                and self.certificates["square_commutes"].is_zero)

    def to_report(self, report: Report) -> None:
        named = {
            "deformation_square": "[N,[N,mu]] = [K,mu]",
            "square_commutes": "[N,K] = 0",
            "weak": "[mu,[N,[N,mu]]] = 0",
            "deformed_self": "[[N,mu],[N,mu]] = 0",
            "deformed_compatible": "[mu,[N,mu]] = 0",
        }
        required = {"weak": ("weak",),
                    "coboundary": ("deformation_square", "weak"),
                    "full": ("deformation_square", "square_commutes", "weak")}[self.kind]
        for key, anchor in named.items():
            if key not in self.certificates:
                continue
            cert = self.certificates[key]
            if key in required or key.startswith("deformed"):
                report.add_certificate(f"{self.kind}: {key}", anchor, cert)
            else:
                report.add(f"{self.kind}: {key} (informational)", anchor, True,
                           detail=f"holds: {cert.is_zero};"
                                  " not part of the co-boundary criterion")


def _check_nijenhuis(kind, n_form, k_form, mu, test_family=None) -> NijenhuisReport:
    n_form = as_polyform(n_form)
    instance = n_form.instance
    if isinstance(mu, LInftyCandidate):
        if test_family is None:
            test_family = mu.test_family
        mu = mu.mu
    if n_form.degree not in (None, 0):
        raise InputError(f"the deforming form must have degree 0, got {n_form.degree}")
    if kind in ("coboundary", "full"):
        if k_form is None:
            raise InputError(f"the {kind} check needs a candidate square")
        k_form = as_polyform(k_form)
        if k_form.degree not in (None, 0):
            raise InputError(f"the square must have degree 0, got {k_form.degree}")
    deformed = rn_bracket(n_form, mu)
    twice = rn_bracket(n_form, deformed)

    def certify(form):
        return lambda: is_zero(form, test_family)

    thunks = {"weak": certify(rn_bracket(mu, twice))}
    if k_form is not None:
        thunks["deformation_square"] = certify(twice - rn_bracket(k_form, mu))
        thunks["square_commutes"] = certify(rn_bracket(n_form, k_form))
    thunks["deformed_self"] = certify(rn_bracket(deformed, deformed))
    thunks["deformed_compatible"] = certify(rn_bracket(mu, deformed))
    return NijenhuisReport(kind, LazyCertificates(thunks))


def check_weak(n_form, mu, test_family=None) -> NijenhuisReport:
    return _check_nijenhuis("weak", n_form, None, mu, test_family)


def check_coboundary(n_form, k_form, mu, test_family=None) -> NijenhuisReport:
    return _check_nijenhuis("coboundary", n_form, k_form, mu, test_family)


def check_full(n_form, k_form, mu, test_family=None) -> NijenhuisReport:
    return _check_nijenhuis("full", n_form, k_form, mu, test_family)


# -- deformed brackets and torsion ----------------------------------------------


def deformed_instance(instance: GradedInstance, N) -> GradedInstance:
    """The structure with bracket [X,Y]_N = [NX,Y] + [X,NY] - N[X,Y] and
    anchor rho o N.  A Lie algebroid only when N has vanishing torsion, so
    axiom validation is skipped."""
    _check_matrix(instance, N)
    ring = instance.ring
    N = [[ring.coerce(v) for v in row] for row in N]
    bracket = deformed_bracket(instance, N)
    table = {}
    for i, j in itertools.combinations(range(instance.rank), 2):
        value = bracket(instance.generator(i), instance.generator(j))
        row = {mon[0]: c for mon, c in value.terms.items()}
        if row:
            table[(i, j)] = row
    if isinstance(instance.data, LieAlgebraData):
        data = LieAlgebraData(instance.rank, instance.generator_names, table)
    else:
        base = instance.data
        anchor = [[sum((N[j][i] * base.anchor[j][m] for j in range(instance.rank)),
                       ring.zero())
                   for m in range(base.base_dim)] for i in range(instance.rank)]
        data = PolyAlgebroidData(base.base_dim, base.rank, base.coordinates,
                                 base.generator_names, anchor, table)
    return GradedInstance(data, name=f"{instance.name}(deformed)", check=False)


def deformed_bracket(instance: GradedInstance, N):
    """[X,Y]_N on wedge-degree-1 elements."""
    _check_matrix(instance, N)

    def bracket(X: Element, Y: Element) -> Element:
        NX = apply_matrix(instance, N, X)
        NY = apply_matrix(instance, N, Y)
        plain = instance.sn_bracket(X, Y)
        out = instance.sn_bracket(NX, Y) + instance.sn_bracket(X, NY)
        return out - apply_matrix(instance, N, plain)

    return bracket


def torsion(instance: GradedInstance, N):
    """Nijenhuis torsion T(X,Y) = [NX,NY] - N [X,Y]_N on sections."""
    _check_matrix(instance, N)
    bracket_n = deformed_bracket(instance, N)

    def t(X: Element, Y: Element) -> Element:
        NX = apply_matrix(instance, N, X)
        NY = apply_matrix(instance, N, Y)
        return instance.sn_bracket(NX, NY) - apply_matrix(instance, N, bracket_n(X, Y))

    return t


def torsion_alternate(instance: GradedInstance, N):
    """The equivalent formula T(X,Y) = ([X,Y]_{N,N} - [X,Y]_{N^2}) / 2."""
    _check_matrix(instance, N)
    bracket_n = deformed_bracket(instance, N)
    n_squared = matrix_square(instance, N)
    bracket_n2 = deformed_bracket(instance, n_squared)

    def twice_deformed(X, Y):
        NX = apply_matrix(instance, N, X)
        NY = apply_matrix(instance, N, Y)
        return (bracket_n(NX, Y) + bracket_n(X, NY)
                - apply_matrix(instance, N, bracket_n(X, Y)))

    def t(X: Element, Y: Element) -> Element:
        return (twice_deformed(X, Y) - bracket_n2(X, Y)).scale(Fraction(1, 2))

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


def torsion_formulas_agree(instance: GradedInstance, N) -> bool:
    t1 = torsion(instance, N)
    t2 = torsion_alternate(instance, N)
    for i, j in itertools.combinations(range(instance.rank), 2):
        X, Y = instance.generator(i), instance.generator(j)
        if not (t1(X, Y) - t2(X, Y)).is_zero():
            return False
    return True


def l2_deformed(instance: GradedInstance, N) -> VForm:
    """(P,Q) -> (-1)^p [P,Q] of the deformed structure, the same sign
    convention as the undeformed bracket form so that [uN, l2] matches it.
    Order 1: the Schouten extension of any anchored skew bracket is a
    biderivation, torsion or not."""
    deformed = deformed_instance(instance, N)

    def fn(args):
        P, Q = args
        p = P.require_homogeneous()
        value = deformed.sn_bracket(P, Q)
        return -value if p % 2 else value

    return VForm(instance, 2, -1, fn, NEG, order=1)


def deformed_l2_certificate(instance: GradedInstance, N, test_family=None):
    """[uN, l2] = l2^N, exhaustively."""
    lhs = rn_bracket(extend_bundle_map(instance, N, NEG), l2_form(instance, NEG))
    return is_zero(lhs - l2_deformed(instance, N), test_family)


def nijenhuis_deformation_theorem_check(instance: GradedInstance, N, coefficients,
                                        test_family=None) -> Report:
    """For torsion-free N: the derivation extension is fully Nijenhuis for
    the pencil structure, with square the extension of N^2.  Nonzero torsion
    is a reported precondition failure, not an exception."""
    report = Report("check nijenhuis --kind full", instance.name)
    torsion_free, witness = torsion_is_zero(instance, N)
    report.add("torsion precondition", "T(X,Y) = 0", torsion_free,
               counterexample=witness)
    if not torsion_free:
        return report
    mu = pencil(instance, coefficients, test_family)
    un = extend_bundle_map(instance, N, NEG)
    un2 = extend_bundle_map(instance, matrix_square(instance, N), NEG)
    result = check_full(un, un2, mu, test_family)
    result.to_report(report)
    return report
