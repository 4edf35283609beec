"""Command line interface.

    rnforms <command> [args] --scenario FILE [--format text|json]

Commands: validate; bracket --left EXPR --right EXPR; check linfty;
check nijenhuis --kind weak|coboundary|full; check pqn; suite lemma;
suite witt; suite main-theorem; suite stienon-xu.

Exit codes: 0 all checks pass, 1 mathematical failure, 2 input error.
JSON reports are byte-identical for identical inputs.
"""

from __future__ import annotations

import argparse
import re
import sys

from .catalog import extend_bundle_map, extend_kform, lk_form, wedge_form, bivector_form
from .forms import PolyForm, is_zero, rn_bracket
from .graded import GradingConvention
from .linfty import (check_coboundary, check_weak, coefficient_suite,
                     nijenhuis_deformation_theorem_check, pairwise_compatibility,
                     pencil, square_of_sum, sum_of_wedges, witt_action_check)
from .pqn import (PQNQuadruple, _exact_ratio, check_pqn, main_theorem_harness,
                  stienon_xu_harness)
from .report import Report
from .rings import InputError, parse_rational
from .scenario import Scenario, load_scenario

NEG = GradingConvention.NEGATED
SH2 = GradingConvention.SHIFTED2

_TERM = re.compile(r"^\s*(?:(?P<coeff>\d+(?:/\d+)?)\s*\*?\s*)?(?P<name>[A-Za-z][A-Za-z0-9]*)\s*$")


def parse_form_expression(text: str, scenario: Scenario) -> PolyForm:
    """Tiny grammar: sums of rational multiples of the named generators
    N{k}, l{k}, underlineN, underlineOmega, underlineH, pi.  Terms are
    joined by "+", "-" or "+-"; the first term may carry one of them too."""
    text = text.strip()
    if not text:
        raise InputError("empty form expression")
    parts = []
    convention = None
    signs = ""
    for token in re.findall(r"[+-]|[^+-]+", text):
        if token in "+-":
            signs += token
            continue
        piece = token.strip()
        if not piece:
            continue
        if signs not in ("+", "-", "+-") and (parts or signs):
            raise InputError(f"cannot parse the signs {signs!r} before {piece!r}"
                             f" in form expression {text!r}")
        match = _TERM.match(piece)
        if not match:
            raise InputError(f"cannot parse form term {piece!r}")
        coeff = parse_rational(match.group("coeff") or "1") * (-1 if "-" in signs else 1)
        signs = ""
        name = match.group("name")
        form = _named_form(name, scenario)
        if convention is None:
            convention = form.convention
        elif convention is not form.convention:
            raise InputError(
                f"term {name!r} uses the {form.convention.value} convention,"
                f" earlier terms use {convention.value}")
        if coeff != 1:
            form = form.scale(coeff)
        parts.append(form)
    if signs:
        raise InputError(f"form expression {text!r} ends in {signs!r}, not in a term")
    return PolyForm(scenario.instance, parts, convention=convention)


def _named_form(name: str, scenario: Scenario):
    instance = scenario.instance
    if name == "pi":
        if scenario.pi.is_zero():
            raise InputError("scenario has no bivector pi")
        return bivector_form(instance, scenario.pi, SH2)
    if name == "underlineN":
        return extend_bundle_map(instance, scenario.N, SH2)
    if name == "underlineOmega":
        if scenario.omega.is_zero():
            raise InputError("scenario has no 2-form omega")
        return extend_kform(scenario.omega, SH2)
    if name == "underlineH":
        if scenario.H.is_zero():
            raise InputError("scenario has no background 3-form")
        return extend_kform(scenario.H, SH2)
    if name.startswith("N") and name[1:].isdigit():
        if int(name[1:]) < 1:
            raise InputError(f"{name}: the wedge family N_k starts at N1")
        return wedge_form(instance, int(name[1:]), NEG)
    if name.startswith("l") and name[1:].isdigit():
        k = int(name[1:])
        if k < 2:
            raise InputError(f"{name}: the bracket family l_k starts at l2"
                             " (l1 is identically zero)")
        return lk_form(instance, k, NEG)
    raise InputError(f"unknown form name {name!r}")


def recognize(poly: PolyForm, scenario: Scenario) -> str:
    """Express a bracket value in the named catalog when possible.  Each
    component is read only through :func:`is_zero` certificates: its own,
    whose counterexample fixes the one ratio a candidate allows, and that
    of the component minus the scaled candidate, which certifies a match."""
    instance = scenario.instance
    family = scenario.test_family()
    bits = []
    for arity, comp in poly.components.items():
        found = is_zero(comp, family)
        if found.is_zero:
            continue
        value = comp.evaluate(found.failing)
        candidates = []
        if arity >= 1:
            candidates.append((f"N{arity}", wedge_form(instance, arity, comp.convention)))
        if arity >= 2:
            candidates.append((f"l{arity}", lk_form(instance, arity, comp.convention)))
        matched = None
        for name, candidate in candidates:
            if candidate.shift != comp.shift:
                continue
            cand = candidate.evaluate(found.failing)
            if cand.is_zero():
                continue
            mon, coeff = next(iter(cand.terms.items()))
            ratio = _exact_ratio(instance, value.terms.get(mon), coeff)
            # a zero ratio cannot match: the component is nonzero at the tuple
            if ratio and is_zero(comp - candidate.scale(ratio), family).is_zero:
                matched = f"{ratio}*{name}" if ratio != 1 else name
                break
        if matched is None:
            matched = (f"<arity-{arity} form outside the catalog;"
                       f" value at {tuple(instance.basis_label(el) for el in found.failing)}"
                       f" is {instance.basis_label(value)}>")
        bits.append(matched)
    return " + ".join(bits) if bits else "0"


def cmd_validate(scenario: Scenario, args) -> Report:
    return scenario.preconditions


def cmd_bracket(scenario: Scenario, args) -> Report:
    left = parse_form_expression(args.left, scenario)
    right = parse_form_expression(args.right, scenario)
    result = rn_bracket(left, right)
    report = Report("bracket", scenario.name)
    value = recognize(result, scenario)
    report.add(f"[{args.left}, {args.right}]", "Richardson-Nijenhuis bracket", True,
               detail=value)
    return report


def cmd_check_linfty(scenario: Scenario, args) -> Report:
    report = Report("check linfty", scenario.name)
    family = scenario.test_family()
    candidate = pencil(scenario.instance, scenario.pencil_coefficients, family)
    report.add_certificate("self-bracket", "[mu,mu] = 0", candidate.certificate())
    k_max = min(len(scenario.pencil_coefficients),
                max(2, scenario.instance.rank + 1))
    if scenario.instance.ring.kind == "rational":
        pairwise_compatibility(scenario.instance, max(2, k_max), report)
    return report


def cmd_check_nijenhuis(scenario: Scenario, args) -> Report:
    instance = scenario.instance
    family = scenario.test_family()
    report = Report(f"check nijenhuis --kind {args.kind}", scenario.name)
    if args.kind == "weak":
        n_form = sum_of_wedges(instance, scenario.wedge_coefficients)
        mu = pencil(instance, scenario.pencil_coefficients, family)
        result = check_weak(n_form, mu, family)
    elif args.kind == "coboundary":
        n_form = sum_of_wedges(instance, scenario.wedge_coefficients)
        square = square_of_sum(instance, scenario.wedge_coefficients, scenario.bracket_index)
        mu = lk_form(instance, scenario.bracket_index, NEG)
        result = check_coboundary(n_form, square, mu, family)
    else:
        return nijenhuis_deformation_theorem_check(
            instance, scenario.N, scenario.pencil_coefficients, family)
    result.to_report(report)
    return report


def cmd_check_pqn(scenario: Scenario, args) -> Report:
    report = Report("check pqn", scenario.name)
    quadruple = PQNQuadruple(scenario.instance, scenario.pi, scenario.N,
                             scenario.omega, scenario.H, scenario.lam)
    verdict = check_pqn(quadruple)
    verdict.to_report(report)
    return report


def cmd_suite_lemma(scenario: Scenario, args) -> Report:
    return coefficient_suite(scenario.instance, scenario.i_max, scenario.m_max,
                             scenario.n_max, scenario.test_family())


def cmd_suite_witt(scenario: Scenario, args) -> Report:
    return witt_action_check(scenario.instance, scenario.i_max)


def cmd_suite_main_theorem(scenario: Scenario, args) -> Report:
    return main_theorem_harness(scenario.instance, scenario.pi, scenario.N,
                                scenario.omega, scenario.H, scenario.test_family())


def cmd_suite_stienon_xu(scenario: Scenario, args) -> Report:
    if not scenario.H.is_zero():
        raise InputError("the manifold-triple harness needs H = 0")
    return stienon_xu_harness(scenario.instance, scenario.pi, scenario.N,
                              scenario.omega, scenario.alpha, scenario.test_family())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rnforms",
        description="Exact checks for graded bracket structures on Lie algebroids")
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate")
    bracket = sub.add_parser("bracket")
    bracket.add_argument("--left", required=True)
    bracket.add_argument("--right", required=True)
    check = sub.add_parser("check")
    check_sub = check.add_subparsers(dest="what", required=True)
    check_sub.add_parser("linfty")
    nij = check_sub.add_parser("nijenhuis")
    nij.add_argument("--kind", choices=("weak", "coboundary", "full"), required=True)
    check_sub.add_parser("pqn")
    suite = sub.add_parser("suite")
    suite_sub = suite.add_subparsers(dest="which", required=True)
    for name in ("lemma", "witt", "main-theorem", "stienon-xu"):
        suite_sub.add_parser(name)
    return parser


def dispatch(scenario: Scenario, args) -> Report:
    if args.command == "validate":
        return cmd_validate(scenario, args)
    if args.command == "bracket":
        return cmd_bracket(scenario, args)
    if args.command == "check":
        return {"linfty": cmd_check_linfty,
                "nijenhuis": cmd_check_nijenhuis,
                "pqn": cmd_check_pqn}[args.what](scenario, args)
    if args.command == "suite":
        return {"lemma": cmd_suite_lemma,
                "witt": cmd_suite_witt,
                "main-theorem": cmd_suite_main_theorem,
                "stienon-xu": cmd_suite_stienon_xu}[args.which](scenario, args)
    raise InputError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        scenario = load_scenario(args.scenario)
        report = dispatch(scenario, args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    print(report.to_json() if args.format == "json" else report.to_text())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
