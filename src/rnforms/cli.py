"""Command line interface.

    rnforms --scenario FILE [--format text|json] COMMAND... [--OPTION VALUE]...

``COMMANDS`` lists each command's words, handler and options, and
``rnforms -h`` prints it.  Exit codes: 0 all checks pass, 1 mathematical
failure, 2 input error, 3 internal error (any other exception, a write
error on stdout included, one line on stderr).  A message that cannot be
written to stderr is dropped and leaves the exit code as it is.  JSON
reports are byte-identical for identical inputs.

``main`` returns the exit code and never exits, for in-process callers.
The process entry point ``run`` (``python -m rnforms.cli`` and the
installed ``rnforms``) flushes stdout and stderr after ``main`` and ends
with ``os._exit``: once the report is written, the interpreter's
finalization (tearing down modules, freeing objects, ``atexit``
callbacks) only costs time.  Under a profiler or tracer (``python -m
cProfile``, coverage, a debugger), which write their output at exit, it
ends with ``sys.exit`` instead.
"""

from __future__ import annotations

import os
import re
import sys

from .catalog import extend_bundle_map, extend_kform, lk_form, wedge_form, bivector_form
from .dualforms import differential
from .forms import PolyForm, is_zero, rn_bracket
from .graded import GradingConvention
from .linfty import (coefficient_suite, nijenhuis_deformation_theorem_check, nijenhuis_forms,
                     pairwise_compatibility, pencil, report_nijenhuis, square_of_sum,
                     sum_of_wedges, witt_action_check)
from .pqn import check_pqn, exact_ratio, main_theorem_harness, stienon_xu_harness
from .report import Report
from .rings import InputError, format_rational, parse_rational
from .scenario import INDEX_LIMIT, Scenario, load_scenario

NEG = GradingConvention.NEGATED
SH2 = GradingConvention.SHIFTED2

_TERM = re.compile(r"^\s*(?:(?P<coeff>\d+(?:/\d+)?)\s*\*?\s*)?(?P<name>[A-Za-z][A-Za-z0-9]*)\s*$")


def parse_form_expression(text: str, scenario: Scenario):
    """Tiny grammar: sums of rational multiples of the named generators
    N{k}, l{k} (k <= INDEX_LIMIT), underlineN, underlineOmega, underlineH,
    pi.  Terms are joined by "+", "-" or "+-"; the first term may carry one
    of them too.

    Returns (form, grading).  Each name is read in one grading: N{k} and
    l{k} negated, pi and the underlined extensions shifted by 2.  All terms
    must share it, and the components must have one degree there."""
    text = text.strip()
    if not text:
        raise InputError("empty form expression")
    parts = []
    grading = None
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
        term_grading = NEG if name[0] in "Nl" and name[1:].isdigit() else SH2
        if grading is None:
            grading = term_grading
        elif grading is not term_grading:
            raise InputError(
                f"term {name!r} uses the {term_grading.value} convention,"
                f" earlier terms use {grading.value}")
        if coeff != 1:
            form = form.scale(coeff)
        parts.append(form)
    if signs:
        raise InputError(f"form expression {text!r} ends in {signs!r}, not in a term")
    form = PolyForm(scenario.instance, parts)
    degrees = {grading.form_degree(comp.arity, comp.shift) for comp in form.components.values()}
    if len(degrees) > 1:
        raise InputError(
            f"components of distinct convention degrees {sorted(degrees)} in one form family")
    return form, grading


def _named_form(name: str, scenario: Scenario):
    instance = scenario.instance
    if name == "pi":
        if scenario.pi.is_zero():
            raise InputError("scenario has no bivector pi")
        return bivector_form(instance, scenario.pi)
    if name == "underlineN":
        return extend_bundle_map(instance, scenario.N)
    if name == "underlineOmega":
        if scenario.omega.is_zero():
            raise InputError("scenario has no 2-form omega")
        return extend_kform(scenario.omega)
    if name == "underlineH":
        if scenario.H.is_zero():
            raise InputError("scenario has no background 3-form")
        return extend_kform(scenario.H)
    if name[0] in "Nl" and name[1:].isdigit():
        digits = name[1:].lstrip("0")
        # the length test first: int() refuses strings past 4300 digits
        k = int(digits or "0") if len(digits) <= len(str(INDEX_LIMIT)) else INDEX_LIMIT + 1
        if k > INDEX_LIMIT:
            raise InputError(f"{name}: indices above {INDEX_LIMIT} (the index limit) are refused")
        if name[0] == "N":
            if k < 1:
                raise InputError(f"{name}: the wedge family N_k starts at N1")
            return wedge_form(instance, k)
        if k < 2:
            raise InputError(f"{name}: the bracket family l_k starts at l2"
                             " (l1 is identically zero)")
        return lk_form(instance, k)
    raise InputError(f"unknown form name {name!r}")


def recognize(poly: PolyForm, scenario: Scenario) -> str:
    """Express a bracket value in the named catalog when possible.  Each
    component is read only through :func:`is_zero` certificates: its own,
    whose counterexample fixes the one ratio a candidate allows, and that
    of the component minus the scaled candidate, which certifies a match."""
    instance = scenario.instance
    bits = []
    for arity, comp in poly.components.items():
        found = is_zero(comp)
        if found.is_zero:
            continue
        value = comp.evaluate(found.failing)
        candidates = []
        if arity >= 1:
            candidates.append((f"N{arity}", wedge_form(instance, arity)))
        if arity >= 2:
            candidates.append((f"l{arity}", lk_form(instance, arity)))
        matched = None
        for name, candidate in candidates:
            if candidate.shift != comp.shift:
                continue
            cand = candidate.evaluate(found.failing)
            if cand.is_zero():
                continue
            mon, coeff = next(iter(cand.terms.items()))
            ratio = exact_ratio(value.terms.get(mon), coeff)
            # a zero ratio cannot match: the component is nonzero at the tuple
            if ratio and is_zero(comp - candidate.scale(ratio)).is_zero:
                matched = f"{format_rational(ratio)}*{name}" if ratio != 1 else name
                break
        if matched is None:
            matched = (f"<arity-{arity} form outside the catalog;"
                       f" value at {tuple(instance.basis_label(el) for el in found.failing)}"
                       f" is {instance.basis_label(value)}>")
        bits.append(matched)
    return " + ".join(bits) if bits else "0"


def cmd_validate(scenario: Scenario, args) -> Report:
    """Axioms already hold; record the data-level preconditions: Poisson
    when pi is given, dH = 0.

    Instance construction validates Jacobi and the anchor morphism, the
    axioms the input can break.  The Gerstenhaber identities (graded
    skew-symmetry and Leibniz) hold for every instance that can be loaded:
    the structure table is antisymmetric on generators, the anchor acts by
    derivations and the Schouten bracket is their closed-form biderivation
    (``rnforms.instances``).  ``tests/test_instances.py`` checks both
    identities on the bracket of every shipped and generated instance."""
    report = Report("validate", scenario.name)
    report.add("instance axioms",
               "Jacobi + Leibniz + anchor morphism + Gerstenhaber identities", True,
               detail="validated at load")
    if not scenario.pi.is_zero():
        poisson = scenario.instance.sn_bracket(scenario.pi, scenario.pi)
        report.add("pi Poisson", "[pi,pi] = 0", poisson.is_zero(),
                   counterexample=None if poisson.is_zero()
                   else scenario.instance.basis_label(poisson))
    dH = differential(scenario.H)
    report.add("closed background", "d H = 0", dH.is_zero(),
               counterexample=None if dH.is_zero() else dH.label())
    return report


def cmd_bracket(scenario: Scenario, args) -> Report:
    left, left_grading = parse_form_expression(args["left"], scenario)
    right, right_grading = parse_form_expression(args["right"], scenario)
    if left_grading is not right_grading:
        raise InputError("mixing grading conventions in an insertion")
    result = rn_bracket(left, right)
    report = Report("bracket", scenario.name)
    value = recognize(result, scenario)
    report.add(f"[{args['left']}, {args['right']}]", "Richardson-Nijenhuis bracket", True,
               detail=value)
    return report


def cmd_check_linfty(scenario: Scenario, args) -> Report:
    report = Report("check linfty", scenario.name)
    mu = pencil(scenario.instance, scenario.pencil_coefficients)
    report.add_certificate("self-bracket", "[mu,mu] = 0", is_zero(rn_bracket(mu, mu)))
    k_max = min(len(scenario.pencil_coefficients),
                max(2, scenario.instance.rank + 1))
    if not scenario.instance.data.base_dim:
        pairwise_compatibility(scenario.instance, max(2, k_max), report)
    return report


def cmd_check_nijenhuis(scenario: Scenario, args) -> Report:
    instance = scenario.instance
    kind = args["kind"]
    if kind == "full":
        return nijenhuis_deformation_theorem_check(
            instance, scenario.N, scenario.pencil_coefficients)
    report = Report(f"check nijenhuis --kind {kind}", scenario.name)
    n_form = sum_of_wedges(instance, scenario.wedge_coefficients)
    if kind == "weak":
        forms = nijenhuis_forms(n_form, pencil(instance, scenario.pencil_coefficients))
    else:
        square = square_of_sum(instance, scenario.wedge_coefficients, scenario.bracket_index)
        forms = nijenhuis_forms(n_form, lk_form(instance, scenario.bracket_index), square)
    report_nijenhuis(report, kind, forms)
    return report


def cmd_check_pqn(scenario: Scenario, args) -> Report:
    report = Report("check pqn", scenario.name)
    check_pqn(report, scenario.instance, scenario.pi, scenario.N, scenario.omega,
              scenario.H, scenario.lam)
    return report


def cmd_suite_stienon_xu(scenario: Scenario, args) -> Report:
    if not scenario.H.is_zero():
        raise InputError("the manifold-triple harness needs H = 0")
    return stienon_xu_harness(scenario.instance, scenario.pi, scenario.N,
                              scenario.omega, scenario.alpha)


# Each command's words -> its handler and its options, each with its choices
# (None: any value).  Every option but --format is required.
COMMANDS = {
    ("validate",): (cmd_validate, {}),
    ("bracket",): (cmd_bracket, {"left": None, "right": None}),
    ("check", "linfty"): (cmd_check_linfty, {}),
    ("check", "nijenhuis"): (cmd_check_nijenhuis, {"kind": ("weak", "coboundary", "full")}),
    ("check", "pqn"): (cmd_check_pqn, {}),
    ("suite", "lemma"): (lambda s, args: coefficient_suite(
        s.instance, s.i_max, s.m_max, s.n_max), {}),
    ("suite", "witt"): (lambda s, args: witt_action_check(s.instance, s.i_max), {}),
    ("suite", "main-theorem"): (lambda s, args: main_theorem_harness(
        s.instance, s.pi, s.N, s.omega, s.H), {}),
    ("suite", "stienon-xu"): (cmd_suite_stienon_xu, {}),
}
COMMON = {"scenario": None, "format": ("text", "json")}
USAGE = "usage: rnforms --scenario FILE [--format text|json] COMMAND [OPTIONS]"


def parse_args(argv) -> dict:
    """The option values of ``argv`` by name and its command words under
    "command"; InputError on anything that ``COMMANDS`` does not take."""
    words, args = [], {}
    items = iter(argv)
    for item in items:
        if not item.startswith("--"):
            words.append(item)
            continue
        name, equals, value = item[2:].partition("=")
        if not equals:
            value = next(items, None)
            if value is None or value.startswith("--"):
                raise InputError(f"option --{name} needs a value")
        if name in args:
            raise InputError(f"option --{name} is given twice")
        args[name] = value
    command = " ".join(words)
    if tuple(words) not in COMMANDS:
        raise InputError(f"unknown command {command!r}" if words else "no command given")
    options = {**COMMON, **COMMANDS[tuple(words)][1]}
    for name, value in args.items():
        if name not in options:
            raise InputError(f"{command!r} takes no option --{name}")
        if options[name] and value not in options[name]:
            raise InputError(f"--{name} must be one of {', '.join(options[name])},"
                             f" got {value!r}")
    args.setdefault("format", "text")
    missing = [f"--{name}" for name in options if name not in args]
    if missing:
        raise InputError(f"{command!r} needs {' and '.join(missing)}")
    args["command"] = tuple(words)
    return args


def dispatch(scenario: Scenario, args) -> Report:
    return COMMANDS[args["command"]][0](scenario, args)


def usage_text() -> str:
    lines = [USAGE, "", "commands:"]
    for words, (_, options) in COMMANDS.items():
        flags = [f"--{name} {'|'.join(choices or [name.upper()])}"
                 for name, choices in options.items()]
        lines.append(" ".join([" ", *words, *flags]))
    return "\n".join(lines)


def write(stream, text: str) -> None:
    """Print ``text`` on ``stream`` (sys.stdout or sys.stderr) and flush
    it, so that a write error is raised here.  Without the stream
    (descriptor closed at start-up) there is nothing to write.  After a
    write error the stream's descriptor is pointed at os.devnull, so the
    bytes left in its buffer are dropped, not written again by a later
    flush."""
    if stream is None:
        return
    try:
        print(text, file=stream)
        stream.flush()
    except OSError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, stream.fileno())
        os.close(null)
        raise


def warn(text: str) -> None:
    """Print ``text`` on stderr.  A write error there is dropped: the exit
    code tells what happened to the input and the checks, not whether a
    message could be shown."""
    try:
        write(sys.stderr, text)
    except OSError:
        pass


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if "-h" in argv or "--help" in argv:
            output, code = usage_text(), 0
        else:
            try:
                args = parse_args(argv)
            except InputError:
                warn(USAGE)
                raise
            report = dispatch(load_scenario(args["scenario"]), args)
            output = report.to_json() if args["format"] == "json" else report.to_text()
            code = report.exit_code
        write(sys.stdout, output)
    except InputError as exc:
        warn(f"input error: {exc}")
        return 2
    except Exception as exc:       # a crash or a write error, not a failed identity
        warn(f"internal error: {type(exc).__name__}: {exc}")
        return 3
    return code


def _profiled_or_traced() -> bool:
    """Whether a profiler or tracer is installed, including a tool of
    ``sys.monitoring`` (Python 3.12 on), where cProfile and coverage may
    live instead of ``sys.setprofile`` / ``sys.settrace``."""
    if sys.getprofile() is not None or sys.gettrace() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(monitoring.get_tool(tool) for tool in range(6))


def run():
    """Run ``main`` on ``sys.argv`` and end the process with its exit code,
    skipping interpreter finalization unless a profiler or tracer needs it."""
    code = main()
    if _profiled_or_traced():
        sys.exit(code)
    if sys.stdout is not None:
        sys.stdout.flush()
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:         # a message lost on stderr does not change the exit code
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
