"""Run one rnforms CLI command with its layers timed and counted.

    python bench/tracer.py STATS.json --scenario FILE --format json CMD...

Imports rnforms, replaces the public functions and methods of each layer by
wrappers (in every module that bound them with ``from ... import``), runs
``rnforms.cli.main`` on the remaining arguments and writes the counters and
spans to STATS.json at exit.  The report on standard output is the one the
plain CLI prints.

Per wrapped name the tracer keeps [calls, inclusive seconds of the outermost
calls, self seconds]; self time is span time minus the time of the wrapped
calls made inside it.  Spans of the coarse layers (cli, scenario, report,
linfty, pqn and each is_zero) are kept whole, with their parent span.
"""

from __future__ import annotations

import json
import sys
import time
import weakref

clock = time.perf_counter
_t0 = clock()
import rnforms  # noqa: E402  (timed: the package imports every layer)
import rnforms.cli  # noqa: E402
IMPORT_S = clock() - _t0

from rnforms import (cli, dualforms, elements, forms, graded, instances,  # noqa: E402
                     linfty, pqn, report, rings, scenario)

MODULES = [m for name, m in sorted(sys.modules.items())
           if name == "rnforms" or name.startswith("rnforms.")]
COARSE = ("cli.", "scenario.", "report.", "linfty.", "pqn.", "forms.is_zero")


class Tracer:
    def __init__(self):
        self.stats = {}                 # name -> [calls, inclusive_s, self_s]
        self.counts = {}                # name -> calls (count-only wrappers)
        self.active = {}                # name -> nesting depth
        self.children = [0.0]           # child time of each open span
        self.spans = []                 # (name, start, end, parent) of coarse spans
        self.open_spans = [-1]
        self.owners = []                # open linfty / pqn frames, innermost last
        self.peaks = {"forms.memo.entries": 0, "instances.sn_memo.entries": 0}
        self.certificates = {"linfty": 0, "pqn": 0, "other": 0}
        self.layer_s = {"linfty": 0.0, "pqn": 0.0}   # outermost calls per layer
        self.tuples = 0
        self.lookups = 0
        self.vforms = weakref.WeakSet()
        self.instances = weakref.WeakSet()

    # -- wrappers ------------------------------------------------------------------

    def timed(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        active, children = self.active, self.children
        coarse = name.startswith(COARSE)
        owner = name.split(".")[0] if name.startswith(("linfty.", "pqn.")) else None
        spans, open_spans = self.spans, self.open_spans
        owners, layer_s = self.owners, self.layer_s

        def wrapper(*args, **kwargs):
            depth = active.get(name, 0)
            active[name] = depth + 1
            if coarse:
                spans.append([name, clock(), None, open_spans[-1]])
                open_spans.append(len(spans) - 1)
            outermost = owner is not None and owner not in owners
            if owner:
                owners.append(owner)
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                children[-1] += elapsed
                stat[0] += 1
                stat[2] += elapsed - inner
                active[name] = depth
                if not depth:
                    stat[1] += elapsed
                if owner:
                    owners.pop()
                    if outermost:
                        layer_s[owner] += elapsed
                if coarse:
                    spans[open_spans.pop()][2] = clock()

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------------

    def replace(self, owner, attr, wrap):
        """Wrap ``owner.attr`` and rebind every alias of it: class attributes
        such as ``__radd__ = __add__`` and module names bound by import."""
        original = owner.__dict__[attr]
        wrapped = wrap(original)
        places = [owner] + MODULES
        for place in places:
            for key, value in list(vars(place).items()):
                if value is original:
                    setattr(place, key, wrapped)

    def install(self):
        T, C = self.timed, self.counted
        r = self.replace
        r(rings.Poly, "__mul__", lambda f: T("rings.poly_mul", f))
        r(rings.Poly, "__add__", lambda f: T("rings.poly_add", f))
        r(rings.Poly, "__init__", lambda f: C("rings.poly_new", f))
        r(graded, "koszul_sign", lambda f: T("graded.koszul_sign", f))
        r(graded, "unshuffles", lambda f: C("graded.unshuffles", f))
        r(elements.Element, "wedge", lambda f: T("elements.wedge", f))
        r(elements.Element, "__add__", lambda f: T("elements.add", f))
        r(elements.Element, "wedge_degree", lambda f: C("elements.wedge_degree", f))
        r(instances.GradedInstance, "sn_bracket", lambda f: T("instances.sn_bracket", f))
        r(instances.GradedInstance, "validate", lambda f: T("instances.validate", f))
        r(instances.GradedInstance, "__init__", self._track_instances)
        r(forms.VForm, "evaluate", lambda f: T("forms.evaluate", f))
        r(forms.VForm, "_canonical", self._count_lookups)
        r(forms.VForm, "__init__", self._wrap_rules)
        r(forms, "is_zero", self._certify)
        for name in _public_functions(dualforms):
            r(dualforms, name, lambda f: T("dualforms", f))
        for name in ("entry", "apply", "__add__", "__sub__", "scale", "label"):
            r(dualforms.DualForm, name, lambda f: T("dualforms", f))
        for module in (linfty, pqn):
            short = module.__name__.split(".")[-1]
            for name in _public_functions(module):
                r(module, name, lambda f, n=f"{short}.{name}": T(n, f))
            for cls in _public_classes(module):
                for name, value in list(vars(cls).items()):
                    if callable(value) and not name.startswith("_"):
                        r(cls, name, lambda f, n=f"{short}.{cls.__name__}.{name}": T(n, f))
        r(scenario, "load_scenario", lambda f: T("scenario.load", f))
        r(report.Report, "to_json", lambda f: T("report.render", f))
        r(report.Report, "to_text", lambda f: T("report.render", f))
        r(cli, "dispatch", lambda f: T("cli.dispatch", f))

    def _track_instances(self, init):
        instances_seen = self.instances

        def wrapper(inst, *args, **kwargs):
            instances_seen.add(inst)
            return init(inst, *args, **kwargs)

        return wrapper

    def _count_lookups(self, canonical):
        def wrapper(form, args):
            result = canonical(form, args)
            if result[1]:
                self.lookups += 1
            return result

        return wrapper

    def _wrap_rules(self, init):
        """Each form's rule runs only on a memo miss; time it by the module
        that defined it (catalog rules, forms' insertions and sums, ...)."""
        vforms = self.vforms

        def wrapper(form, *args, **kwargs):
            init(form, *args, **kwargs)
            module = getattr(form.fn, "__module__", "") or ""
            layer = module.rsplit(".", 1)[-1] or "other"
            form.fn = self.timed(f"rule.{layer}", form.fn)
            vforms.add(form)

        return wrapper

    def _certify(self, is_zero):
        timed = self.timed("forms.is_zero", is_zero)

        def wrapper(*args, **kwargs):
            owner = self.owners[-1] if self.owners else "other"
            certificate = timed(*args, **kwargs)
            self.certificates[owner] += 1
            self.tuples += len(certificate.checked)
            self.sample()
            return certificate

        return wrapper

    def sample(self):
        memo = sum(len(f._memo) for f in list(self.vforms))
        sn = sum(len(i._sn_memo) for i in list(self.instances))
        self.peaks["forms.memo.entries"] = max(self.peaks["forms.memo.entries"], memo)
        self.peaks["instances.sn_memo.entries"] = max(
            self.peaks["instances.sn_memo.entries"], sn)

    def dump(self, path):
        self.sample()
        payload = {
            "import_s": IMPORT_S,
            "stats": self.stats,
            "counts": self.counts,
            "peaks": self.peaks,
            "certificates": self.certificates,
            "layer_s": self.layer_s,
            "tuples": self.tuples,
            "memo_lookups": self.lookups,
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _public_functions(module):
    return [name for name, value in vars(module).items()
            if callable(value) and not name.startswith("_") and not isinstance(value, type)
            and getattr(value, "__module__", None) == module.__name__]


def _public_classes(module):
    return [value for name, value in vars(module).items()
            if isinstance(value, type) and not name.startswith("_")
            and value.__module__ == module.__name__]


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
        sys.stdout.flush()
    finally:
        tracer.dump(stats_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
