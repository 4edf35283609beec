"""Benchmark of the rnforms CLI: one command on one scenario is one operation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Operations run one after another, each in
a fresh process (a closed loop with one client), timed from process start
to exit.  A run builds its inputs from the seed, checks that every
generated scenario loads as written, warms a bytecode cache, then runs
whole rounds of the workload's operations, at least one, until the next
round would take the summed operation time past S seconds.  Set-up probes
run between the operations of the first round, and a fixed reference
operation (REF_ARGV) after each REF_EVERY_S of operation time.  Every output
is checked against bench/oracle.py, and repeated operations must print the
same bytes.

--trace 0 prints the end-to-end metrics: wall_s (median over rounds of the
summed operation times), setup_s (interpreter start + import rnforms.cli +
load_scenario, median of SETUP_REPEATS probes per distinct scenario, summed)
and peak_rss_mb (the largest peak RSS of any one operation).  wall_s and
setup_s are scaled to the machine speed at which the reference operation
takes REF_OP_S, by the mean (wall_s) or median (setup_s) of the run's
reference times; the measured seconds are in the record.  --trace 1 runs
one plain round and one round under bench/tracer.py and prints the
per-layer metrics.  The last line of standard output is the result; a
record with the per-operation figures, the source digest, the Python
version and the CPU count is written to bench/out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

sys.dont_write_bytecode = True     # keep bench/ free of __pycache__
import inputs  # noqa: E402
import oracle  # noqa: E402

SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 150
# The machine's speed is read from a reference operation: a fixed stdlib
# computation of the kind rnforms does (dicts keyed by tuples, Fractions, a
# sort) in a fresh interpreter, timed from spawn to exit like an operation.
# -I keeps PYTHONPATH and the environment out, so no change to rnforms can
# move it.  It runs after each REF_EVERY_S of operation time, and wall_s and
# setup_s are scaled by REF_OP_S / the run's reference time: they read as
# seconds on a machine on which the reference operation takes REF_OP_S.
# wall_s sums operation times, slow spells included, so it is scaled by the
# mean reference time; setup_s is a median of probes, so by the median.
REF_CODE = ("from fractions import Fraction\n"
            "d = {}\n"
            "for i in range(1, 6000):\n"
            "    k = (i % 31, i % 7, i % 5)\n"
            "    d[k] = d.get(k, 0) + Fraction(i, 7) * (-1) ** (i % 3)\n"
            "e = {(*k, x): v for k, v in d.items() for x in range(20)}\n"
            "print(sum(e[k] for k in sorted(e)))\n")
REF_ARGV = [sys.executable, "-I", "-c", REF_CODE]
REF_EVERY_S = 1.0
REF_OP_S = 0.2
PROBE = ("import sys, time\n"
         "import rnforms.cli\n"
         "from rnforms.scenario import load_scenario\n"
         "load_scenario(sys.argv[1])\n"
         "print(repr(time.perf_counter()))\n")


class Result:
    def __init__(self, op, wall, cpu, rss_kb, code, stdout, stderr):
        self.op = op
        self.wall = wall
        self.cpu = cpu
        self.rss_kb = rss_kb
        self.code = code
        self.stdout = stdout
        self.stderr = stderr


class Bench:
    def __init__(self, root: Path):
        self.root = root
        self.out = root / "bench" / "out"
        self.tmp = self.out / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env.pop("RNFORMS_THREADS", None)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["PYTHONPYCACHEPREFIX"] = str(self.out / "pycache")
        self.problems = []          # failed set-up checks: the run is not correct
        self.attempted = 0
        self.failed = 0
        self.outputs = {}           # op key -> first stdout seen
        self.ref_walls = []         # wall times of the reference operation
        self.ref_due = 0.0          # operation time left until the next one

    # -- processes --------------------------------------------------------------------

    def spawn(self, argv, op=None) -> Result:
        """Run one child to exit; its own rusage gives CPU time and peak RSS."""
        out_path = self.tmp / f"{os.getpid()}.stdout"
        err_path = self.tmp / f"{os.getpid()}.stderr"
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=self.root)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Result(op, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                          proc.returncode, out.read(), err.read())

    def sample_reference(self, seconds: float):
        """Run the reference operation once per REF_EVERY_S of operation time."""
        self.ref_due -= seconds
        while self.ref_due <= 0:
            result = self.spawn(REF_ARGV)
            if result.code != 0:
                sys.exit(f"reference operation exited {result.code}:"
                         f" {result.stderr.decode()[-300:]}")
            self.ref_walls.append(result.wall)
            self.ref_due += REF_EVERY_S

    def cli_argv(self, op, stats_path=None):
        head = [sys.executable]
        head += ["bench/tracer.py", str(stats_path)] if stats_path else ["-m", "rnforms.cli"]
        return head + ["--scenario", str(op.scenario.path), "--format", "json", *op.args]

    # -- set-up ---------------------------------------------------------------------------

    def check_loaded(self, scenarios):
        """Load every generated scenario in this process and compare what the
        loader built with what was written (the loader ignores unknown keys)."""
        sys.path.insert(0, str(self.root / "src"))
        from rnforms.scenario import load_scenario
        for sc in scenarios:
            if not sc.generated:
                continue
            loaded = load_scenario(sc.path)
            for field, want, got in _loaded_fields(sc.raw, loaded):
                if want != got:
                    self.problems.append(f"{sc.name}: loaded {field} {got} != written {want}")

    def probe_setup(self, scenario) -> float:
        """Time from spawn until the scenario is loaded, read from the
        probe's own monotonic clock."""
        start = time.perf_counter()
        result = self.spawn([sys.executable, "-c", PROBE, str(scenario.path)])
        if result.code != 0:
            sys.exit(f"{scenario.name}: set-up probe exited {result.code}:"
                     f" {result.stderr.decode()[-300:]}")
        return float(result.stdout) - start

    # -- operations ---------------------------------------------------------------------

    def run_op(self, op, stats_path=None) -> Result:
        result = self.spawn(self.cli_argv(op, stats_path), op)
        found = oracle.problems(op, result.code, result.stdout)
        first = self.outputs.setdefault(op.key, result.stdout)
        if first != result.stdout:
            found.append(f"{op.key}: output differs from its first run")
        if op.twin is not None and op.twin.key in self.outputs:
            if _without_name(result.stdout) != _without_name(self.outputs[op.twin.key]):
                found.append(f"{op.key}: report differs from {op.twin.key}")
        if result.code not in (0, 1):
            found.append(f"{op.key}: stderr {result.stderr.decode()[-300:]!r}")
        self.attempted += 1
        if found:
            self.failed += 1
            for line in found[:3]:
                print(f"FAILED {line}", file=sys.stderr)
        return result

    def run_round(self, ops, stats_dir=None, probes=None):
        """One pass over the ops.  Set-up probes, when given, are spread
        evenly between the ops, so that set-up time is sampled over the same
        stretch of machine time as the ops (the machine's speed drifts)."""
        results = []
        for n, op in enumerate(ops):
            if probes:
                probes.take(n / len(ops))
            stats_path = stats_dir / f"{n}.json" if stats_dir else None
            results.append(self.run_op(op, stats_path))
            self.sample_reference(results[-1].wall)
        if probes:
            probes.take(1.0)
        return results

    def repeat_cheapest(self, first_round):
        """Run the quickest operation of each scenario once more, so that even
        a one-round run compares repeated outputs byte for byte."""
        cheapest = {}
        for result in first_round:
            name = result.op.scenario.name
            if name not in cheapest or result.wall < cheapest[name].wall:
                cheapest[name] = result
        for result in cheapest.values():
            self.run_op(result.op)


class SetupProbes:
    """SETUP_REPEATS probes per scenario; ``value`` sums the medians."""

    def __init__(self, bench: Bench, scenarios):
        self.bench = bench
        self.queue = [sc for _ in range(SETUP_REPEATS) for sc in scenarios]
        self.total = len(self.queue)
        self.samples = {sc.name: [] for sc in scenarios}

    def take(self, share: float):
        """Run probes until ``share`` of them are done."""
        while self.queue and self.total - len(self.queue) < share * self.total:
            scenario = self.queue.pop(0)
            self.samples[scenario.name].append(self.bench.probe_setup(scenario))

    def value(self) -> float:
        return sum(statistics.median(v) for v in self.samples.values())


def _loaded_fields(raw, loaded):
    """(field, written value, loaded value) in one plain representation:
    {exponent tuple: Fraction} per coefficient."""
    inst = raw["instance"]
    if "lie_algebra" in inst:
        block, nvars = inst["lie_algebra"], 0
        names = block["basis"]
    else:
        block = inst["poly_algebroid"]
        names, nvars = block["generators"], len(block["coordinates"])
    coords = block.get("coordinates", [])
    written = _coeff_parser(coords, nvars)
    data = raw["data"]
    brackets = {}
    for key, row in block.get("brackets", {}).items():
        i, j = (names.index(p.strip()) for p in key.split(","))
        brackets[(i, j)] = {names.index(t): written(v) for t, v in row.items()}
    got_brackets = {key: {k: _plain(v) for k, v in row.items()}
                    for key, row in loaded.instance.data.table.items()}
    yield "brackets", _drop_zero(brackets), got_brackets

    def monomials(block_raw):
        table = {}
        for key, value in (block_raw or {}).items():
            mon = tuple(names.index(p.strip()) for p in key.split("^"))
            table[mon] = written(value)
        return _drop_zero_flat(table)

    yield "pi", monomials(data.get("pi")), {m: _plain(c) for m, c in loaded.pi.terms.items()}
    yield "N", [[written(v) for v in row] for row in data["N"]], \
        [[_plain(v) for v in row] for row in loaded.N]
    for field in ("omega", "alpha"):
        got = {m: _plain(c) for m, c in getattr(loaded, field).table.items()}
        yield field, monomials(data.get(field)), got


def _coeff_parser(coords, nvars):
    def parse(value):
        if isinstance(value, str):
            q = Fraction(value)
            return {(0,) * nvars: q} if q else {}
        out = {}
        for key, coeff in value.items():
            expo = [0] * nvars
            if key not in ("", "1"):
                for factor in key.split():
                    name, _, power = factor.partition("^")
                    expo[coords.index(name)] += int(power or 1)
            out[tuple(expo)] = out.get(tuple(expo), 0) + Fraction(coeff)
        return {e: c for e, c in out.items() if c}
    return parse


def _plain(value):
    if isinstance(value, Fraction):
        return {(): value} if value else {}
    return dict(value.terms())


def _drop_zero(table):
    return {key: {k: v for k, v in row.items() if v} for key, row in table.items()
            if any(row.values())}


def _drop_zero_flat(table):
    return {key: v for key, v in table.items() if v}


def _without_name(stdout: bytes):
    try:
        report = json.loads(stdout)
    except ValueError:
        return stdout
    report.pop("scenario", None)
    return report


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "rnforms").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


# -- per-layer metrics ---------------------------------------------------------------------


def layer_metrics(plain, traced, stats, ref_op) -> dict:
    """Per-layer figures of one traced round, summed over its operations
    (peaks: the largest of any operation)."""
    def stat(name, field):
        return sum(s["stats"].get(name, [0, 0.0, 0.0])[field] for s in stats)

    def count(name):
        return sum(s["counts"].get(name, 0) for s in stats)

    rule_calls = sum(v[0] for s in stats for k, v in s["stats"].items()
                     if k.startswith("rule."))
    evaluate_calls = stat("forms.evaluate", 0)
    hits = sum(s["memo_lookups"] for s in stats) - rule_calls
    plain_wall = sum(r.wall for r in plain)
    plain_cpu = sum(r.cpu for r in plain)
    m = {
        "rings.poly_mul.calls": (stat("rings.poly_mul", 0), "count"),
        "rings.poly_mul.self_s": (stat("rings.poly_mul", 2), "s"),
        "rings.poly_add.calls": (stat("rings.poly_add", 0), "count"),
        "rings.poly_add.self_s": (stat("rings.poly_add", 2), "s"),
        "rings.poly_new.calls": (count("rings.poly_new"), "count"),
        "graded.koszul_sign.calls": (stat("graded.koszul_sign", 0), "count"),
        "graded.koszul_sign.self_s": (stat("graded.koszul_sign", 2), "s"),
        "graded.unshuffles.calls": (count("graded.unshuffles"), "count"),
        "elements.wedge.calls": (stat("elements.wedge", 0), "count"),
        "elements.wedge.self_s": (stat("elements.wedge", 2), "s"),
        "elements.add.calls": (stat("elements.add", 0), "count"),
        "elements.add.self_s": (stat("elements.add", 2), "s"),
        "elements.wedge_degree.calls": (count("elements.wedge_degree"), "count"),
        "instances.sn_bracket.calls": (stat("instances.sn_bracket", 0), "count"),
        "instances.sn_bracket.self_s": (stat("instances.sn_bracket", 2), "s"),
        "instances.sn_memo.entries": (
            max(s["peaks"]["instances.sn_memo.entries"] for s in stats), "count"),
        "instances.validate.s": (stat("instances.validate", 1), "s"),
        "forms.evaluate.calls": (evaluate_calls, "count"),
        "forms.evaluate.self_s": (stat("forms.evaluate", 2), "s"),
        "forms.rule.calls": (rule_calls, "count"),
        "forms.memo_hit_ratio": (hits / evaluate_calls if evaluate_calls else 0.0, "ratio"),
        "forms.memo.entries": (max(s["peaks"]["forms.memo.entries"] for s in stats), "count"),
        "forms.is_zero.calls": (stat("forms.is_zero", 0), "count"),
        "forms.is_zero.s": (stat("forms.is_zero", 1), "s"),
        "forms.tuples": (sum(s["tuples"] for s in stats), "count"),
        "catalog.rule.self_s": (stat("rule.catalog", 2), "s"),
        "dualforms.calls": (stat("dualforms", 0), "count"),
        "dualforms.self_s": (stat("dualforms", 2), "s"),
        "linfty.certificates": (sum(s["certificates"]["linfty"] for s in stats), "count"),
        "linfty.s": (sum(s["layer_s"]["linfty"] for s in stats), "s"),
        "pqn.certificates": (sum(s["certificates"]["pqn"] for s in stats), "count"),
        "pqn.check_pqn.s": (stat("pqn.check_pqn", 1), "s"),
        "pqn.koszul_bracket.calls": (stat("pqn.koszul_bracket", 0), "count"),
        "cli.import.s": (sum(s["import_s"] for s in stats), "s"),
        "scenario.load.s": (stat("scenario.load", 1), "s"),
        "report.render.s": (stat("report.render", 1), "s"),
        "report.bytes": (sum(len(r.stdout) for r in traced), "bytes"),
        "proc.cpu_s": (plain_cpu, "s"),
        "proc.offcpu_s": (plain_wall - plain_cpu, "s"),
        "proc.ref_op_s": (ref_op, "s"),
        "trace.overhead_ratio": (sum(r.wall for r in traced) / plain_wall, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


# -- main -------------------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description="rnforms CLI benchmark")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "rnforms" / "cli.py").is_file():
        print("bench/run.py: run it from the root of an rnforms checkout"
              " (src/rnforms/cli.py not found)", file=sys.stderr)
        return 2

    bench = Bench(root)
    bench.problems += oracle.self_test()
    ops = inputs.build(args.workload, root, args.seed,
                       bench.out / "scenarios" / args.workload)
    scenarios = list({op.scenario.name: op.scenario for op in ops}.values())
    bench.check_loaded(scenarios)
    for sc in scenarios:                       # warm the bytecode cache
        bench.spawn([sys.executable, "-m", "rnforms.cli", "--scenario", str(sc.path),
                     "validate"])

    measured = None
    if args.trace:
        stats_dir = bench.out / "trace" / f"{args.workload}-{args.seed}"
        stats_dir.mkdir(parents=True, exist_ok=True)
        plain = bench.run_round(ops)
        traced = bench.run_round(ops, stats_dir)
        rounds = [plain, traced]
        stats = [json.loads((stats_dir / f"{n}.json").read_text()) for n in range(len(ops))]
        metrics = layer_metrics(plain, traced, stats, statistics.mean(bench.ref_walls))
    else:
        probes = SetupProbes(bench, scenarios)
        rounds = [bench.run_round(ops, probes=probes)]
        setup_s = probes.value()
        walls = [sum(r.wall for r in rounds[0])]
        # whole rounds while the next one still ends within --seconds of op time
        while sum(walls) + walls[-1] <= args.seconds:
            rounds.append(bench.run_round(ops))
            walls.append(sum(r.wall for r in rounds[-1]))
        bench.repeat_cheapest(rounds[0])
        measured = {"wall_s": statistics.median(walls), "setup_s": setup_s,
                    "ref_op_mean_s": statistics.mean(bench.ref_walls),
                    "ref_op_median_s": statistics.median(bench.ref_walls)}
        metrics = {
            "wall_s": {"value": measured["wall_s"] * REF_OP_S / measured["ref_op_mean_s"],
                       "unit": "s"},
            "setup_s": {"value": setup_s * REF_OP_S / measured["ref_op_median_s"],
                        "unit": "s"},
            "peak_rss_mb": {"value": max(r.rss_kb for results in rounds for r in results)
                            / 1024, "unit": "MB"},
        }

    for path in bench.tmp.glob(f"{os.getpid()}.*"):
        path.unlink()
    for line in bench.problems[:5]:
        print(f"SET-UP FAULT {line}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(root), "source": _source_digest(root),
        "python": platform.python_version(), "cpus": os.cpu_count(),
        "measured": measured, "ref_walls": bench.ref_walls, "metrics": metrics,
        "rounds": [[{"op": r.op.key, "wall_s": r.wall, "cpu_s": r.cpu,
                     "rss_kb": r.rss_kb, "exit": r.code,
                     "sha256": hashlib.sha256(r.stdout).hexdigest()[:16]}
                    for r in results] for results in rounds],
    }
    results_dir = bench.out / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": not bench.problems and bench.failed == 0,
                      "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
