"""salemk3 benchmark: four workloads, end-to-end metrics, and a traced run.

Run one workload (the last stdout line is the JSON result):

    python3 bench/run.py --workload certificate --seed 20260808 --seconds 20 --trace 0

    --trace 0  end-to-end metrics, tracing off
    --trace 1  per-layer metrics: self time and call counts per operation,
               from spans recorded by wrapping public library functions
    --out F    also append the full record (environment, named metrics,
               tails and sample counts) to the JSON-lines file F

Run every workload and print each end-to-end metric by name with its unit:

    python3 bench/run.py --all --seconds 20 --out .bench_out/results.jsonl

Compare two record files, one row per (workload, metric):

    python3 bench/run.py --compare parent.jsonl change.jsonl

One process and one closed-loop client: operations run back to back in a
single thread, with at most one command-line subprocess at a time. Only
the standard library is used. See bench/README.md for the workloads and
the metrics.
"""

import argparse
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from tracer import Tracer  # noqa: E402
from workloads import CRITERION3_SEED, QUAD, WORKLOADS, reference_kernel  # noqa: E402

LAYERS = ("polynomials", "lattices", "linalg", "numberfield", "numbertheory",
          "isometries", "positivity", "realize")
SETUP_CHILDREN = 2  # set-up is also timed in this many fresh interpreters
CLI_SHARE = 0.25  # share of the timed window spent in cold command-line runs
KERNEL_SHARE = 0.1  # share of the timed window spent in the reference kernel
KERNEL_REF_MS = 10.0  # the kernel's median time at the reference speed
SETUP_KERNEL_RUNS = 15  # kernel runs timed right after each set-up
MIN_CLI_SAMPLES = 5
OUT_DIR = ROOT / ".bench_out"

# (span name, module, attribute) wrapped in the traced run; methods are
# wrapped on their class, free functions in every module that imports them
TRACED = [
    ("lattices.signature", "salemk3.lattices", "Lattice.signature"),
    ("lattices.glue", "salemk3.lattices", "glue"),
    ("lattices.discriminant_form", "salemk3.lattices", "discriminant_form"),
    ("lattices.forms_isomorphic", "salemk3.lattices", "forms_isomorphic"),
    ("linalg.mat_mul", "salemk3.linalg", "mat_mul"),
    ("linalg.charpoly", "salemk3.linalg", "charpoly"),
    ("linalg.hnf", "salemk3.linalg", "hnf"),
    ("linalg.qf_enumerate", "salemk3.linalg", "qf_enumerate"),
    ("numberfield.enclosure", "salemk3.numberfield", "RealAlgebraicField.enclosure"),
    ("polynomials.is_salem", "salemk3.polynomials", "is_salem"),
    ("polynomials.is_irreducible", "salemk3.polynomials", "is_irreducible"),
    ("polynomials.power_min_poly", "salemk3.polynomials", "power_min_poly"),
    ("polynomials.count_real_roots", "salemk3.polynomials", "count_real_roots"),
    ("isometries.power_to_integral", "salemk3.isometries", "power_to_integral"),
    ("isometries.power_matrix", "salemk3.isometries", "Isometry.power_matrix"),
    ("isometries.twist", "salemk3.isometries", "twist"),
    ("positivity.obstructing_root_search", "salemk3.positivity", "obstructing_root_search"),
    ("positivity.is_positive", "salemk3.positivity", "is_positive"),
    ("realize.pipeline_split_prime", "salemk3.realize", "pipeline_split_prime"),
    ("realize.find_split_prime", "salemk3.realize", "find_split_prime"),
    ("realize.find_norm_element", "salemk3.realize", "find_norm_element"),
    ("realize.build_glue_map", "salemk3.realize", "build_glue_map"),
    ("realize.verify_certificate", "salemk3.realize", "verify_certificate"),
    ("realize.build_k3_certificate", "salemk3.realize", "build_k3_certificate"),
    ("realize.stable_realizable", "salemk3.realize", "stable_realizable"),
    ("realize.rational_isometry_criterion", "salemk3.realize", "rational_isometry_criterion"),
]
CALL_METRICS = {
    "lattices.signature.calls": "lattices.signature",
    "linalg.mat_mul.calls": "linalg.mat_mul",
    "polynomials.is_salem.calls": "polynomials.is_salem",
    "polynomials.power_min_poly.calls": "polynomials.power_min_poly",
    "isometries.power_matrix.calls_per_instance": "isometries.power_matrix",
}
SELF_METRICS = [name for name, _, _ in TRACED if name != "isometries.power_matrix"]

# workload-specific names for the end-to-end metrics, printed and recorded
# next to the workload-neutral names the result line carries
NAMED = {
    "certificate": [("build_s", "build_s", "s"), ("verify_s", "verify_s", "s"),
                    ("cold_verify_s", "cli_s", "s")],
    "powering": [("powering_per_s", "rate", "instances/s"), ("powering_p50_ms", "op_ms", "ms")],
    "decisions": [("decisions_per_s", "rate", "polynomials/s"), ("cold_certify_s", "cli_s", "s")],
    "positivity": [("searches_per_s", "rate", "searches/s"), ("search_p50_ms", "op_ms", "ms")],
}


def load_library():
    return SimpleNamespace(**{n: importlib.import_module(f"salemk3.{n}") for n in LAYERS})


def kernel_times(n):
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        reference_kernel()
        out.append(time.perf_counter() - t0)
    return out


def set_up(workload, seed, workdir):
    """Import, first sympy import, input generation: the timed set-up.

    Returns the library, the workload, the set-up seconds and the reference
    kernel's median seconds measured right after it in the same process.
    """
    t0 = time.perf_counter()
    lib = load_library()
    lib.polynomials.is_salem(lib.polynomials.IntPolynomial(list(QUAD)))
    wl = WORKLOADS[workload](lib, seed, ROOT, workdir)
    seconds = time.perf_counter() - t0
    return lib, wl, seconds, statistics.median(kernel_times(SETUP_KERNEL_RUNS))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(argv, timeout=150):
    return subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)


def median_tail(samples):
    """Median, plus the highest percentile with at least ten samples beyond
    it when that percentile lies above the median."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n > 20:
        out["tail"] = {"p": 100 * (n - 10) // n, "value": ordered[n - 11]}
    return out


def environment():
    try:
        sympy_version = importlib.metadata.version("sympy")
    except importlib.metadata.PackageNotFoundError:
        sympy_version = None
    revision = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        revision = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "sympy": sympy_version,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": revision,
    }


class Run:
    def __init__(self, args, workdir):
        self.args = args
        self.lib, self.wl, *setup = set_up(args.workload, args.seed, workdir)
        self.setup = [setup]  # (seconds, kernel seconds) per set-up
        self.attempted = 0
        self.failures = []
        self.op_s = []
        self.by_input = {}  # input index -> seconds of each of its operations
        self.parts = {}
        self.cli_s = []
        self.kernel_s = []

    def failed(self, what, problems):
        self.failures.append(f"{what}: {'; '.join(problems)}")

    def op(self, index, item):
        """One timed operation, then its checks outside the timed region."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            result, parts = self.wl.run(item)
            elapsed = time.perf_counter() - t0
            problems = self.wl.check(item, result)
        except Exception as exc:  # a failed operation is counted, the run goes on
            self.failed("operation", [f"{type(exc).__name__}: {exc}"])
            return None
        if problems:
            self.failed("operation", problems)
        self.op_s.append(elapsed)
        self.by_input.setdefault(index, []).append(elapsed)
        for name, seconds in parts.items():
            self.parts.setdefault(name, []).append(seconds)
        return result

    def cli(self):
        """One cold `python -m salemk3.cli --format json ...` subprocess."""
        self.attempted += 1
        argv, checker = self.wl.cli()
        t0 = time.perf_counter()
        proc = run_child([sys.executable, "-m", "salemk3.cli", "--format", "json"] + argv)
        self.cli_s.append(time.perf_counter() - t0)
        try:
            problems = checker(proc.returncode, proc.stdout)
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc}: {proc.stderr[-300:]}"]
        if problems:
            self.failed("cli", problems)

    def timed(self):
        """Whole rounds over the inputs until the window has passed."""
        wl, seconds = self.wl, self.args.seconds
        start = time.perf_counter()
        while True:
            for index, item in enumerate(wl.items):
                self.op(index, item)
                # cold command-line runs and the reference kernel take fixed
                # shares of the window, between operations
                if sum(self.cli_s) < CLI_SHARE * (time.perf_counter() - start):
                    self.cli()
                while sum(self.kernel_s) < KERNEL_SHARE * (time.perf_counter() - start):
                    self.kernel_s += kernel_times(1)
            if time.perf_counter() - start >= seconds:
                break
        while len(self.cli_s) < MIN_CLI_SAMPLES:
            self.cli()
        for _ in range(SETUP_CHILDREN):
            proc = run_child([sys.executable, str(BENCH / "run.py"), "--setup-only",
                              "--workload", self.args.workload, "--seed", str(self.args.seed)])
            if proc.returncode != 0:
                raise RuntimeError(f"set-up child failed: {proc.stderr[-500:]}")
            self.setup.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    def end_to_end(self):
        ops = self.op_s or [float("nan")]
        stats = {
            "op_ms": [1000 * s for s in ops],
            "cli_s": self.cli_s,
            "setup_raw_s": [seconds for seconds, _ in self.setup],
            "kernel_ms": [1000 * s for s in self.kernel_s],
            **self.parts,
        }
        rate = len(self.op_s) / sum(ops)
        # the median over the inputs of each input's median time: a plain
        # median of all samples would sit between two inputs of unequal cost
        # and jump with the noise
        typical_ms = 1000 * statistics.median(statistics.median(v) for v in self.by_input.values()) \
            if self.by_input else float("nan")
        # below 1 when the machine runs slower than the reference speed; the
        # gated timings are rescaled to that speed
        speed = KERNEL_REF_MS / statistics.median(stats["kernel_ms"])
        setup = [seconds * KERNEL_REF_MS / (1000 * kernel) for seconds, kernel in self.setup]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "norm_ops_per_s": (rate / speed, "1/s"),
            "norm_cold_cli_s": (statistics.median(self.cli_s) * speed, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        named = {
            "op_p50_ms": {"value": typical_ms, "unit": "ms", "n": len(self.by_input)},
            "norm_op_p50_ms": {"value": typical_ms * speed, "unit": "ms", "n": len(self.by_input)},
            "ops_per_s": {"value": rate, "unit": "1/s", "n": len(self.op_s)},
        }
        rows = NAMED[self.args.workload] + [("op_ms", "op_ms", "ms"), ("cold_cli_s", "cli_s", "s"),
                                            ("kernel_ms", "kernel_ms", "ms"), ("setup_raw_s", "setup_raw_s", "s")]
        for name, source, unit in rows:
            if source == "rate":
                named[name] = {"value": rate, "unit": unit, "n": len(self.op_s)}
            else:
                row = median_tail(stats[source])
                named[name] = {"value": row.pop("median"), "unit": unit, **row}
        named["failed_ratio"] = {"value": len(self.failures) / self.attempted, "unit": "failed/attempted"}
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, named

    def traced(self):
        """Alternate untraced and traced rounds; per-layer numbers per traced op."""
        nt = self.lib.numbertheory
        public_nt = [("numbertheory." + n, "salemk3.numbertheory", n) for n, obj in vars(nt).items()
                     if callable(obj) and not n.startswith("_") and getattr(obj, "__module__", "") == nt.__name__]
        tracer = Tracer(TRACED + public_nt)
        traced_op = tracer.wrap("op", self.op)
        rounds = {False: [], True: []}
        searches = []  # (candidates, witnesses) of traced obstructing-root searches
        ops = 0
        start = time.perf_counter()
        traced = False
        while True:
            self.kernel_s += kernel_times(3)
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            for index, item in enumerate(self.wl.items):
                if traced:
                    tracer.op = ops
                    result = traced_op(index, item)
                    ops += 1
                    if getattr(result, "candidate_count", None) is not None:
                        searches.append((result.candidate_count, len(result.witnesses)))
                else:
                    self.op(index, item)
            rounds[traced].append(time.perf_counter() - t0)
            if traced:
                tracer.uninstall()
                if time.perf_counter() - start >= self.args.seconds:
                    break
            traced = not traced
        agg = tracer.aggregate()
        per_op = max(ops, 1)
        metrics = {}
        for name in SELF_METRICS:
            metrics[name + ".self_s"] = (agg.get(name, [0, 0, 0])[2] / per_op, "s/op")
        for metric, name in CALL_METRICS.items():
            metrics[metric] = (agg.get(name, [0])[0] / per_op, "calls/op")
        metrics["numbertheory.self_s"] = (
            sum(row[2] for n, row in agg.items() if n.startswith("numbertheory.")) / per_op, "s/op")
        metrics["trace.unattributed_s"] = (agg.get("op", [0, 0, 0])[2] / per_op, "s/op")
        candidates = sum(c for c, _ in searches)
        metrics["positivity.candidates"] = (candidates / len(searches) if searches else 0.0, "count")
        metrics["positivity.hit_ratio"] = (
            sum(w for _, w in searches) / candidates if candidates else 0.0, "ratio")
        metrics["trace.kernel_ms"] = (1000 * statistics.median(self.kernel_s), "ms")
        metrics["trace.overhead_ratio"] = (
            statistics.median(rounds[True]) / statistics.median(rounds[False]), "ratio")
        imports = [json.loads(run_child([sys.executable, "-c", IMPORT_PROBE]).stdout) for _ in range(3)]
        metrics["cli.import_s"] = (statistics.median(i[0] for i in imports), "s")
        metrics["cli.sympy_import_s"] = (statistics.median(i[1] for i in imports), "s")
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{self.args.workload}-{self.args.seed}.jsonl"
        tracer.write(spans_path)
        info = {"absent": tracer.absent, "spans": str(spans_path.relative_to(ROOT)), "traced_ops": ops,
                "spans_recorded": len(tracer.spans), "wait_s": None}
        return {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}, info


IMPORT_PROBE = """\
import json, time
t0 = time.perf_counter()
import salemk3.cli
t1 = time.perf_counter()
import sympy
t2 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1]))
"""


def run_workload(args):
    workdir = OUT_DIR / f"run-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args, workdir)
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "env": environment()}
        if args.trace:
            metrics, info = run.traced()
            record["trace_info"] = info
        else:
            run.timed()
            metrics, named = run.end_to_end()
            record["named"] = named
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(run.failures)
    record.update(correct=failed == 0, attempted=run.attempted, failed=failed,
                  failures=run.failures[:20], metrics=metrics)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          + "  ".join(f"{k} {v}" for k, v in record["env"].items()))
    for name, row in record.get("named", {}).items():
        extra = f"  n={row['n']}" if "n" in row else ""
        if "tail" in row:
            extra += f"  p{row['tail']['p']} {row['tail']['value']:.6g}"
        print(f"  {name:<24} {row['value']:.6g} {row['unit']}{extra}")
    if args.trace:
        print("  waiting time: absent (nothing waits on a queue, lock or I/O)")
        print(f"  absent names: {record['trace_info']['absent'] or 'none'}")
        print(f"  spans: {record['trace_info']['spans']} ({record['trace_info']['spans_recorded']} spans)")
        for name, row in metrics.items():
            print(f"  {name:<44} {row['value']:.6g} {row['unit']}")
    for failure in run.failures[:5]:
        print(f"  FAILED {failure}")
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": record["correct"], "attempted": run.attempted, "failed": failed,
                      "metrics": metrics}))


def setup_only(args):
    workdir = OUT_DIR / f"setup-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        _, _, seconds, kernel = set_up(args.workload, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps([seconds, kernel]))


def run_all(args):
    out = Path(args.out or OUT_DIR / "all.jsonl")
    OUT_DIR.mkdir(exist_ok=True)
    earlier = len(out.read_text().splitlines()) if out.exists() else 0
    for workload in WORKLOADS:
        proc = run_child([sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace", "0", "--out", str(out)], timeout=600)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stdout.write(proc.stderr)
    records = [json.loads(line) for line in out.read_text().splitlines()[earlier:]]
    print(f"{'workload':<12} {'metric':<18} {'value':>12} unit")
    for rec in records:
        for name, row in {**rec["metrics"], **rec["named"]}.items():
            print(f"{rec['workload']:<12} {name:<18} {row['value']:>12.6g} {row['unit']}")


def spread(values):
    """Quartile distance as a share of the median (0 for a zero median)."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    median = statistics.median(values)
    return (q[2] - q[0]) / median if median else 0.0


def compare(path_a, path_b):
    """One row per (workload, metric): medians, ratio B/A, spreads, status."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sides = []
    for path in (path_a, path_b):
        rows = {}
        for line in Path(path).read_text().splitlines():
            rec = json.loads(line)
            for name, row in {**rec["metrics"], **rec.get("named", {})}.items():
                rows.setdefault((rec["workload"], name), []).append(row["value"])
        sides.append(rows)
    print(f"{'workload':<12} {'metric':<44} {'A':>11} {'B':>11} {'B/A':>7} {'sprA':>6} {'sprB':>6} bound  status")
    for key in sorted(set(sides[0]) & set(sides[1])):
        a, b = sides[0][key], sides[1][key]
        ma, mb = statistics.median(a), statistics.median(b)
        ratio = mb / ma if ma else float("nan")
        meta = declared.get(key[1], {})
        bound = meta.get("bound")
        status = "-"
        if bound is not None:
            lower = meta["better"] == "lower"
            worse_by = (ratio - 1) if lower else (1 - ratio)
            noisy = max(spread(a), spread(b)) > bound
            all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
            if noisy:
                status = "better" if all_better else "unresolved"
            else:
                status = "worse" if worse_by > bound else "within bound"
        print(f"{key[0]:<12} {key[1]:<44} {ma:>11.5g} {mb:>11.5g} {ratio:>7.3f} {spread(a):>6.3f} "
              f"{spread(b):>6.3f} {'' if bound is None else bound:<6} {status}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=CRITERION3_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    parser.add_argument("--all", action="store_true", help="run every workload with --trace 0")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two record files")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
    elif args.all:
        run_all(args)
    elif args.workload is None:
        parser.error("--workload is required")
    elif args.setup_only:
        setup_only(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
