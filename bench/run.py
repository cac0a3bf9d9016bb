"""sfqlec benchmark: `sfqlec verify` end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs installing.  One
process runs `sfqlec.cli.main(["verify", ...])` on generated netlist files,
one case after another (a closed loop with one client), and repeats the
workload's pass over its cases until `--seconds` is spent.  Every verdict
is checked against an answer fixed when the case was generated, every
printed trace is replayed by the benchmark's own simulation, and every
report and trace must repeat byte for byte.

`--trace 0` prints the end-to-end metrics: `verify_s`, one pass over the
cases (each case's mean repetition, rescaled to a reference machine speed,
see REF_PROBE_S); `peak_rss_mb`, this process's peak resident memory; and
`setup_s`, the median time for a fresh interpreter to import sfqlec.cli.
`--trace 1` alternates untraced and traced passes and prints the per-layer
metrics recorded by `spans.py` (self times are raw wall seconds), plus the
tracing overhead and span coverage.
The last line of standard output is one JSON object; the line before it,
also written to .bench_work/results/, records the seed, the sha256 of
every generated netlist, the interpreter, commit, CPU count and load.

Workloads (see BENCHMARK.json for which layer each should move):
  adder_equiv     Kogge-Stone pipelines vs ripple specs; one long UNSAT solve.
  fault_campaign  Faulted ks32 vs ripple32 and two small cases; trace
                  canonicalization, many short solves.
  front_end       Large self-pairs; parse, checks, unrolling, alignment.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("adder_equiv", "fault_campaign", "front_end")
REQUIRED = ("src/sfqlec/cli.py", "tests/gen.py", "tests/circuits.py")
IMPORT_SAMPLES_PER_PASS = 3
# On a shared 2-CPU host (2.1 GHz Xeon), co-tenants slowed whole runs by up
# to 1.8x for minutes at a time, which no number of repetitions averages
# away, and moved the spread of raw per-run times to 0.16-0.24.  So each
# timed call sits between two runs of `speed_probe`, a fixed loop that no
# change to the program can touch, and its time is rescaled to the speed at
# which the probe takes REF_PROBE_S: the probe's fastest time on an idle
# core of the 2.1 GHz Xeon sandbox the bounds were set on.  Raw wall-clock
# sums are kept in the context line.
REF_PROBE_S = 0.009
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import sfqlec.cli; print(time.perf_counter() - t)"
)


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop shaped like the checker's hot
    paths: list indexing, dict lookups, appends, small-int arithmetic."""
    t0 = time.perf_counter()
    vals = [0] * 512
    watches: dict[int, list[int]] = {}
    acc = 0
    for i in range(40_000):
        v = vals[i & 511]
        lst = watches.get(i & 255)
        if lst is None:
            lst = watches[i & 255] = []
        lst.append(v)
        if len(lst) > 8:
            lst.clear()
        vals[(i * 7) & 511] = (v + i) & 1023
        acc ^= abs(v - 300)
    return time.perf_counter() - t0


def at_reference(seconds: float, probe_before: float, probe_after: float) -> float:
    """`seconds` rescaled to the machine speed at which the probe takes
    REF_PROBE_S, judging the speed by the probes run just before and after."""
    return seconds * 2 * REF_PROBE_S / (probe_before + probe_after)


def import_seconds() -> float:
    """One fresh interpreter's import of sfqlec.cli, at reference speed."""
    before = speed_probe()
    out = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    )
    return at_reference(float(out.stdout), before, speed_probe())


def generate(workload: str, seed: int, out: Path) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "generate.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(out)],
        cwd=ROOT, check=True, timeout=600,
    )
    return json.loads((out / "manifest.json").read_text())


def context(args, manifest, passes, tracer, failures) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except OSError:
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "commit": commit,
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "pass_seconds": [round(p["verify_s"], 6) for p in passes],
        "wall_s": pass_seconds([p for p in passes if not p["traced"]], "seconds"),
        "case_seconds": {
            c["name"]: [[round(r["seconds"], 6), round(r["ref_s"], 6)] for r in runs]
            for c, runs in zip(manifest["cases"], zip(*(p["runs"] for p in passes)))
        },
        "cases": [
            {k: c[k] for k in ("name", "expect", "impl_sha256", "spec_sha256")}
            for c in manifest["cases"]
        ],
        "missing": tracer.missing if tracer else [],
        "failures": failures[:20],
    }


class Checker:
    """Judges each verify against the case's fixed answer and first run."""

    def __init__(self):
        import gen
        import oracle
        from sfqlec import parse_netlist

        self.gen, self.oracle, self.parse = gen, oracle, parse_netlist
        self.first: dict[str, tuple] = {}
        self.first_counts: dict[str, dict] = {}
        self.replayed: dict[str, str] = {}

    def replay(self, case, report: bytes, trace: bytes | None) -> str:
        if trace is None:
            return "inequivalent verdict without a trace file"
        try:
            window = next(l for l in report.decode().splitlines() if l.startswith("window "))
            lo = int(window.split()[1].split("..")[0])
            impl = self.oracle.Circuit(Path(case["impl"]).read_text())
            spec = self.parse(Path(case["spec"]).read_text(), name="spec")
            return self.oracle.replay(
                impl, trace.decode(), -lo, self.oracle.TRANSPARENT[case["profile"]],
                {pi: 1 for pi in case["late"]}, lambda asn: self.gen.eval_comb(spec, asn),
            )
        except (StopIteration, ValueError, KeyError, IndexError) as exc:
            return f"unreadable report or trace ({type(exc).__name__}: {exc})"

    def judge(self, case, run) -> str:
        """Empty string when the run is correct, else why not."""
        if run["error"]:
            return run["error"]
        if run["rc"] != case["expect"]:
            return f"exit {run['rc']}, expected {case['expect']}"
        got = (run["report"], run["trace"])
        if got != self.first.setdefault(case["name"], got):
            return "report or trace bytes differ from the first repetition"
        if run["counts"] is not None:
            if run["counts"] != self.first_counts.setdefault(case["name"], run["counts"]):
                return "per-layer counts differ from the first traced repetition"
        if case["expect"] == 1:
            # bytes equal the first repetition's, so one replay judges all
            if case["name"] not in self.replayed:
                self.replayed[case["name"]] = self.replay(case, *got)
            if self.replayed[case["name"]]:
                return f"trace replay: {self.replayed[case['name']]}"
        return ""


def run_case(main, case, tracer, work: Path) -> dict:
    report, trace = work / f"{case['name']}.report", work / f"{case['name']}.trace"
    trace.unlink(missing_ok=True)
    argv = case["argv"] + ["--report", str(report), "--trace", str(trace)]
    out = {"rc": None, "error": "", "counts": None, "self_s": {}}
    probe = speed_probe()
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            out["rc"] = main(argv)
    except SystemExit as exc:  # argparse and sys.exit() inside the CLI
        out["rc"] = exc.code
    except Exception as exc:  # a crash is a failed verify, never a lost one
        out["error"] = f"{type(exc).__name__}: {exc}"
    out["seconds"] = time.perf_counter() - t0
    out["ref_s"] = at_reference(out["seconds"], probe, speed_probe())
    out["report"] = report.read_bytes() if report.exists() else None
    out["trace"] = trace.read_bytes() if trace.exists() else None
    if tracer is not None:
        out["self_s"], out["counts"] = tracer.take()
    return out


def run_pass(main, cases, tracer, work) -> dict:
    runs, self_s = [], {}
    if tracer is not None:
        tracer.take()
        tracer.install()
    try:
        for case in cases:
            runs.append(run_case(main, case, tracer, work))
            for k, v in runs[-1]["self_s"].items():
                self_s[k] = self_s.get(k, 0.0) + v
    finally:
        if tracer is not None:
            tracer.uninstall()
    total = sum(r["seconds"] for r in runs)
    return {"verify_s": total, "runs": runs, "self_s": self_s, "traced": tracer is not None}


def pass_seconds(passes, key="ref_s") -> float:
    """One pass over the cases: the sum of each case's mean repetition.
    Once rescaled, repetitions scatter about evenly, and over 10-seed trials
    the mean spread less than the median."""
    per_case = zip(*([r[key] for r in p["runs"]] for p in passes))
    return sum(statistics.fmean(times) for times in per_case)


def per_layer(passes, counts, failed, attempted, tracer) -> dict:
    import spans

    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    m = {}
    for span, metric in spans.SELF_METRICS.items():
        m[metric] = (statistics.median(p["self_s"].get(span, 0.0) for p in traced), "s")
    for name in spans.COUNTS:
        m[name] = (counts.get(name, 0), "count")
    ineq, solves = counts.get("miter.inequivalent", 0), counts.get("sat.canon_solves", 0)
    m["miter.sim_hit_share"] = (counts.get("miter.sim_inequivalent", 0) / ineq if ineq else 0.0, "ratio")
    m["sat.canon_sat_share"] = (counts.get("sat.canon_sat", 0) / solves if solves else 0.0, "ratio")
    traced_s = pass_seconds(traced)
    m["bench.verify_s"] = (traced_s, "s")
    m["bench.span_coverage"] = (
        statistics.median(sum(p["self_s"].values()) / p["verify_s"] for p in traced), "ratio"
    )
    m["bench.trace_overhead"] = (traced_s / pass_seconds(plain) - 1, "ratio")
    m["bench.failed_share"] = (failed / attempted, "ratio")
    m["bench.missing_names"] = (len(tracer.missing), "count")
    return m


def measure(args, manifest, work: Path):
    imports = []
    if not args.trace:
        import_seconds()  # compiles the bytecode; not a fresh user's cost
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    from sfqlec.cli import main
    import spans

    cases = manifest["cases"]
    checker = Checker()
    tracer = spans.Tracer() if args.trace else None
    passes, failures = [], []
    failed = attempted = 0
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if not args.trace:
            imports += [import_seconds() for _ in range(IMPORT_SAMPLES_PER_PASS)]
        p = run_pass(main, cases, tracer if traced else None, work)
        passes.append(p)
        for case, run in zip(cases, p["runs"]):
            attempted += 1
            why = checker.judge(case, run)
            if why:
                failed += 1
                failures.append(f"pass {len(passes)} {case['name']}: {why}")
                print(f"FAIL {failures[-1]}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        typical = statistics.median(q["verify_s"] for q in passes)
        if len(passes) >= (2 if args.trace else 1) and elapsed + typical > args.seconds:
            break

    if args.trace:
        # counts of the first traced pass; the checker holds later ones to them
        counts = {}
        for run in next(p for p in passes if p["traced"])["runs"]:
            for k, v in (run["counts"] or {}).items():
                counts[k] = counts.get(k, 0) + v
        metrics = per_layer(passes, counts, failed, attempted, tracer)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "verify_s": (pass_seconds(passes), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "setup_s": (statistics.median(imports), "s"),
        }
    ctx = context(args, manifest, passes, tracer, failures)
    for name in ctx["missing"]:
        print(f"MISSING {name}: its spans and counts read 0 (bench.missing_names)", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return ctx, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    absent = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if absent:
        print(f"bench: not a source checkout, missing {', '.join(absent)}", file=sys.stderr)
        return 2

    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        try:
            manifest = generate(args.workload, args.seed, work)
        except subprocess.SubprocessError as exc:
            print(f"bench: generating {args.workload} failed: {exc}", file=sys.stderr)
            return 3
        ctx, result = measure(args, manifest, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = base / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps({"context": ctx, "result": result}, indent=1) + "\n")
    print(json.dumps(ctx))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
