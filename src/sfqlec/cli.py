"""Command-line front end.

Exit codes: 0 success/equivalent, 1 inequivalent, 2 usage/parse/config
error, 3 structural rejection, 4 solver limit reached.

Reports and traces contain no timing data, so identical runs produce
identical bytes; wall-clock numbers go to stderr and to --report-tsv.
"""

import argparse
import functools
import gc
import os
import sys
import time

from .checks import check_fanout, check_path_balance
from .errors import SfqlecError, parse_number
from .faults import FAULT_KINDS, inject
from .itcl import MAX_LATENESS, ArrivalSchedule, apply_itcl
from .mcid import build_mcid
from .miter import verify
from .netlist import circuit_depth, parse_netlist, write_netlist
from .profiles import resolve_profile
from .sat import cnf_from_aig, to_dimacs
from .sim import parse_wave, simulate
from .trace import format_wave

EXIT_EQUIVALENT = 0
EXIT_INEQUIVALENT = 1
EXIT_ERROR = 2
EXIT_REJECTED = 3
EXIT_UNDECIDED = 4
VERDICT_WORDS = {True: "equivalent", False: "inequivalent", None: "unknown"}


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise SfqlecError(f"cannot read {path!r}: {exc}") from None


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load(path: str):
    stem = os.path.splitext(os.path.basename(path))[0]
    return parse_netlist(_read(path), name=stem)


def _emit(lines: list[str], report_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if report_path:
        _write(report_path, text)


def cmd_check_structure(args) -> int:
    netlist = _load(args.netlist)
    profile = resolve_profile(args.profile)
    lines = [f"netlist {netlist.name}", f"profile {profile.name}"]
    fan = check_fanout(netlist, profile)
    bal = check_path_balance(netlist, profile, po_only=args.po_only_balance)
    lines += fan.lines() + bal.lines()
    ok = fan.passed and bal.passed
    lines.append("checks passed" if ok else "checks failed")
    _emit(lines, args.report)
    return EXIT_EQUIVALENT if ok else EXIT_REJECTED


def cmd_build_mcid(args) -> int:
    netlist = _load(args.netlist)
    profile = resolve_profile(args.profile)
    schedule = ArrivalSchedule.parse(args.arrivals or "")
    schedule.shifts(netlist.primary_inputs)  # a bad schedule fails before the unroll
    mcid = apply_itcl(build_mcid(netlist, profile), schedule)
    bench = mcid.to_bench()
    if args.out:
        _write(args.out, bench)
    else:
        sys.stdout.write(bench)
    lo, hi = mcid.window
    print(
        f"mcid-gates {mcid.gate_count}\n"
        f"mcid-duplicated {mcid.duplicated_gate_count}\n"
        f"pins {len(mcid.timed_inputs)}\n"
        f"window {lo}..{hi}",
        file=sys.stderr,
    )
    return EXIT_EQUIVALENT


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    netlist = _load(args.netlist)
    golden = _load(args.golden)
    profile = resolve_profile(args.profile)
    schedule = ArrivalSchedule.parse(args.arrivals or "")
    run = verify(
        netlist, golden, profile, schedule, args.po_only_balance,
        max_conflicts=args.max_conflicts, max_seconds=args.max_seconds,
        seed=args.seed, per_output=args.per_output,
    )
    lines = [f"netlist {netlist.name}", f"golden {golden.name}", f"profile {profile.name}"]
    if not run.fanout.passed:
        lines += run.fanout.lines()
        lines.append("verdict rejected")
        _emit(lines, args.report)
        _finish(args, netlist.name, "rejected", "none", t0)
        return EXIT_REJECTED
    for v in run.balance.violations:
        print(f"WARNING {v.line()}", file=sys.stderr)

    miter, verdict = run.miter, run.verdict
    if args.cnf:
        _write(args.cnf, to_dimacs(cnf_from_aig(miter.aig, miter.root)))

    lo, hi = miter.mcid.window
    word = VERDICT_WORDS[verdict.equivalent]
    s = verdict.stats
    lines += [
        f"mcid-gates {miter.mcid.gate_count}",
        f"mcid-duplicated {miter.mcid.duplicated_gate_count}",
        f"window {lo}..{hi}",
        f"matched-step {miter.matching.t_star}",
        f"verdict {word}",
    ]
    for name, value in vars(s).items():  # in VerdictStats.__init__'s order
        if value is not None and value != "":
            lines.append(f"{name.replace('_', '-')} {value}")
    if verdict.per_output is not None:
        lines += [f"output {po} {VERDICT_WORDS[v]}" for po, v in verdict.per_output.items()]
    if verdict.trace is not None:
        if args.trace:
            _write(args.trace, verdict.trace.format())
        else:
            lines += verdict.trace.format_lines()
    _emit(lines, args.report)
    _finish(args, netlist.name, word, s.method, t0)
    if verdict.equivalent is None:
        return EXIT_UNDECIDED
    return EXIT_EQUIVALENT if verdict.equivalent else EXIT_INEQUIVALENT


def _finish(args, name: str, word: str, method: str, t0: float) -> None:
    ms = (time.monotonic() - t0) * 1000.0
    print(f"timing: verify {name}: {ms:.3f} ms", file=sys.stderr)
    if args.report_tsv:
        with open(args.report_tsv, "a", encoding="utf-8") as fh:
            fh.write(f"{name}\t{word}\t{method}\t{ms:.3f}\n")


def cmd_inject_fault(args) -> int:
    netlist = _load(args.netlist)
    mutated, spec = inject(netlist, args.kind, seed=args.seed, target=args.target)
    text = write_netlist(mutated) + f"# {spec.line()}\n"
    if args.out:
        _write(args.out, text)
        print(spec.line())
    else:
        sys.stdout.write(text)
    return EXIT_EQUIVALENT


def cmd_simulate(args) -> int:
    netlist = _load(args.netlist)
    profile = resolve_profile(args.profile)
    if args.extra is not None:
        # netlists are acyclic: past their depth, cycles only repeat the flushed outputs
        limit = max(circuit_depth(netlist, profile), MAX_LATENESS)
        if args.extra > limit:
            raise SfqlecError(f"--extra {args.extra} is above the limit of {limit} cycles")
    waves = []
    for raw in _read(args.waves).splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        wave = parse_wave(line)
        unknown = sorted(set(wave) - set(netlist.primary_inputs))
        if unknown:
            raise SfqlecError(f"wave drives unknown input(s): {', '.join(unknown)}")
        waves.append(wave)
    seen = simulate(netlist, waves, profile, extra_cycles=args.extra)
    for k, outs in enumerate(seen):
        print(f"CYCLE {k}: {format_wave(outs, netlist.primary_outputs)}")
    return EXIT_EQUIVALENT


def _number(convert, at_least_zero=False):
    """An argparse type by `parse_number`'s rule; `at_least_zero` refuses negatives and NaN."""

    def parse(text):
        value = parse_number(text, convert)
        if at_least_zero and not value >= 0:
            raise argparse.ArgumentTypeError(f"must be at least 0, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # "invalid int value" for non-numbers
    return parse


@functools.cache  # built on first use: importing stays cheap, calls share one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfqlec", description="structural checks and equivalence checking for clocked netlists"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--profile", default="rsfq", help="builtin profile name or profile file")

    p = sub.add_parser("check-structure", help="fanout and path-balance checks")
    p.add_argument("netlist")
    common(p)
    p.add_argument("--po-only-balance", action="store_true", help="only compare output depths")
    p.add_argument("--report", metavar="FILE", default=None)
    p.set_defaults(func=cmd_check_structure)

    p = sub.add_parser("build-mcid", help="dump the unrolled model as bench text")
    p.add_argument("netlist")
    common(p)
    p.add_argument("--arrivals", default=None, help="arrival schedule, e.g. 'a:0,d:1'")
    p.add_argument("--out", metavar="FILE", default=None)
    p.set_defaults(func=cmd_build_mcid)

    p = sub.add_parser("verify", help="check a netlist against a combinational golden spec")
    p.add_argument("netlist")
    p.add_argument("golden")
    common(p)
    p.add_argument("--arrivals", default=None, help="arrival schedule, e.g. 'a:0,d:1'")
    p.add_argument("--po-only-balance", action="store_true")
    p.add_argument("--per-output", action="store_true")
    p.add_argument("--seed", type=_number(int), default=0, help="simulation pre-pass seed")
    p.add_argument("--max-conflicts", type=_number(int, at_least_zero=True), default=None)
    p.add_argument("--max-seconds", type=_number(float, at_least_zero=True), default=None)
    p.add_argument("--trace", metavar="FILE", default=None, help="write counterexample trace here")
    p.add_argument("--cnf", metavar="FILE", default=None, help="write miter DIMACS here")
    p.add_argument("--report", metavar="FILE", default=None)
    p.add_argument("--report-tsv", metavar="FILE", default=None, help="append a timing row here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("inject-fault", help="mutate a netlist with a seeded structural fault")
    p.add_argument("netlist")
    p.add_argument("--kind", required=True, choices=FAULT_KINDS)
    p.add_argument("--seed", type=_number(int), default=0)
    p.add_argument("--target", default=None, help="output net of the gate (default: seeded pick)")
    p.add_argument("--out", metavar="FILE", default=None)
    p.set_defaults(func=cmd_inject_fault)

    p = sub.add_parser("simulate", help="cycle-accurate simulation of input waves")
    p.add_argument("netlist")
    common(p)
    p.add_argument("--waves", required=True, metavar="FILE", help="one wave per line: 'a=0 b=1'")
    p.add_argument("--extra", type=_number(int, at_least_zero=True), help="cycles after the last wave")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    """Run one command with the cyclic garbage collector paused.

    The pipeline makes no reference cycles, so reference counting frees its
    records when the command returns; the collector's walks over them would
    be pure overhead.  A caller's collector state is restored on the way out.
    """
    args = build_parser().parse_args(argv)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (SfqlecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
