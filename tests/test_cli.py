import gc
import os
import subprocess
import sys
import time

import pytest

from circuits import (
    ITCL_CLASH_BENCH,
    LATE_D_BENCH,
    LATE_D_GOLDEN_BENCH,
    SPLIT_RECONVERGE_BENCH,
    split_reconverge_golden,
)
from gen import kogge_stone_adder, late_b_ripple16, ripple_adder, sfqify
from sfqlec import (
    ArrivalSchedule,
    builtin_profile,
    check_path_balance,
    inject,
    parse_netlist,
    replay_trace,
    verify,
    write_netlist,
)
from sfqlec import cli
from sfqlec.cli import main
from sfqlec.itcl import MAX_LATENESS

GOLDEN_REDUCED_BENCH = "INPUT(p)\nINPUT(q)\nOUTPUT(a2)\na2 = BUF(p)\n"


@pytest.fixture()
def work(tmp_path):
    files = {
        "late_d.bench": LATE_D_BENCH,
        "late_d_golden.bench": LATE_D_GOLDEN_BENCH,
        "reconv.bench": SPLIT_RECONVERGE_BENCH,
        "reconv_golden.bench": write_netlist(split_reconverge_golden()),
        "reconv_reduced.bench": GOLDEN_REDUCED_BENCH,
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_structure_accepts_balanced(work, capsys):
    code, out, _ = run(capsys, "check-structure", work / "reconv.bench")
    assert code == 0
    assert out.splitlines()[-1] == "checks passed"


def test_check_structure_rejects_unbalanced(work, capsys):
    code, out, _ = run(capsys, "check-structure", work / "late_d.bench")
    assert code == 3
    assert "VIOLATION UnbalancedFanin t2" in out
    assert out.splitlines()[-1] == "checks failed"


def test_check_structure_po_only(work, capsys):
    code, out, _ = run(capsys, "check-structure", work / "late_d.bench", "--po-only-balance")
    assert code == 3
    assert "UnbalancedFanin" not in out
    assert "UnequalOutputDepth out" in out


def test_check_structure_report_file(work, capsys):
    report = work / "structure.report"
    _, out, _ = run(capsys, "check-structure", work / "late_d.bench", "--report", report)
    assert report.read_text() == out


def test_build_mcid_stdout_is_reparseable(work, capsys):
    code, out, err = run(capsys, "build-mcid", work / "late_d.bench")
    assert code == 0
    model = parse_netlist(out, name="model")
    assert len(model.gates) == 12
    assert "mcid-gates 12" in err
    assert "window -5..-4" in err


def test_build_mcid_arrivals_widen_the_window(work, capsys):
    _, out, err = run(capsys, "build-mcid", work / "late_d.bench", "--arrivals", "d:1")
    assert "window -6..-5" in err
    assert "mcid-gates 12" in err
    assert "t2@t-3 = AND2(cD@t-4, d@t-5)" in out


def test_build_mcid_out_file(work, capsys):
    out_path = work / "model.bench"
    code, out, _ = run(capsys, "build-mcid", work / "late_d.bench", "--out", out_path)
    assert code == 0 and out == ""
    assert "out@t0" in out_path.read_text()


def test_verify_inequivalent_with_inline_trace(work, capsys):
    code, out, err = run(
        capsys, "verify", work / "late_d.bench", work / "late_d_golden.bench"
    )
    assert code == 1
    assert "verdict inequivalent" in out
    assert "method simulation" in out
    assert "CYCLE 0: a=0 b=1 c=1 d=0" in out
    assert "CYCLE 1: a=0 b=0 c=0 d=1" in out
    assert "GOLDEN: a=0 b=1 c=1 d=0" in out
    assert "OUTPUT out: impl=1 golden=0" in out
    # unbalanced paths warn on stderr but don't block functional checking
    assert "WARNING VIOLATION UnbalancedFanin" in err
    assert "timing: verify late_d:" in err


def test_verify_trace_goes_to_file_when_asked(work, capsys):
    trace = work / "cex.trace"
    code, out, _ = run(
        capsys,
        "verify", work / "late_d.bench", work / "late_d_golden.bench",
        "--trace", trace,
    )
    assert code == 1
    assert "CYCLE" not in out
    assert trace.read_text() == (
        "CYCLE 0: a=0 b=1 c=1 d=0\n"
        "CYCLE 1: a=0 b=0 c=0 d=1\n"
        "GOLDEN: a=0 b=1 c=1 d=0\n"
        "OUTPUT out: impl=1 golden=0\n"
    )


def test_verify_arrivals_flip_the_verdict(work, capsys):
    code, out, _ = run(
        capsys,
        "verify", work / "late_d.bench", work / "late_d_golden.bench",
        "--arrivals", "d:1",
    )
    assert code == 0
    assert "verdict equivalent" in out
    assert "method sweep" in out
    assert "matched-step -5" in out


def test_verify_balance_warnings_follow_the_arrival_schedule(work, capsys):
    def warnings(*argv):
        code, _, err = run(capsys, "verify", *argv)
        return code, [line for line in err.splitlines() if line.startswith("WARNING")]

    # d one cycle late balances the fast branch; the slow DFF chain is then
    # one stage too deep
    assert warnings(work / "late_d.bench", work / "late_d_golden.bench", "--arrivals", "d:1") == (
        0,
        [
            "WARNING VIOLATION UnbalancedFanin orm fanin msp at depth 3 vs r3 at depth 4",
            "WARNING VIOLATION UnbalancedFanin out fanin orm has path lengths {4,5}",
            "WARNING VIOLATION UnequalOutputDepth out path lengths {5,6}",
        ],
    )
    impl, spec = late_b_ripple16()
    assert not check_path_balance(impl, builtin_profile("rsfq")).passed
    (work / "late_b.bench").write_text(write_netlist(impl))
    (work / "ripple16.bench").write_text(write_netlist(spec))
    late = ",".join(f"{pi}:1" for pi in spec.primary_inputs if pi.startswith("b"))
    assert warnings(work / "late_b.bench", work / "ripple16.bench", "--arrivals", late) == (0, [])


def test_verify_po_only_balance_keeps_only_the_output_depth_warning(work, capsys):
    args = ("verify", work / "late_d.bench", work / "late_d_golden.bench")
    code, full_out, full_err = run(capsys, *args)
    full = [line for line in full_err.splitlines() if line.startswith("WARNING")]
    assert code == 1
    assert len(full) == 7
    assert all(line.startswith("WARNING VIOLATION UnbalancedFanin ") for line in full[:6])
    assert full[6] == "WARNING VIOLATION UnequalOutputDepth out path lengths {4,5}"
    code, po_out, po_err = run(capsys, *args, "--po-only-balance")
    assert code == 1
    assert [line for line in po_err.splitlines() if line.startswith("WARNING")] == full[6:]
    assert po_out == full_out


def test_verify_report_is_deterministic(work, capsys):
    args = ("verify", work / "late_d.bench", work / "late_d_golden.bench")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    assert "decisions " in first and "aig-nodes " in first


def bypass_dsp(work, capsys):
    """late_d with splitter dsp bypassed: d has two readers, a fanout violation."""
    faulty = work / "faulty.bench"
    run(
        capsys,
        "inject-fault", work / "late_d.bench",
        "--kind", "remove-splitter", "--target", "dsp", "--out", faulty,
    )
    return faulty


def test_verify_rejects_broken_fanout_before_unrolling(work, capsys):
    faulty = bypass_dsp(work, capsys)
    code, out, _ = run(capsys, "verify", faulty, work / "late_d_golden.bench")
    assert code == 3
    assert "verdict rejected" in out
    assert "VIOLATION FanoutExceeded d" in out
    assert "mcid-gates" not in out


def test_verify_structural_equivalence_and_sentinel_cnf(work, capsys):
    cnf = work / "miter.cnf"
    code, out, _ = run(
        capsys,
        "verify", work / "reconv.bench", work / "reconv_golden.bench", "--cnf", cnf,
    )
    assert code == 0
    assert "verdict equivalent" in out
    assert "method structural" in out
    # the miter collapsed to constant false: one empty clause, no variables
    assert cnf.read_text() == "p cnf 0 1\n0\n"


def test_verify_constant_difference_writes_empty_cnf(work, capsys):
    # constant-0 vs constant-1: the miter is constant true, so the DIMACS
    # file is the trivially satisfiable empty formula
    (work / "const0.bench").write_text("INPUT(a)\nOUTPUT(y)\ny = XOR2(a, a)\n")
    (work / "const1.bench").write_text("INPUT(a)\nOUTPUT(y)\ny = XNOR2(a, a)\n")
    cnf = work / "miter.cnf"
    code, out, _ = run(
        capsys,
        "verify", work / "const0.bench", work / "const1.bench",
        "--profile", "cmos", "--cnf", cnf,
    )
    assert code == 1
    assert "OUTPUT y: impl=0 golden=1" in out
    assert cnf.read_text() == "p cnf 0 0\n"


def test_verify_solver_case_writes_real_cnf(work, capsys):
    cnf = work / "miter.cnf"
    code, out, _ = run(
        capsys,
        "verify", work / "reconv.bench", work / "reconv_reduced.bench", "--cnf", cnf,
    )
    assert code == 0
    assert "method sweep" in out
    text = cnf.read_text()
    # the whole miter's CNF, as before the sweep: 7 variables, 16 clauses
    assert "p cnf 7 16" in text.splitlines() and "c var 1 = " in text


def test_verify_conflict_budget_gives_exit_4(work, capsys):
    code, out, _ = run(
        capsys,
        "verify", work / "reconv.bench", work / "reconv_reduced.bench",
        "--max-conflicts", "1",
    )
    assert code == 4
    assert "verdict unknown" in out


def test_verify_zero_conflict_budget_is_exhausted_before_any_solve(work, capsys):
    # The decide-phase budget is checked before each solve call, so a budget
    # of 0 conflicts starts no search, even one that would need no conflict.
    code, out, _ = run(
        capsys,
        "verify", work / "reconv.bench", work / "reconv_reduced.bench",
        "--max-conflicts", "0",
    )
    assert code == 4
    lines = out.splitlines()
    assert "verdict unknown" in lines
    assert "decisions 0" in lines and "propagations 0" in lines
    # A verdict found by simulation stands; its trace stays uncanonicalized.
    code, out, _ = run(
        capsys,
        "verify", work / "late_d.bench", work / "late_d_golden.bench",
        "--max-conflicts", "0",
    )
    assert code == 1
    lines = out.splitlines()
    assert "method simulation" in lines
    assert "trace-canonical budget" in lines


def test_verify_per_output_lines(work, capsys):
    code, out, _ = run(
        capsys,
        "verify", work / "late_d.bench", work / "late_d_golden.bench", "--per-output",
    )
    assert code == 1
    assert "method per-output" in out
    assert "output out inequivalent" in out


def test_verify_report_tsv_appends(work, capsys):
    tsv = work / "times.tsv"
    args = (
        "verify", work / "late_d.bench", work / "late_d_golden.bench",
        "--report-tsv", tsv,
    )
    run(capsys, *args)
    run(capsys, *args)
    rows = tsv.read_text().splitlines()
    assert len(rows) == 2
    for row in rows:
        name, verdict, method, ms = row.split("\t")
        assert name == "late_d"
        assert verdict == "inequivalent"
        assert method == "simulation"
        float(ms)


def test_inject_fault_stdout_carries_spec_comment(work, capsys):
    code, out, _ = run(
        capsys, "inject-fault", work / "late_d.bench", "--kind", "swap-gate", "--seed", "7"
    )
    assert code == 0
    assert "# FAULT swap-gate " in out
    parse_netlist(out)  # bench stays loadable, comment included


def test_inject_fault_out_file_prints_the_line(work, capsys):
    path = work / "mutated.bench"
    code, out, _ = run(
        capsys,
        "inject-fault", work / "late_d.bench",
        "--kind", "remove-dff", "--target", "r2", "--out", path,
    )
    assert code == 0
    assert out == "FAULT remove-dff r2 removed\n"
    assert path.read_text().endswith("# FAULT remove-dff r2 removed\n")


def test_simulate_command(work, capsys):
    waves = work / "in.waves"
    waves.write_text("# two waves\na=0 b=1 c=1 d=0\nd=1\n")
    code, out, _ = run(
        capsys, "simulate", work / "late_d.bench", "--waves", waves, "--extra", "4"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[0] == "CYCLE 0: out=0"
    assert lines[5] == "CYCLE 5: out=1"  # late d completes the product


def test_simulate_extra_cycles_are_capped(work, capsys):
    waves = work / "in.waves"
    waves.write_text("a=0 b=1 c=1 d=0\nd=1\n")
    args = ("simulate", work / "late_d.bench", "--waves", waves, "--extra")
    t0 = time.monotonic()
    code, out, err = run(capsys, *args, "99999999999")
    assert time.monotonic() - t0 < 1.0  # refused before any cycle is built
    assert code == 2 and out == ""
    assert err == f"error: --extra 99999999999 is above the limit of {MAX_LATENESS} cycles\n"
    code, out, _ = run(capsys, *args, str(MAX_LATENESS))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2 + MAX_LATENESS
    assert lines[5] == "CYCLE 5: out=1" and lines[-1] == f"CYCLE {1 + MAX_LATENESS}: out=0"


def test_simulate_rejects_unknown_wave_names(work, capsys):
    waves = work / "in.waves"
    waves.write_text("zz=1\n")
    code, _, err = run(capsys, "simulate", work / "late_d.bench", "--waves", waves)
    assert code == 2
    assert "unknown input" in err


def test_missing_file_is_a_config_error(work, capsys):
    code, _, err = run(capsys, "verify", work / "nope.bench", work / "late_d_golden.bench")
    assert code == 2
    assert "error:" in err


def test_bad_profile_is_a_config_error(work, capsys):
    code, _, err = run(
        capsys, "check-structure", work / "late_d.bench", "--profile", "unobtanium"
    )
    assert code == 2
    assert "error:" in err


def test_bad_arrivals_are_a_config_error(work, capsys):
    code, _, err = run(
        capsys,
        "verify", work / "late_d.bench", work / "late_d_golden.bench",
        "--arrivals", "d:x",
    )
    assert code == 2
    assert "error:" in err


bad_arrivals = pytest.mark.parametrize(
    "arrivals, message",
    [
        ("d:x", "bad arrival entry 'd:x', expected name:cycles"),
        ("zz:1", "arrival schedule names unknown input zz"),
        ("d:5000", f"arrival of d is 5000 cycles late, limit is {MAX_LATENESS}"),
        ("d:-1", "arrival of d is negative (-1)"),
    ],
    ids=["not-a-number", "unknown-input", "above-limit", "negative"],
)


@bad_arrivals
def test_bad_arrivals_are_reported_before_a_fanout_rejection(work, capsys, arrivals, message):
    faulty = bypass_dsp(work, capsys)
    got = run(capsys, "verify", faulty, work / "late_d_golden.bench", "--arrivals", arrivals)
    assert got == (2, "", f"error: {message}\n")


@bad_arrivals
def test_bad_arrivals_are_reported_before_build_mcid_unrolls(work, capsys, monkeypatch, arrivals, message):
    def unroll(*args):
        raise AssertionError("build_mcid ran before the schedule was checked")

    monkeypatch.setattr(cli, "build_mcid", unroll)
    got = run(capsys, "build-mcid", work / "late_d.bench", "--arrivals", arrivals)
    assert got == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["verify", "build-mcid"])
def test_lateness_above_the_limit_is_a_config_error(work, capsys, command):
    args = [command, work / "late_d.bench"]
    if command == "verify":
        args.append(work / "late_d_golden.bench")
    code, _, err = run(capsys, *args, "--arrivals", f"d:{MAX_LATENESS}")
    assert code in (0, 1), err
    for arrivals in (f"d:{MAX_LATENESS + 1}", "a:99999999999,b:0"):
        code, _, err = run(capsys, *args, "--arrivals", arrivals)
        assert code == 2, arrivals
        assert err.endswith(f"cycles late, limit is {MAX_LATENESS}\n"), err
    # only the relative lateness counts: a uniform huge schedule is a no-op
    uniform = ",".join(f"{pi}:99999999999" for pi in "abcd")
    code, _, _ = run(capsys, *args, "--arrivals", uniform)
    assert code in (0, 1)


@pytest.mark.parametrize(
    "command, spec, code",
    [
        ("verify", "o1 = INV(a)\no2 = INV(a)\n", 1),
        ("verify", "o1 = BUF(d)\no2 = INV(a)\n", 0),
        ("build-mcid", None, 0),
    ],
    ids=["verify-inequivalent-spec", "verify-equivalent-spec", "build-mcid"],
)
def test_an_arrival_buffer_net_named_like_a_model_net_is_a_config_error(work, capsys, command, spec, code):
    """It no longer is: apply_itcl builds no arrival buffer nets, so a net
    named d.itcl.t-1 is an ordinary net and each command runs to its verdict."""
    clash = work / "clash.bench"
    clash.write_text(ITCL_CLASH_BENCH)
    if spec is None:
        got, _, err = run(capsys, command, clash, "--arrivals", "d:1")
        assert got == code and "mcid-gates 3" in err
        return
    spec_path = work / "clash_spec.bench"
    spec_path.write_text("INPUT(a)\nINPUT(d)\nOUTPUT(o2)\nOUTPUT(o1)\n" + spec)
    trace = work / "clash.trace"
    got, out, _ = run(capsys, command, clash, spec_path, "--arrivals", "d:1", "--trace", trace)
    assert got == code
    if code == 0:
        assert "verdict equivalent" in out
        return
    assert "verdict inequivalent" in out
    impl, wrong = parse_netlist(ITCL_CLASH_BENCH), parse_netlist(spec_path.read_text())
    schedule = ArrivalSchedule.parse("d:1")
    verdict = verify(impl, wrong, schedule=schedule).verdict
    assert trace.read_text() == verdict.trace.format()
    assert replay_trace(impl, wrong, verdict.trace, schedule=schedule)


def test_a_netlist_with_a_byte_order_mark_is_read(work, capsys):
    path = work / "bom.bench"
    path.write_bytes(b"\xef\xbb\xbf" + (work / "reconv.bench").read_bytes())
    code, out, _ = run(capsys, "check-structure", path)
    assert code == 0
    assert out.splitlines()[-1] == "checks passed"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "bad.txt", "late_d_golden.bench"),
        ("verify", "late_d.bench", "bad.txt"),
        ("check-structure", "bad.txt"),
        ("check-structure", "late_d.bench", "--profile", "bad.txt"),
        ("simulate", "late_d.bench", "--waves", "bad.txt"),
    ],
    ids=["netlist", "golden", "check-structure", "profile", "waves"],
)
def test_non_utf8_input_is_a_config_error(work, capsys, argv):
    (work / "bad.txt").write_bytes(b"INPUT(a)\n\xff\xfe\n")
    args = [str(work / a) if "." in a else a for a in argv]
    code, _, err = run(capsys, *args)
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_verify_empty_spec_is_a_config_error(work, capsys):
    # no inputs, so no outputs either: there is no wave to match
    (work / "empty.bench").write_text("")
    (work / "empty_golden.bench").write_text("")
    code, _, err = run(capsys, "verify", work / "empty.bench", work / "empty_golden.bench")
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "late_d.bench", "--waves", "in.waves", "--extra", "-2"),
        ("simulate", "late_d.bench", "--waves", "in.waves", "--extra", "-9"),
        ("verify", "late_d.bench", "late_d_golden.bench", "--max-conflicts", "-1"),
        ("verify", "late_d.bench", "late_d_golden.bench", "--max-seconds", "-0.5"),
        ("verify", "late_d.bench", "late_d_golden.bench", "--max-seconds", "nan"),
    ],
    ids=["extra-2", "extra-9", "conflicts-1", "seconds-0.5", "seconds-nan"],
)
def test_negative_or_nan_limits_are_usage_errors(work, capsys, argv):
    (work / "in.waves").write_text("a=0 b=1 c=1 d=0\nd=1\nd=1\n")
    args = [str(work / a) if a.endswith((".bench", ".waves")) else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {argv[-2]}: must be at least 0" in captured.err


@pytest.mark.parametrize("value", ["1_0", "\u0661"], ids=["underscore", "arabic-indic"])
@pytest.mark.parametrize(
    "argv, kind",
    [
        (("verify", "late_d.bench", "late_d_golden.bench", "--seed"), "int"),
        (("verify", "late_d.bench", "late_d_golden.bench", "--max-conflicts"), "int"),
        (("verify", "late_d.bench", "late_d_golden.bench", "--max-seconds"), "float"),
        (("inject-fault", "late_d.bench", "--kind", "swap-gate", "--seed"), "int"),
        (("simulate", "late_d.bench", "--waves", "in.waves", "--extra"), "int"),
    ],
    ids=["verify-seed", "max-conflicts", "max-seconds", "inject-fault-seed", "extra"],
)
def test_number_options_take_only_ascii_digits_without_underscores(work, capsys, argv, kind, value):
    # `int()` and `float()` alone read 1_0 as 10 and an Arabic-Indic one as 1
    (work / "in.waves").write_text("a=0 b=1 c=1 d=0\n")
    args = [str(work / a) if a.endswith((".bench", ".waves")) else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main([*args, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {argv[-1]}: invalid {kind} value: {value!r}" in captured.err


def test_missing_subcommand_exits_argparse_style(capsys):
    with pytest.raises(SystemExit):
        main([])
    assert "usage:" in capsys.readouterr().err


# One case per command and per exit-2 path: (exit code, argv over the `work` files).
COMMANDS = {
    "verify-structural": (0, "verify", "reconv.bench", "reconv_golden.bench"),
    "verify-sweep": (0, "verify", "reconv.bench", "reconv_reduced.bench"),
    "verify-simulation": (1, "verify", "late_d.bench", "late_d_golden.bench"),
    "check-structure": (3, "check-structure", "late_d.bench"),
    "build-mcid": (0, "build-mcid", "late_d.bench", "--arrivals", "d:2"),
    "inject-fault": (0, "inject-fault", "late_d.bench", "--kind", "swap-gate"),
    "simulate": (0, "simulate", "late_d.bench", "--waves", "in.waves"),
    "parse-error": (2, "check-structure", "broken.bench"),
    "missing-file": (2, "verify", "nope.bench", "late_d_golden.bench"),
    "bad-arrivals": (2, "verify", "late_d.bench", "late_d_golden.bench", "--arrivals", "d:x"),
}


def work_argv(work, argv):
    (work / "in.waves").write_text("a=0 b=1 c=1 d=0\nd=1\n")
    (work / "broken.bench").write_text("INPUT(a)\nOUTPUT(y)\ny = AND2(a)\n")
    return [str(work / a) if a.endswith((".bench", ".waves")) else a for a in argv]


@pytest.fixture()
def collector_off():
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


@pytest.mark.parametrize("name", COMMANDS)
def test_commands_leave_no_cyclic_garbage(work, capsys, collector_off, name):
    """The collector pause defers nothing: reference counting alone frees
    what a command built, once first-use setup (the parser) is done."""
    code, *argv = COMMANDS[name]
    args = work_argv(work, argv)
    assert main(args) == code
    gc.collect()
    assert main(args) == code
    capsys.readouterr()
    assert gc.collect() == 0


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "name", ["verify-structural", "verify-simulation", "missing-file", "check-structure"]
)
def test_main_restores_the_collector_state(work, capsys, collector_off, enabled, name):
    """On exit codes 0, 1, 2 and 3 alike."""
    if enabled:
        gc.enable()
    code, *argv = COMMANDS[name]
    assert main(work_argv(work, argv)) == code
    capsys.readouterr()  # keep the reports out of the -rP summary
    assert gc.isenabled() is enabled


# Counts the argparse parsers built while `sfqlec.cli` is imported, then
# builds the parser once to show that the count sees it.
IMPORT_PROBE = """
import argparse, sys
built = []
init = argparse.ArgumentParser.__init__
argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)
sys.path.insert(0, sys.argv[1])
import sfqlec.cli
on_import = len(built)
sfqlec.cli.build_parser()
print(on_import, len(built) > 0)
"""


def test_importing_the_cli_builds_no_parser():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, os.path.abspath(src)],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "0 True\n"


# The modules that importing `sfqlec.cli` loads, as a diff of `sys.modules`,
# so a module some site hook loaded earlier neither hides nor fakes one.
WEIGHT_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import sfqlec.cli
print(*sorted(set(sys.modules) - before))
"""


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """`dataclasses` brings `inspect`, `ast`, `dis` and `tokenize` with it;
    with the methods it generated for each record, it took more than half
    of a cold import of the CLI on 3.11."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    loaded = subprocess.run(
        [sys.executable, "-I", "-c", WEIGHT_PROBE, os.path.abspath(src)],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "sfqlec.cli" in loaded
    assert not {"dataclasses", "inspect"}.intersection(loaded), loaded


FIELDS_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import sfqlec.cli
for name, module in list(sys.modules.items()):
    if name.split(".")[0] == "sfqlec":
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == name and hasattr(value, "_fields"):
                print(value.__name__)
"""


def test_importing_the_cli_builds_only_the_two_tuple_records():
    """Each `typing.NamedTuple` class costs a code generation at import;
    only the records that hot loops build as tuples are NamedTuples."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    built = subprocess.run(
        [sys.executable, "-I", "-c", FIELDS_PROBE, os.path.abspath(src)],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert sorted(built) == ["Gate", "TimedSignal"]


def test_the_package_runs_as_a_module_from_a_checkout():
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    done = subprocess.run(
        [sys.executable, "-m", "sfqlec", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert "verify" in done.stdout


def test_the_module_verifies_as_cli_main_does(work, capsys):
    """`python -m sfqlec verify` on a faulted adder pair: the exit code and
    stdout of `cli.main` in process."""
    impl = inject(sfqify(kogge_stone_adder(8)), "swap-gate", seed=0)[0]
    (work / "ks8.bench").write_text(write_netlist(impl))
    (work / "ripple8.bench").write_text(write_netlist(ripple_adder(8)))
    argv = ["verify", str(work / "ks8.bench"), str(work / "ripple8.bench")]
    code, out, _ = run(capsys, *argv)
    assert code == 1 and "verdict inequivalent" in out and "CYCLE 0:" in out
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    done = subprocess.run(
        [sys.executable, "-m", "sfqlec", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert (done.returncode, done.stdout) == (code, out), done.stderr
