"""Pinned report bytes: `verify` and `build-mcid` output must not drift.

Criterion 8 only compares a run with its own rerun; these literals catch a
change that alters every run alike.  After a deliberate report change,
regenerate a pin by running the same command (the `run` calls below) and
pasting its stdout, or for the adder case printing
`sha256(stdout + trace file)`, and say why in CHANGES.md.
"""

import hashlib
import random

import pytest

from circuits import LATE_D_BENCH, LATE_D_GOLDEN_BENCH
from gen import kogge_stone_adder, ripple_adder, sfqify
from sfqlec import inject, parse_netlist, write_netlist
from sfqlec.cli import main

LATE_D_VERIFY = """\
netlist late_d
golden late_d_golden
profile rsfq
mcid-gates 12
mcid-duplicated 0
window -5..-4
matched-step -5
verdict inequivalent
method simulation
aig-nodes 16
cnf-vars 0
cnf-clauses 0
decisions 0
conflicts 0
propagations 0
canon-sat-calls 1
trace-canonical yes
CYCLE 0: a=0 b=1 c=1 d=0
CYCLE 1: a=0 b=0 c=0 d=1
GOLDEN: a=0 b=1 c=1 d=0
OUTPUT out: impl=1 golden=0
"""

LATE_D_VERIFY_D1 = """\
netlist late_d
golden late_d_golden
profile rsfq
mcid-gates 12
mcid-duplicated 0
window -6..-5
matched-step -5
verdict equivalent
method sweep
aig-nodes 14
cnf-vars 12
cnf-clauses 25
decisions 0
conflicts 2
propagations 33
canon-sat-calls 0
sweep-proved 2
sweep-refuted 0
"""

# late_d with splitter dsp bypassed: the fanout check stops the flow
LATE_D_NODSP_VERIFY = """\
netlist late_d_nodsp
golden late_d_golden
profile rsfq
VIOLATION FanoutExceeded d 2 readers, limit 1
verdict rejected
"""

LATE_D_MCID_D2 = """\
# MCID model of late_d
INPUT(a@t-5)
INPUT(b@t-5)
INPUT(c@t-5)
INPUT(d@t-7)
INPUT(d@t-6)
OUTPUT(out@t0)
na@t-4 = INV(a@t-5)
bD@t-4 = BUF(b@t-5)
t1@t-3 = AND2(na@t-4, bD@t-4)
cD@t-4 = BUF(c@t-5)
t2@t-3 = AND2(cD@t-4, d@t-6)
m@t-2 = AND2(t1@t-3, t2@t-3)
mD@t-1 = BUF(m@t-2)
r1@t-4 = BUF(d@t-7)
r2@t-3 = BUF(r1@t-4)
r3@t-2 = BUF(r2@t-3)
orm@t-1 = OR2(m@t-2, r3@t-2)
out@t0 = AND2(mD@t-1, orm@t-1)
"""

# sha256 of stdout + trace file for a swap-gate fault in sfqify(ks16)
# checked against ripple16 (the case tests/test_bench_spans.py traces).
# Regenerated on purpose when canonicalization became one lex-ordered
# solver call: `canon-sat-calls` went 17 -> 1; the trace did not change.
KS16_SWAP_SHA256 = "41e52921c068b1a173a45bed8615169d0f4dca5ed1b2dc88488210f508b76ca7"


# sha256 of stdout for four commands on sfqify(ks16): the model dump (its
# emission order), a swap-gate fault (the writer's topological order), the
# structural check of a remove-dff fault (violation text and order) and that
# fault's model dump (27 duplicated gates: shared copies at two steps)
KS16_MCID_SHA256 = "bdbcdb0c18e60705d4aaab7f74c909d2223371f267479495f83d2e11bdd1600d"
KS16_SWAP_FAULT_SHA256 = "50154d9517573627e01403786d81620cbb29174be82f16639283815ec7d80ab6"
KS16_NODFF_CHECK_SHA256 = "7762ae2e190d59da7349b8fc106a355337d3ae22504cdb80d9f829ca0ae2bc7f"
KS16_NODFF_MCID_SHA256 = "5a339100421f3b9b6e190c96162ed69e0df9b559145e9a51f183381e3833d178"


@pytest.fixture()
def work(tmp_path):
    (tmp_path / "late_d.bench").write_text(LATE_D_BENCH)
    (tmp_path / "late_d_golden.bench").write_text(LATE_D_GOLDEN_BENCH)
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def test_late_d_verify_report_is_pinned(work, capsys):
    args = ("verify", work / "late_d.bench", work / "late_d_golden.bench")
    assert run(capsys, *args) == (1, LATE_D_VERIFY)
    assert run(capsys, *args, "--arrivals", "d:1") == (0, LATE_D_VERIFY_D1)


def test_fanout_rejected_verify_report_is_pinned(work, capsys):
    faulty, _ = inject(parse_netlist(LATE_D_BENCH), "remove-splitter", target="dsp")
    (work / "late_d_nodsp.bench").write_text(write_netlist(faulty))
    args = ("verify", work / "late_d_nodsp.bench", work / "late_d_golden.bench")
    assert run(capsys, *args) == (3, LATE_D_NODSP_VERIFY)


def test_late_d_model_dump_is_pinned(work, capsys):
    assert run(capsys, "build-mcid", work / "late_d.bench", "--arrivals", "d:2") == (
        0,
        LATE_D_MCID_D2,
    )


def test_faulted_adder_report_and_trace_are_pinned(tmp_path, capsys):
    impl, _ = inject(sfqify(kogge_stone_adder(16)), "swap-gate", seed=0)
    (tmp_path / "impl.bench").write_text(write_netlist(impl))
    (tmp_path / "spec.bench").write_text(write_netlist(ripple_adder(16)))
    trace = tmp_path / "t.trace"
    code, out = run(
        capsys, "verify", tmp_path / "impl.bench", tmp_path / "spec.bench", "--trace", trace
    )
    assert code == 1
    digest = hashlib.sha256((out + trace.read_text()).encode()).hexdigest()
    assert digest == KS16_SWAP_SHA256


def test_real_size_front_end_outputs_are_pinned(tmp_path, capsys):
    ks16 = tmp_path / "ks16.bench"
    ks16.write_text(write_netlist(sfqify(kogge_stone_adder(16))))
    nodff = tmp_path / "nodff.bench"
    assert run(capsys, "inject-fault", ks16, "--kind", "remove-dff", "--seed", 0, "--out", nodff)[0] == 0
    got = [
        run(capsys, "build-mcid", ks16),
        run(capsys, "inject-fault", ks16, "--kind", "swap-gate", "--seed", 0),
        run(capsys, "check-structure", nodff),
        run(capsys, "build-mcid", nodff),
    ]
    assert [(code, hashlib.sha256(out.encode()).hexdigest()) for code, out in got] == [
        (0, KS16_MCID_SHA256),
        (0, KS16_SWAP_FAULT_SHA256),
        (3, KS16_NODFF_CHECK_SHA256),
        (0, KS16_NODFF_MCID_SHA256),
    ]


# sha256 of `verify` stdout + `--cnf` file for sfqify(ks16) against ripple16
# (decided by the sweep) and for its `remove-dff --seed 0` fault (decided by
# the final solve, with a canonical trace).  The fault's pin was regenerated
# when canonicalization became one solver call: `canon-sat-calls` 17 -> 1,
# the same CNF and trace.  Both were regenerated when the sweep began to
# prove golden nodes against implementation nodes only: the CNF, the
# verdicts and the trace did not change, the solver counters did
# (decisions, conflicts, propagations and sweep-refuted 461/133/9,725/7
# -> 444/120/8,254/3 and 717/137/10,887/9 -> 515/114/8,152/3), and again
# when the solver's activities began to decay (decisions, conflicts and
# propagations 444/120/8,254 -> 274/105/6,343 and 515/114/8,152 ->
# 384/100/6,968).
KS16_SWEEP_CNF_SHA256 = "dc7bb9fc85cab616727622bead8c9ef7bfae89bff4e8f99b1dec147b8ba0237e"
KS16_NODFF_CNF_SHA256 = "c4e173a6f517c6ff86891b3fff748cb2e229a7a858a5cbb1779929b469f3a292"


def test_swept_adder_reports_and_cnf_are_pinned(tmp_path, capsys):
    ks16 = tmp_path / "ks16.bench"
    ks16.write_text(write_netlist(sfqify(kogge_stone_adder(16))))
    spec = tmp_path / "spec.bench"
    spec.write_text(write_netlist(ripple_adder(16)))
    nodff = tmp_path / "nodff.bench"
    assert run(capsys, "inject-fault", ks16, "--kind", "remove-dff", "--seed", 0, "--out", nodff)[0] == 0
    cnf = tmp_path / "m.cnf"
    got = []
    for impl in (ks16, nodff):
        code, out = run(capsys, "verify", impl, spec, "--cnf", cnf)
        got.append((code, hashlib.sha256((out + cnf.read_text()).encode()).hexdigest()))
    assert got == [(0, KS16_SWEEP_CNF_SHA256), (1, KS16_NODFF_CNF_SHA256)]


# sha256 of `verify --per-output` stdout for `inject swap-gate seed=2` in
# sfqify(ks16) against ripple16: simulation refutes s3, the sweep proves the
# other outputs.  Regenerated on purpose when every live output began to
# share one pattern draw: s3's simulation witness changed, and with it
# `canon-sat-calls` (1 before, 2 now); the verdicts and the trace did not.
# Regenerated again when canonicalization became one solver call
# (`canon-sat-calls` 2 -> 1), and when the sweep began to prove golden
# nodes against implementation nodes only (decisions, conflicts,
# propagations and sweep-refuted 489/157/11,607/7 -> 408/119/8,312/3), and
# when the solver's activities began to decay (decisions, conflicts and
# propagations 408/119/8,312 -> 224/97/5,632).
KS16_SWAP2_PER_OUTPUT_SHA256 = "7fc788c3f2880455889e6e8a595d534461ba2eb37598bdf8dbf4d7e56e4f0558"


def test_mixed_per_output_report_is_pinned(tmp_path, capsys):
    impl, _ = inject(sfqify(kogge_stone_adder(16)), "swap-gate", seed=2)
    (tmp_path / "impl.bench").write_text(write_netlist(impl))
    (tmp_path / "spec.bench").write_text(write_netlist(ripple_adder(16)))
    code, out = run(
        capsys, "verify", tmp_path / "impl.bench", tmp_path / "spec.bench", "--per-output"
    )
    assert code == 1
    assert "output s3 inequivalent" in out.splitlines()
    assert hashlib.sha256(out.encode()).hexdigest() == KS16_SWAP2_PER_OUTPUT_SHA256


# sha256 of stdout for two commands on sfqify(ripple32), whose model is
# mostly DFF chains (unrolled to BUF chains): the model dump with every b
# input one cycle late (3,201 gates, window -66..-65), and the structural
# check of its `remove-dff` seed-0 fault (32 violations, exit 3).  The check
# was computed before the front end began to build its records with
# `tuple.__new__` and to walk one-input chains in one loop, so it pins the
# output that rewrite had to keep.  The dump was retaken when arrival skew
# became a pin shift: it is the earlier dump (3,233 gates) less its 32
# arrival-buffer lines, with each buffer chain's end read as its moved pin.
R32_LATE_B_MCID_SHA256 = "9ac4ef84b712258de54785fc0cfa56f6419c6edd3ea495e0458a0af94cffa55a"
R32_NODFF_CHECK_SHA256 = "c998eb86e81cfe7be77b9bd273d2c9fdcf13ebc03d46a4269ba57e987ffaedf0"


def test_dff_chain_front_end_outputs_are_pinned(tmp_path, capsys):
    r32 = tmp_path / "r32.bench"
    r32.write_text(write_netlist(sfqify(ripple_adder(32))))
    nodff = tmp_path / "nodff.bench"
    nodff.write_text(write_netlist(inject(sfqify(ripple_adder(32)), "remove-dff", seed=0)[0]))
    late_b = ",".join(f"b{i}:1" for i in range(32))
    got = [run(capsys, "build-mcid", r32, "--arrivals", late_b), run(capsys, "check-structure", nodff)]
    assert got[0][1].count(" = ") == 3201
    assert got[1][1].count("VIOLATION ") == 32
    assert [(code, hashlib.sha256(out.encode()).hexdigest()) for code, out in got] == [
        (0, R32_LATE_B_MCID_SHA256),
        (3, R32_NODFF_CHECK_SHA256),
    ]


# The non-verify readers of logic levels: the remove-dff targets of
# sfqify(ks32) for seeds 0-7 (`nearest_outputs` ranks the eligible storage
# by level), and sha256 of `simulate` stdout on sfqify(ks16) for twelve
# seeded waves with the default extra cycles (`circuit_depth`: 10 under
# rsfq, 26 under aqfp).  All were computed before `logic_levels` became a
# read of the base-distance sets, so they pin the levels it had to keep.
KS32_REMOVE_DFF_TARGETS = [
    "cc23_dl_341", "s10_pad_708", "s7", "cc28_dl_370",
    "cc28_dl_370", "cc21_dl_330", "s6_pad_695", "s0_pad_662",
]
KS16_SIMULATE_SHA256 = {
    "rsfq": (22, "06ee68f821d7661d16f89087de22f7a08c79feac4099aa0070f79034038e55b9"),
    "aqfp": (38, "1c5d003b69a7adafc472d4eadfebf5d9d5fe340c7f759362266d38cc760d5070"),
}


def test_level_readers_are_pinned(tmp_path, capsys):
    ks32 = sfqify(kogge_stone_adder(32))
    assert [inject(ks32, "remove-dff", seed=s)[1].target for s in range(8)] == KS32_REMOVE_DFF_TARGETS
    ks16 = sfqify(kogge_stone_adder(16))
    rng = random.Random(16)
    waves = [" ".join(f"{pi}={rng.randint(0, 1)}" for pi in ks16.primary_inputs) for _ in range(12)]
    (tmp_path / "ks16.bench").write_text(write_netlist(ks16))
    (tmp_path / "in.waves").write_text("\n".join(waves) + "\n")
    for profile, (cycles, digest) in KS16_SIMULATE_SHA256.items():
        code, out = run(
            capsys, "simulate", tmp_path / "ks16.bench", "--waves", tmp_path / "in.waves", "--profile", profile
        )
        assert (code, out.count("CYCLE "), hashlib.sha256(out.encode()).hexdigest()) == (0, cycles, digest)
