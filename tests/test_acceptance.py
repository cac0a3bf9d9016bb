"""Acceptance gate: eight end-to-end criteria, one verdict line each.

Run `pytest -v tests/test_acceptance.py`; every test prints a single
`PASS criterion N` line (echoed in the summary via -rP).  Timing limits
are asserted with time.monotonic, counts are exact.
"""

import random
import time

from circuits import LATE_D_BENCH, LATE_D_GOLDEN_BENCH, SPLIT_DEEP_CONE_BENCH

import gen
from reference import exhaustive_equivalence
from sfqlec import (
    ArrivalSchedule,
    build_mcid,
    builtin_profile,
    check_path_balance,
    evaluate_golden,
    inject,
    mcid_size_upper_bound,
    parse_netlist,
    replay_trace,
    verify,
    write_netlist,
)
from sfqlec.cli import main
from sfqlec.faults import FaultError

RSFQ = builtin_profile("rsfq")

CANONICAL_LATE_D_TRACE = (
    "CYCLE 0: a=0 b=1 c=1 d=0\n"
    "CYCLE 1: a=0 b=0 c=0 d=1\n"
    "GOLDEN: a=0 b=1 c=1 d=0\n"
    "OUTPUT out: impl=1 golden=0\n"
)


def small_pipeline(rng, n_pis=(2, 4), n_gates=(2, 8)):
    comb = gen.random_comb(rng, rng.randint(*n_pis), rng.randint(*n_gates))
    return comb, gen.sfqify(comb)


def test_criterion_1_late_input_end_to_end():
    t0 = time.monotonic()
    netlist = parse_netlist(LATE_D_BENCH)
    golden = parse_netlist(LATE_D_GOLDEN_BENCH)

    verdict = verify(netlist, golden).verdict
    assert verdict.equivalent is False
    trace = verdict.trace
    assert trace.format() == CANONICAL_LATE_D_TRACE
    # distinguishing pair: a=0 b=1 c=1 held on the matched wave, d flips
    # 0 -> 1 across consecutive cycles; remaining grid cells are free
    # inputs that canonicalization parks at 0
    assert trace.wave(0) == {"a": 0, "b": 1, "c": 1, "d": 0}
    assert trace.timed_assignment[("d", 1)] == 1
    assert trace.mcid_output != trace.golden_output
    assert replay_trace(netlist, golden, trace, RSFQ)

    aligned = verify(netlist, golden, schedule=ArrivalSchedule.parse("d:1")).verdict
    assert aligned.equivalent is True

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(
        "PASS criterion 1: late-input netlist refuted with the canonical "
        f"two-cycle trace, equivalent under d:1, in {elapsed:.3f}s"
    )


def test_criterion_2_balance_verdict_matches_path_enumeration():
    checked = balanced = 0
    seed = 0
    while checked < 500:
        seed += 1
        rng = random.Random(seed)
        if seed % 2:
            netlist = gen.random_pipeline(rng, rng.randint(2, 4), rng.randint(3, 16))
        else:
            netlist = gen.sfqify(gen.random_comb(rng, rng.randint(2, 3), rng.randint(1, 4)))
        if len(netlist.gates) > 20:
            continue
        verdict = check_path_balance(netlist, RSFQ).passed
        assert verdict == gen.oracle_balanced(netlist), f"seed {seed}"
        checked += 1
        balanced += verdict
    print(
        f"PASS criterion 2: {checked} random DAGs, checker verdict == exhaustive "
        f"path enumeration on all ({balanced} balanced / {checked - balanced} not)"
    )


def test_criterion_3_miter_agrees_with_exhaustive_model():
    t0 = time.monotonic()
    checked = inequivalent = removals = 0
    seed = 0
    while checked < 200:
        seed += 1
        rng = random.Random(10_000 + seed)
        comb, impl = small_pipeline(rng, n_gates=(2, 7))
        for _ in range(rng.choice([0, 0, 0, 1, 1, 2])):
            if not any(g.kind.name == "DFF" for g in impl.gates):
                break
            try:
                impl, _ = inject(impl, "remove-dff", seed=rng.randrange(1 << 30))
            except FaultError:
                break
            removals += 1
        golden = gen.mutate_comb(rng, comb) if rng.random() < 0.5 else comb

        mcid = build_mcid(impl, RSFQ)
        steps = [p.step for p in mcid.timed_inputs]
        span = max(steps) - min(steps) + 1  # waves the input pins cover
        assert len(impl.primary_inputs) <= 8 and span <= 3
        want = exhaustive_equivalence(impl, golden, RSFQ)
        got = verify(impl, golden).verdict
        assert got.equivalent == (want is None), f"seed {seed}"
        if want is not None:
            assert replay_trace(impl, golden, want, RSFQ), f"seed {seed}"
        if got.equivalent is False:
            inequivalent += 1
            assert got.trace.mcid_output != got.trace.golden_output
            assert replay_trace(impl, golden, got.trace, RSFQ), f"seed {seed}"
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    assert inequivalent >= 20 and removals >= 30  # both verdicts and faults exercised
    print(
        f"PASS criterion 3: {checked} random netlists agree with the exhaustive "
        f"oracle ({inequivalent} inequivalent, {removals} storage removals, "
        f"all traces replayed) in {elapsed:.1f}s"
    )


def test_criterion_4_duplication_count_and_bound():
    netlist = parse_netlist(SPLIT_DEEP_CONE_BENCH)
    assert mcid_size_upper_bound(netlist, ["fA"], RSFQ) == 15  # 2**4 - 1
    faulted, _ = inject(netlist, "remove-dff", target="fA")
    mcid = build_mcid(faulted, RSFQ)
    assert mcid.duplicated_gate_count == 7
    assert mcid.gate_count == 16

    cases = 0
    seed = 0
    while cases < 100:
        seed += 1
        rng = random.Random(40_000 + seed)
        _, impl = small_pipeline(rng, n_gates=(3, 8))
        dffs = [g.output for g in impl.gates if g.kind.name == "DFF"]
        if not dffs:
            continue
        removed = rng.sample(dffs, min(len(dffs), rng.choice([1, 2])))
        bound = mcid_size_upper_bound(impl, removed, RSFQ)
        try:
            for gid in removed:
                impl, _ = inject(impl, "remove-dff", target=gid)
        except FaultError:
            continue  # ineligible pick (e.g. output-stage corner); not a removal case
        actual = build_mcid(impl, RSFQ).duplicated_gate_count
        assert actual <= bound, f"seed {seed}: {actual} > {bound}"
        cases += 1
    print(
        "PASS criterion 4: deep-cone removal duplicates exactly 7 gates "
        f"(bound 15); {cases} random single/double removals never exceed the bound"
    )


def test_criterion_5_balanced_model_mirrors_source():
    for seed in range(100):
        rng = random.Random(70_000 + seed)
        comb, impl = small_pipeline(rng, n_gates=(2, 9))
        assert check_path_balance(impl, RSFQ).passed
        mcid = build_mcid(impl, RSFQ)
        logic = [g for g in impl.gates if g.kind.name != "SPLIT"]
        assert mcid.gate_count == len(logic)
        assert mcid.duplicated_gate_count == 0

        # one pin per input, all on the same wave: the model is the source
        # combinational function verbatim
        pis = sorted(comb.primary_inputs)
        step = mcid.window[0]
        assert [str(s) for s in mcid.timed_inputs] == [f"{pi}@t{step}" for pi in pis]
        model = parse_netlist(mcid.to_bench())
        width = 1 << len(pis)
        mask = (1 << width) - 1
        pats = {
            pi: sum(1 << j for j in range(width) if (j >> i) & 1)
            for i, pi in enumerate(pis)
        }
        got = evaluate_golden(model, {f"{pi}@t{step}": pats[pi] for pi in pis}, mask)
        want = evaluate_golden(comb, pats, mask)
        for po in comb.primary_outputs:
            assert got[str(mcid.outputs[po])] == want[po], f"seed {seed} po {po}"
    print(
        "PASS criterion 5: 100 balanced netlists, model gate count == source "
        "logic-gate count and exhaustive function identity on every output"
    )


def test_criterion_6_fault_detection(tmp_path, capsys):
    detected = {"remove-splitter": 0, "remove-dff": 0, "swap-gate": 0}
    benign = {"remove-dff": 0, "swap-gate": 0}  # oracle-equivalent injections

    def bench(tag, netlist):
        p = tmp_path / f"{tag}.bench"
        p.write_text(write_netlist(netlist))
        return str(p)

    seed = 0
    while detected["remove-splitter"] < 40:
        seed += 1
        rng = random.Random(90_000 + seed)
        _, impl = small_pipeline(rng, n_gates=(3, 8))
        try:
            faulted, _ = inject(impl, "remove-splitter", seed=seed)
        except FaultError:
            continue
        assert main(["check-structure", bench(f"sp{seed}", faulted)]) == 3
        detected["remove-splitter"] += 1

    for kind, base in (("remove-dff", 91_000), ("swap-gate", 92_000)):
        seed = 0
        while detected[kind] < 40:
            seed += 1
            rng = random.Random(base + seed)
            comb, impl = small_pipeline(rng, n_gates=(3, 8))
            try:
                faulted, _ = inject(impl, kind, seed=seed)
            except FaultError:
                continue
            confirmed = exhaustive_equivalence(faulted, comb, RSFQ) is not None
            verdict = verify(faulted, comb).verdict
            if not confirmed:
                # function-preserving injection: must not be reported faulty
                assert verdict.equivalent is True
                benign[kind] += 1
                continue
            trace_p = tmp_path / f"{kind}{seed}.trace"
            argv = [
                "verify",
                bench(f"{kind}{seed}", faulted),
                bench(f"{kind}{seed}_g", comb),
                "--trace",
                str(trace_p),
            ]
            assert main(argv) == 1, f"{kind} seed {seed}"
            assert verdict.equivalent is False
            assert trace_p.read_text() == verdict.trace.format()
            assert replay_trace(faulted, comb, verdict.trace, RSFQ), f"{kind} seed {seed}"
            detected[kind] += 1

    capsys.readouterr()  # drop the CLI report noise
    print(
        "PASS criterion 6: 100% detection on confirmed faults — "
        f"{detected['remove-splitter']} splitter removals rejected (exit 3), "
        f"{detected['remove-dff']} storage removals and {detected['swap-gate']} "
        f"function-changing swaps refuted with replayed traces (exit 1); "
        f"{benign['remove-dff']}+{benign['swap-gate']} oracle-equivalent "
        "injections correctly passed"
    )


def test_criterion_7_adder_scale():
    spots = [(3, 5, 0), (200, 55, 1), (2**31 - 1, 2**30 + 7, 1)]
    results = []
    for name, comb, n_bits, swap_seed in (
        ("ripple32", gen.ripple_adder(32), 32, 1),
        ("kogge_stone64", gen.kogge_stone_adder(64), 64, 5),
    ):
        for x, y, cin in spots:
            outs = evaluate_golden(comb, gen.adder_assignment(n_bits, x, y, cin))
            assert gen.adder_value(outs, n_bits) == (x + y + cin) % (1 << (n_bits + 1))
        impl = gen.sfqify(comb, name=name)
        assert 2000 <= len(impl.gates) <= 6000

        t0 = time.monotonic()
        clean = verify(impl, comb).verdict
        clean_s = time.monotonic() - t0
        assert clean.equivalent is True
        assert clean_s < 10.0

        faulted, spec = inject(impl, "swap-gate", seed=swap_seed)
        t0 = time.monotonic()
        bad = verify(faulted, comb).verdict
        fault_s = time.monotonic() - t0
        assert bad.equivalent is False, spec.line()
        assert replay_trace(faulted, comb, bad.trace, RSFQ)
        assert fault_s < 10.0
        results.append(f"{name} ({len(impl.gates)} gates) ok={clean_s:.2f}s bad={fault_s:.2f}s")
    print(f"PASS criterion 7: {'; '.join(results)}")


def test_criterion_8_byte_identical_reruns(tmp_path, capsys):
    impl = tmp_path / "late_d.bench"
    impl.write_text(LATE_D_BENCH)
    gold = tmp_path / "late_d_golden.bench"
    gold.write_text(LATE_D_GOLDEN_BENCH)

    runs = []
    for i in range(2):
        trace_p = tmp_path / f"run{i}.trace"
        report_p = tmp_path / f"run{i}.report"
        argv = ["verify", str(impl), str(gold), "--trace", str(trace_p), "--report", str(report_p)]
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 1
        runs.append((out, report_p.read_bytes(), trace_p.read_bytes()))
    assert runs[0] == runs[1]

    structure = []
    mcid = []
    for i in range(2):
        code = main(["check-structure", str(impl)])
        structure.append((code, capsys.readouterr().out))
        out_p = tmp_path / f"mcid{i}.bench"
        code = main(["build-mcid", str(impl), "--out", str(out_p)])
        capsys.readouterr()
        mcid.append((code, out_p.read_bytes()))
    assert structure[0] == structure[1]
    assert mcid[0] == mcid[1]
    print("PASS criterion 8: repeated runs yield byte-identical reports, traces and models")
