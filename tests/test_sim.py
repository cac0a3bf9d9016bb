import random

import pytest

from circuits import late_d_golden, late_d_netlist
from gen import eval_comb, random_comb, sfqify
from reference import exhaustive_equivalence
from sfqlec import (
    ArrivalSchedule,
    builtin_profile,
    evaluate_golden,
    parse_netlist,
    parse_wave,
    simulate,
    replay_trace,
)
from sfqlec.netlist import circuit_depth
from sfqlec.sim import SimError
from sfqlec.trace import TimedTrace, format_wave

RSFQ = builtin_profile("rsfq")


def test_parse_wave():
    assert parse_wave("a=1 b=0 d=1") == {"a": 1, "b": 0, "d": 1}
    assert parse_wave("") == {}
    for bad in ("a", "a=2", "=1", "a=1 a=0"):
        with pytest.raises(SimError):
            parse_wave(bad)


def test_format_wave_follows_order_and_defaults():
    assert format_wave({"b": 1}, ["a", "b", "c"]) == "a=0 b=1 c=0"
    wave = {"a": 1, "b": 0}
    assert parse_wave(format_wave(wave, ["a", "b"])) == wave


def test_split_is_same_cycle_storage_is_next_cycle():
    net = parse_netlist("INPUT(a)\nOUTPUT(s)\nOUTPUT(q)\ns = SPLIT(a)\nq = DFF(a)\n")
    seen = simulate(net, [{"a": 1}], RSFQ, extra_cycles=2)
    assert seen[0] == {"s": 1, "q": 0}
    assert seen[1] == {"s": 0, "q": 1}
    assert seen[2] == {"s": 0, "q": 0}


def test_simulate_runs_depth_extra_cycles_by_default():
    net = late_d_netlist()
    waves = [{"a": 1}, {}]
    seen = simulate(net, waves, RSFQ)
    assert len(seen) == len(waves) + circuit_depth(net, RSFQ)


def test_pipelining_one_wave_per_cycle():
    # consecutive waves emerge on consecutive cycles, each one the
    # combinational function of its own wave
    for seed in range(15):
        rng = random.Random(seed)
        comb = random_comb(rng, n_pis=rng.randint(2, 4), n_gates=rng.randint(2, 9))
        sfq = sfqify(comb)
        depth = circuit_depth(sfq, RSFQ)
        waves = [
            {pi: rng.getrandbits(1) for pi in comb.primary_inputs} for _ in range(3)
        ]
        seen = simulate(sfq, waves, RSFQ, extra_cycles=depth)
        for k, wave in enumerate(waves):
            assert seen[depth + k] == eval_comb(comb, wave), (seed, k)


def test_evaluate_golden_matches_reference_evaluator():
    for seed in range(15):
        rng = random.Random(100 + seed)
        comb = random_comb(rng, n_pis=3, n_gates=rng.randint(2, 10))
        for _ in range(10):
            asn = {pi: rng.getrandbits(1) for pi in comb.primary_inputs}
            assert evaluate_golden(comb, asn) == eval_comb(comb, asn)


def test_evaluate_golden_is_bitwise_and_rejects_state():
    net = parse_netlist("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR2(a, b)\n")
    mask = (1 << 4) - 1
    out = evaluate_golden(net, {"a": 0b0011, "b": 0b0101}, mask)
    assert out == {"y": 0b0110}
    stateful = parse_netlist("INPUT(a)\nOUTPUT(y)\ny = DFF(a)\n")
    with pytest.raises(SimError):
        evaluate_golden(stateful, {"a": 1})


def delay_one_trace(mcid_out, golden_out):
    return TimedTrace(
        pi_order=("a",),
        n_cycles=1,
        timed_assignment={("a", 0): 1},
        golden_assignment={"a": 1},
        output_name="y",
        mcid_output=mcid_out,
        golden_output=golden_out,
        observation_cycle=1,
    )


def test_replay_trace_checks_both_sides():
    impl = parse_netlist("INPUT(a)\nOUTPUT(y)\ny = DFF(a)\n")
    gold = parse_netlist("INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n")
    assert replay_trace(impl, gold, delay_one_trace(1, 1), RSFQ)
    assert not replay_trace(impl, gold, delay_one_trace(0, 1), RSFQ)
    assert not replay_trace(impl, gold, delay_one_trace(1, 0), RSFQ)


def test_trace_format_shape():
    text = delay_one_trace(1, 0).format()
    assert text == "CYCLE 0: a=1\nGOLDEN: a=1\nOUTPUT y: impl=1 golden=0\n"


def test_exhaustive_equivalence_tiny_cases():
    impl = parse_netlist("INPUT(a)\nOUTPUT(y)\ny = DFF(a)\n")
    gold_buf = parse_netlist("INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n")
    gold_inv = parse_netlist("INPUT(a)\nOUTPUT(y)\ny = INV(a)\n")
    assert exhaustive_equivalence(impl, gold_buf, RSFQ) is None
    res = exhaustive_equivalence(impl, gold_inv, RSFQ)
    assert res is not None
    assert res.output_name == "y"
    assert res.mcid_output != res.golden_output
    bit = res.timed_assignment[("a", 0)]
    assert res.mcid_output == bit and res.golden_output == 1 - bit
    assert replay_trace(impl, gold_inv, res, RSFQ)


def test_exhaustive_respects_arrival_schedule():
    impl, gold = late_d_netlist(), late_d_golden()
    assert exhaustive_equivalence(impl, gold, RSFQ) is not None
    sched = ArrivalSchedule.parse("d:1")
    assert exhaustive_equivalence(impl, gold, RSFQ, schedule=sched) is None


def test_exhaustive_rejects_a_spec_that_verify_rejects():
    # a SPLIT in the spec is refused by build_miter; the oracle must agree
    impl = parse_netlist(
        "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nad = DFF(a)\nbd = DFF(b)\ny = AND2(ad, bd)\n"
    )
    gold = parse_netlist("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nas = SPLIT(a)\ny = AND2(as, b)\n")
    with pytest.raises(SimError):
        exhaustive_equivalence(impl, gold, RSFQ)


def test_exhaustive_grid_size_guard():
    impl, gold = late_d_netlist(), late_d_golden()
    with pytest.raises(SimError):
        exhaustive_equivalence(impl, gold, RSFQ, max_bits=4)
