import gc
import random
import time
import tracemalloc

import pytest

import reference
from reference import exhaustive_equivalence
from circuits import (
    late_d_golden,
    late_d_netlist,
    split_reconverge_golden,
    split_reconverge_golden_reduced,
    split_reconverge_netlist,
)
from gen import (
    eval_comb,
    kogge_stone_adder,
    mutate_comb,
    parity_pair,
    parity_value,
    random_comb,
    ripple_adder,
    sfqify,
)
from sfqlec import (
    ArrivalSchedule,
    Gate,
    Netlist,
    build_mcid,
    build_miter,
    builtin_profile,
    check_equivalence,
    extract_trace,
    inject,
    parse_netlist,
    replay_trace,
    verify,
)
from sfqlec import miter as miter_module
from sfqlec.aig import FALSE, TRUE, Aig
from sfqlec.itcl import ItclError
from sfqlec.miter import MiterError, VerdictStats, _lex_min_model
from sfqlec.sat import Budget
from sfqlec.sim import SimError

RSFQ = builtin_profile("rsfq")

CANONICAL_LATE_D_TRACE = (
    "CYCLE 0: a=0 b=1 c=1 d=0\n"
    "CYCLE 1: a=0 b=0 c=0 d=1\n"
    "GOLDEN: a=0 b=1 c=1 d=0\n"
    "OUTPUT out: impl=1 golden=0\n"
)


def make_miter(netlist, golden):
    return build_miter(build_mcid(netlist, RSFQ), golden)


def test_late_arrival_is_inequivalent_with_canonical_trace():
    verdict = verify(late_d_netlist(), late_d_golden()).verdict
    assert verdict.equivalent is False
    assert verdict.trace.format() == CANONICAL_LATE_D_TRACE
    assert replay_trace(late_d_netlist(), late_d_golden(), verdict.trace, RSFQ)


def test_counterexample_is_seed_independent():
    for seed in range(6):
        verdict = verify(late_d_netlist(), late_d_golden(), seed=seed).verdict
        assert verdict.equivalent is False
        assert verdict.trace.format() == CANONICAL_LATE_D_TRACE, seed


def test_arrival_schedule_flips_the_verdict():
    sched = ArrivalSchedule.parse("d:1")
    verdict = verify(late_d_netlist(), late_d_golden(), schedule=sched).verdict
    assert verdict.equivalent is True
    assert verdict.trace is None
    assert verdict.stats.method == "sweep"


def test_matched_structure_collapses_without_solving():
    run = verify(split_reconverge_netlist(), split_reconverge_golden())
    assert run.miter.root == FALSE
    verdict = run.verdict
    assert verdict.equivalent is True
    assert verdict.stats.method == "structural"
    assert verdict.stats.decisions == 0 and verdict.stats.conflicts == 0


def test_reduced_golden_needs_the_solver():
    run = verify(split_reconverge_netlist(), split_reconverge_golden_reduced())
    assert run.miter.root not in (TRUE, FALSE)
    verdict = run.verdict
    assert verdict.equivalent is True
    assert verdict.stats.method == "sweep"
    assert verdict.stats.cnf_vars > 0


def test_constant_difference_yields_all_zero_trace():
    # XOR2(a,a) is constant 0, XNOR2(a,a) constant 1: the miter becomes
    # constant TRUE and the zero assignment is already a witness
    impl = parse_netlist("INPUT(a)\nOUTPUT(y)\ny = XOR2(a, a)\n")
    gold = parse_netlist("INPUT(a)\nOUTPUT(y)\ny = XNOR2(a, a)\n")
    miter = make_miter(impl, gold)
    assert miter.root == TRUE
    verdict = check_equivalence(miter)
    assert verdict.equivalent is False
    assert verdict.stats.method == "structural"
    trace = verdict.trace
    assert trace.mcid_output == 0 and trace.golden_output == 1
    assert set(trace.timed_assignment.values()) <= {0}


def test_golden_with_state_is_rejected():
    gold = parse_netlist("INPUT(p)\nINPUT(q)\nOUTPUT(a2)\nd = DFF(p)\na2 = AND2(d, q)\n")
    with pytest.raises(MiterError):
        make_miter(split_reconverge_netlist(), gold)


def test_output_name_mismatch_is_rejected():
    gold = parse_netlist("INPUT(p)\nINPUT(q)\nOUTPUT(zz)\nzz = OR2(p, q)\n")
    with pytest.raises(MiterError):
        make_miter(split_reconverge_netlist(), gold)


def test_per_output_verdicts():
    impl = parse_netlist(
        "INPUT(a)\nINPUT(b)\nOUTPUT(good)\nOUTPUT(bad)\n"
        "a1 = DFF(a)\nb1 = DFF(b)\nasp = SPLIT(a1)\nbsp = SPLIT(b1)\n"
        "good = AND2(asp, bsp)\nbad = OR2(asp, bsp)\n"
    )
    gold = parse_netlist(
        "INPUT(a)\nINPUT(b)\nOUTPUT(good)\nOUTPUT(bad)\n"
        "good = AND2(a, b)\nbad = AND2(a, b)\n"
    )
    verdict = verify(impl, gold, per_output=True).verdict
    assert verdict.equivalent is False
    assert verdict.per_output == {"good": True, "bad": False}
    assert verdict.stats.method == "per-output"
    assert verdict.trace.output_name == "bad"
    assert replay_trace(impl, gold, verdict.trace, RSFQ)


def test_unknown_under_a_conflict_budget():
    verdict = verify(split_reconverge_netlist(), split_reconverge_golden_reduced(), max_conflicts=1).verdict
    if verdict.equivalent is None:  # proof needs more than one conflict
        assert verdict.trace is None
    else:
        assert verdict.equivalent is True


@pytest.mark.parametrize("profile_name", ["rsfq", "aqfp", "cmos"])
def test_agrees_with_exhaustive_on_random_pipelines(profile_name):
    profile = builtin_profile(profile_name)
    checked = 0
    for seed in range(60):
        rng = random.Random(seed)
        comb = random_comb(rng, n_pis=rng.randint(2, 4), n_gates=rng.randint(2, 8))
        impl = sfqify(comb)
        golden = comb if rng.random() < 0.4 else mutate_comb(rng, comb)
        want = exhaustive_equivalence(impl, golden, profile)
        verdict = verify(impl, golden, profile).verdict
        assert verdict.equivalent == (want is None), seed
        if want is not None:
            assert replay_trace(impl, golden, want, profile), seed
        if verdict.equivalent is False:
            assert replay_trace(impl, golden, verdict.trace, profile), seed
        checked += 1
    assert checked == 60


@pytest.mark.parametrize("profile_name", ["rsfq", "aqfp", "cmos"])
def test_arrival_traces_replay_and_agree_with_exhaustive(profile_name):
    profile = builtin_profile(profile_name)
    checked = replayed = 0
    for seed in range(60):
        rng = random.Random(seed)
        comb = random_comb(rng, n_pis=rng.randint(2, 4), n_gates=rng.randint(2, 8))
        impl = sfqify(comb)
        golden = comb if rng.random() < 0.4 else mutate_comb(rng, comb)
        schedule = ArrivalSchedule({pi: rng.randint(0, 2) for pi in impl.primary_inputs})
        try:
            want = exhaustive_equivalence(impl, golden, profile, schedule=schedule, max_bits=12)
        except SimError:  # input grid too wide to enumerate
            continue
        verdict = verify(impl, golden, profile, schedule).verdict
        assert verdict.equivalent == (want is None), seed
        if want is not None:
            assert replay_trace(impl, golden, want, profile, schedule), seed
        if verdict.equivalent is False:
            assert replay_trace(impl, golden, verdict.trace, profile, schedule), seed
            replayed += 1
        checked += 1
    assert checked >= 40 and replayed >= 35


def test_sweep_decides_ks64_against_ripple64():
    # one solve of the whole miter needs 20,048 conflicts; the sweep merges
    # the carries the two adders share, and the root becomes FALSE
    impl, spec = sfqify(kogge_stone_adder(64)), ripple_adder(64)
    t0 = time.monotonic()
    verdict = verify(impl, spec, max_conflicts=5000).verdict
    assert time.monotonic() - t0 < 10.0
    assert verdict.equivalent is True
    assert verdict.stats.method == "sweep"
    assert verdict.stats.sweep_proved > 0


def test_sweep_partition_is_pinned():
    """Every query, merge and split of the sweep follows its classes, so
    its counters pin the partition at a size where refuting models add
    thousands of patterns to the first 1,024."""
    impl, _ = inject(sfqify(kogge_stone_adder(64)), "swap-gate", seed=1)
    s = verify(impl, ripple_adder(64)).verdict.stats
    assert (s.method, s.conflicts, s.decisions, s.propagations) == ("sweep", 617, 3180, 117086)
    assert (s.sweep_proved, s.sweep_refuted, s.cnf_vars, s.cnf_clauses) == (63, 37, 1540, 4359)


@pytest.mark.parametrize(
    "impl, spec", [(kogge_stone_adder, ripple_adder), (ripple_adder, kogge_stone_adder)]
)
def test_sweep_proves_golden_nodes_against_implementation_heads(impl, spec, monkeypatch):
    """Every query pairs the golden node being swept (the first cone node
    without a fraig edge) with its class head, an implementation node or
    the constant, and every split re-picks only such heads.  A Kogge-Stone
    spec has prefix nodes no implementation node shares a class with."""
    miter = make_miter(sfqify(impl(16)), spec(16))
    ins, ands = miter.aig.cone([miter.root])
    order = sorted(ins + ands)
    calls = []
    prove, refine = miter_module._Sweep._prove, miter_module._Sweep._refine

    def recording(self, e, want):
        n = next(m for m in order if m not in self.edge)
        r = self.heads[self.ids[n]]
        assert want == self.edge[r] ^ self.phase[n] ^ self.phase[r]
        calls.append((n, r))
        return prove(self, e, want)

    def refining(self, model, golden):
        refine(self, model, golden)
        assert max(self.heads.values()) < miter.golden_start

    monkeypatch.setattr(miter_module._Sweep, "_prove", recording)
    monkeypatch.setattr(miter_module._Sweep, "_refine", refining)
    verdict = check_equivalence(miter)
    assert verdict.equivalent is True and verdict.stats.method == "sweep"
    assert verdict.stats.sweep_refuted > 0  # the heads were re-picked after a split
    assert len(calls) >= verdict.stats.sweep_proved + verdict.stats.sweep_refuted
    assert all(n >= miter.golden_start > r for n, r in calls)


def parity_twice():
    """(impl, spec): one parity output computed twice, `y0` in
    `parity_pair`'s XOR shape and `n_y0` in its NAND shape, and a spec that
    reads both as the XOR chain."""
    xor, nand = parity_pair(n_outputs=1)
    pis = tuple(p for p in xor.primary_inputs if any(p in g.inputs for g in xor.gates))

    def copy(netlist, tag):
        name = lambda net: net if net in pis else tag + net
        return [Gate(g.kind, tuple(map(name, g.inputs)), name(g.output)) for g in netlist.gates]

    outs = ("y0", "n_y0")
    impl = Netlist("twice", pis, outs, tuple(copy(xor, "") + copy(nand, "n_")))
    spec = Netlist("spec", pis, outs, tuple(copy(xor, "") + copy(xor, "n_")))
    return sfqify(impl), spec


def test_duplicated_implementation_logic_needs_no_in_design_merge(monkeypatch):
    """The sweep never queries the implementation's two parity shapes
    against each other; the spec's nodes are proved against them, and a
    fault in the NAND shape gets the lex-min trace of the miter's own cone."""
    impl, spec = parity_twice()
    for per_output in (False, True):
        verdict = verify(impl, spec, per_output=per_output).verdict
        assert verdict.equivalent is True
    witnesses = []
    lex_min = miter_module._lex_min_model

    def recording(aig, root, model, *args):
        witnesses.append(model)
        return lex_min(aig, root, model, *args)

    monkeypatch.setattr(miter_module, "_lex_min_model", recording)
    faulty, fault = inject(impl, "swap-gate", seed=0)
    assert fault.target.startswith("n_")
    miter = make_miter(faulty, spec)
    verdict = check_equivalence(miter)
    assert verdict.equivalent is False and verdict.stats.canon_sat_calls == 1
    (witness,) = witnesses
    model = reference.lex_min_model(miter.aig, miter.root, witness, VerdictStats(), Budget())
    assert verdict.trace == extract_trace(miter, model)
    assert replay_trace(faulty, spec, verdict.trace, RSFQ)


def test_sweep_memory_does_not_grow_with_its_refutations():
    """A node's class is one small id however many models refuted it."""
    miter = build_miter(build_mcid(sfqify(kogge_stone_adder(48)), RSFQ), ripple_adder(48))
    tracemalloc.start()
    try:
        verdict = check_equivalence(miter)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.equivalent is True and verdict.stats.method == "sweep"
    assert peak < 3_000_000


def test_sweep_decides_the_parity_pair():
    spec, nand = parity_pair()
    rng = random.Random(3)
    for _ in range(64):
        asn = {pi: rng.getrandbits(1) for pi in spec.primary_inputs}
        want = {f"y{j}": parity_value(asn, j) for j in range(8)}
        assert eval_comb(spec, asn) == want == eval_comb(nand, asn)
    # one solve of the whole miter is still undecided after 60,000 conflicts
    verdict = verify(sfqify(nand), spec, max_conflicts=5000).verdict
    assert verdict.equivalent is True
    assert verdict.stats.method == "sweep"


def test_sweep_pairs_that_give_up_stay_unmerged(monkeypatch):
    ks8 = sfqify(kogge_stone_adder(8))
    impls = [ks8] + [inject(ks8, "swap-gate", seed=s)[0] for s in range(6)]
    want = [verify(impl, ripple_adder(8)).verdict for impl in impls]
    assert {v.equivalent for v in want} == {True, False}
    # no simulation verdict, and sweep queries that give up at once or soon
    monkeypatch.setattr(miter_module, "_SIM_ROUNDS", 0)
    for cap in (0, 1):
        monkeypatch.setattr(miter_module, "_PAIR_CONFLICTS", cap)
        for impl, full in zip(impls, want):
            verdict = verify(impl, ripple_adder(8)).verdict
            assert verdict.equivalent == full.equivalent, cap
            assert verdict.trace == full.trace, cap
            if verdict.equivalent is False:
                assert replay_trace(impl, ripple_adder(8), verdict.trace, RSFQ)


def test_one_wide_simulation_finds_the_round_by_round_witness(monkeypatch):
    """y = x1 against an impl that differs where x1..x8 are all 1 and
    x9 == x10: 2 patterns in 1,024, so a witness lands in any of the 8
    rounds or in none, and its x9/x10 bits change the canonicalization."""
    names = [f"x{i}" for i in range(1, 11)]
    head = "".join(f"INPUT({n})\n" for n in names) + "OUTPUT(y)\n"
    spec = parse_netlist(head + "y = BUF(x1)\n", name="spec")
    impl = sfqify(parse_netlist(
        head
        + "".join(f"p{i} = AND2({'p' if i > 2 else 'x'}{i - 1}, x{i})\n" for i in range(2, 9))
        + "e = XNOR2(x9, x10)\nh = AND2(p8, e)\ny = XOR2(x1, h)\n",
        name="impl",
    ))
    miter = build_miter(build_mcid(impl, RSFQ), spec)
    starts = []

    def recording(aig, root, model, *args):
        starts.append(model)
        return lex_min(aig, root, model, *args)

    lex_min = miter_module._lex_min_model
    monkeypatch.setattr(miter_module, "_lex_min_model", recording)
    methods = set()
    for seed in range(40):
        want = reference.simulation_witness(miter.aig, miter.root, seed)
        starts.clear()
        verdict = check_equivalence(miter, seed=seed)
        assert verdict.equivalent is False, seed
        methods.add(verdict.stats.method)
        if want is None:
            assert verdict.stats.method == "sat", seed
            continue
        assert verdict.stats.method == "simulation", seed
        assert starts == [want], seed
        stats = VerdictStats()
        _lex_min_model(miter.aig, miter.root, want, stats, Budget())
        assert verdict.stats.canon_sat_calls == stats.canon_sat_calls, seed
    assert methods == {"simulation", "sat"}


def test_a_fanout_rejection_builds_no_model():
    faulty, _ = inject(late_d_netlist(), "remove-splitter", target="dsp")
    run = verify(faulty, late_d_golden())
    assert not run.fanout.passed
    assert (run.balance, run.miter, run.verdict) == (None, None, None)


@pytest.mark.parametrize("arrivals", ["zz:1", "d:5000", "d:-1"])
def test_a_bad_schedule_raises_before_the_fanout_check(arrivals):
    faulty, _ = inject(late_d_netlist(), "remove-splitter", target="dsp")
    with pytest.raises(ItclError):
        verify(faulty, late_d_golden(), schedule=ArrivalSchedule.parse(arrivals))


def test_dropping_a_run_leaves_no_cyclic_garbage():
    """With the collector off, reference counting alone frees a run that
    found, canonicalized and traced a fault."""
    impl, _ = inject(sfqify(kogge_stone_adder(16)), "swap-gate", seed=0)
    spec = ripple_adder(16)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        run = verify(impl, spec)
        assert run.verdict.equivalent is False and run.verdict.stats.canon_sat_calls > 0
        del run
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_an_unsatisfiable_witness_root_is_an_internal_error():
    # a & (~a & b) is no constant to the AIG's hashing, but no model sets it
    aig = Aig()
    a, b = aig.input_("a"), aig.input_("b")
    root = aig.and_(a, aig.and_(aig.not_(a), b))
    with pytest.raises(MiterError, match="the witness's root is unsatisfiable"):
        _lex_min_model(aig, root, {"a": 1, "b": 1}, VerdictStats(), Budget())


def test_a_model_of_an_equivalent_miter_is_an_internal_error():
    run = verify(split_reconverge_netlist(), split_reconverge_golden_reduced())
    assert run.verdict.equivalent is True
    with pytest.raises(MiterError, match="assignment does not distinguish the two sides"):
        extract_trace(run.miter, {})
