"""Trace canonicalization: lexicographic minimality, one budget for the
whole decide phase, and the report lines that say how a trace was reached."""

import itertools
import random

import pytest

import reference
from circuits import LATE_D_BENCH, LATE_D_GOLDEN_BENCH, SPLIT_RECONVERGE_BENCH
from gen import kogge_stone_adder, mutate_comb, random_comb, random_pipeline, ripple_adder, sfqify
from sfqlec import (
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
from sfqlec.aig import FALSE, Aig
from sfqlec.errors import SfqlecError
from sfqlec import miter as miter_module
from sfqlec.cli import main
from sfqlec.miter import VerdictStats, _lex_min_model
from sfqlec.netlist import get_kind
from sfqlec.sat import Budget, CdclSolver

RSFQ = builtin_profile("rsfq")


def make_miter(impl, golden):
    mcid = build_mcid(impl, RSFQ)
    return build_miter(mcid, golden)


def as_wires(pipe: Netlist) -> Netlist:
    """The pipeline's logic with its DFFs and splitters read as plain wires."""
    wire = get_kind("BUF")
    gates = tuple(
        Gate(wire, g.inputs, g.output) if g.kind.name in ("DFF", "SPLIT") else g
        for g in pipe.gates
    )
    return Netlist(pipe.name + "_wires", pipe.primary_inputs, pipe.primary_outputs, gates)


def satisfying_models(miter):
    """Every assignment to the root's cone inputs that sets the root, in
    lexicographic order: inputs by (name, step), 0 before 1."""
    ins, _ = miter.aig.cone([miter.root])
    labels = sorted((miter.aig.label(i) for i in ins), key=lambda s: (s.net, s.step))
    for bits in itertools.product((0, 1), repeat=len(labels)):
        model = dict(zip(labels, bits))
        if miter.aig.evaluate(model, [miter.root])[0]:
            yield model


def random_inequivalent_miters(count):
    """(seed, miter) pairs with 1..10 cone inputs and a distinguishing input."""
    seed = 0
    while count:
        seed += 1
        rng = random.Random(seed)
        if seed % 2:
            comb = random_comb(rng, n_pis=rng.randint(3, 9), n_gates=rng.randint(4, 16))
            impl, golden = sfqify(comb), mutate_comb(rng, comb)
        else:
            impl = random_pipeline(rng, n_pis=rng.randint(2, 5), n_gates=rng.randint(6, 18))
            golden = as_wires(impl)
            if rng.random() < 0.5:
                golden = mutate_comb(rng, golden)
        try:
            miter = make_miter(impl, golden)
        except SfqlecError:  # a spec input the pipeline never samples
            continue
        n_in = len(miter.aig.cone([miter.root])[0])
        if 0 < n_in <= 10 and next(satisfying_models(miter), None) is not None:
            count -= 1
            yield seed, miter


def test_trace_is_the_brute_force_lex_min(monkeypatch):
    for seed, miter in random_inequivalent_miters(60):
        models = list(satisfying_models(miter))
        want = extract_trace(miter, models[0])
        verdict = check_equivalence(miter, seed=seed)
        assert verdict.equivalent is False, seed
        assert verdict.trace == want, seed
        assert verdict.stats.trace_canonical == "yes", seed
        # from the worst start
        start = _lex_min_model(miter.aig, miter.root, models[-1], VerdictStats(), Budget())
        assert start == models[0], seed
        # a witness found by the final solve is canonicalized over its fraig edge's cone
        with monkeypatch.context() as m:
            m.setattr(miter_module, "_SIM_ROUNDS", 0)
            by_sat = check_equivalence(miter, seed=seed)
        assert by_sat.stats.method == "sat", seed
        assert by_sat.trace == want, seed


@pytest.mark.parametrize("width", [8, 16, 32])
def test_unit_prefix_matches_the_assumed_prefix(width, monkeypatch):
    """One lex-ordered solver call gives the per-bit greedy's trace,
    verdict and counters, but for at most one solver call: faulted
    sfqify(ksN) against rippleN, both canonicalizing over the graph and
    edge the decision hands over (the miter and its root, or the fraig and
    the root's edge there when the final solve found the witness)."""
    base, spec = sfqify(kogge_stone_adder(width)), ripple_adder(width)
    calls = 0
    for kind, seed in itertools.product(("swap-gate", "remove-dff"), range(12)):
        miter = make_miter(inject(base, kind, seed=seed)[0], spec)
        got = check_equivalence(miter)
        with monkeypatch.context() as m:
            m.setattr(miter_module, "_lex_min_model", reference.lex_min_model)
            want = check_equivalence(miter)
        assert (got.trace, got.equivalent) == (want.trace, want.equivalent), (kind, seed)
        assert vars(got.stats) | {"canon_sat_calls": want.stats.canon_sat_calls} == vars(want.stats), (kind, seed)
        assert got.stats.canon_sat_calls <= 1, (kind, seed)
        calls += got.stats.canon_sat_calls
    assert calls > 0


def same_as_per_bit(aig, root, witness):
    """`_lex_min_model` and the per-bit reference give the same model from
    one witness, and the solver is called once exactly when the greedy
    needs it at all; the model and the solver calls made."""
    got, want = VerdictStats(), VerdictStats()
    model = _lex_min_model(aig, root, witness, got, Budget())
    assert model == reference.lex_min_model(aig, root, witness, want, Budget())
    assert got.trace_canonical == want.trace_canonical == "yes"
    assert got.canon_sat_calls == min(want.canon_sat_calls, 1)
    return model, got.canon_sat_calls


def test_a_long_run_of_cleared_bits_spans_several_windows():
    """root = OR(x000..x149) AND (x150 OR x151): from all ones the greedy
    clears 149 bits in a row before it needs the solver, then clears x150
    and needs it again for x151; one lex-ordered call gives its model."""
    aig = Aig()
    xs = [aig.input_(f"x{i:03}") for i in range(152)]
    wide = FALSE
    for x in xs[:150]:
        wide = aig.or_(wide, x)
    root = aig.and_(wide, aig.or_(xs[150], xs[151]))
    model, calls = same_as_per_bit(aig, root, {aig.label(x >> 1): 1 for x in xs})
    assert [lbl for lbl, v in model.items() if v] == ["x149", "x151"]
    assert calls == 1
    # a set bit every third input
    sparse = {f"x{i:03}": int(i % 3 == 0) for i in range(152)}
    assert same_as_per_bit(aig, root, sparse)[0] == model


def test_a_first_bit_that_needs_the_solver():
    """root = x0 ? x1 : x2 from x0 = x1 = 1, x2 = 0: the greedy cannot
    clear x0 without the solver, whose model (x2 set) replaces the
    witness; the lex-ordered call finds that model at once."""
    aig = Aig()
    x0, x1, x2 = (aig.input_(f"x{i}") for i in range(3))
    root = aig.or_(aig.and_(x0, x1), aig.and_(x0 ^ 1, x2))
    model, calls = same_as_per_bit(aig, root, {"x0": 1, "x1": 1, "x2": 0})
    assert model == {"x0": 0, "x1": 0, "x2": 1}
    assert calls == 1


@pytest.mark.parametrize("width", [1, 2, 3])
def test_narrow_windows_match_the_per_bit_greedy(width, monkeypatch):
    """Faulted sfqify(ks8/ks16) against ripple, from the witness the decide
    phase hands over when simulation draws only 1, 2 or 3 lanes a round:
    other draws, so other witnesses than the default draw's."""
    witnesses = []
    lex_min = miter_module._lex_min_model

    def recording(aig, root, model, *args):
        witnesses.append((aig, root, model))
        return lex_min(aig, root, model, *args)

    monkeypatch.setattr(miter_module, "_lex_min_model", recording)
    monkeypatch.setattr(miter_module, "_SIM_WIDTH", width)
    for n in (8, 16):
        base, spec = sfqify(kogge_stone_adder(n)), ripple_adder(n)
        for kind, seed in itertools.product(("swap-gate", "remove-dff"), range(4)):
            verify(inject(base, kind, seed=seed)[0], spec)
    calls = sum(same_as_per_bit(*w)[1] for w in witnesses)
    assert len(witnesses) > 10 and calls > 0


def test_trace_names_the_first_differing_output_in_spec_order():
    """Under a = 1, b = 0 both outputs differ; the spec declares z first."""
    spec = parse_netlist("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nOUTPUT(w)\nz = OR2(a, b)\nw = BUF(b)\n")
    impl = parse_netlist("INPUT(a)\nINPUT(b)\nOUTPUT(w)\nOUTPUT(z)\nz = AND2(a, b)\nw = INV(b)\n")
    miter = make_miter(impl, spec)
    a, b = (miter.matching.matched[pi] for pi in "ab")
    for bits, po, impl_bit, golden_bit in [((1, 0), "z", 0, 1), ((1, 1), "w", 0, 1), ((0, 0), "w", 1, 0)]:
        model = dict(zip((a, b), bits))
        trace = extract_trace(miter, model)
        assert (trace.output_name, trace.mcid_output, trace.golden_output) == (po, impl_bit, golden_bit)
        assert trace == reference.extract_trace(miter, model)


# ks16 with `inject swap-gate seed=0` (s14 XOR2->OR2): simulation finds a
# witness at once, and canonicalizing it takes one SAT call
@pytest.fixture(scope="module")
def faulted_ks16():
    impl, _ = inject(sfqify(kogge_stone_adder(16)), "swap-gate", seed=0)
    return impl, ripple_adder(16)


@pytest.fixture()
def conflict_log(monkeypatch):
    """Conflicts of every solve call, in call order."""
    log = []
    solve = CdclSolver.solve

    def counted(self, *args, **kwargs):
        before = self.stats.conflicts
        result = solve(self, *args, **kwargs)
        log.append(self.stats.conflicts - before)
        return result

    monkeypatch.setattr(CdclSolver, "solve", counted)
    return log


def test_conflict_budget_bounds_canonicalization(faulted_ks16, conflict_log):
    impl, golden = faulted_ks16
    miter = make_miter(impl, golden)
    full = check_equivalence(miter)
    spent = sum(conflict_log)
    assert full.stats.trace_canonical == "yes"
    assert full.stats.canon_sat_calls == len(conflict_log) == 1
    assert spent > 10
    for k in (0, 1, 2, 5, spent // 2, spent - 1, spent, spent + 1000):
        conflict_log.clear()
        verdict = check_equivalence(miter, max_conflicts=k)
        assert sum(conflict_log) <= k + 1, k
        assert verdict.equivalent is False, k
        assert replay_trace(impl, golden, verdict.trace, RSFQ), k
        if k > spent:
            assert verdict.stats.trace_canonical == "yes", k
            assert verdict.trace == full.trace, k
        else:
            assert verdict.stats.trace_canonical == "budget", k


def test_conflict_budget_bounds_final_solve_canonicalization(conflict_log):
    """ks16 remove-dff seed 9 is decided by the final solve, and its lex
    call needs conflicts of its own.  A budget that covers the decision
    but not the lex call keeps the final solve's witness ("budget"); one
    that covers both gives the unlimited trace."""
    impl, golden = inject(sfqify(kogge_stone_adder(16)), "remove-dff", seed=9)[0], ripple_adder(16)
    miter = make_miter(impl, golden)
    full = check_equivalence(miter)
    spent, lex = sum(conflict_log), conflict_log[-1]
    decided = spent - lex
    assert (full.stats.method, full.stats.trace_canonical, full.stats.canon_sat_calls) == ("sat", "yes", 1)
    assert full.stats.conflicts == decided and lex > 10
    conflict_log.clear()
    assert check_equivalence(miter, max_conflicts=decided).equivalent is None
    for k in (decided + 1, decided + 2, decided + lex // 2, spent - 1, spent, spent + 1, spent + 1000):
        conflict_log.clear()
        verdict = check_equivalence(miter, max_conflicts=k)
        assert sum(conflict_log) == min(k, spent), k
        assert (verdict.equivalent, verdict.stats.method) == (False, "sat"), k
        assert replay_trace(impl, golden, verdict.trace, RSFQ), k
        if k > spent:
            assert verdict.stats.trace_canonical == "yes", k
            assert verdict.trace == full.trace, k
        else:
            assert verdict.stats.trace_canonical == "budget", k
            assert verdict.trace != full.trace, k


@pytest.mark.parametrize(
    "width, seeds", [(16, [0, 3, 4, 8, 9]), (32, [0, 3, 4, 5, 8, 11])], ids=["ks16", "ks32"]
)
def test_final_solve_traces_are_the_miters_own_lex_min(width, seeds, monkeypatch):
    """The final solve decides these remove-dff faults of sfqify(ksN)
    against rippleN (seeds 0-11).  Canonicalized over the root's fraig
    edge, each trace is the one the lex-min over the miter's own cone gives
    from the same witness."""
    witnesses = []
    lex_min = miter_module._lex_min_model

    def recording(aig, root, model, *args):
        witnesses.append(model)
        return lex_min(aig, root, model, *args)

    monkeypatch.setattr(miter_module, "_lex_min_model", recording)
    base, spec = sfqify(kogge_stone_adder(width)), ripple_adder(width)
    decided = []
    for seed in range(12):
        miter = make_miter(inject(base, "remove-dff", seed=seed)[0], spec)
        witnesses.clear()
        verdict = check_equivalence(miter)
        if verdict.stats.method != "sat":
            continue
        decided.append(seed)
        (witness,) = witnesses
        model = _lex_min_model(miter.aig, miter.root, witness, VerdictStats(), Budget())
        assert verdict.trace == extract_trace(miter, model), seed
    assert decided == seeds


def test_conflict_budget_spans_all_outputs(conflict_log):
    miter = make_miter(sfqify(kogge_stone_adder(8)), ripple_adder(8))
    for k in (1, 7, 40):
        conflict_log.clear()
        verdict = check_equivalence(miter, max_conflicts=k, per_output=True)
        assert sum(conflict_log) <= k + 1, k
        assert None in verdict.per_output.values(), k
        assert verdict.equivalent is None and verdict.trace is None, k


def test_time_budget_keeps_a_valid_trace(faulted_ks16):
    impl, golden = faulted_ks16
    verdict = verify(impl, golden, max_seconds=0.0).verdict
    assert verdict.equivalent is False
    assert verdict.stats.trace_canonical == "budget"
    assert verdict.stats.canon_sat_calls <= 1
    assert replay_trace(impl, golden, verdict.trace, RSFQ)


def test_oversized_cone_is_reported_as_capped(faulted_ks16, monkeypatch):
    impl, golden = faulted_ks16
    monkeypatch.setattr(miter_module, "_CANON_CAP", 0)
    verdict = verify(impl, golden).verdict
    assert verdict.equivalent is False
    assert verdict.stats.trace_canonical == "capped"
    assert verdict.stats.canon_sat_calls == 0
    assert replay_trace(impl, golden, verdict.trace, RSFQ)


def test_an_all_zero_witness_is_canonical_over_the_cap(monkeypatch):
    """The cap bounds the solver's search; the all-zero assignment needs
    none, so a cone over the cap whose lex-min is all zeros still gets it."""
    impl, _ = inject(sfqify(kogge_stone_adder(16)), "swap-gate", seed=4)
    golden = ripple_adder(16)
    monkeypatch.setattr(miter_module, "_CANON_CAP", 0)
    verdict = verify(impl, golden).verdict
    assert verdict.equivalent is False
    assert verdict.stats.trace_canonical == "yes"
    assert verdict.stats.canon_sat_calls == 0
    assert not any(verdict.trace.timed_assignment.values())
    assert not any(verdict.trace.golden_assignment.values())
    assert replay_trace(impl, golden, verdict.trace, RSFQ)


def verify_lines(tmp_path, capsys, impl_text, golden_text, *flags):
    (tmp_path / "impl.bench").write_text(impl_text)
    (tmp_path / "golden.bench").write_text(golden_text)
    code = main(["verify", str(tmp_path / "impl.bench"), str(tmp_path / "golden.bench"), *flags])
    return code, capsys.readouterr().out.splitlines()


def test_report_says_how_the_trace_was_reached(tmp_path, capsys):
    code, lines = verify_lines(tmp_path, capsys, LATE_D_BENCH, LATE_D_GOLDEN_BENCH)
    assert code == 1
    at = lines.index("conflicts 0")
    assert lines[at + 1 : at + 5] == [
        "propagations 0",
        "canon-sat-calls 1",
        "trace-canonical yes",
        "CYCLE 0: a=0 b=1 c=1 d=0",
    ]
    code, lines = verify_lines(tmp_path, capsys, LATE_D_BENCH, LATE_D_GOLDEN_BENCH, "--arrivals", "d:1")
    assert code == 0
    assert lines[-5:] == [
        "conflicts 1",
        "propagations 12",
        "canon-sat-calls 0",
        "sweep-proved 1",
        "sweep-refuted 0",
    ]


def test_per_output_counts_propagations(tmp_path, capsys):
    golden = "INPUT(p)\nINPUT(q)\nOUTPUT(a2)\na2 = BUF(p)\n"
    _, plain = verify_lines(tmp_path, capsys, SPLIT_RECONVERGE_BENCH, golden)
    _, per = verify_lines(tmp_path, capsys, SPLIT_RECONVERGE_BENCH, golden, "--per-output")
    props = [l for l in plain if l.startswith("propagations ")]
    assert props != ["propagations 0"]
    assert [l for l in per if l.startswith("propagations ")] == props
