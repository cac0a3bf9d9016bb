"""Incremental solving: assumptions, reuse across calls, shared budgets."""

import hashlib
import os
import random
import subprocess
import sys
from collections import Counter
from heapq import heapify

import reference
from gen import kogge_stone_adder, ripple_adder, sfqify
from sfqlec import build_mcid, build_miter, builtin_profile, inject, verify
from sfqlec import sat as sat_module
from sfqlec.miter import VerdictStats
from sfqlec.sat import Budget, CdclSolver, SolverStats, Tseitin, cnf_from_aig


def random_3cnf(rng, num_vars, num_clauses):
    return [
        tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3))
        for _ in range(num_clauses)
    ]


def satisfies(model, clauses):
    return all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses)


def random_assumptions(rng, num_vars):
    vs = rng.sample(range(1, num_vars + 1), rng.randint(0, min(4, num_vars)))
    return [v if rng.random() < 0.5 else -v for v in vs]


def pigeonhole(holes):
    var = lambda p, h: p * holes + h + 1
    clauses = [tuple(var(p, h) for h in range(holes)) for p in range(holes + 1)]
    for h in range(holes):
        for p1 in range(holes + 1):
            for p2 in range(p1 + 1, holes + 1):
                clauses.append((-var(p1, h), -var(p2, h)))
    return (holes + 1) * holes, clauses


def test_assumptions_agree_with_unit_clauses_on_random_3cnfs():
    for seed in range(120):
        rng = random.Random(seed)
        nv = rng.randint(3, 12)
        clauses = random_3cnf(rng, nv, rng.randint(nv, 5 * nv))
        solver = CdclSolver(nv, clauses)  # one solver for every call below
        for _ in range(8):
            assumptions = random_assumptions(rng, nv)
            want, _ = CdclSolver(nv, clauses + [(a,) for a in assumptions]).solve()
            status, model = solver.solve(assumptions)
            assert status == want, (seed, assumptions)
            if status == "sat":
                assert satisfies(model, clauses + [(a,) for a in assumptions]), seed
            assert not solver.trail_lim  # every call ends at level 0


def test_unsat_under_assumptions_leaves_the_solver_usable():
    # (1 or 2) and (not 1 or 3): satisfiable, but not with -2 and -3 together
    solver = CdclSolver(3, [(1, 2), (-1, 3)])
    assert solver.solve([-2, -3]) == ("unsat", None)
    assert solver.ok
    status, model = solver.solve()
    assert status == "sat" and satisfies(model, [(1, 2), (-1, 3)])
    status, model = solver.solve([-2])
    assert status == "sat" and model[1] and model[3] and not model[2]
    assert solver.solve([-2, -3])[0] == "unsat"
    assert solver.solve([3, -2])[0] == "sat"


def test_contradictory_and_repeated_assumptions():
    solver = CdclSolver(2, [(1, 2)])
    assert solver.solve([1, -1])[0] == "unsat"
    status, model = solver.solve([2, 2, -1])
    assert status == "sat" and model == {1: False, 2: True}
    assert solver.ok


def test_level_zero_conflict_is_final():
    nv, clauses = pigeonhole(3)
    solver = CdclSolver(nv, clauses)
    assert solver.solve([1])[0] == "unsat"
    assert solver.solve()[0] == "unsat"
    assert not solver.ok
    conflicts = solver.stats.conflicts
    assert solver.solve([-1])[0] == "unsat"
    assert solver.stats.conflicts == conflicts  # answered without search


def test_mixed_call_sequences_stay_correct():
    for seed in range(60):
        rng = random.Random(1000 + seed)
        nv = rng.randint(4, 10)
        clauses = random_3cnf(rng, nv, rng.randint(2 * nv, 5 * nv))
        plain, _ = CdclSolver(nv, clauses).solve()
        solver = CdclSolver(nv, clauses)
        for step in range(12):
            assumptions = [] if step % 3 == 0 else random_assumptions(rng, nv)
            status, model = solver.solve(assumptions)
            units = [(a,) for a in assumptions]
            assert status == CdclSolver(nv, clauses + units).solve()[0], (seed, step)
            if status == "sat":
                assert satisfies(model, clauses + units), (seed, step)
        assert solver.solve()[0] == plain, seed


def test_same_cnf_and_calls_give_same_models():
    rng = random.Random(7)
    clauses = random_3cnf(rng, 12, 40)
    calls = [random_assumptions(rng, 12) for _ in range(10)] + [[]]

    def replay():
        solver = CdclSolver(12, clauses)
        return [solver.solve(a) for a in calls], solver.stats

    first = replay()
    assert replay() == first


def test_shared_budget_bounds_conflicts_across_solvers():
    nv, clauses = pigeonhole(5)
    budget = Budget.start(max_conflicts=10)
    first, second = CdclSolver(nv, clauses), CdclSolver(nv, clauses)
    assert first.solve(budget=budget) == ("unknown", None)
    assert second.solve(budget=budget) == ("unknown", None)
    assert first.stats.conflicts + second.stats.conflicts == budget.conflicts == 10
    assert second.stats.conflicts == 0  # exhausted before it started
    assert first.solve([1], Budget.start(max_conflicts=0)) == ("unknown", None)
    assert not first.trail_lim


def test_budget_deadline():
    nv, clauses = pigeonhole(7)
    budget = Budget.start(max_seconds=-1.0)
    assert budget.exhausted()
    assert CdclSolver(nv, clauses).solve(budget=budget) == ("unknown", None)
    assert not Budget.start().exhausted()


def test_clauses_added_between_calls_match_a_fresh_solver():
    for seed in range(120):
        rng = random.Random(5000 + seed)
        nv = rng.randint(3, 10)
        clauses = random_3cnf(rng, nv, rng.randint(1, 3 * nv))
        solver = CdclSolver(nv, clauses)
        for step in range(6):
            solver.solve(random_assumptions(rng, nv))
            nv += rng.randint(0, 1)  # a new variable, created by its first clause
            extra = random_3cnf(rng, nv, rng.randint(1, 3))
            if rng.random() < 0.5:
                v = rng.randint(1, nv)
                extra.append((v if rng.random() < 0.5 else -v,))
            for c in extra:
                solver.add_clause(c)
            clauses += extra
            status, model = solver.solve()
            assert status == CdclSolver(nv, clauses).solve()[0], (seed, step)
            if status == "sat":
                assert satisfies(model, clauses), (seed, step)
            assert not solver.trail_lim


def test_a_clause_false_at_level_zero_makes_the_solver_unsat():
    solver = CdclSolver(2, [(1,), (-1, 2)])
    # the unit is set at once, so (-1, 2) loses its false literal and is a unit too
    assert solver.value[1:] == [1, 1] and solver.clauses == []
    solver.add_clause((1, 3))  # already true: skipped, though it names 3
    assert solver.nv == 3 and solver.clauses == []
    solver.add_clause((-1, -2))
    assert not solver.ok
    assert solver.solve() == ("unsat", None)
    # a unit whose propagation conflicts at level 0
    solver = CdclSolver(3, [(-1, 2), (-1, 3), (-2, -3)])
    assert solver.solve([1])[0] == "unsat" and solver.ok
    solver.add_clause((1,))
    assert not solver.ok and solver.solve()[0] == "unsat"


def test_variables_grow_with_clauses_and_assumptions():
    solver = CdclSolver()
    solver.add_clause((2, -4))
    assert solver.nv == 4
    status, model = solver.solve([4, -6])
    assert status == "sat" and solver.nv == 6
    assert model == {1: False, 2: True, 3: False, 4: True, 5: False, 6: False}


def test_per_call_conflict_cap_leaves_the_budget_shared():
    nv, clauses = pigeonhole(5)
    solver = CdclSolver(nv, clauses)
    budget = Budget.start(max_conflicts=25)
    assert solver.solve(budget=budget, max_conflicts=10) == ("unknown", None)
    assert budget.conflicts == solver.stats.conflicts == 10
    assert solver.solve(budget=budget, max_conflicts=100) == ("unknown", None)
    assert budget.conflicts == 25


_TABLES: dict = {}


def brute_lex_min(nv, clauses, order):
    """The lexicographically smallest model over `order` (False first), by
    truth tables over all 2**nv assignments: bit a of `table[v]` is set
    when assignment a sets v.  None when no assignment satisfies."""
    if nv not in _TABLES:
        full = range(1 << nv)
        _TABLES[nv] = {v: sum(1 << a for a in full if a >> (v - 1) & 1) for v in range(1, nv + 1)}
    table, every = _TABLES[nv], (1 << (1 << nv)) - 1
    models = every
    for c in clauses:
        holds = 0
        for l in c:
            holds |= table[l] if l > 0 else every ^ table[-l]
        models &= holds
    if not models:
        return None
    for v in order:
        models = models & (every ^ table[v]) or models & table[v]
    return {v: bool(models & table[v]) for v in order}


def test_lex_calls_return_the_brute_force_lex_min():
    """`solve(assumptions, lex=order)` returns the smallest model over
    `order` on a fresh solver and on one that has answered calls before
    (learned clauses, level-0 units, saved phases); under
    `max_conflicts=1` it gives up wherever the fresh call met a conflict.
    A lex call backtracks chronologically and may leave level-0 literals
    out of order on the trail: a clause added after it, one that blocks
    its model (or, with none, one the solver has), and a plain call then
    answer what a fresh solver does."""
    searched = 0
    for seed in range(150):
        rng = random.Random(11000 + seed)
        nv = rng.randint(3, 14)
        clauses = random_3cnf(rng, nv, rng.randint(nv, 5 * nv))
        used = CdclSolver(nv, clauses)
        for step in range(5):
            used.solve(random_assumptions(rng, nv))
            if rng.random() < 0.3:
                unit = (rng.choice([1, -1]) * rng.randint(1, nv),)
                used.add_clause(unit)
                clauses.append(unit)
            assumptions = random_assumptions(rng, nv)
            order = rng.sample(range(1, nv + 1), rng.randint(1, nv))
            units = [(a,) for a in assumptions]
            want = brute_lex_min(nv, clauses + units, order)
            block = tuple(-v if want[v] else v for v in order) if want else clauses[0]
            blocked = brute_lex_min(nv, clauses + [block] + units, order)
            fresh = CdclSolver(nv, clauses)
            for solver in (fresh, used):
                status, model = solver.solve(assumptions, lex=order)
                if want is None:
                    assert status == "unsat", (seed, step)
                else:
                    assert status == "sat", (seed, step)
                    assert {v: model[v] for v in order} == want, (seed, step)
                    assert satisfies(model, clauses + units), (seed, step)
                assert not solver.trail_lim
                if solver is fresh:
                    lex_conflicts = fresh.stats.conflicts
                solver.add_clause(block)
                status, model = solver.solve(assumptions)
                assert status == ("unsat" if blocked is None else "sat"), (seed, step)
                assert status == CdclSolver(nv, clauses + [block]).solve(assumptions)[0]
                if model:
                    assert satisfies(model, clauses + [block] + units), (seed, step)
                assert not solver.trail_lim
            capped = CdclSolver(nv, clauses).solve(assumptions, max_conflicts=1, lex=order)
            if want is not None and lex_conflicts:
                searched += 1
                assert capped == ("unknown", None), (seed, step)
            elif not lex_conflicts:
                assert capped == CdclSolver(nv, clauses).solve(assumptions, lex=order), (seed, step)
            clauses.append(block)
    assert searched > 20


def lead_fault_lex_call():
    """The lex-ordered call that canonicalizes sfqify(ks32) with swap-gate
    seed 5 against ripple32, on a fresh solver over the whole miter's CNF
    with the cone inputs in label order: (miter, CNF, labels, model,
    (decisions, conflicts, propagations))."""
    impl = inject(sfqify(kogge_stone_adder(32)), "swap-gate", seed=5)[0]
    miter = build_miter(build_mcid(impl, builtin_profile("rsfq")), ripple_adder(32))
    cnf = cnf_from_aig(miter.aig, miter.root)
    labels = [miter.aig.label(i) for i in miter.aig.cone([miter.root])[0]]
    solver = CdclSolver(cnf.num_vars, cnf.clauses)
    status, model = solver.solve(lex=[cnf.input_vars[lbl] for lbl in labels])
    assert status == "sat"
    s = solver.stats
    return miter, cnf, labels, model, (s.decisions, s.conflicts, s.propagations)


LEAD_FAULT_WORK = """
import sys
sys.path[:0] = sys.argv[1:]
import test_sat_incremental
print(*test_sat_incremental.lead_fault_lex_call()[-1])
"""


def test_lead_fault_lex_call_work_is_pinned():
    """Chronological backtracking keeps the lex decisions a conflict does
    not touch.  With backjumping the call took 1,110 decisions, 100
    conflicts and 19,044 propagations.  The model is the per-bit greedy's
    from a plain call's witness, and the work repeats under hash seeds 0,
    1 and 12345."""
    miter, cnf, labels, model, work = lead_fault_lex_call()
    assert work == (251, 100, 8553)
    _, witness = CdclSolver(cnf.num_vars, cnf.clauses).solve()  # a plain call's model
    witness, got = ({lbl: int(m[cnf.input_vars[lbl]]) for lbl in labels} for m in (witness, model))
    assert witness != got
    assert got == reference.lex_min_model(miter.aig, miter.root, witness, VerdictStats(), Budget())
    here = os.path.dirname(os.path.abspath(__file__))
    for hash_seed in ("0", "1", "12345"):
        out = subprocess.run(
            [sys.executable, "-c", LEAD_FAULT_WORK, here, os.path.join(here, os.pardir, "src")],
            capture_output=True, text=True, check=True, env={**os.environ, "PYTHONHASHSEED": hash_seed},
        ).stdout
        assert out == "251 100 8553\n", hash_seed


def scan_decide(solver):
    """The free variable of highest activity, lowest index first: what the
    decision heap must pick."""
    best, best_act = 0, -1
    for v in range(1, solver.nv + 1):
        if solver.value[v] == 0 and solver.activity[v] > best_act:
            best, best_act = v, solver.activity[v]
    return best


def encode_and_solve(n_bits):
    """A solver fed clause by clause through `Tseitin`, as `miter._Sweep`
    grows its own: each output's XOR is encoded only when first asked
    for, so its new variables arrive after earlier calls bumped and
    rescaled the activities of the old ones."""
    miter = build_miter(build_mcid(sfqify(kogge_stone_adder(n_bits)), builtin_profile("rsfq")), ripple_adder(n_bits))
    solver = CdclSolver()
    enc = Tseitin(miter.aig, solver.add_clause)
    out = []
    for _, _, xe in miter.outputs.values():
        if xe >> 1:
            lit = enc.lit(xe)
            out += [solver.solve([lit]), solver.solve([-lit])]
    return out, solver.nv, solver.stats


def test_decision_heap_picks_what_a_scan_picks(monkeypatch):
    rescaled = []  # each order list a rescale rebuilt, with `heapify`
    monkeypatch.setattr(sat_module, "heapify", lambda order: rescaled.append(order) or heapify(order))

    def work():
        out = []
        for nv, clauses in [pigeonhole(5), pigeonhole(6)]:
            solver = CdclSolver(nv, clauses)
            out.append((solver.solve(), solver.solve([1, -nv]), solver.stats, len(rescaled)))
        for seed in range(30):
            rng = random.Random(9000 + seed)
            nv = rng.randint(20, 40)
            solver = CdclSolver(nv, random_3cnf(rng, nv, int(4.2 * nv)))
            for _ in range(5):
                out.append(solver.solve(random_assumptions(rng, nv)))
                solver.add_clause(random_3cnf(rng, nv + 1, 1)[0])
            out.append(solver.stats)
        before = len(rescaled)
        out.append((encode_and_solve(24), len(rescaled) - before))
        rescaled.clear()
        return out

    by_heap = work()
    # activities were rescaled on the way: in pigeonhole(6), and in the
    # encoding before some of its variables arrived
    assert by_heap[1][3] > by_heap[0][3]
    assert by_heap[-1][1] > 0
    # every pick, not just the totals: each is the scan's on the same state
    decide = CdclSolver._decide

    def checked(solver):
        want = scan_decide(solver)
        assert decide(solver) == want
        return want

    monkeypatch.setattr(CdclSolver, "_decide", checked)
    assert work() == by_heap
    monkeypatch.setattr(CdclSolver, "_decide", scan_decide)
    assert work() == by_heap


def test_later_bumps_outrank_earlier_ones():
    """Activities decay: variables 1 and 2 are each bumped by two
    conflicts, 1 by the first two and 2 by the last two, so 2 is decided
    first although a tie would go to 1.  Each call's assumption `a` meets
    the clauses (-a, x) and (-a, -x): one conflict bumps a and x, and the
    learned unit -a ends the call."""
    solver = CdclSolver(2)
    for a, x in [(3, 1), (4, 1), (5, 2), (6, 2)]:
        solver.add_clause((-a, x))
        solver.add_clause((-a, -x))
        assert solver.solve([a]) == ("unsat", None)
    assert solver.stats.conflicts == 4 and solver.activity[2] > solver.activity[1] > 0
    assert solver._decide() == 2


def search_path(seeds=range(40)):
    """What the solver does on seeded call sequences: every call's
    (status, model), then the summed `SolverStats` and every final clause
    list.  Calls run under per-call conflict caps; between calls go a unit,
    a tautology, a clause with a duplicate literal and one with a literal
    already false at level 0."""
    calls, clauses, total = [], [], [0, 0, 0, 0]
    for seed in seeds:
        rng = random.Random(7000 + seed)
        nv = rng.randint(15, 40)
        solver = CdclSolver(nv, random_3cnf(rng, nv, int(4.2 * nv)))
        for _ in range(6):
            cap = rng.choice([None, 1, 4, 30])
            status, model = solver.solve(random_assumptions(rng, nv), max_conflicts=cap)
            calls.append((status, sorted(model.items()) if model else None))
            a, b, c = random_3cnf(rng, nv, 1)[0]
            solver.add_clause((a, -a, b))
            solver.add_clause((a, b, a, c))
            false = [-l for l in solver.trail]  # level 0: every trail literal is fixed
            if false:
                solver.add_clause((rng.choice(false), b, c))
            if rng.random() < 0.5:
                solver.add_clause((c,))
        total = [t + n for t, n in zip(total, vars(solver.stats).values())]
        clauses.append(solver.clauses)
    return sha256(calls), SolverStats(*total), sha256(clauses)


def sha256(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def test_search_path_is_pinned():
    """Propagation order, watch lists and clause layout decide every model
    the solver returns; a speed-up of the solver must keep all three."""
    calls, stats, clauses = search_path()
    assert calls == "012f6a85ef4a8882264e3a9a414032171a4fc589d9f2194a0b6c0829493f634b"
    assert stats == SolverStats(decisions=697, conflicts=547, propagations=6752, learned=477)
    assert clauses == "8da277c1f6d98b3fbb408e9afc7828e6f4ee40dc85076c4de96492eeae30262d"


def assert_clauses_held_by_reference(solver):
    """Every watch-list entry and every reason is one of `solver.clauses`
    itself, and each clause is watched once by each of its first two
    literals."""
    ids = {id(c) for c in solver.clauses}
    assert all(id(r) in ids for r in solver.reason if r is not None)
    watched = Counter()
    for lit, ws in solver.watches.items():
        for c in ws:
            assert id(c) in ids and lit in c[:2]
            watched[id(c)] += 1
    assert watched == dict.fromkeys(ids, 2)


def test_watches_and_reasons_hold_the_clauses_themselves(monkeypatch):
    made, init = [], CdclSolver.__init__

    def record(self, *args):
        init(self, *args)
        made.append(self)

    monkeypatch.setattr(CdclSolver, "__init__", record)
    ks16 = sfqify(kogge_stone_adder(16))
    assert verify(ks16, ripple_adder(16)).verdict.stats.method == "sweep"
    faulted = inject(ks16, "swap-gate", seed=0)[0]
    assert verify(faulted, ripple_adder(16)).verdict.stats.method == "simulation"
    # the sweep's solver, then the fault's fresh cone solver after its lex call
    assert len(made) == 2 and all(s.stats.learned > 0 for s in made)
    for solver in made:
        assert any(r is not None for r in solver.reason)
        assert_clauses_held_by_reference(solver)
