"""Incremental solving: assumptions, reuse across calls, shared budgets."""

import random

from sfqlec.sat import Budget, CdclSolver


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
