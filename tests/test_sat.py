import itertools
import random

import pytest

from gen import kogge_stone_adder, ripple_adder, sfqify
from sfqlec import build_mcid, build_miter, builtin_profile
from sfqlec.aig import FALSE, TRUE, Aig
from sfqlec.mcid import TimedSignal
from sfqlec.sat import Budget, CdclSolver, Cnf, Tseitin, cnf_from_aig, to_dimacs


def brute_force(num_vars, clauses):
    """First satisfying assignment in lexicographic order, or None."""
    for bits in itertools.product((False, True), repeat=num_vars):
        val = {v: bits[v - 1] for v in range(1, num_vars + 1)}
        if all(any(val[abs(l)] == (l > 0) for l in c) for c in clauses):
            return val
    return None


def random_cnf(rng, num_vars, num_clauses):
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, min(3, num_vars))
        vs = rng.sample(range(1, num_vars + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return clauses


def test_trivial_formulas():
    assert CdclSolver(1, [(1,)]).solve() == ("sat", {1: True})
    assert CdclSolver(1, [(-1,)]).solve() == ("sat", {1: False})
    assert CdclSolver(1, [(1,), (-1,)]).solve()[0] == "unsat"
    assert CdclSolver(0, [()]).solve()[0] == "unsat"
    status, model = CdclSolver(2, []).solve()
    assert status == "sat" and model == {1: False, 2: False}  # phase default


def test_tautology_and_duplicate_literals_are_harmless():
    status, model = CdclSolver(2, [(1, -1), (2, 2, 1)]).solve()
    assert status == "sat"
    assert model[2] or model[1]


def test_agrees_with_brute_force_on_random_cnfs():
    for seed in range(300):
        rng = random.Random(seed)
        nv = rng.randint(1, 9)
        clauses = random_cnf(rng, nv, rng.randint(1, 24))
        want = brute_force(nv, clauses)
        status, model = CdclSolver(nv, clauses).solve()
        if want is None:
            assert status == "unsat", seed
        else:
            assert status == "sat", seed
            ok = all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses)
            assert ok, seed


def test_solver_is_deterministic():
    rng = random.Random(42)
    clauses = random_cnf(rng, 9, 30)
    first = CdclSolver(9, clauses).solve()
    for _ in range(3):
        assert CdclSolver(9, clauses).solve() == first


def pigeonhole(holes):
    """holes+1 pigeons into `holes` holes; classic small unsat family."""
    var = lambda p, h: p * holes + h + 1
    clauses = [tuple(var(p, h) for h in range(holes)) for p in range(holes + 1)]
    for h in range(holes):
        for p1 in range(holes + 1):
            for p2 in range(p1 + 1, holes + 1):
                clauses.append((-var(p1, h), -var(p2, h)))
    return (holes + 1) * holes, clauses


def test_pigeonhole_is_unsat_and_counts_conflicts():
    nv, clauses = pigeonhole(4)
    solver = CdclSolver(nv, clauses)
    assert solver.solve()[0] == "unsat"
    assert solver.stats.conflicts > 0
    assert solver.stats.learned > 0


def test_conflict_budget_reports_unknown():
    nv, clauses = pigeonhole(5)
    assert CdclSolver(nv, clauses).solve(budget=Budget.start(max_conflicts=3)) == ("unknown", None)


def test_time_budget_reports_unknown():
    nv, clauses = pigeonhole(7)
    status, _ = CdclSolver(nv, clauses).solve(budget=Budget.start(max_seconds=0.0))
    assert status == "unknown"


def test_cnf_from_aig_variable_order_and_tseitin_shape():
    g = Aig()
    b = g.input_(("b", -1))
    a = g.input_(("a", -2))
    root = g.and_(a, b)
    cnf = cnf_from_aig(g, root)
    # inputs numbered by (name, step) before and-nodes
    assert cnf.input_vars == {("a", -2): 1, ("b", -1): 2}
    assert cnf.num_vars == 3
    assert (3, -1, -2) in cnf.clauses or (3, -2, -1) in cnf.clauses
    assert cnf.clauses[-1] == (3,)


def test_cnf_input_order_is_numeric_in_the_step():
    g = Aig()
    late, early, mid = (g.input_(TimedSignal("n", t)) for t in (-1, -10, -9))
    cnf = cnf_from_aig(g, g.and_(g.and_(late, early), mid))
    # as text "n@t-1" < "n@t-10" < "n@t-9"; as numbers -10 < -9 < -1
    assert to_dimacs(cnf).splitlines()[:3] == ["c var 3 = n@t-1", "c var 2 = n@t-9", "c var 1 = n@t-10"]
    assert [cnf.input_vars[TimedSignal("n", t)] for t in (-10, -9, -1)] == [1, 2, 3]


def test_cnf_from_aig_of_a_constant_root():
    # a TRUE root holds with no clause; a FALSE root is the empty clause
    g = Aig()
    g.input_("a")
    assert cnf_from_aig(g, TRUE) == Cnf(0, [], {})
    assert cnf_from_aig(g, FALSE) == Cnf(0, [()], {})
    assert to_dimacs(cnf_from_aig(g, TRUE)) == "p cnf 0 0\n"
    assert to_dimacs(cnf_from_aig(g, FALSE)) == "p cnf 0 1\n0\n"


def test_a_lazily_encoded_constant_edge_is_fixed():
    """`Tseitin.lit` on the constant numbers node 0 with a unit clause
    making it TRUE, so no model sets FALSE, alone or beside other nodes."""
    g = Aig()
    ab = g.and_(g.input_("a"), g.input_("b"))
    solver = CdclSolver()
    enc = Tseitin(g, solver.add_clause)
    x = enc.lit(ab)
    assert solver.solve([enc.lit(FALSE)]) == ("unsat", None)
    assert solver.solve([x, -enc.lit(TRUE)]) == ("unsat", None)
    assert solver.solve([x, enc.lit(TRUE)])[0] == "sat"


def test_cnf_solutions_match_aig_evaluation():
    for seed in range(40):
        rng = random.Random(seed)
        g = Aig()
        names = ["a", "b", "c"]
        edges = [g.input_(n) for n in names]
        for _ in range(rng.randint(2, 10)):
            op = rng.choice(("and_", "or_", "xor_"))
            edges.append(getattr(g, op)(rng.choice(edges), rng.choice(edges)))
        root = edges[-1]
        if root >> 1 == 0:
            continue
        cnf = cnf_from_aig(g, root)
        status, model = CdclSolver(cnf.num_vars, cnf.clauses).solve()
        satisfiable = any(
            g.evaluate({m: (bits >> i) & 1 for i, m in enumerate(names)}, [root])[0]
            for bits in range(8)
        )
        assert status == ("sat" if satisfiable else "unsat"), seed
        if status == "sat":
            values = {lbl: int(model[v]) for lbl, v in cnf.input_vars.items()}
            assert g.evaluate(values, [root])[0] == 1, seed


def test_dimacs_output_is_stable():
    g = Aig()
    x = g.input_("x")
    y = g.input_("y")
    cnf = cnf_from_aig(g, g.and_(x, y))
    text = to_dimacs(cnf)
    assert text == (
        "c var 2 = y\n"
        "c var 1 = x\n"
        "p cnf 3 4\n"
        "-3 1 0\n"
        "-3 2 0\n"
        "3 -1 -2 0\n"
        "3 0\n"
    )


@pytest.mark.parametrize(
    "n_bits, work", [(16, (2107, 1308, 81228)), (24, (6694, 3461, 288865))]
)
def test_whole_miter_solve_work_is_pinned(n_bits, work):
    """One plain solve of the whole ks-vs-ripple miter, as the decide phase
    ran before the sweep: its decisions, conflicts and propagations do not
    depend on how the solver finds its next decision."""
    impl = sfqify(kogge_stone_adder(n_bits))
    miter = build_miter(build_mcid(impl, builtin_profile("rsfq")), ripple_adder(n_bits))
    cnf = cnf_from_aig(miter.aig, miter.root)
    solver = CdclSolver(cnf.num_vars, cnf.clauses)
    assert solver.solve()[0] == "unsat"
    s = solver.stats
    assert (s.decisions, s.conflicts, s.propagations) == work
