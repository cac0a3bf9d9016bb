"""`sat.cone_solver`, the canonicalization solver built straight from a
root's cone, against the solver `cnf_from_aig` feeds clause by clause, and
the DIMACS of a faulted pair that `cnf_from_aig` still writes."""

import hashlib
import random

import pytest

from gen import kogge_stone_adder, ripple_adder, sfqify
from sfqlec import build_mcid, build_miter, builtin_profile, inject, write_netlist
from sfqlec.aig import Aig
from sfqlec.cli import main
from sfqlec.sat import CdclSolver, cnf_from_aig, cone_solver


def state(solver):
    """Everything a search reads, the watch lists' key order included."""
    return solver.nv, solver.clauses, solver.watches, list(solver.watches), solver.trail, solver.value, solver.ok


def assert_same_solver(aig, root):
    ins, ands = aig.cone([root])
    cnf = cnf_from_aig(aig, root)
    old = CdclSolver(cnf.num_vars, cnf.clauses)
    new, input_vars = cone_solver(aig, root, ins, ands)
    assert list(input_vars.items()) == list(cnf.input_vars.items())
    assert state(new) == state(old)
    lex = [input_vars[aig.label(i)] for i in ins]
    assert new.solve(lex=lex) == old.solve(lex=lex)
    assert new.stats == old.stats


def random_aig(rng):
    """Inputs made in shuffled label order, so an and-node's first fanin
    may have the larger variable, and gates over any earlier edge."""
    g = Aig()
    names = [f"x{k}" for k in range(rng.randint(1, 6))]
    rng.shuffle(names)
    edges = [g.input_(n) ^ rng.randint(0, 1) for n in names]
    for _ in range(rng.randint(0, 25)):
        op = rng.choice(("and_", "or_", "xor_"))
        edges.append(getattr(g, op)(rng.choice(edges), rng.choice(edges)))
    return g, edges


def test_direct_build_equals_the_clause_by_clause_load_on_random_aigs():
    roots = 0
    for seed in range(60):
        g, edges = random_aig(random.Random(seed))
        for root in {edges[0], edges[0] ^ 1, edges[-1], edges[-1] ^ 1}:
            if root >> 1:
                assert_same_solver(g, root)
                roots += 1
    assert roots > 150


def test_direct_build_on_an_input_a_complemented_root_and_one_and():
    g = Aig()
    b, a = g.input_("b"), g.input_("a")  # b's node first, a's variable first
    x = g.and_(b, a ^ 1)
    for root in (a, a ^ 1, x, x ^ 1):
        assert_same_solver(g, root)
    # (b, -a) is x's fanin order; a's variable 1 leads its long clause
    solver, _ = cone_solver(g, x ^ 1, *g.cone([x]))
    assert (solver.clauses, solver.trail) == ([[2, -3], [-1, -3], [1, -2, 3]], [-3])


@pytest.mark.parametrize(
    "n_bits, kind, seed",
    [(16, k, s) for k in ("swap-gate", "remove-dff") for s in range(3)]
    + [(32, "swap-gate", 0), (32, "remove-dff", 1)],
)
def test_direct_build_equals_the_clause_by_clause_load_on_faulted_adders(n_bits, kind, seed):
    impl = inject(sfqify(kogge_stone_adder(n_bits)), kind, seed=seed)[0]
    miter = build_miter(build_mcid(impl, builtin_profile("rsfq")), ripple_adder(n_bits))
    assert_same_solver(miter.aig, miter.root)


# sha256 of `verify` stdout + `--cnf` file for `inject swap-gate seed=0` in
# sfqify(ks16) against ripple16: decided by simulation, so the whole
# miter's CNF is written while canonicalization builds its own solver.
KS16_SWAP_CNF_SHA256 = "7706f3e2da2275113bc05d9abb6d052d609ce9095ff48f2a61c575fdaad3bdfb"


def test_faulted_adder_cnf_is_pinned(tmp_path, capsys):
    impl, _ = inject(sfqify(kogge_stone_adder(16)), "swap-gate", seed=0)
    (tmp_path / "impl.bench").write_text(write_netlist(impl))
    (tmp_path / "spec.bench").write_text(write_netlist(ripple_adder(16)))
    cnf = tmp_path / "m.cnf"
    code = main(["verify", str(tmp_path / "impl.bench"), str(tmp_path / "spec.bench"), "--cnf", str(cnf)])
    out = capsys.readouterr().out
    assert code == 1
    assert hashlib.sha256((out + cnf.read_text()).encode()).hexdigest() == KS16_SWAP_CNF_SHA256
