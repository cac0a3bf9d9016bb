"""Equivalence checking of an MCID model against a combinational spec.

Both sides are built into one shared and-inverter graph; matched input pins
are literally the same AIG variable, so a model whose unrolled logic is
structurally identical to the spec collapses to constant FALSE before any
solving.  Otherwise a seeded random-simulation pre-pass looks for an easy
disagreement, and a CDCL run settles the rest.

Counterexample models are canonicalized to the lexicographically smallest
satisfying assignment (inputs ordered by name, then step, preferring 0), so
witnesses do not depend on solver internals or on which pass found them.
The greedy pass walks the cone inputs in that order.  A bit already 0 stays
0; a set bit is first flipped to 0 and the root re-evaluated, and only when
that loses the disagreement does one incremental solver per root (the main
solve's, when there was one) answer whether some assignment extends the
fixed prefix with a 0, under assumptions.

One `Budget` of conflicts and seconds covers the main solve of every root
and every canonicalization call.  When it runs out during canonicalization
the current, valid but not minimal, witness is kept, and
`VerdictStats.trace_canonical` says "budget" instead of "yes"; cones too
large to canonicalize (`_CANON_CAP`) say "capped".
"""

import random
from dataclasses import dataclass

from .aig import Aig, FALSE, TRUE
from .errors import SfqlecError
from .itcl import InputMatching, match_inputs
from .mcid import MCIDCircuit
from .netlist import Netlist, first_pipeline_cell
from .sat import Budget, CdclSolver, cnf_from_aig
from .trace import TimedTrace

_SIM_ROUNDS = 8
_SIM_WIDTH = 64
_CANON_CAP = 2_000_000


class MiterError(SfqlecError):
    pass


@dataclass
class Miter:
    aig: Aig
    root: int
    outputs: dict[str, tuple[int, int, int]]  # po -> (impl, golden, differ) edges
    matching: InputMatching
    mcid: MCIDCircuit
    golden: Netlist


@dataclass
class VerdictStats:
    method: str = ""
    aig_nodes: int = 0
    cnf_vars: int = 0
    cnf_clauses: int = 0
    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    canon_sat_calls: int = 0
    trace_canonical: str = ""  # "yes", "capped" or "budget" when there is a trace


@dataclass
class Verdict:
    equivalent: bool | None  # None = gave up under a solver limit
    trace: TimedTrace | None
    stats: VerdictStats
    per_output: dict[str, bool | None] | None = None


def build_miter(mcid: MCIDCircuit, golden: Netlist) -> Miter:
    # matched first: an unsampled spec input is reported before a spec-shape error
    matching = match_inputs(mcid, list(golden.primary_inputs))
    g = first_pipeline_cell(golden)
    if g is not None:
        raise MiterError(
            f"golden specification must be combinational, found {g.kind.name} gate {g.output}"
        )
    want = set(golden.primary_outputs)
    have = set(mcid.outputs)
    if want != have:
        missing = sorted(want ^ have)
        raise MiterError(f"output names differ between model and spec: {', '.join(missing)}")

    aig = Aig()
    edge = {pin: aig.input_(pin) for pin in mcid.timed_inputs}
    for g in mcid.gates:
        edge[g.output] = g.kind.meaning(aig, *[edge[i] for i in g.inputs])
    gold = {pi: edge[matching.matched[pi]] for pi in golden.primary_inputs}
    for g in golden.order:
        gold[g.output] = g.kind.meaning(aig, *[gold[i] for i in g.inputs])

    outputs: dict[str, tuple[int, int, int]] = {}
    root = FALSE
    for po in golden.primary_outputs:
        ie = edge[mcid.outputs[po]]
        ge = gold[po]
        xe = aig.xor_(ie, ge)
        outputs[po] = (ie, ge, xe)
        root = aig.or_(root, xe)
    return Miter(aig, root, outputs, matching, mcid, golden)


def _lex_min_model(
    aig: Aig, root: int, model: dict, stats: VerdictStats, budget: Budget, sat=None
) -> dict:
    """Fix cone inputs to 0 in order wherever the root stays satisfiable.

    `sat` is the root's (cnf, solver) pair if the main solve built one.
    """
    ins, ands = aig.cone([root])
    if len(ins) * max(1, len(ands)) > _CANON_CAP:
        stats.trace_canonical = "capped"
        return model
    labels = sorted(aig.label(i) for i in ins)
    cur = {lbl: model.get(lbl, 0) for lbl in labels}
    for k, lbl in enumerate(labels):
        if not cur[lbl]:
            continue
        cur[lbl] = 0
        if aig.evaluate(cur, [root])[0]:
            continue
        cur[lbl] = 1
        if sat is None:
            cnf = cnf_from_aig(aig, root)
            sat = cnf, CdclSolver(cnf.num_vars, cnf.clauses)
        cnf, solver = sat
        var_of = cnf.input_vars
        prefix = [var_of[l] if cur[l] else -var_of[l] for l in labels[:k]]
        status, m = solver.solve(prefix + [-var_of[lbl]], budget)
        stats.canon_sat_calls += 1
        if status == "unknown":
            stats.trace_canonical = "budget"
            return cur
        if status == "sat":
            cur = {l: int(m[v]) for l, v in var_of.items()}
    stats.trace_canonical = "yes"
    return cur


def _decide_root(aig: Aig, root: int, stats: VerdictStats, budget: Budget, seed):
    """Decide one miter root: (equivalent, a distinguishing model or None,
    the main solve's (cnf, solver) pair when that solve found the model).
    Solver work adds to `stats`; the CNF size is the largest so far."""
    if root == FALSE:
        stats.method = "structural"
        return True, None, None
    if root == TRUE:
        stats.method = "structural"
        return False, {}, None

    ins, _ = aig.cone([root])
    labels = sorted(aig.label(i) for i in ins)
    rng = random.Random(seed)
    mask = (1 << _SIM_WIDTH) - 1
    for _ in range(_SIM_ROUNDS):
        vals = {lbl: rng.getrandbits(_SIM_WIDTH) for lbl in labels}
        (res,) = aig.evaluate(vals, [root], mask=mask)
        if res:
            bit = (res & -res).bit_length() - 1
            stats.method = "simulation"
            return False, {lbl: (vals[lbl] >> bit) & 1 for lbl in labels}, None

    cnf = cnf_from_aig(aig, root)
    stats.cnf_vars = max(stats.cnf_vars, cnf.num_vars)
    stats.cnf_clauses = max(stats.cnf_clauses, len(cnf.clauses))
    solver = CdclSolver(cnf.num_vars, cnf.clauses)
    status, m = solver.solve(budget=budget)
    stats.method = "sat"
    stats.decisions += solver.stats.decisions
    stats.conflicts += solver.stats.conflicts
    stats.propagations += solver.stats.propagations
    if status == "unknown":
        return None, None, None
    if status == "unsat":
        return True, None, None
    return False, {lbl: int(m[var]) for lbl, var in cnf.input_vars.items()}, (cnf, solver)


def check_equivalence(
    miter: Miter,
    max_conflicts: int | None = None,
    max_seconds: float | None = None,
    seed: int = 0,
    per_output: bool = False,
) -> Verdict:
    """Decide the miter, or each output's part of it with `per_output`.

    The limits bound the whole decide phase: all main solves and the
    canonicalization of the trace.
    """
    aig = miter.aig
    budget = Budget.start(max_conflicts, max_seconds)
    stats = VerdictStats(aig_nodes=len(aig.nodes))
    if per_output:
        roots = {po: miter.outputs[po][2] for po in miter.golden.primary_outputs}
    else:
        roots = {None: miter.root}
    per: dict[str, bool | None] = {}
    witness = None
    for po, root in roots.items():
        equivalent, model, sat = _decide_root(aig, root, stats, budget, seed)
        per[po] = equivalent
        if witness is None and equivalent is False:
            witness = root, model, sat

    if witness is not None:
        root, model, sat = witness
        model = _lex_min_model(aig, root, model, stats, budget, sat)
        verdict = Verdict(False, extract_trace(miter, model), stats)
    elif any(v is None for v in per.values()):
        verdict = Verdict(None, None, stats)
    else:
        verdict = Verdict(True, None, stats)
    if per_output:
        stats.method = "per-output"
        verdict.per_output = per
    return verdict


def extract_trace(miter: Miter, model: dict) -> TimedTrace:
    """Turn a distinguishing assignment into a cycle-by-cycle trace."""
    aig = miter.aig
    failing = None
    bits = (0, 0)
    for po in miter.golden.primary_outputs:
        ie, ge, _ = miter.outputs[po]
        iv, gv = aig.evaluate(model, [ie, ge])
        if iv != gv:
            failing, bits = po, (iv, gv)
            break
    if failing is None:
        raise MiterError("assignment does not distinguish the two sides")
    return TimedTrace.from_model(miter.mcid, miter.matching, model, failing, bits)
