"""The verify pipeline (`verify`) and its equivalence decision on a miter.

Both sides are built into one shared and-inverter graph; matched input pins
are literally the same AIG variable, so a model whose unrolled logic is
structurally identical to the spec collapses to constant FALSE before any
solving.  Otherwise one seeded draw of random patterns (`_patterns`)
serves the whole decision: one bit-parallel simulation of every
non-constant root over the first `_SIM_ROUNDS * _SIM_WIDTH` bits looks
for an easy disagreement, and the sweep's signatures start from them all.

What simulation leaves open is SAT-swept (Mishchenko, Chatterjee, Jiang,
Brayton, "FRAIGs", 2005; Mishchenko et al., "Improvements to Combinational
Equivalence Checking", ICCAD 2006) on one incremental solver; see `_Sweep`.
In node order, each node of the open roots' cones is rebuilt in a fresh
strashed graph and proved equal to the first node of its simulation class
under assumptions; only a solver "unsat" merges a pair.  A root whose
rebuilt edge is constant FALSE is equivalent (method "sweep"); any other
is decided by one final solve of its rebuilt edge (method "sat").
Counterexamples are built from, and evaluated on, the original graph.

Counterexample models are canonicalized to the lexicographically smallest
satisfying assignment (inputs ordered by name, then step, preferring 0), so
witnesses do not depend on solver internals or on which pass found them.
When the all-zero assignment does not set the root, one call on a fresh
solver over its cone (`sat.cone_solver`) finds it: its decisions set the
cone inputs to 0 in that order before any other variable (`lex`); for a
final-solve witness the root is its fraig edge (`_Sweep.decide`).

One `Budget` of conflicts and seconds covers every sweep call, the final
solve of every root and the canonicalization call.  When it runs out
during canonicalization the witness is kept as found, valid but not
minimal, and `VerdictStats.trace_canonical` says "budget", not "yes";
a cone over `_CANON_CAP` says "capped" unless all zeros set its root.
"""

import random

from .aig import Aig, FALSE, TRUE
from .checks import CheckReport, check_fanout, check_path_balance
from .errors import SfqlecError
from .itcl import ArrivalSchedule, InputMatching, apply_itcl, match_inputs
from .mcid import MCIDCircuit, build_mcid
from .netlist import Netlist, first_pipeline_cell
from .profiles import KINDS, RSFQ, TechnologyProfile
from .sat import Budget, CdclSolver, Tseitin, cone_solver
from .trace import TimedTrace

_SIM_ROUNDS = 8
_SIM_WIDTH = 64
_SWEEP_BITS = 512  # random signature bits the sweep adds to the simulation's
_PAIR_CONFLICTS = 100  # conflicts one sweep query may spend
_CANON_CAP = 2_000_000


class MiterError(SfqlecError):
    pass


class Miter:
    __slots__ = ("aig", "root", "outputs", "matching", "mcid")

    def __init__(
        self, aig: Aig, root: int, outputs: dict, matching: InputMatching, mcid: MCIDCircuit
    ):
        self.aig, self.root = aig, root
        self.outputs = outputs  # po -> (impl, golden, differ) edges, spec order
        self.matching, self.mcid = matching, mcid


class VerdictStats:
    """The report's counters: `vars()` lists them in report order, and the
    report leaves out a None or "" one."""

    def __init__(self, aig_nodes: int = 0):
        self.method = ""
        self.aig_nodes = aig_nodes
        self.cnf_vars = self.cnf_clauses = 0
        self.decisions = self.conflicts = self.propagations = 0
        self.canon_sat_calls = 0
        self.sweep_proved: int | None = None  # None when no sweep ran
        self.sweep_refuted: int | None = None
        self.trace_canonical = ""  # "yes", "capped" or "budget" when there is a trace


class Verdict:
    __slots__ = ("equivalent", "trace", "stats", "per_output")

    def __init__(
        self, equivalent: bool | None, trace: TimedTrace | None, stats: VerdictStats,
        per_output: dict[str, bool | None] | None = None,
    ):
        self.equivalent = equivalent  # None = gave up under a solver limit
        self.trace, self.stats, self.per_output = trace, stats, per_output


class Run:
    """What `verify` found; a failed fanout check leaves the rest None."""

    __slots__ = ("fanout", "balance", "miter", "verdict")

    def __init__(
        self, fanout: CheckReport, balance: CheckReport | None = None,
        miter: Miter | None = None, verdict: Verdict | None = None,
    ):
        self.fanout, self.balance = fanout, balance
        self.miter, self.verdict = miter, verdict  # miter: with the model and the input matching


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

    aig, buf = Aig(), KINDS["BUF"]
    edge = {pin: aig.input_(pin) for pin in mcid.timed_inputs}
    for kind, ins, out in mcid.gates:
        if kind is buf:  # every unrolled DFF: the identity, so its fanin's edge
            edge[out] = edge[ins[0]]
        else:
            edge[out] = kind.meaning(aig, *[edge[i] for i in ins])
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
    return Miter(aig, root, outputs, matching, mcid)


def _lex_min_model(aig: Aig, root: int, model: dict, stats: VerdictStats, budget: Budget) -> dict:
    """The lexicographically smallest cone-input assignment that sets the
    root: all zeros when that sets it, else, for a cone within `_CANON_CAP`,
    one call on a fresh solver over the cone (`sat.cone_solver`) that
    decides the cone inputs in label order, each to 0 first
    (`CdclSolver.solve`'s `lex`).  A call the budget stops, or a cone over
    the cap, keeps `model`, the witness.
    """
    ins, ands = aig.cone([root])
    labels = [aig.label(i) for i in ins]
    zeros = dict.fromkeys(labels, 0)
    if aig.evaluate(zeros, [root])[0]:
        stats.trace_canonical = "yes"
        return zeros
    if len(ins) * max(1, len(ands)) > _CANON_CAP:
        stats.trace_canonical = "capped"
        return model
    solver, var_of = cone_solver(aig, root, ins, ands)
    status, m = solver.solve(budget=budget, lex=[var_of[lbl] for lbl in labels])
    stats.canon_sat_calls += 1
    if status == "unknown":
        stats.trace_canonical = "budget"
        return model
    if status == "unsat":
        raise MiterError("the witness's root is unsatisfiable")
    stats.trace_canonical = "yes"
    return {lbl: int(m[var_of[lbl]]) for lbl in labels}


def _patterns(labels: list, seed) -> dict:
    """Seeded random input words of `_SIM_ROUNDS * _SIM_WIDTH + _SWEEP_BITS`
    bits, drawn round by round: simulation round r in the `_SIM_WIDTH` bits
    from r * `_SIM_WIDTH` up, the sweep's extra bits on top."""
    rng = random.Random(seed)
    words, shift = dict.fromkeys(labels, 0), 0
    for width in [_SIM_WIDTH] * _SIM_ROUNDS + [_SWEEP_BITS]:
        for lbl in labels:
            words[lbl] |= rng.getrandbits(width) << shift
        shift += width
    return words


def _settle(aig: Aig, root: int, hit: int, words: dict, stats: VerdictStats):
    """(equivalent, distinguishing model or None, (aig, root) to
    canonicalize on) when the root is constant or simulation set it in some
    lane of `hit`; None when the sweep decides.  The lowest set bit is the
    first round's lowest hit."""
    if root >> 1 == 0:
        stats.method = "structural"
        return (True, None, None) if root == FALSE else (False, {}, (aig, root))
    if hit:
        bit = (hit & -hit).bit_length() - 1
        stats.method = "simulation"
        return False, {lbl: (w >> bit) & 1 for lbl, w in words.items()}, (aig, root)
    return None


class _Sweep:
    """SAT sweeping of the cones of some miter roots on one solver.

    Nodes whose values under `words`, the patterns simulation drew
    (`_patterns`), agree up to complement share a class id; a node's phase
    (bit 0 of its value) says which side it is on.  Each class is headed
    by its lowest node.  In node order each node is rebuilt, through
    `Aig.and_`, in a fresh graph (the fraig) from its fanins' fraig edges,
    and proved equal to its head's edge, complemented when their phases
    differ, by two solver calls under assumptions, each capped at
    `_PAIR_CONFLICTS` conflicts inside the decide-phase budget.  A proved
    pair is merged: its two clauses go in at level 0 and the node takes
    the head's edge, so structural hashing merges what is built on it.  A
    call that gives up leaves the node unmerged.  A refuting model and its
    distance-1 neighbours split the classes by id (`_refine`).  Fraig
    nodes are Tseitin-encoded into the solver when first needed.
    """

    def __init__(self, aig: Aig, roots: list[int], words: dict, stats: VerdictStats, budget: Budget):
        self.aig, self.stats, self.budget = aig, stats, budget
        self.fraig = Aig()
        solver = self.solver = CdclSolver()

        def emit(clause) -> None:  # over the solver, not self: no cycle to outlive the call
            solver.add_clause(clause)
            stats.cnf_clauses += 1

        self.enc = Tseitin(self.fraig, emit)
        self.labels = list(words)
        mask = (1 << _SIM_ROUNDS * _SIM_WIDTH + _SWEEP_BITS) - 1
        sig = aig.simulate(words, mask)
        self.phase = [s & 1 for s in sig]
        ids: dict = {}
        self.ids = [ids.setdefault(s ^ mask if s & 1 else s, len(ids)) for s in sig]
        self.edge = {0: TRUE}  # original node -> fraig edge
        stats.sweep_proved = stats.sweep_refuted = 0
        ins, ands = aig.cone(roots)
        del sig, ids  # every node's full word: free them before the sweep runs
        self._run(sorted(ins + ands))

    def _run(self, order: list[int]) -> None:
        aig, fraig, edge, phase = self.aig, self.fraig, self.edge, self.phase
        heads = {self.ids[0]: 0}  # class id -> first node of its class
        for n in order:
            node = aig.nodes[n]
            if node[0] == "in":
                e = fraig.input_(node[1])
            else:
                a, b = node[1], node[2]
                e = fraig.and_(edge[a >> 1] ^ (a & 1), edge[b >> 1] ^ (b & 1))
            while True:
                r = heads.setdefault(self.ids[n], n)
                if r == n:
                    break
                want = edge[r] ^ phase[n] ^ phase[r]
                if e == want:
                    break
                status = self._prove(e, want)
                if status == "unsat":
                    e = want
                if status != "sat":
                    break
                heads = {self.ids[h]: h for h in heads.values()}
            edge[n] = e

    def _prove(self, e: int, want: int) -> str:
        """Try to prove a node's fraig edge `e` equal to `want`, its class
        head's: "unsat" merges them, "sat" splits the class, "unknown"
        gives up."""
        if self.budget.exhausted():
            return "unknown"
        lit = self.enc.lit
        if want >> 1 == 0:
            queries = [[lit(e ^ want ^ 1)]]
        else:
            x, y = lit(e), lit(want)
            queries = [[x, -y], [-x, y]]
        for q in queries:
            status, model = self.solver.solve(q, self.budget, _PAIR_CONFLICTS)
            if status == "sat":
                self.stats.sweep_refuted += 1
                self._refine(model)
            if status != "unsat":
                return status
        for q in queries:
            self.enc.emit([-l for l in q])
        self.stats.sweep_proved += 1
        return "unsat"

    def _refine(self, model: dict) -> None:
        """Split the classes by a refuting model (bit 0) and its distance-1
        neighbours (bit j flips the j-th input): each node's next id interns
        its id and its word under them, complemented when its phase is 1."""
        mask = (1 << len(self.labels) + 1) - 1
        words = {}
        for j, lbl in enumerate(self.labels, 1):
            v = self.enc.input_var.get(lbl)
            words[lbl] = (mask if v and model[v] else 0) ^ (1 << j)
        new = self.aig.simulate(words, mask)
        ids: dict = {}
        self.ids = [
            ids.setdefault((i, w ^ mask if p else w), len(ids))
            for i, w, p in zip(self.ids, new, self.phase)
        ]

    def decide(self, root: int):
        """(equivalent or None, distinguishing model or None, (fraig, edge)
        to canonicalize on) for a root: constant FALSE after the sweep, or
        one solve of its fraig edge.  That edge equals the root as a
        function, so the lex-min over its cone (which keeps the sweep's
        merges), with the inputs outside it at 0, is the root's.  The model
        covers the root's cone inputs, 0 where the solver has no variable."""
        e = self.edge[root >> 1] ^ (root & 1)
        if e == FALSE:
            self.stats.method = "sweep"
            return True, None, None
        self.stats.method = "sat"
        if self.budget.exhausted():
            return None, None, None
        status, model = self.solver.solve([self.enc.lit(e)], self.budget)
        if status != "sat":
            return (None if status == "unknown" else True), None, None
        var_of = self.enc.input_var
        labels = map(self.aig.label, self.aig.cone([root])[0])
        model = {lbl: int(model.get(var_of.get(lbl), False)) for lbl in labels}
        return False, model, (self.fraig, e)


def check_equivalence(
    miter: Miter,
    max_conflicts: int | None = None,
    max_seconds: float | None = None,
    seed: int = 0,
    per_output: bool = False,
) -> Verdict:
    """Decide the miter, or each output's part of it with `per_output`.

    The limits bound the whole decide phase: the sweep, the final solves
    and the canonicalization of the trace.
    """
    aig = miter.aig
    budget = Budget.start(max_conflicts, max_seconds)
    stats = VerdictStats(aig_nodes=len(aig.nodes))
    if per_output:
        roots = {po: xe for po, (_, _, xe) in miter.outputs.items()}
    else:
        roots = {None: miter.root}
    # one draw and one simulation for every non-constant root
    live = [root for root in roots.values() if root >> 1]
    words = _patterns([aig.label(i) for i in aig.cone(live)[0]], seed)
    sim = aig.evaluate(words, live, mask=(1 << _SIM_ROUNDS * _SIM_WIDTH) - 1) if live else []
    hit = dict(zip(live, sim))
    found = {po: _settle(aig, root, hit.get(root), words, stats) for po, root in roots.items()}
    open_roots = [root for po, root in roots.items() if found[po] is None]
    sweep = _Sweep(aig, open_roots, words, stats, budget) if open_roots else None
    per: dict[str, bool | None] = {}
    witness = None
    for po, root in roots.items():
        equivalent, model, cone = found[po] or sweep.decide(root)
        per[po] = equivalent
        if witness is None and equivalent is False:
            witness = model, cone
    if sweep is not None:
        s = sweep.solver.stats
        stats.cnf_vars = sweep.solver.nv
        stats.decisions, stats.conflicts, stats.propagations = s.decisions, s.conflicts, s.propagations

    trace = None
    if witness is not None:
        model, (graph, edge) = witness
        trace = extract_trace(miter, _lex_min_model(graph, edge, model, stats, budget))
        equivalent = False
    else:
        equivalent = None if None in per.values() else True
    if per_output:
        stats.method = "per-output"
    return Verdict(equivalent, trace, stats, per if per_output else None)


def extract_trace(miter: Miter, model: dict) -> TimedTrace:
    """Turn a distinguishing assignment into a cycle-by-cycle trace."""
    vals = miter.aig.evaluate(model, [e for ie, ge, _ in miter.outputs.values() for e in (ie, ge)])
    for po, iv, gv in zip(miter.outputs, vals[::2], vals[1::2]):
        if iv != gv:
            return TimedTrace.from_model(miter.mcid, miter.matching, model, po, (iv, gv))
    raise MiterError("assignment does not distinguish the two sides")


def verify(
    netlist: Netlist,
    golden: Netlist,
    profile: TechnologyProfile = RSFQ,
    schedule: ArrivalSchedule = ArrivalSchedule(),
    po_only_balance: bool = False,
    **limits,
) -> Run:
    """Check `netlist` against the combinational `golden` spec.  A bad
    schedule raises before any check; a fanout violation (not a balance
    one) stops before unrolling.  `limits` are `check_equivalence`'s
    keywords.  Pausing the cyclic collector is left to the caller."""
    shifts = schedule.shifts(netlist.primary_inputs)
    fanout = check_fanout(netlist, profile)
    if not fanout.passed:
        return Run(fanout)
    # balance is judged for the declared arrivals
    balance = check_path_balance(netlist, profile, po_only=po_only_balance, shifts=shifts)
    miter = build_miter(apply_itcl(build_mcid(netlist, profile), schedule), golden)
    return Run(fanout, balance, miter, check_equivalence(miter, **limits))
