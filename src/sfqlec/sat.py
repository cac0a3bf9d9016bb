"""Tseitin encoding and a small incremental CDCL solver.

The solver is deliberately deterministic: decisions break activity ties by
variable index, phases start at False, and there are no restarts or
randomized heuristics, so a given CNF and call sequence always produce the
same models.

It is incremental in the MiniSat style (Eén & Sörensson, "An Extensible
SAT-solver", SAT 2003): `solve(assumptions)` decides the assumption
literals first, one decision level each, and answers "unsat" for that call
alone when one of them is forced false.  Every call returns at decision
level 0, and learned clauses are derived from the clauses only, never from
the assumptions, so learned clauses, activities and saved phases carry over
to the next call.  A `Budget` bounds the conflicts and wall-clock time of a
whole sequence of calls, across solvers.
"""

import time
from dataclasses import dataclass, field


@dataclass
class Cnf:
    num_vars: int
    clauses: list[tuple[int, ...]]
    input_vars: dict  # label -> dimacs var
    var_labels: dict[int, str]  # dimacs var -> printable signal name
    root_lit: int


def cnf_from_aig(aig, root: int) -> Cnf:
    """Encode the cone of `root` with one clause asserting it true.

    Variable numbering is stable: cone inputs first, in label order (a
    timed signal sorts by name, then step), then and-nodes by index.
    """
    if root >> 1 == 0:
        raise ValueError("constant root needs no CNF")
    ins, ands = aig.cone([root])
    var_of: dict[int, int] = {}
    input_vars: dict = {}
    var_labels: dict[int, str] = {}
    for i in sorted(ins, key=aig.label):
        var_of[i] = len(var_of) + 1
        input_vars[aig.label(i)] = var_of[i]
        var_labels[var_of[i]] = str(aig.label(i))
    for i in ands:
        var_of[i] = len(var_of) + 1

    def lit(edge: int) -> int:
        v = var_of[edge >> 1]
        return -v if edge & 1 else v

    clauses: list[tuple[int, ...]] = []
    for i in ands:
        _, a, b = aig.nodes[i]
        v, la, lb = var_of[i], lit(a), lit(b)
        clauses.append((-v, la))
        clauses.append((-v, lb))
        clauses.append((v, -la, -lb))
    clauses.append((lit(root),))
    return Cnf(len(var_of), clauses, input_vars, var_labels, lit(root))


def to_dimacs(cnf: Cnf) -> str:
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    for v in sorted(cnf.var_labels):
        lines.insert(0, f"c var {v} = {cnf.var_labels[v]}")
    for c in cnf.clauses:
        lines.append(" ".join(map(str, c)) + " 0")
    return "\n".join(lines) + "\n"


@dataclass
class Budget:
    """Conflicts and wall-clock time shared by a sequence of solve calls."""

    max_conflicts: int | None = None
    deadline: float | None = None  # a time.monotonic() instant
    conflicts: int = 0  # spent so far

    @classmethod
    def start(cls, max_conflicts=None, max_seconds=None):
        deadline = None if max_seconds is None else time.monotonic() + max_seconds
        return cls(max_conflicts, deadline)

    def exhausted(self) -> bool:
        if self.max_conflicts is not None and self.conflicts >= self.max_conflicts:
            return True
        return self.deadline is not None and time.monotonic() > self.deadline


@dataclass
class SolverStats:
    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    learned: int = 0


class CdclSolver:
    """Conflict-driven clause learning over two watched literals.

    1-UIP learning, additive activity bumps with periodic halving, phase
    saving.  `stats` accumulates over all calls.
    """

    def __init__(self, num_vars: int, clauses):
        self.nv = num_vars
        self.stats = SolverStats()
        self.clauses: list[list[int]] = []
        self.watches: dict[int, list[int]] = {}
        self.value = [0] * (num_vars + 1)  # 0 free, 1 true, -1 false
        self.level = [0] * (num_vars + 1)
        self.reason: list = [None] * (num_vars + 1)
        self.activity = [0] * (num_vars + 1)
        self.phase = [False] * (num_vars + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.ok = True
        for c in clauses:
            self._add_clause(list(c))

    def _val(self, lit: int) -> int:
        v = self.value[abs(lit)]
        return v if lit > 0 else -v

    def _enqueue(self, lit: int, reason) -> bool:
        cur = self._val(lit)
        if cur == 1:
            return True
        if cur == -1:
            return False
        v = abs(lit)
        self.value[v] = 1 if lit > 0 else -1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.phase[v] = lit > 0
        self.trail.append(lit)
        return True

    def _add_clause(self, lits: list[int]) -> None:
        lits = sorted(set(lits), key=lambda l: (abs(l), l))
        if any(-l in lits for l in lits):
            return  # tautology
        if not lits:
            self.ok = False
            return
        if len(lits) == 1:
            if not self._enqueue(lits[0], None):
                self.ok = False
            return
        ci = len(self.clauses)
        self.clauses.append(lits)
        self.watches.setdefault(lits[0], []).append(ci)
        self.watches.setdefault(lits[1], []).append(ci)

    def _propagate(self):
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            self.stats.propagations += 1
            neg = -lit
            ws = self.watches.get(neg)
            if not ws:
                continue
            i = j = 0
            while i < len(ws):
                ci = ws[i]
                i += 1
                c = self.clauses[ci]
                if c[0] == neg:
                    c[0], c[1] = c[1], c[0]
                if self._val(c[0]) == 1:
                    ws[j] = ci
                    j += 1
                    continue
                moved = False
                for k in range(2, len(c)):
                    if self._val(c[k]) != -1:
                        c[1], c[k] = c[k], c[1]
                        self.watches.setdefault(c[1], []).append(ci)
                        moved = True
                        break
                if moved:
                    continue
                ws[j] = ci
                j += 1
                if self._val(c[0]) == -1:
                    while i < len(ws):
                        ws[j] = ws[i]
                        j += 1
                        i += 1
                    del ws[j:]
                    return ci
                self._enqueue(c[0], ci)
            del ws[j:]
        return None

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        cur = len(self.trail_lim)
        learnt: list[int] = []
        seen = set()
        counter = 0
        p = None
        idx = len(self.trail) - 1
        while True:
            c = self.clauses[confl]
            for q in (c if p is None else c[1:]):
                v = abs(q)
                if v not in seen and self.level[v] > 0:
                    seen.add(v)
                    self.activity[v] += 1
                    if self.level[v] >= cur:
                        counter += 1
                    else:
                        learnt.append(q)
            while abs(self.trail[idx]) not in seen:
                idx -= 1
            p = self.trail[idx]
            idx -= 1
            seen.discard(abs(p))
            counter -= 1
            if counter == 0:
                break
            confl = self.reason[abs(p)]
        learnt.insert(0, -p)
        if len(learnt) == 1:
            return learnt, 0
        # second-highest decision level, with that literal watched
        k = max(range(1, len(learnt)), key=lambda n: self.level[abs(learnt[n])])
        learnt[1], learnt[k] = learnt[k], learnt[1]
        return learnt, self.level[abs(learnt[1])]

    def _backtrack(self, lvl: int) -> None:
        while len(self.trail) > self.trail_lim[lvl]:
            v = abs(self.trail.pop())
            self.value[v] = 0
            self.reason[v] = None
        del self.trail_lim[lvl:]
        self.qhead = len(self.trail)

    def _decide(self) -> int:
        best, best_act = 0, -1
        for v in range(1, self.nv + 1):
            if self.value[v] == 0 and self.activity[v] > best_act:
                best, best_act = v, self.activity[v]
        return best

    def solve(self, assumptions=(), budget: Budget | None = None):
        """Returns ("sat", model) / ("unsat", None) / ("unknown", None).

        "unsat" under assumptions means no model extends them; the solver
        stays usable.  A call given an exhausted `budget` returns "unknown"
        at once; without one, the search is unlimited.
        """
        if not self.ok:
            return "unsat", None
        if budget is None:
            budget = Budget()
        elif budget.exhausted():
            return "unknown", None
        result = self._search(list(assumptions), budget)
        if self.trail_lim:
            self._backtrack(0)
        return result

    def _search(self, assumptions: list[int], budget: Budget):
        while True:
            confl = self._propagate()
            if confl is not None:
                self.stats.conflicts += 1
                budget.conflicts += 1
                if not self.trail_lim:
                    self.ok = False
                    return "unsat", None
                if budget.exhausted():
                    return "unknown", None
                learnt, lvl = self._analyze(confl)
                self._backtrack(lvl)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    ci = len(self.clauses)
                    self.clauses.append(learnt)
                    self.watches.setdefault(learnt[0], []).append(ci)
                    self.watches.setdefault(learnt[1], []).append(ci)
                    self._enqueue(learnt[0], ci)
                self.stats.learned += 1
                if self.stats.conflicts % 256 == 0:
                    self.activity = [a >> 1 for a in self.activity]
            elif len(self.trail_lim) < len(assumptions):
                lit = assumptions[len(self.trail_lim)]
                if self._val(lit) == -1:
                    return "unsat", None
                self.trail_lim.append(len(self.trail))  # a level even when already true
                self._enqueue(lit, None)
            else:
                v = self._decide()
                if v == 0:
                    model = {u: self.value[u] == 1 for u in range(1, self.nv + 1)}
                    return "sat", model
                self.stats.decisions += 1
                self.trail_lim.append(len(self.trail))
                self._enqueue(v if self.phase[v] else -v, None)
