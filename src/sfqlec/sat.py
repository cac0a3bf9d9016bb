"""Tseitin encoding, lazy or of a whole cone, and an incremental CDCL solver.

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
to the next call.  Between calls, `add_clause` adds a clause at level 0:
literals already false there are dropped, a clause already true is
skipped, and a unit is propagated at once.  A variable exists from the
first clause or assumption that names it, so a caller can encode a
formula piece by piece as its calls need it.  A `Budget` bounds the
conflicts and wall-clock time of a whole sequence of calls, across
solvers, and `solve(..., max_conflicts=k)` caps one call inside it.
`solve(..., lex=order)` decides the variables of `order` first, each to
False, so its model is the lexicographically smallest over them.

Every call keeps each literal's true level, the highest among the other
literals of its reason (for a learned literal, its asserting level), and
analyses a conflict at the highest level in its clause; a backtrack to
level k keeps, and propagates again, the literals of level k or below that
sit above it.  Only the jump distance differs (Möhle & Biere, "Backing
Backtracking", SAT 2019): a call without `lex` backjumps to the asserting
level, so its trail stays in level order, each implied literal's true level
is the current one, and the rules change nothing; a call with `lex` undoes
only the conflict level (Nadel & Ryvchin, "Chronological Backtracking", SAT
2018), so the `order` decisions it does not involve stay set instead of
being made again, and its trail leaves level order.

Decisions come from a `heapq` list of int keys `-activity << 32 | var`,
so the smallest key is the highest activity, then the lowest index.  A
conflict bumps its variables' activities by `inc`, which then grows by
1/32, so older bumps fade (MiniSat's decay); at 2^24, every activity and
`inc` shift right by 16 and the list is rebuilt.  Entries are lazy: a bump
pushes a fresh key and leaves the old one stale, a pop drops stale keys
and assigned variables, and backtracking pushes a freed variable back.
Every free variable has a key at its current activity, so every decision
is the one a scan of all free variables would make.
"""

import time
from heapq import heapify, heappop, heappush

from .errors import Value


class Cnf(Value):
    __slots__ = ("num_vars", "clauses", "input_vars")

    def __init__(self, num_vars: int, clauses: list[tuple[int, ...]], input_vars: dict):
        self.num_vars, self.clauses = num_vars, clauses
        self.input_vars = input_vars  # label -> dimacs var, in variable order


class Tseitin:
    """Tseitin encoding of an AIG: `lit(edge)` is an edge's literal.
    A node's first use numbers it and every unnumbered node below it, fanins
    first, from 1 up; `emit` gets each and-node's three clauses and a unit making node 0 TRUE."""

    def __init__(self, aig, emit=None):
        self.aig, self.emit = aig, emit
        self.var: dict[int, int] = {}  # node -> variable
        self.input_var: dict = {}  # input label -> variable

    def lit(self, edge: int) -> int:
        nodes, var, emit = self.aig.nodes, self.var, self.emit
        stack = [edge >> 1]
        while stack:
            i = stack[-1]
            if i in var:
                stack.pop()
                continue
            node = nodes[i]
            if node[0] == "and":
                a, b = node[1], node[2]
                va, vb = var.get(a >> 1), var.get(b >> 1)
                if va is None or vb is None:  # fanins first, b's on top
                    stack += [c >> 1 for c, vc in ((a, va), (b, vb)) if vc is None]
                    continue
            stack.pop()
            v = var[i] = len(var) + 1
            if node[0] == "in":
                self.input_var[node[1]] = v
            elif node[0] == "and":
                la, lb = -va if a & 1 else va, -vb if b & 1 else vb
                for clause in ((-v, la), (-v, lb), (v, -la, -lb)):
                    emit(clause)
            else:
                emit((v,))
        v = var[edge >> 1]
        return -v if edge & 1 else v

    def cone(self, ins: list[int], ands: list[int]):
        """Number a whole cone, `Aig.cone`'s lists, on a fresh encoder: the
        inputs from 1 up in label order, then the and-nodes by index.  Yields
        each and-node's variable and fanin literals; emits no clause."""
        nodes, var = self.aig.nodes, self.var
        for i in ins:
            var[i] = self.input_var[nodes[i][1]] = len(var) + 1
        for i in ands:
            _, a, b = nodes[i]
            va, vb = var[a >> 1], var[b >> 1]
            v = var[i] = len(var) + 1
            yield v, -va if a & 1 else va, -vb if b & 1 else vb


def cnf_from_aig(aig, root: int) -> Cnf:
    """Encode the cone of `root`, numbered by `Tseitin.cone` (a timed input
    sorts by name, then step), with one clause asserting it true.  A TRUE
    root (edge 0) needs no clause and a FALSE root (edge 1) is the empty clause."""
    if root >> 1 == 0:
        return Cnf(0, [()] if root else [], {})
    enc, clauses = Tseitin(aig), []
    for v, la, lb in enc.cone(*aig.cone([root])):
        clauses += (-v, la), (-v, lb), (v, -la, -lb)
    clauses.append((enc.lit(root),))
    return Cnf(len(enc.var), clauses, enc.input_var)


def cone_solver(aig, root: int, ins: list[int], ands: list[int]):
    """`CdclSolver(cnf.num_vars, cnf.clauses)` and `cnf.input_vars` for
    `cnf = cnf_from_aig(aig, root)`, from the root's cone (ins, ands): the
    and-nodes' clauses skip `add_clause` but are stored and watched as it would."""
    enc, solver = Tseitin(aig), CdclSolver(len(ins) + len(ands))
    clauses, watches = solver.clauses, solver.watches
    for v, la, lb in enc.cone(ins, ands):
        x, y = (-la, -lb) if abs(la) < abs(lb) else (-lb, -la)
        ca, cb, cc = [la, -v], [lb, -v], [x, y, v]
        clauses += ca, cb, cc
        watches.setdefault(la, []).append(ca)
        watches[-v] = [ca, cb]  # a fresh key: no earlier clause names v
        watches.setdefault(lb, []).append(cb)
        watches.setdefault(x, []).append(cc)
        watches.setdefault(y, []).append(cc)
    solver.add_clause((enc.lit(root),))
    return solver, enc.input_var


def to_dimacs(cnf: Cnf) -> str:
    lines = [f"c var {v} = {lbl}" for lbl, v in reversed(cnf.input_vars.items())]
    lines.append(f"p cnf {cnf.num_vars} {len(cnf.clauses)}")
    for c in cnf.clauses:
        lines.append(" ".join([*map(str, c), "0"]))
    return "\n".join(lines) + "\n"


class Budget:
    """Conflicts and wall-clock time shared by a sequence of solve calls."""

    def __init__(self, max_conflicts: int | None = None, deadline: float | None = None):
        self.max_conflicts = max_conflicts
        self.deadline = deadline  # a time.monotonic() instant
        self.conflicts = 0  # spent so far

    @classmethod
    def start(cls, max_conflicts=None, max_seconds=None):
        deadline = None if max_seconds is None else time.monotonic() + max_seconds
        return cls(max_conflicts, deadline)

    def exhausted(self) -> bool:
        if self.max_conflicts is not None and self.conflicts >= self.max_conflicts:
            return True
        return self.deadline is not None and time.monotonic() > self.deadline


class SolverStats:
    """Counters, equal when every counter is."""

    def __init__(self, decisions=0, conflicts=0, propagations=0, learned=0):
        self.decisions, self.conflicts = decisions, conflicts
        self.propagations, self.learned = propagations, learned

    def __eq__(self, other):
        return vars(self) == vars(other) if isinstance(other, SolverStats) else NotImplemented


class CdclSolver:
    """Conflict-driven clause learning over two watched literals.

    1-UIP learning, decaying activities (a growing bump), phase
    saving, decisions from a lazy `heapq` order keyed `-activity << 32 |
    var` once a call's `lex` variables are set, and backjumping over true
    levels, one level at a time in a call with `lex`.
    `stats` accumulates over all calls.
    """

    def __init__(self, num_vars: int = 0, clauses=()):
        self.nv = 0
        self.stats = SolverStats()
        self.clauses: list[list[int]] = []
        self.watches: dict[int, list[list[int]]] = {}  # literal -> clauses
        self.value = [0]  # 0 free, 1 true, -1 false
        self.level = [0]
        self.reason: list = [None]
        self.activity = [0]
        self.inc = 1 << 8  # the next bump, in [2^8, 2^24)
        self.phase = [False]
        self.order: list[int] = []  # heapq of -activity << 32 | var, some stale
        self.queued = [False]  # var -> has a key at its current activity
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.ok = True
        self._grow(num_vars)
        for c in clauses:
            self.add_clause(c)

    def _grow(self, num_vars: int) -> None:
        k = num_vars - self.nv
        if k <= 0:
            return
        self.value += [0] * k
        self.level += [0] * k
        self.reason += [None] * k
        self.activity += [0] * k
        self.phase += [False] * k
        self.queued += [True] * k
        # activity 0 and the highest indices: appended, the list is still a heap
        self.order += range(self.nv + 1, num_vars + 1)
        self.nv = num_vars

    def _decide(self) -> int:
        """Pop the order to its best free variable; 0 when every one is set."""
        if len(self.trail) == self.nv:
            return 0
        order, activity, queued, value = self.order, self.activity, self.queued, self.value
        while True:  # every free variable has a live key, so a pop reaches one
            key = heappop(order)
            v = key & 0xFFFFFFFF
            if queued[v] and key >> 32 == -activity[v]:
                queued[v] = False
                if value[v] == 0:
                    return v

    def _enqueue(self, lit: int, reason, lvl: int | None = None) -> None:
        v, val = (lit, 1) if lit > 0 else (-lit, -1)
        if self.value[v] == val:
            return  # only an assumption can already be true
        self.value[v] = val
        self.level[v] = len(self.trail_lim) if lvl is None else lvl
        self.reason[v] = reason
        self.phase[v] = lit > 0
        self.trail.append(lit)

    def _attach(self, lits: list[int]) -> list[int]:
        """Store and return a clause of two or more literals, watched by its first two."""
        self.clauses.append(lits)
        self.watches.setdefault(lits[0], []).append(lits)
        self.watches.setdefault(lits[1], []).append(lits)
        return lits

    def add_clause(self, lits) -> None:
        """Add a clause at decision level 0, that is, between calls.

        Literals false at level 0 are dropped and a clause already true
        there is skipped.  A clause left with one literal is propagated at
        once; one left with none, or a propagation that conflicts, makes
        the solver unsat for good (`ok` False).
        """
        lits = sorted(set(lits), key=abs)  # a tautology's l and -l side by side
        if lits and abs(lits[-1]) > self.nv:
            self._grow(abs(lits[-1]))
        if not self.ok:
            return
        value, keep, prev = self.value, [], 0
        for l in lits:
            v = value[l] if l > 0 else -value[-l]
            if v == 1 or l == -prev:
                return  # true at level 0, or a tautology
            if v == 0:  # drop literals false at level 0
                keep.append(l)
            prev = l
        lits = keep
        if not lits:
            self.ok = False
        elif len(lits) == 1:
            self._enqueue(lits[0], None)
            if self._propagate() is not None:
                self.ok = False
        else:
            self._attach(lits)

    def _propagate(self):
        """Propagate the queued trail literals; the clause found false, else
        None.  An implied literal takes its true level, the highest among
        the other literals of its reason."""
        value, watches, trail = self.value, self.watches, self.trail
        level, reason, phase = self.level, self.reason, self.phase
        lvl = len(self.trail_lim)
        qhead = start = self.qhead
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            neg = -lit
            ws = watches.get(neg)
            if not ws:
                continue
            low = level[lit if lit > 0 else neg] < lvl  # it may imply below `lvl` too
            i = j = 0
            n = len(ws)
            while i < n:
                c = ws[i]
                i += 1
                if c[0] == neg:
                    c[0], c[1] = c[1], c[0]
                first = c[0]
                fv = value[first] if first > 0 else -value[-first]
                if fv == 1:
                    ws[j] = c
                    j += 1
                    continue
                k, m = 2, len(c)
                while k < m:  # a new watch among the rest, if any
                    q = c[k]
                    if (value[q] if q > 0 else -value[-q]) != -1:
                        c[1], c[k] = q, c[1]
                        watches.setdefault(q, []).append(c)
                        break
                    k += 1
                else:
                    ws[j] = c
                    j += 1
                    if fv == -1:
                        ws[j:] = ws[i:]
                        self.qhead = qhead
                        self.stats.propagations += qhead - start
                        return c
                    if first > 0:
                        v, value[first], phase[first] = first, 1, True
                    else:
                        v, value[-first], phase[-first] = -first, -1, False
                    level[v] = max(level[abs(q)] for q in c[1:]) if low else lvl
                    reason[v] = c
                    trail.append(first)
            del ws[j:]
        self.qhead = qhead
        self.stats.propagations += qhead - start
        return None

    def _analyze(self, confl: list[int], cur: int) -> tuple[list[int], int]:
        """1-UIP learning at level `cur`, the highest in the conflict
        clause, which in a lex call may be below the current level: the
        learned clause, UIP first, and its asserting level."""
        trail, level = self.trail, self.level
        activity, queued, order, inc = self.activity, self.queued, self.order, self.inc
        learnt: list[int] = []
        seen = set()
        counter = 0
        p = None
        idx = len(trail) - 1
        while True:
            for q in (confl if p is None else confl[1:]):
                v = abs(q)
                if v not in seen and level[v] > 0:
                    seen.add(v)
                    activity[v] += inc
                    if queued[v]:  # a fresh key; the old one goes stale
                        heappush(order, -activity[v] << 32 | v)
                    if level[v] >= cur:
                        counter += 1
                    else:
                        learnt.append(q)
            # the next literal of level `cur` to resolve; in a lex call the
            # trail holds other levels' literals after and among them
            while abs(trail[idx]) not in seen or level[abs(trail[idx])] < cur:
                idx -= 1
            p = trail[idx]
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
        k = max(range(1, len(learnt)), key=lambda n: level[abs(learnt[n])])
        learnt[1], learnt[k] = learnt[k], learnt[1]
        return learnt, level[abs(learnt[1])]

    def _backtrack(self, lvl: int) -> None:
        """Undo the levels above `lvl`.  A literal of level `lvl` or below
        that sits above them stays set, and is queued to be propagated
        again."""
        trail, value, level, queued = self.trail, self.value, self.level, self.queued
        lim = self.trail_lim[lvl]
        kept = []
        for lit in trail[lim:]:  # `reason` is read only for set variables
            v = lit if lit > 0 else -lit
            if level[v] <= lvl:
                kept.append(lit)
                continue
            value[v] = 0
            if not queued[v]:
                queued[v] = True
                heappush(self.order, -self.activity[v] << 32 | v)
        trail[lim:] = kept
        del self.trail_lim[lvl:]
        self.qhead = lim

    def solve(
        self, assumptions=(), budget: Budget | None = None, max_conflicts: int | None = None, lex=()
    ):
        """Returns ("sat", model) / ("unsat", None) / ("unknown", None).

        "unsat" under assumptions means no model extends them; the solver
        stays usable.  A call given an exhausted `budget` returns "unknown"
        at once; without one, the search is unlimited.  `max_conflicts`
        caps this call alone, inside `budget`.

        While a variable of `lex` is free, the next decision sets the first
        free one False; the activity order decides only after.  The model
        is then the lexicographically smallest over `lex` (False first)
        that extends the assumptions: a `lex` variable set True is implied
        by the assumptions and the decisions at or below its level (its
        true level, however far the call backtracks).  Each of those
        decisions was made while the variable was free, so it set an
        earlier `lex` variable False; every model that agrees with this one
        on the earlier variables therefore sets it True.
        """
        if not self.ok:
            return "unsat", None
        if budget is None:
            budget = Budget()
        elif budget.exhausted():
            return "unknown", None
        assumptions, lex = list(assumptions), list(lex)
        self._grow(max(map(abs, assumptions + lex), default=0))
        limit = None if max_conflicts is None else self.stats.conflicts + max_conflicts
        result = self._search(assumptions, budget, limit, lex)
        if self.trail_lim:
            self._backtrack(0)
        return result

    def _search(self, assumptions: list[int], budget: Budget, limit: int | None, lex: list[int]):
        li = 0  # lex[:li] are set
        while True:
            confl = self._propagate()
            if confl is not None:
                self.stats.conflicts += 1
                budget.conflicts += 1
                top = max(self.level[abs(q)] for q in confl)
                if top == 0:
                    self.ok = False
                    return "unsat", None
                if budget.exhausted() or (limit is not None and self.stats.conflicts >= limit):
                    return "unknown", None
                learnt, lvl = self._analyze(confl, top)
                # a lex call undoes only the conflict level, whatever `lvl` is
                self._backtrack(top - 1 if lex else lvl)
                li = 0
                self._enqueue(learnt[0], None if len(learnt) == 1 else self._attach(learnt), lvl)
                self.stats.learned += 1
                self.inc += self.inc >> 5
                if self.inc >= 1 << 24:
                    self.inc >>= 16
                    act = self.activity = [a >> 16 for a in self.activity]
                    self.order = [-a << 32 | v for v, a in enumerate(act) if self.queued[v]]
                    heapify(self.order)  # with every stale key dropped
            elif len(self.trail_lim) < len(assumptions):
                lit = assumptions[len(self.trail_lim)]
                if (self.value[lit] if lit > 0 else -self.value[-lit]) == -1:
                    return "unsat", None
                self.trail_lim.append(len(self.trail))  # a level even when already true
                self._enqueue(lit, None)
            else:
                while li < len(lex) and self.value[lex[li]]:
                    li += 1
                if li < len(lex):
                    lit = -lex[li]
                else:
                    v = self._decide()
                    if v == 0:
                        model = {u: self.value[u] == 1 for u in range(1, self.nv + 1)}
                        return "sat", model
                    lit = v if self.phase[v] else -v
                self.stats.decisions += 1
                self.trail_lim.append(len(self.trail))
                self._enqueue(lit, None)
