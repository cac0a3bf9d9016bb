"""Per-layer spans and counts, recorded from outside the package.

`Tracer.install()` wraps public sfqlec functions and methods in place.  A
function is rebound in every sfqlec module that imported it (found by
identity, so `cli.parse_netlist` and `netlist.parse_netlist` both record),
and a method is wrapped on its class; `uninstall()` puts the originals back.
Nothing under src/ changes.

A span's self time is its duration minus the time of the spans it called.
Counts come from return values and object fields.  A name or field that no
longer exists is listed in `missing` (reported as `bench.missing_names` and
on stderr), so the zero its metrics then read is never silent.

Solver work is split into the main solve and canonicalization: within one
`check_equivalence` call, every CdclSolver build or solve after the first
solve has returned, or after the simulation pre-pass has found a
disagreement (an `Aig.evaluate` over more than one lane with a non-zero
result), counts as canonicalization.
"""

import importlib
import sys
import time
from collections import defaultdict

# span name -> per-layer metric name of its self time
SELF_METRICS = {
    "netlist.parse_netlist": "netlist.parse_netlist_s",
    "checks.check_fanout": "checks.check_fanout_s",
    "checks.check_path_balance": "checks.check_path_balance_s",
    "mcid.build_mcid": "mcid.build_mcid_s",
    "itcl.apply_itcl": "itcl.apply_itcl_s",
    "itcl.match_inputs": "itcl.match_inputs_s",
    "miter.build_miter": "miter.build_miter_s",
    "miter.check_equivalence": "miter.check_equivalence_self_s",
    "miter.extract_trace": "miter.extract_trace_s",
    "aig.evaluate": "aig.evaluate_s",
    "sat.cnf_from_aig": "sat.cnf_from_aig_s",
    "sat.main_init": "sat.main_init_s",
    "sat.main_solve": "sat.main_solve_s",
    "sat.canon_init": "sat.canon_init_s",
    "sat.canon_solve": "sat.canon_solve_s",
    "trace.format_lines": "trace.format_lines_s",
    "cli.verify": "cli.verify_self_s",
}

COUNTS = (
    "netlist.gates",
    "checks.violations",
    "mcid.gates",
    "mcid.duplicated",
    "itcl.pins",
    "miter.aig_nodes",
    "miter.method_structural",
    "miter.method_simulation",
    "miter.method_sat",
    "miter.inequivalent",
    "miter.sim_inequivalent",
    "aig.evaluate_calls",
    "sat.cnf_vars",
    "sat.cnf_clauses",
    "sat.main_decisions",
    "sat.main_conflicts",
    "sat.main_propagations",
    "sat.canon_builds",
    "sat.canon_solves",
    "sat.canon_sat",
    "sat.canon_conflicts",
    "sat.canon_propagations",
)


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._open: list[float] = []  # child seconds of each open span
        self._undo: list[tuple[object, str, object]] = []
        self._decide = None  # {"sim_hit", "solved"} inside check_equivalence

    # ------------------------------------------------------------ recording

    def take(self):
        """Return (self seconds, counts) since the last take, and reset."""
        out = dict(self.self_s), dict(self.counts)
        self.self_s.clear()
        self.counts.clear()
        return out

    def _canon(self) -> bool:
        d = self._decide
        return d is not None and (d["sim_hit"] or d["solved"])

    def _wrap(self, name, fn, before=None, after=None):
        """`name` is a span name, or a callable choosing one at call time."""
        tracer = self

        def wrapper(*args, **kwargs):
            span = name() if callable(name) else name
            token = tracer._hook(span, before, args, kwargs)
            tracer._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                tracer.self_s[span] += dur - tracer._open.pop()
                if tracer._open:
                    tracer._open[-1] += dur
            tracer._hook(span, after, result, args, kwargs, token)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hook(self, span, hook, *args):
        if hook is None:
            return None
        try:
            return hook(*args)
        except AttributeError as exc:
            note = f"{span}: {exc}"
            if note not in self.missing:
                self.missing.append(note)
            return None

    # --------------------------------------------------------------- counts

    def _add(self, counts: dict) -> None:
        for k, v in counts.items():
            self.counts[k] += v

    def _enter_decide(self, args, kwargs):
        self._decide = {"sim_hit": False, "solved": False}

    def _leave_decide(self, verdict, args, kwargs, token):
        self._decide = None
        method = verdict.stats.method
        self.counts[f"miter.method_{method}"] += 1
        if verdict.equivalent is False:
            self._add({
                "miter.inequivalent": 1,
                "miter.sim_inequivalent": int(method == "simulation"),
            })

    def _evaluated(self, result, args, kwargs, token):
        self._add({"aig.evaluate_calls": 1})
        mask = kwargs.get("mask", args[3] if len(args) > 3 else 1)
        d = self._decide
        if d is not None and not d["solved"] and mask != 1 and any(result):
            d["sim_hit"] = True

    def _built(self, result, args, kwargs, token):
        if self._canon():
            self._add({"sat.canon_builds": 1})

    def _solver_work(self, args, kwargs):
        s = args[0].stats
        return s.decisions, s.conflicts, s.propagations, self._canon()

    def _solved(self, result, args, kwargs, token):
        if token is None:  # the stats fields were missing before the call
            return
        s = args[0].stats
        d0, c0, p0, canon = token
        dec, conf, prop = s.decisions - d0, s.conflicts - c0, s.propagations - p0
        if canon:
            self._add({
                "sat.canon_solves": 1,
                "sat.canon_sat": int(result[0] == "sat"),
                "sat.canon_conflicts": conf,
                "sat.canon_propagations": prop,
            })
        else:
            self._add({"sat.main_decisions": dec, "sat.main_conflicts": conf, "sat.main_propagations": prop})
            if self._decide is not None:
                self._decide["solved"] = True

    def _targets(self):
        """(module, owner attribute or None, attribute, span, before, after)."""
        add = self._add
        return [
            ("sfqlec.netlist", None, "parse_netlist", "netlist.parse_netlist", None,
             lambda r, a, k, t: add({"netlist.gates": len(r.gates)})),
            ("sfqlec.checks", None, "check_fanout", "checks.check_fanout", None,
             lambda r, a, k, t: add({"checks.violations": len(r.violations)})),
            ("sfqlec.checks", None, "check_path_balance", "checks.check_path_balance", None,
             lambda r, a, k, t: add({"checks.violations": len(r.violations)})),
            ("sfqlec.mcid", None, "build_mcid", "mcid.build_mcid", None,
             lambda r, a, k, t: add(
                 {"mcid.gates": r.gate_count, "mcid.duplicated": r.duplicated_gate_count})),
            ("sfqlec.itcl", None, "apply_itcl", "itcl.apply_itcl", None, None),
            ("sfqlec.itcl", None, "match_inputs", "itcl.match_inputs", None,
             lambda r, a, k, t: add({"itcl.pins": len(a[0].timed_inputs)})),
            ("sfqlec.miter", None, "build_miter", "miter.build_miter", None,
             lambda r, a, k, t: add({"miter.aig_nodes": len(r.aig.nodes)})),
            ("sfqlec.miter", None, "check_equivalence", "miter.check_equivalence",
             self._enter_decide, self._leave_decide),
            ("sfqlec.miter", None, "extract_trace", "miter.extract_trace", None, None),
            ("sfqlec.aig", "Aig", "evaluate", "aig.evaluate", None, self._evaluated),
            ("sfqlec.sat", None, "cnf_from_aig", "sat.cnf_from_aig", None,
             lambda r, a, k, t: add({"sat.cnf_vars": r.num_vars, "sat.cnf_clauses": len(r.clauses)})),
            ("sfqlec.sat", "CdclSolver", "__init__",
             lambda: "sat.canon_init" if self._canon() else "sat.main_init", None, self._built),
            ("sfqlec.sat", "CdclSolver", "solve",
             lambda: "sat.canon_solve" if self._canon() else "sat.main_solve",
             self._solver_work, self._solved),
            ("sfqlec.trace", "TimedTrace", "format_lines", "trace.format_lines", None, None),
            ("sfqlec.cli", None, "cmd_verify", "cli.verify", None, None),
        ]

    # ------------------------------------------------------------- patching

    def install(self) -> None:
        targets = self._targets()
        modules = {}
        for modname, *_ in targets:  # import all first, so every rebinding is seen
            try:
                modules[modname] = importlib.import_module(modname)
            except ImportError:
                pass
        for modname, owner, attr, span, before, after in targets:
            label = f"{modname}.{owner + '.' if owner else ''}{attr}"
            holder = modules.get(modname)
            if owner and holder is not None:
                holder = getattr(holder, owner, None)
            orig = getattr(holder, attr, None) if holder is not None else None
            if orig is None:
                self.missing.append(label)
                continue
            wrapper = self._wrap(span, orig, before, after)
            if owner:
                self._rebind(holder, attr, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if name == "sfqlec" or name.startswith("sfqlec."):
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._rebind(mod, key, wrapper)

    def _rebind(self, holder, attr, value) -> None:
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, value = self._undo.pop()
            setattr(holder, attr, value)
