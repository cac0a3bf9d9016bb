"""Straight-line references for rewritten hot paths.

`parse_netlist`, `Netlist`'s validation and topological order,
`base_distances`, `check_path_balance`, `build_mcid` and `build_miter`
were rewritten to cut per-gate overhead.  These are the plain loops they
replaced, kept so that tests/test_front_end_reference.py can require equal
results and identical error messages.

`simulation_witness` is the decide phase's simulation pre-pass as it ran
round by round, before one draw served every round; tests/test_miter.py
requires the same witness from the one wide simulation.

`lex_min_model` is trace canonicalization as a per-bit greedy: each set
input bit is flipped to 0 in turn, and the solver is asked, with the
whole fixed prefix assumed, only when a flip loses the root.
tests/test_canonical.py requires the same traces, models and verdict
statistics (but the solver calls) from the one lex-ordered solver call
that replaced it.  `extract_trace` is the trace builder as it simulated the
graph once per output until one differed; tests/test_canonical.py
requires the same trace from one simulation of every output.

`exhaustive_equivalence` is a brute-force equivalence oracle: it
enumerates every assignment of the model's full input grid (one variable
per primary input per window step) in one bit-parallel pass, using wide
ints as 2^bits parallel simulation lanes, and returns its counterexample
as the same TimedTrace the miter gives.  `write_profile` writes a profile
in the key = value format `load_profile` reads.
"""

import heapq
import random
import re

from sfqlec import miter
from sfqlec.aig import FALSE, Aig
from sfqlec.checks import (
    UNBALANCED_FANIN,
    UNEQUAL_OUTPUT_DEPTH,
    CheckReport,
    Violation,
)
from sfqlec.itcl import ArrivalSchedule, apply_itcl, match_inputs
from sfqlec.mcid import MCIDCircuit, TimedSignal, build_mcid
from sfqlec.netlist import (
    DISTANCE_CAP,
    BaseDistanceSet,
    BenchParseError,
    Gate,
    Netlist,
    NetlistError,
    get_kind,
)
from sfqlec.profiles import KINDS, RSFQ, TechnologyProfile
from sfqlec.sat import CdclSolver, cnf_from_aig
from sfqlec.sim import SimError, _cycles, evaluate_golden
from sfqlec.trace import TimedTrace

_NAME = r"[A-Za-z_][A-Za-z0-9_.@-]*"
_NAME_RE = re.compile(rf"^{_NAME}$")
_IO_RE = re.compile(rf"^(?i:(INPUT|OUTPUT))\s*\(\s*({_NAME})\s*\)$")
_GATE_RE = re.compile(rf"^({_NAME})\s*=\s*([A-Za-z0-9_]+)\s*\((.*)\)$")


def parse_lines(text: str) -> tuple[tuple[str, ...], tuple[str, ...], tuple[Gate, ...]]:
    """Bench text to (inputs, outputs, gates), one line at a time."""
    pis: list[str] = []
    pos: list[str] = []
    gates: list[Gate] = []
    seen_pis: set[str] = set()
    seen_outputs: set[str] = set()
    seen_pos: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _IO_RE.match(line)
        if m:
            keyword, net = m.group(1).upper(), m.group(2)
            if keyword == "INPUT":
                if net in seen_pis:
                    raise BenchParseError(line_no, f"duplicate INPUT({net})")
                seen_pis.add(net)
                pis.append(net)
            else:
                if net in seen_pos:
                    raise BenchParseError(line_no, f"duplicate OUTPUT({net})")
                seen_pos.add(net)
                pos.append(net)
            continue
        m = _GATE_RE.match(line)
        if m:
            out, kind_name, arg_text = m.group(1), m.group(2), m.group(3)
            try:
                kind = get_kind(kind_name)
            except NetlistError as exc:
                raise BenchParseError(line_no, str(exc)) from None
            args = [a.strip() for a in arg_text.split(",")] if arg_text.strip() else []
            for a in args:
                if not _NAME_RE.match(a):
                    raise BenchParseError(line_no, f"bad net name {a!r}")
            if len(args) != kind.arity:
                raise BenchParseError(
                    line_no, f"{kind.name} takes {kind.arity} inputs, got {len(args)}"
                )
            if out in seen_outputs:
                raise BenchParseError(line_no, f"net {out!r} has two drivers")
            seen_outputs.add(out)
            gates.append(Gate(kind, tuple(args), out))
            continue
        raise BenchParseError(line_no, f"cannot parse {line!r}")
    return tuple(pis), tuple(pos), tuple(gates)


def kahn_order(gates, driver_of: dict) -> tuple[Gate, ...]:
    """Kahn's algorithm with the output names themselves on the heap."""
    indegree: dict[str, int] = {}
    consumers: dict[str, list[str]] = {}
    for g in gates:
        deps = 0
        for net in g.inputs:
            if net in driver_of:
                deps += 1
                consumers.setdefault(net, []).append(g.output)
        indegree[g.output] = deps
    ready = [out for out, d in indegree.items() if d == 0]
    heapq.heapify(ready)
    order: list[Gate] = []
    while ready:
        out = heapq.heappop(ready)
        order.append(driver_of[out])
        for nxt in consumers.get(out, ()):
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heapq.heappush(ready, nxt)
    if len(order) != len(gates):
        stuck = sorted(set(indegree) - {g.output for g in order})
        raise NetlistError(f"cycle detected involving gate(s): {', '.join(stuck[:5])}")
    return tuple(order)


def validated_order(pis, pos, gates) -> tuple[Gate, ...]:
    """Every `Netlist` check, one pass each, then the topological order."""
    driver_of: dict[str, Gate] = {}
    pi_set = frozenset(pis)
    if len(pi_set) != len(pis):
        raise NetlistError("duplicate primary input declaration")
    if len(set(pos)) != len(pos):
        raise NetlistError("duplicate primary output declaration")
    for g in gates:
        if g.output in pi_set:
            raise NetlistError(f"net {g.output!r} driven by a gate but declared INPUT")
        if g.output in driver_of:
            raise NetlistError(f"net {g.output!r} has two drivers")
        if len(g.inputs) != g.kind.arity:
            raise NetlistError(
                f"gate {g.output!r}: {g.kind.name} takes {g.kind.arity} inputs, "
                f"got {len(g.inputs)}"
            )
        driver_of[g.output] = g
    for g in gates:
        for net in g.inputs:
            if net not in pi_set and net not in driver_of:
                raise NetlistError(f"gate {g.output!r} reads undriven net {net!r}")
    for po in pos:
        if po not in pi_set and po not in driver_of:
            raise NetlistError(f"primary output {po!r} is undriven")
    return kahn_order(gates, driver_of)


def parse_netlist(text: str):
    """(inputs, outputs, gates, order) of bench text, or the error it raises."""
    pis, pos, gates = parse_lines(text)
    return pis, pos, gates, validated_order(pis, pos, gates)


def base_distances(netlist, profile, shifts=None) -> dict[str, BaseDistanceSet]:
    shifts = shifts or {}
    out: dict[str, BaseDistanceSet] = {
        pi: BaseDistanceSet(pi, (shifts.get(pi, 0),)) for pi in netlist.primary_inputs
    }
    for g in netlist.order:
        step = 1 if profile.is_clocked(g.kind.name) else 0
        merged: set[int] = set()
        truncated = False
        for net in g.inputs:
            src = out[net]
            truncated = truncated or src.truncated
            merged.update(d + step for d in src.distances)
        if len(merged) > DISTANCE_CAP:
            truncated = True
        if truncated:
            merged = {min(merged), max(merged)}
        out[g.output] = BaseDistanceSet(g.output, tuple(sorted(merged)), truncated)
    return out


def check_path_balance(netlist, profile, po_only=False, shifts=None) -> CheckReport:
    """Every gate's fanin list scanned for a non-singleton set, then for a
    depth unlike the first fanin's; then the primary outputs."""
    report = CheckReport()
    if not profile.requires_path_balancing:
        return report
    dists = base_distances(netlist, profile, shifts)
    if not po_only:
        for g in netlist.order:
            fanins = [dists[net] for net in g.inputs]
            bad = next((f for f in fanins if not f.is_singleton), None)
            if bad is not None:
                lengths = ",".join(map(str, bad.distances))
                report.violations.append(
                    Violation(UNBALANCED_FANIN, g.output, f"fanin {bad.net} has path lengths {{{lengths}}}")
                )
                continue
            first = fanins[0]
            mismatch = next((f for f in fanins[1:] if f.depth != first.depth), None)
            if mismatch is not None:
                report.violations.append(
                    Violation(
                        UNBALANCED_FANIN,
                        g.output,
                        f"fanin {first.net} at depth {first.depth} vs {mismatch.net} at depth {mismatch.depth}",
                    )
                )
    po_sets = [dists[po] for po in netlist.primary_outputs]
    singleton_depths = {s.depth for s in po_sets if s.is_singleton}
    want = min(singleton_depths) if singleton_depths else None
    for s in po_sets:
        if not s.is_singleton:
            lengths = ",".join(map(str, s.distances))
            report.violations.append(Violation(UNEQUAL_OUTPUT_DEPTH, s.net, f"path lengths {{{lengths}}}"))
        elif want is not None and s.depth != want:
            report.violations.append(
                Violation(UNEQUAL_OUTPUT_DEPTH, s.net, f"depth {s.depth} differs from depth {want}")
            )
    return report


def build_mcid(netlist, profile) -> MCIDCircuit:
    non_clocked = profile.non_clocked_kinds
    memo: dict[tuple[str, int], TimedSignal] = {}
    gates: list[Gate] = []
    pins: list[TimedSignal] = []

    for po in netlist.primary_outputs:
        # explicit two-phase stack: phase 0 schedules fanins, phase 1 emits
        stack: list[tuple[str, int, bool]] = [(po, 0, False)]
        while stack:
            net, t, ready = stack.pop()
            key = (net, t)
            if key in memo:
                continue
            if netlist.is_pi(net):
                sig = TimedSignal(net, t)
                memo[key] = sig
                pins.append(sig)
                continue
            gate = netlist.driver_of[net]
            dt = 0 if gate.kind.name in non_clocked else 1
            if gate.kind.name == "SPLIT":
                src = (gate.inputs[0], t - dt)
                if src in memo:
                    memo[key] = memo[src]
                else:
                    stack.append((net, t, ready))
                    stack.append((gate.inputs[0], t - dt, False))
                continue
            if ready:
                sig = TimedSignal(net, t)
                ins = tuple(memo[(i, t - dt)] for i in gate.inputs)
                kind = KINDS["BUF"] if gate.kind.name == "DFF" else gate.kind
                gates.append(Gate(kind, ins, sig))
                memo[key] = sig
            else:
                stack.append((net, t, True))
                for i in reversed(gate.inputs):
                    stack.append((i, t - dt, False))

    timed_inputs = tuple(sorted(set(pins)))
    outputs = {po: memo[(po, 0)] for po in netlist.primary_outputs}
    duplicated = len(gates) - len({g.output.net for g in gates})
    return MCIDCircuit(
        netlist.name, tuple(netlist.primary_inputs), gates, timed_inputs, outputs, duplicated
    )


def build_miter(mcid, golden) -> miter.Miter:
    """`miter.build_miter` on valid input, every gate built through its
    kind's meaning (no check of the spec's shape or output names)."""
    matching = match_inputs(mcid, list(golden.primary_inputs))
    aig = Aig()
    edge = {pin: aig.input_(pin) for pin in mcid.timed_inputs}
    for g in mcid.gates:
        edge[g.output] = g.kind.meaning(aig, *[edge[i] for i in g.inputs])
    gold = {pi: edge[matching.matched[pi]] for pi in golden.primary_inputs}
    for g in golden.order:
        gold[g.output] = g.kind.meaning(aig, *[gold[i] for i in g.inputs])
    outputs, root = {}, FALSE
    for po in golden.primary_outputs:
        ie, ge = edge[mcid.outputs[po]], gold[po]
        xe = aig.xor_(ie, ge)
        outputs[po] = (ie, ge, xe)
        root = aig.or_(root, xe)
    return miter.Miter(aig, root, outputs, matching, mcid)


def simulation_witness(aig, root: int, seed, rounds: int = 8, width: int = 64):
    """The first distinguishing assignment of `rounds` rounds of `width`
    seeded random patterns, drawn and simulated one round at a time: the
    lowest set lane of the first round that sets the root.  None when no
    round does."""
    ins, _ = aig.cone([root])
    labels = sorted(aig.label(i) for i in ins)
    rng = random.Random(seed)
    for _ in range(rounds):
        words = {lbl: rng.getrandbits(width) for lbl in labels}
        (res,) = aig.evaluate(words, [root], mask=(1 << width) - 1)
        if res:
            bit = (res & -res).bit_length() - 1
            return {lbl: (words[lbl] >> bit) & 1 for lbl in labels}
    return None


def lex_min_model(aig, root: int, model: dict, stats, budget) -> dict:
    """`miter._lex_min_model` with the fixed prefix assumed, one decision
    level per literal, on every call to one solver over the root's CNF,
    built when first needed."""
    ins, ands = aig.cone([root])
    labels = [aig.label(i) for i in ins]
    zeros_set_it = aig.evaluate(dict.fromkeys(labels, 0), [root])[0]
    if not zeros_set_it and len(ins) * max(1, len(ands)) > miter._CANON_CAP:
        stats.trace_canonical = "capped"
        return model
    cur = {lbl: model.get(lbl, 0) for lbl in labels}
    sat = None
    for k, lbl in enumerate(labels):
        if not cur[lbl]:
            continue
        cur[lbl] = 0
        if aig.evaluate(cur, [root])[0]:
            continue
        cur[lbl] = 1
        if sat is None:
            cnf = cnf_from_aig(aig, root)
            sat = CdclSolver(cnf.num_vars, cnf.clauses), cnf.input_vars
        solver, var_of = sat
        prefix = [var_of[l] if cur[l] else -var_of[l] for l in labels[:k]]
        status, m = solver.solve(prefix + [-var_of[lbl]], budget)
        stats.canon_sat_calls += 1
        if status == "unknown":
            stats.trace_canonical = "budget"
            return cur
        if status == "sat":
            cur = {l: int(m[var_of[l]]) for l in labels}
    stats.trace_canonical = "yes"
    return cur


def extract_trace(miter_, model: dict):
    """`miter.extract_trace` with one simulation per output, in spec order,
    up to the first that differs."""
    aig = miter_.aig
    for po, (ie, ge, _) in miter_.outputs.items():
        iv, gv = aig.evaluate(model, [ie, ge])
        if iv != gv:
            return TimedTrace.from_model(miter_.mcid, miter_.matching, model, po, (iv, gv))
    raise miter.MiterError("assignment does not distinguish the two sides")


def exhaustive_equivalence(
    netlist: Netlist,
    golden: Netlist,
    profile: TechnologyProfile = RSFQ,
    schedule: ArrivalSchedule = ArrivalSchedule(),
    max_bits: int = 24,
) -> TimedTrace | None:
    """Check every grid assignment at once; only viable for small windows.
    Returns a counterexample trace, or None when the two are equivalent.

    The grid covers all (primary input, window step) cells, including cells
    the model never samples; those are don't-cares on both sides, so the
    verdict matches the miter's and the trace keeps only sampled pins.
    """
    mcid = apply_itcl(build_mcid(netlist, profile), schedule)
    matching = match_inputs(mcid, list(golden.primary_inputs))
    earliest, latest = mcid.window
    steps = range(earliest, latest + 1)
    cells = [TimedSignal(pi, s) for pi in netlist.primary_inputs for s in steps]
    bits = len(cells)
    if bits > max_bits:
        raise SimError(f"input grid needs {bits} bits, limit is {max_bits}")
    n = 1 << bits
    mask = (1 << n) - 1
    grid: dict[TimedSignal, int] = {}
    for j, cell in enumerate(cells):
        h = 1 << j
        grid[cell] = (((1 << n) - 1) // ((1 << h) + 1)) << h

    waves = [{c.net: v for c, v in grid.items() if c.step == s} for s in range(earliest, 1)]
    for cur in _cycles(netlist, waves, profile, mask, schedule.shifts(mcid.source_pis)):
        pass

    gold = evaluate_golden(golden, {pi: grid[sig] for pi, sig in matching.matched.items()}, mask)
    for po in golden.primary_outputs:
        diff = cur[po] ^ gold[po]
        if diff:
            b = (diff & -diff).bit_length() - 1
            model = {cell: (b >> j) & 1 for j, cell in enumerate(cells)}
            outs = (cur[po] >> b) & 1, (gold[po] >> b) & 1
            return TimedTrace.from_model(mcid, matching, model, po, outs)
    return None


def write_profile(profile: TechnologyProfile) -> str:
    kinds = ",".join(sorted(profile.non_clocked_kinds))
    return (
        f"name = {profile.name}\n"
        f"default_fanout_limit = {profile.default_fanout_limit}\n"
        f"splitter_fanout_limit = {profile.splitter_fanout_limit}\n"
        f"non_clocked_kinds = {kinds}\n"
        f"requires_path_balancing = {'true' if profile.requires_path_balancing else 'false'}\n"
        f"requires_fanout_check = {'true' if profile.requires_fanout_check else 'false'}\n"
    )
