"""Random circuit generators and independent oracles for the test suite.

Everything here is deliberately written against the *definitions* rather
than the library's algorithms: path sets come from definitional recursion
instead of the levelized pass, combinational evaluation uses its own
operator table, and adders are checked against integer arithmetic.
"""

import random

from sfqlec import Gate, Netlist, parse_netlist
from sfqlec.netlist import get_kind

_TWO_IN = ("AND2", "OR2", "XOR2", "NAND2", "NOR2", "XNOR2")


# ---------------------------------------------------------------- generators


def random_comb(rng: random.Random, n_pis: int = 4, n_gates: int = 8) -> Netlist:
    """Random combinational netlist; every input used, every sink an output."""
    pis = [f"x{i}" for i in range(n_pis)]
    nets = list(pis)
    rows: list[tuple[str, str, list[str]]] = []
    for k in range(n_gates):
        kind = rng.choice(_TWO_IN + ("INV",))
        ins = rng.sample(nets, 2) if kind != "INV" else [rng.choice(nets)]
        out = f"n{k}"
        rows.append((out, kind, ins))
        nets.append(out)
    read = {i for _, _, ins in rows for i in ins}
    for pi in pis:
        if pi not in read:
            out = f"use_{pi}"
            rows.append((out, "OR2", [pi, rng.choice(nets)]))
            nets.append(out)
            read.add(pi)
    read = {i for _, _, ins in rows for i in ins}
    pos = [out for out, _, _ in rows if out not in read]
    gates = tuple(Gate(get_kind(kind), tuple(ins), out) for out, kind, ins in rows)
    return Netlist(name=f"comb{n_gates}", primary_inputs=tuple(pis), primary_outputs=tuple(pos), gates=gates)


def mutate_comb(rng: random.Random, comb: Netlist) -> Netlist:
    """Swap one two-input gate's function; usually changes the circuit."""
    two_in = sorted((g for g in comb.gates if g.kind.arity == 2), key=lambda g: g.output)
    if two_in:
        victim = rng.choice(two_in)
        new_kind = rng.choice([k for k in _TWO_IN if k != victim.kind.name])
    else:
        victim = rng.choice(sorted(comb.gates, key=lambda g: g.output))
        new_kind = "BUF" if victim.kind.name == "INV" else "INV"
    gates = tuple(
        Gate(get_kind(new_kind), g.inputs, g.output) if g.output == victim.output else g
        for g in comb.gates
    )
    return Netlist(
        name=comb.name + "_mut",
        primary_inputs=tuple(comb.primary_inputs),
        primary_outputs=tuple(comb.primary_outputs),
        gates=gates,
    )


def random_pipeline(rng: random.Random, n_pis: int = 3, n_gates: int = 10) -> Netlist:
    """Random fanout-legal clocked netlist; usually path-unbalanced."""
    pis = [f"x{i}" for i in range(n_pis)]
    budget = {pi: 1 for pi in pis}
    rows: list[tuple[str, str, list[str]]] = []
    kinds = ("AND2", "AND2", "OR2", "XOR2", "XOR2", "INV", "DFF", "DFF", "SPLIT")
    for k in range(n_gates):
        avail = sorted(n for n, b in budget.items() if b > 0)
        kind = rng.choice(kinds)
        if kind in _TWO_IN and len(avail) < 2:
            kind = "SPLIT"
        if sum(budget.values()) < 2 and kind in _TWO_IN:
            kind = "SPLIT"
        ins = rng.sample(avail, 2) if kind in _TWO_IN else [rng.choice(avail)]
        for i in ins:
            budget[i] -= 1
        out = f"g{k}"
        rows.append((out, kind, ins))
        budget[out] = 2 if kind == "SPLIT" else 1
    sinks = sorted(n for n, b in budget.items() if b > 0 and n not in pis)
    if not sinks:
        feed = sorted(n for n, b in budget.items() if b > 0)[0]
        rows.append(("gcap", "INV", [feed]))
        sinks = ["gcap"]
    pos = sorted(rng.sample(sinks, min(len(sinks), rng.randint(1, 2))))
    gates = tuple(Gate(get_kind(kind), tuple(ins), out) for out, kind, ins in rows)
    return Netlist(name=f"pipe{n_gates}", primary_inputs=tuple(pis), primary_outputs=tuple(pos), gates=gates)


def sfqify(comb: Netlist, name: str | None = None) -> Netlist:
    """Compile a combinational netlist into a balanced, fanout-legal clocked
    one with the same input/output names and per-wave function.

    Every logic gate becomes clocked; fanins are retimed with DFF chains,
    outputs padded to one common depth, and fanout realized by splitter
    chains.  Output nets must be sinks in the source netlist.
    """
    for po in comb.primary_outputs:
        assert not comb.is_pi(po), "outputs straight from an input are not supported"
        assert all(po not in g.inputs for g in comb.gates), "output nets must be sinks"
    taken = set(comb.primary_inputs) | {g.output for g in comb.gates}
    uid = [0]

    def fresh(base: str) -> str:
        while True:
            uid[0] += 1
            cand = f"{base}_{uid[0]}"
            if cand not in taken:
                taken.add(cand)
                return cand

    rows: list[list] = []  # [out, kind, ins]
    levels = {pi: 0 for pi in comb.primary_inputs}
    delay_cache: dict[tuple[str, int], str] = {}

    def delayed(net: str, k: int) -> str:
        if k == 0:
            return net
        key = (net, k)
        if key not in delay_cache:
            out = fresh(f"{net}_dl")
            rows.append([out, "DFF", [delayed(net, k - 1)]])
            delay_cache[key] = out
        return delay_cache[key]

    for gid in [g.output for g in comb.order]:
        g = comb.driver_of[gid]
        assert g.kind.name not in ("DFF", "SPLIT"), "source must be combinational"
        lv = 1 + max(levels[i] for i in g.inputs)
        ins = [delayed(i, lv - 1 - levels[i]) for i in g.inputs]
        rows.append([g.output, g.kind.name, ins])
        levels[g.output] = lv

    target = max(levels[po] for po in comb.primary_outputs)
    for po in comb.primary_outputs:
        need = target - levels[po]
        if not need:
            continue
        row = next(r for r in rows if r[0] == po)
        row[0] = fresh(f"{po}_core")
        cur = row[0]
        for _ in range(need - 1):
            nxt = fresh(f"{po}_pad")
            rows.append([nxt, "DFF", [cur]])
            cur = nxt
        rows.append([po, "DFF", [cur]])

    # fanout legalization over a snapshot; splitter chains are born legal
    slots: dict[str, list[tuple[int, int]]] = {}
    for idx, row in enumerate(rows):
        for pos_, net in enumerate(row[2]):
            slots.setdefault(net, []).append((idx, pos_))
    po_set = set(comb.primary_outputs)
    snapshot = list(comb.primary_inputs) + [row[0] for row in rows]
    for net in snapshot:
        uses = slots.get(net, [])
        sinks = len(uses) + (1 if net in po_set else 0)
        if sinks <= 1:
            continue
        if net in po_set:
            row = next(r for r in rows if r[0] == net)
            src = fresh(f"{net}_src")
            row[0] = src
            m = sinks - 1  # one splitter per gate reader; the last one is `net`
            for i, (gi, si) in enumerate(uses):
                out = net if i == m - 1 else fresh(f"{net}_sp")
                rows.append([out, "SPLIT", [src]])
                rows[gi][2][si] = out
                src = out
        else:
            src = net
            m = sinks - 1
            for i in range(m):
                out = fresh(f"{net}_sp")
                rows.append([out, "SPLIT", [src]])
                src = out
            # splitter i feeds reader i; the last one has room for two
            for i, (gi, si) in enumerate(uses):
                rows[gi][2][si] = rows[len(rows) - m + min(i, m - 1)][0]

    gates = tuple(Gate(get_kind(kind), tuple(ins), out) for out, kind, ins in rows)
    return Netlist(
        name=name or f"{comb.name}_sfq",
        primary_inputs=tuple(comb.primary_inputs),
        primary_outputs=tuple(comb.primary_outputs),
        gates=gates,
    )


# ------------------------------------------------------------------- oracles


def enumerate_path_sets(netlist: Netlist, non_clocked=frozenset({"SPLIT"})):
    """Clocked path-length sets by definitional recursion (no levelization)."""

    def rec(net: str) -> set[int]:
        drv = netlist.driver_of.get(net)
        if drv is None:
            return {0}
        step = 0 if drv.kind.name in non_clocked else 1
        out: set[int] = set()
        for i in drv.inputs:
            out |= {d + step for d in rec(i)}
        return out

    nets = list(netlist.primary_inputs) + [g.output for g in netlist.gates]
    return {net: frozenset(rec(net)) for net in nets}


def oracle_balanced(netlist: Netlist, non_clocked=frozenset({"SPLIT"})) -> bool:
    """Path balancing straight from the definition: on every gate all fanin
    path lengths agree, and all outputs sit at one common depth."""
    sets = enumerate_path_sets(netlist, non_clocked)
    for g in netlist.gates:
        fanin = [sets[i] for i in g.inputs]
        if any(len(s) != 1 for s in fanin):
            return False
        if len({next(iter(s)) for s in fanin}) != 1:
            return False
    po = [sets[p] for p in netlist.primary_outputs]
    if any(len(s) != 1 for s in po):
        return False
    return len({next(iter(s)) for s in po}) == 1


_OPS = {
    "AND2": lambda a, b: a & b,
    "OR2": lambda a, b: a | b,
    "XOR2": lambda a, b: a ^ b,
    "NAND2": lambda a, b: 1 - (a & b),
    "NOR2": lambda a, b: 1 - (a | b),
    "XNOR2": lambda a, b: 1 - (a ^ b),
    "INV": lambda a: 1 - a,
    "BUF": lambda a: a,
    "SPLIT": lambda a: a,
    "DFF": lambda a: a,
}


def eval_comb(netlist: Netlist, assignment: dict[str, int]) -> dict[str, int]:
    """Fixpoint evaluation with a private operator table."""
    vals = {pi: assignment.get(pi, 0) for pi in netlist.primary_inputs}
    pending = list(netlist.gates)
    while pending:
        rest = []
        for g in pending:
            if all(i in vals for i in g.inputs):
                vals[g.output] = _OPS[g.kind.name](*(vals[i] for i in g.inputs))
            else:
                rest.append(g)
        assert len(rest) < len(pending), "stuck evaluation"
        pending = rest
    return {po: vals[po] for po in netlist.primary_outputs}


# -------------------------------------------------------------------- adders


def ripple_adder(n_bits: int) -> Netlist:
    lines = []
    for i in range(n_bits):
        lines += [f"INPUT(a{i})", f"INPUT(b{i})"]
    lines.append("INPUT(cin)")
    lines += [f"OUTPUT(s{i})" for i in range(n_bits)]
    lines.append("OUTPUT(cout)")
    carry = "cin"
    for i in range(n_bits):
        nxt = "cout" if i == n_bits - 1 else f"c{i + 1}"
        lines += [
            f"axb{i} = XOR2(a{i}, b{i})",
            f"s{i} = XOR2(axb{i}, {carry})",
            f"ab{i} = AND2(a{i}, b{i})",
            f"cx{i} = AND2({carry}, axb{i})",
            f"{nxt} = OR2(ab{i}, cx{i})",
        ]
        carry = nxt
    return parse_netlist("\n".join(lines) + "\n", name=f"ripple{n_bits}")


def late_b_ripple16() -> tuple[Netlist, Netlist]:
    """sfqify(ripple16) balanced for every b input arriving one cycle late:
    each b is read through a BUF while sfqify pads the paths, and the BUF is
    then deleted, so paths from b are one stage shorter."""
    spec = ripple_adder(16)
    buf = {pi: f"late_{pi}" for pi in spec.primary_inputs if pi.startswith("b")}
    gates = [Gate(get_kind("BUF"), (pi,), b) for pi, b in buf.items()]
    gates += [Gate(g.kind, tuple(buf.get(i, i) for i in g.inputs), g.output) for g in spec.gates]
    padded = sfqify(Netlist(spec.name, spec.primary_inputs, spec.primary_outputs, tuple(gates)))
    back = {b: pi for pi, b in buf.items()}
    kept = tuple(
        Gate(g.kind, tuple(back.get(i, i) for i in g.inputs), g.output)
        for g in padded.gates
        if g.output not in back
    )
    return Netlist("late_b16", spec.primary_inputs, spec.primary_outputs, kept), spec


def kogge_stone_adder(n_bits: int) -> Netlist:
    lines = []
    for i in range(n_bits):
        lines += [f"INPUT(a{i})", f"INPUT(b{i})"]
    lines.append("INPUT(cin)")
    lines += [f"OUTPUT(s{i})" for i in range(n_bits)]
    lines.append("OUTPUT(cout)")
    gen = [f"kg0_{i}" for i in range(n_bits)]
    prop = [f"p{i}" for i in range(n_bits)]
    for i in range(n_bits):
        lines += [
            f"p{i} = XOR2(a{i}, b{i})",
            f"{gen[i]} = AND2(a{i}, b{i})",
        ]
    lvl, d = 1, 1
    while d < n_bits:
        ng, np_ = list(gen), list(prop)
        for i in range(d, n_bits):
            t = f"kt{lvl}_{i}"
            ng[i] = f"kg{lvl}_{i}"
            lines += [
                f"{t} = AND2({prop[i]}, {gen[i - d]})",
                f"{ng[i]} = OR2({gen[i]}, {t})",
            ]
            np_[i] = f"kp{lvl}_{i}"
            lines.append(f"{np_[i]} = AND2({prop[i]}, {prop[i - d]})")
        gen, prop = ng, np_
        lvl += 1
        d *= 2
    lines.append("s0 = XOR2(p0, cin)")
    for i in range(1, n_bits):
        lines += [
            f"cc{i} = AND2({prop[i - 1]}, cin)",
            f"carry{i} = OR2({gen[i - 1]}, cc{i})",
            f"s{i} = XOR2(p{i}, carry{i})",
        ]
    lines += [
        f"ccN = AND2({prop[n_bits - 1]}, cin)",
        f"cout = OR2({gen[n_bits - 1]}, ccN)",
    ]
    return parse_netlist("\n".join(lines) + "\n", name=f"kogge{n_bits}")


def adder_assignment(n_bits: int, x: int, y: int, cin: int) -> dict[str, int]:
    asn = {"cin": cin}
    for i in range(n_bits):
        asn[f"a{i}"] = (x >> i) & 1
        asn[f"b{i}"] = (y >> i) & 1
    return asn


def adder_value(outs: dict[str, int], n_bits: int) -> int:
    total = sum(outs[f"s{i}"] << i for i in range(n_bits))
    return total + (outs["cout"] << n_bits)


# -------------------------------------------------------------------- parity


def parity_members(j: int, n_inputs: int = 32) -> list[int]:
    """Inputs of parity output j: those whose index has bit j % 5 set
    (j < 5) or clear (j >= 5); 16 of 32 each, as in a SEC code's checks."""
    return [i for i in range(n_inputs) if ((i >> (j % 5)) & 1) != (j >= 5)]


def parity_pair(n_outputs: int = 8, n_inputs: int = 32) -> tuple[Netlist, Netlist]:
    """(xor form, nand form) of the same parity outputs: chains of XOR2 over
    each output's inputs in index order, and the same chains with each XOR2
    expanded to four NAND2s.  This is how ISCAS'85 c1355 relates to c499."""
    forms = []
    for nand in (False, True):
        lines = [f"INPUT(x{i})" for i in range(n_inputs)]
        lines += [f"OUTPUT(y{j})" for j in range(n_outputs)]
        for j in range(n_outputs):
            first, *rest = parity_members(j, n_inputs)
            acc = f"x{first}"
            for k, i in enumerate(rest, 1):
                out = f"y{j}" if k == len(rest) else f"p{j}_{k}"
                if nand:
                    lines += [
                        f"{out}_t = NAND2({acc}, x{i})",
                        f"{out}_u = NAND2({acc}, {out}_t)",
                        f"{out}_v = NAND2(x{i}, {out}_t)",
                        f"{out} = NAND2({out}_u, {out}_v)",
                    ]
                else:
                    lines.append(f"{out} = XOR2({acc}, x{i})")
                acc = out
        forms.append(parse_netlist("\n".join(lines) + "\n", name="parity_nand" if nand else "parity_xor"))
    return forms[0], forms[1]


def parity_value(assignment: dict[str, int], j: int, n_inputs: int = 32) -> int:
    return sum(assignment.get(f"x{i}", 0) for i in parity_members(j, n_inputs)) & 1

