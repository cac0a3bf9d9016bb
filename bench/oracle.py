"""Answers known from outside the checker: a private bench reader, an
arrival-aware cycle simulation, and trace replay.

Nothing here imports sfqlec.  The simulation follows the synchronous
recurrence from its definition (state starts at 0; a clocked element at
cycle t reads its fanins at cycle t-1, a transparent one at cycle t), but
evaluates only the (net, cycle) points an output actually reads, so deep
pipelines cost one evaluation per gate instead of one per gate per cycle.
Values are Python ints used as parallel lanes under `mask`.
"""

import re

_GATE = re.compile(r"^(\S+)\s*=\s*(\w+)\((.*)\)$")
_IO = re.compile(r"^(INPUT|OUTPUT)\((\S+)\)$")

OPS = {
    "AND2": lambda m, a, b: a & b,
    "OR2": lambda m, a, b: a | b,
    "XOR2": lambda m, a, b: a ^ b,
    "NAND2": lambda m, a, b: m ^ (a & b),
    "NOR2": lambda m, a, b: m ^ (a | b),
    "XNOR2": lambda m, a, b: m ^ a ^ b,
    "INV": lambda m, a: m ^ a,
    "BUF": lambda m, a: a,
    "DFF": lambda m, a: a,
    "SPLIT": lambda m, a: a,
}

# Which kinds settle within the cycle, per builtin profile.
TRANSPARENT = {"rsfq": frozenset({"SPLIT"}), "aqfp": frozenset()}


class Circuit:
    """A bench netlist as plain tables: inputs, outputs, net -> (kind, fanins)."""

    def __init__(self, text: str):
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self.driver: dict[str, tuple[str, tuple[str, ...]]] = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            m = _IO.match(line)
            if m:
                (self.inputs if m.group(1) == "INPUT" else self.outputs).append(m.group(2))
                continue
            m = _GATE.match(line)
            if not m:
                raise ValueError(f"unreadable bench line {line!r}")
            ins = tuple(a.strip() for a in m.group(3).split(","))
            self.driver[m.group(1)] = (m.group(2), ins)

    def levels(self, transparent, shifts=None) -> dict[str, int]:
        """Clocked depth of every output, counting a late input as entering
        `shift` levels deep."""
        shifts = shifts or {}
        memo = {pi: shifts.get(pi, 0) for pi in self.inputs}
        for po in self.outputs:
            stack = [po]
            while stack:
                net = stack[-1]
                if net in memo:
                    stack.pop()
                    continue
                kind, ins = self.driver[net]
                todo = [i for i in ins if i not in memo]
                if todo:
                    stack.extend(todo)
                    continue
                memo[net] = max(memo[i] for i in ins) + (0 if kind in transparent else 1)
                stack.pop()
        return {po: memo[po] for po in self.outputs}


def observe(circ: Circuit, wave, cycle: int, transparent, shifts=None, mask: int = 1):
    """Outputs at hardware cycle `cycle`.

    `wave(pi, c)` gives the lanes of external wave c of input pi; a late
    input with shift k is seen by the hardware k cycles after it is fed.
    Returns (outputs, cells) where cells is the set of (pi, wave) pairs read.
    """
    shifts = shifts or {}
    memo: dict[tuple[str, int], int] = {}
    cells: set[tuple[str, int]] = set()
    pis = set(circ.inputs)

    def leaf(net, t):
        if t < 0:
            return 0
        if net in pis:
            c = t - shifts.get(net, 0)
            if c < 0:
                return 0
            cells.add((net, c))
            return wave(net, c) & mask
        return None

    for po in circ.outputs:
        stack = [(po, cycle)]
        while stack:
            key = stack[-1]
            if key in memo:
                stack.pop()
                continue
            v = leaf(*key)
            if v is not None:
                memo[key] = v
                stack.pop()
                continue
            net, t = key
            kind, ins = circ.driver[net]
            dt = 0 if kind in transparent else 1
            args = [(i, t - dt) for i in ins]
            todo = [a for a in args if a not in memo]
            if todo:
                stack.extend(todo)
                continue
            memo[key] = OPS[kind](mask, *(memo[a] for a in args))
            stack.pop()
    return {po: memo[(po, cycle)] for po in circ.outputs}, cells


def parse_trace(text: str):
    """(waves, golden assignment, output name, impl bit, golden bit)."""
    waves, golden, output = [], {}, None
    for line in text.splitlines():
        head, _, rest = line.partition(": ")
        if head.startswith("CYCLE "):
            waves.append({k: int(v) for k, v in (t.split("=") for t in rest.split())})
        elif head == "GOLDEN":
            golden = {k: int(v) for k, v in (t.split("=") for t in rest.split())}
        elif head.startswith("OUTPUT "):
            bits = dict(t.split("=") for t in rest.split())
            output = (head[len("OUTPUT "):], int(bits["impl"]), int(bits["golden"]))
    if output is None or not waves:
        raise ValueError("trace has no OUTPUT line or no cycles")
    return waves, golden, *output


def replay(circ: Circuit, trace_text: str, observation: int, transparent, shifts, golden_eval):
    """Empty string when the trace reproduces on both sides, else why not.

    The implementation must emit the claimed bit at the observation cycle
    when fed the trace's waves; `golden_eval(assignment)` must give the
    claimed specification bit; and the two bits must differ.
    """
    waves, golden, output, impl_bit, golden_bit = parse_trace(trace_text)

    def wave(pi, c):
        return waves[c].get(pi, 0) if c < len(waves) else 0

    outs, _ = observe(circ, wave, observation, transparent, shifts)
    if outs[output] != impl_bit:
        return f"implementation emits {outs[output]} on {output}, trace claims {impl_bit}"
    spec_bit = golden_eval(golden)[output]
    if spec_bit != golden_bit:
        return f"specification emits {spec_bit} on {output}, trace claims {golden_bit}"
    if impl_bit == golden_bit:
        return "trace shows no disagreement"
    return ""
