"""Multi-cycle input dependency model.

A deep-pipelined netlist computes, at each primary output and clock cycle, a
pure function of primary-input values sampled over a window of earlier
cycles.  The MCID circuit materializes that function: every source net is
unrolled into timed copies net@t<step>, where a clocked gate at step t reads
its fanins at step t-1 and a transparent gate reads them at step t.

Splitters are identity fanout elements and are elided (aliased through);
storage elements keep their position in the unrolling but degrade to plain
buffers, since the time shift is already explicit in the signal names.

`TimedSignal` is a tuple-backed record (a `typing.NamedTuple`): immutable,
hashed, compared and sorted by value as (net, step), and equal to the plain
tuple of its fields.
"""

from typing import NamedTuple

from .netlist import Gate, Netlist, bench_text, logic_levels
from .profiles import KINDS, RSFQ, TechnologyProfile


class TimedSignal(NamedTuple):
    net: str
    step: int  # 0 = observation cycle, negative = earlier waves

    def __str__(self) -> str:
        return f"{self.net}@t{self.step}"


class MCIDCircuit:
    __slots__ = (
        "source_name", "source_pis", "gates", "timed_inputs", "outputs", "duplicated_gate_count"
    )

    def __init__(
        self, source_name: str, source_pis: tuple[str, ...], gates: list[Gate],
        timed_inputs: tuple[TimedSignal, ...], outputs: dict[str, TimedSignal],
        duplicated_gate_count: int = 0,  # unrolled gates beyond one per source gate
    ):
        self.source_name, self.source_pis = source_name, source_pis
        self.gates = gates  # over TimedSignal nets; storage elements appear as BUF
        self.timed_inputs = timed_inputs  # sorted: by net, then step
        self.outputs = outputs  # source PO name -> timed signal at step 0
        self.duplicated_gate_count = duplicated_gate_count

    @property
    def gate_count(self) -> int:
        return len(self.gates)

    @property
    def window(self) -> tuple[int, int]:
        """(earliest, latest) step of any input pin; (0, 0) without pins."""
        steps = [s.step for s in self.timed_inputs]
        return (min(steps), max(steps)) if steps else (0, 0)

    def to_bench(self) -> str:
        body = bench_text(self.timed_inputs, self.outputs.values(), self.gates)
        return f"# MCID model of {self.source_name}\n{body}"


def build_mcid(netlist: Netlist, profile: TechnologyProfile = RSFQ) -> MCIDCircuit:
    """Unroll a netlist into its MCID circuit, observing all POs at step 0.

    Copies are shared: each (net, step) pair is expanded at most once, so the
    result is a DAG whose size is bounded by gates x distinct steps.
    """
    non_clocked = profile.non_clocked_kinds
    driver_of = netlist.driver_of
    buf = KINDS["BUF"]
    memo: dict[tuple[str, int], TimedSignal] = {}
    gates: list[Gate] = []
    pins: list[TimedSignal] = []
    # A (net, step) whose fanins are not all expanded yet goes back on the
    # stack under them, so it is emitted after them (DFS post-order).
    stack: list[tuple[str, int]] = []
    push, pop, new = stack.append, stack.pop, tuple.__new__

    for po in netlist.primary_outputs:
        push((po, 0))
        while stack:
            key = pop()
            if key in memo:
                continue
            net, t = key
            gate = driver_of.get(net)
            if gate is None:  # a primary input
                sig = memo[key] = new(TimedSignal, key)
                pins.append(sig)
                continue
            kind, ins, _ = gate
            name = kind.name
            s = t if name in non_clocked else t - 1  # the step its fanins are read at
            # every kind has one or two inputs; a missing ins[0] is pushed last, popped first
            a = (ins[0], s)
            fa = memo.get(a)
            if len(ins) == 1:
                if fa is None:  # push the chain of one-input cells below, each once
                    push(key)
                    while True:
                        push(a)
                        below = driver_of.get(a[0])
                        if below is None or len(below.inputs) != 1:
                            break
                        a = (below.inputs[0], a[1] if below.kind.name in non_clocked else a[1] - 1)
                        if a in memo:
                            break
                    continue
                if name == "SPLIT":  # elided: the net aliases its fanin's copy
                    memo[key] = fa
                    continue
                fanins = (fa,)
            else:
                b = (ins[1], s)
                fb = memo.get(b)
                if fa is None or fb is None:
                    push(key)
                    if fb is None:
                        push(b)
                    if fa is None:
                        push(a)
                    continue
                fanins = (fa, fb)
            sig = memo[key] = new(TimedSignal, key)
            gates.append(new(Gate, (buf if name == "DFF" else kind, fanins, sig)))

    timed_inputs = tuple(sorted(set(pins)))
    outputs = {po: memo[(po, 0)] for po in netlist.primary_outputs}
    del memo  # the largest table here; free it before counting source nets
    duplicated = len(gates) - len({g.output.net for g in gates})
    return MCIDCircuit(
        netlist.name, tuple(netlist.primary_inputs), gates, timed_inputs, outputs, duplicated
    )


def dependency_window(mcid: MCIDCircuit) -> dict[str, tuple[int, ...]]:
    """Steps at which each source PI is sampled (ascending; may be empty)."""
    window: dict[str, list[int]] = {pi: [] for pi in mcid.source_pis}
    for sig in mcid.timed_inputs:
        window[sig.net].append(sig.step)
    return {pi: tuple(sorted(steps)) for pi, steps in window.items()}


def mcid_size_upper_bound(
    netlist: Netlist,
    removed_dffs: list[str],
    profile: TechnologyProfile = RSFQ,
) -> int:
    """Bound on gate duplication caused by removing the given storage gates.

    Each removal shifts the removed gate's whole fanin cone one step
    earlier; every shared gate in that cone may gain one extra timed copy.
    A cone of clocked depth L holds at most 2^L - 1 two-input gates, so a
    removal adds at most 2^L - 1 copies, L being the clocked depth of the
    removed gate's input net.  Removals are summed independently.
    """
    levels = logic_levels(netlist, profile)
    total = 0
    for out in removed_dffs:
        gate = netlist.driver_of.get(out)
        if gate is None or gate.kind.name != "DFF":
            raise ValueError(f"{out} is not a DFF")
        total += (1 << levels[gate.inputs[0]]) - 1
    return total
