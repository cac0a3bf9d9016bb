"""Seeded structural fault injection.

Three mutation classes exercise the three detection layers: a function swap
is caught by the miter, a storage removal unbalances paths and shifts the
dependency window, and a splitter bypass overloads a net so the fanout check
rejects the netlist before any unrolling happens.
"""

import random

from .errors import SfqlecError, Value
from .netlist import Gate, Netlist, count_readers, logic_levels
from .profiles import KINDS

SWAP_GATE = "swap-gate"
REMOVE_DFF = "remove-dff"
REMOVE_SPLITTER = "remove-splitter"
FAULT_KINDS = (SWAP_GATE, REMOVE_DFF, REMOVE_SPLITTER)


class FaultError(SfqlecError):
    pass


class FaultSpec(Value):
    __slots__ = ("kind", "target", "detail")

    def __init__(self, kind: str, target: str, detail: str):
        self.kind, self.detail = kind, detail
        self.target = target  # the faulted gate's output net in the original netlist

    def line(self) -> str:
        return f"FAULT {self.kind} {self.target} {self.detail}"


def _rebuild(netlist: Netlist, gates: list[Gate]) -> Netlist:
    return Netlist(
        name=netlist.name,
        primary_inputs=tuple(netlist.primary_inputs),
        primary_outputs=tuple(netlist.primary_outputs),
        gates=tuple(gates),
    )


def _pick(rng, eligible: list[str], target: str | None, none: str, bad: str, rank=sorted) -> str:
    """The given target if it is eligible, else a seeded choice from
    `rank(eligible)`; `none` and `bad` complete the error messages."""
    if target is not None:
        if target not in eligible:
            raise FaultError(f"gate {target} {bad}")
        return target
    if not eligible:
        raise FaultError(f"no {none}")
    return rng.choice(rank(eligible))


def _bypass(netlist: Netlist, src: str, dst: str) -> list[Gate]:
    """Drop dst's driver and let dst's readers read src instead."""
    return [
        Gate(g.kind, tuple(src if i == dst else i for i in g.inputs), g.output)
        for g in netlist.gates
        if g.output != dst
    ]


def _swap_gate(netlist: Netlist, rng: random.Random, target: str | None):
    eligible = [g.output for g in netlist.gates if g.kind.name not in ("DFF", "SPLIT")]
    target = _pick(rng, eligible, target, "swappable gate", "cannot be swapped")
    old = netlist.driver_of[target]
    same_arity = sorted(n for n, k in KINDS.items() if k.arity == old.kind.arity)
    new_kind = rng.choice([n for n in same_arity if n not in ("DFF", "SPLIT", old.kind.name)])
    gates = [
        Gate(KINDS[new_kind], g.inputs, g.output) if g.output == target else g
        for g in netlist.gates
    ]
    return _rebuild(netlist, gates), FaultSpec(SWAP_GATE, target, f"{old.kind.name}->{new_kind}")


def _removable_dff(netlist: Netlist, readers: dict[str, int], g: Gate) -> bool:
    if g.kind.name != "DFF":
        return False
    if g.output not in netlist.primary_outputs:
        return True
    # output net is a primary output: removal renames the driver instead,
    # which needs a sole, non-primary driver net behind the storage
    src = g.inputs[0]
    return (
        not netlist.is_pi(src)
        and src not in netlist.primary_outputs
        and readers[src] == 1
    )


def _remove_dff(netlist: Netlist, rng: random.Random, target: str | None):
    readers = count_readers(netlist)
    eligible = [g.output for g in netlist.gates if _removable_dff(netlist, readers, g)]

    def nearest_outputs(eligible):
        levels = logic_levels(netlist)
        ranked = sorted(eligible, key=lambda out: (-levels[out], out))
        return ranked[: max(1, len(ranked) // 4)]

    target = _pick(
        rng, eligible, target, "removable storage gate", "is not a removable DFF", nearest_outputs
    )
    dff = netlist.driver_of[target]
    src, dst = dff.inputs[0], dff.output
    if dst not in netlist.primary_outputs:
        gates = _bypass(netlist, src, dst)
    else:  # the storage drives a primary output: its sole source gate takes over the net
        gates = [
            Gate(g.kind, g.inputs, dst) if g.output == src else g
            for g in netlist.gates
            if g.output != target
        ]
    return _rebuild(netlist, gates), FaultSpec(REMOVE_DFF, target, "removed")


def _remove_splitter(netlist: Netlist, rng: random.Random, target: str | None):
    readers = count_readers(netlist)
    eligible = [
        g.output
        for g in netlist.gates
        if g.kind.name == "SPLIT"
        and g.output not in netlist.primary_outputs
        and readers[g.output] >= 2
    ]
    target = _pick(rng, eligible, target, "bypassable splitter", "is not a bypassable splitter")
    gates = _bypass(netlist, netlist.driver_of[target].inputs[0], target)
    return _rebuild(netlist, gates), FaultSpec(REMOVE_SPLITTER, target, "bypassed")


def inject(
    netlist: Netlist, kind: str, seed: int = 0, target: str | None = None
) -> tuple[Netlist, FaultSpec]:
    rng = random.Random(seed)
    if kind == SWAP_GATE:
        return _swap_gate(netlist, rng, target)
    if kind == REMOVE_DFF:
        return _remove_dff(netlist, rng, target)
    if kind == REMOVE_SPLITTER:
        return _remove_splitter(netlist, rng, target)
    raise FaultError(f"unknown fault kind {kind!r}, expected one of {', '.join(FAULT_KINDS)}")
