"""Gate-level netlist core: bench-format parser/writer, ordering, depth.

A netlist is a DAG of single-output gates over named nets.  Clocking is a
property of the gate kind (there are no clock nets): every clocked gate is
one pipeline stage deep.  Which kinds count as clocked is decided by the
technology profile alone.

Depth is one forward pass, `base_distances`: for each net, the set of
clocked-gate path lengths from any primary input down to that net.  A
net's logic level is the largest value of its set.

`Gate` and `BaseDistanceSet` are tuple-backed records (`typing.NamedTuple`):
immutable, hashed and compared by value, and equal to the plain tuple of
their fields.  Hot loops build records as `tuple.__new__(Record, fields)`,
the same record without the Python-level constructor (so without field
defaults).
"""

from collections import Counter
from collections.abc import Hashable
import heapq
from itertools import chain
from operator import attrgetter
import re
from typing import NamedTuple

from .errors import SfqlecError
from .profiles import KINDS, RSFQ, GateKind, TechnologyProfile


class NetlistError(SfqlecError):
    """Structural problem in a netlist (bad wiring, cycle, arity, ...)."""


class BenchParseError(NetlistError):
    """Syntax or semantic error in a bench file, with a line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def get_kind(name: str) -> GateKind:
    kind = KINDS.get(name.upper())
    if kind is None:
        raise NetlistError(f"unknown gate kind {name!r}")
    return kind


class Gate(NamedTuple):
    """One single-output gate, named by the net it drives.  A net is any
    hashable name: a str in a netlist, a TimedSignal in an MCID model."""

    kind: GateKind
    inputs: tuple[Hashable, ...]
    output: Hashable


# Names: letters/underscore first, then the bench charset plus '@' and '-'
# so that timed-model dumps ("a@t-1") stay re-parseable.
_NAME = r"[A-Za-z_][A-Za-z0-9_.@-]*"
_IO_RE = re.compile(rf"^(?i:(INPUT|OUTPUT))\s*\(\s*({_NAME})\s*\)$")  # case-blind keyword only
# Only an error is worded with these two: `re.match` compiles them (and
# caches them) when one is.
_NAME_ONLY = rf"^{_NAME}$"
_GATE = rf"^({_NAME})\s*=\s*([A-Za-z0-9_]+)\s*\((.*)\)$"
# A whole, well-formed one- or two-input gate line, comment included.  A gate
# line it rejects is malformed or a second driver; the checks below say which.
# A kind with three inputs would have to extend it.
_GATE_LINE_RE = re.compile(
    rf"\s*({_NAME})\s*=\s*([A-Za-z0-9_]+)\s*\(\s*({_NAME})\s*(?:,\s*({_NAME})\s*)?\)\s*(?:#.*)?"
)


class Netlist:
    """Immutable-by-convention DAG of gates, compared by identity.

    Derived lookup maps and the topological order are built once at
    construction.  Each net has at most one driver; primary outputs must be
    gate-driven or primary inputs.
    """

    def __init__(
        self,
        name: str,
        primary_inputs: tuple[str, ...],
        primary_outputs: tuple[str, ...],
        gates: tuple[Gate, ...],
    ):
        self.name, self.gates = name, gates
        self.primary_inputs, self.primary_outputs = primary_inputs, primary_outputs
        self.driver_of = driver_of = {}
        self._pis = pi_set = frozenset(self.primary_inputs)
        if len(pi_set) != len(self.primary_inputs):
            raise NetlistError("duplicate primary input declaration")
        if len(set(self.primary_outputs)) != len(self.primary_outputs):
            raise NetlistError("duplicate primary output declaration")
        for g in self.gates:
            out = g.output
            if out in pi_set:
                raise NetlistError(f"net {out!r} driven by a gate but declared INPUT")
            if out in driver_of:
                raise NetlistError(f"net {out!r} has two drivers")
            if len(g.inputs) != g.kind.arity:
                raise NetlistError(
                    f"gate {out!r}: {g.kind.name} takes {g.kind.arity} inputs, "
                    f"got {len(g.inputs)}"
                )
            driver_of[out] = g
        self.order = self._kahn_order()

    def _kahn_order(self) -> tuple[Gate, ...]:
        """Kahn's algorithm with the output names on a `heapq` list: the ready
        gate with the smallest output name goes next.  The indegree pass walks
        `gates` in order and rejects the first undriven gate input; undriven
        outputs next, then a cycle, naming the first five stuck gates by name."""
        driver_of, pis = self.driver_of, self._pis
        indegree: dict[Hashable, int] = {}
        readers: dict[Hashable, list[Hashable]] = {}
        readers_of = readers.get
        for _, ins, out in self.gates:
            deps = 0
            for net in ins:
                if net in driver_of:
                    deps += 1
                    sinks = readers_of(net)
                    if sinks is None:
                        readers[net] = [out]
                    else:
                        sinks.append(out)
                elif net not in pis:
                    raise NetlistError(f"gate {out!r} reads undriven net {net!r}")
            indegree[out] = deps
        for po in self.primary_outputs:
            if po not in pis and po not in driver_of:
                raise NetlistError(f"primary output {po!r} is undriven")
        ready = [out for out, d in indegree.items() if not d]
        heapq.heapify(ready)
        order: list[Gate] = []
        while ready:
            out = heapq.heappop(ready)
            order.append(driver_of[out])
            for nxt in readers_of(out, ()):
                d = indegree[nxt] = indegree[nxt] - 1
                if not d:
                    heapq.heappush(ready, nxt)
        if len(order) != len(self.gates):
            stuck = sorted(out for out, d in indegree.items() if d)
            raise NetlistError(f"cycle detected involving gate(s): {', '.join(stuck[:5])}")
        return tuple(order)

    def is_pi(self, net: str) -> bool:
        return net in self._pis


def parse_netlist(text: str, name: str = "netlist") -> Netlist:
    """Parse the bench-style format.

    Grammar per line: ``INPUT(<name>)``, ``OUTPUT(<name>)`` or
    ``<out> = <KIND>(<in>{, <in>})``.  '#' starts a comment, blank lines are
    skipped, kind names are case-insensitive.
    """
    pis: list[str] = []
    pos: list[str] = []
    gates: list[Gate] = []
    seen_pis: set[str] = set()
    seen_outputs: set[str] = set()
    seen_pos: set[str] = set()
    gate_line, kind_of, new = _GATE_LINE_RE.fullmatch, KINDS.get, tuple.__new__
    for line_no, raw in enumerate(text.splitlines(), start=1):
        m = gate_line(raw)
        if m:  # every valid gate line; the rest go the long way to their error
            out, kind_name, a, b = m.groups()
            kind = kind_of(kind_name) or kind_of(kind_name.upper())
            if kind is not None and kind.arity == (1 if b is None else 2) and out not in seen_outputs:
                seen_outputs.add(out)
                gates.append(new(Gate, (kind, (a,) if b is None else (a, b), out)))
                continue
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
        m = re.match(_GATE, line)
        if m:
            out, kind_name, arg_text = m.group(1), m.group(2), m.group(3)
            try:
                kind = get_kind(kind_name)
            except NetlistError as exc:
                raise BenchParseError(line_no, str(exc)) from None
            args = [a.strip() for a in arg_text.split(",")] if arg_text.strip() else []
            for a in args:
                if not re.match(_NAME_ONLY, a):
                    raise BenchParseError(line_no, f"bad net name {a!r}")
            if len(args) != kind.arity:
                raise BenchParseError(
                    line_no, f"{kind.name} takes {kind.arity} inputs, got {len(args)}"
                )
            raise BenchParseError(line_no, f"net {out!r} has two drivers")
        raise BenchParseError(line_no, f"cannot parse {line!r}")
    return Netlist(name=name, primary_inputs=tuple(pis), primary_outputs=tuple(pos), gates=tuple(gates))


def bench_text(inputs, outputs, gates) -> str:
    """Bench text: INPUTs, OUTPUTs, then the gates in the order given; any
    net name is written as its str()."""
    lines = [f"INPUT({n})" for n in inputs]
    lines += [f"OUTPUT({n})" for n in outputs]
    for g in gates:
        lines.append(f"{g.output} = {g.kind.name}({', '.join(map(str, g.inputs))})")
    return "\n".join(lines) + "\n"


def write_netlist(netlist: Netlist) -> str:
    """Emit bench text with the gates in topological order."""
    return bench_text(netlist.primary_inputs, netlist.primary_outputs, netlist.order)


def first_pipeline_cell(netlist: Netlist) -> Gate | None:
    """The first DFF or SPLIT in `netlist.gates`: a combinational
    specification holds neither."""
    return next((g for g in netlist.gates if g.kind.name in ("DFF", "SPLIT")), None)


def count_readers(netlist: Netlist) -> dict[str, int]:
    """Sinks of every net, PIs first, then gates in order (`driver_of`'s
    order): gate input pins plus primary output pins, one sink each."""
    readers = dict.fromkeys(chain(netlist.primary_inputs, netlist.driver_of), 0)
    pins = chain.from_iterable(map(attrgetter("inputs"), netlist.gates))
    readers.update(Counter(chain(pins, netlist.primary_outputs)))
    return readers


# Distance sets wider than this are truncated to {min, max}; they are
# non-singleton either way, so the verdict is unaffected.
DISTANCE_CAP = 64


class BaseDistanceSet(NamedTuple):
    net: str
    distances: tuple[int, ...]  # sorted, possibly truncated to (min, max)
    truncated: bool = False

    @property
    def is_singleton(self) -> bool:
        return len(self.distances) == 1  # a truncated set holds two values

    @property
    def depth(self) -> int:
        return self.distances[-1]


def base_distances(
    netlist: Netlist, profile: TechnologyProfile, shifts: dict[str, int] | None = None
) -> dict[str, BaseDistanceSet]:
    """One forward pass in topological order; each gate is visited once.
    Each input starts at its lateness in `shifts` (0 when absent).  Keys are
    the PIs, then the gates in `netlist.order`."""
    non_clocked, new = profile.non_clocked_kinds, tuple.__new__
    shifts = shifts or {}
    out = {pi: BaseDistanceSet(pi, (shifts.get(pi, 0),)) for pi in netlist.primary_inputs}
    for kind, ins, net in netlist.order:
        step = 0 if kind.name in non_clocked else 1
        _, d, _ = out[ins[0]]
        if len(d) == 1:
            for src in ins[1:]:
                if out[src].distances != d:
                    break
            else:  # every fanin holds the same singleton
                out[net] = new(BaseDistanceSet, (net, (d[0] + step,) if step else d, False))
                continue
        merged: set[int] = set()
        truncated = False
        for src in ins:
            _, dists, cut = out[src]
            truncated = truncated or cut
            merged.update(d + step for d in dists)
        if len(merged) > DISTANCE_CAP:
            truncated = True
        if truncated:
            merged = {min(merged), max(merged)}
        out[net] = new(BaseDistanceSet, (net, tuple(sorted(merged)), truncated))
    return out


def logic_levels(netlist: Netlist, profile: TechnologyProfile = RSFQ) -> dict[str, int]:
    """Level of every net: max count of clocked gates on any PI-to-net path."""
    return {net: s.distances[-1] for net, s in base_distances(netlist, profile).items()}


def circuit_depth(netlist: Netlist, profile: TechnologyProfile = RSFQ) -> int:
    """Maximum logic level over the primary outputs."""
    dists = base_distances(netlist, profile)
    return max((dists[po].depth for po in netlist.primary_outputs), default=0)
