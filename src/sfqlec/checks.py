"""Structural validation: fanout restriction and path balancing.

Each check is its own pass over the netlist.  Path balancing works on base
distance sets: for each net, the set of clocked-gate path lengths from any
primary input down to that net.  A correctly balanced circuit has a singleton
set at every gate fanin (the same data wave arrives on all pins together) and
one common depth across the primary outputs.

`BaseDistanceSet` is a tuple-backed record (a `typing.NamedTuple`):
immutable, hashed and compared by value, and equal to the plain tuple of its
fields.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

from .netlist import Netlist, count_readers
from .profiles import TechnologyProfile

FANOUT_EXCEEDED = "FanoutExceeded"
UNBALANCED_FANIN = "UnbalancedFanin"
UNEQUAL_OUTPUT_DEPTH = "UnequalOutputDepth"

# Distance sets wider than this are truncated to {min, max}; they are
# non-singleton either way, so the verdict is unaffected.
DISTANCE_CAP = 64


@dataclass(frozen=True)
class Violation:
    kind: str
    location: str
    detail: str

    def line(self) -> str:
        return f"VIOLATION {self.kind} {self.location} {self.detail}"


@dataclass
class CheckReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        return [v.line() for v in self.violations]


class BaseDistanceSet(NamedTuple):
    net: str
    distances: tuple[int, ...]  # sorted, possibly truncated to (min, max)
    truncated: bool = False

    @property
    def is_singleton(self) -> bool:
        return len(self.distances) == 1 and not self.truncated

    @property
    def depth(self) -> int:
        return self.distances[-1]


def check_fanout(netlist: Netlist, profile: TechnologyProfile) -> CheckReport:
    """Every net must respect its driver's fanout limit.

    Splitter-driven nets use splitter_fanout_limit; everything else
    (including primary inputs) uses default_fanout_limit.
    """
    report = CheckReport()
    if not profile.requires_fanout_check:
        return report
    within = min(profile.splitter_fanout_limit, profile.default_fanout_limit)
    for net, n in count_readers(netlist).items():  # PIs, then gates in order
        if n <= within:  # within both limits
            continue
        driver = netlist.driver_of.get(net)
        limit = (
            profile.splitter_fanout_limit
            if driver is not None and driver.kind.name == "SPLIT"
            else profile.default_fanout_limit
        )
        if n > limit:
            report.violations.append(
                Violation(FANOUT_EXCEEDED, net, f"{n} readers, limit {limit}")
            )
    return report


def base_distances(
    netlist: Netlist, profile: TechnologyProfile, shifts: dict[str, int] | None = None
) -> dict[str, BaseDistanceSet]:
    """One forward pass in topological order; each gate is visited once.
    Each input starts at its lateness in `shifts` (0 when absent)."""
    non_clocked, new = profile.non_clocked_kinds, tuple.__new__
    shifts = shifts or {}
    out = {pi: BaseDistanceSet(pi, (shifts.get(pi, 0),)) for pi in netlist.primary_inputs}
    for kind, ins, net in netlist.order:
        step = 0 if kind.name in non_clocked else 1
        _, d, cut = out[ins[0]]
        if len(d) == 1 and not cut:
            for src in ins[1:]:
                _, e, cut = out[src]
                if e != d or cut:
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


def check_path_balance(
    netlist: Netlist, profile: TechnologyProfile, po_only: bool = False, shifts: dict | None = None
) -> CheckReport:
    """Path balancing: singleton, equal fanin distances and equal PO depths.

    po_only relaxes the per-fanin requirement and checks only that all
    primary outputs sit at one common depth.  Inputs start at their `shifts`.
    """
    report = CheckReport()
    if not profile.requires_path_balancing:
        return report
    dists = base_distances(netlist, profile, shifts)
    if not po_only:
        for g in netlist.order:
            ins = g.inputs
            _, d, cut = dists[ins[0]]
            if len(d) == 1 and not cut:
                if len(ins) == 1:
                    continue  # one balanced fanin: nothing to compare
                _, e, cut = dists[ins[1]]
                if e == d and not cut:
                    continue  # both fanins hold the same singleton
            fanins = [dists[net] for net in ins]
            bad = next((f for f in fanins if not f.is_singleton), None)
            if bad is not None:
                report.violations.append(
                    Violation(
                        UNBALANCED_FANIN,
                        g.output,
                        f"fanin {bad.net} has path lengths {{{','.join(map(str, bad.distances))}}}",
                    )
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
            report.violations.append(
                Violation(
                    UNEQUAL_OUTPUT_DEPTH,
                    s.net,
                    f"path lengths {{{','.join(map(str, s.distances))}}}",
                )
            )
        elif want is not None and s.depth != want:
            report.violations.append(
                Violation(UNEQUAL_OUTPUT_DEPTH, s.net, f"depth {s.depth} differs from depth {want}")
            )
    return report
