"""Structural validation: fanout restriction and path balancing.

Both checks read what `netlist` computes: the fanout check counts each
net's readers, and the balance check reads the base distance sets (for
each net, the clocked-gate path lengths from any primary input).  A
correctly balanced circuit has a singleton set at every gate (the same data
wave arrives on all its pins together) and one common depth across the
primary outputs.
"""

from .errors import Value
from .netlist import Netlist, base_distances, count_readers
from .profiles import TechnologyProfile

FANOUT_EXCEEDED = "FanoutExceeded"
UNBALANCED_FANIN = "UnbalancedFanin"
UNEQUAL_OUTPUT_DEPTH = "UnequalOutputDepth"


class Violation(Value):
    __slots__ = ("kind", "location", "detail")

    def __init__(self, kind: str, location: str, detail: str):
        self.kind, self.location, self.detail = kind, location, detail

    def line(self) -> str:
        return f"VIOLATION {self.kind} {self.location} {self.detail}"


class CheckReport:
    def __init__(self):
        self.violations: list[Violation] = []

    @property
    def passed(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        return [v.line() for v in self.violations]


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
        driver_of = netlist.driver_of
        # A gate's set is a singleton exactly when all its fanins hold the
        # same singleton, so only a gate with a wider set has a bad fanin.
        for net, (_, d, _) in dists.items():  # PIs (always singletons), then gates in order
            if len(d) == 1:
                continue
            fanins = [dists[src] for src in driver_of[net].inputs]
            bad = next((f for f in fanins if not f.is_singleton), None)
            if bad is not None:
                report.violations.append(
                    Violation(
                        UNBALANCED_FANIN,
                        net,
                        f"fanin {bad.net} has path lengths {{{','.join(map(str, bad.distances))}}}",
                    )
                )
                continue
            first = fanins[0]
            mismatch = next(f for f in fanins[1:] if f.depth != first.depth)
            report.violations.append(
                Violation(
                    UNBALANCED_FANIN,
                    net,
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
