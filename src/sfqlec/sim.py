"""Cycle-accurate simulation and the trace-replay oracle.

All three run one synchronous recurrence: a clocked gate's output at cycle t+1
is its function applied to cycle-t inputs (all state starts at 0), a
transparent gate settles within the cycle, and an input that arrives k
cycles late reads at cycle t the wave fed at cycle t-k.  simulate() feeds
it single-bit waves; evaluate_golden() feeds a specification one wave;
replay_trace() re-runs a counterexample trace against the netlist, under
the trace's arrival schedule, to confirm it is real.
"""

from .errors import SfqlecError
from .itcl import ArrivalSchedule
from .netlist import Netlist, circuit_depth, first_pipeline_cell
from .profiles import RSFQ, Bits, TechnologyProfile, builtin_profile
from .trace import TimedTrace


class SimError(SfqlecError):
    pass


def parse_wave(line: str) -> dict[str, int]:
    """One wave per line: 'a=0 b=1 d=1'.  Unlisted inputs read as 0."""
    wave: dict[str, int] = {}
    for tok in line.split():
        name, sep, bit = tok.partition("=")
        if not sep or bit not in ("0", "1") or not name:
            raise SimError(f"bad wave token {tok!r}, expected name=0|1")
        if name in wave:
            raise SimError(f"duplicate wave entry for {name}")
        wave[name] = int(bit)
    return wave


def _cycles(
    netlist: Netlist, waves: list, profile: TechnologyProfile, mask: int = 1, shifts=None
):
    """Yield every net's values for each cycle in turn, one wave fed per
    cycle; an input with shift k reads the wave fed k cycles earlier (0
    before the first)."""
    non_clocked = profile.non_clocked_kinds
    shifts = shifts or {}
    alg = Bits(mask)
    prev: dict[str, int] = {}
    for t in range(len(waves)):
        cur = {}
        for pi in netlist.primary_inputs:
            s = t - shifts.get(pi, 0)
            cur[pi] = waves[s].get(pi, 0) & mask if s >= 0 else 0
        for g in netlist.order:
            src = cur if g.kind.name in non_clocked else prev
            cur[g.output] = g.kind.meaning(alg, *[src.get(i, 0) for i in g.inputs])
        yield cur
        prev = cur


def simulate(
    netlist: Netlist,
    waves: list[dict[str, int]],
    profile: TechnologyProfile = RSFQ,
    extra_cycles: int | None = None,
) -> list[dict[str, int]]:
    """Feed one wave per cycle (zeros afterwards) and record the outputs.

    Runs len(waves) + extra_cycles cycles; the default flushes the pipeline
    for circuit_depth further cycles so every wave reaches the outputs.
    """
    if extra_cycles is None:
        extra_cycles = circuit_depth(netlist, profile)
    fed = [waves[t] if t < len(waves) else {} for t in range(len(waves) + extra_cycles)]
    return [
        {po: cur[po] for po in netlist.primary_outputs}
        for cur in _cycles(netlist, fed, profile)
    ]


def evaluate_golden(netlist: Netlist, assignment: dict[str, int], mask: int = 1) -> dict[str, int]:
    """Evaluate a combinational specification netlist (a DFF or SPLIT is
    rejected): one wave under the cmos clocking, where only DFF is clocked."""
    g = first_pipeline_cell(netlist)
    if g is not None:
        raise SimError(f"specification netlist must be combinational ({g.kind.name} {g.output})")
    (values,) = _cycles(netlist, [assignment], builtin_profile("cmos"), mask)
    return {po: values[po] for po in netlist.primary_outputs}


def replay_trace(
    netlist: Netlist,
    golden: Netlist,
    trace: TimedTrace,
    profile: TechnologyProfile = RSFQ,
    schedule: ArrivalSchedule = ArrivalSchedule(),
) -> bool:
    """True when both halves of the trace reproduce: the netlist really emits
    mcid_output at the observation cycle and the spec really emits
    golden_output on the matched wave.  `schedule` is the arrival schedule
    the trace's model was built under."""
    n = trace.observation_cycle + 1
    fed = [trace.wave(k) for k in range(min(n, trace.n_cycles))]
    fed += [{}] * (n - len(fed))
    for cur in _cycles(netlist, fed, profile, shifts=schedule.shifts(netlist.primary_inputs)):
        pass
    if cur[trace.output_name] != trace.mcid_output:
        return False
    gold = evaluate_golden(golden, trace.golden_assignment)
    return gold[trace.output_name] == trace.golden_output
