"""Input timing constraint logic and spec-to-model input matching.

A pipelined block rarely samples all of its inputs on the same wave; an
arrival schedule records how many cycles late each primary input is fed
relative to the earliest one.  apply_itcl absorbs that skew into the MCID
circuit by moving each input pin earlier by its relative lateness, so that
afterwards one wave of the specification corresponds to one matched step of
the model.
"""

from .errors import SfqlecError, Value, parse_number
from .mcid import MCIDCircuit, TimedSignal, dependency_window
from .netlist import Gate


# Largest relative lateness accepted, in cycles.  The lateness widens the
# dependency window, and with it the CYCLE lines of a trace, the cycles
# replay_trace simulates and `simulate --extra`'s floor, so an unbounded
# value would let one schedule entry ask for billions of cycles.
MAX_LATENESS = 1024


class ItclError(SfqlecError):
    pass


class ArrivalSchedule(Value):
    __slots__ = ("lateness",)

    def __init__(self, lateness: dict[str, int] = {}):  # one shared {}: read, never written
        self.lateness = lateness  # PI -> cycles late

    @classmethod
    def parse(cls, text: str) -> "ArrivalSchedule":
        """Parse 'a:0,b:2,d:1' (ASCII digits, no `_`).  Unlisted inputs default to 0."""
        lateness: dict[str, int] = {}
        text = text.strip()
        if not text:
            return cls(lateness)
        for pos, part in enumerate(text.split(","), start=1):
            if not part.strip():
                raise ItclError(f"empty arrival entry {pos} in {text!r}")
            name, sep, val = part.partition(":")
            name = name.strip()
            if not sep or not name:
                raise ItclError(f"bad arrival entry {part.strip()!r}, expected name:cycles")
            try:
                cycles = parse_number(val)
            except ValueError:
                raise ItclError(f"bad arrival entry {part.strip()!r}, expected name:cycles") from None
            if name in lateness:
                raise ItclError(f"duplicate arrival entry for {name}")
            lateness[name] = cycles
        return cls(lateness)

    def validate(self, pis: tuple[str, ...]) -> None:
        known = set(pis)
        for name, cycles in self.lateness.items():
            if name not in known:
                raise ItclError(f"arrival schedule names unknown input {name}")
            if cycles < 0:
                raise ItclError(f"arrival of {name} is negative ({cycles})")

    def shifts(self, pis: tuple[str, ...]) -> dict[str, int]:
        """Relative shift per input: its lateness above the earliest one, at
        most MAX_LATENESS."""
        self.validate(pis)
        t_min = min((self.lateness.get(pi, 0) for pi in pis), default=0)
        shifts = {pi: self.lateness.get(pi, 0) - t_min for pi in pis}
        for pi, k in shifts.items():
            if k > MAX_LATENESS:
                raise ItclError(f"arrival of {pi} is {k} cycles late, limit is {MAX_LATENESS}")
        return shifts


def apply_itcl(mcid: MCIDCircuit, schedule: ArrivalSchedule) -> MCIDCircuit:
    """Move each input pin k steps earlier (k = its input's relative
    lateness): every reader of the pin reads the moved one.  A uniform
    schedule leaves the circuit untouched."""
    shifts = schedule.shifts(mcid.source_pis)
    if all(k == 0 for k in shifts.values()):
        return mcid

    moved = {pin: TimedSignal(pin.net, pin.step - shifts[pin.net]) for pin in mcid.timed_inputs}
    new, get = tuple.__new__, moved.get
    gates = [new(Gate, (kind, tuple([get(i, i) for i in ins]), out)) for kind, ins, out in mcid.gates]
    outputs = {po: get(sig, sig) for po, sig in mcid.outputs.items()}
    pins = tuple(sorted(moved.values()))
    return MCIDCircuit(
        mcid.source_name, mcid.source_pis, gates, pins, outputs, mcid.duplicated_gate_count
    )


class InputMatching(Value):
    __slots__ = ("t_star", "matched")

    def __init__(self, t_star: int, matched: dict[str, TimedSignal]):
        self.t_star, self.matched = t_star, matched  # matched: spec input name -> model pin


def match_inputs(mcid: MCIDCircuit, golden_pis: list[str]) -> InputMatching:
    """Bind one wave of the spec to model pins.

    The matched step t* is the one where the most spec inputs have a pin
    (ties break toward the latest step).  A spec input absent at t* binds to
    its nearest occurrence, earlier on ties; every unbound pin stays free.
    """
    if not golden_pis:
        raise ItclError("specification has no primary inputs, so nothing to compare")
    occurrences = dependency_window(mcid)
    for pi in golden_pis:
        if not occurrences.get(pi):
            raise ItclError(f"specification input {pi} is never sampled by the model")

    tally: dict[int, int] = {}
    for pi in golden_pis:
        for step in occurrences[pi]:
            tally[step] = tally.get(step, 0) + 1
    t_star = max(tally, key=lambda s: (tally[s], s))

    matched: dict[str, TimedSignal] = {}
    for pi in golden_pis:
        steps = occurrences[pi]
        if t_star in steps:
            matched[pi] = TimedSignal(pi, t_star)
        else:
            best = min(steps, key=lambda s: (abs(s - t_star), s))
            matched[pi] = TimedSignal(pi, best)
    return InputMatching(t_star, matched)
