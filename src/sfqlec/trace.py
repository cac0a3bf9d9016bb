"""Multi-cycle counterexample traces and wave lines.

A trace lists, cycle by cycle, the input wave fed to the implementation,
the single wave fed to the specification, and the observed disagreement on
one output.  Cycle 0 is the earliest wave in the model's dependency window;
the output is observed `observation_cycle` waves later.
"""

from .errors import Value


def format_wave(wave: dict[str, int], order) -> str:
    """One wave line, 'a=0 b=1', in `order`; unlisted names read as 0."""
    return " ".join(f"{pi}={wave.get(pi, 0)}" for pi in order)


class TimedTrace(Value):
    __slots__ = (
        "pi_order", "n_cycles", "timed_assignment", "golden_assignment",
        "output_name", "mcid_output", "golden_output", "observation_cycle",
    )

    def __init__(
        self, pi_order: tuple[str, ...], n_cycles: int,
        timed_assignment: dict[tuple[str, int], int], golden_assignment: dict[str, int],
        output_name: str, mcid_output: int, golden_output: int, observation_cycle: int,
    ):
        self.pi_order, self.n_cycles = pi_order, n_cycles
        self.timed_assignment = timed_assignment  # (pi, cycle) -> bit
        self.golden_assignment, self.output_name = golden_assignment, output_name
        self.mcid_output, self.golden_output = mcid_output, golden_output
        self.observation_cycle = observation_cycle  # cycle index the model's step 0 falls on

    @classmethod
    def from_model(cls, mcid, matching, model: dict, output: str, bits: tuple[int, int]):
        """The trace of a model over the MCID pins (TimedSignal -> bit, absent
        = 0) that makes `output` read `bits` (impl, spec).  Only sampled pins
        enter it: the rest are don't-cares."""
        earliest, latest = mcid.window
        timed = {(p.net, p.step - earliest): model.get(p, 0) for p in mcid.timed_inputs}
        return cls(
            pi_order=mcid.source_pis,
            n_cycles=latest - earliest + 1,
            timed_assignment=timed,
            golden_assignment={pi: model.get(sig, 0) for pi, sig in matching.matched.items()},
            output_name=output,
            mcid_output=bits[0],
            golden_output=bits[1],
            observation_cycle=-earliest,
        )

    def wave(self, cycle: int) -> dict[str, int]:
        return {pi: self.timed_assignment.get((pi, cycle), 0) for pi in self.pi_order}

    def format_lines(self) -> list[str]:
        order = self.pi_order
        lines = [f"CYCLE {k}: {format_wave(self.wave(k), order)}" for k in range(self.n_cycles)]
        golden = self.golden_assignment
        lines.append(f"GOLDEN: {format_wave(golden, sorted(golden))}")
        lines.append(
            f"OUTPUT {self.output_name}: impl={self.mcid_output} golden={self.golden_output}"
        )
        return lines

    def format(self) -> str:
        return "\n".join(self.format_lines()) + "\n"
