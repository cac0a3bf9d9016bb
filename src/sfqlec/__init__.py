"""Logical equivalence checking for ultra-deep-pipelined clocked netlists."""

from .checks import CheckReport, Violation, check_fanout, check_path_balance
from .errors import SfqlecError
from .faults import FAULT_KINDS, FaultSpec, inject
from .itcl import ArrivalSchedule, InputMatching, apply_itcl, match_inputs
from .mcid import (
    MCIDCircuit,
    TimedSignal,
    build_mcid,
    dependency_window,
    mcid_size_upper_bound,
)
from .miter import Miter, Verdict, VerdictStats, build_miter, check_equivalence, extract_trace, verify
from .netlist import (
    BaseDistanceSet,
    Gate,
    Netlist,
    NetlistError,
    base_distances,
    circuit_depth,
    logic_levels,
    parse_netlist,
    write_netlist,
)
from .profiles import TechnologyProfile, builtin_profile, load_profile, resolve_profile
from .sat import CdclSolver, Cnf, cnf_from_aig, to_dimacs
from .sim import evaluate_golden, parse_wave, replay_trace, simulate
from .trace import TimedTrace

__version__ = "0.1.0"

__all__ = [
    "ArrivalSchedule",
    "BaseDistanceSet",
    "CdclSolver",
    "CheckReport",
    "Cnf",
    "FAULT_KINDS",
    "FaultSpec",
    "Gate",
    "InputMatching",
    "MCIDCircuit",
    "Miter",
    "Netlist",
    "NetlistError",
    "SfqlecError",
    "TechnologyProfile",
    "TimedSignal",
    "TimedTrace",
    "Verdict",
    "VerdictStats",
    "Violation",
    "apply_itcl",
    "base_distances",
    "build_mcid",
    "build_miter",
    "builtin_profile",
    "check_equivalence",
    "check_fanout",
    "check_path_balance",
    "circuit_depth",
    "cnf_from_aig",
    "dependency_window",
    "evaluate_golden",
    "extract_trace",
    "inject",
    "load_profile",
    "logic_levels",
    "match_inputs",
    "mcid_size_upper_bound",
    "parse_netlist",
    "parse_wave",
    "replay_trace",
    "resolve_profile",
    "simulate",
    "to_dimacs",
    "verify",
    "write_netlist",
    "__version__",
]
