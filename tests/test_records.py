"""The library's records: field names and order, defaults, construction,
and which compare by value and which by identity."""

import pytest

from sfqlec import (
    ArrivalSchedule,
    CheckReport,
    Cnf,
    FaultSpec,
    InputMatching,
    MCIDCircuit,
    Miter,
    TechnologyProfile,
    TimedSignal,
    TimedTrace,
    Verdict,
    VerdictStats,
    Violation,
    builtin_profile,
    load_profile,
)
from sfqlec.miter import Run

# One sample per record compared by value, its fields in order.
VALUES = {
    Violation: ("FanoutExceeded", "n7", "2 readers, limit 1"),
    FaultSpec: ("swap-gate", "g1", "AND2->OR2"),
    InputMatching: (0, {"a": TimedSignal("a", 0)}),
    ArrivalSchedule: ({"d": 1},),
    TechnologyProfile: ("p", 1, 2, frozenset({"SPLIT"}), True, False),
    Cnf: (2, [(1, -2)], {"a": 1}),
    TimedTrace: (("a", "b"), 2, {("a", 0): 1}, {"a": 1}, "y", 1, 0, 1),
}
HASHED = (Violation, FaultSpec, TechnologyProfile)

FIELDS = {
    Violation: ("kind", "location", "detail"),
    FaultSpec: ("kind", "target", "detail"),
    InputMatching: ("t_star", "matched"),
    ArrivalSchedule: ("lateness",),
    TechnologyProfile: (
        "name", "default_fanout_limit", "splitter_fanout_limit", "non_clocked_kinds",
        "requires_path_balancing", "requires_fanout_check",
    ),
    Cnf: ("num_vars", "clauses", "input_vars"),
    TimedTrace: (
        "pi_order", "n_cycles", "timed_assignment", "golden_assignment",
        "output_name", "mcid_output", "golden_output", "observation_cycle",
    ),
    MCIDCircuit: ("source_name", "source_pis", "gates", "timed_inputs", "outputs", "duplicated_gate_count"),
    Miter: ("aig", "golden_start", "root", "outputs", "matching", "mcid"),
    Verdict: ("equivalent", "trace", "stats", "per_output"),
    Run: ("fanout", "balance", "miter", "verdict"),
}


def other(value):
    """A value of the same type that differs from `value`."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, str)):
        return value + type(value)(1)
    if isinstance(value, dict):
        return {**value, "zz": 0}
    return value | {"X"} if isinstance(value, frozenset) else value + type(value)([("z",)])


def test_record_fields_keep_their_names_and_order():
    for record, fields in FIELDS.items():
        assert record.__slots__ == fields, record.__name__
        assert not hasattr(record, "_fields"), record.__name__


@pytest.mark.parametrize("record", list(VALUES), ids=lambda r: r.__name__)
def test_a_value_record_differs_in_every_field_and_from_its_tuple(record):
    fields = VALUES[record]
    value = record(*fields)
    assert value == record(*fields) and not value != record(*fields)
    assert value == record(**dict(zip(record.__slots__, fields)))
    assert [getattr(value, f) for f in record.__slots__] == list(fields)
    assert value != fields and fields != value
    for i, field in enumerate(record.__slots__):
        changed = list(fields)
        changed[i] = other(fields[i])
        assert value != record(*changed), field
        assert not value == record(*changed), field


@pytest.mark.parametrize("record", HASHED, ids=lambda r: r.__name__)
def test_equal_hashable_records_hash_equal(record):
    fields = VALUES[record]
    copies = [type(f)(f) for f in fields]
    assert hash(record(*fields)) == hash(record(*copies))
    assert len({record(*fields), record(*copies)}) == 1


def test_a_loaded_profile_equals_and_hashes_as_the_builtin():
    text = """
        name = rsfq
        default_fanout_limit = 1
        splitter_fanout_limit = 2
        non_clocked_kinds = SPLIT
        requires_path_balancing = true
        requires_fanout_check = true
    """
    loaded, builtin = load_profile(text), builtin_profile("rsfq")
    assert loaded is not builtin and loaded == builtin and hash(loaded) == hash(builtin)
    assert repr(loaded) == repr(builtin)
    assert repr(builtin).startswith("TechnologyProfile(name='rsfq', default_fanout_limit=1,")


def test_defaults():
    assert ArrivalSchedule().lateness == {} and ArrivalSchedule() == ArrivalSchedule({})
    assert MCIDCircuit("m", (), [], (), {}).duplicated_gate_count == 0
    assert Verdict(True, None, VerdictStats()).per_output is None
    run = Run(CheckReport())
    assert (run.balance, run.miter, run.verdict) == (None, None, None)


def test_pipeline_records_compare_by_identity():
    stats, report = VerdictStats(), CheckReport()
    for make in (
        lambda: MCIDCircuit("m", ("a",), [], (), {}),
        lambda: Miter(None, 0, 0, {}, None, None),
        lambda: Verdict(True, None, stats),
        lambda: Run(report),
    ):
        first = make()
        assert first == first and first != make()
