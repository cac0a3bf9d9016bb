import re

import pytest

from circuits import late_d_netlist
from sfqlec import (
    ArrivalSchedule,
    apply_itcl,
    build_mcid,
    builtin_profile,
    dependency_window,
    match_inputs,
)
from sfqlec.itcl import ItclError
from sfqlec.mcid import MCIDCircuit, TimedSignal

RSFQ = builtin_profile("rsfq")


def pin_only_model(pis, pins):
    """match_inputs looks at pins only, so a gateless model is enough."""
    sigs = tuple(sorted((TimedSignal(n, s) for n, s in pins), key=lambda p: (p.net, p.step)))
    return MCIDCircuit("toy", tuple(pis), [], sigs, {})


def test_schedule_parse_and_format():
    sched = ArrivalSchedule.parse(" d:1, a:0 ")
    assert sched.lateness == {"d": 1, "a": 0}
    assert ArrivalSchedule.parse("").lateness == {}


def test_schedule_parse_rejects_garbage():
    for text in ("d", "d:", ":1", "d:one", "d:1,d:2"):
        with pytest.raises(ItclError):
            ArrivalSchedule.parse(text)


def test_schedule_parse_strips_names():
    for text in ("a :1", " a : 1 ", "a: 1"):
        assert ArrivalSchedule.parse(text).lateness == {"a": 1}
    ArrivalSchedule.parse("a :1, b\t:2").validate(("a", "b"))
    with pytest.raises(ItclError, match="bad arrival entry"):
        ArrivalSchedule.parse(" :1")


def test_schedule_parse_takes_only_ascii_decimal_digits():
    # `int()` alone reads 1_0 as 10 and an Arabic-Indic one as 1
    for text in ("a:1_0", "a:\u0661", "a:1.0", "a:+-1", "a:0x1", "a:" + "9" * 5000):
        with pytest.raises(ItclError, match=re.escape(f"bad arrival entry {text!r}, expected name:cycles")):
            ArrivalSchedule.parse(text)
    assert ArrivalSchedule.parse("a: +1,b:-1").lateness == {"a": 1, "b": -1}
    with pytest.raises(ItclError, match=re.escape("arrival of b is negative (-1)")):
        ArrivalSchedule.parse("a: 1,b:-1").validate(("a", "b"))


def test_schedule_parse_names_an_empty_entry_and_its_place():
    cases = {"d:1,": "empty arrival entry 2 in 'd:1,'",
             "d:1,,a:2": "empty arrival entry 2 in 'd:1,,a:2'",
             ",d:1": "empty arrival entry 1 in ',d:1'",
             " d:1, ,a:2 ": "empty arrival entry 2 in 'd:1, ,a:2'"}
    for text, message in cases.items():
        with pytest.raises(ItclError, match=f"^{re.escape(message)}$"):
            ArrivalSchedule.parse(text)


def test_schedule_validate():
    pis = ("a", "b")
    ArrivalSchedule.parse("a:2,b:1").validate(pis)
    with pytest.raises(ItclError):
        ArrivalSchedule.parse("z:1").validate(pis)
    with pytest.raises(ItclError):
        ArrivalSchedule({"a": -1}).validate(pis)


def test_shifts_are_relative_to_the_earliest_input():
    pis = ("a", "b", "c")
    assert ArrivalSchedule.parse("b:1").shifts(pis) == {"a": 0, "b": 1, "c": 0}
    # a uniform offset cancels out entirely
    assert ArrivalSchedule.parse("a:2,b:2,c:2").shifts(pis) == {"a": 0, "b": 0, "c": 0}
    assert ArrivalSchedule.parse("a:3,b:1,c:2").shifts(pis) == {"a": 2, "b": 0, "c": 1}


def test_uniform_schedule_is_identity():
    mcid = build_mcid(late_d_netlist(), RSFQ)
    assert apply_itcl(mcid, ArrivalSchedule.parse("")) is mcid
    assert apply_itcl(mcid, ArrivalSchedule.parse("a:1,b:1,c:1,d:1")) is mcid


def reads(mcid, output):
    gate = next(g for g in mcid.gates if str(g.output) == output)
    return [str(s) for s in gate.inputs]


def test_late_input_gets_buffer_chain():
    mcid = build_mcid(late_d_netlist(), RSFQ)
    shifted = apply_itcl(mcid, ArrivalSchedule.parse("d:1"))
    assert dependency_window(shifted)["d"] == (-6, -5)
    assert dependency_window(shifted)["a"] == (-5,)
    # the shift moves pins and adds no gate
    assert shifted.gate_count == mcid.gate_count
    assert reads(mcid, "t2@t-3") == ["cD@t-4", "d@t-4"] and reads(shifted, "t2@t-3") == ["cD@t-4", "d@t-5"]
    assert reads(mcid, "r1@t-4") == ["d@t-5"] and reads(shifted, "r1@t-4") == ["d@t-6"]
    assert shifted.duplicated_gate_count == mcid.duplicated_gate_count


def test_two_cycle_shift_chains_two_buffers():
    mcid = build_mcid(late_d_netlist(), RSFQ)
    shifted = apply_itcl(mcid, ArrivalSchedule.parse("d:2"))
    assert dependency_window(shifted)["d"] == (-7, -6)
    assert dependency_window(shifted)["a"] == (-5,)
    assert shifted.gate_count == mcid.gate_count
    assert reads(shifted, "t2@t-3") == ["cD@t-4", "d@t-6"]
    assert reads(shifted, "r1@t-4") == ["d@t-7"]


def test_consumers_read_the_chain_not_the_pin():
    mcid = build_mcid(late_d_netlist(), RSFQ)
    shifted = apply_itcl(mcid, ArrivalSchedule.parse("d:1"))
    assert [str(p) for p in shifted.timed_inputs] == ["a@t-5", "b@t-5", "c@t-5", "d@t-6", "d@t-5"]
    assert "d@t-5" in reads(shifted, "t2@t-3")
    pins = set(shifted.timed_inputs)
    for g in shifted.gates:
        for src in g.inputs:
            assert src in pins or src in {h.output for h in shifted.gates}


def test_match_prefers_the_step_with_most_pins():
    mcid = build_mcid(late_d_netlist(), RSFQ)
    m = match_inputs(mcid, ["a", "b", "c", "d"])
    assert m.t_star == -5
    assert {pi: str(sig) for pi, sig in m.matched.items()} == {
        "a": "a@t-5",
        "b": "b@t-5",
        "c": "c@t-5",
        "d": "d@t-5",
    }


def test_match_tie_breaks_toward_latest_step():
    model = pin_only_model(["a", "b"], [("a", -2), ("b", -1)])
    m = match_inputs(model, ["a", "b"])
    assert m.t_star == -1
    assert str(m.matched["b"]) == "b@t-1"
    # a is absent at -1 and binds to its nearest occurrence instead
    assert str(m.matched["a"]) == "a@t-2"


def test_match_nearest_occurrence_tie_breaks_earlier():
    model = pin_only_model(
        ["x", "y", "d"], [("x", -3), ("y", -3), ("d", -4), ("d", -2)]
    )
    m = match_inputs(model, ["x", "y", "d"])
    assert m.t_star == -3
    assert str(m.matched["d"]) == "d@t-4"


def test_match_requires_every_spec_input_to_be_sampled():
    model = pin_only_model(["a", "b"], [("a", -1)])
    with pytest.raises(ItclError):
        match_inputs(model, ["a", "b"])
