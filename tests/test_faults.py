import random

import pytest

from circuits import inv_split_netlist, late_d_netlist, split_reconverge_netlist
from gen import random_comb, sfqify
from sfqlec import FAULT_KINDS, builtin_profile, check_fanout, inject, write_netlist
from sfqlec.checks import FANOUT_EXCEEDED
from sfqlec.faults import REMOVE_DFF, REMOVE_SPLITTER, SWAP_GATE, FaultError

RSFQ = builtin_profile("rsfq")


def test_fault_kind_constants():
    assert FAULT_KINDS == ("swap-gate", "remove-dff", "remove-splitter")


def test_unknown_kind_is_rejected():
    with pytest.raises(FaultError):
        inject(late_d_netlist(), "stuck-at-0")


def test_swap_changes_exactly_one_gate_function():
    src = late_d_netlist()
    faulty, spec = inject(src, SWAP_GATE, seed=3)
    assert spec.kind == SWAP_GATE
    old_kind, _, new_kind = spec.detail.partition("->")
    changed = faulty.driver_of[spec.target]
    assert changed.kind.name == new_kind != old_kind
    assert changed.kind.arity == src.driver_of[spec.target].kind.arity
    assert changed.inputs == src.driver_of[spec.target].inputs
    same = [g for g in src.gates if g.output != spec.target]
    assert all(faulty.driver_of[g.output].kind.name == g.kind.name for g in same)
    assert spec.line() == f"FAULT swap-gate {spec.target} {spec.detail}"


def test_swap_never_touches_storage_or_splitters():
    for seed in range(30):
        _, spec = inject(late_d_netlist(), SWAP_GATE, seed=seed)
        kind = late_d_netlist().driver_of[spec.target].kind.name
        assert kind not in ("DFF", "SPLIT"), spec


def test_swap_with_explicit_target():
    faulty, spec = inject(late_d_netlist(), SWAP_GATE, seed=0, target="orm")
    assert spec.target == "orm" and spec.detail.startswith("OR2->")
    with pytest.raises(FaultError):
        inject(late_d_netlist(), SWAP_GATE, target="mD")  # storage is off-limits
    with pytest.raises(FaultError):
        inject(late_d_netlist(), SWAP_GATE, target="nope")


def test_remove_dff_rewires_readers():
    src = late_d_netlist()
    faulty, spec = inject(src, REMOVE_DFF, seed=0, target="r2")
    assert spec.line() == "FAULT remove-dff r2 removed"
    assert "r2" not in faulty.driver_of
    assert faulty.driver_of["r3"].inputs == ("r1",)
    assert len(faulty.gates) == len(src.gates) - 1


def test_remove_dff_on_an_output_renames_the_driver():
    net = split_reconverge_netlist()  # d1 = DFF(ps) feeds a2 internally
    text = "INPUT(a)\nOUTPUT(q)\nn = INV(a)\nq = DFF(n)\n"
    from sfqlec import parse_netlist

    po_net = parse_netlist(text)
    faulty, spec = inject(po_net, REMOVE_DFF, target="q")
    assert spec.target == "q"
    assert [g.output for g in faulty.gates] == ["q"]
    assert faulty.driver_of["q"].kind.name == "INV"
    assert faulty.primary_outputs == ("q",)
    # the internal DFF of the reconvergent block removes the plain way
    faulty2, _ = inject(net, REMOVE_DFF, target="d1")
    assert faulty2.driver_of["a2"].inputs == ("g1", "ps")


def test_remove_dff_prefers_storage_near_the_outputs():
    # late_d's removable DFFs sit at levels 1..4; the top quartile is mD
    _, spec = inject(late_d_netlist(), REMOVE_DFF, seed=0)
    assert spec.target == "mD"


def test_remove_dff_keeps_fanout_legal_on_balanced_circuits():
    removed = 0
    for seed in range(25):
        rng = random.Random(seed)
        sfq = sfqify(random_comb(rng, n_pis=3, n_gates=rng.randint(2, 9)))
        if not any(g.kind.name == "DFF" for g in sfq.gates):
            continue
        try:
            faulty, _ = inject(sfq, REMOVE_DFF, seed=seed)
        except FaultError:
            continue
        assert check_fanout(faulty, RSFQ).passed, seed
        removed += 1
    assert removed >= 10


def test_remove_splitter_always_breaks_fanout():
    for net, splitter in ((late_d_netlist(), "dsp"), (inv_split_netlist(), "isp")):
        faulty, spec = inject(net, REMOVE_SPLITTER, target=splitter)
        assert spec.detail == "bypassed"
        assert splitter not in faulty.driver_of
        rep = check_fanout(faulty, RSFQ)
        assert not rep.passed
        assert rep.violations[0].kind == FANOUT_EXCEEDED


def test_remove_splitter_requires_a_real_fanout_point():
    # single-reader splitters and absent splitters are not usable targets
    from sfqlec import parse_netlist

    net = parse_netlist("INPUT(a)\nOUTPUT(y)\ns = SPLIT(a)\ny = INV(s)\n")
    with pytest.raises(FaultError):
        inject(net, REMOVE_SPLITTER)
    with pytest.raises(FaultError):
        inject(late_d_netlist(), REMOVE_SPLITTER, target="mD")


def test_injection_is_deterministic_per_seed():
    for kind in FAULT_KINDS:
        a_net, a_spec = inject(late_d_netlist(), kind, seed=11)
        b_net, b_spec = inject(late_d_netlist(), kind, seed=11)
        assert a_spec == b_spec
        assert write_netlist(a_net) == write_netlist(b_net)


def test_different_seeds_reach_different_targets():
    seen = {inject(late_d_netlist(), SWAP_GATE, seed=s)[1].target for s in range(20)}
    assert len(seen) > 1
