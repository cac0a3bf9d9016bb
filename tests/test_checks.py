import random

import pytest

import sfqlec
import sfqlec.checks
import sfqlec.netlist
from circuits import late_d_netlist
from gen import enumerate_path_sets, oracle_balanced, random_comb, random_pipeline, sfqify
from sfqlec import (
    base_distances,
    builtin_profile,
    check_fanout,
    check_path_balance,
    parse_netlist,
)
from sfqlec.checks import (
    FANOUT_EXCEEDED,
    UNBALANCED_FANIN,
    UNEQUAL_OUTPUT_DEPTH,
    Violation,
)
from sfqlec.netlist import DISTANCE_CAP, BaseDistanceSet

RSFQ = builtin_profile("rsfq")
AQFP = builtin_profile("aqfp")
CMOS = builtin_profile("cmos")


def test_violation_line_format():
    v = Violation(FANOUT_EXCEEDED, "n7", "2 readers, limit 1")
    assert v.line() == "VIOLATION FanoutExceeded n7 2 readers, limit 1"


def test_fanout_passes_on_legal_circuit():
    rep = check_fanout(late_d_netlist(), RSFQ)
    assert rep.passed and rep.lines() == []


def test_fanout_flags_double_read():
    net = parse_netlist("INPUT(a)\nOUTPUT(y)\nn = INV(a)\ny = AND2(n, n)\n")
    rep = check_fanout(net, RSFQ)
    assert not rep.passed
    assert [v.kind for v in rep.violations] == [FANOUT_EXCEEDED]
    assert rep.violations[0].location == "n"


def test_primary_output_counts_as_a_reader():
    # n feeds one gate *and* is an output: two sinks on a plain net
    net = parse_netlist("INPUT(a)\nOUTPUT(n)\nOUTPUT(y)\nn = INV(a)\ny = DFF(n)\n")
    rep = check_fanout(net, RSFQ)
    assert [v.location for v in rep.violations] == ["n"]


def test_splitter_gets_wider_limit():
    text = "INPUT(a)\nOUTPUT(y)\ns = SPLIT(a)\nn1 = DFF(s)\nn2 = INV(s)\ny = AND2(n1, n2)\n"
    net = parse_netlist(text)
    assert check_fanout(net, RSFQ).passed
    # a third reader pushes the splitter past the rsfq limit of 2
    text3 = (
        "INPUT(a)\nOUTPUT(y)\nOUTPUT(n3)\ns = SPLIT(a)\nn1 = DFF(s)\nn2 = INV(s)\n"
        "n3 = DFF(s)\ny = AND2(n1, n2)\n"
    )
    net3 = parse_netlist(text3)
    rep = check_fanout(net3, RSFQ)
    assert [v.location for v in rep.violations] == ["s"]
    assert check_fanout(net3, AQFP).passed  # aqfp splitters drive up to 4


def test_cmos_profile_skips_both_checks():
    net = parse_netlist("INPUT(a)\nOUTPUT(y)\nn = INV(a)\ny = AND2(n, n)\n")
    assert check_fanout(net, CMOS).passed
    assert check_path_balance(net, CMOS).passed


def test_base_distances_on_late_arrival_circuit():
    dists = base_distances(late_d_netlist(), RSFQ)
    assert dists["d"].distances == (0,)
    assert dists["t1"].is_singleton and dists["t1"].depth == 2
    assert dists["t2"].distances == (1, 2)
    assert dists["out"].distances == (4, 5)
    assert not dists["out"].is_singleton
    assert not dists["out"].truncated


def test_path_balance_violations_on_late_arrival_circuit():
    rep = check_path_balance(late_d_netlist(), RSFQ)
    by_kind = {}
    for v in rep.violations:
        by_kind.setdefault(v.kind, []).append(v.location)
    assert by_kind[UNBALANCED_FANIN] == ["t2", "m", "msp", "mD", "orm", "out"]
    assert by_kind[UNEQUAL_OUTPUT_DEPTH] == ["out"]
    # the first violation names the actual depth mismatch, not a symptom
    assert rep.violations[0].detail == "fanin cD at depth 1 vs dsp at depth 0"


def test_path_balance_po_only_mode():
    rep = check_path_balance(late_d_netlist(), RSFQ, po_only=True)
    assert [v.kind for v in rep.violations] == [UNEQUAL_OUTPUT_DEPTH]


def test_output_depth_mismatch_without_fanin_violation():
    net = parse_netlist(
        "INPUT(a)\nINPUT(b)\nOUTPUT(x)\nOUTPUT(y)\nx = DFF(a)\ny1 = DFF(b)\ny = DFF(y1)\n"
    )
    rep = check_path_balance(net, RSFQ)
    assert [v.kind for v in rep.violations] == [UNEQUAL_OUTPUT_DEPTH]


def test_splitter_depth_depends_on_profile():
    net = parse_netlist("INPUT(p)\nINPUT(q)\nOUTPUT(y)\nps = SPLIT(p)\ny = AND2(ps, q)\n")
    assert check_path_balance(net, RSFQ).passed  # splitters add no rsfq delay
    assert not check_path_balance(net, AQFP).passed  # but a full aqfp level


def test_balanced_compilations_pass_both_checks():
    for seed in range(30):
        rng = random.Random(seed)
        sfq = sfqify(random_comb(rng, n_pis=rng.randint(2, 4), n_gates=rng.randint(2, 9)))
        assert check_fanout(sfq, RSFQ).passed, seed
        assert check_path_balance(sfq, RSFQ).passed, seed


def test_verdict_matches_definitional_recursion():
    mismatch = []
    for seed in range(80):
        rng = random.Random(seed)
        net = random_pipeline(rng, n_pis=rng.randint(2, 4), n_gates=rng.randint(3, 18))
        got = check_path_balance(net, RSFQ).passed
        if got != oracle_balanced(net):
            mismatch.append(seed)
    assert mismatch == []


def test_distance_sets_match_definitional_recursion():
    for seed in range(40):
        rng = random.Random(1000 + seed)
        net = random_pipeline(rng, n_pis=rng.randint(2, 4), n_gates=rng.randint(3, 16))
        dists = base_distances(net, RSFQ)
        for net_name, want in enumerate_path_sets(net).items():
            got = dists[net_name]
            assert not got.truncated
            assert frozenset(got.distances) == want, (seed, net_name)


def test_wide_distance_sets_are_truncated_not_enumerated():
    # each stage unions {+1, +2} onto the set, so widths pass any cap fast
    lines = ["INPUT(x0)", "OUTPUT(out)"]
    prev = "x0"
    n_stages = DISTANCE_CAP + 6
    for i in range(n_stages):
        lines += [
            f"s{i} = SPLIT({prev})",
            f"d{i} = DFF(s{i})",
            f"m{i} = AND2(s{i}, d{i})",
        ]
        prev = f"m{i}"
    lines.append(f"out = BUF({prev})")
    net = parse_netlist("\n".join(lines) + "\n")
    dists = base_distances(net, RSFQ)
    top = dists["out"]
    assert top.truncated
    assert len(top.distances) == 2  # collapsed to (min, max)
    assert top.distances == (n_stages + 1, 2 * n_stages + 1)
    rep = check_path_balance(net, RSFQ)
    assert not rep.passed


def test_base_distance_set_is_an_immutable_value_record():
    s = BaseDistanceSet("n", (2, 5), True)
    assert s == BaseDistanceSet(net="n", distances=(2, 5), truncated=True)  # names, order
    assert (s.net, s.distances, s.truncated) == ("n", (2, 5), True)
    assert s == ("n", (2, 5), True)  # tuple-backed: equal to the plain tuple of its fields
    assert BaseDistanceSet("n", (3,)) == ("n", (3,), False)  # truncated defaults to False
    assert hash(s) == hash(BaseDistanceSet("n", (2, 5), True))
    assert len({s, BaseDistanceSet("n", (2, 5), True)}) == 1
    assert s != BaseDistanceSet("n", (2, 5))
    with pytest.raises(AttributeError):
        s.truncated = False
    assert repr(s) == "BaseDistanceSet(net='n', distances=(2, 5), truncated=True)"
    assert (s.is_singleton, s.depth) == (False, 5)
    assert (BaseDistanceSet("n", (3,)).is_singleton, BaseDistanceSet("n", (3,)).depth) == (True, 3)


def test_distance_names_resolve_to_the_netlist_module():
    assert sfqlec.checks.base_distances is sfqlec.netlist.base_distances
    assert sfqlec.base_distances is sfqlec.netlist.base_distances
    assert sfqlec.BaseDistanceSet is sfqlec.netlist.BaseDistanceSet
