import random

import pytest

from gen import enumerate_path_sets, kogge_stone_adder, random_comb, random_pipeline, ripple_adder, sfqify
from sfqlec import Netlist, NetlistError, builtin_profile, parse_netlist, write_netlist
from sfqlec.netlist import (
    DISTANCE_CAP,
    BenchParseError,
    Gate,
    base_distances,
    circuit_depth,
    get_kind,
    logic_levels,
)
from sfqlec.profiles import Bits

SMALL = """
# two-stage sample
INPUT(a)
INPUT(b)
OUTPUT(y)
n1 = AND2(a, b)
n2 = DFF(n1)
y  = INV(n2)
"""


def test_parse_small_bench():
    net = parse_netlist(SMALL, name="small")
    assert net.name == "small"
    assert net.primary_inputs == ("a", "b")
    assert net.primary_outputs == ("y",)
    assert [g.output for g in net.gates] == ["n1", "n2", "y"]
    assert net.driver_of["y"].kind.name == "INV"
    assert net.is_pi("a") and not net.is_pi("n1")


def test_parse_is_case_insensitive_on_kinds():
    net = parse_netlist("INPUT(a)\nOUTPUT(y)\ny = inv(a)\n")
    assert net.driver_of["y"].kind.name == "INV"


def test_declarations_ignore_case_on_the_keyword_only():
    net = parse_netlist("input(a)\nOutput( y )\ny = INV(a)\n")
    assert (net.primary_inputs, net.primary_outputs) == (("a",), ("y",))
    # A declared name is ASCII, as everywhere else: the Kelvin sign, the long
    # s and the dotless i match [A-Za-z] only under a case-insensitive match.
    for name in ("\u212a", "a\u017f", "\u0131"):
        with pytest.raises(BenchParseError, match="line 1: cannot parse"):
            parse_netlist(f"INPUT({name})\nOUTPUT({name})\n")


def test_roundtrip_through_bench_text():
    for seed in range(25):
        rng = random.Random(seed)
        net = random_pipeline(rng, n_pis=rng.randint(2, 4), n_gates=rng.randint(3, 15))
        again = parse_netlist(write_netlist(net), name=net.name)
        assert again.primary_inputs == net.primary_inputs
        assert again.primary_outputs == net.primary_outputs
        assert {g.output: (g.kind.name, g.inputs) for g in again.gates} == {
            g.output: (g.kind.name, g.inputs) for g in net.gates
        }


def test_topological_order_respects_dependencies():
    for seed in range(25):
        rng = random.Random(100 + seed)
        net = random_comb(rng, n_pis=3, n_gates=rng.randint(2, 12))
        seen = set(net.primary_inputs)
        for gid in [g.output for g in net.order]:
            g = net.driver_of[gid]
            assert all(i in seen for i in g.inputs), gid
            seen.add(g.output)
        assert len(seen) == len(net.primary_inputs) + len(net.gates)


def test_logic_levels_on_a_chain():
    net = parse_netlist(
        "INPUT(a)\nOUTPUT(d)\nb = DFF(a)\nbs = SPLIT(b)\nc = INV(bs)\nd = AND2(c, bs)\n"
    )
    lv = logic_levels(net)
    assert lv["a"] == 0
    assert lv["b"] == 1
    assert lv["bs"] == 1  # splitters do not add a level
    assert lv["c"] == 2
    assert lv["d"] == 3
    assert circuit_depth(net) == 3


def test_levels_are_the_max_of_the_definitional_path_sets():
    cases = []
    for seed in range(40):  # the pipelines of test_distance_sets_match_definitional_recursion
        rng = random.Random(1000 + seed)
        cases.append(random_pipeline(rng, n_pis=rng.randint(2, 4), n_gates=rng.randint(3, 16)))
    cases += [sfqify(kogge_stone_adder(8)), sfqify(ripple_adder(8))]
    # the wide netlist of test_wide_distance_sets_are_truncated_not_enumerated:
    # its sets are cut to {min, max}, and it has too many paths to enumerate
    n_stages = DISTANCE_CAP + 6
    lines = ["INPUT(x0)", "OUTPUT(out)"]
    prev = "x0"
    for i in range(n_stages):
        lines += [f"s{i} = SPLIT({prev})", f"d{i} = DFF(s{i})", f"m{i} = AND2(s{i}, d{i})"]
        prev = f"m{i}"
    wide = parse_netlist("\n".join(lines + [f"out = BUF({prev})"]) + "\n")
    for profile in (builtin_profile(name) for name in ("rsfq", "aqfp", "cmos")):
        for net in cases:
            want = {n: max(s) for n, s in enumerate_path_sets(net, profile.non_clocked_kinds).items()}
            assert logic_levels(net, profile) == want, (net.name, profile.name)
            assert circuit_depth(net, profile) == max(want[po] for po in net.primary_outputs)
        step = {k: int(k not in profile.non_clocked_kinds) for k in ("SPLIT", "DFF", "AND2", "BUF")}
        longest = n_stages * (step["SPLIT"] + step["DFF"] + step["AND2"]) + step["BUF"]
        assert len(base_distances(wide, profile)["out"]) == 2  # cut to (min, max)
        assert logic_levels(wide, profile)["out"] == circuit_depth(wide, profile) == longest, profile.name


@pytest.mark.parametrize(
    "kind,args,want",
    [
        ("AND2", [1, 1], 1),
        ("AND2", [1, 0], 0),
        ("NAND2", [1, 1], 0),
        ("OR2", [0, 0], 0),
        ("NOR2", [0, 0], 1),
        ("XOR2", [1, 1], 0),
        ("XNOR2", [1, 0], 0),
        ("INV", [0], 1),
        ("BUF", [1], 1),
        ("DFF", [1], 1),
        ("SPLIT", [0], 0),
    ],
)
def test_evaluate_kind_single_bits(kind, args, want):
    assert get_kind(kind).meaning(Bits(1), *args) == want


def test_evaluate_kind_is_bitwise():
    mask = (1 << 8) - 1
    assert get_kind("AND2").meaning(Bits(mask), 0b10110011, 0b11010101) == 0b10010001
    assert get_kind("INV").meaning(Bits(mask), 0b10110011) == 0b01001100


def test_get_kind_rejects_unknown():
    with pytest.raises(NetlistError):
        get_kind("AND3")


def test_parse_rejects_bad_lines():
    bad = [
        "INPUT(a)\nINPUT(a)\n",  # duplicate input
        "INPUT(a)\nOUTPUT(y)\ny = FOO(a)\n",  # unknown kind
        "INPUT(a)\nOUTPUT(y)\ny = AND2(a)\n",  # arity mismatch
        "INPUT(a)\nOUTPUT(y)\ny = INV(a)\ny = INV(a)\n",  # two drivers
        "INPUT(a)\nwhat is this\n",
    ]
    for text in bad:
        with pytest.raises(BenchParseError):
            parse_netlist(text)


def test_validation_rejects_bad_graphs():
    with pytest.raises(NetlistError):  # reads an undriven net
        parse_netlist("INPUT(a)\nOUTPUT(y)\ny = AND2(a, ghost)\n")
    with pytest.raises(NetlistError):  # undriven output
        parse_netlist("INPUT(a)\nOUTPUT(y)\nn = INV(a)\n")
    with pytest.raises(NetlistError):  # gate drives a declared input
        parse_netlist("INPUT(a)\nINPUT(b)\nOUTPUT(b)\nb = INV(a)\n")
    with pytest.raises(NetlistError):  # combinational cycle
        kinds = get_kind("AND2"), get_kind("INV")
        loop = Netlist(
            name="loop",
            primary_inputs=("a",),
            primary_outputs=("y",),
            gates=(
                Gate(kinds[0], ("a", "z"), "y"),
                Gate(kinds[1], ("y",), "z"),
            ),
        )
        loop.order


@pytest.mark.parametrize(
    "pis, pos, gates, message",
    [
        (("a", "a"), ("y",), [("INV", ("a",), "y")], "duplicate primary input declaration"),
        (("a",), ("y", "y"), [("INV", ("a",), "y")], "duplicate primary output declaration"),
        (("a",), ("y",), [("INV", ("a",), "y"), ("BUF", ("a",), "y")], "net 'y' has two drivers"),
        (("a",), ("y",), [("AND2", ("a",), "y")], "gate 'y': AND2 takes 2 inputs, got 1"),
        (("a", "b"), ("b",), [("INV", ("a",), "b")], "net 'b' driven by a gate but declared INPUT"),
    ],
)
def test_netlist_construction_validates_declarations_and_gates(pis, pos, gates, message):
    """A `Netlist` built directly, not parsed, runs its own validation:
    each bad declaration or gate raises with its own message."""
    gates = tuple(Gate(get_kind(kind), ins, out) for kind, ins, out in gates)
    with pytest.raises(NetlistError) as exc:
        Netlist("bad", pis, pos, gates)
    assert str(exc.value) == message


def test_cycle_rejected_even_through_dff():
    # sequential loops are out of scope for this model: every net must be
    # a function of inputs only, so DFF feedback is rejected too
    with pytest.raises(NetlistError):
        net = parse_netlist("INPUT(a)\nOUTPUT(q)\nq = DFF(d)\nd = AND2(a, q)\n")
        net.order


def test_cycle_message_names_the_first_five_stuck_gates_by_name():
    # name order (g1, g10, g11, g12, g2) is not numeric order; y is stuck too
    ring = "".join(f"g{i} = INV(g{i % 12 + 1})\n" for i in range(1, 13))
    with pytest.raises(NetlistError) as exc:
        parse_netlist("INPUT(a)\nOUTPUT(y)\n" + ring + "y = AND2(a, g3)\n")
    assert str(exc.value) == "cycle detected involving gate(s): g1, g10, g11, g12, g2"


def test_order_of_a_net_read_on_both_pins():
    net = parse_netlist("INPUT(a)\nOUTPUT(w)\nw = INV(y)\ny = AND2(x, x)\nx = INV(a)\n")
    assert [g.output for g in net.order] == ["x", "y", "w"]


def test_write_netlist_emits_topological_gate_order():
    net = parse_netlist(SMALL)
    text = write_netlist(net)
    lines = [l for l in text.splitlines() if "=" in l]
    assert lines.index("n1 = AND2(a, b)") < lines.index("n2 = DFF(n1)")
    assert lines[-1].startswith("y = INV")


def test_gate_is_an_immutable_value_record():
    inv = get_kind("INV")
    g = Gate(inv, ("a",), "y")
    assert g == Gate(kind=inv, inputs=("a",), output="y")  # field names, positional order
    assert (g.kind, g.inputs, g.output) == (inv, ("a",), "y")
    assert g == (inv, ("a",), "y")  # tuple-backed: equal to the plain tuple of its fields
    assert hash(g) == hash(Gate(inv, ("a",), "y")) and len({g, Gate(inv, ("a",), "y")}) == 1
    assert g != Gate(inv, ("a",), "z")
    with pytest.raises(AttributeError):
        g.output = "z"
    assert repr(g) == "Gate(kind=GateKind(name='INV', arity=1), inputs=('a',), output='y')"
