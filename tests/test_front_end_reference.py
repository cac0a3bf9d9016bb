"""The rewritten front end against its straight-line references.

`parse_netlist` (with `Netlist` validation and its topological order),
`base_distances`, `check_path_balance`, `build_mcid` and `build_miter` must
give exactly what the loops in tests/reference.py give: the same gates in
the same order, the same distance sets and violation lines, the same
unrolled model and graph, and on bad input the same error with the same
message and line number.  The hot loops build their records with
`tuple.__new__`, so the records' types are checked too: a bare tuple
would compare equal.
"""

import random
import re

import pytest

import circuits
import reference
from gen import kogge_stone_adder, random_comb, random_pipeline, ripple_adder, sfqify
from sfqlec import (
    ArrivalSchedule,
    Netlist,
    NetlistError,
    apply_itcl,
    base_distances,
    build_mcid,
    build_miter,
    builtin_profile,
    check_path_balance,
    parse_netlist,
)
from sfqlec.checks import UNBALANCED_FANIN, UNEQUAL_OUTPUT_DEPTH
from sfqlec.mcid import TimedSignal
from sfqlec.netlist import DISTANCE_CAP, Gate, bench_text, get_kind

PROFILES = [builtin_profile(name) for name in ("rsfq", "aqfp", "cmos")]


def wide_distance_netlist() -> Netlist:
    """Each stage adds {+1, +2} to the distance set, so it outgrows the cap."""
    lines = ["INPUT(x0)", "OUTPUT(out)"]
    prev = "x0"
    for i in range(DISTANCE_CAP + 6):
        lines += [f"s{i} = SPLIT({prev})", f"d{i} = DFF(s{i})", f"m{i} = AND2(s{i}, d{i})"]
        prev = f"m{i}"
    lines.append(f"out = BUF({prev})")
    return parse_netlist("\n".join(lines) + "\n", name="wide")


def chained_pipeline(seed: int) -> Netlist:
    """A random pipeline with a chain of up to six one-input cells (DFF,
    INV, BUF, SPLIT) spliced in front of every gate pin."""
    rng = random.Random(seed)
    base = random_pipeline(rng, n_pis=3, n_gates=12)
    one_input = [get_kind(k) for k in ("DFF", "DFF", "INV", "BUF", "SPLIT")]
    gates = []
    for g in base.gates:
        ins = []
        for pin, net in enumerate(g.inputs):
            for j in range(rng.randint(0, 6)):
                out = f"{g.output}_c{pin}_{j}"
                gates.append(Gate(rng.choice(one_input), (net,), out))
                net = out
            ins.append(net)
        gates.append(Gate(g.kind, tuple(ins), g.output))
    return Netlist(f"chain{seed}", base.primary_inputs, base.primary_outputs, tuple(gates))


def sample_netlists():
    for seed in range(12):
        rng = random.Random(seed)
        comb = random_comb(rng, n_pis=rng.randint(2, 5), n_gates=rng.randint(2, 14))
        yield f"comb{seed}", comb
        yield f"sfq_comb{seed}", sfqify(comb)
        yield f"pipe{seed}", random_pipeline(rng, n_pis=rng.randint(2, 4), n_gates=rng.randint(3, 20))
    yield "sfq_ks8", sfqify(kogge_stone_adder(8))
    yield "sfq_ripple6", sfqify(ripple_adder(6))
    yield "sfq_ripple16", sfqify(ripple_adder(16))  # long DFF chains into two-input cells
    for seed in range(4):
        yield f"chain{seed}", chained_pipeline(seed)
    for make in (
        circuits.late_d_netlist,
        circuits.late_d_golden,
        circuits.split_reconverge_netlist,
        circuits.split_reconverge_golden,
        circuits.split_reconverge_golden_reduced,
        circuits.inv_split_netlist,
        circuits.split_deep_cone_netlist,
        circuits.double_split_netlist,
    ):
        yield make.__name__, make()
    yield "wide", wide_distance_netlist()


SAMPLES = list(sample_netlists())


def shuffled_text(net: Netlist, seed: int) -> str:
    gates = list(net.gates)
    random.Random(seed).shuffle(gates)
    return bench_text(net.primary_inputs, net.primary_outputs, gates)


@pytest.mark.parametrize("name,net", SAMPLES, ids=[name for name, _ in SAMPLES])
def test_parse_and_order_match_the_reference(name, net):
    for text in (bench_text(net.primary_inputs, net.primary_outputs, net.gates), shuffled_text(net, 7)):
        got = parse_netlist(text)
        assert (got.primary_inputs, got.primary_outputs, got.gates, got.order) == reference.parse_netlist(text)


@pytest.mark.parametrize("name,net", SAMPLES, ids=[name for name, _ in SAMPLES])
def test_distance_sets_and_model_match_the_reference(name, net):
    for profile in PROFILES:
        got = base_distances(net, profile)
        assert list(got.items()) == list(reference.base_distances(net, profile).items())
        mcid, want = build_mcid(net, profile), reference.build_mcid(net, profile)
        assert mcid.gates == want.gates
        assert mcid.timed_inputs == want.timed_inputs
        assert list(mcid.outputs.items()) == list(want.outputs.items())
        assert mcid.duplicated_gate_count == want.duplicated_gate_count


def _shifts(net: Netlist) -> dict[str, int]:
    return {pi: i % 3 for i, pi in enumerate(net.primary_inputs)}


@pytest.mark.parametrize("name,net", SAMPLES, ids=[name for name, _ in SAMPLES])
def test_path_balance_matches_the_reference(name, net):
    for profile in PROFILES:
        for po_only in (False, True):
            for shifts in (None, _shifts(net)):
                got = check_path_balance(net, profile, po_only=po_only, shifts=shifts)
                want = reference.check_path_balance(net, profile, po_only=po_only, shifts=shifts)
                assert got.lines() == want.lines()
                if po_only or not profile.requires_path_balancing:
                    continue
                # the gates flagged are exactly those whose own set is wider
                # than one value, and no set is wider than the cap
                dists = base_distances(net, profile, shifts)
                flagged = [v.location for v in got.violations if v.kind == UNBALANCED_FANIN]
                assert flagged == [n for n, d in dists.items() if len(d) > 1]
                assert all(len(d) <= DISTANCE_CAP for d in dists.values())


def test_balance_compares_two_singleton_fanins_by_depth():
    rsfq = builtin_profile("rsfq")
    head = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nda = DFF(a)\nb1 = DFF(b)\n"
    even = parse_netlist(head + "y = AND2(da, b1)\n")
    late = parse_netlist(head + "b2 = DFF(b1)\ny = AND2(da, b2)\n")
    unequal = [
        f"VIOLATION {UNBALANCED_FANIN} y fanin da at depth 1 vs b2 at depth 2",
        f"VIOLATION {UNEQUAL_OUTPUT_DEPTH} y path lengths {{2,3}}",
    ]
    for net, want in ((even, []), (late, unequal)):
        assert check_path_balance(net, rsfq).lines() == want
        assert reference.check_path_balance(net, rsfq).lines() == want


def _assert_model_records(mcid):
    assert all(type(g) is Gate for g in mcid.gates)
    nets = [g.output for g in mcid.gates] + [i for g in mcid.gates for i in g.inputs]
    nets += list(mcid.timed_inputs) + list(mcid.outputs.values())
    assert all(type(s) is TimedSignal for s in nets)


@pytest.mark.parametrize("name,net", SAMPLES, ids=[name for name, _ in SAMPLES])
def test_records_keep_their_types(name, net):
    parsed = parse_netlist(bench_text(net.primary_inputs, net.primary_outputs, net.gates))
    assert all(type(g) is Gate for g in parsed.gates + parsed.order)
    late = ArrivalSchedule(_shifts(net))
    for profile in PROFILES:
        dists = base_distances(parsed, profile, _shifts(net))
        assert all(type(d) is tuple for d in dists.values())
        mcid = build_mcid(parsed, profile)
        _assert_model_records(mcid)
        _assert_model_records(apply_itcl(mcid, late))


def _miter_pairs():
    for seed in range(12):
        rng = random.Random(seed)
        comb = random_comb(rng, n_pis=rng.randint(2, 5), n_gates=rng.randint(2, 14))
        yield f"comb{seed}", sfqify(comb), comb, ""
    for make in (kogge_stone_adder, ripple_adder):
        for bits in (6, 16):
            yield f"{make.__name__}{bits}", sfqify(make(bits)), make(bits), ""
    yield "late_d_d1", circuits.late_d_netlist(), circuits.late_d_golden(), "d:1"


MITER_PAIRS = list(_miter_pairs())


@pytest.mark.parametrize("name,impl,spec,arrivals", MITER_PAIRS, ids=[p[0] for p in MITER_PAIRS])
def test_miter_matches_the_reference(name, impl, spec, arrivals):
    schedule = ArrivalSchedule.parse(arrivals)
    for profile in (builtin_profile("rsfq"), builtin_profile("aqfp")):
        mcid = apply_itcl(build_mcid(impl, profile), schedule)
        got, want = build_miter(mcid, spec), reference.build_miter(mcid, spec)
        assert got.aig.nodes == want.aig.nodes
        assert list(got.outputs.items()) == list(want.outputs.items())
        assert got.root == want.root
    if arrivals:  # the schedule moved the late pins and added no gate
        plain = build_mcid(impl, profile)
        assert mcid.timed_inputs != plain.timed_inputs and mcid.gate_count == plain.gate_count


def test_wide_sample_exercises_truncation():
    # the sets widen by one value a stage up to the cap, then keep (min, max)
    dists = base_distances(wide_distance_netlist(), builtin_profile("rsfq"))
    assert max(map(len, dists.values())) == DISTANCE_CAP
    assert len(dists["out"]) == 2


# ------------------------------------------------------------ diagnostics

_BLANKS = ["\t", "  ", "\u00a0", "\u2003", "\u3000", "\u205f", "\x1f"]
_KINDS = ["AND2", "and2", "Or2", "inv", "Dff", "split", "AND3", "FOO", "NAND", "buf"]


def _mutate(rng: random.Random, lines: list[str]) -> None:
    i = rng.randrange(len(lines))
    line = lines[i]
    nets = [l.split("=")[0].strip() for l in lines if "=" in l] + ["x0", "x1", "ghost"]
    op = rng.randrange(12)
    if op == 0:  # whitespace next to a delimiter, or anywhere
        marks = [k for k, ch in enumerate(line) if ch in "=(),"] + [0, len(line)]
        k = rng.choice(marks) + rng.randint(0, 1) if rng.random() < 0.7 else rng.randint(0, len(line))
        lines[i] = line[:k] + rng.choice(_BLANKS) + line[k:]
    elif op == 1:  # a comment, at the end or anywhere
        k = len(line) if rng.random() < 0.5 else rng.randint(0, len(line))
        lines[i] = line[:k] + rng.choice(["#", " # note", "#(a, b)", "\t# x = AND2(a, b)"]) + line[k:]
    elif op == 2 and "=" in line:  # 0 to 3 inputs
        out = line.split("=")[0].strip()
        kind = line.split("=")[1].split("(")[0].strip()
        args = ", ".join(rng.sample(nets, rng.randint(0, 3)))
        lines[i] = f"{out} = {kind}({args})"
    elif op == 3 and "=" in line:  # another kind, maybe lower-case or unknown
        out, rest = line.split("=", 1)
        lines[i] = f"{out}= {rng.choice(_KINDS)}({rest.split('(', 1)[1]}"
    elif op == 4 and "=" in line:  # a second driver
        lines.insert(rng.randint(i + 1, len(lines)), line)
    elif op == 5 and "=" in line:  # drive another gate's net
        rest = line.split("=", 1)[1]
        lines[i] = f"{rng.choice(nets)} ={rest}"
    elif op == 6:
        del lines[i]
    elif op == 7 and "(" in line:  # a bad net name
        lines[i] = line.replace("(", rng.choice(["(1bad, ", "(a$b, ", "(", "(("]), 1)
    elif op == 8:  # declarations: lower-case, repeated, or a gate net declared INPUT
        lines.insert(i, rng.choice(["input(x0)", "INPUT(x0)", "OUTPUT(x0)", "Output( x1 )", "INPUT(n0)", "OUTPUT(ghost)"]))
    elif op == 9 and "(" in line:  # read a later net: maybe a cycle
        lines[i] = line.replace("(", f"({rng.choice(nets)}, ", 1).replace(", ", ",", 1)
    elif op == 10:  # a stray character, often after the closing parenthesis
        k = len(line) if rng.random() < 0.5 else rng.randint(0, len(line))
        lines[i] = line[:k] + rng.choice("x);,=(@.-1 ") + line[k:]
    else:
        lines[i] = line.replace(" = ", "=").replace(", ", ",")


def _outcome(parse, text: str):
    try:
        return ("ok",) + tuple(parse(text))
    except NetlistError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line_no", None))


def _parsed(text: str):
    net = parse_netlist(text)
    return net.primary_inputs, net.primary_outputs, net.gates, net.order


def test_mutated_bench_text_parses_or_fails_like_the_reference():
    kinds = set()
    for seed in range(400):
        rng = random.Random(seed)
        base = random_comb(rng, n_pis=rng.randint(2, 4), n_gates=rng.randint(2, 8))
        base = sfqify(base) if seed % 2 else base
        lines = bench_text(base.primary_inputs, base.primary_outputs, base.gates).splitlines()
        for _ in range(rng.randint(1, 3)):
            _mutate(rng, lines)
        text = "\n".join(lines) + "\n"
        got = _outcome(_parsed, text)
        assert got == _outcome(reference.parse_netlist, text), (seed, text)
        kinds.add(re.sub(r"line \d+: |'[^']*'", "", got[1]) if got[0] != "ok" else "ok")
    seen = " | ".join(sorted(kinds))
    for want in (
        "ok", "cannot parse", "bad net name", "unknown gate kind", "got 0", "got 1", "got 3",
        "has two drivers", "duplicate INPUT", "declared INPUT", "reads undriven net",
        "is undriven", "cycle detected",
    ):
        assert want in seen, want


def test_undriven_gate_input_is_reported_before_undriven_output():
    inv = get_kind("INV")
    with pytest.raises(NetlistError, match="^gate 'y' reads undriven net 'ghost'$"):
        Netlist("both", ("a",), ("y", "z"), (Gate(inv, ("a",), "n"), Gate(inv, ("ghost",), "y")))
    with pytest.raises(NetlistError, match="^primary output 'z' is undriven$"):
        Netlist("po", ("a",), ("y", "z"), (Gate(inv, ("a",), "y"),))
