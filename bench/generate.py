"""Generate one workload's netlist files and the verdict each must get.

    python3 bench/generate.py --workload NAME --seed N --out DIR [--repin]

Runs as its own process so that the recursion limit `gen.sfqify` needs is
raised here only, and so that generation does not count in the measuring
process's peak memory.  Writes DIR/manifest.json.

Every case is built from `tests/gen.py` and `tests/circuits.py` (imported,
never edited) plus this file's own fault, late-input and AQFP builders.
Each case's expected exit code is fixed here, from outside the checker: the
adders against integer arithmetic (`gen.adder_value`), everything else
against `gen.eval_comb` on the specification through the private cycle
simulation in `oracle.py`.

The seed only permutes the order of gate lines in the written files and,
on the equivalence workloads, picks the checker's simulation seed; neither
changes the work a verify does.  The sha256 of each case's text before
that permutation is pinned in `pins.json`, so an edit to `tests/gen.py`
that changes a workload stops the benchmark instead of reading as a
performance change.  `--repin` rewrites the pins after a deliberate change.
"""

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
# gen.sfqify recurses once per DFF-chain step; ripple_adder(512) would
# exceed the default limit.
sys.setrecursionlimit(20_000)

import circuits  # noqa: E402
import gen  # noqa: E402
from sfqlec import parse_netlist  # noqa: E402

import oracle  # noqa: E402

PINS = HERE / "pins.json"
LANES = 64
# Fault sites are drawn once from this seed, never from the run seed: their
# verify cost ranges over 0.02-2 s, so a per-run draw would make a pass's
# time depend on the draw rather than on the code.
FAULT_MASTER_SEED = 2020
SWAP_POOL = {1: ("BUF", "INV"), 2: ("AND2", "NAND2", "NOR2", "OR2", "XNOR2", "XOR2")}


# ------------------------------------------------------------------ netlists


class Design:
    """Rows (out, kind, fanins) with declared inputs and outputs."""

    def __init__(self, pis, pos, rows):
        self.pis, self.pos = list(pis), list(pos)
        self.rows = [(o, k, tuple(i)) for o, k, i in rows]

    @classmethod
    def of(cls, netlist):
        rows = [(g.output, g.kind.name, g.inputs) for g in netlist.gates]
        return cls(netlist.primary_inputs, netlist.primary_outputs, rows)

    def text(self, rng=None) -> str:
        rows = list(self.rows)
        if rng is not None:
            rng.shuffle(rows)
        lines = [f"INPUT({p})" for p in self.pis] + [f"OUTPUT({p})" for p in self.pos]
        lines += [f"{o} = {k}({', '.join(i)})" for o, k, i in rows]
        return "\n".join(lines) + "\n"

    def topo(self):
        """Rows in fanin-first order."""
        by_out = {r[0]: r for r in self.rows}
        done = set(self.pis)
        order = []
        for start in [r[0] for r in self.rows]:
            stack = [start]
            while stack:
                net = stack[-1]
                if net in done:
                    stack.pop()
                    continue
                todo = [i for i in by_out[net][2] if i not in done]
                if todo:
                    stack.extend(todo)
                    continue
                done.add(net)
                order.append(by_out[net])
                stack.pop()
        return order


def sfq(comb) -> Design:
    return Design.of(gen.sfqify(comb))


def late_inputs(comb, late) -> Design:
    """Balanced pipeline whose `late` inputs enter one level deeper.

    Each late input is read through a BUF before `gen.sfqify` balances the
    circuit; deleting that BUF afterwards shortens every path from the input
    by one stage, so the result is balanced for the input arriving one
    cycle late (`--arrivals x:1`).
    """
    buf = {pi: f"late_{pi}" for pi in late}
    rows = [(b, "BUF", (pi,)) for pi, b in buf.items()]
    rows += [(g.output, g.kind.name, tuple(buf.get(i, i) for i in g.inputs)) for g in comb.gates]
    text = Design(comb.primary_inputs, comb.primary_outputs, rows).text()
    padded = sfq(parse_netlist(text, name=comb.name))
    back = {b: pi for pi, b in buf.items()}
    kept = [(o, k, tuple(back.get(i, i) for i in ins)) for o, k, ins in padded.rows if o not in back]
    return Design(padded.pis, padded.pos, kept)


def aqfp_balance(d: Design) -> Design:
    """Re-balance an RSFQ pipeline for AQFP, where splitters are clocked too.

    Every fanin edge that arrives early gets its own DFF chain, so no net
    gains readers and fanout stays legal; outputs are padded to one depth.
    """
    level = {pi: 0 for pi in d.pis}
    rows = []
    for out, kind, ins in d.topo():
        lv = max(level[i] for i in ins) + 1
        fed = []
        for i in ins:
            src = i
            for k in range(lv - 1 - level[i]):
                nxt = f"{out}_q{len(fed)}_{k}"
                rows.append((nxt, "DFF", (src,)))
                src = nxt
            fed.append(src)
        rows.append((out, kind, tuple(fed)))
        level[out] = lv
    depth = max(level[po] for po in d.pos)
    for po in d.pos:  # outputs are sinks, so renaming a driver rewires nothing
        need = depth - level[po]
        if not need:
            continue
        src = f"{po}_core"
        rows = [(src if o == po else o, k, ins) for o, k, ins in rows]
        for k in range(need):
            nxt = po if k == need - 1 else f"{po}_pad{k}"
            rows.append((nxt, "DFF", (src,)))
            src = nxt
    return Design(d.pis, d.pos, rows)


def swap_gate(d: Design, target: str, new_kind: str) -> Design:
    rows = [(o, new_kind if o == target else k, ins) for o, k, ins in d.rows]
    return Design(d.pis, d.pos, rows)


def remove_dff(d: Design, target: str) -> Design:
    """Delete a storage gate whose output is not a primary output."""
    (src,) = next(ins for o, _, ins in d.rows if o == target)
    rows = [(o, k, tuple(src if i == target else i for i in ins)) for o, k, ins in d.rows if o != target]
    return Design(d.pis, d.pos, rows)


def combinational(d: Design) -> Design:
    """The same circuit with storage and splitters as plain buffers."""
    return Design(d.pis, d.pos, [(o, "BUF" if k in ("DFF", "SPLIT") else k, i) for o, k, i in d.rows])


# ------------------------------------------------------------------- oracles


def random_wave(rng, lanes=LANES):
    cells = {}

    def wave(pi, c):
        if (pi, c) not in cells:
            cells[(pi, c)] = rng.getrandbits(lanes)
        return cells[(pi, c)]

    return wave


def lane_assignment(wave, pis, c, lane):
    return {pi: (wave(pi, c) >> lane) & 1 for pi in pis}


def adder_ok(circ, spec, n, transparent, shifts, rng) -> bool:
    """Both sides add: the spec on random words, the pipeline on a random
    stream of waves observed `latency` cycles after the wave it answers."""
    for _ in range(LANES):
        x, y, cin = rng.getrandbits(n), rng.getrandbits(n), rng.getrandbits(1)
        outs = gen.eval_comb(spec, gen.adder_assignment(n, x, y, cin))
        if gen.adder_value(outs, n) != x + y + cin:
            return False
    latency = max(circ.levels(transparent, shifts).values())
    wave = random_wave(rng)
    outs, _ = oracle.observe(circ, wave, latency, transparent, shifts, (1 << LANES) - 1)
    for lane in range(LANES):
        asn = lane_assignment(wave, circ.inputs, 0, lane)
        got = gen.adder_value({po: (v >> lane) & 1 for po, v in outs.items()}, n)
        x = sum(asn[f"a{i}"] << i for i in range(n))
        y = sum(asn[f"b{i}"] << i for i in range(n))
        if got != x + y + asn["cin"]:
            return False
    return True


def mismatches(circ, spec, transparent, shifts, rng, lanes=LANES):
    """Disagreeing lanes per candidate latency, and the latencies at which
    every input is read.  The pipeline is observed once it is full; the spec
    is evaluated one lane at a time with `gen.eval_comb`."""
    top = max(circ.levels(transparent, shifts).values())
    cycle = top + 1
    wave = random_wave(rng, lanes)
    outs, cells = oracle.observe(circ, wave, cycle, transparent, shifts, (1 << lanes) - 1)
    bad = {}
    for latency in range(top + 1):
        bad[latency] = 0
        for lane in range(lanes):
            asn = lane_assignment(wave, spec.primary_inputs, cycle - latency, lane)
            want = gen.eval_comb(spec, asn)
            if any((outs[po] >> lane) & 1 != want[po] for po in spec.primary_outputs):
                bad[latency] += 1
    read = {}
    for pi, c in cells:
        read.setdefault(c, set()).add(pi)
    full = {cycle - c for c, pis in read.items() if len(pis) == len(spec.primary_inputs)}
    return bad, full


# ----------------------------------------------------------------- workloads


class Case:
    def __init__(self, name, impl: Design, spec: Design, expect: int, profile="rsfq", late=()):
        self.name, self.impl, self.spec, self.expect = name, impl, spec, expect
        self.profile, self.late = profile, tuple(late)

    @property
    def shifts(self):
        return {pi: 1 for pi in self.late}


def adder_case(name, impl, spec_net, n, rng, profile="rsfq", late=()):
    case = Case(name, impl, Design.of(spec_net), 0, profile, late)
    circ = oracle.Circuit(impl.text())
    if not adder_ok(circ, spec_net, n, oracle.TRANSPARENT[profile], case.shifts, rng):
        raise SystemExit(f"oracle: {name} does not add; the generator is wrong")
    return case


def adder_equiv(rng):
    """Same function, different structure: Kogge-Stone pipeline vs ripple spec."""
    return [
        adder_case(f"ks{n}_vs_ripple{n}", sfq(gen.kogge_stone_adder(n)), gen.ripple_adder(n), n, rng)
        for n in (16, 24, 32)
    ]


def front_end(rng):
    """Large structural self-pairs whose miter collapses before any solving."""
    # ripple_adder(192) (112k gates, 3 s) would hold a 30 s run to four
    # repetitions of its pass; ripple_adder(128) is 50k gates.
    spec = gen.ripple_adder(128)
    cases = [adder_case("ripple128_self", sfq(spec), spec, 128, rng)]
    spec = gen.kogge_stone_adder(256)
    cases.append(adder_case("ks256_self", sfq(spec), spec, 256, rng))
    spec = gen.ripple_adder(64)
    late = [f"b{i}" for i in range(64)]
    cases.append(adder_case("ripple64_late_b", late_inputs(spec, late), spec, 64, rng, late=late))
    spec = gen.ripple_adder(32)
    cases.append(adder_case("ripple32_aqfp", aqfp_balance(sfq(spec)), spec, 32, rng, profile="aqfp"))
    return cases


def draw_faults(base: Design, spec_net, n_swap: int, n_dff: int):
    """Fault sites on `base` that the private simulation shows change the
    function at the design's latency, with every input read on that wave."""
    rng = random.Random(FAULT_MASTER_SEED)
    circ = oracle.Circuit(base.text())
    transparent = oracle.TRANSPARENT["rsfq"]
    latency = max(circ.levels(transparent).values())
    pos = set(base.pos)
    swappable = sorted(o for o, k, _ in base.rows if k not in ("DFF", "SPLIT"))
    arity = {o: len(i) for o, _, i in base.rows}
    kind = {o: k for o, k, _ in base.rows}
    dffs = sorted(o for o, k, _ in base.rows if k == "DFF" and o not in pos)
    # `sfqlec inject-fault --kind swap-gate --seed 5` on ks32 leads: simulation
    # finds its witness at once and canonicalizing the trace takes the time.
    picks = [("swap", "kp2_15", "OR2")]
    out = []
    while len(out) < n_swap + n_dff:
        if picks:
            pick = picks.pop()
        elif sum(f[0] == "swap" for f in out) < n_swap:
            g = rng.choice(swappable)
            pick = ("swap", g, rng.choice([k for k in SWAP_POOL[arity[g]] if k != kind[g]]))
        else:
            pick = ("dff", rng.choice(dffs), None)
        if any(f[:2] == pick[:2] for f in out):
            continue
        faulty = swap_gate(base, pick[1], pick[2]) if pick[0] == "swap" else remove_dff(base, pick[1])
        bad, full = mismatches(oracle.Circuit(faulty.text()), spec_net, transparent, {}, rng)
        if bad.get(latency) and full == {latency}:
            out.append((*pick, faulty))
    return out


def fault_campaign(rng):
    """Inequivalent ks32 faults (canonical-trace path) plus two small cases."""
    spec_net = gen.ripple_adder(32)
    spec = Design.of(spec_net)
    base = sfq(gen.kogge_stone_adder(32))
    cases = []
    for kind, target, new, faulty in draw_faults(base, spec_net, n_swap=4, n_dff=3):
        tag = f"swap_{target}_{new}" if kind == "swap" else f"nodff_{target}"
        cases.append(Case(f"ks32_{tag}", faulty, spec, 1))

    late_d = Design.of(circuits.late_d_netlist())
    late_spec = circuits.late_d_golden()
    deep = Design.of(circuits.split_deep_cone_netlist())
    small = [
        Case("late_d_arrivals_d1", late_d, Design.of(late_spec), 0, late=("d",)),
        Case("deep_cone_nodff_fA", remove_dff(deep, "fA"), combinational(deep), 1),
    ]
    for case in small:
        spec_net = parse_netlist(case.spec.text(), name=case.name)
        circ = oracle.Circuit(case.impl.text())
        # wide, because the small cases disagree on about 1 wave in 64
        bad, _ = mismatches(circ, spec_net, oracle.TRANSPARENT["rsfq"], case.shifts, rng, 4096)
        fits = [latency for latency, n in bad.items() if n == 0]
        if bool(fits) != (case.expect == 0):
            raise SystemExit(f"oracle: {case.name} latencies {fits} contradict its expected verdict")
    return cases + small


WORKLOADS = {"adder_equiv": adder_equiv, "fault_campaign": fault_campaign, "front_end": front_end}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--repin", action="store_true", help="rewrite pins.json for this workload")
    args = ap.parse_args(argv)

    rng = random.Random(f"oracle:{args.workload}:{args.seed}")
    cases = WORKLOADS[args.workload](rng)
    canonical = {c.name: {"impl": sha(c.impl.text()), "spec": sha(c.spec.text())} for c in cases}
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    if args.repin:
        pins[args.workload] = canonical
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    elif pins.get(args.workload) != canonical:
        print(
            f"generate: {args.workload} inputs differ from bench/pins.json; a generator "
            "changed the workload. Re-pin in a change of its own (--repin).",
            file=sys.stderr,
        )
        return 3

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sim_seed = 0 if args.workload == "fault_campaign" else args.seed % 1_000_003
    manifest = []
    for c in cases:
        shuffle = random.Random(f"lines:{args.seed}:{c.name}")
        entry = {"name": c.name, "expect": c.expect, "profile": c.profile, "late": list(c.late)}
        for side, design in (("impl", c.impl), ("spec", c.spec)):
            text = design.text(shuffle)
            path = out / f"{c.name}.{side}.bench"
            path.write_text(text)
            entry[side] = str(path)
            entry[f"{side}_sha256"] = sha(text)
        entry["argv"] = ["verify", entry["impl"], entry["spec"], "--profile", c.profile,
                         "--seed", str(sim_seed)]
        if c.late:
            entry["argv"] += ["--arrivals", ",".join(f"{pi}:1" for pi in c.late)]
        manifest.append(entry)
    (out / "manifest.json").write_text(json.dumps({"seed": args.seed, "cases": manifest}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
