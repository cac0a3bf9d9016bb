"""Seeded mutation fuzzing of every text input and every subcommand.

Malformed input must end in an `SfqlecError` from the library, and in an
exit code (or argparse's `SystemExit(2)`) from the command line, never in
another exception.  Each text is a hand-built circuit, profile, arrival
schedule or wave file with one to three random edits: spans deleted,
duplicated or cut off, lines swapped, odd characters (a NUL, a non-ASCII
letter, a byte that is not UTF-8) inserted.
"""

import contextlib
import io
import random
import re

import circuits
from reference import write_profile
from sfqlec import (
    FAULT_KINDS,
    ArrivalSchedule,
    builtin_profile,
    load_profile,
    parse_netlist,
    parse_wave,
)
from sfqlec.cli import main
from sfqlec.errors import SfqlecError

SEEDS = 160
NETLISTS = [
    circuits.LATE_D_BENCH,
    circuits.SPLIT_RECONVERGE_BENCH,
    circuits.INV_SPLIT_BENCH,
    circuits.SPLIT_DEEP_CONE_BENCH,
    circuits.DOUBLE_SPLIT_BENCH,
]
PROFILES = [write_profile(builtin_profile(n)) for n in ("rsfq", "aqfp", "cmos")]
ODD = "()=,:#@-._ \n\t01239abdzAND2DFFSPLITINPUTOUTPUT\x00é\udcff"


def mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        j = rng.randint(i, min(len(text), i + 8))
        op = rng.randrange(5)
        if op == 0:
            text = text[:i] + text[j:]
        elif op == 1:
            text = text[:i] + "".join(rng.choice(ODD) for _ in range(rng.randint(1, 4))) + text[i:]
        elif op == 2:
            text = text[:j] + text[i:j] + text[j:]
        elif op == 3:
            lines = text.split("\n")
            a, b = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[a], lines[b] = lines[b], lines[a]
            text = "\n".join(lines)
        else:
            text = text[:i]
    return text


def small_lateness(text: str) -> str:
    """Cap every number at 3: the lateness widens the window, and with it
    the trace and the cycles its replay simulates."""
    return re.sub(r"\d(?:_?\d)*", lambda m: str(min(int(m.group()), 3)), text)


def inputs(rng: random.Random):
    """One seed's (netlist, golden, profile, arrivals, waves) texts, one of
    them mutated, so that the others let the run get past parsing."""
    impl = rng.choice(NETLISTS)
    pis = re.findall(r"INPUT\((\w+)\)", impl)
    texts = [
        impl,
        re.sub(r"= (DFF|SPLIT)\(", "= BUF(", impl),  # storage and splitters as wires
        rng.choice(PROFILES),
        ",".join(f"{pi}:{rng.randint(0, 2)}" for pi in pis if rng.random() < 0.5),
        "\n".join(" ".join(f"{pi}={rng.randint(0, 1)}" for pi in pis) for _ in range(3)),
    ]
    k = rng.randrange(len(texts))
    texts[k] = mutate(rng, texts[k])
    texts[3] = small_lateness(texts[3])
    return texts


def library_calls(impl, golden, profile, arrivals, waves):
    yield lambda: parse_netlist(impl)
    yield lambda: parse_netlist(golden)
    yield lambda: load_profile(profile)
    yield lambda: ArrivalSchedule.parse(arrivals)
    for line in waves.splitlines():
        yield lambda line=line: parse_wave(line)


def test_library_raises_only_sfqlec_errors():
    escaped = []
    for seed in range(SEEDS):
        for call in library_calls(*inputs(random.Random(seed))):
            try:
                call()
            except SfqlecError:
                pass
            except Exception as exc:  # noqa: BLE001 - any other type is the finding
                escaped.append((seed, repr(exc)))
    assert escaped == []


def test_every_subcommand_ends_in_an_exit_code(tmp_path):
    paths = {k: tmp_path / f"{k}.txt" for k in ("impl", "golden", "profile", "waves")}
    escaped = []
    for seed in range(SEEDS):
        rng = random.Random(seed)
        impl, golden, profile, arrivals, waves = inputs(rng)
        for key, text in zip(paths, (impl, golden, profile, waves)):
            paths[key].write_text(text, encoding="utf-8", errors="surrogateescape")
        p = {k: str(v) for k, v in paths.items()}
        prof = p["profile"] if rng.random() < 0.5 else rng.choice(["rsfq", "aqfp", "cmos"])
        kind = rng.choice(FAULT_KINDS)
        runs = [
            ["check-structure", p["impl"], "--profile", prof],
            ["build-mcid", p["impl"], "--profile", prof, "--arrivals", arrivals],
            ["verify", p["impl"], p["golden"], "--profile", prof, "--arrivals", arrivals],
            ["inject-fault", p["impl"], "--kind", kind, "--seed", str(seed)],
            ["simulate", p["impl"], "--profile", prof, "--waves", p["waves"]],
        ]
        for argv in runs:
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = main(argv)
            except SystemExit as exc:
                code = exc.code
                if code != 2:
                    escaped.append((seed, argv[0], f"SystemExit({code})"))
            except Exception as exc:  # noqa: BLE001 - any other type is the finding
                escaped.append((seed, argv[0], repr(exc)))
            else:
                if not isinstance(code, int):
                    escaped.append((seed, argv[0], f"returned {code!r}"))
    assert escaped == []
