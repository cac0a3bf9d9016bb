"""The benchmark's tracer (bench/spans.py) must still see every name it wraps.

It records per-layer spans by wrapping sfqlec functions, methods and stats
fields by name, and reports a vanished one as `bench.missing_names`.  This
test fails instead, so a rename cannot quietly blind the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

from gen import kogge_stone_adder, late_b_ripple16, ripple_adder, sfqify
from sfqlec import inject, write_netlist
from sfqlec.cli import main

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_every_name_on_a_faulted_verify(tmp_path, monkeypatch, capsys):
    impl, _ = inject(sfqify(kogge_stone_adder(16)), "swap-gate", seed=0)
    (tmp_path / "impl.bench").write_text(write_netlist(impl))
    (tmp_path / "spec.bench").write_text(write_netlist(ripple_adder(16)))
    tracer = load_spans(monkeypatch).Tracer()
    tracer.install()
    try:
        code = main(["verify", str(tmp_path / "impl.bench"), str(tmp_path / "spec.bench")])
    finally:
        tracer.uninstall()
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert tracer.missing == []
    _, counts = tracer.take()
    assert counts["miter.sim_inequivalent"] == 1
    assert counts["sat.canon_builds"] == 1  # one solver for the whole canonicalization
    assert f"canon-sat-calls {counts['sat.canon_solves']}" in out


def test_tracer_keeps_each_front_end_phase_under_its_name(tmp_path, monkeypatch, capsys):
    impl, spec = late_b_ripple16()
    (tmp_path / "impl.bench").write_text(write_netlist(impl))
    (tmp_path / "spec.bench").write_text(write_netlist(spec))
    late = ",".join(f"{pi}:1" for pi in spec.primary_inputs if pi.startswith("b"))
    tracer = load_spans(monkeypatch).Tracer()
    tracer.install()
    try:
        code = main(
            ["verify", str(tmp_path / "impl.bench"), str(tmp_path / "spec.bench"), "--arrivals", late]
        )
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert tracer.missing == []
    self_s, counts = tracer.take()
    assert self_s["itcl.apply_itcl"] > 0
    # the counts of the straight-line front end (tests/reference.py)
    pinned = {
        "netlist.gates": 994,
        "checks.violations": 0,  # balanced for its --arrivals schedule
        "mcid.gates": 850,
        "mcid.duplicated": 0,
        "itcl.pins": 33,
        "miter.aig_nodes": 146,
    }
    assert {k: counts[k] for k in pinned} == pinned


def test_tracer_sees_one_simulation_in_a_swept_verify(tmp_path, monkeypatch, capsys):
    (tmp_path / "impl.bench").write_text(write_netlist(sfqify(kogge_stone_adder(16))))
    (tmp_path / "spec.bench").write_text(write_netlist(ripple_adder(16)))
    tracer = load_spans(monkeypatch).Tracer()
    tracer.install()
    try:
        code = main(["verify", str(tmp_path / "impl.bench"), str(tmp_path / "spec.bench")])
    finally:
        tracer.uninstall()
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert "method sweep" in out
    assert tracer.missing == []
    _, counts = tracer.take()
    assert counts["miter.method_sweep"] == 1
    assert counts["aig.evaluate_calls"] == 1  # one simulation per decision
