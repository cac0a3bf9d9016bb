"""The benchmark's tracer (bench/spans.py) must still see every name it wraps.

It records per-layer spans by wrapping sfqlec functions, methods and stats
fields by name, and reports a vanished one as `bench.missing_names`.  This
test fails instead, so a rename cannot quietly blind the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

from gen import kogge_stone_adder, ripple_adder, sfqify
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
