"""The benchmark's tracer wraps every qrsmux layer it names and restores each one.

A layer renamed or removed in qrsmux fails here, instead of in a traced
benchmark run, and so does a report change that alters the lowering counts
the tracer records.
"""

import importlib.util
from pathlib import Path

from qrsmux import lowering
from qrsmux.circuit import photon_partition
from qrsmux.sumsynth import synth_sum

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_every_layer():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patched = list(tracer._patched)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr


def test_tracer_lowering_counts_equal_gate_by_gate_counts():
    c = synth_sum(137)
    want = {"lowering.lower_circuit.fallback_gates": 0, "lowering.lower_circuit.gadgets": 0,
            "lowering.report_rows.rows": 0}
    for name in lowering.STRATEGY_NAMES:
        want["lowering.report_rows.rows"] += len(c)
        if name != lowering.MULTIPLEXED:
            continue
        for g in c.gates:
            if g.kind == "MCX":
                gadget, _, fell_back = lowering.lower_multiplexed(g, photon_partition(c, g))
                want["lowering.lower_circuit.fallback_gates"] += fell_back
                want["lowering.lower_circuit.gadgets"] += gadget is not None and g.arity >= 2
    assert all(want.values())

    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        with tracer.job("contract"):
            for name in lowering.STRATEGY_NAMES:
                lowering.report_rows(lowering.lower_circuit(c, lowering.Strategy(name)))
    finally:
        tracer.uninstall()
    counts = tracer.summary()["counts"]
    assert {key: counts[key] for key in want} == want
