"""The benchmark's tracer wraps every qrsmux layer it names and restores each one.

A layer renamed or removed in qrsmux fails here, instead of in a traced
benchmark run.
"""

import importlib.util
from pathlib import Path

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
