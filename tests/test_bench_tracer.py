"""The benchmark's span tracer patches library names by string; renaming
one of them must fail here rather than only inside a benchmark run."""

import importlib.util
from pathlib import Path

import lpvembed.cli
import lpvembed.factorize as fz
from lpvembed.lpv import LpvssModel, SchedulingMap
from lpvembed.sim import InputSignal

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_bench_tracer_installs_and_removes():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    before = {name: getattr(lpvembed.cli, name) for name in spans.CLI_LAYERS}
    methods = (SchedulingMap.evaluate, LpvssModel.matrices,
               InputSignal.__call__)
    integrate = fz.integrate
    tracer = spans.Tracer()
    tracer.install()
    try:
        for name, fn in before.items():
            assert getattr(lpvembed.cli, name) is not fn, name
        # the quadrature layer: the name deferred entries call
        assert fz.integrate is not integrate
    finally:
        tracer.remove()
    assert {name: getattr(lpvembed.cli, name) for name in before} == before
    assert fz.integrate is integrate
    assert (SchedulingMap.evaluate, LpvssModel.matrices,
            InputSignal.__call__) == methods
