"""The benchmark tracer (perfbench/spans.py) wraps casimir functions by
module attribute name. A renamed attribute would turn its per-layer metrics
into nulls without any error, so every traced name must resolve."""

import importlib.util
from pathlib import Path

import casimir
import casimir.cli  # the benchmark worker imports these two as well
import casimir.toy

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    tracer = _load_spans().Tracer()
    before = casimir.plane.lifshitz_integrand
    tracer.install(casimir)
    try:
        assert tracer.absent == {}
    finally:
        tracer.uninstall()
    assert casimir.plane.lifshitz_integrand is before
