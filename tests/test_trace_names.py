"""The benchmark tracer (perfbench/spans.py) wraps casimir functions by
module attribute name and reads per-layer numbers from EnergyResult
metadata. A renamed attribute, a changed signature or a changed metadata
key would turn those metrics into nulls without any error, so every traced
name must resolve and a few benchmark cases must feed the whole trace."""

import importlib.util
import time
from pathlib import Path

import casimir
import casimir.cli  # the benchmark worker imports these two as well
import casimir.toy

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """A perfbench module, loaded read-only from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    tracer = _load("spans").Tracer()
    before = casimir.plane.lifshitz_integrand
    tracer.install(casimir)
    try:
        assert tracer.absent == {}
    finally:
        tracer.uninstall()
    assert casimir.plane.lifshitz_integrand is before


def test_benchmark_cases_feed_the_trace():
    spans, workloads = _load("spans"), _load("workloads")
    ids = {"plane/ideal/L=1e-06", "sphere/pec/LR=50/lmax=1", "sphere/pec/LR=12"}
    cases = [c for name in ("plane_toy", "spheres")
             for c in workloads.make_inputs(name, 7) if c["id"] in ids]
    assert {c["id"] for c in cases} == ids
    tracer = spans.Tracer()
    tracer.install(casimir)
    try:
        metas = [(c["kind"], workloads.run_case(casimir, c)[1]) for c in cases]
    finally:
        tracer.uninstall()
    assert tracer.absent == {}
    _, seen = spans.meta_metrics(metas)
    assert seen == {"plane.meta", "sphere.meta"}


def test_cold_sphere_cases_leave_no_metric_null():
    # a group of the spheres workload that is traced but never called
    # reports null; with a cold coefficient cache every sphere layer,
    # including the 3j symbols, must be reached
    spans, workloads = _load("spans"), _load("workloads")
    casimir.sphere._axial_coeff_tensors.cache_clear()
    ids = {"sphere/pec/LR=12", "sphere/pec/LR=50/lmax=1"}
    cases = [c for c in workloads.make_inputs("spheres", 7) if c["id"] in ids]
    assert {c["id"] for c in cases} == ids
    tracer = spans.Tracer()
    tracer.install(casimir)
    t0 = time.perf_counter()
    try:
        metas = [(c["kind"], workloads.run_case(casimir, c)[1]) for c in cases]
    finally:
        tracer.uninstall()
    layers = spans.layer_metrics(tracer, metas, time.perf_counter() - t0, "spheres")
    assert [name for name, value in layers.items() if value is None] == []
    assert layers["sphere.wigner3j.calls"] > 0
