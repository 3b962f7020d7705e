"""Tests of the benchmark's own arithmetic and inputs.

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# [group, parent, start, end]:  a(0-10) > b(1-4) > c(2-3);  a > d(5-9);  e(12-13)
SYNTHETIC = [
    ["a", -1, 0.0, 10.0],
    ["b", 0, 1.0, 4.0],
    ["c", 1, 2.0, 3.0],
    ["d", 0, 5.0, 9.0],
    ["e", -1, 12.0, 13.0],
]


def test_self_times_subtract_direct_children():
    assert spans.self_times(SYNTHETIC) == {"a": 3.0, "b": 2.0, "c": 1.0, "d": 4.0,
                                           "e": 1.0}


def test_slice_rebases_parents():
    both = SYNTHETIC + [["f", 4, 12.25, 12.5]]
    assert spans.slice_spans(both, 0, 4) == SYNTHETIC[:4]
    tail = spans.slice_spans(both, 4, 6)
    assert tail == [["e", -1, 12.0, 13.0], ["f", 0, 12.25, 12.5]]
    assert spans.self_times(tail) == {"e": 0.75, "f": 0.25}


def test_self_times_sum_to_top_level_time():
    assert sum(spans.self_times(SYNTHETIC).values()) == spans.top_level_time(SYNTHETIC)
    assert spans.top_level_time(SYNTHETIC) == 11.0


def test_inclusive_time_counts_nested_same_group_once():
    nested = [["a", -1, 0.0, 10.0], ["b", 0, 1.0, 8.0], ["a", 1, 2.0, 5.0],
              ["a", -1, 20.0, 21.0]]
    assert spans.inclusive_times(nested) == {"a": 11.0, "b": 7.0}
    assert spans.self_times(nested) == {"a": 7.0, "b": 4.0}


def _fake_clock(step=1.0):
    t = [0.0]

    def clock():
        t[0] += step
        return t[0]

    return clock


def test_tracer_records_parents_and_rolls_back():
    tracer = spans.Tracer(clock=_fake_clock())
    inner = tracer.timed("inner", lambda x: x + 1)
    outer = tracer.timed("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert [(g, p) for g, p, _, _ in tracer.spans] == [("outer", -1), ("inner", 0)]
    # outer spans 1..4, inner 2..3
    assert spans.self_times(tracer.spans) == {"outer": 2.0, "inner": 1.0}
    mark = tracer.checkpoint()
    tracer.counted("k", lambda: None)()
    outer(0)
    tracer.rollback(mark)
    assert len(tracer.spans) == 2 and "k.calls" not in tracer.sums


def test_tracer_closes_span_when_call_raises():
    tracer = spans.Tracer(clock=_fake_clock())

    def boom():
        raise ValueError

    with pytest.raises(ValueError):
        tracer.timed("boom", boom)()
    assert tracer.spans == [["boom", -1, 1.0, 2.0]] and not tracer._stack


def test_uncalled_group_is_absent_only_in_its_home_workload():
    tracer = spans.Tracer()
    home = spans.layer_metrics(tracer, [], 1.0, "plane_toy")
    other = spans.layer_metrics(tracer, [], 1.0, "spheres")
    assert home["scattering.star.calls"] is None
    assert other["scattering.star.calls"] == 0
    tracer.absent["scattering.star"] = "scattering.star is missing"
    assert spans.layer_metrics(tracer, [], 1.0, "spheres")[
        "scattering.star.s"] is None


def test_install_marks_missing_attribute_absent():
    import types

    pkg = types.SimpleNamespace(toy=types.SimpleNamespace(cavity=lambda: 1))
    tracer = spans.Tracer()
    tracer.install(pkg)
    assert tracer.absent["toy.dos"] == "toy._dos_rel is missing"
    assert pkg.toy.cavity() == 1 and tracer.spans[0][0] == "toy.cavity"
    tracer.uninstall()
    pkg.toy.cavity()
    assert len(tracer.spans) == 1


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_inputs(name):
    parts = [c["part"] for c in workloads.make_inputs(name, 0)]
    assert list(dict.fromkeys(parts)) == list(workloads.PARTS[name])
    assert parts == sorted(parts, key=workloads.PARTS[name].index)
    for seed in (0, 1, 12345):
        a, b = workloads.make_inputs(name, seed), workloads.make_inputs(name, seed)
        assert a == b and workloads.digest(a) == workloads.digest(b)
    digests = {workloads.digest(workloads.make_inputs(name, s)) for s in range(20)}
    assert len(digests) == 20


def test_jitter_keeps_the_work_per_case():
    sys.path.insert(0, str(HERE.parent / "src"))
    from casimir import PerfectMirror, SphereSystem

    default_lmax = {3.0: 10, 2.2: 50}
    for seed in range(50):
        for case in workloads.make_inputs("spheres", seed):
            nominal = float(case["id"].split("LR=")[1].split("/")[0])
            assert 1 <= case["L"] / (nominal * workloads.R_SPHERE) < 1.01
            if "lmax" not in case:
                system = SphereSystem(workloads.R_SPHERE, workloads.R_SPHERE, case["L"],
                                      PerfectMirror(), PerfectMirror())
                assert system.default_lmax() == default_lmax.get(nominal, 5)
        plane = workloads.make_inputs("plane_toy", seed)
        gold = plane[0]["material"]
        assert abs(gold["omega_p"] / workloads.GOLD["omega_p"] - 1) <= 0.005
        assert abs(gold["gamma"] / workloads.GOLD["gamma"] - 1) <= 0.005
    verify = workloads.make_inputs("plane_toy", 7)[-1]
    assert verify["kind"] == "verify" and verify["seed"] == 7


def test_worker_inputs_match_parent_inputs():
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", "spheres",
         "--seed", "3", "--setup-only"], capture_output=True, text=True, timeout=60,
        check=True)
    reported = json.loads(out.stdout.strip().splitlines()[-1])["digest"]
    assert reported == workloads.digest(workloads.make_inputs("spheres", 3))


def test_capped_case_is_exceeded_at_its_cap(monkeypatch):
    def slow(api, case):
        end = time.perf_counter() + 5
        while time.perf_counter() < end:
            pass

    class Api:
        NotConverged = RuntimeError

    monkeypatch.setattr(worker.workloads, "run_case", slow)
    import signal

    old = signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        records, results, _, wall = worker.run_cases(
            Api(), [{"id": "slow", "kind": "x", "cap_s": 0.2}])
    finally:
        signal.signal(signal.SIGALRM, old)
    assert records[0]["status"] == "exceeded" and wall == 0.2 and not results


def test_case_times_scale_by_the_reference():
    ok = {"status": "ok", "s": 1.5, "ref_s": 2 * run.REF_NOMINAL_S}
    capped = {"status": "exceeded", "s": 3.0, "ref_s": 2 * run.REF_NOMINAL_S}
    assert run.normalized_s(ok) == 0.75 and run.normalized_s(capped) == 3.0
    assert run.best_wall({"a": [3.0, 1.0, 2.0], "b": [0.5]}) == 1.5


def test_records_carry_a_reference_time(monkeypatch):
    monkeypatch.setattr(worker.workloads, "run_case", lambda api, case: (1.0, {}))
    records, *_ = worker.run_cases(object(), [{"id": "a", "kind": "x"}])
    assert 0 < records[0]["ref_s"] < 1 and records[0]["status"] == "ok"


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == [{"name": n, "unit": u, "better": b}
                                 for n, u, b, _ in spans.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert {m["name"] for m in spec["end_to_end"]} == set(run.UNITS)
