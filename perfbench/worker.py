"""One pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only]

Imports casimir from the checkout's ``src``, builds the workload's inputs
from the seed, runs every case one after another, checks the results and
prints one JSON line. Right before each case it times a fixed reference
(see reference_s), outside the case's own time. Each pass runs in its own interpreter because the
package's caches (Gauss-Legendre nodes, translation coefficients) start cold
in every ``casimir`` command-line run. ``--setup-only`` stops where the first
case would start, to sample set-up time cheaply.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "CASIMIR_THREADS")
# the reference: a pure-Python loop of REF_LOOPS additions, then the
# eigenvalues of a fixed REF_N x REF_N matrix (about 2 ms in all)
REF_LOOPS = 20_000
REF_N = 60


class CapExceeded(Exception):
    """A capped case ran past its wall-clock cap."""


def _on_alarm(signum, frame):
    raise CapExceeded


def import_casimir():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import casimir
    import casimir.cli
    import casimir.toy

    if not Path(casimir.__file__).resolve().is_relative_to(src):
        raise ImportError(f"casimir imported from {casimir.__file__}, not {src}")
    return casimir


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k, "unset") for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
    }


def reference_s(matrix):
    """Shortest of three timings of a fixed piece of interpreter and LAPACK
    work that uses no casimir code. The host slows it down when it slows
    the cases down, so a case's time over this one divides most of the
    host's momentary speed out; less so for vectorised numpy code, which the
    host slows less than it slows this reference."""
    import numpy

    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(REF_LOOPS):
            total += i
        numpy.linalg.eigvals(matrix)
        best = min(best, time.perf_counter() - t0)
    return best


def run_cases(api, cases, tracer=None):
    """Run the cases in order. Returns (records, results, metas, wall_s):
    one record per case (with the reference time taken right before it),
    (value, metadata) by id for the cases that returned, (kind, metadata) of
    those cases, and the summed case time with a capped case that ran out
    entered at its cap."""
    import numpy

    matrix = numpy.random.default_rng(0).standard_normal((REF_N, REF_N))
    records, results, metas = [], {}, []
    wall = 0.0
    for case in cases:
        cap = case.get("cap_s")
        mark = tracer.checkpoint() if tracer else None
        status, detail = "ok", ""
        ref_s = reference_s(matrix)
        t0 = time.perf_counter()
        try:
            try:
                if cap:
                    signal.setitimer(signal.ITIMER_REAL, cap)
                value, meta = workloads.run_case(api, case)
            finally:
                if cap:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except CapExceeded:
            status, detail = "exceeded", f"cap {cap:g} s"
        except api.NotConverged as exc:
            status, detail = "not_converged", str(exc)
        except Exception as exc:  # a case that raises fails; the pass goes on
            status, detail = "error", f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if status == "exceeded":
            elapsed = cap
            if tracer:
                tracer.rollback(mark)
        elif status == "ok":
            results[case["id"]] = (value, meta)
            metas.append((case["kind"], meta))
        wall += elapsed
        records.append({"id": case["id"], "status": status, "s": elapsed,
                        "ref_s": ref_s, "detail": detail})
    return records, results, metas, wall


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    api = import_casimir()
    cases = workloads.make_inputs(args.workload, args.seed)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install(api)
    t_first = time.perf_counter()
    out = {"digest": workloads.digest(cases), "t_first": t_first}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    records, results, metas, wall = [], {}, [], 0.0
    part_spans = {}
    for part in workloads.PARTS[args.workload]:
        first = len(tracer.spans) if tracer else 0
        r, res, m, w = run_cases(api, [c for c in cases if c["part"] == part], tracer)
        records += r
        results.update(res)
        metas += m
        wall += w
        part_spans[part] = (first, len(tracer.spans) if tracer else 0)
    checks = workloads.check(api, cases, results)
    failed_ids = {i for _, passed, ids, _ in checks if not passed for i in ids}
    for rec in records:
        if rec["status"] == "ok" and rec["id"] in failed_ids:
            rec["status"] = "check_failed"
    out.update(
        wall_s=wall,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        cases=records,
        checks=[{"name": n, "passed": p, "detail": d} for n, p, _, d in checks],
        env=environment(),
    )
    if tracer:
        tracer.uninstall()
        traced_wall = sum(r["s"] for r in records if r["status"] != "exceeded")
        out["layers"] = spans.layer_metrics(tracer, metas, traced_wall, args.workload)
        out["self_times"] = {
            part: sorted(spans.self_times(spans.slice_spans(tracer.spans, a, b)).items(),
                         key=lambda kv: -kv[1])
            for part, (a, b) in part_spans.items()}
        out["absent"] = tracer.absent
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
