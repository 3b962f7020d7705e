"""Benchmark of the casimir package: two cold-start energy workloads.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs from the root of a checkout of the repository and imports casimir from
its ``src``. Every pass of a workload runs in a fresh interpreter (see
worker.py) with one BLAS thread and CASIMIR_THREADS unset, so sweeps run in
sequence. Passes repeat until ``--seconds`` is used up (at least one runs).

With ``--trace 0`` a run also spawns interpreters that stop where the first
case would start, until it has SETUP_SAMPLES set-up times, and reports per
workload:

- norm_wall_s: time to finish every case of the workload, one after
  another, with the host's speed divided out. Each case's time is scaled by
  REF_NOMINAL_S over the time of a fixed reference taken right before it
  (worker.reference_s), and the case enters at the shortest of these among
  the run's passes (a capped case that runs out enters at its cap, as
  measured). On the 2-vCPU host this was written on, the same work runs up
  to 1.7x slower or faster for stretches of seconds to minutes. Over sets
  of ten one-minute runs, the quartiles of the plain per-case best lay 10 to
  23 % of the median apart, those of the scaled one 4 to 16 %. The summary
  also gives wall_s, the same sum without the scaling, and the median and
  quartiles of whole passes;
- setup_s: the median time from spawning the interpreter to the first case
  (start-up, ``import casimir`` and input generation);
- peak_rss_mb: the highest peak resident memory (ru_maxrss) of the run's
  passes, not their median: on plane_toy a pass peaks at either
  about 364 or about 390 MB, apparently at random;
- cases_failed_frac: failed cases over attempted cases, in the summary
  only (it is 0 on plane_toy). A case fails if it raises, exceeds its
  cap or fails a correctness check.

With ``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics of spans.PER_LAYER are reported, with trace.overhead_frac comparing
norm_wall_s of the two kinds of pass.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. ``failed`` counts cases that raised or failed
a check; a capped case that runs out counts in cases_failed_frac, not in
``failed``. The lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 10
# a workload run ends within this many seconds, whatever happens to its workers
RUN_LIMIT_S = 170.0
FAILED = ("error", "not_converged", "check_failed")
UNITS = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# case times are scaled to a host on which the reference takes this long
REF_NOMINAL_S = 0.002


def worker_env():
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    env.pop("CASIMIR_THREADS", None)
    env.pop("PYTHONPATH", None)
    return env


def spawn(workload, seed, deadline, *flags):
    """Run one worker, killed at ``deadline``; returns (its JSON output or
    None, setup_s or None, error text)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    # perf_counter is CLOCK_MONOTONIC, shared with the child, so the child's
    # t_first is comparable to the spawn time taken here
    t_spawn = time.perf_counter()
    timeout = max(deadline - t_spawn, 1.0)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=worker_env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, None, f"worker killed after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, None, proc.stderr.strip()[-2000:] or f"exit {proc.returncode}"
    try:
        out = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, None, f"unreadable worker output: {lines[-1][:200]}"
    return out, out["t_first"] - t_spawn, ""


def best_wall(case_times):
    """Sum over the cases of each case's shortest time among the passes."""
    return sum(min(times) for times in case_times.values())


def normalized_s(rec):
    """A case's time on a host where the reference takes REF_NOMINAL_S; a
    capped case that ran out stays at its cap, which is wall-clock time."""
    if rec["status"] == "exceeded":
        return rec["s"]
    return rec["s"] * REF_NOMINAL_S / rec["ref_s"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class Run:
    """Samples and case outcomes of one workload run."""

    def __init__(self, workload, seed):
        self.workload = workload
        cases = workloads.make_inputs(workload, seed)
        self.expected_digest = workloads.digest(cases)
        self.part_of = {c["id"]: c["part"] for c in cases}
        self.n_cases = len(cases)
        self.samples = {"wall_s": [], "setup_s": [], "peak_rss_mb": []}
        self.traced_wall = []
        self.case_norm = {}
        self.traced_case_norm = {}
        self.layers = []
        self.attempted = self.failed = self.exceeded = 0
        self.correct = True
        self.case_times = {}
        self.case_status = {}
        self.failed_checks = []
        self.errors = []
        self.env = None
        self.self_times = None
        self.absent = {}

    def add(self, out, setup_s, error, traced=False):
        if out is None:
            self.correct = False
            self.errors.append(error)
            self.attempted += self.n_cases
            self.failed += self.n_cases
            return
        if out["digest"] != self.expected_digest:
            self.correct = False
            self.errors.append("worker inputs differ from the inputs of the same seed")
        if traced:
            self.traced_wall.append(out["wall_s"])
        else:
            self.samples["setup_s"].append(setup_s)
            if "cases" not in out:
                return
            self.samples["wall_s"].append(out["wall_s"])
            self.samples["peak_rss_mb"].append(out["peak_rss_mb"])
        norm = self.traced_case_norm if traced else self.case_norm
        for rec in out["cases"]:
            self.attempted += 1
            norm.setdefault(rec["id"], []).append(normalized_s(rec))
            if not traced:
                self.case_times.setdefault(rec["id"], []).append(rec["s"])
            self.case_status.setdefault(rec["id"], set()).add(rec["status"])
            if rec["status"] in FAILED:
                self.failed += 1
                self.correct = False
                if rec["detail"]:
                    self.errors.append(f"{rec['id']}: {rec['detail']}")
            elif rec["status"] == "exceeded":
                self.exceeded += 1
        self.failed_checks += [c for c in out["checks"] if not c["passed"]]
        self.env = out["env"]
        if traced:
            self.layers.append(out["layers"])
            self.self_times = out["self_times"]
            self.absent = out["absent"]

    def metrics(self, trace):
        if trace:
            import spans

            values = spans.median_metrics(self.layers)
            values["trace.overhead_frac"] = (
                best_wall(self.traced_case_norm) / best_wall(self.case_norm) - 1.0)
            return {name: {"value": values[name], "unit": unit}
                    for name, unit, _, _ in spans.PER_LAYER}
        values = {"norm_wall_s": best_wall(self.case_norm),
                  "setup_s": statistics.median(self.samples["setup_s"]),
                  "peak_rss_mb": max(self.samples["peak_rss_mb"])}
        return {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}

    def summary(self, trace):
        lines = [f"workload {self.workload}"]
        if self.env:
            e = self.env
            threads = " ".join(f"{k}={v}" for k, v in e["threads"].items())
            lines.append(f"  env: python {e['python']}, numpy {e['numpy']}, scipy "
                         f"{e['scipy']}, blas {e['blas']}; {threads}; nproc "
                         f"{e['nproc']} ({e['cpus_allowed']} allowed)")
        lines.append(f"  {'metric':<18} {'unit':<5} {'median':>12} {'q1':>12} "
                     f"{'q3':>12} {'n':>3}")
        series = {"pass_wall_s": self.samples["wall_s"],
                  "setup_s": self.samples["setup_s"],
                  "peak_rss_mb": self.samples["peak_rss_mb"]}
        if trace:
            series["traced_pass_s"] = self.traced_wall
        for name, vals in series.items():
            if vals:
                q1, q3 = quartiles(vals)
                lines.append(f"  {name:<18} {UNITS.get(name, 's'):<5} "
                             f"{statistics.median(vals):12.6g} {q1:12.6g} "
                             f"{q3:12.6g} {len(vals):3d}")
        n = len(self.samples["wall_s"])
        for name, per_case in (("wall_s", self.case_times),
                               ("norm_wall_s", self.case_norm)):
            lines.append(f"  {name:<18} {'s':<5} {best_wall(per_case):12.6g}"
                         f"   (best of {n} passes per case)")
            for part in workloads.PARTS[self.workload]:
                times = {c: t for c, t in per_case.items() if self.part_of[c] == part}
                if times:
                    lines.append(f"    part {part:<14} {best_wall(times):12.6g}")
        frac = (self.failed + self.exceeded) / self.attempted if self.attempted else 0.0
        lines.append(f"  {'cases_failed_frac':<18} {'frac':<5} {frac:12.6g}   "
                     f"({self.failed} failed + {self.exceeded} exceeded of "
                     f"{self.attempted} cases)")
        for cid, times in self.case_times.items():
            status = ",".join(sorted(self.case_status[cid]))
            lines.append(f"  case {cid:<32} {status:<14} median "
                         f"{statistics.median(times):.4f} s, best {min(times):.4f} s, "
                         f"best scaled {min(self.case_norm[cid]):.4f} s")
        for c in self.failed_checks:
            lines.append(f"  FAILED CHECK {c['name']}: {c['detail']}")
        for err in self.errors:
            lines.append(f"  ERROR {err}")
        if trace and self.self_times:
            for part, own in self.self_times.items():
                lines.append(f"  self time by layer, traced pass, part {part}:")
                lines += [f"    {g:<24} {s:10.4f} s" for g, s in own]
            for key, why in self.absent.items():
                lines.append(f"  ABSENT {key}: {why}")
            values = self.metrics(trace)
            lines += [f"  {n:<30} {v['value']!s:>14} {v['unit']}"
                      for n, v in values.items()]
        return lines


def run_workload(workload, seed, seconds, trace):
    run = Run(workload, seed)
    start = time.perf_counter()
    limit = start + RUN_LIMIT_S
    durations = []

    def sample_setup(share):
        # set-up-only spawns spread over the run, so that set-up time is
        # sampled across the same stretch of machine time as the passes
        while not trace and len(run.samples["setup_s"]) < SETUP_SAMPLES * share:
            result = spawn(workload, seed, limit, "--setup-only")
            run.add(*result)
            if result[0] is None:
                break

    while True:
        t0 = time.perf_counter()
        run.add(*spawn(workload, seed, limit))
        if trace:
            run.add(*spawn(workload, seed, limit, "--trace"), traced=True)
        durations.append(time.perf_counter() - t0)
        if not run.samples["wall_s"] or (trace and not run.layers):
            break
        sample_setup(min(1.0, (time.perf_counter() - start) / seconds))
        if time.perf_counter() + statistics.median(durations) > start + seconds:
            break
    sample_setup(1.0)
    return run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind, so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "casimir" / "__init__.py").is_file():
        print(f"no casimir sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    runs = []
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if not run.samples["wall_s"] or (args.trace and not run.layers):
            print(f"{name}: no pass finished", *run.errors, sep="\n", file=sys.stderr)
            return 1
        runs.append(run)
        print("\n".join(run.summary(bool(args.trace))), flush=True)

    metrics = {}
    for run in runs:
        prefix = "" if len(runs) == 1 else run.workload + "."
        metrics.update({prefix + k: v for k, v in run.metrics(bool(args.trace)).items()})
    print(json.dumps({
        "correct": all(r.correct for r in runs),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
