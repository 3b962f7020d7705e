"""Span tracer for the traced benchmark pass.

Calls into casimir's modules are timed from outside the package: the tracer
replaces the module attributes that callers look up (for example
``sphere.log_det_one_minus``, which ``sphere`` imported by name) with
wrappers that record a span per call. Spans stay in memory as
``[group, parent index, start, end]``; the per-layer metrics are computed
from them after the pass. Only the traced pass imports this module, so the
end-to-end numbers depend on none of the wrapped names.

A wrapped name that is missing, or that is never called in a workload meant
to exercise it, is reported as absent (value ``None``), never as zero.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict

# group -> attributes wrapped, as "<module>.<name>" relative to the package
TIMED = {
    "core.gl_nodes": ["plane.gauss_legendre_01", "core.gauss_legendre_01",
                      "toy.gauss_legendre_01"],
    "core.quad": ["sphere.integrate_semiinfinite"],
    "core.logdet": ["sphere.log_det_one_minus"],
    "plane.integrand": ["plane.lifshitz_integrand"],
    "plane.real_axis": ["plane._real_axis_channel_values"],
    "materials.eps": ["plane.eps_imag_axis", "plane.eps_real_axis",
                      "sphere.eps_imag_axis"],
    "sphere.coeff": ["sphere._axial_coeff_tensors"],
    "sphere.mie": ["sphere._mie_scaled"],
    "sphere.roundtrip": ["sphere._round_trip_logdet_sum"],
    "spherical_bessel": ["sphere.sk_array", "sphere.riccati_si",
                         "sphere.riccati_sk"],
    "scattering.star": ["scattering.star", "toy.star"],
    "scattering.smatrix": ["scattering.ScatteringMatrix.__post_init__"],
    "scattering.phase_match": ["toy.matched_phase_increment"],
    "blockmat.dilation": ["blockmat.unitary_dilation"],
    "blockmat.logdet": ["blockmat.logdet", "scattering.logdet"],
    "toy.cavity": ["toy.cavity"],
    "toy.dos": ["toy._dos_rel"],
    "toy.phase_profile": ["toy.phase_profile"],
    "cli.verify": ["cli.main"],
}
# counted, not timed: too many calls for a span each
COUNTED = {"sphere.wigner3j": ["sphere.wigner3j"]}

# group -> the workload meant to exercise it
HOMES = {
    "core.gl_nodes": "plane_toy",
    "core.quad": "spheres",
    "core.logdet": "spheres",
    "plane.integrand": "plane_toy",
    "plane.real_axis": "plane_toy",
    "plane.meta": "plane_toy",
    "materials.eps": "plane_toy",
    "sphere.coeff": "spheres",
    "sphere.wigner3j": "spheres",
    "sphere.mie": "spheres",
    "sphere.roundtrip": "spheres",
    "sphere.meta": "spheres",
    "spherical_bessel": "spheres",
    "scattering.star": "plane_toy",
    "scattering.smatrix": "plane_toy",
    "scattering.phase_match": "plane_toy",
    "blockmat.dilation": "plane_toy",
    "blockmat.logdet": "plane_toy",
    "toy.cavity": "plane_toy",
    "toy.dos": "plane_toy",
    "toy.phase_profile": "plane_toy",
    "cli.verify": "plane_toy",
}

# name, unit, better, (source, group[, key])
#   calls: spans of the group; s: time inside the group's calls (a call
#   nested in a call of the same group counts once); self_s: that time minus
#   the time of the spans nested in it; sum: a total kept by a hook; meta:
#   from the EnergyResult metadata of the pass's cases
PER_LAYER = [
    ("core.gl_nodes.calls", "count", "lower", ("calls", "core.gl_nodes")),
    ("core.gl_nodes.s", "s", "lower", ("s", "core.gl_nodes")),
    ("core.quad.passes", "count", "lower", ("sum", "core.quad", "passes")),
    ("core.quad.nodes", "count", "lower", ("sum", "core.quad", "nodes")),
    ("core.logdet.calls", "count", "lower", ("calls", "core.logdet")),
    ("core.logdet.s", "s", "lower", ("s", "core.logdet")),
    ("core.logdet.mean_n", "rows", "lower", ("mean", "core.logdet", "rows")),
    ("plane.integrand.calls", "count", "lower", ("calls", "plane.integrand")),
    ("plane.integrand.s", "s", "lower", ("s", "plane.integrand")),
    ("plane.integrand.points", "count", "lower",
     ("sum", "plane.integrand", "points")),
    ("plane.order_max", "count", "lower", ("meta", "plane.meta", "order_max")),
    ("plane.doublings", "count", "lower", ("meta", "plane.meta", "doublings")),
    ("plane.real_axis.evals", "count", "lower", ("sum", "plane.real_axis", "evals")),
    ("plane.real_axis.s", "s", "lower", ("s", "plane.real_axis")),
    ("materials.eps.calls", "count", "lower", ("calls", "materials.eps")),
    ("materials.eps.s", "s", "lower", ("s", "materials.eps")),
    ("sphere.coeff.calls", "count", "lower", ("calls", "sphere.coeff")),
    ("sphere.coeff.misses", "count", "lower", ("sum", "sphere.coeff", "misses")),
    ("sphere.coeff.s", "s", "lower", ("s", "sphere.coeff")),
    ("sphere.coeff.bytes_computed", "B", "lower",
     ("sum", "sphere.coeff", "bytes_computed")),
    ("sphere.wigner3j.calls", "count", "lower", ("calls", "sphere.wigner3j")),
    ("sphere.mie.calls", "count", "lower", ("calls", "sphere.mie")),
    ("sphere.mie.s", "s", "lower", ("s", "sphere.mie")),
    ("sphere.roundtrip.calls", "count", "lower", ("calls", "sphere.roundtrip")),
    ("sphere.roundtrip.self_s", "s", "lower", ("self_s", "sphere.roundtrip")),
    ("sphere.lmax_passes", "count", "lower", ("meta", "sphere.meta", "lmax_passes")),
    ("sphere.lmax_final", "count", "lower", ("meta", "sphere.meta", "lmax_final")),
    ("spherical_bessel.calls", "count", "lower", ("calls", "spherical_bessel")),
    ("spherical_bessel.s", "s", "lower", ("s", "spherical_bessel")),
    ("scattering.star.calls", "count", "lower", ("calls", "scattering.star")),
    ("scattering.star.s", "s", "lower", ("s", "scattering.star")),
    ("scattering.smatrix.builds", "count", "lower", ("calls", "scattering.smatrix")),
    ("scattering.smatrix.s", "s", "lower", ("s", "scattering.smatrix")),
    ("scattering.phase_match.calls", "count", "lower",
     ("calls", "scattering.phase_match")),
    ("scattering.phase_match.s", "s", "lower", ("s", "scattering.phase_match")),
    ("blockmat.dilation.calls", "count", "lower", ("calls", "blockmat.dilation")),
    ("blockmat.dilation.s", "s", "lower", ("s", "blockmat.dilation")),
    ("blockmat.logdet.calls", "count", "lower", ("calls", "blockmat.logdet")),
    ("blockmat.logdet.s", "s", "lower", ("s", "blockmat.logdet")),
    ("toy.cavity.calls", "count", "lower", ("calls", "toy.cavity")),
    ("toy.cavity.s", "s", "lower", ("s", "toy.cavity")),
    ("toy.dos.s", "s", "lower", ("s", "toy.dos")),
    ("toy.phase_profile.s", "s", "lower", ("s", "toy.phase_profile")),
    ("cli.verify.s", "s", "lower", ("s", "cli.verify")),
    ("trace.coverage", "frac", "higher", ("trace", None)),
    ("trace.overhead_frac", "frac", "lower", ("trace", None)),
]


def self_times(spans):
    """Self time per group: each span's duration minus the durations of the
    spans whose parent it is."""
    out = defaultdict(float)
    for group, parent, t0, t1 in spans:
        out[group] += t1 - t0
        if parent >= 0:
            out[spans[parent][0]] -= t1 - t0
    return dict(out)


def slice_spans(spans, start, end):
    """spans[start:end], whole call trees, with parent indices rebased."""
    return [[g, p - start if p >= start else -1, t0, t1]
            for g, p, t0, t1 in spans[start:end]]


def inclusive_times(spans):
    """Time inside each group's calls; a span with an ancestor of the same
    group is already inside that ancestor and is not added again."""
    out = defaultdict(float)
    for group, parent, t0, t1 in spans:
        p = parent
        while p >= 0 and spans[p][0] != group:
            p = spans[p][1]
        if p < 0:
            out[group] += t1 - t0
    return dict(out)


def top_level_time(spans):
    """Time covered by spans that have no parent; equals the sum of all self
    times."""
    return sum(t1 - t0 for _, parent, t0, t1 in spans if parent < 0)


def _resolve(package, dotted):
    """(owner object, attribute name) for "<module>[.<Class>].<name>"."""
    *path, attr = dotted.split(".")
    owner = package
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


# hooks: (sums, args, result) -> None; they record work counts next to spans
def _quad_hook(sums, args, out):
    history = out[2]
    sums["core.quad.passes"] += len(history)
    sums["core.quad.nodes"] += sum(order for order, _ in history)


def _logdet_hook(sums, args, out):
    sums["core.logdet.rows"] += len(args[0])


def _integrand_hook(sums, args, out):
    sums["plane.integrand.points"] += out.size


def _real_axis_hook(sums, args, out):
    sums["plane.real_axis.evals"] += out.size


HOOKS = {
    "core.quad": _quad_hook,
    "core.logdet": _logdet_hook,
    "plane.integrand": _integrand_hook,
    "plane.real_axis": _real_axis_hook,
}


class Tracer:
    """Wraps casimir's module attributes and records a span per call."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.sums = defaultdict(float)
        # reason, by group (all its metrics) or by "<group>.sums" (the
        # metrics its hook keeps)
        self.absent = {}
        self._stack = []
        self._undo = []

    def timed(self, group, fn, hook=None):
        spans, stack, clock, sums = self.spans, self._stack, self.clock, self.sums

        def wrapper(*args, **kwargs):
            span = [group, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                try:
                    hook(sums, args, out)
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    self.absent.setdefault(group + ".sums", f"hook failed: {exc!r}")
            return out

        return wrapper

    def counted(self, group, fn):
        sums = self.sums
        key = group + ".calls"

        def wrapper(*args, **kwargs):
            sums[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _coeff_counter(self, fn):
        """Count cache misses of the lru-cached coefficient builder and the
        bytes of the tensors each miss computes."""
        info = getattr(fn, "cache_info", None)
        if info is None:
            self.absent["sphere.coeff.sums"] = "no cache_info() to count misses"
            return fn
        sums = self.sums

        def call(*args, **kwargs):
            before = info().misses
            out = fn(*args, **kwargs)
            if info().misses > before:
                sums["sphere.coeff.misses"] += 1
                sums["sphere.coeff.bytes_computed"] += sum(
                    getattr(part, "nbytes", 0) for part in out)
            return out

        return call

    def install(self, package):
        """Wrap every listed attribute of ``package`` that exists; a group
        with a missing attribute is marked absent."""
        for table, timed in ((TIMED, True), (COUNTED, False)):
            for group, names in table.items():
                for dotted in names:
                    try:
                        owner, attr = _resolve(package, dotted)
                        fn = getattr(owner, attr)
                    except AttributeError:
                        self.absent[group] = f"{dotted} is missing"
                        continue
                    if not timed:
                        wrapped = self.counted(group, fn)
                    elif group == "sphere.coeff":
                        wrapped = self.timed(group, self._coeff_counter(fn))
                    else:
                        wrapped = self.timed(group, fn, HOOKS.get(group))
                    self._undo.append((owner, attr, fn))
                    setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def checkpoint(self):
        return len(self.spans), dict(self.sums)

    def rollback(self, mark):
        """Forget everything recorded since ``mark`` (a case cut off by its
        wall-clock cap, whose counts depend on where the cap struck)."""
        n, sums = mark
        del self.spans[n:]
        self.sums.clear()
        self.sums.update(sums)
        self._stack.clear()


def meta_metrics(metas):
    """Per-layer numbers from the metadata of the EnergyResults of a pass.

    ``metas`` lists (case kind, metadata). Returns (values, groups seen)."""
    orders = [m["orders"] for k, m in metas if k.startswith("plane") and "orders" in m]
    lhist = [m["lmax_history"] for k, m in metas if k == "sphere" and "lmax_history" in m]
    values = {
        "order_max": max((max(o) for o in orders), default=0),
        "doublings": sum(len(o) - 1 for o in orders),
        "lmax_passes": sum(len(h) for h in lhist),
        "lmax_final": max((h[-1][0] for h in lhist), default=0),
    }
    seen = set()
    if orders:
        seen.add("plane.meta")
    if lhist:
        seen.add("sphere.meta")
    return values, seen


def layer_metrics(tracer, metas, case_wall_s, workload):
    """Per-layer metrics of one traced pass, without trace.overhead_frac.

    A metric whose group is absent, or whose group is never called in a
    workload meant to exercise it, is None."""
    spans = tracer.spans
    calls = Counter(group for group, _, _, _ in spans)
    calls.update({g[: -len(".calls")]: v for g, v in tracer.sums.items()
                  if g.endswith(".calls")})
    incl = inclusive_times(spans)
    own = self_times(spans)
    meta, meta_seen = meta_metrics(metas)
    out = {}
    for name, _, _, (source, group, *key) in PER_LAYER:
        if source == "trace":
            continue
        home = HOMES.get(group) == workload
        if group in tracer.absent or (
                source in ("sum", "mean") and f"{group}.sums" in tracer.absent):
            out[name] = None
        elif source == "meta":
            out[name] = None if home and group not in meta_seen else meta[key[0]]
        elif home and not calls[group]:
            out[name] = None
        elif source == "calls":
            out[name] = calls[group]
        elif source == "s":
            out[name] = incl.get(group, 0.0)
        elif source == "self_s":
            out[name] = own.get(group, 0.0)
        elif source == "sum":
            out[name] = tracer.sums.get(f"{group}.{key[0]}", 0.0)
        elif source == "mean":
            n = calls[group]
            out[name] = tracer.sums.get(f"{group}.{key[0]}", 0.0) / n if n else 0.0
    out["trace.coverage"] = top_level_time(spans) / case_wall_s if case_wall_s else None
    return out


def median_metrics(samples):
    """Per-metric median over passes; None (absent) if any pass lacks it."""
    out = {}
    for name in samples[0]:
        vals = [s[name] for s in samples]
        out[name] = None if any(v is None for v in vals) else statistics.median(vals)
    return out
