"""Benchmark workloads: seeded inputs, the calls that run each case and the
correctness checks on their results.

Inputs are plain data (dicts of floats and strings), so the parent process
can build and fingerprint them without importing casimir; only the worker
turns them into casimir objects. The seed jitters separations (upward only,
by less than 1 %, or 0.1 % for L/R = 2.2, so the gap-based default lmax
never changes; the dipole pair at L/R = 50 is not jittered) and the Drude
parameters (by less than +-0.5 %), and sets the fixture seed of
`casimir verify`. Within those ranges every case converges at the same
quadrature orders and lmax values for every seed, so the work per case stays
comparable between seeds.

A workload runs two parts, one after the other in the same interpreter;
each part draws its inputs from its own seeded generator. Two workloads with
long runs measure steadier than four with short ones on a host whose speed
swings for tens of seconds at a time. Why each part exists:

- plane_sweep: Drude plates double up to order 2048, so Gauss-Legendre node
  generation and the Lifshitz integrand dominate; the real-axis case runs the
  complex Fresnel path with adaptive panels.
- scattering_toy: the lossy Fabry-Perot band and the `casimir verify`
  identity suite; all time is in scattering, blockmat and toy.
- sphere_sweep: every pair converges at lmax 5 -> 10, so the translation
  coefficient tensors are built once and then served from their cache; the
  time goes to log det(1 - M) and round-trip assembly. Inputs share work.
- sphere_close: close PEC pairs at lmax 20-50; no work is shared between
  cases and the coefficient build dominates. The L/R = 2.2 pair runs under a
  wall-clock cap and is recorded as `exceeded` while it does not finish.

So plane_toy runs no sphere code and spheres runs only sphere code: each
open ROADMAP item is exercised by one workload and bypassed by the other.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

GOLD = {"model": "drude", "omega_p": 1.37e16, "gamma": 5.3e13}
PEC = {"model": "perfect_mirror"}
R_SPHERE = 1e-7
# Wall-clock cap of the L/R = 2.2 pair: its default lmax starts at 50, whose
# coefficient build alone takes minutes with the Racah-sum 3j symbols.
CAP_S = 3.0

WHY = {
    "plane_toy": "plane Lifshitz sweep to order 2048 with the real-axis Fresnel "
    "path, then the lossy toy band and verify suite (star, dilation, log det); "
    "no sphere code",
    "spheres": "sphere pairs at L/R 4-50 sharing cached coefficients (log det, "
    "round trips), then close pairs at lmax 20-50 where the coefficient build "
    "dominates; L/R 2.2 capped",
}


def _up(rng, span=0.01):
    """Upward separation jitter factor in [1, 1 + span)."""
    return 1.0 + span * rng.random()


def _plane_sweep(rng, seed):
    gold = dict(GOLD)
    gold["omega_p"] *= 1.0 + 0.01 * (rng.random() - 0.5)
    gold["gamma"] *= 1.0 + 0.01 * (rng.random() - 0.5)
    plasma = {"model": "plasma", "omega_p": gold["omega_p"]}
    cases = []
    for L0 in (1e-8, 1e-7, 1e-6, 1e-5, 1e-4):
        L = L0 * _up(rng)
        for tag, mat in (("drude", gold), ("plasma", plasma), ("ideal", PEC)):
            cases.append({"id": f"plane/{tag}/L={L0:g}", "kind": "plane",
                          "material": mat, "L": L, "group": L0, "tag": tag})
    L = 2e-7 * _up(rng)
    cases.append({"id": "plane/drude/L=2e-07/imag", "kind": "plane",
                  "material": gold, "L": L, "quad": [64, 6, 1e-9]})
    cases.append({"id": "plane/drude/L=2e-07/real", "kind": "plane_real",
                  "material": gold, "L": L, "quad": [48, 2, 1e-4],
                  "omega_max": 20.0 * gold["omega_p"]})
    return cases


def _sphere_sweep(rng, seed):
    gold = dict(GOLD)
    gold["omega_p"] *= 1.0 + 0.01 * (rng.random() - 0.5)
    gold["gamma"] *= 1.0 + 0.01 * (rng.random() - 0.5)
    cases = []
    for tag, mat in (("pec", PEC), ("drude", gold)):
        for ratio in (4, 5, 6, 8, 10, 12):
            cases.append({"id": f"sphere/{tag}/LR={ratio}", "kind": "sphere",
                          "material": mat, "L": ratio * R_SPHERE * _up(rng)})
    # not jittered: at tol 1e-7 this pair's xi quadrature needs 128 to 1024
    # nodes depending on L within +1 %, which would make the work per seed
    # differ; criterion 9 uses L/R = 50 exactly
    L = 50 * R_SPHERE
    for lmax in (1, 2):
        cases.append({"id": f"sphere/pec/LR=50/lmax={lmax}", "kind": "sphere",
                      "material": PEC, "L": L, "lmax": lmax, "adaptive": False,
                      "quad": [64, 6, 1e-7]})
    return cases


def _sphere_close(rng, seed):
    L25 = 2.5 * R_SPHERE * _up(rng)
    return [
        {"id": "sphere/pec/LR=3", "kind": "sphere", "material": PEC,
         "L": 3 * R_SPHERE * _up(rng)},
        {"id": "sphere/pec/LR=2.5/lmax=24", "kind": "sphere", "material": PEC,
         "L": L25, "lmax": 24, "adaptive": False},
        {"id": "sphere/pec/LR=2.5/lmax=20", "kind": "sphere", "material": PEC,
         "L": L25, "lmax": 20, "adaptive": False},
        {"id": "sphere/pec/LR=2.2", "kind": "sphere", "material": PEC,
         # gap-based default lmax = ceil(10 R / gap) stays 50 below +0.18 %
         "L": 2.2 * R_SPHERE * _up(rng, 0.001), "cap_s": CAP_S},
    ]


def _scattering_toy(rng, seed):
    return [
        {"id": "toy/band", "kind": "toy", "L": 1e-6 * _up(rng), "r": 0.9,
         "t": 0.3, "band": [0.5, 6.0]},
        {"id": "verify", "kind": "verify", "trials": 500, "seed": seed},
    ]


BUILDERS = {
    "plane_sweep": _plane_sweep,
    "scattering_toy": _scattering_toy,
    "sphere_sweep": _sphere_sweep,
    "sphere_close": _sphere_close,
}
PARTS = {
    "plane_toy": ("plane_sweep", "scattering_toy"),
    "spheres": ("sphere_sweep", "sphere_close"),
}
NAMES = tuple(PARTS)


def make_inputs(workload, seed):
    """The cases of ``workload`` for ``seed``, each tagged with its part;
    equal seeds give equal inputs."""
    cases = []
    for part in PARTS[workload]:
        rng = random.Random(f"{part}:{int(seed)}")
        cases += [dict(case, part=part) for case in BUILDERS[part](rng, int(seed))]
    return cases


def digest(cases):
    """Fingerprint of a case list (floats enter by their exact repr)."""
    text = json.dumps(cases, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# running cases (worker side; ``api`` is the imported casimir package)
# ---------------------------------------------------------------------------

def _quad(api, spec):
    base, doublings, tol = spec
    return api.core.QuadratureSpec(base_order=base, max_doublings=doublings, tol=tol)


def run_case(api, case):
    """Run one case; returns (value, metadata) of its EnergyResult, or of the
    equivalent for the toy and verify cases."""
    kind = case["kind"]
    if kind in ("plane", "plane_real"):
        mat = api.materials.material_from_dict(case["material"])
        system = api.plane.PlaneSystem(mat, mat, api.VACUUM, case["L"])
        if kind == "plane_real":
            res = api.plane.energy_per_area_real_axis(
                system, omega_max=case["omega_max"], quad=_quad(api, case["quad"]))
        elif "quad" in case:
            res = api.plane.energy_per_area(system, _quad(api, case["quad"]))
        else:
            res = api.plane.energy_per_area(system)
        return res.value, res.metadata
    if kind == "sphere":
        mat = api.materials.material_from_dict(case["material"])
        system = api.sphere.SphereSystem(
            R1=R_SPHERE, R2=R_SPHERE, L=case["L"], mat1=mat, mat2=mat,
            lmax=case.get("lmax"))
        kwargs = {"adaptive_lmax": case.get("adaptive", True)}
        if "quad" in case:
            kwargs["quad"] = _quad(api, case["quad"])
        res = api.sphere.sphere_energy(system, **kwargs)
        return res.value, res.metadata
    if kind == "toy":
        scale = api.core.C_LIGHT / case["L"]
        lo, hi = case["band"]
        res = api.toy.band_energies(case["L"], case["r"], case["t"],
                                    (lo * scale, hi * scale))
        return res["phase_route"], {"dos_route": res["dos_route"]}
    if kind == "verify":
        import contextlib
        import io

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = api.cli.main(["verify", "--trials", str(case["trials"]),
                                 "--seed", str(case["seed"])])
        lines = [ln.split() for ln in out.getvalue().splitlines() if ln.strip()]
        return float(code), {"status": {ln[0]: ln[-1] for ln in lines}}
    raise ValueError(f"unknown case kind {kind!r}")


# ---------------------------------------------------------------------------
# correctness checks, at the tolerances of the acceptance suite
# ---------------------------------------------------------------------------

VERIFY_IDENTITIES = 14


def _rel(a, b):
    return abs(a - b) / abs(b)


def check(api, cases, results):
    """Correctness checks over one pass.

    ``results`` maps case id -> (value, metadata) for the cases that
    returned. Returns a list of (name, passed, case ids, detail); a check
    whose cases did not all return is skipped (those cases already failed).
    """
    by_id = {c["id"]: c for c in cases}
    out = []

    def add(name, ids, test):
        if all(i in results for i in ids):
            passed, detail = test(*(results[i][0] for i in ids))
            out.append((name, bool(passed), list(ids), detail))

    for c in cases:
        cid = c["id"]
        if c["kind"] == "plane" and c.get("tag") == "ideal":
            closed = float(api.plane.ideal_energy_per_area(c["L"]))
            add(f"{cid}: closed form", [cid],
                lambda e, closed=closed: (_rel(e, closed) < 1e-6,
                                          f"rel {_rel(e, closed):.2e} < 1e-6"))
        if c["kind"] == "sphere" and c.get("adaptive", True):
            # sphere_energy raises NotConverged unless the lmax history
            # converged, so a returned value is a converged one
            add(f"{cid}: negative", [cid], lambda e: (e < 0, f"E = {e:.6e} J"))

    groups = sorted({c["group"] for c in cases if "group" in c})
    for L0 in groups:
        ids = [f"plane/{tag}/L={L0:g}" for tag in ("drude", "plasma", "ideal")]
        add(f"plane L={L0:g}: |E_drude| < |E_plasma| < |E_ideal|", ids,
            lambda d, p, i: (abs(d) < abs(p) < abs(i),
                             f"{abs(d):.4e} < {abs(p):.4e} < {abs(i):.4e}"))

    if "plane/drude/L=2e-07/real" in by_id:
        add("plane L=2e-07: real axis vs imaginary axis",
            ["plane/drude/L=2e-07/real", "plane/drude/L=2e-07/imag"],
            lambda re, im: (_rel(re, im) < 1e-3, f"rel {_rel(re, im):.2e} < 1e-3"))

    if "sphere/pec/LR=50/lmax=1" in by_id:
        c = by_id["sphere/pec/LR=50/lmax=1"]
        target = -143.0 / (16.0 * math.pi)
        scale = c["L"] ** 7 / (api.core.HBAR * api.core.C_LIGHT * R_SPHERE**6)
        add("sphere LR=50: dipole coefficient", [c["id"]],
            lambda e: (_rel(e * scale, target) < 0.05,
                       f"{e * scale:.5f} vs {target:.5f}, rel "
                       f"{_rel(e * scale, target):.2e} < 5e-2"))
        add("sphere LR=50: lmax 1 -> 2 stability",
            ["sphere/pec/LR=50/lmax=2", c["id"]],
            lambda e2, e1: (_rel(e2, e1) < 0.01, f"rel {_rel(e2, e1):.2e} < 1e-2"))

    if "sphere/pec/LR=2.5/lmax=24" in by_id:
        add("sphere LR=2.5: lmax 24 vs lmax 20",
            ["sphere/pec/LR=2.5/lmax=24", "sphere/pec/LR=2.5/lmax=20"],
            lambda e24, e20: (e24 < 0 and e20 < 0 and _rel(e24, e20) < 1e-3,
                              f"rel {_rel(e24, e20):.2e} < 1e-3"))

    if "toy/band" in by_id:
        dos = results.get("toy/band", (None, {}))[1].get("dos_route")
        add("toy: phase route vs dos route", ["toy/band"],
            lambda e: (_rel(dos, e) < 1e-6, f"rel {_rel(dos, e):.2e} < 1e-6"))

    if "verify" in by_id:
        status = results.get("verify", (None, {}))[1].get("status", {})
        add("verify: every identity PASS", ["verify"],
            lambda code: (code == 0 and len(status) == VERIFY_IDENTITIES
                          and all(s == "PASS" for s in status.values()),
                          f"exit {code:g}, {sum(s == 'PASS' for s in status.values())}"
                          f"/{VERIFY_IDENTITIES} PASS"))
    return out
