"""Command-line entry point: the identity table of ``casimir.identities``,
energy sweeps and the dissipative-cavity toy.

    casimir verify  [--trials N] [--seed N]      [COMMON]
    casimir plane   [--quad-order N]             [COMMON]
    casimir sphere  [--lmax N] [--quad-order N]  [COMMON]
    casimir toy-dos                              [COMMON]

    COMMON: [--config FILE] [--out PATH] [--format csv|json]

Configuration comes from a single JSON file; command-line flags win over
file values. Exit codes: 0 success, 1 identity/agreement failure,
2 config error, 3 convergence failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import identities, toy
from .core import C_LIGHT, HBAR, QuadratureSpec
from .errors import CasimirError, NotConverged
from .materials import material_from_dict
from .plane import PlaneSystem, energy_per_area, ideal_energy_per_area
from .sphere import SphereSystem, sphere_energy

FMT = "%.17g"


def _load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        return json.load(fh)


def _quad_from(cfg, args):
    q = dict(cfg.get("quad", {}))
    if args.quad_order is not None:
        q["base_order"] = args.quad_order
    default = QuadratureSpec()
    return QuadratureSpec(
        base_order=int(q.get("base_order", default.base_order)),
        max_doublings=int(q.get("max_doublings", default.max_doublings)),
        tol=float(q.get("tol", default.tol)),
    )


def _sweep_from(cfg, default_min=1e-7, default_max=1e-6):
    sw = cfg.get("sweep", {})
    lmin = float(sw.get("L_min", default_min))
    lmax = float(sw.get("L_max", default_max))
    points = int(sw.get("points", 5))
    spacing = sw.get("spacing", "log")
    if lmin <= 0 or lmax <= lmin and points > 1:
        raise ValueError("sweep bounds must satisfy 0 < L_min < L_max")
    if points < 1:
        raise ValueError("sweep needs at least one point")
    if points == 1:
        return np.array([lmin])
    if spacing == "log":
        return np.geomspace(lmin, lmax, points)
    if spacing == "linear":
        return np.linspace(lmin, lmax, points)
    raise ValueError(f"unknown spacing {spacing!r}")


def _emit(args, payload, columns, rows):
    """Write CSV or JSON output deterministically (17 significant digits)."""
    if args.format == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(FMT % v if isinstance(v, float) else str(v) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        payload = dict(payload)
        payload["rows"] = [
            {c: (FMT % v if isinstance(v, float) else v) for c, v in zip(columns, row)}
            for row in rows
        ]
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args, cfg):
    trials = args.trials if args.trials is not None else int(cfg.get("trials", 50))
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 42))
    rows = [[name, residual, bound, "PASS" if residual <= bound else "FAIL"]
            for name, residual, bound in identities.run(trials, seed)]
    for name, residual, bound, status in rows:
        print(f"{name:24s} {residual:12.3e}  (< {bound:.0e})  {status}")
    if args.out:
        _emit(args, {"config_echo": cfg, "warnings": []},
              ["identity", "max_residual", "threshold", "status"], rows)
    return 0 if all(row[-1] == "PASS" for row in rows) else 1


# ---------------------------------------------------------------------------
# plane / sphere sweeps
# ---------------------------------------------------------------------------

def _sweep(args, cfg, lengths, energy_at, columns, extra):
    """One row per separation L: L, the energy, ``extra(L, result)``, the
    error estimate and a ``not_converged`` flag; each result's own warnings
    go into the JSON ``warnings`` and its event counts into the JSON
    ``events``, one entry per row with that row's L. Returns 3 if any point
    did not converge."""
    rows, warnings, events = [], [], []
    for L in map(float, lengths):
        try:
            res, flag = energy_at(L), ""
        except NotConverged as exc:
            res, flag = exc.result, "not_converged"
        rows.append([L, res.value, extra(L, res), res.error_estimate, flag])
        warnings += [f"L={L:.3e}: {w}" for w in res.metadata["warnings"]]
        events.append({"L": FMT % L, **res.metadata["events"]})
    _emit(args, {"config_echo": cfg, "warnings": warnings, "events": events}, columns, rows)
    return 3 if any(row[-1] for row in rows) else 0


def cmd_plane(args, cfg):
    mat1 = material_from_dict(cfg.get("material1", "perfect_mirror"))
    mat2 = material_from_dict(cfg.get("material2", "perfect_mirror"))
    medium = material_from_dict(cfg.get("medium", "vacuum"))
    quad = _quad_from(cfg, args)
    return _sweep(
        args, cfg, _sweep_from(cfg),
        lambda L: energy_per_area(PlaneSystem(mat1, mat2, medium, L), quad),
        ["L", "energy_per_area", "ratio_to_ideal", "error_estimate", "flag"],
        lambda L, res: res.value / float(ideal_energy_per_area(L)),
    )


def cmd_sphere(args, cfg):
    sph = cfg.get("sphere", {})
    mat1 = material_from_dict(cfg.get("material1", "perfect_mirror"))
    mat2 = material_from_dict(cfg.get("material2", "perfect_mirror"))
    r1 = float(sph.get("R1", 1e-7))
    r2 = float(sph.get("R2", 1e-7))
    lmax = args.lmax if args.lmax is not None else sph.get("lmax")
    quad = _quad_from(cfg, args)
    # default sweep must respect L > R1 + R2
    lengths = _sweep_from(cfg, default_min=4 * (r1 + r2), default_max=20 * (r1 + r2))
    return _sweep(
        args, cfg, lengths,
        lambda L: sphere_energy(SphereSystem(
            R1=r1, R2=r2, L=L, mat1=mat1, mat2=mat2,
            lmax=int(lmax) if lmax is not None else None,
        ), quad),
        ["L", "energy", "lmax_used", "error_estimate", "flag"],
        lambda L, res: res.metadata["lmax"],
    )


# ---------------------------------------------------------------------------
# toy-dos
# ---------------------------------------------------------------------------

def cmd_toy_dos(args, cfg):
    tcfg = cfg.get("toy", {})
    L = float(tcfg.get("L", 1e-6))
    r = float(tcfg.get("r", 0.9))
    t = float(tcfg.get("t", 0.3))
    band = tcfg.get("band", [0.5, 8.0])
    try:
        lo, hi = (float(b) for b in band)
    except (TypeError, ValueError):
        raise ValueError(f"toy band must be two numbers [lo, hi] in c/L, got {band!r}") from None
    scale = C_LIGHT / L
    res = toy.band_energies(L, r, t, (lo * scale, hi * scale))
    e_phase, e_dos = res["phase_route"], res["dos_route"]
    denom = max(abs(e_phase), abs(e_dos), 1e-300)
    rel = abs(e_phase - e_dos) / denom
    # absolute floor: quadrature noise far below hbar times the band width
    zero_floor = 1e-9 * HBAR * (hi - lo) * scale
    agree = rel < 1e-6 or max(abs(e_phase), abs(e_dos)) < zero_floor
    columns = ["omega", "dphi", "deta"]
    rows = [[w, p, d] for w, p, d in res["rows"]]
    payload = {
        "config_echo": cfg,
        "warnings": [],
        "summary": {
            "phase_route_energy": FMT % e_phase,
            "dos_route_energy": FMT % e_dos,
            "relative_difference": FMT % rel,
        },
    }
    _emit(args, payload, columns, rows)
    print(f"phase-route energy: {e_phase: .12e} J", file=sys.stderr)
    print(f"dos-route energy:   {e_dos: .12e} J", file=sys.stderr)
    print(f"relative difference: {rel:.3e}", file=sys.stderr)
    return 0 if agree else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="casimir",
        description="Scattering-matrix Casimir energies with explicit dissipation channels.",
        epilog=(
            "CSV columns: verify(identity,max_residual,threshold,status) "
            "plane(L,energy_per_area,ratio_to_ideal,error_estimate,flag) "
            "sphere(L,energy,lmax_used,error_estimate,flag) "
            "toy-dos(omega,dphi,deta). Numbers carry 17 significant digits."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand takes the common flags and only the ones it reads
    for name, fn, flags in (("verify", cmd_verify, ("--trials", "--seed")),
                            ("plane", cmd_plane, ("--quad-order",)),
                            ("sphere", cmd_sphere, ("--lmax", "--quad-order")),
                            ("toy-dos", cmd_toy_dos, ())):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        for flag in flags:
            p.add_argument(flag, type=int, default=None)
        p.set_defaults(func=fn)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        if not isinstance(cfg, dict):
            raise ValueError("config must be a JSON object")
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args, cfg)
    except (ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NotConverged as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3
    except CasimirError as exc:
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
