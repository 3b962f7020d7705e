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
from functools import partial
from pathlib import Path

import numpy as np

from . import identities, toy
from .core import C_LIGHT, HBAR, QuadratureSpec, check_count, check_real
from .errors import CasimirError, DomainError, NotContraction, NotConverged
from .materials import material_from_dict
from .plane import PlaneSystem, energy_per_area, ideal_energy_per_area
from .sphere import SphereSystem, sphere_energy

FMT = "%.17g"


def _build(cfg, name, build, **flags):
    """``build(**cfg[name])``, with the ``flags`` that were given over the
    section's keys. A rejection is a config error (exit 2): ``build``'s own
    ValueError, DomainError or NotContraction, or a TypeError for an unknown
    key or a wrong type, whose message gets the section's name in front."""
    given = {key: value for key, value in flags.items() if value is not None}
    try:
        return build(**{**cfg.get(name, {}), **given})
    except TypeError as exc:
        raise ValueError(f"{name}: {exc}") from None
    except (DomainError, NotContraction) as exc:
        raise ValueError(str(exc)) from None


def _lengths(L_min=1e-7, L_max=1e-6, points=5, spacing="log"):
    """The separations of the ``sweep`` section: ``points`` values from
    L_min to L_max (one point is L_min), evenly spaced on a log or a
    linear scale."""
    check_count("sweep points", points, 1)
    check_real("sweep bounds", L_min, 0)
    check_real("sweep bounds", L_max)
    if points > 1 and not L_min < L_max:
        raise ValueError(f"sweep bounds must satisfy L_min < L_max, got {L_min!r}, {L_max!r}")
    space = {"log": np.geomspace, "linear": np.linspace}.get(spacing)
    if space is None:
        raise ValueError(f"unknown spacing {spacing!r}")
    return space(L_min, L_max if points > 1 else L_min, points).tolist()


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


def cmd_verify(args, cfg):
    trials = cfg.get("trials", 50) if args.trials is None else args.trials
    seed = cfg.get("seed", 42) if args.seed is None else args.seed
    rows = [[name, residual, bound, "PASS" if residual <= bound else "FAIL"]
            for name, residual, bound in identities.run(trials, seed)]
    for name, residual, bound, status in rows:
        print(f"{name:24s} {residual:12.3e}  (< {bound:.0e})  {status}")
    if args.out:
        _emit(args, {"config_echo": cfg, "warnings": []},
              ["identity", "max_residual", "threshold", "status"], rows)
    return 0 if all(row[-1] == "PASS" for row in rows) else 1


def _sweep(args, cfg, systems, energy_at, columns, extra):
    """One row per separation L of ``systems`` (L -> system): L, the
    energy, ``extra(L, result)``, the error estimate and a
    ``not_converged`` flag; each result's own warnings go into the JSON
    ``warnings`` and its event counts into the JSON ``events``, one entry
    per row with that row's L. Returns 3 if any point did not converge."""
    rows, warnings, events = [], [], []
    for L, system in systems.items():
        try:
            res, flag = energy_at(system), ""
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
    quad = _build(cfg, "quad", QuadratureSpec, base_order=args.quad_order)

    def plates(**sweep):
        return {L: PlaneSystem(mat1, mat2, medium, L) for L in _lengths(**sweep)}

    return _sweep(
        args, cfg, _build(cfg, "sweep", plates),
        lambda system: energy_per_area(system, quad),
        ["L", "energy_per_area", "ratio_to_ideal", "error_estimate", "flag"],
        lambda L, res: res.value / float(ideal_energy_per_area(L)),
    )


def _spheres(cfg, mat1, mat2, R1=1e-7, R2=1e-7, lmax=None):
    """The ``sphere`` section: a SphereSystem for each L of the sweep,
    whose default respects L > R1 + R2."""
    sweep = partial(_lengths, L_min=4 * (R1 + R2), L_max=20 * (R1 + R2))
    return {L: SphereSystem(R1, R2, L, mat1, mat2, lmax=lmax) for L in _build(cfg, "sweep", sweep)}


def cmd_sphere(args, cfg):
    mat1 = material_from_dict(cfg.get("material1", "perfect_mirror"))
    mat2 = material_from_dict(cfg.get("material2", "perfect_mirror"))
    quad = _build(cfg, "quad", QuadratureSpec, base_order=args.quad_order)
    spheres = _build(cfg, "sphere", partial(_spheres, cfg, mat1, mat2), lmax=args.lmax)
    return _sweep(
        args, cfg, spheres,
        lambda system: sphere_energy(system, quad),
        ["L", "energy", "lmax_used", "error_estimate", "flag"],
        lambda L, res: res.metadata["lmax"],
    )


def _cavity(L=1e-6, r=0.9, t=0.3, band=(0.5, 8.0)):
    """The ``toy`` section, checked: (L, r, t, lo, hi) for a cavity of
    length L between mirrors of reflection r and transmission t, over the
    band [lo, hi] in units of c/L."""
    try:
        lo, hi = band
        check_real("band", lo, 0)
        check_real("band", hi, lo)
    except (TypeError, ValueError):
        raise ValueError(f"toy band must be two numbers [lo, hi] in c/L with 0 < lo < hi, "
                         f"got {band!r}") from None
    check_real("toy L", L, 0)
    toy.lossy_mirror(r, t, "right")
    return L, r, t, lo, hi


def cmd_toy_dos(args, cfg):
    L, r, t, lo, hi = _build(cfg, "toy", _cavity)
    scale = C_LIGHT / L
    res = toy.band_energies(L, r, t, (lo * scale, hi * scale))
    e_phase, e_dos = res["phase_route"], res["dos_route"]
    denom = max(abs(e_phase), abs(e_dos), 1e-300)
    rel = abs(e_phase - e_dos) / denom
    # absolute floor: quadrature noise far below hbar times the band width
    zero_floor = 1e-9 * HBAR * (hi - lo) * scale
    agree = rel < 1e-6 or max(abs(e_phase), abs(e_dos)) < zero_floor
    payload = {
        "config_echo": cfg,
        "warnings": [],
        "summary": {
            "phase_route_energy": FMT % e_phase,
            "dos_route_energy": FMT % e_dos,
            "relative_difference": FMT % rel,
        },
    }
    _emit(args, payload, ["omega", "dphi", "deta"], res["rows"])
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
        cfg = {} if args.config is None else json.loads(Path(args.config).read_text())
        if not isinstance(cfg, dict):
            raise ValueError("config must be a JSON object")
        return args.func(args, cfg)
    except (OSError, ValueError) as exc:
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
