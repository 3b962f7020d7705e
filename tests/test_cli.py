"""Command-line interface tests: exit codes, output formats, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import casimir
from casimir import identities
from casimir.cli import main
from casimir.core import QuadratureSpec
from casimir.materials import PerfectMirror
from casimir.sphere import SphereSystem, sphere_energy


def run_cli(argv):
    return main(argv)


def test_import_needs_no_scipy():
    # scipy is only a test oracle; numpy's polynomial module loads with the
    # package, not on its first use inside a timed call
    code = ("import sys, casimir, casimir.cli, casimir.toy; "
            "print(sorted(m for m in ('scipy', 'numpy.polynomial') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(Path(casimir.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "['numpy.polynomial']"


class TestVerify:
    def test_default_passes(self, capsys):
        assert run_cli(["verify", "--trials", "8", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    @pytest.mark.parametrize("seed", [1, 2, 7, 11, 23, 42, 99, 123, 777, 2024])
    def test_seed_sweep(self, seed):
        assert run_cli(["verify", "--trials", "3", "--seed", str(seed)]) == 0

    def test_corrupted_fixture_detected(self, capsys, monkeypatch):
        row = identities.ROWS["unitary_block"]
        broken = {}

        def fixtures(slots):
            out = row.fixtures(slots)
            k = len(out) // 2
            out[k] = (out[k][0] * 1.001,)  # deliberately broken fixture
            # its index in the stack of the fixtures of its shape
            broken["member"] = sum(f[0].shape == out[k][0].shape for f in out[:k])
            return out

        monkeypatch.setitem(identities.ROWS, "unitary_block", row._replace(fixtures=fixtures))
        code = run_cli(["verify", "--trials", "6", "--seed", "3"])
        captured = capsys.readouterr()
        assert code == 1
        assert "NotUnitary" in captured.err
        assert f"(matrix {broken['member']} of the stack)" in captured.err

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_below_one_is_config_error(self, trials, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": trials}))
        for argv in (["verify", "--trials", str(trials)], ["verify", "--config", str(cfg)]):
            assert run_cli(argv) == 2
            err = capsys.readouterr().err
            assert "config error" in err and "trials" in err

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        assert run_cli(["verify", "--trials", "4", "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "identity,max_residual,threshold,status"
        assert all(line.endswith("PASS") for line in lines[1:])


# `casimir verify --trials 500` at commit ceeb8b7, whose suite ran one trial
# at a time: (name, max residual, bound, status) for each line, in order
GOLDEN = {
    7: [
        ("haar_unitarity", 1.2212453270876722e-15, 1e-12, "PASS"),
        ("schur_det_split", 3.2330182483522113e-15, 1e-10, "PASS"),
        ("matrix_det_lemma", 4.2702474005903766e-14, 1e-10, "PASS"),
        ("unitary_block_det", 1.2779626727101133e-14, 1e-10, "PASS"),
        ("unitary_block_offdiag", 2.6505839397948392e-13, 1e-10, "PASS"),
        ("star_unitarity", 1.7763568394002505e-15, 1e-9, "PASS"),
        ("det_composition", 1.7554167342883505e-15, 1e-9, "PASS"),
        ("det_modulus", 3.1086244689504383e-15, 1e-10, "PASS"),
        ("alpha_sign", 3.2162452993532732e-16, 1e-10, "PASS"),
        ("sylvester", 1.5543122344752192e-15, 1e-10, "PASS"),
        ("round_trip_series", 1.1116099371267112e-15, 1e-8, "PASS"),
        ("chain3_factorization", 1.7935941826045147e-15, 1e-9, "PASS"),
        ("dilation_unitarity", 3.4416913763379853e-15, 1e-10, "PASS"),
        ("dilation_topleft", 0.0, 0.0, "PASS"),
    ],
    309: [
        ("haar_unitarity", 9.9920072216264089e-16, 1e-12, "PASS"),
        ("schur_det_split", 4.021398830883445e-15, 1e-10, "PASS"),
        ("matrix_det_lemma", 5.6184305780604846e-14, 1e-10, "PASS"),
        ("unitary_block_det", 4.0776149915850713e-13, 1e-10, "PASS"),
        ("unitary_block_offdiag", 1.4960147100425678e-10, 1e-10, "FAIL"),
        ("star_unitarity", 3.8857813061615263e-15, 1e-9, "PASS"),
        ("det_composition", 3.0201331455116262e-15, 1e-9, "PASS"),
        ("det_modulus", 3.219646771412954e-15, 1e-10, "PASS"),
        ("alpha_sign", 3.2162452993532732e-16, 1e-10, "PASS"),
        ("sylvester", 1.3325567187647329e-15, 1e-10, "PASS"),
        ("round_trip_series", 1.1102284456227842e-15, 1e-8, "PASS"),
        ("chain3_factorization", 1.5753734397234206e-15, 1e-9, "PASS"),
        ("dilation_unitarity", 2.886579864025407e-15, 1e-10, "PASS"),
        ("dilation_topleft", 0.0, 0.0, "PASS"),
    ],
}


class TestVerifyTable:
    """The 500-trial table: the same lines as when every trial ran alone
    (residuals at rounding level may move by about an ulp of 1), and a
    guard against per-trial loops creeping back."""

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_golden_table(self, seed, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        code = run_cli(["verify", "--trials", "500", "--seed", str(seed), "--out", str(out)])
        printed = capsys.readouterr().out.splitlines()
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        golden = GOLDEN[seed]
        assert [r[0] for r in rows] == [g[0] for g in golden]
        for (name, residual, bound, status), (gname, gres, gbound, gstatus) in zip(rows, golden):
            assert (float(bound), status) == (gbound, gstatus), name
            assert abs(float(residual) - gres) <= 1e-14, name
        assert len(printed) == 14 and all(line.split()[-1] in ("PASS", "FAIL") for line in printed)
        fails = [line.split() for line in printed if line.endswith("FAIL")]
        if seed == 309:
            # the standing seed-309 failure, see test_blockmat.TestSeed309Fixture
            assert code == 1
            assert [(f[0], f[1]) for f in fails] == [("unitary_block_offdiag", "1.496e-10")]
        else:
            assert code == 0 and fails == []

    def test_work_counts(self, monkeypatch, capsys):
        calls = {"slogdet": 0, "default_rng": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "slogdet", counted("slogdet", np.linalg.slogdet))
        monkeypatch.setattr(np.random, "default_rng",
                            counted("default_rng", np.random.default_rng))
        assert run_cli(["verify", "--trials", "500", "--seed", "7"]) == 0
        capsys.readouterr()
        assert calls["slogdet"] <= 1000  # stacks, not one LU per trial
        # one generator per fixture plus the one drawing the fixture seeds
        assert calls["default_rng"] == 7501


class TestPlane:
    def test_perfect_mirror_ratio_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "sweep": {"L_min": 1e-7, "L_max": 1e-6, "points": 4, "spacing": "log"},
        }))
        out = tmp_path / "plane.csv"
        assert run_cli(["plane", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 4
        for row in rows:
            ratio = float(row.split(",")[2])
            assert abs(ratio - 1) < 1e-6

    def test_vacuum_mirror_gives_zero(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "material1": "vacuum",
            "sweep": {"L_min": 1e-7, "L_max": 1e-6, "points": 2, "spacing": "log"},
        }))
        out = tmp_path / "plane.csv"
        assert run_cli(["plane", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        for row in out.read_text().splitlines()[1:]:
            assert float(row.split(",")[1]) == 0.0

    def test_drude_between_zero_and_ideal(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "material1": {"model": "drude", "omega_p": 1.37e16, "gamma": 5.3e13},
            "material2": {"model": "drude", "omega_p": 1.37e16, "gamma": 5.3e13},
            "sweep": {"L_min": 1e-7, "L_max": 1e-6, "points": 3, "spacing": "log"},
            "quad": {"tol": 1e-7},
        }))
        out = tmp_path / "plane.csv"
        assert run_cli(["plane", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        ratios = [float(r.split(",")[2]) for r in out.read_text().splitlines()[1:]]
        assert all(0 < x < 1 for x in ratios)
        assert ratios == sorted(ratios)  # approaches ideal as L grows

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "sweep": {"L_min": 2e-7, "L_max": 8e-7, "points": 3, "spacing": "linear"},
        }))
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            assert run_cli([
                "plane", "--config", str(cfg), "--format", "json", "--out", str(out)
            ]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_schema(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {"L_min": 1e-7, "L_max": 2e-7, "points": 1}}))
        out = tmp_path / "plane.json"
        assert run_cli(["plane", "--config", str(cfg), "--format", "json",
                        "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert set(payload) >= {"config_echo", "rows", "warnings"}

    def test_result_warnings_reach_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {"L_min": 5e-10, "points": 1}}))
        out = tmp_path / "plane.json"
        assert run_cli(["plane", "--config", str(cfg), "--format", "json",
                        "--out", str(out)]) == 0
        capsys.readouterr()
        warnings = json.loads(out.read_text())["warnings"]
        assert len(warnings) == 1
        assert warnings[0].startswith("L=5.000e-10: separation below 1 nm")

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert run_cli(["plane", "--config", str(cfg)]) == 2
        capsys.readouterr()

    def test_bad_material_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"material1": {"model": "unobtainium"}}))
        assert run_cli(["plane", "--config", str(cfg)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("config,message", [
        ({"medium": "perfect_mirror"}, "the medium cannot be a perfect mirror"),
        ({"sweep": {"L_min": 1e-7, "L_max": float("inf"), "points": 2}},
         "sweep bounds must be finite"),
    ], ids=["mirror-medium", "infinite-L_max"])
    def test_rejected_system_is_config_error(self, config, message, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run_cli(["plane", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error:") and message in err

    def test_not_converged_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "sweep": {"L_min": 1e-7, "L_max": 2e-7, "points": 1},
            "quad": {"base_order": 8, "max_doublings": 0, "tol": 1e-14},
        }))
        out = tmp_path / "plane.csv"
        code = run_cli(["plane", "--config", str(cfg), "--out", str(out)])
        capsys.readouterr()
        assert code == 3
        # the table is still written, with a flag
        assert "not_converged" in out.read_text()


class TestSphere:
    @pytest.mark.parametrize("config,flags,message", [
        ({"sphere": {"R1": 0}}, [], "radii must be finite and > 0"),
        ({}, ["--lmax", "0"], "lmax must be an integer >= 1"),
        ({"sphere": {"lmax": 2.5}}, [], "lmax must be an integer >= 1"),
    ], ids=["R1=0", "lmax=0", "config-lmax=2.5"])
    def test_bad_geometry_is_config_error(self, config, flags, message, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run_cli(["sphere", "--config", str(cfg), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert err.count("\n") == 1

    def test_sweep_with_fixed_lmax(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "sphere": {"R1": 1e-7, "R2": 1e-7, "lmax": 2},
            "sweep": {"L_min": 1e-6, "L_max": 3e-6, "points": 2, "spacing": "log"},
            "quad": {"base_order": 16, "tol": 1e-4},
        }))
        out = tmp_path / "sphere.csv"
        assert run_cli(["sphere", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        rows = out.read_text().splitlines()[1:]
        energies = [float(r.split(",")[1]) for r in rows]
        assert all(e < 0 for e in energies)
        assert abs(energies[1]) < abs(energies[0])

    def test_not_converged_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "sphere": {"R1": 1e-7, "R2": 1e-7, "lmax": 2},
            "sweep": {"L_min": 1e-6, "points": 1},
            "quad": {"base_order": 8, "max_doublings": 0, "tol": 1e-14},
        }))
        out = tmp_path / "sphere.json"
        code = run_cli(["sphere", "--config", str(cfg), "--format", "json",
                        "--out", str(out)])
        capsys.readouterr()
        assert code == 3
        payload = json.loads(out.read_text())
        (row,) = payload["rows"]
        assert row["flag"] == "not_converged"
        assert float(row["energy"]) < 0 and row["lmax_used"] == 2
        assert payload["warnings"] == ["L=1.000e-06: quadrature not converged"]

    def test_xi_and_lmax_failures_warn_differently(self, tmp_path, capsys):
        def warnings(sphere, sweep, quad):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"sphere": sphere, "sweep": sweep, "quad": quad}))
            out = tmp_path / "sphere.json"
            assert run_cli(["sphere", "--config", str(cfg), "--format", "json",
                            "--out", str(out)]) == 3
            return json.loads(out.read_text())["warnings"]

        xi = warnings({"lmax": 2}, {"L_min": 1e-6, "points": 1},
                      {"base_order": 8, "max_doublings": 0, "tol": 1e-14})
        # at d/R = 0.2 lmax 1 -> 8 is far from converged
        lmax = warnings({"lmax": 1}, {"L_min": 2.2e-7, "points": 1},
                        {"base_order": 16, "tol": 1e-4})
        capsys.readouterr()
        assert xi == ["L=1.000e-06: quadrature not converged"]
        assert lmax == ["L=2.200e-07: lmax not converged"]


    def test_events_reach_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "sphere": {"R1": 1e-7, "R2": 1e-7, "lmax": 2},
            "sweep": {"L_min": 1e-6, "L_max": 2e-6, "points": 2},
            "quad": {"base_order": 16, "tol": 1e-4},
        }))
        out = tmp_path / "sphere.json"
        assert run_cli(["sphere", "--config", str(cfg), "--format", "json",
                        "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        pec = PerfectMirror()
        expect = [
            {"L": row["L"], **sphere_energy(
                SphereSystem(R1=1e-7, R2=1e-7, L=float(row["L"]), mat1=pec, mat2=pec, lmax=2),
                QuadratureSpec(base_order=16, tol=1e-4)).metadata["events"]}
            for row in payload["rows"]]
        assert payload["events"] == expect
        assert set(expect[0]) == {"L", "xi_clamped", "mie_zeroed", "tol_floored"}


class TestOptions:
    @pytest.mark.parametrize("argv", [
        ["plane", "--lmax", "7"], ["plane", "--seed", "3"], ["plane", "--trials", "9"],
        ["sphere", "--seed", "3"], ["sphere", "--trials", "9"],
        ["toy-dos", "--seed", "1"], ["toy-dos", "--quad-order", "16"],
        ["verify", "--lmax", "3"], ["verify", "--quad-order", "16"],
    ])
    def test_flag_the_command_does_not_read_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_quad_defaults_are_the_spec_defaults(self):
        from argparse import Namespace

        from casimir.cli import _quad_from

        assert _quad_from({}, Namespace(quad_order=None)) == QuadratureSpec()


class TestToyDos:
    @pytest.mark.parametrize("toy,message", [
        ({"L": 0}, "toy L must be finite and > 0"),
        ({"r": 1.5}, "is not passive"),
    ], ids=["L=0", "r=1.5"])
    def test_bad_cavity_is_config_error(self, toy, message, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"toy": toy}))
        assert run_cli(["toy-dos", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("band", [[1.0], "ab", 3, [0.5, "x"]])
    def test_malformed_band_is_config_error(self, band, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"toy": {"band": band}}))
        assert run_cli(["toy-dos", "--config", str(cfg)]) == 2
        assert "toy band must be two numbers" in capsys.readouterr().err

    def test_agreement_exit_0(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "toy": {"L": 1e-6, "r": 0.9, "t": 0.3, "band": [0.5, 4.0]},
        }))
        out = tmp_path / "toy.json"
        assert run_cli(["toy-dos", "--config", str(cfg), "--format", "json",
                        "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        rel = float(payload["summary"]["relative_difference"])
        assert rel < 1e-6

    def test_transparent_zero(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "toy": {"L": 1e-6, "r": 0.0, "t": 1.0, "band": [0.5, 2.0]},
        }))
        out = tmp_path / "toy.json"
        assert run_cli(["toy-dos", "--config", str(cfg), "--format", "json",
                        "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert abs(float(payload["summary"]["phase_route_energy"])) < 1e-28
        assert abs(float(payload["summary"]["dos_route_energy"])) < 1e-28
