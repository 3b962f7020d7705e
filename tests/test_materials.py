"""Dispersion model tests."""

import numpy as np
import pytest

from casimir.errors import DomainError
from casimir.materials import (
    VACUUM,
    ConstantEps,
    Drude,
    Lorentz,
    PerfectMirror,
    Plasma,
    eps_imag_axis,
    eps_real_axis,
    material_from_dict,
)

# gold-like reference parameters used throughout
WP = 1.37e16
GAMMA = 5.3e13


class TestEpsImagAxis:
    def test_vacuum(self):
        for xi in (1e10, 1e14, 1e18):
            assert eps_imag_axis(VACUUM, xi) == 1.0

    def test_drude_gamma_zero_is_plasma(self):
        for xi in (1e12, 1e15, 3e16):
            assert eps_imag_axis(Drude(WP, 0.0), xi) == pytest.approx(
                eps_imag_axis(Plasma(WP), xi), rel=1e-15
            )

    def test_drude_gold_like_value(self):
        # oracle: direct arithmetic of the closed form
        xi = 1e15
        expected = 1.0 + WP**2 / (xi * (xi + GAMMA))
        assert eps_imag_axis(Drude(WP, GAMMA), xi) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(179.2431149098, rel=1e-10)

    def test_lorentz_form(self):
        m = Lorentz(omega_p=2e15, omega_0=6e15, gamma=1e13)
        xi = 7e14
        expected = 1.0 + (2e15) ** 2 / ((6e15) ** 2 + xi**2 + 1e13 * xi)
        assert eps_imag_axis(m, xi) == pytest.approx(expected, rel=1e-15)

    def test_perfect_mirror_sentinel(self):
        assert np.isinf(eps_imag_axis(PerfectMirror(), 1e15))

    def test_monotone_decreasing_toward_one(self):
        grid = np.geomspace(1e10, 1e18, 200)
        for m in (Plasma(WP), Drude(WP, GAMMA), Lorentz(2e15, 6e15, 1e13)):
            vals = eps_imag_axis(m, grid)
            assert np.all(vals >= 1.0)
            assert np.all(np.diff(vals) < 0)
            assert vals[-1] == pytest.approx(1.0, abs=1e-3)

    def test_rejects_nonpositive_xi(self):
        with pytest.raises(DomainError):
            eps_imag_axis(Plasma(WP), 0.0)
        with pytest.raises(DomainError):
            eps_imag_axis(Plasma(WP), -1e14)
        for xi in (np.inf, np.nan):
            with pytest.raises(DomainError, match="finite"):
                eps_imag_axis(Drude(WP, GAMMA), xi)

    def test_underflowing_xi_raises_not_minus_inf(self):
        # (i xi)^2 rounds to +0 here, where eps -> +inf; a silent -inf
        # would flip the sign
        with np.errstate(all="ignore"):
            assert eps_imag_axis(Plasma(WP), 1e-150) == np.inf
            for m in (Plasma(WP), Drude(WP, 0.0)):
                with pytest.raises(DomainError, match="not representable"):
                    eps_imag_axis(m, 1e-300)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ConstantEps(0.5)
        with pytest.raises(ValueError):
            Drude(-1.0, 0.0)


class TestEpsRealAxis:
    def test_reduces_to_imag_axis(self):
        for m in (Plasma(WP), Drude(WP, GAMMA), Lorentz(2e15, 6e15, 1e13)):
            for xi in (1e13, 1e15, 1e17):
                via_complex = eps_real_axis(m, 1j * xi)
                assert via_complex.imag == pytest.approx(0.0, abs=1e-20)
                assert via_complex.real == pytest.approx(
                    eps_imag_axis(m, xi), rel=1e-15
                )

    def test_drude_damping_sign(self):
        eps = eps_real_axis(Drude(WP, GAMMA), 1e15)
        assert eps.imag > 0  # absorption, not gain


class TestMaterialFromDict:
    def test_round_trip_variants(self):
        assert material_from_dict("vacuum") == VACUUM
        assert material_from_dict({"model": "perfect_mirror"}) == PerfectMirror()
        assert material_from_dict(
            {"model": "drude", "omega_p": WP, "gamma": GAMMA}
        ) == Drude(WP, GAMMA)
        assert material_from_dict({"model": "plasma", "omega_p": WP}) == Plasma(WP)
        assert material_from_dict({"model": "constant_eps", "eps": 2.5}) == ConstantEps(2.5)

    @pytest.mark.parametrize("spec, expected", [
        ({"model": "lorentz", "omega_p": 2e15, "omega_0": 6e15, "gamma": 1e13},
         Lorentz(2e15, 6e15, 1e13)),
        ({"model": "dielectric", "eps": 2.5}, ConstantEps(2.5)),
        ("mirror", PerfectMirror()),
        ("ideal", PerfectMirror()),
        ("perfect-mirror", PerfectMirror()),
        ({"model": "vacuum"}, VACUUM),
    ])
    def test_every_config_name(self, spec, expected):
        got = material_from_dict(spec)
        assert type(got) is type(expected)
        assert got == expected

    def test_unknown_rejected(self):
        for spec in ({"model": "unobtainium"}, {"model": 5}, 5, ["drude"]):
            with pytest.raises(ValueError):
                material_from_dict(spec)

    def test_missing_parameter(self):
        with pytest.raises(ValueError):
            material_from_dict({"model": "drude", "omega_p": WP})

    @pytest.mark.parametrize("spec", [
        {"model": "drude", "omega_p": WP, "gama": GAMMA},
        {"model": "drude", "omega_p": None, "gamma": GAMMA},
        {"model": "drude", "omega_p": str(WP), "gamma": GAMMA},
        {"model": "perfect_mirror", "eps": 2.0},
        {"model": "vacuum", "eps": 2.0},
    ], ids=["unknown-field", "null-field", "string-field", "mirror-field", "vacuum-field"])
    def test_fields_go_to_the_model_unchanged(self, spec):
        with pytest.raises(ValueError, match="material spec"):
            material_from_dict(spec)
