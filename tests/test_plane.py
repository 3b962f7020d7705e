"""Plane-plane geometry tests: Fresnel amplitudes, translation factors,
and the energy per unit area on both frequency axes."""

import numpy as np
import pytest
from scipy.integrate import quad

from casimir.core import C_LIGHT, QuadratureSpec
from casimir.errors import DomainError, NotConverged
from casimir import plane
from casimir.materials import VACUUM, ConstantEps, Drude, PerfectMirror, Plasma
from casimir.plane import (
    PlaneChannel,
    PlaneSystem,
    _BLOCK,
    _adaptive_panels,
    _frequency_integrals,
    _real_axis_channel_values,
    energy_per_area,
    energy_per_area_real_axis,
    fresnel_r,
    ideal_energy_per_area,
    lifshitz_integrand,
    translation_factor,
)

GOLD = Drude(1.37e16, 5.3e13)


class TestFresnel:
    def test_no_contrast(self):
        m = ConstantEps(2.5)
        for pol in ("TE", "TM"):
            ch = PlaneChannel(q=1e6, pol=pol, xi=1e15)
            assert fresnel_r(m, m, ch) == 0

    def test_perfect_mirror(self):
        for xi, q in ((1e14, 0.0), (1e15, 1e7)):
            assert fresnel_r(PerfectMirror(), VACUUM, PlaneChannel(q, "TE", xi=xi)) == -1
            assert fresnel_r(PerfectMirror(), VACUUM, PlaneChannel(q, "TM", xi=xi)) == 1

    def test_drude_gold_like_oracle(self):
        # oracle: direct arithmetic of the kappa forms
        xi, q = 1e15, 1e7
        em = 1.0
        ep = 1.0 + GOLD.omega_p**2 / (xi * (xi + GOLD.gamma))
        km = np.sqrt(em * xi**2 / C_LIGHT**2 + q**2)
        kp = np.sqrt(ep * xi**2 / C_LIGHT**2 + q**2)
        rte = (km - kp) / (km + kp)
        rtm = (ep * km - em * kp) / (ep * km + em * kp)
        assert fresnel_r(GOLD, VACUUM, PlaneChannel(q, "TE", xi=xi)) == pytest.approx(
            rte, rel=1e-14
        )
        assert fresnel_r(GOLD, VACUUM, PlaneChannel(q, "TM", xi=xi)) == pytest.approx(
            rtm, rel=1e-14
        )

    def test_modulus_bounded_on_imag_axis(self):
        for mat in (GOLD, Plasma(1.37e16), ConstantEps(5.0)):
            for xi in np.geomspace(1e13, 1e17, 10):
                for qL in (0.0, 1.0, 10.0):
                    ch = PlaneChannel(qL / 1e-6, "TM", xi=xi)
                    assert abs(fresnel_r(mat, VACUUM, ch)) <= 1 + 1e-12

    def test_perfect_mirror_medium_rejected(self):
        with pytest.raises(DomainError):
            PlaneSystem(GOLD, GOLD, medium=PerfectMirror(), L=1e-6)
        with pytest.raises(DomainError):
            fresnel_r(GOLD, PerfectMirror(), PlaneChannel(1e6, "TE", xi=1e15))

    def test_channel_validation(self):
        with pytest.raises(DomainError):
            PlaneChannel(q=-1.0, pol="TE", xi=1e15)
        with pytest.raises(DomainError):
            PlaneChannel(q=0.0, pol="TE")
        with pytest.raises(DomainError):
            PlaneChannel(q=0.0, pol="XX", xi=1e15)


class TestTranslationFactor:
    def test_perfect_mirror_medium_rejected(self):
        # no finite permittivity: both axes raise, as fresnel_r does
        with pytest.raises(DomainError):
            translation_factor(PerfectMirror(), PlaneChannel(1e6, "TE", xi=1e15), 1e-6)
        with pytest.raises(DomainError):
            translation_factor(PerfectMirror(), PlaneChannel(1e6, "TE", omega=1e15), 1e-6)

    def test_zero_separation(self):
        ch = PlaneChannel(1e6, "TE", xi=1e15)
        assert translation_factor(VACUUM, ch, 0.0) == 1.0

    def test_vacuum_propagating_unit_modulus(self):
        w = 1e15
        ch = PlaneChannel(q=0.5 * w / C_LIGHT, pol="TE", omega=w)
        t = translation_factor(VACUUM, ch, 1e-6)
        assert abs(abs(t) - 1) < 1e-12

    def test_lossy_medium_attenuates(self):
        # oracle: |exp(i kz L)| with independently computed complex kz
        w, q, L = 1e15, 2e6, 1e-6
        ch = PlaneChannel(q, "TE", omega=w)
        t = translation_factor(GOLD, ch, L)
        eps = 1.0 - GOLD.omega_p**2 / (w * (w + 1j * GOLD.gamma))
        kz = np.sqrt(eps * w**2 / C_LIGHT**2 - q**2 + 0j)
        if kz.imag < 0:
            kz = -kz
        assert t == pytest.approx(np.exp(1j * kz * L), rel=1e-13)
        assert abs(t) < 1.0

    def test_imag_axis_decay(self):
        ch = PlaneChannel(1e6, "TM", xi=1e15)
        t = translation_factor(VACUUM, ch, 1e-6)
        km = np.sqrt((1e15 / C_LIGHT) ** 2 + 1e6**2)
        assert t == pytest.approx(np.exp(-km * 1e-6), rel=1e-14)


class TestEnergyPerArea:
    @pytest.mark.parametrize("L", [100e-9, 1e-6])
    def test_ideal_mirror_limit(self, L):
        sys_ = PlaneSystem(PerfectMirror(), PerfectMirror(), VACUUM, L)
        res = energy_per_area(sys_)
        assert res.value == pytest.approx(ideal_energy_per_area(L), rel=1e-6)

    def test_drude_gold_at_1um_against_mpmath(self):
        # -3.91402986003856e-10 J/m^2: the same double integral for these gold
        # plates at exactly 1 um, evaluated with mpmath at 20 significant
        # digits (the reference value of ROADMAP item 12)
        res = energy_per_area(PlaneSystem(GOLD, GOLD, VACUUM, 1e-6))
        assert abs(res.value - (-3.91402986003856e-10)) <= res.error_estimate
        assert res.metadata["orders"][-1] <= 256

    def test_ideal_value_magnitude_at_1um(self):
        assert ideal_energy_per_area(1e-6) == pytest.approx(-4.3337525748e-10, rel=1e-9)

    def test_no_contrast_gives_zero(self):
        m = ConstantEps(3.0)
        res = energy_per_area(PlaneSystem(m, PerfectMirror(), medium=m, L=1e-6))
        assert res.value == 0.0  # r1 = 0 kills every channel

    def test_material_ordering(self):
        for L in (100e-9, 1e-6):
            drude = energy_per_area(PlaneSystem(GOLD, GOLD, VACUUM, L)).value
            plasma_mat = Plasma(GOLD.omega_p)
            plasma = energy_per_area(PlaneSystem(plasma_mat, plasma_mat, VACUUM, L)).value
            ideal = energy_per_area(
                PlaneSystem(PerfectMirror(), PerfectMirror(), VACUUM, L)
            ).value
            assert abs(drude) < abs(plasma) < abs(ideal)

    def test_pointwise_reflection_ordering(self):
        # the energy ordering follows from r_drude^2 < r_plasma^2 pointwise
        plasma = Plasma(GOLD.omega_p)
        for xi in np.geomspace(1e13, 1e17, 12):
            for q in (0.0, 1e6, 1e7):
                for pol in ("TE", "TM"):
                    ch = PlaneChannel(q, pol, xi=xi)
                    rd = fresnel_r(GOLD, VACUUM, ch)
                    rp = fresnel_r(plasma, VACUUM, ch)
                    assert rd**2 <= rp**2 + 1e-15

    def test_negative_and_monotone(self):
        grid = np.geomspace(50e-9, 5e-6, 7)
        vals = [
            energy_per_area(PlaneSystem(PerfectMirror(), PerfectMirror(), VACUUM, L)).value
            for L in grid
        ]
        assert all(v < 0 for v in vals)
        assert all(abs(b) < abs(a) for a, b in zip(vals, vals[1:]))

    def test_plasma_approaches_ideal(self):
        L = 1e-6
        wp = 2e3 * C_LIGHT / L  # omega_p L / c = 2000
        plasma = energy_per_area(PlaneSystem(Plasma(wp), Plasma(wp), VACUUM, L)).value
        ideal = ideal_energy_per_area(L)
        assert abs(plasma - ideal) / abs(ideal) < 0.005

    def test_integrand_nonpositive_identical_mirrors(self):
        sys_ = PlaneSystem(GOLD, GOLD, VACUUM, 200e-9)
        xi = np.geomspace(1e13, 1e17, 20)
        q = np.geomspace(1e4, 1e8, 20)
        grid = lifshitz_integrand(sys_, xi, q)
        assert np.all(grid <= 0)

    def test_medium_rescale_pointwise(self):
        # direct coding of the integrand with a constant-eps medium
        em = 1.8
        sys_ = PlaneSystem(PerfectMirror(), PerfectMirror(), ConstantEps(em), 1e-6)
        xi, q = np.array([8e14]), np.array([2e6])
        grid = lifshitz_integrand(sys_, xi, q)[0, 0]
        km = np.sqrt(em * (xi[0] / C_LIGHT) ** 2 + q[0] ** 2)
        expected = 2 * np.log1p(-np.exp(-2 * km * 1e-6))
        assert grid == pytest.approx(expected, rel=1e-13)

    def test_integrand_matches_scalar_channel_api(self):
        # the (xi, q) grid against the public per-channel amplitudes
        medium = ConstantEps(1.8)
        sys_ = PlaneSystem(GOLD, Plasma(GOLD.omega_p), medium, 200e-9)
        xi = np.array([3e13, 8e14, 2e16])
        q = np.array([0.0, 2e6, 4e7])
        grid = lifshitz_integrand(sys_, xi, q)
        for i, x in enumerate(xi):
            for j, k in enumerate(q):
                expected = 0.0
                for pol in ("TE", "TM"):
                    ch = PlaneChannel(k, pol, xi=x)
                    r1 = fresnel_r(sys_.mat1, medium, ch)
                    r2 = fresnel_r(sys_.mat2, medium, ch)
                    t = translation_factor(medium, ch, sys_.L)
                    expected += np.log1p(-r1 * r2 * t**2)
                assert grid[i, j] == pytest.approx(expected, rel=1e-13, abs=1e-300)

    def test_small_separation_warns(self):
        sys_ = PlaneSystem(PerfectMirror(), PerfectMirror(), VACUUM, 5e-10)
        res = energy_per_area(sys_)
        assert any("1 nm" in w for w in res.metadata["warnings"])

    def test_not_converged_carries_result(self):
        sys_ = PlaneSystem(GOLD, GOLD, VACUUM, 200e-9)
        with pytest.raises(NotConverged) as err:
            energy_per_area(sys_, QuadratureSpec(base_order=8, max_doublings=0, tol=1e-12))
        assert err.value.result is not None
        assert err.value.result.value < 0


def _count_points(monkeypatch):
    """The list that collects the number of points of every call of
    ``plane._real_axis_channel_values`` from here on."""
    sizes, inner = [], plane._real_axis_channel_values

    def counted(sys_, q, omega):
        sizes.append(np.size(omega))
        return inner(sys_, q, omega)

    monkeypatch.setattr(plane, "_real_axis_channel_values", counted)
    return sizes


class TestRealAxis:
    def test_single_channel_toy_vs_quad_oracle(self):
        # fixed q = 0 slice with a constant scalar reflection r < 1
        r2, L = 0.49, 1e-6

        def f(w):
            return np.log(1 - r2 * np.exp(2j * w * L / C_LIGHT)).imag

        band = (1e10, 40 * C_LIGHT / L)
        edges = np.linspace(band[0], band[1], 257)
        (val,), _ = _adaptive_panels(lambda c, w: f(w), edges[None], rel_tol=1e-9,
                                     abs_floor=1e-12 * band[1])
        oracle = 0.0
        for a, b in zip(np.linspace(band[0], band[1], 65)[:-1],
                        np.linspace(band[0], band[1], 65)[1:]):
            part, _ = quad(f, a, b, limit=200, epsabs=1e-9, epsrel=1e-12)
            oracle += part
        assert val == pytest.approx(oracle, rel=1e-8)

    def test_no_contrast_gives_zero(self):
        # lossy medium equal to the first mirror: r1 = 0 for every channel
        sys_ = PlaneSystem(GOLD, GOLD, medium=GOLD, L=200e-9)
        res = energy_per_area_real_axis(sys_, omega_max=10 * GOLD.omega_p)
        assert res.value == 0.0

    def test_drude_matches_imaginary_axis(self):
        sys_ = PlaneSystem(GOLD, GOLD, VACUUM, 200e-9)
        imag = energy_per_area(sys_, QuadratureSpec(base_order=64, tol=1e-9))
        real = energy_per_area_real_axis(
            sys_, omega_max=20 * GOLD.omega_p, quad=QuadratureSpec(base_order=48, tol=1e-4, max_doublings=2)
        )
        assert abs(real.value - imag.value) / abs(imag.value) < 1e-3
        assert real.error_estimate >= abs(real.value - imag.value)

    def test_lossy_medium_matches_imaginary_axis(self):
        # the dissipative-intervening-medium claim, checked numerically
        weak = Drude(5e15, 8e13)
        sys_ = PlaneSystem(GOLD, GOLD, medium=weak, L=200e-9)
        imag = energy_per_area(sys_, QuadratureSpec(base_order=128, tol=1e-7))
        real = energy_per_area_real_axis(
            sys_,
            omega_max=30 * GOLD.omega_p,
            quad=QuadratureSpec(base_order=64, tol=1e-3, max_doublings=1),
        )
        assert abs(real.value - imag.value) / abs(imag.value) < 1e-3
        assert real.error_estimate >= abs(real.value - imag.value)

    def test_requires_dissipation(self):
        sys_ = PlaneSystem(PerfectMirror(), PerfectMirror(), VACUUM, 1e-6)
        with pytest.raises(DomainError):
            energy_per_area_real_axis(sys_, omega_max=1e16)

    def test_channel_values_match_scalar_channel_api(self):
        # propagating and evanescent channels in a lossy medium, as one
        # stack of (q, omega) pairs against the TE + TM sum channel by
        # channel, for equal mirrors (amplitudes shared) and unequal ones
        medium = Drude(5e15, 8e13)
        q, omega = np.meshgrid([0.0, 5e6, 8e7], [3e14, 2e15, 1e16, 4e16])
        for mat2 in (GOLD, Drude(9e15, 2e14)):
            sys_ = PlaneSystem(GOLD, mat2, medium, 200e-9)
            vals = _real_axis_channel_values(sys_, q.ravel(), omega.ravel())
            for k, w, v in zip(q.ravel(), omega.ravel(), vals):
                expected = 0.0
                for pol in ("TE", "TM"):
                    ch = PlaneChannel(k, pol, omega=w)
                    r1 = fresnel_r(sys_.mat1, medium, ch)
                    r2 = fresnel_r(sys_.mat2, medium, ch)
                    t = translation_factor(medium, ch, sys_.L)
                    expected += np.log(1 - r1 * r2 * t**2).imag
                assert v == pytest.approx(expected, abs=1e-13)

    def test_stacked_channels_match_one_channel_runs(self, monkeypatch):
        # the panels of each q channel are refined as if it were alone: with
        # c q inside the band, at the band's lower end (q = 0) and at q_max;
        # a converged channel is frozen, so the stack evaluates exactly the
        # points of the one-channel runs together
        sys_ = PlaneSystem(GOLD, Drude(9e15, 2e14), Drude(5e15, 8e13), 200e-9)
        omega_max = 10 * GOLD.omega_p
        q = np.array([0.0, 1e6, 5e6, 2e7, 8.0 / sys_.L])
        assert 0 < C_LIGHT * q[2] < omega_max
        sizes = _count_points(monkeypatch)
        stacked = _frequency_integrals(sys_, q, omega_max)
        stacked_points = sum(sizes)
        for i in range(len(q)):
            alone = _frequency_integrals(sys_, q[i:i + 1], omega_max)
            for got, want in zip(stacked, alone):
                assert got[i] == pytest.approx(want[0], rel=1e-13, abs=0)
        assert 2 * stacked_points == sum(sizes)

    def test_integrand_blocks_stay_bounded(self, monkeypatch):
        sizes = _count_points(monkeypatch)
        sys_ = PlaneSystem(GOLD, GOLD, VACUUM, 200e-9)
        energy_per_area_real_axis(
            sys_, 10 * GOLD.omega_p, QuadratureSpec(base_order=8, tol=0.5, max_doublings=1))
        # the order-8 stack holds 8 channels of 60 panels of 24 points:
        # about three blocks
        assert max(sizes) <= _BLOCK == 4096
        assert sum(size > _BLOCK // 2 for size in sizes) >= 2

    def test_oscillatory_failure_at_depth_limit(self):
        from casimir.errors import OscillatoryFailure

        def f(w):
            return np.sin(w * 1e3)

        edges = np.linspace(1.0, 2.0, 3)
        with pytest.raises(OscillatoryFailure):
            _adaptive_panels(lambda c, w: f(w), edges[None], rel_tol=1e-14, abs_floor=0.0,
                             max_rounds=1)
