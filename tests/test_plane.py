"""Plane-plane geometry tests: Fresnel amplitudes, the round trip of the
gap, and the energy per unit area on both frequency axes."""

import numpy as np
import pytest
from scipy.integrate import quad

from casimir.core import C_LIGHT, QuadratureSpec
from casimir.errors import DomainError, NotConverged
from casimir import plane
from casimir.materials import VACUUM, ConstantEps, Drude, PerfectMirror, Plasma
from casimir.plane import (
    PlaneSystem,
    _BLOCK,
    _adaptive_panels,
    _eps_k,
    _frequency_integrals,
    _fresnel,
    _real_axis_channel_values,
    _round_trip,
    energy_per_area,
    energy_per_area_real_axis,
    ideal_energy_per_area,
    lifshitz_integrand,
)

GOLD = Drude(1.37e16, 5.3e13)
MIRRORS = PlaneSystem(PerfectMirror(), PerfectMirror(), VACUUM, 1e-6)


def fresnel(mat, medium, freq, q, real=False):
    """(r_TE, r_TM) of ``mat`` seen from ``medium`` at paired arrays of
    frequencies and transverse momenta."""
    freq, q_sq = np.asarray(freq, dtype=float), np.asarray(q, dtype=float) ** 2
    em, km = _eps_k(medium, freq, q_sq, real)
    return _fresnel(mat, em, km, freq, q_sq, real)


class TestFresnel:
    def test_no_contrast(self):
        m = ConstantEps(2.5)
        xi, q = np.array([1e13, 1e15, 1e17]), np.array([0.0, 1e6, 1e8])
        for r in fresnel(m, m, xi, q):
            assert np.all(r == 0)

    def test_perfect_mirror(self):
        xi, q = np.array([1e14, 1e15]), np.array([0.0, 1e7])
        for real in (False, True):
            assert fresnel(PerfectMirror(), VACUUM, xi, q, real) == (-1, 1)

    def test_drude_gold_like_oracle(self):
        # oracle: direct arithmetic of the kappa forms
        xi, q = np.array([1e15, 3e13, 2e16]), np.array([1e7, 0.0, 4e7])
        em = 1.0
        ep = 1.0 + GOLD.omega_p**2 / (xi * (xi + GOLD.gamma))
        km = np.sqrt(em * xi**2 / C_LIGHT**2 + q**2)
        kp = np.sqrt(ep * xi**2 / C_LIGHT**2 + q**2)
        rte = (km - kp) / (km + kp)
        rtm = (ep * km - em * kp) / (ep * km + em * kp)
        got_te, got_tm = fresnel(GOLD, VACUUM, xi, q)
        np.testing.assert_allclose(got_te, rte, rtol=1e-14)
        np.testing.assert_allclose(got_tm, rtm, rtol=1e-14)

    def test_modulus_bounded_on_imag_axis(self):
        xi, qL = np.meshgrid(np.geomspace(1e13, 1e17, 10), [0.0, 1.0, 10.0])
        for mat in (GOLD, Plasma(1.37e16), ConstantEps(5.0)):
            for r in fresnel(mat, VACUUM, xi.ravel(), qL.ravel() / 1e-6):
                assert np.all(np.abs(r) <= 1 + 1e-12)

    def test_perfect_mirror_medium_rejected(self):
        with pytest.raises(DomainError):
            PlaneSystem(GOLD, GOLD, medium=PerfectMirror(), L=1e-6)
        with pytest.raises(DomainError):
            fresnel(GOLD, PerfectMirror(), [1e15], [1e6], real=True)


class TestTranslationFactor:
    # the translation factor across the gap enters the round trip
    # x = r1 r2 e^{2 i kz L}; between perfect mirrors r1 r2 = 1 for both
    # polarizations, so x is the squared factor itself
    def test_perfect_mirror_medium_rejected(self):
        # no finite permittivity: the system is rejected for both axes, and
        # the real-axis wavevector raises
        with pytest.raises(DomainError):
            PlaneSystem(PerfectMirror(), PerfectMirror(), medium=PerfectMirror())
        with pytest.raises(DomainError):
            _eps_k(PerfectMirror(), np.array([1e15]), np.array([1e12]), real=True)

    def test_zero_separation(self):
        # the system needs L > 0: the factor tends to one as L vanishes
        sys_ = PlaneSystem(PerfectMirror(), PerfectMirror(), VACUUM, 1e-300)
        for real in (False, True):
            for x in _round_trip(sys_, np.array([1e15]), np.array([1e12]), real):
                np.testing.assert_allclose(x, 1.0, rtol=0, atol=1e-290)

    def test_vacuum_propagating_unit_modulus(self):
        w = np.array([1e14, 1e15, 1e16])
        for x in _round_trip(MIRRORS, w, (0.5 * w / C_LIGHT) ** 2, real=True):
            assert np.all(np.abs(np.abs(x) - 1) < 1e-12)

    def test_lossy_medium_attenuates(self):
        # oracle: exp(2 i kz L) with independently computed complex kz
        w, q, L = np.array([1e15, 4e15]), np.array([2e6, 3e7]), 1e-6
        sys_ = PlaneSystem(PerfectMirror(), PerfectMirror(), GOLD, L)
        eps = 1.0 - GOLD.omega_p**2 / (w * (w + 1j * GOLD.gamma))
        kz = np.sqrt(eps * w**2 / C_LIGHT**2 - q**2 + 0j)
        kz = np.where(kz.imag < 0, -kz, kz)
        for x in _round_trip(sys_, w, q**2, real=True):
            np.testing.assert_allclose(x, np.exp(2j * kz * L), rtol=1e-13)
            assert np.all(np.abs(x) < 1.0)

    def test_imag_axis_decay(self):
        xi, q = np.array([1e15, 1e14]), np.array([1e6, 0.0])
        km = np.sqrt((xi / C_LIGHT) ** 2 + q**2)
        for x in _round_trip(MIRRORS, xi, q**2, real=False):
            np.testing.assert_allclose(x, np.exp(-2 * km * 1e-6), rtol=1e-14)


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
        # by Gauss order 128 with 257 Kronrod nodes, the old order-256 budget
        assert res.metadata["orders"][-1] <= 257

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
        xi, q = (a.ravel() for a in np.meshgrid(np.geomspace(1e13, 1e17, 12), [0.0, 1e6, 1e7]))
        for rd, rp in zip(fresnel(GOLD, VACUUM, xi, q),
                          fresnel(Plasma(GOLD.omega_p), VACUUM, xi, q)):
            assert np.all(rd**2 <= rp**2 + 1e-15)

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
        # the (xi, q) grid against the amplitudes of each channel alone
        medium = ConstantEps(1.8)
        sys_ = PlaneSystem(GOLD, Plasma(GOLD.omega_p), medium, 200e-9)
        xi = np.array([3e13, 8e14, 2e16])
        q = np.array([0.0, 2e6, 4e7])
        grid = lifshitz_integrand(sys_, xi, q)
        for i, x in enumerate(xi):
            for j, k in enumerate(q):
                km = np.sqrt(1.8 * (x / C_LIGHT) ** 2 + k**2)
                t = np.exp(-km * sys_.L)
                expected = 0.0
                r1s, r2s = fresnel(sys_.mat1, medium, x, k), fresnel(sys_.mat2, medium, x, k)
                for r1, r2 in zip(r1s, r2s):
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
                eps = 1.0 - medium.omega_p**2 / (w * (w + 1j * medium.gamma))
                kz = np.sqrt(eps * (w / C_LIGHT) ** 2 - k**2 + 0j)
                t = np.exp(1j * (-kz if kz.imag < 0 else kz) * sys_.L)
                expected = 0.0
                for r1, r2 in zip(fresnel(sys_.mat1, medium, w, k, real=True),
                                  fresnel(sys_.mat2, medium, w, k, real=True)):
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
