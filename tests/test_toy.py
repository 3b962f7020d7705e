"""Lossy Fabry-Perot toy: the two band-energy bookkeepings must agree."""

import numpy as np
import pytest

from casimir import toy
from casimir.core import C_LIGHT
from casimir.errors import DomainError, NotContraction
from casimir.scattering import dos_change, translation_scatterer
from casimir.toy import band_energies, cavity, lossy_mirror, phase_profile


class TestLossyMirror:
    def test_unitary_with_loss_ports(self):
        m = lossy_mirror(0.9, 0.3, "right")
        assert m.n_int == 1 and m.n_ext == 3
        assert m.unitarity_defect() < 1e-10

    def test_overactive_mirror_rejected(self):
        with pytest.raises(NotContraction):
            lossy_mirror(0.9, 0.5, "right")


class TestCavity:
    def test_unitary_chain(self):
        full, sl = cavity(2.3e15, 1e-6, 0.9, 0.3)
        assert full.unitarity_defect() < 1e-9
        assert sl.unitarity_defect() < 1e-10

    def test_dos_relative_to_translation(self):
        # single-mode cavity: the density-of-states change relative to the
        # bare translation integrates peaks at the resonances
        L = 1e-6
        mirrors = (lossy_mirror(0.7, 0.3, "right"), lossy_mirror(0.7, 0.3, "left"))

        def full_sampler(w):
            return cavity(w, L, 0.7, 0.3, mirrors)[0]

        def sl_sampler(w):
            return cavity(w, L, 0.7, 0.3, mirrors)[1]

        w_res = np.pi * C_LIGHT / L  # round-trip phase 2 w L / c = 2 pi
        h = 1e-6 * C_LIGHT / L
        on = dos_change(full_sampler, w_res, h) - dos_change(sl_sampler, w_res, h)
        off = dos_change(full_sampler, 1.5 * w_res, h) - dos_change(
            sl_sampler, 1.5 * w_res, h
        )
        # analytic single-mode values: rho/(1 -+ rho) * 2L/(pi c) at/between
        # resonances, with rho = r^2 the round-trip amplitude
        rho = 0.49
        assert on == pytest.approx(rho / (1 - rho) * 2 * L / (np.pi * C_LIGHT), rel=1e-4)
        assert off == pytest.approx(-rho / (1 + rho) * 2 * L / (np.pi * C_LIGHT), rel=1e-4)


class TestStackedCavity:
    def test_stack_matches_single_calls(self):
        L = 1e-6
        mirrors = (lossy_mirror(0.9, 0.3, "right"), lossy_mirror(0.9, 0.3, "left"))
        omegas = np.linspace(0.5, 6.0, 7) * C_LIGHT / L
        full, sl = cavity(omegas, L, 0.9, 0.3, mirrors)
        assert full.ee.shape == (7, 8, 8) and sl.n_int == 1
        for i, w in enumerate(omegas):
            f1, s1 = cavity(w, L, 0.9, 0.3, mirrors)
            assert np.max(np.abs(full.ee[i] - f1.ee)) <= 1e-13
            assert np.max(np.abs(sl.full[i] - s1.full)) <= 1e-13

    def test_each_cavity_gets_one_eigendecomposition(self, monkeypatch):
        # one cavity stack, decomposed once for the phase profile; the
        # density of states comes from the round trip of the same stack
        seen, built = [], []
        eigvals, build = np.linalg.eigvals, toy.cavity

        def counting(a):
            seen.append(int(np.prod(np.shape(a)[:-2], dtype=int)))
            return eigvals(a)

        def counting_cavity(omega, *args):
            built.append(np.size(omega))
            return build(omega, *args)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        monkeypatch.setattr(toy, "cavity", counting_cavity)
        L = 1e-6
        s = C_LIGHT / L
        res = band_energies(L, 0.9, 0.3, (0.5 * s, 3 * s), panels=10, order=8)
        nodes = len(res["rows"])
        assert nodes == 82
        assert seen == [nodes] and built == [nodes]


class TestLosslessTranslation:
    """The toy takes the cavity phase without subtracting the bare
    translation's: at real frequency det S_L = |t|^4 = 1, so that phase is
    constant. A lossy gap would make it move and need the reference."""

    L = 1e-6

    def sampler(self, w):
        t = np.exp(1j * np.asarray(w) * self.L / C_LIGHT)
        return translation_scatterer(t[..., None, None])

    def test_phase_is_constant(self):
        omegas = np.linspace(0.5, 6.0, 400) * C_LIGHT / self.L
        phases = phase_profile(self.sampler(omegas))
        assert np.ptp(phases) <= 1e-13

    def test_dos_vanishes(self):
        # at the step 1e-5 (b - a) for the band [0.5, 6] c/L; what is left
        # is eigenphase rounding (a few eps per increment) over 2h, below
        # 1e-11 of the cavity's density-of-states scale L/c
        h = 5.5e-5 * C_LIGHT / self.L
        omegas = np.linspace(0.5, 6.0, 200) * C_LIGHT / self.L
        worst = max(abs(dos_change(self.sampler, w, h)) for w in omegas)
        assert worst <= 1e-11 * self.L / C_LIGHT


class TestBandEnergies:
    L = 1e-6

    def test_dos_rows_match_single_mode_closed_form(self):
        # one internal channel: M = r^2 e^(2i w L/c), so
        # deta = (2L/pi c) Re[x/(1 - x)] with x = r^2 e^(2i w L/c)
        s = C_LIGHT / self.L
        rows = np.array(band_energies(self.L, 0.9, 0.3, (0.5 * s, 6 * s))["rows"])
        omega, deta = rows[:, 0], rows[:, 2]
        x = 0.81 * np.exp(2j * omega * self.L / C_LIGHT)
        exact = 2 * self.L / (np.pi * C_LIGHT) * (x / (1 - x)).real
        assert np.max(np.abs(deta - exact)) <= 1e-13 * np.max(np.abs(deta))

    def test_dos_rows_match_finite_differences(self):
        # Richardson extrapolation of the central difference of the whole
        # dilated cavity's phase, at the band edges, the anti-resonances and
        # a resonance, where deta is far from zero
        a, b = 0.5 * C_LIGHT / self.L, 6 * C_LIGHT / self.L
        rows = np.array(band_energies(self.L, 0.9, 0.3, (a, b))["rows"])
        targets = np.array([0.5, np.pi / 2, np.pi, 3 * np.pi / 2, 6.0]) * C_LIGHT / self.L
        idx = np.abs(rows[:, :1] - targets).argmin(axis=0)
        omega, deta = rows[idx, 0], rows[idx, 2]
        mirrors = (lossy_mirror(0.9, 0.3, "right"), lossy_mirror(0.9, 0.3, "left"))

        def sampler(w):
            return cavity(w, self.L, 0.9, 0.3, mirrors)[0]

        h = (b - a) * 1e-5
        fd = (4 * dos_change(sampler, omega, h / 2) - dos_change(sampler, omega, h)) / 3
        assert np.max(np.abs(fd - deta) / np.abs(deta)) <= 1e-9

    def test_transparent_mirrors_zero(self):
        L = 1e-6
        s = C_LIGHT / L
        res = band_energies(L, 0.0, 1.0, (0.5 * s, 3 * s), panels=8, order=8)
        # zero up to finite-difference rounding noise, many orders below
        # the lossy-cavity scale of ~1e-20 J
        assert abs(res["phase_route"]) < 1e-28
        assert abs(res["dos_route"]) < 1e-28
        assert max(abs(d) for _, _, d in res["rows"]) < 1e-9 * L / C_LIGHT

    def test_lossy_routes_agree(self):
        L = 1e-6
        s = C_LIGHT / L
        res = band_energies(L, 0.9, 0.3, (0.5 * s, 6 * s))
        e1, e3 = res["phase_route"], res["dos_route"]
        assert abs(e1 - e3) / abs(e1) < 1e-6
        assert e1 < 0

    def test_dissipation_is_implicit(self):
        # same internal reflection, different loss: identical band energy
        L = 1e-6
        s = C_LIGHT / L
        lossy = band_energies(L, 0.9, 0.3, (0.5 * s, 4 * s), panels=40)
        lossless = band_energies(L, 0.9, np.sqrt(1 - 0.81), (0.5 * s, 4 * s), panels=40)
        assert lossy["phase_route"] == pytest.approx(
            lossless["phase_route"], rel=1e-9
        )


@pytest.mark.parametrize("L", [True, -1e-6, 0], ids=["bool", "negative", "zero"])
def test_cavity_length_is_checked(L):
    """A bool ran as L = 1 m, a negative length returned an energy and a
    zero one raised ZeroDivisionError."""
    with pytest.raises(DomainError, match="L must be"):
        band_energies(L, 0.9, 0.3, (1e14, 2e14))
    with pytest.raises(DomainError, match="L must be"):
        cavity(1e14, L, 0.9, 0.3)
