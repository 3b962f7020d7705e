"""Property test over plate materials and separations from 1 nm to 10 cm:
every imaginary-axis energy is negative, converges by 257 Kronrod nodes
(Gauss order 128, the old order-256 budget), keeps the
ordering |E_Drude| < |E_plasma| < |E_ideal| and, for perfect mirrors,
meets the closed form."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from casimir.materials import VACUUM, Drude, PerfectMirror, Plasma  # noqa: E402
from casimir.plane import PlaneSystem, energy_per_area, ideal_energy_per_area  # noqa: E402


def _energy(mat, L):
    res = energy_per_area(PlaneSystem(mat, mat, VACUUM, L))
    assert res.value < 0
    assert res.metadata["orders"][-1] <= 257
    return res.value


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    log10_L=st.floats(-9.0, -1.0),
    omega_p=st.floats(5e15, 2e16),
    gamma=st.floats(1e13, 2e14),
)
def test_plane_energies_over_the_accepted_range(log10_L, omega_p, gamma):
    L = 10.0**log10_L
    e_drude = _energy(Drude(omega_p, gamma), L)
    e_plasma = _energy(Plasma(omega_p), L)
    e_ideal = _energy(PerfectMirror(), L)
    assert abs(e_drude) < abs(e_plasma) < abs(e_ideal)
    assert e_ideal == pytest.approx(float(ideal_energy_per_area(L)), rel=1e-9)
