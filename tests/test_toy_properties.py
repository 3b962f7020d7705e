"""Property test over the toy's accepted mirrors and bands: the phase-shift
route and the density-of-states route give the same band energy.

The DOS route is exact up to rounding, so the difference is the phase
route's own rounding. Its boundary term b dphi(b) carries a few ulps of a
phase that reaches about 4 pi. That floor, a few 1e-16 hbar b, is what is
left for transparent mirrors, and wherever the band energy cancels to near
zero."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from casimir.core import C_LIGHT, HBAR  # noqa: E402
from casimir.toy import band_energies  # noqa: E402

L = 1e-6


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    r=st.floats(0.0, 0.95),
    t_frac=st.floats(0.0, 1.0),
    lo=st.floats(0.5, 7.9),
    width_frac=st.floats(0.01, 1.0),
)
def test_phase_route_equals_dos_route(r, t_frac, lo, width_frac):
    t = t_frac * np.sqrt(1.0 - r * r)
    a = lo * C_LIGHT / L
    b = (lo + width_frac * (8.0 - lo)) * C_LIGHT / L
    res = band_energies(L, r, t, (a, b))
    e_phase, e_dos = res["phase_route"], res["dos_route"]
    assert abs(e_phase - e_dos) <= 1e-12 * abs(e_phase) + 2e-15 * HBAR * b
