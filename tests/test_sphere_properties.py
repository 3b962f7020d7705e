"""Property tests over radii, permittivities and separations: the batched
sphere integrand equals one call per node, swapping the spheres leaves
the energy unchanged, the energy is negative and its magnitude falls with
the separation, and the Mie amplitudes of the round trip keep their sign
up to rounding."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from casimir.core import C_LIGHT, QuadratureSpec  # noqa: E402
from casimir.materials import ConstantEps, Drude, Lorentz, PerfectMirror, Plasma  # noqa: E402
from casimir.sphere import (  # noqa: E402
    SphereSystem,
    _mie_scaled,
    _round_trip_logdet_sum,
    sphere_energy,
)

MATERIALS = st.one_of(st.just(PerfectMirror()), st.floats(1.5, 20.0).map(ConstantEps))


@settings(derandomize=True, max_examples=12, deadline=None)
@given(
    R1=st.floats(5e-8, 2e-7),
    R2=st.floats(5e-8, 2e-7),
    rel_gap=st.floats(0.2, 4.0),
    mat1=MATERIALS,
    mat2=MATERIALS,
)
def test_batched_and_swap_invariant(R1, R2, rel_gap, mat1, mat2):
    L = (R1 + R2) * (1.0 + rel_gap)
    sys_ = SphereSystem(R1, R2, L, mat1, mat2, lmax=3)
    # from inside the small-w clamp to a few c/gap
    xi = np.geomspace(1e-80, 8.0 * L / (L - R1 - R2), 24) * C_LIGHT / L
    batched = _round_trip_logdet_sum(sys_, xi, 3)
    single = np.array([_round_trip_logdet_sum(sys_, x, 3) for x in xi])
    np.testing.assert_allclose(batched, single, rtol=1e-13, atol=0)
    # a coarse fixed quadrature (Gauss 8 in Kronrod 17; tol 1 always
    # accepts it), the same nodes on both sides of the swap
    quad = QuadratureSpec(base_order=8, max_doublings=1, tol=1.0)
    e12 = sphere_energy(sys_, quad, adaptive_lmax=False).value
    e21 = sphere_energy(SphereSystem(R2, R1, L, mat2, mat1, lmax=3), quad,
                        adaptive_lmax=False).value
    assert e12 < 0
    assert e21 == pytest.approx(e12, rel=1e-12)


PAIR_MATERIALS = st.one_of(
    st.just(PerfectMirror()),
    st.builds(Drude, st.floats(5e15, 2e16), st.floats(1e13, 2e14)),
    st.floats(1.5, 20.0).map(ConstantEps),
)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    R1=st.floats(5e-8, 2e-7),
    R2=st.one_of(st.none(), st.floats(5e-8, 2e-7)),
    rel_gap=st.floats(0.25, 3.0),
    lmax=st.integers(1, 6),
    mat1=PAIR_MATERIALS,
    mat2=PAIR_MATERIALS,
)
def test_energy_negative_monotone_and_swap_invariant(R1, R2, rel_gap, lmax, mat1, mat2):
    """Default quadrature (the nested Gauss-Kronrod rule) and the m
    cut-off, at fixed lmax: E < 0, |E| falls as L grows up to L/R = 400,
    and swapping the spheres leaves E unchanged. R2 = None draws equal
    radii."""
    R2 = R1 if R2 is None else R2
    near = (R1 + R2) * (1.0 + rel_gap)
    energies = [
        sphere_energy(SphereSystem(R1, R2, L, mat1, mat2, lmax=lmax), adaptive_lmax=False).value
        for L in np.geomspace(near, 400.0 * max(R1, R2), 5)
    ]
    assert all(e < 0 for e in energies)
    assert all(abs(far) < abs(close) for close, far in zip(energies, energies[1:]))
    swapped = sphere_energy(SphereSystem(R2, R1, near, mat2, mat1, lmax=lmax),
                            adaptive_lmax=False).value
    assert swapped == pytest.approx(energies[0], rel=1e-12)


# every model the API accepts, up to a plasma frequency of 1e17 rad/s; far
# above it si_array's Miller loop (sqrt(40 n x) steps) takes seconds per call
ANY_MATERIAL = st.one_of(
    st.just(PerfectMirror()),
    st.floats(1.0, 1e4).map(ConstantEps),
    st.builds(Drude, st.floats(0.0, 1e17), st.floats(0.0, 1e20)),
    st.builds(Plasma, st.floats(0.0, 1e17)),
    st.builds(Lorentz, st.floats(0.0, 1e17), st.floats(0.0, 1e20), st.floats(0.0, 1e20)),
)
R = 1e-7
X = np.geomspace(1e-4, 300.0, 80)


def _d_r(mat):
    """q = D r = (a_l, -b_l) of the i_l/k_l basis, l = 1..60, on the x grid."""
    a, b = _mie_scaled(mat, R, X * C_LIGHT / R, 60)
    return np.concatenate([a, -b], axis=-1)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(mat=ANY_MATERIAL)
def test_round_trip_amplitudes_are_nonpositive_up_to_rounding(mat):
    """q = D r <= 0 for every accepted sphere, wherever the amplitude is
    resolved: a positive one is rounding left by the cancelling numerator
    of a sphere that is nearly vacuum (eps(i xi) - 1 about 1e-6 or less),
    below 1e-10 of the perfect mirror's amplitude of the same l and x."""
    q, pec = _d_r(mat), np.abs(_d_r(PerfectMirror()))
    assert np.all(q <= 1e-10 * pec)


def test_nearly_vacuum_sphere_has_positive_amplitudes():
    """Why the round trip clamps q and p to their exact sign, <= 0: an
    accepted dielectric a millionth above vacuum gives computed amplitudes
    of either sign at small x."""
    q = _d_r(ConstantEps(1.000001))
    assert np.any(q > 0) and np.any(q < 0)
