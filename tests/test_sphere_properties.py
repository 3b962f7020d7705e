"""Property test over radii, permittivities and separations: the batched
sphere integrand equals one call per node, and swapping the spheres leaves
the energy unchanged."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from casimir.core import C_LIGHT, QuadratureSpec  # noqa: E402
from casimir.materials import ConstantEps, PerfectMirror  # noqa: E402
from casimir.sphere import SphereSystem, _round_trip_logdet_sum, sphere_energy  # noqa: E402

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
    # a coarse fixed quadrature (orders 8 and 16; tol 1 always accepts the
    # second), the same nodes on both sides of the swap
    quad = QuadratureSpec(base_order=8, max_doublings=1, tol=1.0)
    e12 = sphere_energy(sys_, quad, adaptive_lmax=False).value
    e21 = sphere_energy(SphereSystem(R2, R1, L, mat2, mat1, lmax=3), quad,
                        adaptive_lmax=False).value
    assert e12 < 0
    assert e21 == pytest.approx(e12, rel=1e-12)
