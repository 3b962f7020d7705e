"""Property tests of the scattering algebra: the unitary dilation at
singular values up to 1 - 1e-15, and the associativity of the star product
over three-factor chains of Haar scatterers."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from casimir.blockmat import random_unitary, unitarity_defect, unitary_dilation  # noqa: E402
from casimir.scattering import ScatteringMatrix, promote_internal, star  # noqa: E402

SEEDS = st.integers(0, 2**31)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(ks=st.lists(st.integers(0, 15), min_size=1, max_size=5), seed=SEEDS)
def test_dilation_unitary_near_unit_singular_values(ks, seed):
    """K = W diag(1 - 10^-k) V^dag: the dilation is unitary to 1e-13,
    however close to 1 its singular values lie, and keeps K bitwise."""
    n = len(ks)
    w, v = random_unitary(n, seed), random_unitary(n, seed + 1)
    k = (w * (1.0 - 10.0 ** -np.array(ks, dtype=float))) @ v.conj().T
    u = unitary_dilation(k)
    assert unitarity_defect(u) <= 1e-13
    assert np.array_equal(u[:n, :n], k)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(n=st.integers(1, 3), m=st.integers(1, 3), e1=st.integers(1, 3),
       e2=st.integers(0, 2), e3=st.integers(1, 3), seed=SEEDS)
def test_star_is_associative(n, m, e1, e2, e3, seed):
    """S1 - S2 - S3, S2 with n channels facing S1, m facing S3 and e2 of
    its own: (S1 * S2) * S3 and S1 * (S2 * S3) both leave the externals
    [S1's, S2's own, S3's] and agree to rounding, amplified by the
    condition numbers of the two round trips 1 - S1ii S2ii and
    1 - S2ii S3ii."""
    s1 = ScatteringMatrix.from_full(random_unitary(n + e1, seed), n)
    u2 = random_unitary(n + m + e2, seed + 1)
    s3 = ScatteringMatrix.from_full(random_unitary(m + e3, seed + 2), m)
    # (S1 * S2) * S3: S2 faces S1 with its first n channels; the m facing
    # S3 sit after S1's e1 externals in the product
    s12 = star(s1, ScatteringMatrix(u2, n))
    right = star(ScatteringMatrix.from_full(s12.full, list(range(e1, e1 + m))), s3)
    # S1 * (S2 * S3): S2 faces S3 with channels n .. n + m - 1; the n
    # facing S1 come first among the product's externals
    s23 = star(ScatteringMatrix.from_full(u2, list(range(n, n + m))), s3)
    left = star(s1, promote_internal(s23, n))
    cond = (np.linalg.cond(np.eye(n) - s1.ii @ u2[:n, :n])
            * np.linalg.cond(np.eye(m) - u2[n:n + m, n:n + m] @ s3.ii))
    assert left.full.shape == right.full.shape == (e1 + e2 + e3,) * 2
    assert np.abs(left.full - right.full).max() <= 1e-14 * cond
