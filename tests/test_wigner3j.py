"""The 3j symbols and translation coefficients against sympy's exact 3j
symbols, their orthogonality far beyond the multipole orders in use, and
the memory the coefficient cache keeps."""

import random
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from sympy.physics.wigner import wigner_3j

from casimir.materials import PerfectMirror
from casimir.sphere import (
    SphereSystem,
    _axial_coeff_tensors,
    _axial_sums,
    _pair_coeffs,
    _pairs,
    _round_trip_logdet_sum,
    wigner3j,
)
from casimir.spherical_bessel import sk_array


@lru_cache(maxsize=None)
def exact3j(j1, j2, j3, m1, m2, m3):
    return float(wigner_3j(j1, j2, j3, m1, m2, m3))


def _sample_rows():
    """Fixed (j1, j2, m1, m2) rows with j <= 40: random m, all-zero m and
    the stretched m = +-j corners."""
    rng = random.Random(12)
    rows = [(40, 40, 0, 0), (40, 40, 40, -40), (40, 1, -40, 1), (0, 0, 0, 0), (17, 23, 0, 0)]
    for _ in range(6):
        j1, j2 = rng.randint(0, 40), rng.randint(0, 40)
        rows.append((j1, j2, rng.randint(-j1, j1), rng.randint(-j2, j2)))
    return rows


class TestAgainstSympy:
    @pytest.mark.parametrize("j1,j2,m1,m2", _sample_rows())
    def test_every_j3_of_a_row(self, j1, j2, m1, m2):
        got = wigner3j(j1, j2, None, m1, m2, -m1 - m2)
        assert got.shape == (j1 + j2 + 1,)
        want = [exact3j(j1, j2, j3, m1, m2, -m1 - m2) for j3 in range(j1 + j2 + 1)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    def test_broadcast_rows(self):
        j1 = np.array([[3], [12], [25]])
        j2 = np.array([4, 9])
        got = wigner3j(j1, j2, None, 2, -1, -1)
        assert got.shape == (3, 2, 35)
        for a in range(3):
            for b in range(2):
                for j3 in range(35):
                    want = exact3j(int(j1[a, 0]), int(j2[b]), j3, 2, -1, -1)
                    assert abs(got[a, b, j3] - want) < 1e-13

    def test_scalar_calls_and_selection_rules(self):
        for args in [(7, 5, 4, 3, -2, -1), (30, 30, 7, 5, -5, 0), (12, 3, 15, -4, 3, 1)]:
            value = wigner3j(*args)
            assert isinstance(value, float)
            assert value == pytest.approx(exact3j(*args), rel=1e-12, abs=1e-15)
        zeros = [
            (3, 2, 6, 0, 0, 0),  # triangle
            (3, 2, 0, 0, 0, 0),  # triangle (j3 below |j1 - j2|)
            (3, 3, 2, 1, 1, -1),  # m sum
            (3, 3, 2, 4, -4, 0),  # |m1| > j1
            (3, 3, 1, 2, 0, -2),  # |m3| > j3
            (3, 3, 3, 0, 0, 0),  # odd j1 + j2 + j3 with all m zero
            (3, 3, -1, 0, 0, 0),  # negative j3
        ]
        for args in zeros:
            assert wigner3j(*args) == 0.0, args

    def test_60_60_60(self):
        for m in (0, 3):
            want = exact3j(60, 60, 60, m, -m, 0)
            assert wigner3j(60, 60, 60, m, -m, 0) == pytest.approx(want, rel=1e-13)

    def test_tiny_symbols_keep_relative_precision(self):
        # far in the classically forbidden region the symbols are tiny; each
        # is reached by recursion in the direction in which it grows
        for args in [(50, 50, 100, 50, -50, 0), (40, 30, 70, 20, -20, 0), (40, 39, 1, 39, -39, 0)]:
            want = exact3j(*args)
            assert wigner3j(*args) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("j", [10, 50, 100, 200])
def test_orthogonality_to_j_200(j):
    j3 = np.arange(2 * j + 1)
    for m in sorted({0, 1, j // 3, j // 2, j - 1, j}):
        row = wigner3j(j, j, None, m, -m, 0)
        assert abs(np.sum((2 * j3 + 1) * row**2) - 1.0) < 1e-12, m


def _loop_coefficients(lmax, m):
    """The m-block's cA, cC by the element-by-element loop the package
    used before its vectorised build, fed with sympy's exact 3j symbols.
    It fills both triangles, so it also checks that the coefficients are
    symmetric in l <-> l'."""
    lmin = max(1, m)
    n = lmax - lmin + 1
    cA = np.zeros((n, n, 2 * lmax + 2))
    cC = np.zeros((n, n, 2 * lmax + 2))
    for il, l in enumerate(range(lmin, lmax + 1)):
        for ilp, lp in enumerate(range(lmin, lmax + 1)):
            norm = (
                np.sqrt((2 * l + 1) * (2 * lp + 1))
                / (2.0 * np.sqrt(l * (l + 1) * lp * (lp + 1)))
                * (2.0 / np.pi)
            )
            for lam in range(abs(l - lp), l + lp + 2):
                tm = exact3j(l, lp, lam, m, -m, 0)
                if tm == 0.0:
                    continue
                if (l + lp + lam) % 2 == 0:
                    t0 = exact3j(l, lp, lam, 0, 0, 0)
                    geom = l * (l + 1) + lp * (lp + 1) - lam * (lam + 1)
                    cA[ilp, il, lam] = norm * (2 * lam + 1) * t0 * tm * geom
                else:
                    t0 = exact3j(l, lp, lam - 1, 0, 0, 0)
                    root = (lam**2 - (l - lp) ** 2) * ((l + lp + 1) ** 2 - lam**2)
                    if root <= 0 or t0 == 0.0:
                        continue
                    cC[ilp, il, lam] = norm * (2 * lam + 1) * t0 * tm * np.sqrt(root)
    return lmin, cA, cC


def _full_tensors(lmax, m, pairs):
    """(l_min, cA, cC) as (n, n, 2 lmax + 2) tensors from the coefficients
    (cA, cC) of the pairs l' <= l, filled in entry by entry with the
    symmetry c[l, l'] = c[l', l]."""
    lps, ls, _ = _pairs(lmax, m)
    lmin = max(1, m)
    n = lmax - lmin + 1
    full = np.zeros((2, n, n, 2 * lmax + 2))
    for k, (lp, l) in enumerate(zip(lps, ls)):
        for tensor, pair in zip(full, pairs):
            tensor[lp - lmin, l - lmin] = pair[k]
            tensor[l - lmin, lp - lmin] = pair[k]
    return lmin, full[0], full[1]


@pytest.mark.parametrize("lmax", range(1, 7))
def test_coefficients_match_loop_with_exact_3j(lmax):
    for m in range(lmax + 1):
        lmin, cA, cC = _full_tensors(lmax, m, _axial_coeff_tensors(lmax, m)[:2])
        want_lmin, want_a, want_c = _loop_coefficients(lmax, m)
        assert lmin == want_lmin
        scale = max(np.abs(want_a).max(), np.abs(want_c).max())
        assert np.abs(cA - want_a).max() <= 1e-13 * scale
        assert np.abs(cC - want_c).max() <= 1e-13 * scale


def test_cache_keeps_few_bytes_after_lmax_50():
    # the pair coefficients of all 51 m-blocks at lmax 50 take 38 MB; the
    # cache must not keep them
    _axial_coeff_tensors.cache_clear()
    pec = PerfectMirror()
    sys_ = SphereSystem(R1=1e-7, R2=1e-7, L=2.2e-7, mat1=pec, mat2=pec)
    tracemalloc.start()
    try:
        value = _round_trip_logdet_sum(sys_, np.array([3e14, 3e15]), 50)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(value)) and np.all(value < 0)
    assert retained <= 8 * 2**20


@pytest.mark.parametrize("m", [0, 1, 7])
def test_large_block_sums_match_its_tensors(m):
    # lmax 40: every block with n >= 28 is too large to cache and is
    # contracted chunk by chunk while it is built; at lmax 12 every block
    # comes from the cache
    for lmax, cached in ((40, False), (12, True)):
        sk = sk_array(2 * lmax + 1, np.array([0.5, 2.0, 9.0]))
        lps, ls, _ = _pairs(lmax, m)
        pairs = _pair_coeffs(lmax, m, lps, ls)
        assert (16 * pairs[0].size <= 2**19) == cached
        _, cA, cC = _full_tensors(lmax, m, pairs)
        for sl, a, c in _axial_sums(lmax, m, sk, 2):
            for got, coeff in ((a, cA), (c, cC)):
                want = np.einsum("ijl,kl->kij", coeff, sk[sl])
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_large_block_never_holds_its_tensors():
    # the pair coefficients of the lmax-100 m = 0 block take 16 MB
    sk = sk_array(201, np.array([6.0, 30.0]))
    tracemalloc.start()
    try:
        for _, a, c in _axial_sums(100, 0, sk, 1):
            assert a.shape == c.shape == (1, 100, 100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20
