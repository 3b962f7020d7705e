"""Tests for the shared log-det and quadrature machinery."""

import numpy as np
import pytest
from scipy.integrate import quad

from casimir import blockmat, core
from casimir.blockmat import random_contraction
from casimir.core import (
    EnergyResult,
    QuadratureSpec,
    integrate_semiinfinite,
    log_det_one_minus,
)
from casimir.errors import BranchRisk


class TestLogDetOneMinus:
    def test_zero(self):
        assert log_det_one_minus(np.zeros((3, 3))) == 0

    def test_scalar_half(self):
        val = log_det_one_minus(np.array([[0.5]]))
        assert val.real == pytest.approx(np.log(0.5), abs=1e-15)
        assert val.imag == 0

    def test_tiny_eigenvalues_keep_relative_precision(self):
        # 1 - 1e-17 rounds to 1, so log(1 - lambda) would give exactly 0
        val = log_det_one_minus(np.diag([1e-17, 2e-17]))
        assert val.real == pytest.approx(-3e-17, rel=1e-14)
        assert val.imag == 0

    @pytest.mark.parametrize("lam", [1 - 2**-28, 1 - 1e-6, (1 - 1e-6) * np.exp(1e-4j)])
    def test_eigenvalues_near_one_keep_relative_precision(self, lam):
        # 1 - lambda is exact here (Sterbenz), so np.log(1 - lambda) is the
        # reference; log1p(2 Re z + |z|^2) would cancel to log1p(-1)
        val = log_det_one_minus(np.diag([lam, 0.25]))
        ref = np.log(1 - lam) + np.log(0.75)
        assert val.real == pytest.approx(ref.real, rel=1e-14)
        assert val.imag == pytest.approx(ref.imag, rel=1e-14, abs=1e-300)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_factorization_oracle(self, seed):
        m = random_contraction(6, seed)
        via_eig = log_det_one_minus(m)
        via_lu = blockmat.logdet(np.eye(6) - m)
        assert abs(via_eig - via_lu) < 1e-10

    def test_branch_risk(self):
        with pytest.raises(BranchRisk):
            log_det_one_minus(np.eye(2))

    def test_non_normal_below_unit_radius(self):
        # spectral radius 0.95, but the norm and a power-iteration estimate
        # of the radius exceed one: the exact moduli decide, no BranchRisk
        m = 0.95 * np.eye(6) + 3.0 * np.eye(6, k=1)
        via_eig = log_det_one_minus(m)
        via_lu = blockmat.logdet(np.eye(6) - m)
        assert abs(via_eig - via_lu) < 1e-10
        assert via_eig.real == pytest.approx(6 * np.log(0.05), rel=1e-12)

    def test_real_nonpositive_for_psd_products(self):
        # products similar to Hermitian PSD contractions, as on the
        # imaginary axis with identical mirrors
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = rng.standard_normal((4, 4))
            h = g @ g.T
            h = 0.9 * h / np.max(np.abs(np.linalg.eigvalsh(h)))
            val = log_det_one_minus(h.astype(complex))
            assert abs(val.imag) < 1e-12
            assert val.real <= 0


class TestStackedLogDetOneMinus:
    @staticmethod
    def _stack(seed, count=5, n=6):
        return np.stack([random_contraction(n, seed + i) for i in range(count)])

    def test_matches_loop(self):
        stack = self._stack(11)
        out = log_det_one_minus(stack)
        assert out.shape == (5,) and out.dtype == complex
        for i, m in enumerate(stack):
            assert abs(out[i] - log_det_one_minus(m)) < 1e-13

    def test_leading_axes(self):
        stack = self._stack(20, count=6).reshape(2, 3, 6, 6)
        out = log_det_one_minus(stack)
        assert out.shape == (2, 3)
        assert abs(out[1, 2] - log_det_one_minus(stack[1, 2])) < 1e-13

    def test_real_stack_matches_complex(self):
        rng = np.random.default_rng(5)
        stack = 0.1 * rng.standard_normal((4, 5, 5))
        real = log_det_one_minus(stack)
        cplx = log_det_one_minus(stack.astype(complex))
        assert np.max(np.abs(real - cplx)) < 1e-13
        # the imaginary parts of conjugate eigenvalue pairs cancel
        assert np.max(np.abs(real.imag)) < 1e-14

    def test_branch_risk_from_one_matrix(self):
        stack = self._stack(30)
        stack[3] = np.diag([0.2, 0.3, 1.0, 0.1, 0.0, 0.5])
        with pytest.raises(BranchRisk, match="matrix"):
            log_det_one_minus(stack)
        # the same stack without that matrix is fine
        log_det_one_minus(np.delete(stack, 3, axis=0))

    def test_non_finite_entry(self):
        stack = self._stack(40)
        stack[2, 1, 4] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            log_det_one_minus(stack)
        stack[2, 1, 4] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            log_det_one_minus(stack.real)

    def test_not_square(self):
        with pytest.raises(ValueError):
            log_det_one_minus(np.zeros((3, 2, 4)))
        with pytest.raises(ValueError):
            log_det_one_minus(np.zeros(3))


class TestIntegrateSemiInfinite:
    def test_exponential(self):
        value, err, _, converged = integrate_semiinfinite(
            lambda x: np.exp(-x), QuadratureSpec(base_order=32, tol=1e-12), scale=1.0
        )
        assert value == pytest.approx(1.0, abs=1e-10)
        assert converged and type(value) is float and type(err) is float

    def test_x_exponential(self):
        value, _, _, _ = integrate_semiinfinite(
            lambda x: x * np.exp(-x), QuadratureSpec(base_order=32, tol=1e-12)
        )
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_lifshitz_like_slice_vs_adaptive_oracle(self):
        # single-q slice of a two-mirror integrand on the imaginary axis
        L, c, r2 = 1e-6, 299792458.0, 0.8

        def f(xi):
            return np.log1p(-r2 * np.exp(-2 * xi * L / c))

        value, _, _, _ = integrate_semiinfinite(
            f, QuadratureSpec(base_order=64, tol=1e-10), scale=c / L
        )
        # independent adaptive oracle; the tail beyond 60 c/(2L) is below
        # r2 * exp(-60) * c/(2L) ~ 1e-12 relative
        oracle, _ = quad(f, 0, 30 * c / L, epsabs=1e-3, epsrel=1e-12, limit=400)
        assert value == pytest.approx(oracle, rel=1e-8)

    def test_error_estimate_shrinks(self):
        _, _, history, _ = integrate_semiinfinite(
            lambda x: np.exp(-(x**2)), QuadratureSpec(base_order=16, tol=1e-13, max_doublings=5)
        )
        vals = [v for _, v in history]
        diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
        assert all(d2 <= d1 for d1, d2 in zip(diffs, diffs[1:]))

    def test_not_converged_carries_best(self):
        """Out of doublings, the best value comes back with the flag off;
        only core.energy raises NotConverged."""
        spec = QuadratureSpec(base_order=8, max_doublings=0, tol=1e-14)
        value, err, history, converged = integrate_semiinfinite(lambda x: np.exp(-x), spec)
        assert not converged
        assert value == pytest.approx(1.0, rel=1e-2) and err == np.inf
        assert history == [(8, value)]

    def test_stack_rows_equal_single_calls(self):
        """Each row of a stacked integrand is summed as the single
        integrand would be, and the stack doubles until every row meets
        tol: the exponential alone stops at order 64, the sqrt(x) start
        needs 1024."""
        rows = [lambda x: np.exp(-x), lambda x: np.sqrt(x) * np.exp(-x)]
        spec = QuadratureSpec(base_order=8, max_doublings=8, tol=1e-9)
        value, err, history, converged = integrate_semiinfinite(
            lambda x: np.stack([f(x) for f in rows]), spec)
        single = [integrate_semiinfinite(f, spec) for f in rows]
        assert [len(s[2]) for s in single] == [4, 8]
        assert converged and [order for order, _ in history] == [o for o, _ in single[1][2]]
        for order, stacked in history:
            at = QuadratureSpec(base_order=order, max_doublings=0)
            assert list(stacked) == [integrate_semiinfinite(f, at)[0] for f in rows]
        assert (value[1], err[1]) == single[1][:2]
        assert np.all(err <= spec.tol * np.abs(value))

    def test_quadspec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(base_order=4)
        with pytest.raises(ValueError):
            QuadratureSpec(tol=0.0)

    @pytest.mark.parametrize("field, value", [
        ("base_order", 8.5), ("base_order", 64.0), ("base_order", True), ("base_order", "64"),
        ("max_doublings", 1.5), ("max_doublings", False),
    ])
    def test_quadspec_counts_must_be_integers(self, field, value):
        """A fractional order would be integrated at int(order) while the
        metadata reported the fraction."""
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            QuadratureSpec(**{field: value})
        QuadratureSpec(**{field: np.int64(9)})  # a numpy integer passes


class TestEnergyResult:
    def test_error_nonnegative(self):
        with pytest.raises(ValueError):
            EnergyResult(value=-1.0, error_estimate=-1e-3)

    def test_constants(self):
        assert core.HBAR == 1.054571817e-34
        assert core.C_LIGHT == 299792458.0


def _eig_reference(m):
    """sum of log(1 - lambda) over the eigenvalues of one matrix, each log
    from log1p where |lambda| is small (the eigenvalue route)."""
    z = -np.linalg.eigvals(m).astype(complex)
    modulus = np.where(np.abs(z) < 0.5,
                       0.5 * np.log1p(2.0 * z.real + np.abs(z) ** 2), np.log(np.abs(1.0 + z)))
    return np.sum(modulus + 1j * np.arctan2(z.imag, 1.0 + z.real))


class TestLogDetRoutes:
    """log_det_one_minus takes the series, an LU factorisation or the
    eigenvalues of each matrix, by its Frobenius norm f."""

    @staticmethod
    def _stack():
        rng = np.random.default_rng(8)
        weak = rng.standard_normal((6, 6))
        weak *= 1e-6 / np.linalg.norm(weak)
        certified = rng.standard_normal((6, 6))
        certified *= 0.5 / np.linalg.norm(certified)
        # spectral radius 0.95 with f > 3: only the eigenvalues can certify it
        non_normal = 0.95 * np.eye(6) + 3.0 * np.eye(6, k=1)
        return np.stack([weak, certified, non_normal, 0.5 * weak, -certified])

    def test_each_route_matches_eigenvalues(self):
        stack = self._stack()
        f = np.linalg.norm(stack, axis=(-2, -1))
        assert f[0] < core._SERIES_F < f[1] < 1 - 1e-9 < f[2]
        out = log_det_one_minus(stack)
        for got, m in zip(out, stack):
            want = _eig_reference(m)
            assert abs(got - want) <= 1e-13 * abs(want)

    def test_stack_equals_single_calls_bit_for_bit(self):
        stack = self._stack()
        out = log_det_one_minus(stack)
        for i, m in enumerate(stack):
            assert out[i] == log_det_one_minus(m)
        # and whatever other matrices share the stack
        for i in range(len(stack)):
            assert log_det_one_minus(stack[i:i + 2])[0] == out[i]

    def test_series_keeps_relative_precision(self):
        m = np.array([[1e-20, 3e-21], [-2e-21, -4e-20]])
        # -tr(M) - tr(M^2)/2: the second term is 1e-40 and drops out
        assert log_det_one_minus(m).real == pytest.approx(3e-20, rel=1e-15)

    def test_branch_risk_names_the_uncertified_matrix(self):
        stack = self._stack()
        stack[2] = (1 - 1e-10) * np.eye(6) + 3.0 * np.eye(6, k=1)
        with pytest.raises(BranchRisk, match=r"matrix 2 of the stack"):
            log_det_one_minus(stack)
        with pytest.raises(BranchRisk, match=r"matrix \(1, 0\) of the stack"):
            log_det_one_minus(stack[1:3].reshape(2, 1, 6, 6))
