"""Tests for the shared log-det and quadrature machinery."""

import os
import subprocess
import sys
from pathlib import Path

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
from casimir.errors import BranchRisk, DomainError
from casimir.materials import VACUUM, ConstantEps, Drude, PerfectMirror
from casimir.plane import PlaneSystem
from casimir.sphere import SphereSystem, sphere_energy
from casimir.toy import lossy_mirror


def _gram_factor(lam, seed=0):
    """G = Q diag(sqrt(lam)) with Q a random orthogonal matrix, so that
    N = G G^T has the eigenvalues ``lam`` up to rounding."""
    lam = np.asarray(lam, dtype=float)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((lam.size, lam.size)))
    return q * np.sqrt(lam)


class TestLogDetOneMinus:
    def test_zero(self):
        assert log_det_one_minus(np.zeros((3, 3))) == 0

    def test_scalar_half(self):
        val = log_det_one_minus(np.array([[np.sqrt(0.5)]]))
        assert type(val) is float
        assert val == pytest.approx(np.log(0.5), abs=1e-15)

    def test_tiny_eigenvalues_keep_relative_precision(self):
        # 1 - 1e-17 rounds to 1, so log(1 - lambda) would give exactly 0
        val = log_det_one_minus(np.diag(np.sqrt([1e-17, 2e-17])))
        assert val == pytest.approx(-3e-17, rel=1e-14, abs=0)

    @pytest.mark.parametrize("lam", [1 - 2**-28, 1 - 1e-6])
    def test_eigenvalues_near_one_keep_relative_precision(self, lam):
        # N = diag(g^2, 0.25) with g^2 the rounded square; 1 - g^2 is exact
        # (Sterbenz), so np.log(1 - g^2) is the reference
        g = np.diag([np.sqrt(lam), 0.5])
        val = log_det_one_minus(g)
        ref = np.log(1 - g[0, 0] * g[0, 0]) + np.log(0.75)
        assert val == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_factorization_oracle(self, seed):
        # the real part of a strict contraction is one, so N < 1
        g = random_contraction(6, seed).real
        via_gram = log_det_one_minus(g)
        via_lu = blockmat.logdet(np.eye(6) - g @ g.T)
        assert abs(via_gram - via_lu) < 1e-10

    def test_branch_risk(self):
        with pytest.raises(BranchRisk):
            log_det_one_minus(np.eye(2))

    def test_real_nonpositive_for_psd_products(self):
        # N = G G^T is symmetric positive semidefinite, as on the imaginary
        # axis, so every log(1 - lambda) is <= 0
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = rng.standard_normal((4, 4))
            g *= np.sqrt(0.9) / np.linalg.norm(g, 2)
            val = log_det_one_minus(g)
            assert type(val) is float and val <= 0

    def test_complex_input_is_refused(self):
        with pytest.raises(ValueError, match="real"):
            log_det_one_minus(np.eye(2, dtype=complex) / 2)


class TestStackedLogDetOneMinus:
    @staticmethod
    def _stack(seed, count=5, n=6):
        return np.stack([random_contraction(n, seed + i).real for i in range(count)])

    def test_matches_loop(self):
        stack = self._stack(11)
        out = log_det_one_minus(stack)
        assert out.shape == (5,) and out.dtype == float
        for i, m in enumerate(stack):
            assert abs(out[i] - log_det_one_minus(m)) < 1e-13

    def test_leading_axes(self):
        stack = self._stack(20, count=6).reshape(2, 3, 6, 6)
        out = log_det_one_minus(stack)
        assert out.shape == (2, 3)
        assert abs(out[1, 2] - log_det_one_minus(stack[1, 2])) < 1e-13

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
            log_det_one_minus(stack)

    def test_not_square(self):
        with pytest.raises(ValueError):
            log_det_one_minus(np.zeros((3, 2, 4)))
        with pytest.raises(ValueError):
            log_det_one_minus(np.zeros(3))


def _scipy_gk_table(rule):
    """(nodes, Kronrod weights, Gauss weights) of one of scipy's
    Gauss-Kronrod rules on (0, 1), read back through the rule itself: each
    node returns a unit vector, and the Gauss sum is recovered from the
    difference that the rule hands to its norm."""
    nodes, diffs = [], []

    def f(x):
        nodes.append(x)
        return np.eye(64)[len(nodes) - 1]

    def norm(v):
        diffs.append(np.array(v))
        return float(np.max(np.abs(v)))

    kronrod = np.asarray(rule(0.0, 1.0, f, norm)[0])[:len(nodes)]
    gauss = kronrod - diffs[0][:len(nodes)]
    order = np.argsort(nodes)
    return np.array(nodes)[order], kronrod[order], gauss[order]


class TestGaussKronrod:
    """core.gauss_kronrod_01: Laurie's Kronrod extension of the
    Gauss-Legendre rule, mapped to (0, 1)."""

    @pytest.mark.parametrize("name, order", [("_quadrature_gk15", 7), ("_quadrature_gk21", 10)])
    def test_matches_scipy_tables(self, name, order):
        quad_vec = pytest.importorskip("scipy.integrate._quad_vec")
        nodes, kronrod, gauss = _scipy_gk_table(getattr(quad_vec, name))
        u, w = core.gauss_kronrod_01(order)
        np.testing.assert_allclose(u, nodes, rtol=0, atol=1e-15)
        np.testing.assert_allclose(w[1], kronrod, rtol=0, atol=1e-15)
        np.testing.assert_allclose(w[0], gauss, rtol=0, atol=1e-15)

    # 1024: above 537 the recurrence on (-1, 1) underflowed to 0 / 0
    @pytest.mark.parametrize("order", [8, 32, 48, 64, 128, 1024])
    def test_degree_embedded_gauss_rule_and_positive_weights(self, order):
        u, w = core.gauss_kronrod_01(order)
        assert u.shape == (2 * order + 1,) and w.shape == (2, 2 * order + 1)
        # Kronrod exact to degree 3 N + 1, Gauss to 2 N - 1
        for row, degree in zip(w, (2 * order - 1, 3 * order + 1)):
            exact = 1.0 / np.arange(1, degree + 2)
            got = np.array([np.sum(row * u**d) for d in range(degree + 1)])
            np.testing.assert_allclose(got, exact, rtol=0, atol=1e-14)
        gl_u, gl_w = core.gauss_legendre_01(order)
        assert np.array_equal(u[1::2], gl_u) and np.array_equal(w[0, 1::2], gl_w)
        assert np.all(w[0, ::2] == 0) and np.all(w[1] > 0) and np.all(np.diff(u) > 0)

    @pytest.mark.slow
    def test_order_2048(self):
        # the Gauss row is numpy's leggauss, whose moments are off by up to
        # 8e-14 at this order; the Kronrod row is checked to 1e-14
        u, w = core.gauss_kronrod_01(2048)
        power = np.ones_like(u)
        for d in range(3 * 2048 + 2):
            assert abs(np.sum(w[1] * power) - 1.0 / (d + 1)) <= 1e-14
            power *= u
        assert np.array_equal(w[0, 1::2], core.gauss_legendre_01(2048)[1])
        assert np.all(w[1] > 0) and np.all(np.diff(u) > 0)

    def test_cached_and_built_on_first_use(self):
        assert core.gauss_kronrod_01(16)[0] is core.gauss_kronrod_01(16)[0]
        code = "import casimir.core as c; print(len(c._GK_CACHE))"
        env = {**os.environ, "PYTHONPATH": str(Path(core.__file__).resolve().parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "0"


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
        """|K - G| of successive Gauss-Kronrod node sets shrinks."""
        _, _, history, _ = integrate_semiinfinite(
            lambda x: np.exp(-(x**2)), QuadratureSpec(base_order=16, tol=1e-13, max_doublings=5)
        )
        vals = [v for _, v in history]
        diffs = [abs(k - g) for g, k in zip(vals[::2], vals[1::2])]
        assert len(diffs) >= 3
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
        integrand would be, and the stack refines until every row meets
        tol: the exponential alone stops at 65 Kronrod nodes (Gauss order
        32), the sqrt(x) start needs 1025 (Gauss order 512)."""
        rows = [lambda x: np.exp(-x), lambda x: np.sqrt(x) * np.exp(-x)]
        spec = QuadratureSpec(base_order=8, max_doublings=8, tol=1e-9)
        value, err, history, converged = integrate_semiinfinite(
            lambda x: np.stack([f(x) for f in rows]), spec)
        single = [integrate_semiinfinite(f, spec) for f in rows]
        assert [s[2][-1][0] for s in single] == [65, 1025]
        assert converged and [order for order, _ in history] == [o for o, _ in single[1][2]]
        for (order, gauss), (_, kronrod) in zip(history[::2], history[1::2]):
            at = QuadratureSpec(base_order=order, max_doublings=1)
            each = [integrate_semiinfinite(f, at)[2] for f in rows]
            assert list(gauss) == [h[0][1] for h in each]
            assert list(kronrod) == [h[1][1] for h in each]
        assert (value[1], err[1]) == single[1][:2]
        assert np.all(err <= spec.tol * np.abs(value))

    @pytest.mark.parametrize("max_doublings, calls", [
        (0, [(8, 1)]), (1, [(17, 2)]), (4, [(17, 2), (33, 2), (65, 2), (129, 2)]),
    ])
    def test_first_call_carries_two_rules(self, max_doublings, calls):
        """refine_order evaluates one node set per call, Gauss order N and
        its 2 N + 1 Kronrod nodes with both weight rows, since one rule
        gives no error estimate; max_doublings = d allows d node sets, the
        last of 2^d N + 1 nodes, and d = 0 the Gauss rule of order N alone.
        The history lists each rule's node count and value."""
        seen = []

        def evaluate(u, w):
            seen.append(w.shape)
            assert w.shape[1] == len(u)
            return [float(np.sum(row * np.exp(-u) * np.cos(40 * u))) for row in w]

        spec = QuadratureSpec(base_order=8, max_doublings=max_doublings, tol=1e-300)
        value, err, history, converged = core.refine_order(evaluate, spec)
        assert [(nodes, rows) for rows, nodes in seen] == calls and not converged
        gauss = [8 * 2**k for k in range(len(calls))]
        orders = [8] if max_doublings == 0 else [o for n in gauss for o in (n, 2 * n + 1)]
        assert [order for order, _ in history] == orders
        assert value == history[-1][1]
        assert err == (abs(value - history[-2][1]) if len(history) > 1 else np.inf)

    def test_one_integrand_call_for_two_rules(self):
        calls = []

        def f(x):
            calls.append(len(x))
            return np.exp(-x)

        _, _, history, converged = integrate_semiinfinite(f, QuadratureSpec(base_order=32))
        assert converged and [order for order, _ in history] == [32, 65]
        assert calls == [65]

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


PEC = PerfectMirror()
# a bool is an int, and numpy parses a numeric string into a float array, so
# a range check alone lets both through
REAL_INPUTS = {
    "quad-tol": (ValueError, lambda v: QuadratureSpec(tol=v)),
    "drude-omega_p": (ValueError, lambda v: Drude(v, 5.3e13)),
    "constant-eps": (ValueError, lambda v: ConstantEps(v)),
    "plane-L": (DomainError, lambda v: PlaneSystem(PEC, PEC, VACUUM, v)),
    "sphere-R1": (DomainError, lambda v: SphereSystem(v, 1e-7, 1e-6, PEC, PEC)),
    "sphere-L": (DomainError, lambda v: SphereSystem(1e-7, 1e-7, v, PEC, PEC)),
    "sphere-lmax_tol": (ValueError, lambda v: sphere_energy(
        SphereSystem(1e-7, 1e-7, 1e-6, PEC, PEC), lmax_tol=v)),
    "mirror-r": (ValueError, lambda v: lossy_mirror(v, 0.3, "right")),
    "mirror-t": (ValueError, lambda v: lossy_mirror(0.9, v, "right")),
}


@pytest.mark.parametrize("value", [True, "0.9"], ids=["bool", "string"])
@pytest.mark.parametrize("case", sorted(REAL_INPUTS))
def test_real_inputs_refuse_bools_and_strings(case, value):
    error, build = REAL_INPUTS[case]
    with pytest.raises(error, match="must be a real number"):
        build(value)


class TestEnergyResult:
    def test_error_nonnegative(self):
        with pytest.raises(ValueError):
            EnergyResult(value=-1.0, error_estimate=-1e-3)

    def test_constants(self):
        assert core.HBAR == 1.054571817e-34
        assert core.C_LIGHT == 299792458.0


class TestLogDetRoutes:
    """log_det_one_minus takes -tr N, the series, an LU factorisation or the
    eigenvalues of each N = G G^T, by tr N and the Frobenius norm f of N."""

    # the chosen spectra: weak (-tr N), series, LU and eigenvalues
    SPECTRA = (np.full(6, 1e-18), np.full(6, 1e-5), np.linspace(0.05, 0.3, 6),
               np.array([0.99, 0.9, 0.9, 0.5, 0.2, 0.0]))

    @classmethod
    def _stack(cls):
        g = [_gram_factor(lam, seed) for seed, lam in enumerate(cls.SPECTRA)]
        return np.stack(g + [0.5 * g[1], -g[2]])

    def test_each_route_matches_eigenvalues(self):
        stack = self._stack()
        nn = stack @ stack.transpose(0, 2, 1)
        trace, f = np.trace(nn, axis1=1, axis2=2), np.linalg.norm(nn, axis=(-2, -1))
        assert trace[0] <= np.finfo(float).eps / np.sqrt(6) < trace[1]
        assert f[1] < core._SERIES_F < f[2] < 1 - 1e-9 < f[3]
        out = log_det_one_minus(stack)
        for got, lam in zip(out, [*self.SPECTRA, self.SPECTRA[1] / 4, self.SPECTRA[2]]):
            want = np.sum(np.log1p(-lam))
            assert abs(got - want) <= 1e-13 * abs(want)

    def test_eigenvalue_route_above_unit_norm(self):
        # ||N||_F > 1 > lambda_max: only the eigenvalues certify the branch
        lam = self.SPECTRA[3]
        g = _gram_factor(lam, seed=9)
        assert np.linalg.norm(g @ g.T) > 1 > lam.max()
        assert log_det_one_minus(g) == pytest.approx(np.sum(np.log1p(-lam)), rel=1e-13)

    def test_stack_equals_single_calls_bit_for_bit(self):
        stack = self._stack()
        out = log_det_one_minus(stack)
        for i, m in enumerate(stack):
            assert out[i] == log_det_one_minus(m)
        # and whatever other matrices share the stack
        for i in range(len(stack)):
            assert log_det_one_minus(stack[i:i + 2])[0] == out[i]

    def test_series_keeps_relative_precision(self):
        # tr N = 1.7e-11, where det(1 - N) would keep five digits; the
        # series -(tr N + tr(N^2) / 2) keeps them all
        mp = pytest.importorskip("mpmath")
        g = np.array([[1e-6, 3e-7], [-2e-7, -4e-6]])
        with mp.workdps(40):
            gm = mp.matrix(g.tolist())
            want = float(mp.log(mp.det(mp.eye(2) - gm * gm.T)))
        assert log_det_one_minus(g) == pytest.approx(want, rel=1e-15, abs=0)

    @pytest.mark.parametrize("f", [1e-12, 1e-9, core._SERIES_F2 * (1 - 1e-3),
                                   core._SERIES_F2 * (1 + 1e-3), core._SERIES_F2 * 4],
                             ids=["1e-12", "1e-9", "below-sqrt3eps", "above-sqrt3eps",
                                  "4-sqrt3eps"])
    def test_series_error_against_mpmath(self, f):
        """Below sqrt(3 eps) the series stops at tr(N^2) and needs no matrix
        product; either way the dropped terms stay within eps f. Reference:
        40-digit log det of N, which both G below give exactly in float64
        (each entry one rounded product), so the result may also differ by
        its own rounding, eps |log det|. A rank-one N, for which
        tr N^3 = f^3, is the worst case of the two-term truncation: at
        4 sqrt(3 eps) it would drop 16 eps f."""
        mp = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        assert core._SERIES_F2 == pytest.approx(np.sqrt(3 * eps), rel=1e-7)
        rng = np.random.default_rng(28)
        # a diagonal G (N of full rank) and a single column (N of rank one)
        for g in (np.diag(rng.random(6)), np.outer(rng.standard_normal(6), np.eye(6)[0])):
            g = g * np.sqrt(f / np.linalg.norm(g @ g.T))
            nn = g @ g.T
            with mp.workdps(40):
                want = mp.log(mp.det(mp.eye(6) - mp.matrix(nn.tolist())))
            got = log_det_one_minus(g)
            assert type(got) is float
            assert abs(got - float(want)) <= eps * (np.linalg.norm(nn) + abs(float(want)))

    def test_series_rounding_of_a_full_rank_12x12(self):
        """The series' own rounding: besides the eps f it drops, the sum of
        the n diagonal entries rounds by up to (n + 2) eps tr N / 2, which
        exceeds eps f for a full-rank N. Seed 139 gives the largest error of
        200 random 12 x 12 G at f = 1e-12: 3.6 eps f = 1.5 eps tr N."""
        mp = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        g = np.random.default_rng(139).standard_normal((12, 12))
        g *= np.sqrt(1e-12 / np.linalg.norm(g @ g.T))
        nn = g @ g.T
        f, trace = np.linalg.norm(nn), np.trace(nn)
        with mp.workdps(40):
            want = float(mp.log(mp.det(mp.eye(12) - mp.matrix(nn.tolist()))))
        err = abs(log_det_one_minus(g) - want)
        assert err <= eps * (f + 7 * trace)
        assert err <= 2 * eps * abs(want)

    def test_branch_risk_names_the_uncertified_matrix(self):
        stack = self._stack()
        stack[3] = _gram_factor([1 - 1e-10, 0.9, 0.9, 0.5, 0.2, 0.0])
        with pytest.raises(BranchRisk, match=r"matrix 3 of the stack"):
            log_det_one_minus(stack)
        with pytest.raises(BranchRisk, match=r"matrix \(1, 0\) of the stack"):
            log_det_one_minus(stack[2:4].reshape(2, 1, 6, 6))
