"""Sphere-sphere geometry tests: Mie amplitudes, axial translation
blocks (including a field-level projection oracle), and the interaction
energy with its dipole-limit asymptote."""

import numpy as np
import pytest
from scipy.special import sph_harm_y, spherical_in, spherical_kn

from casimir import sphere
from casimir.core import C_LIGHT, HBAR, QuadratureSpec
from casimir.errors import DomainError, NotConverged
from casimir.materials import ConstantEps, Drude, PerfectMirror
from casimir.sphere import (
    SphereSystem,
    _round_trip_logdet_sum,
    _safe_w_floor,
    mie_amplitudes,
    sphere_energy,
    translation_block,
    wigner3j,
)

PEC = PerfectMirror()


def _round_trip(sys_, xi, lmax, m, clamp=False):
    """The m-block of M = R1 T12 R2 T21 from the public views alone: T12
    from ``translation_block`` (its sign of m flipping the mixing blocks),
    its reverse T21 as the parity image P T12 P, P = diag((-1)^l, -(-1)^l),
    and the amplitudes r of the i_l/k_l basis, (-1)^l (a_l, b_l) from
    ``mie_amplitudes``. With ``clamp``, each r is clamped to the exact sign
    of a passive sphere, D r <= 0, D = diag(1_E, -1_M)."""
    lmin = max(1, abs(m))
    ls = np.arange(lmin, lmax + 1)
    d = np.repeat([1.0, -1.0], ls.size)
    parity = np.tile((-1.0) ** ls, 2)
    p = d * parity
    t12 = translation_block(lmax, m, xi, sys_.L)
    if m < 0:
        t12 = d[:, None] * t12 * d
    t21 = p[:, None] * t12 * p
    r1, r2 = (np.array([mie_amplitudes(mat, R, xi, l) for l in ls]).T.ravel() * parity
              for mat, R in ((sys_.mat1, sys_.R1), (sys_.mat2, sys_.R2)))
    if clamp:
        r1, r2 = (d * np.minimum(d * r, 0.0) for r in (r1, r2))
    return (r1[:, None] * t12) @ (r2[:, None] * t21)


class TestWigner3j:
    def test_closed_forms(self):
        # 3j(l, l, 0; 0, 0, 0) = (-1)^l / sqrt(2l + 1)
        for l in range(1, 8):
            assert wigner3j(l, l, 0, 0, 0, 0) == pytest.approx(
                (-1) ** l / np.sqrt(2 * l + 1), abs=1e-13
            )
        # 3j(j, j, 1; m, -m, 0) = (-1)^(j - m) m / sqrt(j (j+1) (2j+1))
        for j in range(1, 6):
            for m in range(-j, j + 1):
                assert wigner3j(j, j, 1, m, -m, 0) == pytest.approx(
                    (-1) ** (j - m) * m / np.sqrt(j * (j + 1) * (2 * j + 1)),
                    abs=1e-13,
                )

    def test_selection_rules(self):
        assert wigner3j(2, 1, 5, 0, 0, 0) == 0  # triangle violated
        assert wigner3j(2, 2, 1, 1, -2, 0) == 0  # m-sum nonzero
        assert wigner3j(2, 2, 1, 3, -3, 0) == 0  # |m| exceeds j
        assert wigner3j(1, 1, 1, 0, 0, 0) == 0  # odd parity

    def test_orthogonality(self):
        # sum_l3 (2 l3 + 1) 3j(l1, l2, l3; m1, m2, m3)^2 = 1
        l1, l2, m1, m2 = 3, 2, 1, -2
        total = sum(
            (2 * l3 + 1) * wigner3j(l1, l2, l3, m1, m2, m1 * 0 + m2 * 0 - (m1 + m2)) ** 2
            for l3 in range(abs(l1 - l2), l1 + l2 + 1)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


class TestMieAmplitudes:
    def test_vanishing_scatterer(self):
        for l in (1, 2, 3):
            a, b = mie_amplitudes(PEC, 1e-9, 1e10, l)  # x ~ 3e-8
            assert abs(a) < 1e-20 and abs(b) < 1e-20

    def test_vacuum_sphere_zero(self):
        for l in (1, 2):
            a, b = mie_amplitudes(ConstantEps(1.0), 1e-7, 1e15, l)
            assert a == 0.0 and b == 0.0

    def test_conducting_polarizability_limit(self):
        # oracle: small-x series of the conducting-sphere formulas gives
        # a1 -> (2/3) x^3 (alpha = R^3) and b1 -> -(1/3) x^3 (beta = -R^3/2)
        R, xi = 1e-7, 1e11
        x = xi * R / C_LIGHT
        a1, b1 = mie_amplitudes(PEC, R, xi, 1)
        assert a1 / x**3 == pytest.approx(2 / 3, rel=1e-6)
        assert b1 / x**3 == pytest.approx(-1 / 3, rel=1e-6)

    @pytest.mark.parametrize("x", [1e-10, 1e-16, 1e-20])
    def test_conducting_limit_to_rounding(self, x):
        # si_0 = (1 - e^{-2x}) / (2x) from expm1: the plain difference was
        # off by 8e-8 at x = 1e-10 and by 11 % at 1e-16; the next terms of
        # the series are x^2 smaller
        R = 1e-7
        a1, b1 = mie_amplitudes(PEC, R, x * C_LIGHT / R, 1)
        assert a1 == pytest.approx(2 / 3 * x**3, rel=1e-14, abs=0)
        assert b1 == pytest.approx(-1 / 3 * x**3, rel=1e-14, abs=0)

    def test_dielectric_polarizability_limit(self):
        eps = 4.0
        R, xi = 1e-7, 1e11
        x = xi * R / C_LIGHT
        a1, _ = mie_amplitudes(ConstantEps(eps), R, xi, 1)
        assert a1 / x**3 == pytest.approx(2 / 3 * (eps - 1) / (eps + 2), rel=1e-6)

    def test_matches_unscaled_riccati_oracle(self):
        # independent oracle: direct formula with scipy Bessel functions
        R, xi, eps = 2e-7, 8e14, 6.5
        x = xi * R / C_LIGHT
        n = np.sqrt(eps)
        for l in (1, 2, 3, 5):
            def S(y):
                return y * spherical_in(l, y)
            def dS(y):
                return y * spherical_in(l - 1, y) - l * spherical_in(l, y)
            def C(y):
                return y * spherical_kn(l, y)
            def dC(y):
                return -y * spherical_kn(l - 1 if l >= 1 else 0, y) - l * spherical_kn(l, y)
            sgn = (-1.0) ** l * np.pi / 2
            a_expect = sgn * (n * S(n * x) * dS(x) - S(x) * dS(n * x)) / (
                n * S(n * x) * dC(x) - C(x) * dS(n * x)
            )
            b_expect = sgn * (S(n * x) * dS(x) - n * S(x) * dS(n * x)) / (
                S(n * x) * dC(x) - n * C(x) * dS(n * x)
            )
            a, b = mie_amplitudes(ConstantEps(eps), R, xi, l)
            assert a == pytest.approx(a_expect, rel=1e-10)
            assert b == pytest.approx(b_expect, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            mie_amplitudes(PEC, 1e-7, 1e15, 0)
        with pytest.raises(DomainError):
            mie_amplitudes(PEC, 1e-7, -1e15, 1)

    @pytest.mark.parametrize("R,xi", [(1e-7, np.nan), (1e-7, np.inf), (np.nan, 1e15),
                                      (np.inf, 1e15)])
    def test_non_finite_inputs_raise(self, R, xi):
        for mat in (PEC, ConstantEps(4.0)):
            with pytest.raises(DomainError):
                mie_amplitudes(mat, R, xi, 1)

    @pytest.mark.parametrize("mat", [PEC, ConstantEps(4.0)])
    def test_overflowing_amplitudes_raise(self, mat):
        # the raw amplitudes grow like e^{2x}; x = 3.3e3 is far past a float
        with pytest.raises(DomainError, match="overflow at x"):
            mie_amplitudes(mat, 1e-7, 1e19, 1)

    @pytest.mark.parametrize("mat", [PEC, ConstantEps(4.0)])
    @pytest.mark.parametrize("l", [1, 3])
    def test_tiny_x_raises_instead_of_zero(self, mat, l):
        # at x = 1e-160 the regular Riccati functions of orders 1 and 3
        # round to 0; since si_0 comes from expm1, x = 1e-20 still gives
        # a_1 = (2/3) x^3 = 6.7e-61 (test_conducting_limit_to_rounding)
        R = 1e-7
        with pytest.raises(DomainError, match="underflow at x"):
            mie_amplitudes(mat, R, 1e-160 * C_LIGHT / R, l)
        x = 1e-10
        a1, b1 = mie_amplitudes(PEC, R, x * C_LIGHT / R, 1)
        assert a1 / x**3 == pytest.approx(2 / 3, rel=1e-6)
        assert b1 / x**3 == pytest.approx(-1 / 3, rel=1e-6)


# ---------------------------------------------------------------------------
# field-level projection oracle for the translation blocks
# ---------------------------------------------------------------------------

def _vsh(l, m, theta):
    Y = sph_harm_y(l, m, theta, 0.0)
    h = 1e-6
    dY = (sph_harm_y(l, m, theta + h, 0.0) - sph_harm_y(l, m, theta - h, 0.0)) / (2 * h)
    norm = 1.0 / np.sqrt(l * (l + 1))
    X = (-(m / np.sin(theta)) * Y * norm, -1j * dY * norm)
    P = (dY * norm, 1j * m / np.sin(theta) * Y * norm)
    return Y, X, P


def _projection_AB(l, m, kappa, d, r0, lpmax, nth=120):
    """Expand the outgoing M-wave of order (l, m), centered at +d zhat,
    in regular waves about the origin; returns the A and B columns."""
    nodes, wq = np.polynomial.legendre.leggauss(nth)
    theta = np.arccos(nodes)
    st, ct = np.sin(theta), np.cos(theta)
    xs, zs = r0 * st, r0 * ct - d
    rr = np.sqrt(xs**2 + zs**2)
    th2 = np.arccos(np.clip(zs / rr, -1, 1))
    fth = np.empty_like(rr, dtype=complex)
    fph = np.empty_like(rr, dtype=complex)
    for i in range(len(rr)):
        _, X2, _ = _vsh(l, m, th2[i])
        zl = spherical_kn(l, kappa * rr[i])
        fth[i], fph[i] = zl * X2[0], zl * X2[1]
    st2, ct2 = np.sin(th2), np.cos(th2)
    Fx, Fy, Fz = fth * ct2, fph, -fth * st2
    Fth = Fx * ct - Fz * st
    Fph = Fy
    A = np.zeros(lpmax + 1, dtype=complex)
    B = np.zeros(lpmax + 1, dtype=complex)
    for lp in range(max(1, abs(m)), lpmax + 1):
        _, Xp, Pp = _vsh(lp, m, theta)
        x0 = kappa * r0
        zlp = spherical_in(lp, x0)
        Sp = x0 * spherical_in(lp - 1, x0) - lp * zlp
        projX = 2 * np.pi * np.sum(wq * (np.conj(Xp[0]) * Fth + np.conj(Xp[1]) * Fph))
        projP = 2 * np.pi * np.sum(wq * (np.conj(Pp[0]) * Fth + np.conj(Pp[1]) * Fph))
        A[lp] = projX / zlp
        B[lp] = projP / (1j * Sp / x0)
    return A, B


class TestTranslationBlock:
    def test_dipole_closed_forms(self):
        # independently derived l = l' = 1 entries
        xi, L = 0.9e15, 2.1e-6
        w = xi * L / C_LIGHT
        t0 = translation_block(1, 0, xi, L)
        t1 = translation_block(1, 1, xi, L)
        assert t0[0, 0] == pytest.approx(3 * np.exp(-w) * (1 / w**2 + 1 / w**3), rel=1e-12)
        assert t0[0, 1] == 0.0
        assert t1[0, 0] == pytest.approx(
            -1.5 * np.exp(-w) * (1 / w + 1 / w**2 + 1 / w**3), rel=1e-12
        )
        assert t1[0, 1] == pytest.approx(-1.5 * np.exp(-w) * (1 / w + 1 / w**2), rel=1e-12)

    def test_m_sign_blocks_identical(self):
        t_plus = translation_block(3, 2, 1e15, 1e-6)
        t_minus = translation_block(3, -2, 1e15, 1e-6)
        assert np.array_equal(t_plus, t_minus)

    def test_exponential_decay(self):
        L = 1e-6
        vals = []
        for xi in (1e14, 1e15, 3e15, 6e15):
            t = translation_block(2, 1, xi, L)
            vals.append(np.max(np.abs(t)) * np.exp(xi * L / C_LIGHT))
        # after stripping e^{-xi L / c}, the envelope varies only algebraically
        assert vals[-1] > 1e-6 * vals[0]
        raw = [np.max(np.abs(translation_block(2, 1, xi, L))) for xi in (3e15, 6e15, 1.2e16)]
        assert raw[0] > raw[1] > raw[2]

    @pytest.mark.parametrize("l,lp,m", [(1, 1, 1), (2, 1, 1), (2, 2, 2), (3, 2, 1)])
    def test_matches_projection_oracle(self, l, lp, m):
        # the production Gaunt sums must reproduce a direct numerical
        # expansion of the translated fields (modulo the 2/pi radial
        # normalization of the production convention)
        kappa, d = 1.0, 2.7
        xi, L = kappa * C_LIGHT, d
        A_ref, B_ref = _projection_AB(l, m, kappa, d, 0.3 * d, lp)
        lmax = max(l, lp)
        block = translation_block(lmax, m, xi, L)
        lmin = max(1, abs(m))
        n = lmax - lmin + 1
        iA = (lp - lmin, l - lmin)
        a_prod = block[iA]
        c_prod = block[lp - lmin, n + l - lmin]
        assert a_prod == pytest.approx((2 / np.pi) * A_ref[lp].real, rel=2e-6)
        # production cross block is -i B (real on the imaginary axis)
        assert c_prod == pytest.approx((2 / np.pi) * (-1j * B_ref[lp]).real, rel=2e-6)
        assert abs(A_ref[lp].imag) < 1e-8 * max(abs(A_ref[lp]), 1e-30)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            translation_block(2, 3, 1e15, 1e-6)
        with pytest.raises(DomainError):
            translation_block(2, 1, 1e15, -1e-6)
        for xi, L in [(np.nan, 1e-6), (np.inf, 1e-6), (1e15, np.nan), (1e15, np.inf)]:
            with pytest.raises(DomainError):
                translation_block(2, 1, xi, L)

    def test_overflow_floor(self):
        # xi L / c = 3.3e-4 lies below the lmax-30 floor of 1.2e-3, where
        # the translation sums overflow; just above it the block is finite
        with pytest.raises(DomainError, match="block overflows"):
            translation_block(30, 0, 1e12, 1e-7)
        L = 1e-7
        xi = _safe_w_floor(30) * (1 + 1e-12) * C_LIGHT / L
        assert np.isfinite(translation_block(30, 0, xi, L)).all()


class TestSphereEnergy:
    def test_vacuum_sphere_gives_zero(self):
        sys_ = SphereSystem(1e-7, 1e-7, 1e-6, ConstantEps(1.0), PEC, lmax=2)
        res = sphere_energy(sys_, QuadratureSpec(base_order=16, tol=1e-4), adaptive_lmax=False)
        assert res.value == 0.0

    def test_dipole_asymptote(self):
        R = 1e-7
        L = 50 * R
        sys_ = SphereSystem(R, R, L, PEC, PEC, lmax=1)
        res = sphere_energy(sys_, QuadratureSpec(base_order=64, tol=1e-7), adaptive_lmax=False)
        dimless = res.value * L**7 / (HBAR * C_LIGHT * R**6)
        assert dimless == pytest.approx(-143 / (16 * np.pi), rel=0.05)
        res2 = sphere_energy(
            SphereSystem(R, R, L, PEC, PEC, lmax=2),
            QuadratureSpec(base_order=64, tol=1e-7),
            adaptive_lmax=False,
        )
        assert abs(res2.value - res.value) / abs(res.value) < 0.01

    def test_far_pair_converges_with_defaults(self):
        # weak round trips keep their precision in log det(1 - M), so the
        # xi quadrature converges where it used to stall near 1e-7
        R = 1e-7
        L = 200 * R
        res = sphere_energy(SphereSystem(R, R, L, PEC, PEC))
        assert max(res.metadata["orders"]) <= 128
        dipole = -143 / (16 * np.pi) * HBAR * C_LIGHT * R**6 / L**7
        assert res.value / dipole == pytest.approx(1, rel=0.01)

    def test_negative_and_monotone(self):
        R = 1e-7
        vals = []
        for ratio in (4.0, 8.0, 20.0, 60.0, 100.0):
            sys_ = SphereSystem(R, R, ratio * R, PEC, PEC, lmax=6)
            res = sphere_energy(sys_, QuadratureSpec(base_order=32, tol=1e-5), adaptive_lmax=False)
            vals.append(res.value)
        assert all(v < 0 for v in vals)
        assert all(abs(b) < abs(a) for a, b in zip(vals, vals[1:]))

    def test_swap_invariance(self):
        a = sphere_energy(
            SphereSystem(1e-7, 2e-7, 1.5e-6, PEC, ConstantEps(3.0), lmax=3),
            QuadratureSpec(base_order=32, tol=1e-6),
            adaptive_lmax=False,
        )
        b = sphere_energy(
            SphereSystem(2e-7, 1e-7, 1.5e-6, ConstantEps(3.0), PEC, lmax=3),
            QuadratureSpec(base_order=32, tol=1e-6),
            adaptive_lmax=False,
        )
        assert a.value == pytest.approx(b.value, rel=1e-12)

    def test_m_block_decomposition(self):
        # total log-det equals the log-det of the assembled block-diagonal
        # matrix over all m in [-lmax, lmax] at lmax = 2
        import scipy.linalg

        sys_ = SphereSystem(1e-7, 1.5e-7, 1.1e-6, PEC, PEC, lmax=2)
        xi = 8e14
        lmax = 2
        total = _round_trip_logdet_sum(sys_, xi, lmax)
        full = scipy.linalg.block_diag(
            *(_round_trip(sys_, xi, lmax, m) for m in range(-lmax, lmax + 1)))
        expected = np.sum(np.log(np.linalg.eigvals(np.eye(full.shape[0]) - full))).real
        assert total == pytest.approx(expected, rel=1e-10)

    def test_spectral_radius_and_sign(self):
        sys_ = SphereSystem(1e-7, 1e-7, 4.5e-7, PEC, PEC, lmax=8)
        for xi in np.geomspace(1e13, 3e16, 12):
            val = _round_trip_logdet_sum(sys_, xi, 8)
            # nonpositive up to rounding noise of exponentially dead nodes
            assert val <= 1e-30

    def test_drude_sphere_runs(self):
        gold = Drude(1.37e16, 5.3e13)
        sys_ = SphereSystem(1e-7, 1e-7, 8e-7, gold, gold, lmax=4)
        res = sphere_energy(sys_, QuadratureSpec(base_order=32, tol=1e-5), adaptive_lmax=False)
        assert res.value < 0

    def test_not_converged(self):
        sys_ = SphereSystem(1e-7, 1e-7, 4.5e-7, PEC, PEC, lmax=1)
        with pytest.raises(NotConverged):
            sphere_energy(
                sys_,
                QuadratureSpec(base_order=32, tol=1e-6),
                lmax_tol=1e-12,
                max_lmax_doublings=1,
            )

    def test_geometry_validation(self):
        with pytest.raises(DomainError):
            SphereSystem(1e-7, 1e-7, 1.5e-7, PEC, PEC)
        with pytest.raises(DomainError):
            SphereSystem(1e-7, 1e-7, 1e-6, PEC, PEC, medium=ConstantEps(2.0))

    @pytest.mark.parametrize("lmax", [2.5, 3.0, True, "3", 0, np.int64(0)])
    def test_lmax_must_be_an_integer(self, lmax):
        with pytest.raises(DomainError):
            SphereSystem(1e-7, 1e-7, 1e-6, PEC, PEC, lmax=lmax)

    def test_numpy_integer_lmax(self):
        sys_ = SphereSystem(1e-7, 1e-7, 1e-6, PEC, PEC, lmax=np.int64(2))
        res = sphere_energy(sys_, QuadratureSpec(base_order=16, tol=1e-4), adaptive_lmax=False)
        assert res.value < 0 and res.metadata["lmax"] == 2


def _pec_series(R1, R2, L, terms=4):
    """Large-L series of two perfect-conductor spheres,

        E = -(hbar c / pi) (R1^3 R2^3 / L^7) [143/16
            + (7947/320) (R1^2 + R2^2) / L^2 + (2065/64) (R1^3 + R2^3) / L^3
            + (27705347/100800) R^4 / L^4 (equal radii only)].

    Each power of 1/L beyond the first pairs the radii symmetrically
    (powers of xi R1 and xi R2 from either sphere), so the equal-radius
    coefficients 7947/160 and 2065/32 split in halves. At order R^9 only
    the dipoles contribute: c3 = (1/2)[(2 a3 + b3/2) M_EE + (a3 + b3) M_EM]
    = 2065/32, from the x^3 terms a3 = 2/3, b3 = -1/3 of the dipole
    amplitudes and the w^3 moments M_EE = 735/8, M_EM = 525/8 of the
    Casimir-Polder kernels."""
    bracket = [143 / 16, 7947 / 320 * (R1**2 + R2**2) / L**2,
               2065 / 64 * (R1**3 + R2**3) / L**3]
    if terms == 4:
        assert R1 == R2
        bracket.append(27705347 / 100800 * R1**4 / L**4)
    return -HBAR * C_LIGHT / np.pi * R1**3 * R2**3 / L**7 * sum(bracket[:terms])


class TestBeyondDipoleOrder:
    """Energies whose multipoles beyond l = 1 matter: the large-L series
    of perfect-conductor pairs and the approach to the proximity limit.
    At lmax 1 no relative sign of multipoles of opposite parity enters."""

    QUAD = QuadratureSpec(base_order=32, tol=1e-7)

    @pytest.mark.parametrize("ratio,lmax,bound", [(50, 2, 1e-5), (20, 4, 5e-5), (10, 6, 5e-4)])
    def test_equal_spheres_follow_the_series(self, ratio, lmax, bound):
        R = 1e-7
        res = sphere_energy(SphereSystem(R, R, ratio * R, PEC, PEC, lmax=lmax), self.QUAD,
                            adaptive_lmax=False)
        assert abs(res.value / _pec_series(R, R, ratio * R) - 1) <= bound

    @pytest.mark.parametrize("R2", [5e-8, 2e-8])
    def test_unequal_spheres(self, R2):
        R1, L = 1e-7, 5e-6
        a, b = (sphere_energy(SphereSystem(r1, r2, L, PEC, PEC, lmax=2), self.QUAD,
                              adaptive_lmax=False).value for r1, r2 in ((R1, R2), (R2, R1)))
        assert b == pytest.approx(a, rel=1e-12)
        # the leading term, exceeded by the positive (R/L)^2 correction
        assert 0 < a / _pec_series(R1, R2, L, terms=1) - 1 < 2e-3
        assert abs(a / _pec_series(R1, R2, L, terms=3) - 1) <= 1e-5

    def test_pfa_ratio_rises_as_the_gap_closes(self):
        # E_PFA = -pi^3 hbar c R1 R2 / (720 (R1 + R2) d^2), d = L - R1 - R2
        R = 1e-7
        ratios = []
        for L in (4 * R, 3 * R, 2.5 * R):
            pfa = -np.pi**3 * HBAR * C_LIGHT * R / (1440 * (L - 2 * R) ** 2)
            ratios.append(sphere_energy(SphereSystem(R, R, L, PEC, PEC)).value / pfa)
        assert 0 < ratios[0] < ratios[1] < ratios[2] < 1


class TestRescaledRoundTrip:
    """The energy loop takes log det(1 - N), N = G G^T, for log det(1 - M),
    M = R1 T12 R2 T21 (``_round_trip``); N is similar to M because the
    reverse translation is T21 = D T12^T D, D = diag(1_E, -1_M), and
    D r <= 0 for both spheres, where a computed amplitude of the wrong
    sign is clamped to 0."""

    @pytest.mark.parametrize("lmax", range(1, 13))
    def test_reverse_translation_is_reflected_transpose(self, lmax):
        # the reverse translation is the parity image P T12 P,
        # P = diag((-1)^l, -(-1)^l)
        L = 1e-6
        for w in (1e-3, 0.1, 1.0, 7.0, 30.0):
            xi = w * C_LIGHT / L
            for m in range(-lmax, lmax + 1):
                fwd = translation_block(lmax, m, xi, L)
                d = np.ones(len(fwd))
                d[len(fwd) // 2:] = -1.0
                p = d * np.tile((-1.0) ** np.arange(max(1, abs(m)), lmax + 1), 2)
                rev = p[:, None] * fwd * p
                err = np.abs(rev - d[:, None] * fwd.T * d).max()
                assert err <= 1e-14 * np.abs(fwd).max()

    @pytest.mark.parametrize("sys_", [
        SphereSystem(1e-7, 1e-7, 2.6e-7, PEC, PEC),
        SphereSystem(1e-7, 1e-7, 3e-7, Drude(1.37e16, 5.3e13), Drude(1.37e16, 5.3e13)),
        SphereSystem(1.5e-7, 1e-7, 3.2e-7, ConstantEps(4.0), ConstantEps(9.0)),
        # eps(i xi) - 1 below 1e-9: amplitudes of either sign from rounding,
        # which both sides clamp
        SphereSystem(1e-7, 1e-7, 3e-7, Drude(1e10, 1e20), PEC),
    ], ids=["pec", "drude", "unequal-eps", "nearly-vacuum"])
    def test_log_det_equals_that_of_the_round_trip(self, sys_):
        lmax = 8
        for w in (0.3, 1.0, 3.0, 10.0, 30.0):
            xi = w * C_LIGHT / sys_.L
            want = 0.0
            for m in range(-lmax, lmax + 1):
                z = -np.linalg.eigvals(_round_trip(sys_, xi, lmax, m, clamp=True))
                want += np.sum(0.5 * np.log1p(2 * z.real + np.abs(z) ** 2))
            # an LU factorisation of 1 - N rounds its diagonal: an absolute
            # error of a few eps per m-block
            got = _round_trip_logdet_sum(sys_, xi, lmax)
            assert got == pytest.approx(want, rel=1e-12, abs=0)


class TestMCutOff:
    """The m loop of ``_round_trip_logdet_sum`` stops after the first block
    that changed every node's sum, and its nested sum, by at most
    ``_M_CUT`` of it; ``sphere_energy`` adds (lmax + 1) ``_M_CUT`` |E| to
    its error for the blocks left out."""

    SYS = SphereSystem(1e-7, 1e-7, 2.5e-7, PEC, PEC)
    LMAX = 20

    def test_cut_sum_against_every_block_of_the_public_views(self, monkeypatch):
        xi = np.array([0.5, 2.0, 8.0]) * C_LIGHT / self.SYS.L
        reached, m_cut = [], sphere._M_CUT

        def spy(lmax, m, sk, step):
            reached.append(m)
            return axial_sums(lmax, m, sk, step)

        axial_sums = sphere._axial_sums
        monkeypatch.setattr(sphere, "_axial_sums", spy)
        total, sub = _round_trip_logdet_sum(self.SYS, xi, self.LMAX, nested=15)
        cut = max(reached)
        assert cut < self.LMAX
        # every block, from the same code with the cut-off switched off
        monkeypatch.setattr(sphere, "_M_CUT", -1.0)
        reached.clear()
        total_all, sub_all = _round_trip_logdet_sum(self.SYS, xi, self.LMAX, nested=15)
        assert max(reached) == self.LMAX
        np.testing.assert_allclose(total, total_all, rtol=1e-14, atol=0)
        np.testing.assert_allclose(sub, sub_all, rtol=1e-14, atol=0)
        # every block from the public views: log(1 - lambda) of each
        # eigenvalue of each m-block M (a reference good to about 1e-13
        # here, since M itself is badly scaled)
        blocks = np.zeros((self.LMAX + 1, xi.size))
        for i, x in enumerate(xi):
            for m in range(self.LMAX + 1):
                z = -np.linalg.eigvals(_round_trip(self.SYS, x, self.LMAX, m))
                blocks[m, i] = (1 + (m > 0)) * np.sum(0.5 * np.log1p(2 * z.real + np.abs(z) ** 2))
        np.testing.assert_allclose(total, blocks.sum(axis=0), rtol=1e-12, atol=0)
        past = np.abs(blocks[cut + 1:].sum(axis=0))
        assert np.all(past > 0)
        assert np.all(past < (self.LMAX + 1) * m_cut * np.abs(total))

    def test_energy_error_carries_the_tail(self, monkeypatch):
        sys_ = SphereSystem(1e-7, 1e-7, 2.5e-7, PEC, PEC, lmax=8)
        res = sphere_energy(sys_, adaptive_lmax=False)
        tail = 9 * sphere._M_CUT * abs(res.value)
        monkeypatch.setattr(sphere, "_M_CUT", 0.0)
        bare = sphere_energy(sys_, adaptive_lmax=False)
        assert res.error_estimate == pytest.approx(bare.error_estimate + tail, rel=1e-12)
        assert res.value == pytest.approx(bare.value, rel=1e-14)
