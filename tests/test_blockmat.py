"""Tests for the dense block-matrix layer: log-determinants, Schur
complements, the determinant lemma, unitary block identities, Haar
sampling and unitary dilation."""

import numpy as np
import pytest

from casimir import blockmat, scattering
from casimir.errors import (
    NotContraction,
    NotUnitary,
    ResonantSingular,
    SingularBlock,
    SingularMatrix,
)
from casimir.toy import lossy_mirror


def det_by_elimination(m):
    """Independent determinant oracle: plain Gaussian elimination with
    partial pivoting, no log accumulation. Only safe for small, well
    conditioned matrices."""
    a = np.array(m, dtype=complex)
    n = a.shape[0]
    det = 1.0 + 0.0j
    for col in range(n):
        p = col + np.argmax(np.abs(a[col:, col]))
        if p != col:
            a[[col, p]] = a[[p, col]]
            det = -det
        det *= a[col, col]
        a[col + 1 :] -= np.outer(a[col + 1 :, col] / a[col, col], a[col])
    return det


class TestLogdet:
    def test_identity(self):
        assert blockmat.logdet(np.eye(3)) == 0

    def test_scalar_2i(self):
        ld = blockmat.logdet(np.array([[2j]]))
        assert ld.real == pytest.approx(np.log(2), abs=1e-15)
        assert ld.imag == pytest.approx(np.pi / 2, abs=1e-15)

    def test_haar_unitary_modulus_one(self):
        u = blockmat.random_unitary(8, seed=11)
        ld = blockmat.logdet(u)
        assert abs(ld.real) < 1e-12
        # oracle: direct elimination determinant at n=8
        det = det_by_elimination(u)
        assert abs(det - np.exp(ld)) < 1e-12

    def test_matches_elimination_oracle(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 9):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            ld = blockmat.logdet(m)
            det = det_by_elimination(m)
            assert np.exp(ld) == pytest.approx(det, rel=1e-12)

    def test_reconstructs_det(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert np.exp(blockmat.logdet(m)) == pytest.approx(
            np.linalg.det(m), rel=1e-12
        )

    def test_singular_raises(self):
        m = np.zeros((3, 3), dtype=complex)
        with pytest.raises(SingularMatrix):
            blockmat.logdet(m)

    def test_rejects_nonfinite(self):
        m = np.array([[1.0, np.inf], [0.0, 1.0]])
        with pytest.raises(ValueError):
            blockmat.logdet(m)

    def test_product_of_unitaries_has_unit_modulus(self):
        u = blockmat.random_unitary(5, seed=1)
        v = blockmat.random_unitary(5, seed=2)
        assert abs(blockmat.logdet(u @ v).real) < 1e-10


class TestLogdetBranchAndSolve:
    def test_minus_one_with_negative_zero_gives_plus_pi(self):
        ld = blockmat.logdet(np.array([[complex(-1.0, -0.0)]]))
        assert ld.real == 0
        assert ld.imag == np.pi

    @pytest.mark.parametrize("err", [SingularBlock, ResonantSingular])
    def test_solve_singular_raises_given_error(self, err):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(err):
            blockmat.solve(a, np.eye(2), err=err)

    def test_solve_non_square_names_shape(self):
        with pytest.raises(ValueError, match=r"square, got shape \(2, 3\)"):
            blockmat.solve(np.ones((2, 3)), np.ones(2))


class TestSchurComplement:
    def test_scalar_case(self):
        m = np.ones((2, 2))
        assert blockmat.schur_complement(m, 1, "A")[0, 0] == 0

    def test_block_triangular(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        d = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        c = rng.standard_normal((2, 3))
        m = np.block([[a, np.zeros((3, 2))], [c, d]])
        assert np.allclose(blockmat.schur_complement(m, 3, "A"), d)

    @pytest.mark.parametrize("seed", range(8))
    def test_det_factorization_both_ways(self, seed):
        # det M = det(A) det(M/A) = det(D) det(M/D)
        u = blockmat.random_unitary(8, seed=seed) * (1.3 + 0.4j)
        a, _, _, d = blockmat.split(u, 4)
        ld = blockmat.logdet(u)
        via_a = blockmat.logdet(a) + blockmat.logdet(blockmat.schur_complement(u, 4, "A"))
        via_d = blockmat.logdet(d) + blockmat.logdet(blockmat.schur_complement(u, 4, "D"))
        assert abs(1 - np.exp(via_a - ld)) < 1e-10
        assert abs(1 - np.exp(via_d - ld)) < 1e-10


class TestMatrixDetLemma:
    def test_b_zero_exact(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        d = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        c = rng.standard_normal((3, 4))
        res = blockmat.matrix_det_lemma_residual(a, np.zeros((4, 3)), d, c)
        assert res < 1e-13

    def test_scalars(self):
        one = np.array([[1.0]])
        assert blockmat.matrix_det_lemma_residual(one, one, one, one) < 1e-14

    @pytest.mark.parametrize("seed", range(10))
    def test_unitary_derived_blocks(self, seed):
        u = blockmat.random_unitary(16, seed=seed)
        a, b, c, _ = blockmat.split(u, 8)
        res = blockmat.matrix_det_lemma_residual(a, b, blockmat.random_unitary(8, seed + 1000), c)
        assert res < 1e-10


class TestUnitaryBlockRelations:
    def test_rotation_closed_form(self):
        th = 0.3
        r = np.array(
            [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex
        )
        rep = blockmat.unitary_block_relations(r, 1)
        # det M = 1 = cos/cos, and -sin^2/cos = cos - 1/cos
        assert rep["det_ratio_residual"] < 1e-14
        assert rep["offdiag_residual"] < 1e-14
        lhs = -np.sin(th) ** 2 / np.cos(th)
        rhs = np.cos(th) - 1 / np.cos(th)
        assert lhs == pytest.approx(rhs, abs=1e-15)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_unitary_6x6(self, seed):
        u = blockmat.random_unitary(6, seed=seed)
        rep = blockmat.unitary_block_relations(u, 3)
        assert rep["det_ratio_residual"] < 1e-10
        assert rep["offdiag_residual"] < 1e-10

    def test_not_unitary_rejected(self):
        with pytest.raises(NotUnitary):
            blockmat.unitary_block_relations(np.eye(4) * 1.001, 2)


class TestRandomUnitary:
    def test_scalar_has_unit_modulus(self):
        u = blockmat.random_unitary(1, seed=5)
        assert abs(abs(u[0, 0]) - 1) < 1e-14

    def test_deterministic(self):
        a = blockmat.random_unitary(8, seed=42)
        b = blockmat.random_unitary(8, seed=42)
        assert np.array_equal(a, b)

    def test_unitary_and_unit_det(self):
        u = blockmat.random_unitary(16, seed=0)
        assert blockmat.unitarity_defect(u) < 1e-12
        assert abs(blockmat.logdet(u).real) < 1e-12


class TestUnitaryDilation:
    def test_zero_contraction(self):
        u = blockmat.unitary_dilation(np.zeros((2, 2)))
        expect = np.block(
            [[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]]
        )
        assert np.allclose(u, expect)

    def test_unitary_input_decouples(self):
        k = blockmat.random_unitary(3, seed=9)
        u = blockmat.unitary_dilation(k)
        assert np.max(np.abs(u[:3, 3:])) < 1e-7
        assert np.max(np.abs(u[3:, :3])) < 1e-7
        assert np.allclose(u[3:, 3:], -k.conj().T)

    def test_scalar_half(self):
        u = blockmat.unitary_dilation(np.array([[0.5]]))
        assert u[0, 0] == 0.5
        assert u[0, 1] == pytest.approx(np.sqrt(0.75), abs=1e-15)
        assert u[1, 0] == pytest.approx(np.sqrt(0.75), abs=1e-15)
        assert u[1, 1] == -0.5

    @pytest.mark.parametrize("seed", range(10))
    def test_unitary_and_topleft_exact(self, seed):
        k = blockmat.random_contraction(4, seed)
        u = blockmat.unitary_dilation(k)
        assert blockmat.unitarity_defect(u) < 1e-10
        assert np.array_equal(u[:4, :4], k)

    def test_expansion_rejected(self):
        with pytest.raises(NotContraction):
            blockmat.unitary_dilation(np.eye(2) * 1.01)


def _psd_sqrt(h):
    """(H)^1/2 of a Hermitian PSD matrix by eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.sqrt(w)) @ v.conj().T


class TestDilationAtUnitSingularValue:
    """Square roots of 1 - K K^dag taken by eigendecomposition are off by
    sqrt(eps) where a singular value of K is 1; the dilation must stay
    unitary to rounding there."""

    def test_lossless_mirror(self):
        m = lossy_mirror(0.9, np.sqrt(0.19), "right")
        assert m.unitarity_defect() <= 1e-14

    @pytest.mark.parametrize("seed", range(8))
    def test_top_singular_value_one(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        w, s, vh = np.linalg.svd(z)
        k = (w * (s / s[0])) @ vh
        u = blockmat.unitary_dilation(k)
        assert blockmat.unitarity_defect(u) <= 1e-14
        assert np.array_equal(u[:4, :4], k)

    @pytest.mark.parametrize("seed", range(4))
    def test_lossless_translation(self, seed):
        t = blockmat.random_unitary(3, seed=seed)
        assert scattering.translation_scatterer(t).unitarity_defect() <= 1e-14

    @pytest.mark.parametrize("seed", range(6))
    def test_blocks_match_eigh_square_roots(self, seed):
        k = blockmat.random_contraction(4, seed)
        assert np.linalg.svd(k, compute_uv=False)[0] <= 0.95
        u = blockmat.unitary_dilation(k)
        eye = np.eye(4)
        assert np.max(np.abs(u[:4, 4:] - _psd_sqrt(eye - k @ k.conj().T))) <= 1e-13
        assert np.max(np.abs(u[4:, :4] - _psd_sqrt(eye - k.conj().T @ k))) <= 1e-13


class TestStackedDilation:
    """A stack of contractions is dilated by one stacked SVD; each member
    equals its single dilation."""

    def test_stack_matches_single_calls(self):
        k = np.stack([blockmat.random_contraction(3, s) for s in range(6)]).reshape(2, 3, 3, 3)
        u = blockmat.unitary_dilation(k)
        assert u.shape == (2, 3, 6, 6)
        for i in np.ndindex(2, 3):
            assert np.max(np.abs(u[i] - blockmat.unitary_dilation(k[i]))) <= 1e-13
        assert np.array_equal(u[..., :3, :3], k)
        assert np.max(blockmat.unitarity_defect(u)) <= 1e-14

    def test_one_expanding_member_is_named(self):
        k = np.stack([blockmat.random_contraction(2, s) for s in range(5)])
        k[3] *= 1.1 / np.linalg.svd(k[3], compute_uv=False)[0]
        with pytest.raises(NotContraction, match=r"matrix 3 of the stack"):
            blockmat.unitary_dilation(k)

    def test_member_named_by_its_index_tuple(self):
        k = np.zeros((2, 3, 2, 2))
        k[1, 2] = 1.01 * np.eye(2)
        with pytest.raises(NotContraction, match=r"matrix \(1, 2\) of the stack"):
            blockmat.unitary_dilation(k)


class TestStackedUnitarity:
    def test_defect_per_member(self):
        u = np.stack([blockmat.random_unitary(4, s) for s in range(3)])
        defect = blockmat.unitarity_defect(u)
        assert defect.shape == (3,)
        for i in range(3):
            assert defect[i] == blockmat.unitarity_defect(u[i])

    def test_one_bad_member_raises_with_its_index(self):
        u = np.stack([blockmat.random_unitary(4, s) for s in range(3)])
        u[2] *= 1.001
        with pytest.raises(NotUnitary, match=r"matrix 2 of the stack"):
            blockmat.require_unitary(u)

    def test_stacked_solve_raises_for_one_singular_member(self):
        a = np.stack([np.eye(2), [[1.0, 2.0], [2.0, 4.0]]])
        with pytest.raises(SingularBlock, match=r"matrix 1 of the stack"):
            blockmat.solve(a, np.eye(2))


def loop(fn, *stacks):
    """fn over the members of equal-batch stacks, restacked on that batch."""
    batch = stacks[0].shape[:-2]
    out = np.array([fn(*(x[i] for x in stacks)) for i in np.ndindex(batch)])
    return out.reshape(batch + out.shape[1:])


def close(a, b, tol=1e-13):
    return np.shape(a) == np.shape(b) and np.max(np.abs(np.asarray(a) - b), initial=0.0) <= tol


class TestStackedIdentityHelpers:
    """The identity helpers on a (2, 3) batch equal a loop of single calls;
    a single matrix keeps returning a Python scalar."""

    @staticmethod
    def unitaries(n, seed=0):
        return blockmat.random_unitary(n, range(seed, seed + 6)).reshape(2, 3, n, n)

    def test_random_fixtures_equal_per_seed_draws(self):
        seeds = [5, 17, 2**31 - 2]
        for make in (blockmat.random_unitary, blockmat.random_contraction):
            stack = make(4, seeds)
            assert all(np.array_equal(stack[i], make(4, s)) for i, s in enumerate(seeds))

    def test_logdet(self):
        m = self.unitaries(5) @ np.diag([3.0, 1, 1, 1, 0.2])
        ld = blockmat.logdet(m)
        assert ld.shape == (2, 3) and close(ld, loop(blockmat.logdet, m))
        assert isinstance(blockmat.logdet(m[0, 0]), complex)

    def test_logdet_names_the_singular_member(self):
        m = self.unitaries(3)
        m[1, 2, 0] = 0.0
        with pytest.raises(SingularMatrix, match=r"matrix \(1, 2\) of the stack"):
            blockmat.logdet(m)

    def test_logdet_minus_one_member_gets_plus_pi(self):
        m = np.array([[[complex(-1.0, -0.0)]], [[1j]], [[complex(-1.0, -0.0)]]])
        ld = blockmat.logdet(m)
        assert list(ld.imag) == [np.pi, np.pi / 2, np.pi] and not ld.real.any()

    @pytest.mark.parametrize("which", ["A", "D"])
    def test_block2x2_and_schur_complement(self, which):
        u = self.unitaries(7)
        a, b, c, d = blockmat.split(u, 3)
        assert (a.shape[-1], d.shape[-1]) == (3, 4)
        assert np.array_equal(np.block([[a, b], [c, d]]), u)
        comp = blockmat.schur_complement(u, 3, which)
        single = loop(lambda x: blockmat.schur_complement(x, 3, which), u)
        assert close(comp, single)

    def test_matrix_det_lemma(self):
        a, b, c, _ = blockmat.split(self.unitaries(8), 4)
        d = self.unitaries(4, seed=40)
        res = blockmat.matrix_det_lemma_residual(a, b, d, c)
        assert close(res, loop(blockmat.matrix_det_lemma_residual, a, b, d, c))
        assert isinstance(blockmat.matrix_det_lemma_residual(a[0, 0], b[0, 0], d[0, 0],
                                                             c[0, 0]), float)

    def test_unitary_block_relations(self):
        u = self.unitaries(6)
        rep = blockmat.unitary_block_relations(u, 3)
        singles = [[blockmat.unitary_block_relations(u[i, j], 3)
                    for j in range(3)] for i in range(2)]
        for key, value in rep.items():
            assert close(value, [[r[key] for r in row] for row in singles])
            assert isinstance(singles[0][0][key], float)

    def test_unitary_block_relations_names_the_member(self):
        u = self.unitaries(6)
        u[0, 1] *= 1.001
        with pytest.raises(NotUnitary, match=r"matrix \(0, 1\) of the stack"):
            blockmat.unitary_block_relations(u, 3)


class TestSeed309Fixture:
    """`casimir verify --trials 500 --seed 309` fails unitary_block_offdiag
    with 1.496e-10 against its bound of 1e-10, at trial 92 (n = 12,
    cond(A) = 868). The failure stands: the float64 Haar fixture is unitary
    to 9e-16 only, and at that condition number its exact sides
    B D^-1 C and A - A^-dag already differ by 1.43e-10. So no float64
    evaluation of this fixture can meet the bound, while the package's two
    sides are each within 1e-11 of their exact values."""

    @staticmethod
    def fixture():
        trials = 500
        seeds = np.random.default_rng(309).integers(0, 2**31 - 1, size=trials * 8)
        k = 92
        n = 2 + int(seeds[k] % 15)
        u = blockmat.random_unitary(n, int(seeds[k + 3 * trials]))
        return u

    def test_sides_against_40_digit_reference(self):
        mp = pytest.importorskip("mpmath")
        u = self.fixture()
        blocks = blockmat.split(u, 6)
        m_a, m_b, m_c, m_d = blocks
        assert u.shape == (12, 12) and np.linalg.cond(m_a) == pytest.approx(868, rel=1e-3)
        # the two sides as unitary_block_relations forms them
        lhs = m_b @ blockmat.solve(m_d, m_c)
        rhs = m_a - blockmat.inv(m_a).conj().T
        with mp.workdps(40):
            a, b, c, d = (mp.matrix(x.tolist()) for x in blocks)
            exact_lhs = b * (mp.inverse(d) * c)
            exact_rhs = a - mp.inverse(a).transpose_conj()

            def dist(x, y):
                return max(float(abs(mp.mpc(complex(x[i, j])) - y[i, j]))
                           for i in range(6) for j in range(6))

            exact_gap = max(float(abs(exact_lhs[i, j] - exact_rhs[i, j]))
                            for i in range(6) for j in range(6))
            lhs_err, rhs_err = dist(lhs, exact_lhs), dist(rhs, exact_rhs)
        assert 1.3e-10 < exact_gap < 1.6e-10
        assert lhs_err < 1e-11 and rhs_err < 1e-11
        residual = blockmat.unitary_block_relations(u, 6)["offdiag_residual"]
        assert abs(residual - exact_gap) <= lhs_err + rhs_err
