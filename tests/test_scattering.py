"""Tests for scattering-matrix composition, the determinant factorization
theorem, phase shifts and density-of-states changes."""

import numpy as np
import pytest

from casimir import blockmat
from casimir.blockmat import logdet, random_contraction, random_unitary
from casimir.errors import (
    BranchJump,
    ChannelMismatch,
    NotContraction,
    NotUnitary,
    ResonantSingular,
)
from casimir.scattering import (
    ScatteringMatrix,
    alpha_phase,
    chain3_factorization_residual,
    det_composition_residual,
    dos_change,
    eigenphases,
    matched_phase_increment,
    phase_shift,
    promote_internal,
    round_trip,
    round_trip_series,
    star,
    translation_scatterer,
)


def haar_scatterer(n_int, n_ext, seed):
    return ScatteringMatrix.from_full(random_unitary(n_int + n_ext, seed), n_int)


def dilation_scatterer(n_int, seed):
    """Unitary scatterer from the dilation of a random contraction."""
    k = random_contraction(2 * n_int, seed)
    return ScatteringMatrix.from_full(blockmat.unitary_dilation(k), n_int)


def compose_two_by_network_solve(s1, s2, e1=None, e2=None):
    """Independent composition oracle: eliminate the internal bond
    amplitudes by solving the coupled linear system channel by channel."""
    n = s1.n_int
    ne1, ne2 = s1.n_ext, s2.n_ext
    cols = []
    for j in range(ne1 + ne2):
        e1 = np.zeros(ne1, dtype=complex)
        e2 = np.zeros(ne2, dtype=complex)
        if j < ne1:
            e1[j] = 1.0
        else:
            e2[j - ne1] = 1.0
        # bonds: a1 = out of S1 toward S2, a2 = out of S2 toward S1
        # a1 = S1ii a2 + S1ie e1 ; a2 = S2ii a1 + S2ie e2
        big = np.block(
            [[np.eye(n), -s1.ii], [-s2.ii, np.eye(n)]]
        )
        rhs = np.concatenate([s1.ie @ e1, s2.ie @ e2])
        a1, a2 = np.split(np.linalg.solve(big, rhs), 2)
        out1 = s1.ei @ a2 + s1.ee @ e1
        out2 = s2.ei @ a1 + s2.ee @ e2
        cols.append(np.concatenate([out1, out2]))
    return np.stack(cols, axis=1)


def compose_chain_by_network_solve(s1, sl, s2):
    """Independent three-factor chain oracle with the translation layout
    [internal = right-facing, externals = [left-facing, environment]]."""
    n = s1.n_int
    ne1, nenv, ne2 = s1.n_ext, sl.n_ext - n, s2.n_ext
    sl_ie_side1 = sl.ie[:, :n]
    sl_ie_env = sl.ie[:, n:]
    sl_ei_side1 = sl.ei[:n, :]
    sl_ei_env = sl.ei[n:, :]
    sl_ee = sl.ee
    cols = []
    ntot = ne1 + nenv + ne2
    for j in range(ntot):
        e1 = np.zeros(ne1, dtype=complex)
        env = np.zeros(nenv, dtype=complex)
        e2 = np.zeros(ne2, dtype=complex)
        if j < ne1:
            e1[j] = 1.0
        elif j < ne1 + nenv:
            env[j - ne1] = 1.0
        else:
            e2[j - ne1 - nenv] = 1.0
        # unknowns: x1 (S1 -> SL), y1 (SL -> S1), x2 (SL -> S2), y2 (S2 -> SL)
        eye = np.eye(n)
        z = np.zeros((n, n))
        big = np.block(
            [
                [eye, -s1.ii, z, z],
                [-sl_ee[:n, :n], eye, z, -sl_ei_side1],
                [-sl_ie_side1, z, eye, -sl.ii],
                [z, z, -s2.ii, eye],
            ]
        )
        rhs = np.concatenate(
            [
                s1.ie @ e1,
                sl_ee[:n, n:] @ env,
                sl_ie_env @ env,
                s2.ie @ e2,
            ]
        )
        x1, y1, x2, y2 = np.split(np.linalg.solve(big, rhs), 4)
        out1 = s1.ei @ y1 + s1.ee @ e1
        out_env = sl_ei_env @ y2 + sl_ee[n:, :n] @ x1 + sl_ee[n:, n:] @ env
        out2 = s2.ei @ x2 + s2.ee @ e2
        cols.append(np.concatenate([out1, out_env, out2]))
    return np.stack(cols, axis=1)


class TestFromFull:
    @pytest.mark.parametrize("internal", [[0, 0], [-1], [5], [0, 3]])
    def test_bad_index_list_rejected(self, internal):
        # repeated, negative and out-of-range indices of a 3-channel matrix
        with pytest.raises(ChannelMismatch, match="need distinct indices"):
            ScatteringMatrix.from_full(random_unitary(3, 1), internal)

    def test_non_square_full_rejected(self):
        with pytest.raises(ChannelMismatch, match=r"square, got shape \(3, 2, 3\)"):
            ScatteringMatrix(np.ones((3, 2, 3)), 1)

    @pytest.mark.parametrize("n_int", [-1, 4])
    def test_n_int_out_of_range_rejected(self, n_int):
        with pytest.raises(ChannelMismatch, match=r"outside \[0, 3\]"):
            ScatteringMatrix(random_unitary(3, 1), n_int)


class TestStar:
    def test_transparent_pass_through(self):
        s1 = haar_scatterer(2, 3, seed=4)
        z, eye = np.zeros((2, 2)), np.eye(2)
        # no backscattering
        out = star(s1, ScatteringMatrix.from_full(np.block([[z, eye], [eye, z]]), 2))
        # blocks of S1 reappear with relabeled external channels
        assert np.allclose(out.ee[:3, :3], s1.ee)
        assert np.allclose(out.ee[:3, 3:], s1.ei)
        assert np.allclose(out.ee[3:, :3], s1.ie)
        assert np.allclose(out.ee[3:, 3:], s1.ii)

    def test_scalar_geometric_series(self):
        rt = round_trip(np.array([[0.5]]), np.array([[0.5]]))
        assert rt.D21[0, 0] == pytest.approx(4 / 3, rel=1e-15)
        assert rt.D12[0, 0] == pytest.approx(4 / 3, rel=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_unitarity_preserved(self, seed):
        s1 = haar_scatterer(2, 2, seed=seed)
        s2 = haar_scatterer(2, 2, seed=seed + 500)
        out = star(s1, s2)
        assert out.unitarity_defect() < 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_network_solve_oracle(self, seed):
        s1 = haar_scatterer(3, 2, seed=seed)
        s2 = haar_scatterer(3, 4, seed=seed + 100)
        expected = compose_two_by_network_solve(s1, s2)
        assert np.allclose(star(s1, s2).ee, expected, atol=1e-12)

    def test_channel_mismatch(self):
        with pytest.raises(ChannelMismatch):
            star(haar_scatterer(2, 2, 0), haar_scatterer(3, 2, 1))

    def test_resonant_cavity_singular(self):
        # lossless perfectly resonant cavity: 1 - S2ii S1ii exactly singular
        from casimir.errors import ResonantSingular

        mirror = ScatteringMatrix.from_full(np.diag([1.0 + 0j, 1.0]), 1)
        with pytest.raises(ResonantSingular):
            star(mirror, mirror)

    @pytest.mark.parametrize("seed", range(4))
    def test_associativity(self, seed):
        n = 2
        s1 = haar_scatterer(n, 2, seed=seed)
        sl = translation_scatterer(random_contraction(n, seed + 40))
        s2 = haar_scatterer(n, 3, seed=seed + 80)
        left = star(s1, promote_internal(star(sl, s2), n))
        # (S1 * SL) * S2: expose SL's left side as internal first
        sl_flip = ScatteringMatrix.from_full(
            sl.full, list(range(n, 2 * n))
        )
        mid = star(s1, sl_flip)
        # mid externals: [S1 ext, side2-of-SL, env]; side2 must become internal
        ne1 = s1.n_ext
        mid = ScatteringMatrix.from_full(
            mid.ee, list(range(ne1, ne1 + n))
        )
        right = star(mid, s2)
        # same channel content, different external ordering on the left factor
        # left order: [e1, env, e2]; right order: [e1, env, e2] as well
        assert np.allclose(left.ee, right.ee, atol=1e-9)


class TestRoundTripSeries:
    def test_zero_terms_identity(self):
        out = round_trip_series(np.array([[0.3]]), np.array([[0.7]]), 0)
        assert np.allclose(out, np.eye(1))

    def test_scalar_geometric_bound(self):
        out = round_trip_series(np.array([[0.5]]), np.array([[0.5]]), 20)
        assert abs(out[0, 0] - 4 / 3) < 0.25**21 / 0.75

    @pytest.mark.parametrize("seed", range(5))
    def test_converges_to_resolvent(self, seed):
        a = random_contraction(4, seed)
        b = random_contraction(4, seed + 9)
        rt = round_trip(a, b)
        series = round_trip_series(a, b, 60)
        assert np.max(np.abs(series - rt.D12)) < 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_geometric_rate(self, seed):
        a = random_contraction(3, seed)
        b = random_contraction(3, seed + 21)
        rho = np.max(np.abs(np.linalg.eigvals(b @ a)))
        rt = round_trip(a, b)
        for terms in (5, 10, 20):
            err = np.linalg.norm(round_trip_series(a, b, terms) - rt.D12, 2)
            bound = rho ** (terms + 1) / (1 - rho) * np.linalg.norm(rt.D12, 2) * 10
            # the geometric rate holds until the double-precision floor
            assert err <= max(bound, 1e-13)


class TestSylvester:
    @pytest.mark.parametrize("seed", range(12))
    def test_det_d12_equals_det_d21(self, seed):
        a = random_contraction(5, seed)
        b = random_contraction(5, seed + 77)
        rt = round_trip(a, b)
        ld12, ld21 = logdet(rt.D12), logdet(rt.D21)
        assert abs(1 - np.exp(ld12 - ld21)) < 1e-10


class TestDetComposition:
    def test_transparent_pair(self):
        z, eye = np.zeros((2, 2)), np.eye(2)
        transparent = ScatteringMatrix.from_full(np.block([[z, eye], [eye, z]]), 2)
        res = det_composition_residual(transparent, transparent)
        assert res < 1e-12

    @pytest.mark.parametrize("seed", range(15))
    def test_random_unitary_pairs(self, seed):
        s1 = haar_scatterer(2, 2, seed=seed)
        s2 = haar_scatterer(2, 3, seed=seed + 300)
        assert det_composition_residual(s1, s2) < 1e-9
        assert abs(abs(np.exp(logdet(star(s1, s2).ee))) - 1) < 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_two_by_two_unitaries(self, seed):
        s1 = haar_scatterer(1, 1, seed=seed)
        s2 = haar_scatterer(1, 1, seed=seed + 41)
        assert det_composition_residual(s1, s2) < 1e-10
        assert alpha_phase(s1, s2) == pytest.approx(-1, abs=1e-10)

    def test_requires_unitary(self):
        bad = ScatteringMatrix.from_full(np.eye(4) * 1.01, 2)
        with pytest.raises(NotUnitary):
            det_composition_residual(bad, haar_scatterer(2, 2, 0))


def alpha_unreduced(s1, s2):
    """Independent oracle for the phase factor: the unreduced determinant
    ratio with the external-block inverses still in place."""
    n = s1.n_int
    rt = round_trip(s1.ii, s2.ii)
    d12_inv = np.eye(n) - s2.ii @ s1.ii
    d21_inv = np.eye(n) - s1.ii @ s2.ii
    num = np.conj(np.linalg.det(s2.ii)) * np.linalg.det(
        d12_inv + s2.ie @ np.linalg.solve(s2.ee, s2.ei) @ s1.ii
    )
    den = np.linalg.det(s1.ii) * np.conj(
        np.linalg.det(d21_inv + s1.ie @ np.linalg.solve(s1.ee, s1.ei) @ s2.ii)
    )
    return num / den


class TestAlphaPhase:
    @pytest.mark.parametrize("n_int,seed", [(1, 3), (2, 5), (3, 8), (4, 2)])
    def test_sign_alternation(self, n_int, seed):
        for k in range(8):
            s1 = haar_scatterer(n_int, 2, seed=seed + 17 * k)
            s2 = haar_scatterer(n_int, 3, seed=seed + 17 * k + 1000)
            a = alpha_phase(s1, s2)
            assert abs(a - (-1) ** n_int) < 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_unreduced_oracle_n3(self, seed):
        s1 = haar_scatterer(3, 2, seed=seed)
        s2 = haar_scatterer(3, 2, seed=seed + 7000)
        a = alpha_phase(s1, s2)
        assert abs(a - alpha_unreduced(s1, s2)) < 1e-9
        assert abs(a - (-1) ** 3) < 1e-10


class TestTranslationScatterer:
    def test_identity_is_pass_through(self):
        sl = translation_scatterer(np.eye(2))
        assert np.max(np.abs(sl.ii)) == 0
        # environment coupling vanishes for lossless transmission
        assert np.max(np.abs(sl.ie[:, 2:])) < 1e-7
        assert np.max(np.abs(sl.ie[:, :2] - np.eye(2))) < 1e-12

    def test_lossless_phase(self):
        t = np.array([[np.exp(0.7j)]])
        sl = translation_scatterer(t)
        assert abs(abs(sl.ie[0, 0]) - 1) < 1e-12
        assert sl.unitarity_defect() < 1e-10

    def test_lossy_environment_amplitude(self):
        sl = translation_scatterer(np.array([[0.8 * np.exp(0.3j)]]))
        # unitarity: |t|^2 + |env coupling|^2 = 1
        env = sl.ie[0, 1:]
        assert np.linalg.norm(env) == pytest.approx(0.6, abs=1e-12)
        assert sl.unitarity_defect() < 1e-10

    def test_amplifying_medium_rejected(self):
        from casimir.errors import NotContraction

        with pytest.raises(NotContraction):
            translation_scatterer(np.array([[1.2]]))


class TestChain3:
    def test_perfect_mirrors_lossless_phase(self):
        phase = np.exp(1.234j)
        s1 = ScatteringMatrix.from_full(
            blockmat.unitary_dilation(np.array([[-0.99]])), 1
        )
        # exact perfect mirror: S1ii = -1, decoupled external channel
        mirror = np.diag([-1.0 + 0j, 1.0])
        s1 = ScatteringMatrix.from_full(mirror, 1)
        s2 = ScatteringMatrix.from_full(mirror, 1)
        sl = translation_scatterer(np.array([[phase]]))
        res = chain3_factorization_residual(s1, sl, s2)
        assert res < 1e-10

    def test_opaque_medium_unit_round_trip(self):
        s1 = haar_scatterer(1, 2, seed=1)
        s2 = haar_scatterer(1, 2, seed=2)
        sl = translation_scatterer(np.zeros((1, 1)))
        res = chain3_factorization_residual(s1, sl, s2)
        assert res < 1e-10
        # D21 is trivially the identity then
        d = round_trip(s1.ii @ np.zeros((1, 1)), s2.ii)
        assert np.allclose(d.D21, np.eye(1))

    @pytest.mark.parametrize("seed", range(10))
    def test_lossy_random_chain(self, seed):
        n = 2
        s1 = dilation_scatterer(n, seed)
        s2 = dilation_scatterer(n, seed + 900)
        t = random_contraction(n, seed + 1800)
        sl = translation_scatterer(t)
        assert chain3_factorization_residual(s1, sl, s2) < 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_chain_matches_network_oracle(self, seed):
        n = 2
        s1 = haar_scatterer(n, 2, seed=seed)
        s2 = haar_scatterer(n, 3, seed=seed + 50)
        sl = translation_scatterer(random_contraction(n, seed + 99))
        via_chain = star(s1, promote_internal(star(sl, s2), n))
        expected = compose_chain_by_network_solve(s1, sl, s2)
        assert np.allclose(via_chain.ee, expected, atol=1e-11)


class TestPhaseShift:
    def test_identity(self):
        assert phase_shift(ScatteringMatrix.from_full(np.eye(3), 1)) == 0

    def test_scalar_phase(self):
        s = ScatteringMatrix.from_full(np.array([[np.exp(0.8j)]]), 0)
        assert phase_shift(s) == pytest.approx(0.4, abs=1e-14)

    def test_haar_double_phase_matches_logdet(self):
        u = random_unitary(4, seed=12)
        val = phase_shift(ScatteringMatrix.from_full(u, 2))
        # 2 * phase = arg det S modulo 2 pi
        lhs = np.exp(2j * val)
        rhs = np.exp(1j * logdet(u).imag)
        assert abs(lhs - rhs) < 1e-12


class TestDosChange:
    def test_omega_independent(self):
        u = random_unitary(3, seed=6)
        val = dos_change(lambda w: ScatteringMatrix.from_full(u, 0), 1.0, 1e-3)
        assert abs(val) < 1e-12

    def test_linear_phase(self):
        length, c = 2.0, 299792458.0

        def sampler(w):
            return ScatteringMatrix.from_full(
                np.array([[np.exp(2j * w * length / c)]]), 0
            )

        val = dos_change(sampler, omega=c, h=c * 1e-6)
        assert val == pytest.approx(length / (np.pi * c), rel=1e-9)

    def test_linear_phase_across_branch_cut(self):
        # the principal arg wraps inside the step; matching must bridge it
        def sampler(w):
            return ScatteringMatrix.from_full(np.array([[np.exp(1j * w)]]), 0)

        val = dos_change(sampler, omega=np.pi, h=1e-4)
        assert val == pytest.approx(1 / (2 * np.pi), rel=1e-9)

    def test_branch_jump_detected(self):
        def sampler(w):
            return ScatteringMatrix.from_full(np.array([[np.exp(1j * w)]]), 0)

        with pytest.raises(BranchJump):
            dos_change(sampler, omega=1.0, h=1.0)


def haar_stack(n_int, n_ext, seeds, batch=None):
    u = np.stack([random_unitary(n_int + n_ext, s) for s in seeds])
    return ScatteringMatrix.from_full(u.reshape(batch + u.shape[1:]) if batch else u, n_int)


def member(s, i):
    return ScatteringMatrix(s.full[i], s.n_int)


def assert_close(a, b, tol=1e-13):
    assert np.shape(a) == np.shape(b)
    assert np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0) <= tol


class TestStacks:
    """Matrices with a leading batch axis: every stacked call equals a loop of
    single calls, and one bad member fails the whole stack."""

    def test_from_full_with_index_list(self):
        u = np.stack([random_unitary(5, s) for s in range(4)])
        stacked = ScatteringMatrix.from_full(u, [3, 0])
        assert (stacked.n_int, stacked.n_ext) == (2, 3)
        for i in range(4):
            assert np.array_equal(
                stacked.full[i], ScatteringMatrix.from_full(u[i], [3, 0]).full
            )

    def test_star_of_stacks(self):
        s1 = haar_stack(2, 3, range(5))
        s2 = haar_stack(2, 2, range(100, 105))
        out = star(s1, s2)
        assert out.ee.shape == (5, 5, 5) and out.ii.shape == (5, 0, 0)
        for i in range(5):
            assert_close(out.ee[i], star(member(s1, i), member(s2, i)).ee)

    def test_single_factor_with_a_stack(self):
        # as for a mirror and the translations of a frequency band
        mirror = haar_scatterer(1, 2, seed=7)
        phases = np.exp(1j * np.linspace(0.1, 6.0, 9))
        sl = translation_scatterer(phases[:, None, None])
        left, right = star(sl, mirror), star(mirror, sl)
        for i in range(9):
            single = translation_scatterer(np.array([[phases[i]]]))
            assert_close(left.ee[i], star(single, mirror).ee)
            assert_close(right.ee[i], star(mirror, single).ee)

    def test_round_trip(self):
        a = np.stack([random_contraction(3, s) for s in range(4)])
        b = random_contraction(3, 99)
        rt = round_trip(a, b)
        for i in range(4):
            single = round_trip(a[i], b)
            assert_close(rt.D12[i], single.D12)
            assert_close(rt.D21[i], single.D21)

    def test_promote_internal(self):
        out = star(haar_stack(2, 3, range(3)), haar_stack(2, 2, range(50, 53)))
        promoted = promote_internal(out, 2)
        assert (promoted.n_int, promoted.n_ext) == (2, 3)
        for i in range(3):
            single = promote_internal(member(out, i), 2)
            assert np.array_equal(promoted.full[i], single.full)

    def test_translation_scatterer(self):
        t = np.stack([random_contraction(2, s) for s in range(6)]).reshape(3, 2, 2, 2)
        sl = translation_scatterer(t)
        assert sl.ee.shape == (3, 2, 6, 6)
        for i in np.ndindex(3, 2):
            assert_close(sl.full[i], translation_scatterer(t[i]).full)

    def test_phase_shift_and_matched_increment(self):
        u = np.stack([random_unitary(4, s) for s in range(6)])
        v = np.stack([x @ random_unitary(4, 1000 + s) for s, x in enumerate(u)])
        assert_close(phase_shift(u), [phase_shift(x) for x in u])
        delta, worst = matched_phase_increment(eigenphases(u), eigenphases(v))
        for i in range(6):
            single = matched_phase_increment(eigenphases(u[i]), eigenphases(v[i]))
            assert isinstance(single[0], float) and isinstance(single[1], float)
            assert_close(delta[i], single[0])
            assert_close(worst[i], single[1])

    def test_dos_change_on_frequency_array(self):
        length, c = 2.0, 299792458.0
        mirror = haar_scatterer(1, 2, seed=3)

        def sampler(w):
            phase = np.exp(1j * np.asarray(w) * length / c)
            return star(mirror, translation_scatterer(phase[..., None, None]))

        omegas = np.linspace(0.3, 4.0, 11) * c / length
        h = 1e-5 * c / length
        dos = dos_change(sampler, omegas, h)
        assert dos.shape == (11,)
        assert_close(dos, [dos_change(sampler, w, h) for w in omegas], tol=1e-13 * length / c)

    def test_resonant_member_fails_the_stack(self):
        mirrors = np.stack([np.diag([0.5 + 0j, 0.5]), np.diag([1.0 + 0j, 1.0])])
        stack = ScatteringMatrix.from_full(mirrors, 1)
        with pytest.raises(ResonantSingular, match=r"matrix 1 of the stack"):
            star(stack, stack)

    def test_non_contraction_member_is_named(self):
        t = np.array([0.5, 0.9, 1.2, 0.1])[:, None, None]
        with pytest.raises(NotContraction, match=r"matrix 2 of the stack"):
            translation_scatterer(t)

    def test_branch_jump_in_one_member(self):
        # the phase turns fast only near w = 5, where the step is too coarse
        def sampler(w):
            w = np.asarray(w)
            return np.exp(1j * (w + 40.0 * np.exp(-((w - 5.0) ** 2))))[..., None, None]

        assert dos_change(sampler, np.array([1.0, 2.0]), 0.05).shape == (2,)
        with pytest.raises(BranchJump, match=r"matrix 2 of the stack"):
            dos_change(sampler, np.array([1.0, 2.0, 4.6, 8.0]), 0.05)

    def test_det_composition_and_alpha_phase(self):
        s1 = haar_stack(2, 3, range(6), batch=(2, 3))
        s2 = haar_stack(2, 2, range(60, 66), batch=(2, 3))
        res, alpha = det_composition_residual(s1, s2), alpha_phase(s1, s2)
        assert res.shape == alpha.shape == (2, 3)
        for i in np.ndindex(2, 3):
            single = det_composition_residual(member(s1, i), member(s2, i))
            assert isinstance(single, float)
            assert_close(res[i], single)
            single = alpha_phase(member(s1, i), member(s2, i))
            assert isinstance(single, complex)
            assert_close(alpha[i], single)

    def test_chain3_factorization(self):
        k = random_contraction(4, range(12)).reshape(2, 2, 3, 4, 4)
        s1 = ScatteringMatrix.from_full(blockmat.unitary_dilation(k[0]), 2)
        s2 = ScatteringMatrix.from_full(blockmat.unitary_dilation(k[1]), 2)
        sl = translation_scatterer(random_contraction(2, range(20, 26)).reshape(2, 3, 2, 2))
        res = chain3_factorization_residual(s1, sl, s2)
        assert res.shape == (2, 3)
        for i in np.ndindex(2, 3):
            single = chain3_factorization_residual(member(s1, i), member(sl, i), member(s2, i))
            assert isinstance(single, float)
            assert_close(res[i], single)

    def test_round_trip_series(self):
        a = random_contraction(3, range(6)).reshape(2, 3, 3, 3)
        b = random_contraction(3, range(10, 16)).reshape(2, 3, 3, 3)
        series = round_trip_series(a, b, 40)
        for i in np.ndindex(2, 3):
            assert_close(series[i], round_trip_series(a[i], b[i], 40))

    def test_non_unitary_member_is_named(self):
        s1 = haar_stack(1, 2, range(4))
        bad = ScatteringMatrix.from_full(s1.full * np.array([1, 1, 1.001, 1])[:, None, None], 1)
        with pytest.raises(NotUnitary, match=r"S1 \(matrix 2 of the stack\)"):
            det_composition_residual(bad, s1)


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    n_int=st.integers(1, 3),
    n_ext1=st.integers(1, 3),
    n_ext2=st.integers(1, 3),
    depth=st.integers(1, 6),
    seed=st.integers(0, 2**20),
)
def test_star_of_haar_stacks_is_stacked_single_stars(n_int, n_ext1, n_ext2, depth, seed):
    s1 = haar_stack(n_int, n_ext1, range(seed, seed + depth))
    s2 = haar_stack(n_int, n_ext2, range(seed + depth, seed + 2 * depth))
    out = star(s1, s2)
    for i in range(depth):
        assert_close(out.ee[i], star(member(s1, i), member(s2, i)).ee)
    out.require_unitary()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), depth=st.integers(0, 3),
       seed=st.integers(0, 2**20))
def test_partition_is_views_of_one_matrix(data, n, depth, seed):
    u = random_unitary(n, seed if depth == 0 else range(seed, seed + depth))
    n_int = data.draw(st.integers(0, n), label="n_int")
    s = ScatteringMatrix(u, n_int)
    assert (s.n_int, s.n_ext) == (n_int, n - n_int)
    assert np.array_equal(np.block([[s.ii, s.ie], [s.ei, s.ee]]), u)

    idx = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n), label="idx")
    order = idx + [j for j in range(n) if j not in idx]
    permuted = ScatteringMatrix.from_full(u, idx)
    assert permuted.n_int == len(idx)
    assert np.array_equal(permuted.full, u[..., order, :][..., order])

    m = data.draw(st.integers(1, 3), label="m")
    a = haar_stack(m, n, range(seed, seed + max(depth, 1)))
    b = haar_stack(m, 1, range(seed + 50, seed + 50 + max(depth, 1)))
    out = star(a, b)
    k = data.draw(st.integers(0, out.n_ext), label="k")
    assert promote_internal(out, k).full is out.full
