"""Channel-partitioned scattering matrices and their composition.

A scatterer couples *internal* channels (the ones linking it to the next
scatterer in a chain) to *external* channels (everything else, including
the ports that carry dissipated photons). Composition of two scatterers
sharing their internal channels is the star product; it is not a plain
matrix product because waves bounce back and forth along the internal
channels an arbitrary number of times.

Channel ordering convention, used everywhere: internal channels first,
then external channels. For a star product the external channels of the
result are ordered [left factor's externals..., right factor's externals...];
for a translation scatterer the externals are ordered [far-side channels,
environment ports]. This fixed ordering is what makes the determinant
identities below exact including their signs.

Every function also takes stacks (..., rows, cols), validated once with
each check applied to every matrix; a single matrix is the batch-free case.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import blockmat
from .blockmat import as_complex_matrix, batch_free, logdet, worst_member
from .errors import BranchJump, ChannelMismatch, ResonantSingular


@dataclass(frozen=True)
class ScatteringMatrix:
    """A scatterer's square matrix over all its channels, internal ones
    first, or a stack (..., n, n) of them: n_int internal and n_ext =
    n - n_int external channels. The blocks [[ii, ie], [ei, ee]] are views
    of ``full``."""

    full: np.ndarray
    n_int: int

    def __post_init__(self):
        full = as_complex_matrix(self.full, "scattering matrix")
        n = full.shape[-1]
        if full.shape[-2] != n:
            raise ChannelMismatch(f"scattering matrix must be square, got shape {full.shape}")
        k = operator.index(self.n_int)
        if not 0 <= k <= n:
            raise ChannelMismatch(f"internal channel count {k} outside [0, {n}]")
        object.__setattr__(self, "full", full)
        object.__setattr__(self, "n_int", k)

    @property
    def n_ext(self):
        return self.full.shape[-1] - self.n_int

    @property
    def ii(self):
        return self.full[..., :self.n_int, :self.n_int]

    @property
    def ie(self):
        return self.full[..., :self.n_int, self.n_int:]

    @property
    def ei(self):
        return self.full[..., self.n_int:, :self.n_int]

    @property
    def ee(self):
        return self.full[..., self.n_int:, self.n_int:]

    @classmethod
    def from_full(cls, full, internal):
        """Partition a square matrix into a ScatteringMatrix.

        Parameters
        ----------
        full : array_like
            Square matrix over all channels, or a stack of them.
        internal : int or sequence of int
            Either the number of leading channels that are internal, or an
            explicit list of channel indices to treat as internal (the
            matrix is permuted so those come first, in the given order).
        """
        if np.isscalar(internal):
            return cls(full, int(internal))
        full = as_complex_matrix(full, "scattering matrix")
        n = full.shape[-1]
        idx = list(internal)
        if len(set(idx)) != len(idx) or not all(0 <= j < n for j in idx):
            raise ChannelMismatch(f"internal channels {idx}: need distinct indices < {n}")
        order = idx + [j for j in range(n) if j not in idx]
        return cls(full[(..., *np.ix_(order, order))], len(idx))

    def unitarity_defect(self):
        return blockmat.unitarity_defect(self.full)

    def require_unitary(self, name="scattering matrix"):
        blockmat.require_unitary(self.full, name=name)


@dataclass(frozen=True)
class RoundTrip:
    """Resolvents of the two round-trip operators between two scatterers."""

    D12: np.ndarray
    D21: np.ndarray


def round_trip(s1_ii, s2_ii):
    """Round-trip resolvents D12 = (1 - S2ii S1ii)^-1 and D21 = (1 - S1ii S2ii)^-1.

    Their determinants coincide (Sylvester).

    Raises
    ------
    ResonantSingular
        If 1 - S2ii S1ii (of any member of a stack) has a zero LU pivot.
    """
    a = as_complex_matrix(s1_ii, "S1ii")
    b = as_complex_matrix(s2_ii, "S2ii")
    if a.shape[-2:] != b.shape[-2:] or a.shape[-2] != a.shape[-1]:
        raise ChannelMismatch("internal blocks must be square with equal size")
    eye = np.eye(a.shape[-1])
    d12 = blockmat.solve(eye - b @ a, eye, err=ResonantSingular)
    d21 = blockmat.solve(eye - a @ b, eye, err=ResonantSingular)
    return RoundTrip(D12=d12, D21=d21)


def round_trip_series(s1_ii, s2_ii, terms):
    """Truncated Neumann series sum_{k=0}^{terms} (S2ii S1ii)^k.

    Converges to D12 when the spectral radius of S2ii S1ii is below one;
    the truncation error is bounded by rho^(terms+1) / (1 - rho) in norm.
    Divergent inputs are allowed; the caller checks the spectral radius.
    """
    a = as_complex_matrix(s1_ii, "S1ii")
    b = as_complex_matrix(s2_ii, "S2ii")
    m = b @ a
    power = np.broadcast_to(np.eye(m.shape[-1], dtype=complex), m.shape)
    acc = power.copy()
    for _ in range(int(terms)):
        power = power @ m
        acc += power
    return acc


def star(s1: ScatteringMatrix, s2: ScatteringMatrix):
    """Star product of two scatterers sharing their internal channels.

    The result couples the n_ext1 + n_ext2 external channels only (its
    internal channel count is zero), with blocks

        S11 = S1ee + S1ei S2ii D21 S1ie      S12 = S1ei D12 S2ie
        S21 = S2ei D21 S1ie                  S22 = S2ee + S2ei S1ii D12 S2ie

    where D12, D21 are the round-trip resolvents. A stack and a single
    scatterer (or two stacks) compose member by member.
    """
    if s1.n_int != s2.n_int:
        raise ChannelMismatch(
            f"internal channel mismatch: {s1.n_int} != {s2.n_int}"
        )
    rt = round_trip(s1.ii, s2.ii)
    s11 = s1.ee + s1.ei @ s2.ii @ rt.D21 @ s1.ie
    s12 = s1.ei @ rt.D12 @ s2.ie
    s21 = s2.ei @ rt.D21 @ s1.ie
    s22 = s2.ee + s2.ei @ s1.ii @ rt.D12 @ s2.ie
    return ScatteringMatrix(np.block([[s11, s12], [s21, s22]]), 0)


def promote_internal(s: ScatteringMatrix, k):
    """Reinterpret the first k external channels as internal ones.

    Used when chaining: after SL * S2 the channels that faced the previous
    scatterer sit first among the externals and become internal for the
    next star product. Pure relabeling: the result shares ``s.full``.
    """
    if s.n_int != 0:
        raise ChannelMismatch("promote_internal expects a fully external matrix")
    return ScatteringMatrix(s.full, k)


def translation_scatterer(t):
    """Unitary scatterer for one-way propagation with transmission matrix t.

    Models a stretch of (possibly lossy) medium: no backscattering, so the
    internal-internal block vanishes; the environment ports required to
    restore unitarity come from the unitary dilation of [[0, t], [t, 0]].

    The returned matrix has n_int = n channels facing the *next* scatterer
    and n_ext = 3n channels ordered [far-side channels (n), environment
    ports (2n)]. For unit-modulus (lossless) t the environment coupling
    blocks vanish. A stack of t gives the stack of scatterers.
    """
    t = as_complex_matrix(t, "t")
    n = t.shape[-1]
    if t.shape[-2] != n:
        raise ChannelMismatch("transmission matrix must be square")
    k = np.zeros(t.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    k[..., :n, n:] = t
    k[..., n:, :n] = t
    # dilation channel order: [side1 (n), side2 (n), env (2n)];
    # internal = side2 channels, externals = [side1, env]
    return ScatteringMatrix.from_full(blockmat.unitary_dilation(k), list(range(n, 2 * n)))


def det_composition_residual(s1: ScatteringMatrix, s2: ScatteringMatrix):
    """Defect of the determinant composition theorem

        det(S1 * S2) = (-1)^n_int det(S1) det(S2) det(D21)/det(D21)*

    Both sides are unit-modulus for unitary inputs; the residual is the
    distance |lhs - rhs| between them evaluated through log-determinants
    (phases effectively compared modulo 2 pi), one per member of a stack.
    """
    s1.require_unitary(name="S1")
    s2.require_unitary(name="S2")
    composed = star(s1, s2)
    ld_lhs = logdet(composed.full)
    n = s1.n_int
    ld_d21inv = logdet(np.eye(n) - s1.ii @ s2.ii)
    # det(D21)/det(D21)^* is the pure phase exp(-2i Im log det(1 - S1ii S2ii))
    phase = -2j * ld_d21inv.imag
    ld_rhs = logdet(s1.full) + logdet(s2.full) + phase
    sign = -1.0 if n % 2 else 1.0
    return batch_free(np.abs(np.exp(ld_lhs) - sign * np.exp(ld_rhs)))


def alpha_phase(s1: ScatteringMatrix, s2: ScatteringMatrix):
    """Phase factor alpha = det(S2ii^dag - S1ii) / det(S1ii - S2ii^dag).

    For unitary scatterers this equals (-1)^n_int; evaluating it numerically
    exercises the determinant algebra that collapses the composition
    theorem's leftover factor to a sign.
    """
    s1.require_unitary(name="S1")
    s2.require_unitary(name="S2")
    x = s2.ii.swapaxes(-1, -2).conj() - s1.ii
    return batch_free(np.exp(logdet(x) - logdet(-x)))


def chain3_factorization_residual(
    s1: ScatteringMatrix, sl: ScatteringMatrix, s2: ScatteringMatrix
):
    """Defect of the three-factor chain identity

        det(S1 * SL * S2) = det(S1) det(S2) det(SL) det(D21)/det(D21)*

    with D21 = (1 - S1ii T12 S2ii T21)^-1, T12 and T21 the one-way
    transmission blocks of sl (its ie / ei couplings between the two
    object-facing sides), plus the intermediate identity
    det(SL * S2) = (-1)^n_int det(SL) det(S2) that holds because the
    translation scatterer cannot produce internal round trips (SLii = 0).

    Parameters
    ----------
    s1, sl, s2 : ScatteringMatrix
        Chain factors; sl must have a vanishing internal-internal block and
        externals ordered [left-facing channels, environment ports].

    Returns
    -------
    float, or an array with one per member of a stack
        Max of the two identity residuals, |lhs - rhs| on the unit circle.
    """
    s1.require_unitary(name="S1")
    sl.require_unitary(name="SL")
    s2.require_unitary(name="S2")
    n = s1.n_int
    if sl.n_int != n or s2.n_int != n:
        raise ChannelMismatch("chain factors must share the internal channel count")
    if np.max(np.abs(sl.ii)) > 1e-12:
        raise ChannelMismatch("translation scatterer must have SLii = 0")
    t12 = sl.ie[..., :n]  # transmission from the side-1 externals to side 2
    t21 = sl.ei[..., :n, :]

    # intermediate: det(SL * S2) = (-1)^n det(SL) det(S2), the composition
    # theorem with D21 = 1 because SLii = 0
    res_mid = det_composition_residual(sl, s2)

    # full chain determinant versus the factorized form
    ld_lhs = logdet(star(s1, promote_internal(star(sl, s2), n)).full)
    ld_d21inv = logdet(np.eye(n) - s1.ii @ t12 @ s2.ii @ t21)
    ld_rhs = logdet(s1.full) + logdet(s2.full) + logdet(sl.full) - 2j * ld_d21inv.imag
    res_full = np.abs(np.exp(ld_lhs) - np.exp(ld_rhs))
    return batch_free(np.maximum(res_mid, res_full))


def eigenphases(s):
    """Sorted principal eigenphases (..., n) of a unitary matrix or stack,
    from one stacked ``eigvals``; NotUnitary unless each matrix is unitary."""
    full = s.full if isinstance(s, ScatteringMatrix) else as_complex_matrix(s)
    blockmat.require_unitary(full, name="S")
    return np.sort(np.angle(np.linalg.eigvals(full)), axis=-1)


def matched_phase_increment(phases_a, phases_b):
    """Continuity-preserving increment of the phase shift between two
    nearby unitary matrices, from their sorted eigenphases (``eigenphases``).

    The eigenphases of b are matched to those of a over all cyclic
    alignments (allowing a +-2 pi wrap) by minimizing the largest single-phase
    jump; stacks match member by member. Returns (delta_phase_shift, max_single_jump).
    """
    pa, pb = np.asarray(phases_a), np.asarray(phases_b)
    n = pa.shape[-1]
    ext = np.concatenate([pb - 2 * np.pi, pb, pb + 2 * np.pi], axis=-1)
    # all 2n + 1 windows of n consecutive phases: (..., 2n + 1, n)
    diffs = ext[..., np.arange(2 * n + 1)[:, None] + np.arange(n)] - pa[..., None, :]
    worst = np.max(np.abs(diffs), axis=-1)
    best = np.argmin(worst, axis=-1)[..., None]
    delta = 0.5 * np.take_along_axis(np.sum(diffs, axis=-1), best, axis=-1)[..., 0]
    jump = np.take_along_axis(worst, best, axis=-1)[..., 0]
    return batch_free(delta), batch_free(jump)


def dos_change(sampler, omega, h):
    """Change of the density of states: (1/pi) d(phase shift)/d omega.

    Central difference over [omega - h, omega + h] with eigenphase
    continuity enforced by nearest-branch matching between the two samples.

    Parameters
    ----------
    sampler : callable
        omega -> unitary ScatteringMatrix (or plain unitary matrix), a stack
        for an array of frequencies.
    omega, h : float (omega also an array)
        Evaluation frequency and half step, rad/s.

    Raises
    ------
    BranchJump
        If an eigenphase moves by pi/2 or more between the two samples
        (halve h and retry).
    """
    delta, worst = matched_phase_increment(
        eigenphases(sampler(omega - h)), eigenphases(sampler(omega + h))
    )
    if np.max(worst) >= np.pi / 2:
        raise BranchJump(
            f"eigenphase moved by {np.max(worst):.3f} rad over 2h"
            f"{worst_member(worst)}; reduce the step"
        )
    return batch_free(delta / (2 * h) / np.pi)
