"""Sphere-sphere geometry in the multipole basis: reflection amplitudes of
a sphere at imaginary frequency and the axial translation matrices that
couple the two multipole expansions across the gap.

Basis and conventions
---------------------
Multipole waves are built on modified spherical Bessel functions (regular
i_l, outgoing k_l) with electric (N-type) and magnetic (M-type)
polarizations. Translation along the symmetry axis conserves the azimuthal
index m and couples orders l <-> l'; the translation matrix of one m-block
is real on the imaginary axis, with equal off-diagonal blocks mixing the
polarizations. Blocks for +m and -m differ only by the sign of that
mixing, a similarity that leaves every determinant unchanged, so this
module works with |m| throughout.

The sphere reflection amplitudes follow the convention in which the
electric dipole amplitude reduces to a_1 = (2/3) x^3 (eps-1)/(eps+2) as
x -> 0 (so a perfectly conducting sphere has static polarizabilities
alpha = R^3 and beta = -R^3/2). The translation normalization is fixed
against the dipole-limit interaction of two polarizable spheres; the
combination is what the dipole-asymptote energy test pins down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.blas import dgemm

from .core import (
    C_LIGHT,
    HBAR,
    QuadratureSpec,
    energy,
    integrate_semiinfinite,
    log_det_one_minus,
)
from .errors import DomainError
from .materials import MaterialModel, Medium, PerfectMirror, VACUUM, eps_imag_axis
from .spherical_bessel import riccati_si, riccati_sk, sk_array
from .wigner import wigner3j


@dataclass(frozen=True)
class SphereSystem:
    """Two spheres on the z axis, center-to-center distance L, in vacuum."""

    R1: float
    R2: float
    L: float
    mat1: MaterialModel
    mat2: MaterialModel
    medium: Medium = VACUUM
    lmax: int | None = None

    def __post_init__(self):
        if not (0 < self.R1 < math.inf and 0 < self.R2 < math.inf):
            raise DomainError(f"radii must be finite and > 0, got {self.R1!r}, {self.R2!r}")
        if not self.R1 + self.R2 < self.L < math.inf:
            raise DomainError(f"L must be finite and > R1 + R2 (no overlap), got {self.L!r}")
        if self.medium != VACUUM:
            raise DomainError("only a vacuum medium is supported for spheres")
        if self.lmax is not None and self.lmax < 1:
            raise DomainError("lmax must be >= 1")

    @property
    def gap(self):
        return self.L - self.R1 - self.R2

    def default_lmax(self):
        return max(5, int(np.ceil(10.0 * max(self.R1, self.R2) / self.gap)))


# Bytes of one array of pair coefficients while a block too large to cache
# is built (``_axial_sums``; four such arrays are alive at a time).
_PAIR_CHUNK_BYTES = 1 << 18


def _build_axial_coeffs(lmax, m):
    """lambda-expansion coefficients of the axial translation m-block.

    Returns (l_min, cA, cC): arrays of shape (n, n, 2*lmax + 2) such that

        A[l', l] = sum_lam cA[l', l, lam] k_lam(w)
        C[l', l] = sum_lam cC[l', l, lam] k_lam(w)

    where A couples equal polarizations and C mixes them. Coefficients
    include the (2/pi) radial normalization that makes the dipole limit
    reproduce the polarizability interaction:

        cA = N (2 lam + 1) (l l' lam; 0 0 0) (l l' lam; m -m 0)
             * (l (l+1) + l' (l'+1) - lam (lam+1))
        cC = N (2 lam + 1) (l l' lam-1; 0 0 0) (l l' lam; m -m 0)
             * sqrt((lam^2 - (l-l')^2) ((l+l'+1)^2 - lam^2))

    with N = (-1)^(l+m) sqrt((2l+1)(2l'+1) / (l(l+1) l'(l'+1))) / pi. The
    first 3j symbol confines cA to even l + l' + lam and cC to odd; the
    mixing block vanishes at m = 0. Apart from the sign of N both are
    symmetric in l <-> l', so c[l, l'] = (-1)^(l+l') c[l', l] (reciprocity):
    only the pairs l' <= l are computed (``_pair_coeffs``).
    """
    lmin, ls, iu, ju, parity = _pairs(lmax, m)
    n = ls.size
    pair_a, pair_c = _pair_coeffs(lmax, m, ls[iu], ls[ju])
    cA = np.empty((n, n, pair_a.shape[-1]))
    cC = np.empty_like(cA)
    for c, pair in ((cA, pair_a), (cC, pair_c)):
        c[iu, ju] = pair
        pair *= parity[:, None]
        c[ju, iu] = pair
    return lmin, cA, cC


def _pairs(lmax, m):
    """(l_min, ls, iu, ju, parity) of the m-block: its orders ls, the index
    pairs iu <= ju of its upper triangle and (-1)^(l + l') on each pair."""
    lmin = max(1, abs(m))
    if lmin > lmax:
        raise DomainError("|m| must not exceed lmax")
    ls = np.arange(lmin, lmax + 1)
    iu, ju = np.triu_indices(ls.size)
    return lmin, ls, iu, ju, np.where((iu + ju) % 2, -1.0, 1.0)


def _pair_coeffs(lmax, m, lp, l):
    """(cA[l', l], cC[l', l]) of ``_build_axial_coeffs`` for the pairs
    l' <= l given by the 1-d arrays lp and l: two (pairs, 2 lmax + 2)
    arrays."""
    m = abs(m)
    lam = np.arange(2 * lmax + 2)
    tm = wigner3j(lp, l, None, m, -m, 0)  # (l' l lam; m -m 0)
    t0 = tm if m == 0 else wigner3j(l, lp, None, 0, 0, 0)  # (l l' lam; 0 0 0)
    k = t0.shape[-1]
    ratio_p, ratio = ((2 * x + 1) / (x * (x + 1.0)) for x in (lp, l))
    cC = np.zeros((l.size, lam.size))
    cC[:, :k] = tm
    del tm
    cC *= (np.where((l + m) % 2, -1.0, 1.0) * np.sqrt(ratio_p * ratio) / np.pi)[:, None]
    cC *= 2 * lam + 1
    cA = np.zeros_like(cC)
    np.multiply(cC[:, :k], t0, out=cA[:, :k])
    cA *= (l * (l + 1) + lp * (lp + 1))[:, None] - lam * (lam + 1)
    cC[:, 1:k + 1] *= t0  # (l l' lam-1; 0 0 0); lam = 0 has a zero root
    lp, l = lp[:, None], l[:, None]
    cC *= np.sqrt(np.maximum((lam**2 - (l - lp) ** 2) * ((l + lp + 1) ** 2 - lam**2), 0))
    return cA, cC


# Blocks whose two tensors take at most _CACHE_BLOCK_BYTES stay cached, at
# most 32 of them (16 MB); a larger one is rebuilt on every pass.
_CACHE_BLOCK_BYTES = 1 << 19
_axial_coeff_tensors = lru_cache(maxsize=32)(_build_axial_coeffs)


def _axial_sums(lmax, m, sk, step):
    """The translation sums sum_lam c[l', l, lam] sk[node, lam] of the
    m-block at truncation lmax (c: ``_build_axial_coeffs``'s coefficients),
    for the rows of ``sk``: yields (node slice, A, C) for consecutive slices
    of ``step`` nodes, A and C as (nodes, n, n) stacks.

    A block whose two tensors fit ``_CACHE_BLOCK_BYTES`` comes from
    ``_axial_coeff_tensors``'s cache: all m-blocks at lmax 24 take 4.4 MB
    and every one of them is kept; at lmax 50 only those with n <= 17 are
    kept (2.9 MB). A larger block is never held whole: its coefficients are
    built for a few pairs l' <= l at a time, at most _PAIR_CHUNK_BYTES per
    array, and each such chunk is contracted with all rows of ``sk`` at
    once. The block then takes 8 nodes n (n + 1) bytes instead of the
    tensors' 16 n^2 (2 lmax + 2), and a rebuild costs O(n^2 lmax) against
    a quadrature pass's O(nodes n^3).
    """
    m = abs(m)
    n = lmax - max(1, m) + 1
    nlam = 2 * lmax + 2
    slices = [slice(lo, lo + step) for lo in range(0, len(sk), step)]
    if 16 * n * n * nlam <= _CACHE_BLOCK_BYTES:
        _, cA, cC = _axial_coeff_tensors(lmax, m)
        for sl in slices:
            yield sl, _contract(cA, sk[sl]), _contract(cC, sk[sl])
        return
    _, ls, iu, ju, parity = _pairs(lmax, m)
    sums = np.empty((2, len(sk), iu.size))
    chunk = max(1, _PAIR_CHUNK_BYTES // (8 * nlam))
    for lo in range(0, iu.size, chunk):
        pairs = slice(lo, lo + chunk)
        for out, coeff in zip(sums, _pair_coeffs(lmax, m, ls[iu[pairs]], ls[ju[pairs]])):
            out[:, pairs] = _contract(coeff, sk)
    for sl in slices:
        a, c = np.empty((2, len(sk[sl]), n, n))
        for block, pair in ((a, sums[0, sl]), (c, sums[1, sl])):
            block[:, iu, ju] = pair
            block[:, ju, iu] = pair * parity
        yield sl, a, c


def _contract(coeff, sk):
    """sum_lam coeff[..., lam] sk[node, lam] as a (nodes, ...) array.

    Calls BLAS dgemm for any number of nodes (numpy's matmul takes gemv for
    a single one), so a node's sums are the same bits whichever nodes share
    its call."""
    flat = coeff.reshape(-1, coeff.shape[-1])
    return dgemm(1.0, flat.T, sk.T, trans_a=True).T.reshape((-1,) + coeff.shape[:-1])


def _translation_blocks_scaled(lmax, m, w):
    """(A, C) blocks of the +z translation with the e^w scaling factored
    out (entries are Sum c_lam sk_lam(w), sk = e^w k)."""
    _, a, c = next(_axial_sums(lmax, m, sk_array(2 * lmax + 1, w)[None], 1))
    return max(1, abs(m)), a[0], c[0]


def translation_block(lmax, m, xi, L, direction=+1):
    """One m-block of the multipole translation matrix over distance L.

    Couples (l', pol') <- (l, pol) with l, l' in [max(1, |m|), lmax], block
    layout [E..., M...]. Real-valued on the imaginary axis; entries decay
    like e^{-xi L / c}. ``direction=-1`` gives the reverse translation,
    whose same-polarization entries pick up (-1)^(l+l') and whose
    polarization-mixing entries pick up -(-1)^(l+l').

    The block depends on m only through |m| (the sign of m flips the
    mixing blocks, a similarity that no determinant ever sees).
    """
    if L <= 0:
        raise DomainError("translation distance must be > 0")
    if xi <= 0:
        raise DomainError("imaginary frequency must be > 0")
    if abs(m) > lmax:
        raise DomainError("|m| must not exceed lmax")
    w = xi * L / C_LIGHT
    lmin, a, c = _translation_blocks_scaled(lmax, m, w)
    block = np.block([[a, c], [c, a]]) * np.exp(-w)
    return block * _reverse_signs(lmin, lmax) if direction < 0 else block


def _reverse_signs(lmin, lmax):
    """Signs that turn a +z translation block into the -z one:
    (-1)^(l+l') on the same-polarization blocks, -(-1)^(l+l') on the
    polarization-mixing ones."""
    ls = np.arange(lmin, lmax + 1)
    par = (-1.0) ** (ls[:, None] + ls[None, :])
    return np.block([[par, -par], [-par, par]])


def _mie_scaled(mat, R, xi, lmax, events=None):
    """Scaled reflection amplitudes (a_l e^{-2x}, b_l e^{-2x}) for
    l = 1..lmax at imaginary frequency xi (a scalar or an array of nodes;
    l runs along the last axis). Non-finite amplitudes are set to 0 and
    counted in ``events["mie_zeroed"]`` when ``events`` is given."""
    xi = np.asarray(xi, dtype=float)
    x = xi * R / C_LIGHT
    sign = (-1.0) ** np.arange(lmax + 1) * (np.pi / 2.0)
    # at tiny x the outgoing functions overflow; quotients with an inf or
    # nan are zeroed (and counted) below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ss_x, sds_x = riccati_si(lmax, x)
        sc_x, sdc_x = riccati_sk(lmax, x)
        if isinstance(mat, PerfectMirror):
            a = sign * sds_x / sdc_x
            b = sign * ss_x / sc_x
            return a[..., 1:], b[..., 1:]
        nref = np.sqrt(eps_imag_axis(mat, xi))
        ss_n, sds_n = riccati_si(lmax, nref * x)
        nref = np.asarray(nref)[..., None]
        num_a = nref * ss_n * sds_x - ss_x * sds_n
        den_a = nref * ss_n * sdc_x - sc_x * sds_n
        num_b = ss_n * sds_x - nref * ss_x * sds_n
        den_b = ss_n * sdc_x - nref * sc_x * sds_n
        a = (sign * num_a / den_a)[..., 1:]
        b = (sign * num_b / den_b)[..., 1:]
    bad_a, bad_b = ~np.isfinite(a), ~np.isfinite(b)
    a[bad_a] = 0.0
    b[bad_b] = 0.0
    if events is not None:
        events["mie_zeroed"] += int(bad_a.sum() + bad_b.sum())
    # the scaled numerator carries e^{(n+1)x}, the denominator e^{(n-1)x};
    # the ratio of scaled arrays is therefore exactly a_l e^{-2x}
    return a, b


def mie_amplitudes(mat, R, xi, l):
    """Sphere reflection amplitudes (a_l, b_l) at imaginary frequency.

    Real-valued; built from modified spherical Bessel functions of
    arguments x = xi R / c and n(i xi) x. The electric amplitude satisfies
    a_1 -> (2/3) x^3 (eps - 1)/(eps + 2) as x -> 0. Note the raw values
    grow like e^{2x}; the energy code uses internally scaled versions.
    """
    if l < 1:
        raise DomainError("multipole order must be >= 1")
    if xi <= 0:
        raise DomainError("imaginary frequency must be > 0")
    if R <= 0:
        raise DomainError("radius must be > 0")
    a, b = _mie_scaled(mat, R, xi, l)
    x = xi * R / C_LIGHT
    grow = np.exp(2.0 * x)
    return float(a[l - 1] * grow), float(b[l - 1] * grow)


def _safe_w_floor(lmax):
    """Smallest w for which sk_lam(w) stays below ~1e280 for lam <= 2 lmax + 1.

    Below this the integrand is flat (static limit) and w is clamped; the
    clamped region carries a vanishing share of the integral.
    """
    lam = 2 * lmax + 1
    ln_dfact = math.lgamma(2 * lam) - math.lgamma(lam + 1) - (lam - 1) * math.log(2.0)
    return math.exp((ln_dfact - 280.0 * math.log(10.0)) / (lam + 1))


# Bytes allowed for one stacked (nodes, 2n, 2n) float64 round trip; the
# nodes of a quadrature pass are split into slices that fit.
_STACK_BYTES = 1 << 19


def _round_trip_logdet_sum(sys: SphereSystem, xi, lmax, events=None):
    """sum over m of log det(1 - M_m(i xi)) at truncation lmax.

    ``xi`` is one frequency (returns a float) or an array of nodes (returns
    an array). All nodes share the Mie amplitudes and translation sums of
    one vectorised call; per m the round trips of a slice of nodes are
    built as one (nodes, 2n, 2n) stack and go through one stacked log det.
    When ``events`` (a Counter) is given, it counts the nodes raised to the
    small-w floor ("xi_clamped") and the zeroed Mie amplitudes
    ("mie_zeroed").
    """
    xi = np.asarray(xi, dtype=float)
    nodes = np.atleast_1d(xi)
    w_floor = _safe_w_floor(lmax)
    w = nodes * sys.L / C_LIGHT
    clamped = w < w_floor
    nodes = np.where(clamped, w_floor * C_LIGHT / sys.L, nodes)
    w = np.where(clamped, w_floor, w)
    if events is not None:
        events["xi_clamped"] += int(clamped.sum())
    x1 = nodes * sys.R1 / C_LIGHT
    x2 = nodes * sys.R2 / C_LIGHT
    a1, b1 = _mie_scaled(sys.mat1, sys.R1, nodes, lmax, events)
    a2, b2 = _mie_scaled(sys.mat2, sys.R2, nodes, lmax, events)
    # common exponential: Mie e^{2x} growth against translation e^{-w} decay
    damp = np.exp(2.0 * (x1 + x2 - w))
    sk = sk_array(2 * lmax + 1, w)
    root_damp = np.sqrt(damp)[:, None]
    total = np.zeros(nodes.size)
    for m in range(0, lmax + 1):
        lmin = max(1, m)
        n = lmax - lmin + 1
        # M = R1 T12 R2 T21 with T21 = D T12^T D, D = diag(1_E, -1_M), is
        # similar to N = diag(s_q) G diag(s_p) G^T, where q = D r1 and
        # p = D r2 have the signs s_q, s_p and G = sqrt(damp |q|) T12
        # sqrt(|p|) is well scaled, where M's entries reach 9e99
        q = np.concatenate([a1[:, lmin - 1:], -b1[:, lmin - 1:]], axis=1)
        p = np.concatenate([a2[:, lmin - 1:], -b2[:, lmin - 1:]], axis=1)
        row, col = root_damp * np.sqrt(np.abs(q)), np.sqrt(np.abs(p))
        step = max(1, _STACK_BYTES // (8 * (2 * n) ** 2))
        weight = 1.0 if m == 0 else 2.0
        for sl, a12, c12 in _axial_sums(lmax, m, sk, step):
            g = np.empty((len(a12), 2 * n, 2 * n))
            g[:, :n, :n] = g[:, n:, n:] = a12
            g[:, :n, n:] = g[:, n:, :n] = c12
            g *= row[sl, :, None]
            g *= col[sl, None, :]
            nn = (g * np.sign(p[sl, None, :])) @ g.transpose(0, 2, 1)
            nn *= np.sign(q[sl, :, None])
            total[sl] += weight * log_det_one_minus(nn).real
            # drop this slice's stacks before the next slice is built
            a12 = c12 = g = nn = None
    return float(total[0]) if xi.ndim == 0 else total


def sphere_energy(
    sys: SphereSystem,
    quad: QuadratureSpec = QuadratureSpec(base_order=32, tol=1e-6),
    lmax_tol=1e-3,
    max_lmax_doublings=3,
    adaptive_lmax=True,
):
    """Casimir interaction energy of two spheres, imaginary-axis evaluation:

    E = hbar/(2 pi) int_0^inf dxi sum_m log det(1 - M_m(i xi))

    with the round trip M_m = R1 T12 R2 T21 built from the Mie blocks and
    the axial translation blocks truncated at lmax, and xi = c/(2 gap)
    u/(1-u). The truncation order starts at ``sys.lmax`` (or the gap-based
    default) and doubles until the energy moves by less than ``lmax_tol``
    relative, unless ``adaptive_lmax`` is off.

    Returns and raises as ``core.energy``: value in J (negative for passive
    spheres); ``events`` counts, over the last quadrature pass, the nodes
    raised to the small-w floor (``xi_clamped``) and the non-finite Mie
    amplitudes set to zero (``mie_zeroed``).
    """
    prefactor = HBAR / (2.0 * np.pi)

    def integrate(lmax, events):
        def f(xi):
            events.clear()
            return prefactor * _round_trip_logdet_sum(sys, xi, lmax, events)

        return integrate_semiinfinite(f, quad, scale=C_LIGHT / (2.0 * sys.gap))

    return energy(
        integrate,
        lmax=sys.lmax if sys.lmax is not None else sys.default_lmax(),
        lmax_tol=lmax_tol,
        max_lmax_doublings=max_lmax_doublings if adaptive_lmax else None,
        geometry="sphere", axis="imaginary",
    )
