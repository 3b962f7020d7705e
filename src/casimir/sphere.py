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
        if self.R1 <= 0 or self.R2 <= 0:
            raise DomainError("radii must be > 0")
        if self.L <= self.R1 + self.R2:
            raise DomainError("spheres must not overlap: L > R1 + R2")
        if self.medium != VACUUM:
            raise DomainError("only a vacuum medium is supported for spheres")
        if self.lmax is not None and self.lmax < 1:
            raise DomainError("lmax must be >= 1")

    @property
    def gap(self):
        return self.L - self.R1 - self.R2

    def default_lmax(self):
        return max(5, int(np.ceil(10.0 * max(self.R1, self.R2) / self.gap)))


# Bytes of one (j3, rows) work array of the 3j recurrence, and of one slice
# of l' rows while a coefficient block is built: bounds the memory a build
# needs beyond the block itself.
_W3J_CHUNK_BYTES = 1 << 19


def wigner3j(j1, j2, j3, m1, m2, m3):
    """Wigner 3j symbol (j1 j2 j3; m1 m2 m3) for integer arguments.

    With integer arguments, returns a float, 0.0 wherever a selection rule
    fails. With ``j3=None`` it returns the symbols for every j3 at once:
    j1, j2, m1, m2 and m3 broadcast like numpy arrays to a shape S, and the
    result has shape S + (max(j1 + j2) + 1,), its entry [..., j3] holding
    (j1 j2 j3; m1 m2 m3) (zero outside each triangle).

    (j1 j2 j3; 0 0 0) comes from its closed form (``_wigner3j_zero_m``).
    Every other row comes from the three-term recurrence in j3 of Schulten
    & Gordon (J. Math. Phys. 16, 1961 (1975)), run over all rows at once as
    in Luscombe & Luban (Phys. Rev. E 57, 7274 (1998)); see
    ``_wigner3j_rows``. Measured against sympy's exact symbols: within
    1.3e-16 absolute for j <= 40, 5.2e-16 relative for (60 60 60; 0 0 0)
    and 3e-15 relative for the tiny (50 50 100; 50 -50 0) = 2.3e-31; the
    orthogonality defect |sum_j3 (2 j3 + 1) (j j j3; m -m 0)^2 - 1| is at
    most 6.7e-16 up to j = 200 and 2e-15 at j = 300 (m = 0, 1, j/3, j/2,
    j - 1, j).
    """
    if j3 is not None:
        table = wigner3j(j1, j2, None, m1, m2, m3)
        out = table[..., j3] if 0 <= j3 < table.shape[-1] else np.zeros(table.shape[:-1])
        return float(out) if out.ndim == 0 else out
    j1, j2, m1, m2, m3 = np.broadcast_arrays(
        *(np.asarray(a, dtype=np.int64) for a in (j1, j2, m1, m2, m3)))
    nj3 = int(np.max(j1 + j2, initial=0)) + 1
    ok = (j1 >= 0) & (j2 >= 0) & (abs(m1) <= j1) & (abs(m2) <= j2) & (m1 + m2 + m3 == 0)
    if not (m1.any() or m2.any() or m3.any()):
        out = _wigner3j_zero_m(np.where(ok, j1, 0), np.where(ok, j2, 0), nj3)
        if not ok.all():
            out *= ok[..., None]
        return out
    shape = j1.shape
    j1, j2, m1, m2, ok = (a.ravel() for a in (j1, j2, m1, m2, ok))
    out = np.zeros((j1.size, nj3))
    rows = np.flatnonzero(ok)
    # rows per recurrence call, so that one (j3, rows) work array stays
    # within _W3J_CHUNK_BYTES
    step = max(1, _W3J_CHUNK_BYTES // (8 * nj3))
    for start in range(0, rows.size, step):
        r = rows[start:start + step]
        out[r] = _wigner3j_rows(j1[r], j2[r], m1[r], m2[r], nj3).T
    return out.reshape(shape + (nj3,))


def _wigner3j_zero_m(j1, j2, nj3):
    """(j1 j2 j3; 0 0 0) for j3 = 0 .. nj3 - 1 along a new last axis.

    Closed form: for even j1 + j2 + j3 = 2g inside the triangle,
    (-1)^g sqrt(h(g - j1) h(g - j2) h(g - j3) / ((2g + 1) h(g))) with
    h(k) = binom(2k, k) / 4^k = prod_{i <= k} (2i - 1) / (2i), a product of
    factors below one that neither overflows nor cancels. With
    a(x) = sqrt(h(x / 2)) for even x >= 0 (0 for odd or negative x) the
    symbol is a(d + j3) a(j3 - d) * a(s - j3) b(s + j3), d = j2 - j1,
    s = j1 + j2: one small table in (d, j3) times one in (s, j3).
    """
    j3 = np.arange(nj3)
    k = np.arange(1, nj3 + 1)
    h = np.concatenate([[1.0], np.cumprod((2 * k - 1) / (2 * k))])  # k = 0 .. nj3
    x = np.arange(2 * nj3 + 1)
    even = x % 2 == 0
    # the appended 0 is a(-1), where every negative argument is clipped
    a = np.append(np.where(even, np.sqrt(h[x // 2]), 0.0), 0.0)
    b = np.where(even, (-1.0) ** (x // 2) / np.sqrt((x + 1) * h[x // 2]), 0.0)
    d = np.arange(int(np.min(j2 - j1, initial=0)), int(np.max(j2 - j1, initial=0)) + 1)[:, None]
    s = np.arange(int(np.min(j1 + j2, initial=0)), nj3)[:, None]
    by_d = a[np.maximum(d + j3, -1)] * a[np.maximum(j3 - d, -1)]
    by_s = a[np.maximum(s - j3, -1)] * b[s + j3]
    out = by_d[j2 - j1 - d[0, 0]]
    out *= by_s[j1 + j2 - s[0, 0]]
    return out


def _wigner3j_rows(j1, j2, m1, m2, nj3):
    """(j1 j2 j3; m1 m2 -m1-m2) for j3 = 0 .. nj3 - 1 (axis 0) and the rows
    given by the 1-d arrays j1, j2, m1, m2 (axis 1); needs |m1| <= j1,
    |m2| <= j2 and nj3 > max(j1 + j2).

    Schulten-Gordon's recurrence, divided by j3 (j3 + 1):

        alpha(j3 + 1) f(j3 + 1) + beta(j3) f(j3) + alpha(j3) f(j3 - 1) = 0

    with alpha vanishing at the triangle ends j3 = lo and j3 = hi + 1. In
    this form it stays regular at j3 = 0, the start of the rows
    (j j j3; m -m 0), where the undivided one reads 0 = 0. Each row runs
    forward from lo and backward from hi, each in the direction in which
    the solution grows, up to a meeting point inside the classically
    allowed region (where beta^2 / (alpha alpha) is smallest), is matched
    there by least squares over two points, normalised by
    sum_j3 (2 j3 + 1) f^2 = 1 and signed by sign f(hi) = (-1)^(j1-j2-m3).
    """
    m3 = -(m1 + m2)
    lo = np.maximum(abs(j1 - j2), abs(m3))
    hi = j1 + j2
    nrow = j1.size
    cols = np.arange(nrow)
    # alpha, beta on j3 = -1 .. nj3 + 1: index i holds j3 = i - 1
    j = np.arange(-1.0, nj3 + 2)[:, None]
    jj = j * j
    alpha = np.sqrt(np.maximum(
        (jj - (j1 - j2) ** 2) * ((hi + 1) ** 2 - jj) * (jj - m3 * m3), 0.0))
    alpha /= np.maximum(abs(j), 1.0)
    beta = (2 * j + 1) * ((m2 - m1) - m3 * (j1 * (j1 + 1) - j2 * (j2 + 1))
                          / np.maximum(jj + j, 1.0))
    a_prev, a_here, a_next, a_next2 = (alpha[i:i + nj3] for i in range(4))
    b_prev, b_here, b_next = (beta[i:i + nj3] for i in range(3))
    jr = j[1:nj3 + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = b_here**2 / (a_here * a_next)
    ratio[(jr <= lo) | (jr >= hi)] = np.inf
    mid = np.where(hi - lo > 1, ratio.argmin(axis=0), lo)
    # forward f(j3) = -p f(j3-1) - q f(j3-2) for lo < j3 <= mid + 1 in
    # columns :nrow; backward g(j3) = -p g(j3+1) - q g(j3+2) for
    # mid <= j3 < hi in columns nrow:, stored in reversed j3 order so that
    # both run in one loop
    fwd = (jr > lo) & (jr <= np.minimum(mid + 1, hi))
    bwd = (jr >= mid) & (jr < hi)
    p, q = np.zeros((2, nj3, 2 * nrow))
    np.divide(b_prev, a_here, out=p[:, :nrow], where=fwd)
    np.divide(a_prev, a_here, out=q[:, :nrow], where=fwd)
    np.divide(b_next, a_next, out=p[::-1, nrow:], where=bwd)
    np.divide(a_next2, a_next, out=q[::-1, nrow:], where=bwd)
    # rows 0, 1 and nj3 + 2 are zero padding; fg[2 + i] holds step i
    fg = np.zeros((nj3 + 3, 2 * nrow))
    fg[2 + lo, cols] = 1.0
    fg[2 + (nj3 - 1 - hi), nrow + cols] = 1.0
    t = np.empty(2 * nrow)
    for i in range(nj3):
        row = fg[i + 2]
        np.multiply(p[i], fg[i + 1], out=t)
        row -= t
        np.multiply(q[i], fg[i], out=t)
        row -= t
        if i % 8 == 7:
            big = np.abs(row) > 1e200
            if big.any():
                fg[:i + 3, big] *= 1e-200
    fg /= np.abs(fg).max(axis=0)
    f = fg[2:nj3 + 2, :nrow]
    g = fg[nj3 + 1:0:-1, nrow:]  # g[i] holds j3 = i, for i = 0 .. nj3
    f0, f1, g0, g1 = f[mid, cols], fg[mid + 3, cols], g[mid, cols], g[mid + 1, cols]
    c = (f0 * g0 + f1 * g1) / (g0 * g0 + g1 * g1)
    out = np.where(jr <= mid, f, c * g[:nj3])
    norm = np.sqrt(np.sum((2 * jr + 1) * out * out, axis=0))
    sign = np.where(hi > mid, np.sign(c), 1.0) * np.where((j1 - j2 - m3) % 2, -1.0, 1.0)
    out *= sign / norm
    return out


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
    mixing block vanishes at m = 0.
    """
    m = abs(m)
    lmin = max(1, m)
    if lmin > lmax:
        raise DomainError("|m| must not exceed lmax")
    ls = np.arange(lmin, lmax + 1)
    n = ls.size
    nlam = 2 * lmax + 2
    lam = np.arange(nlam)
    # (l l' lam; m -m 0) is symmetric in l <-> l': one row per pair l <= l'
    iu, ju = np.triu_indices(n)
    tm = wigner3j(ls[iu], ls[ju], None, m, -m, 0)
    cC = np.zeros((n, n, nlam))
    cC[iu, ju, :-1] = cC[ju, iu, :-1] = tm
    del tm
    ratio = (2 * ls + 1) / (ls * (ls + 1.0))
    cC *= (np.where((ls + m) % 2, -1.0, 1.0) * np.sqrt(ratio[:, None] * ratio) / np.pi)[..., None]
    cC *= 2 * lam + 1
    # rows l' in slices of at most _W3J_CHUNK_BYTES, so that no third
    # (n, n, nlam) array is needed next to cA and cC
    cA = np.zeros_like(cC)
    step = max(1, _W3J_CHUNK_BYTES // (8 * n * nlam))
    for i in range(0, n, step):
        r = slice(i, i + step)
        lp = ls[r, None, None]
        t0 = wigner3j(ls, lp[..., 0], None, 0, 0, 0)  # (l l' lam; 0 0 0), lam < k
        k = t0.shape[-1]
        np.multiply(cC[r, :, :k], t0, out=cA[r, :, :k])
        cA[r] *= (ls * (ls + 1))[:, None] + lp * (lp + 1) - lam * (lam + 1)
        cC[r, :, 1:k + 1] *= t0  # (l l' lam-1; 0 0 0); lam = 0 has a zero root
        cC[r] *= np.sqrt(np.maximum(
            (lam**2 - (ls[:, None] - lp) ** 2) * ((ls[:, None] + lp + 1) ** 2 - lam**2), 0))
    return lmin, cA, cC


# Blocks whose two tensors take at most _CACHE_BLOCK_BYTES stay cached, at
# most 32 of them (16 MB); a larger one is rebuilt on every pass.
_CACHE_BLOCK_BYTES = 1 << 19
_axial_coeff_tensors = lru_cache(maxsize=32)(_build_axial_coeffs)


def _axial_coeffs(lmax, m):
    """(l_min, cA, cC) of the m-block at truncation lmax (see
    ``_build_axial_coeffs``), from ``_axial_coeff_tensors``'s cache when the
    block is small enough to keep.

    All m-blocks at lmax 24 take 4.4 MB and every one of them is kept; all
    blocks at lmax 50 would take 74 MB and only those with n <= 17 are
    kept (2.9 MB). A rebuild costs O(n^2 lmax), a quadrature pass over the
    block O(nodes n^3).
    """
    n = lmax - max(1, abs(m)) + 1
    if 16 * n * n * (2 * lmax + 2) <= _CACHE_BLOCK_BYTES:
        return _axial_coeff_tensors(lmax, m)
    return _build_axial_coeffs(lmax, m)


def _contract(coeff, sk):
    """sum_lam coeff[l', l, lam] sk[node, lam] as a (nodes, n, n) stack.

    Calls BLAS dgemm for any number of nodes (numpy's matmul takes gemv for
    a single one), so a node's sums are the same bits whichever nodes share
    its slice."""
    n = coeff.shape[0]
    flat = coeff.reshape(n * n, -1)
    return dgemm(1.0, flat.T, sk.T, trans_a=True).T.reshape(-1, n, n)


def _translation_blocks_scaled(lmax, m, w):
    """(A, C) blocks of the +z translation with the e^w scaling factored
    out (entries are Sum c_lam sk_lam(w), sk = e^w k)."""
    lmin, cA, cC = _axial_coeffs(lmax, abs(m))
    sk = sk_array(2 * lmax + 1, w)[None]
    return lmin, _contract(cA, sk)[0], _contract(cC, sk)[0]


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
    total = np.zeros(nodes.size)
    for m in range(0, lmax + 1):
        lmin, cA, cC = _axial_coeffs(lmax, m)
        n = lmax - lmin + 1
        flip = _reverse_signs(lmin, lmax)
        r1 = np.concatenate([a1[:, lmin - 1:], b1[:, lmin - 1:]], axis=1)
        r2 = np.concatenate([a2[:, lmin - 1:], b2[:, lmin - 1:]], axis=1)
        step = max(1, _STACK_BYTES // (8 * (2 * n) ** 2))
        weight = 1.0 if m == 0 else 2.0
        for lo in range(0, nodes.size, step):
            sl = slice(lo, lo + step)
            a12, c12 = _contract(cA, sk[sl]), _contract(cC, sk[sl])
            t12 = np.empty((len(a12), 2 * n, 2 * n))
            t12[:, :n, :n] = t12[:, n:, n:] = a12
            t12[:, :n, n:] = t12[:, n:, :n] = c12
            # M = R1 T12 R2 T21, with T21 the reverse translation of T12
            t21 = t12 * flip
            t21 *= r2[sl, :, None]
            t12 *= r1[sl, :, None]
            mm = t12 @ t21
            mm *= damp[sl, None, None]
            total[sl] += weight * log_det_one_minus(mm).real
        # drop this m's block and stacks before the next block is built
        cA = cC = a12 = c12 = t12 = t21 = mm = None
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
