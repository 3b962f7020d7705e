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

The energy works in the i_l/k_l basis, where no parity factor appears:

- A sphere's amplitudes (``_mie_scaled``) keep one sign per polarization
  at every l. The polarizability-convention coefficients a_l, b_l, in
  which a_1 -> (2/3) x^3 (eps-1)/(eps+2) as x -> 0 (a perfectly conducting
  sphere has alpha = R^3 and beta = -R^3/2), belong to the j_l/h_l basis
  continued to k = i kappa. Since j_l(ix) = i^l i_l(x) and
  h_l(ix) = -(2/pi) i^-l k_l(x), the two differ by i^2l = (-1)^l, which
  ``mie_amplitudes`` alone applies.
- The translation m-block K (``_axial_sums``) is symmetric, and the round
  trip is M = R1 K R2 D K D with D = diag(1_E, -1_M).
- ``translation_block`` gives T12 = K diag((-1)^(l+m)), the field
  expansion that its projection oracle pins. The reverse translation is
  its parity image P T12 P, P = diag((-1)^l, -(-1)^l), which equals
  D T12^T D; the column sign cancels in R1 T12 R2 D T12^T D = M.

The translation normalization is fixed against the dipole-limit
interaction of two polarizable spheres.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    C_LIGHT,
    HBAR,
    QuadratureSpec,
    check_count,
    check_real,
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
        for radius in (self.R1, self.R2):
            check_real("radii", radius, 0, DomainError)
        check_real("L", self.L, self.R1 + self.R2, DomainError)
        if self.medium != VACUUM:
            raise DomainError("only a vacuum medium is supported for spheres")
        if self.lmax is not None:
            check_count("lmax", self.lmax, 1, DomainError)

    @property
    def gap(self):
        return self.L - self.R1 - self.R2

    def default_lmax(self):
        return max(5, int(np.ceil(10.0 * max(self.R1, self.R2) / self.gap)))


# Bytes of one array of pair coefficients while a block too large to cache
# is built (``_axial_sums``).
_PAIR_CHUNK_BYTES = 1 << 18
# Blocks whose pair coefficients take at most _CACHE_BLOCK_BYTES stay
# cached, at most 32 of them (8 MB); a larger one is rebuilt on every pass.
_CACHE_BLOCK_BYTES = 1 << 18


def _pairs(lmax, m):
    """(l', l, index) of the m-block: the orders of its pairs l' <= l as two
    1-d arrays, and for each entry [l', l] of the (n, n) block the index of
    its pair (the coefficients are symmetric, see ``_pair_coeffs``)."""
    lmin = max(1, abs(m))
    if lmin > lmax:
        raise DomainError("|m| must not exceed lmax")
    ls = np.arange(lmin, lmax + 1)
    iu, ju = np.triu_indices(ls.size)
    index = np.empty((ls.size, ls.size), dtype=np.intp)
    index[iu, ju] = index[ju, iu] = np.arange(iu.size)
    return ls[iu], ls[ju], index


def _pair_coeffs(lmax, m, lp, l):
    """lambda-expansion coefficients of the axial translation m-block for
    the pairs l' <= l given by the 1-d arrays lp and l, as one
    (pairs, 2 lmax + 2) array whose columns hold lam = 0, 2, .., 2 lmax
    and then lam = 1, 3, .., 2 lmax + 1; with c[l', l, lam] its entry for
    the pair (l', l) at lam,

        A[l', l] = sum_{lam = l + l' mod 2} c[l', l, lam] k_lam(w)
        C[l', l] = sum_{lam = l + l' + 1 mod 2} c[l', l, lam] k_lam(w)

    where A couples equal polarizations and C mixes them. Coefficients
    include the (2/pi) radial normalization that makes the dipole limit
    reproduce the polarizability interaction:

        cA = N (2 lam + 1) (l l' lam; 0 0 0) (l l' lam; m -m 0)
             * (l (l+1) + l' (l'+1) - lam (lam+1))
        cC = N (2 lam + 1) (l l' lam-1; 0 0 0) (l l' lam; m -m 0)
             * sqrt((lam^2 - (l-l')^2) ((l+l'+1)^2 - lam^2))

    with N = sqrt((2l+1)(2l'+1) / (l(l+1) l'(l'+1))) / pi. The first 3j
    symbol confines cA to even l + l' + lam and cC to odd, so the two share
    one array; the mixing block vanishes at m = 0. Both are symmetric in
    l <-> l', so the pairs l' <= l give the whole block, and both vanish
    outside the triangle l - l' <= lam <= l + l'.

    The 3j symbols and the factors are computed on that triangle only, at
    offsets k = lam - (l - l') = 0 .. 2 l', where cA sits at even k and cC
    at odd k with the same (0 0 0) symbol, (l l' l - l' + 2i; 0 0 0) at
    k = 2i and 2i + 1. ``_axial_sums`` passes the pairs in the order of
    ``_pairs``, whose l' rises, so the pairs of one call have triangles of
    similar width.
    """
    m = abs(m)
    tm = wigner3j(lp, l, None, m, -m, 0, band=True).T  # (l' l lam; m -m 0)
    t0 = tm if m == 0 else wigner3j(lp, l, None, 0, 0, 0, band=True).T
    width = tm.shape[0]
    d = l - lp
    # at k = 2i: lam = d + x with x = 2i, 2 lam + 1 = b + 2x with b = 2d + 1,
    # l (l+1) + l' (l'+1) - lam (lam+1) = 2 l' (l+1) - x (b + x); at
    # k = 2i + 1: lam = d + x + 1 and lam^2 - (l-l')^2 = (x + 1) (b + x),
    # (l+l'+1)^2 - lam^2 = (2 l' - x) (2 l + 2 + x)
    x = np.arange(0.0, width, 2)[:, None]
    b = 2.0 * d + 1
    bx = b + x
    twol = b + 2 * x
    nt = t0[::2] * (np.sqrt((2 * lp + 1) * (2 * l + 1) / (lp * (lp + 1.0) * l * (l + 1))) / np.pi)
    c = np.empty_like(tm)
    even = x * bx
    np.subtract(2.0 * lp * (l + 1), even, out=even)
    even *= twol
    even *= nt
    np.multiply(tm[::2], even, out=c[::2])
    if m:
        odd = width // 2
        x, bx, twol, nt = x[:odd], bx[:odd], twol[:odd], nt[:odd]
        root = 2.0 * lp - x
        # negative only past the triangle, where tm is zero
        np.abs(root, out=root)
        root *= x + 1
        root *= bx
        root *= 2.0 * l + 2 + x
        np.sqrt(root, out=root)
        twol += 2
        root *= twol
        root *= nt
        np.multiply(tm[1::2], root, out=c[1::2])
    else:
        c[1::2] = 0.0
    # write each pair's triangle into its row, the entries of k = 2i at
    # column start + i and those of k = 2i + 1 at column start' + i: even
    # lam at column lam // 2, odd lam at lmax + 1 + lam // 2. A row's run
    # that passes the end of its parity holds zeros; it lands in the row's
    # odd columns below the first one in use, or in the padding
    nlam = 2 * lmax + 2
    pad = max(0, (int(np.max(d, initial=0)) + width + 1) // 2 - lmax - 1)
    out = np.zeros((l.size, nlam + pad))
    row = np.arange(l.size) * (nlam + pad)
    i = np.arange((width + 1) // 2)[:, None]
    at = np.empty(c.shape, dtype=np.intp)
    for k0 in (0, 1):
        start = row + (d + k0) // 2 + (lmax + 1) * ((d + k0) % 2)
        np.add(start, i[:len(at[k0::2])], out=at[k0::2])
    out.reshape(-1)[at] = c
    return out[:, :nlam]


@lru_cache(maxsize=32)
def _axial_coeff_tensors(lmax, m):
    """(c, take): ``_pair_coeffs`` of every pair of the m-block and the
    block's ``_gather`` map, cached for a block that fits
    _CACHE_BLOCK_BYTES (see ``_axial_sums``)."""
    lp, l, index = _pairs(lmax, m)
    return _pair_coeffs(lmax, m, lp, l), _gather(index)


def _gather(index):
    """The (2n, 2n) map from the entries of one translation block
    [[A, C], [C, A]] to the pair sums [even lam | odd lam] of ``_axial_sums``
    (pairs of ``_pairs``'s ``index``): A[l', l] takes the sum of the
    parity of l + l', C[l', l] the other one."""
    n, pairs = len(index), int(index.max()) + 1
    odd = np.add.outer(np.arange(n), np.arange(n)) % 2 * pairs
    same, other = index + odd, index + (pairs - odd)
    return np.block([[same, other], [other, same]])


def _axial_sums(lmax, m, sk, step):
    """The translation blocks of the m-block at truncation lmax for the
    rows of ``sk`` (sk[node, lam] = k_lam(w) e^w): yields (node slice, K)
    for consecutive slices of ``step`` nodes, K the (nodes, 2n, 2n) stack
    of the blocks [[A, C], [C, A]] with A and C the sums of
    ``_pair_coeffs``'s coefficients. K is the caller's to scale in place.

    The sums are taken for the pairs l' <= l only, for all rows of ``sk``
    at once, one product for the even lam and one for the odd ones, and
    each slice's blocks are gathered from them in one ``np.take`` through
    the map of ``_gather``. A block whose pair coefficients fit
    _CACHE_BLOCK_BYTES comes with its map from ``_axial_coeff_tensors``'s
    cache: all m-blocks at lmax 24 take 1.3 MB and every one of them is
    kept; at lmax 50 only those with n <= 24 are kept (2.2 MB). A larger
    block is never held whole: its map is rebuilt on every pass, its
    coefficients are built for a few pairs at a time, at most
    _PAIR_CHUNK_BYTES, and each chunk is contracted as it is built. The
    block then takes 16 nodes n (n + 1) bytes instead of the
    coefficients' 4 n (n + 1) (2 lmax + 2), and a rebuild costs O(n^2 lmax)
    against a quadrature pass's O(nodes n^3).
    """
    m = abs(m)
    n = lmax - max(1, m) + 1
    nlam = 2 * lmax + 2
    npairs = n * (n + 1) // 2
    if 8 * npairs * nlam <= _CACHE_BLOCK_BYTES:
        coeffs, take = _axial_coeff_tensors(lmax, m)
        chunks = [(slice(None), coeffs)]
    else:
        lp, l, index = _pairs(lmax, m)
        take = _gather(index)
        size = max(1, _PAIR_CHUNK_BYTES // (8 * nlam))
        chunks = ((sl, _pair_coeffs(lmax, m, lp[sl], l[sl]))
                  for sl in (slice(lo, lo + size) for lo in range(0, npairs, size)))
    sums = np.empty((len(sk), 2 * npairs))
    sk_even, sk_odd = np.ascontiguousarray(sk[:, ::2]), np.ascontiguousarray(sk[:, 1::2])
    for pairs, coeff in chunks:
        np.matmul(sk_even, coeff[:, :lmax + 1].T, out=sums[:, :npairs][:, pairs])
        np.matmul(sk_odd, coeff[:, lmax + 1:].T, out=sums[:, npairs:][:, pairs])
    for lo in range(0, len(sk), step):
        sl = slice(lo, lo + step)
        part = sums[sl]
        yield sl, np.take(part, take, axis=1, out=np.empty((len(part), 2 * n, 2 * n)),
                          mode="clip")


def translation_block(lmax, m, xi, L):
    """One m-block T12 of the multipole translation matrix over distance L.

    Couples (l', pol') <- (l, pol) with l, l' in [max(1, |m|), lmax], block
    layout [E..., M...]. Real-valued on the imaginary axis; entries decay
    like e^{-xi L / c}. Column l carries the sign (-1)^(l+m) (see the module
    docstring); the reverse translation is D T12^T D.

    The block depends on m only through |m| (the sign of m flips the
    mixing blocks, a similarity that no determinant ever sees).

    Raises DomainError below w = xi L / c = ``_safe_w_floor(lmax)``, where
    the block's entries overflow.
    """
    check_real("translation distance", L, 0, DomainError)
    check_real("imaginary frequency", xi, 0, DomainError)
    w = xi * L / C_LIGHT
    if w < _safe_w_floor(lmax):
        raise DomainError(f"xi L / c = {w:.3e} is below {_safe_w_floor(lmax):.3e}, "
                          f"where the lmax {lmax} translation block overflows")
    _, k = next(_axial_sums(lmax, m, sk_array(2 * lmax + 1, w)[None], 1))
    col = (-1.0) ** (np.arange(max(1, abs(m)), lmax + 1) + m)
    return k[0] * (np.exp(-w) * np.tile(col, 2))


def _mie_scaled(mat, R, xi, lmax, events=None):
    """Scaled reflection amplitudes of the i_l/k_l basis, (-1)^l
    (a_l e^{-2x}, b_l e^{-2x}) in terms of ``mie_amplitudes``, for
    l = 1..lmax at imaginary frequency xi (a scalar or an array of nodes;
    l runs along the last axis). Non-finite amplitudes are set to 0 and
    counted in ``events["mie_zeroed"]`` when ``events`` is given."""
    xi = np.asarray(xi, dtype=float)
    x = xi * R / C_LIGHT
    # at tiny x the outgoing functions overflow; quotients with an inf or
    # nan are zeroed (and counted) below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ss_x, sds_x = riccati_si(lmax, x)
        sc_x, sdc_x = riccati_sk(lmax, x)
        if isinstance(mat, PerfectMirror):
            a = np.pi / 2 * sds_x / sdc_x
            b = np.pi / 2 * ss_x / sc_x
            return a[..., 1:], b[..., 1:]
        nref = np.sqrt(eps_imag_axis(mat, xi))
        ss_n, sds_n = riccati_si(lmax, nref * x)
        nref = np.asarray(nref)[..., None]
        num_a = nref * ss_n * sds_x - ss_x * sds_n
        den_a = nref * ss_n * sdc_x - sc_x * sds_n
        num_b = ss_n * sds_x - nref * ss_x * sds_n
        den_b = ss_n * sdc_x - nref * sc_x * sds_n
        a = (np.pi / 2 * num_a / den_a)[..., 1:]
        b = (np.pi / 2 * num_b / den_b)[..., 1:]
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
    a_1 -> (2/3) x^3 (eps - 1)/(eps + 2) as x -> 0; these are (-1)^l times
    the amplitudes of the i_l/k_l basis (see the module docstring). Note
    the raw values grow like e^{2x}; the energy code uses internally scaled
    versions.
    DomainError where they overflow (x beyond about 355), and at x so
    small that the order-l quotient is not finite or the regular Riccati
    function of order l at x rounds to zero (x = 1e-154 at l = 1, 1e-78
    at l = 3). Above that a value rounds to 0 only where the amplitude
    itself, of order x^(2l+1), is below the smallest double.
    """
    if l < 1:
        raise DomainError("multipole order must be >= 1")
    check_real("imaginary frequency", xi, 0, DomainError)
    check_real("radius", R, 0, DomainError)
    events = Counter()
    a, b = _mie_scaled(mat, R, xi, l, events)
    x = xi * R / C_LIGHT
    # a non-finite quotient of a lower order implies one at order l (the
    # outgoing functions grow and the regular ones shrink with l at small x)
    if events["mie_zeroed"] or not riccati_si(l, x)[0][l] >= np.finfo(float).tiny:
        raise DomainError(f"Mie amplitudes of order {l} underflow at x = xi R / c = {x:.3e}")
    with np.errstate(over="ignore", invalid="ignore"):
        ab = np.array([a[l - 1], b[l - 1]]) * ((-1.0) ** l * np.exp(2.0 * x))
    if not np.isfinite(ab).all():
        raise DomainError(f"Mie amplitudes of order {l} overflow at x = xi R / c = {x:.3e}")
    return float(ab[0]), float(ab[1])


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
# The m loop stops after a block that changed every node's sum by at most
# this fraction of it (Hartmann, Ingold & Maia Neto, Phys. Scr. 93, 114003
# (2018)); where the blocks shrink with m, those it leaves out add at most
# (lmax + 1) _M_CUT of the sum.
_M_CUT = 1e-17


def _round_trip_logdet_sum(sys: SphereSystem, xi, lmax, events=None, nested=None):
    """sum over m of log det(1 - M_m(i xi)) at truncation lmax.

    ``xi`` is one frequency (returns a float) or an array of nodes (returns
    an array). All nodes share the Mie amplitudes and translation sums of
    one vectorised call; per m the round trips of a slice of nodes are
    built as one (nodes, 2n, 2n) stack and go through one stacked log det.
    When ``events`` (a Counter) is given, it counts the nodes raised to the
    small-w floor ("xi_clamped") and the zeroed Mie amplitudes
    ("mie_zeroed").

    With ``nested`` = lmax' < lmax it returns a pair: the sums at lmax and
    those at lmax', taken from the rows and columns l <= lmax' (both
    polarizations) of the same G. On nodes above the small-w floor of lmax
    they equal this function at lmax', because the pair coefficients depend
    only on (l, l', lam, m) and the Mie amplitudes only on l; lmax' = 0
    gives zeros.

    The m loop stops after the first block that changed every node's sum,
    and its sum at lmax', by at most ``_M_CUT`` of that sum; the blocks
    past it build nothing. Where the blocks shrink with m, as they do
    beyond the few that carry a sum, those left out add at most
    (lmax + 1) ``_M_CUT`` of each sum, which ``sphere_energy`` adds to its
    error.
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
    zeroed = Counter()
    a1, b1 = _mie_scaled(sys.mat1, sys.R1, nodes, lmax, zeroed)
    if (sys.mat2, sys.R2) == (sys.mat1, sys.R1):
        # equal spheres share their amplitudes; both count their zeros
        (a2, b2), zeroed = (a1, b1), zeroed + zeroed
    else:
        a2, b2 = _mie_scaled(sys.mat2, sys.R2, nodes, lmax, zeroed)
    if events is not None:
        events.update(zeroed)
    # common exponential: Mie e^{2x} growth against translation e^{-w} decay
    damp = np.exp(2.0 * (x1 + x2 - w))
    sk = sk_array(2 * lmax + 1, w)
    # M = R1 K R2 D K D, D = diag(1_E, -1_M), takes no parity factor:
    # (-1)^l lives in mie_amplitudes and (-1)^(l+m) in translation_block
    # (module docstring). With q = D r1 <= 0 and p = D r2 <= 0, M is
    # similar to N = G G^T, G = sqrt(damp |q|) K sqrt(|p|), which is well
    # scaled where M's entries reach 9e99. Every accepted sphere has exact
    # q <= 0; a positive computed amplitude is rounding left by the
    # cancelling numerator of a nearly vacuum sphere, below 1e-10 of the
    # perfect mirror's (tests/test_sphere_properties.py), and is clamped to
    # 0, which is closer to the exact value.
    # sqrt(max(-p, 0)) and sqrt(max(-q, 0)); q = p for equal spheres
    cols = np.sqrt(np.maximum(np.concatenate([-a2, b2], axis=1), 0.0))
    rows = cols if a1 is a2 else np.sqrt(np.maximum(np.concatenate([-a1, b1], axis=1), 0.0))
    rows = np.sqrt(damp)[:, None] * rows
    total = np.zeros(nodes.size)
    sub_total = np.zeros(nodes.size)
    for m in range(0, lmax + 1):
        lmin = max(1, m)
        n = lmax - lmin + 1
        # the block's multipoles l >= lmin of each polarization, and of
        # those the k with l <= lmax'
        block = np.r_[lmin - 1:lmax, lmax + lmin - 1:2 * lmax]
        k = 0 if nested is None else max(0, nested - lmin + 1)
        row, col = rows[:, block], cols[:, block]
        step = max(1, _STACK_BYTES // (8 * (2 * n) ** 2))
        weight = 1.0 if m == 0 else 2.0
        change, sub_change = np.zeros(nodes.size), np.zeros(nodes.size)
        for sl, g in _axial_sums(lmax, m, sk, step):
            g *= row[sl, :, None]
            g *= col[sl, None, :]
            change[sl] = weight * log_det_one_minus(g)
            if k:
                gk = g.reshape(-1, 2, n, 2, n)[:, :, :k, :, :k].reshape(-1, 2 * k, 2 * k)
                sub_change[sl] = weight * log_det_one_minus(gk)
            # drop this slice's stacks before the next slice is built
            g = gk = None
        total += change
        sub_total += sub_change
        if (np.all(np.abs(change) <= _M_CUT * np.abs(total))
                and np.all(np.abs(sub_change) <= _M_CUT * np.abs(sub_total))):
            break

    def shaped(t):
        return float(t[0]) if xi.ndim == 0 else t

    return shaped(total) if nested is None else (shaped(total), shaped(sub_total))


def sphere_energy(
    sys: SphereSystem,
    quad: QuadratureSpec = QuadratureSpec(base_order=32, tol=1e-6),
    lmax_tol=1e-3,
    max_lmax_doublings=3,
    adaptive_lmax=True,
):
    """Casimir interaction energy of two spheres, imaginary-axis evaluation:

    E = hbar/(2 pi) int_0^inf dxi sum_m log det(1 - M_m(i xi))

    with the round trip M_m = R1 K R2 D K D (module docstring) built from
    the Mie blocks and the axial translation blocks truncated at lmax, and
    xi = c/(2 gap) u/(1-u). The truncation order starts at ``sys.lmax`` (or
    the gap-based default). Unless ``adaptive_lmax`` is off, each quadrature
    pass at lmax also sums the energy at lmax' = min(ceil(3 lmax / 4),
    lmax - 1) from the same round trips (the l <= lmax' sub-blocks of each
    G), and its quadrature refines both sums until each meets ``quad.tol``;
    the pass converges when the two differ by at most ``lmax_tol``
    relative, and lmax doubles otherwise, up to ``max_lmax_doublings``
    times. That difference joins the error estimate.

    Each call of the integrand evaluates every node of one Gauss-Kronrod
    node set (``core.refine_order``): a pass that converges on its first
    set, Gauss order ``quad.base_order`` and 2 ``quad.base_order`` + 1
    Kronrod nodes, builds its translation sums and Mie amplitudes once.
    Each node sums the m-blocks up to the cut-off of
    ``_round_trip_logdet_sum``, and (lmax + 1) ``_M_CUT`` |E| joins the
    error estimate for the blocks past it.

    Returns and raises as ``core.energy``: value in J (negative for passive
    spheres); ``orders`` lists the Gauss and Kronrod node counts of each
    node set of the last pass; ``events`` counts, over every node of the
    final lmax pass, the nodes raised to the small-w floor (``xi_clamped``)
    and the non-finite Mie amplitudes set to zero (``mie_zeroed``).
    """
    prefactor = HBAR / (2.0 * np.pi)
    scale = C_LIGHT / (2.0 * sys.gap)

    def integrate(lmax, events):
        nested = min(math.ceil(0.75 * lmax), lmax - 1) if adaptive_lmax else None

        def f(xi):
            return prefactor * np.asarray(_round_trip_logdet_sum(sys, xi, lmax, events, nested))

        value, err, history, converged = integrate_semiinfinite(f, quad, scale=scale)
        err = err + (lmax + 1) * _M_CUT * np.abs(value)
        if nested is None:
            return value, err, history, converged, None
        return value[0], err[0], history, converged, (nested, value[1])

    return energy(
        integrate,
        lmax=sys.lmax if sys.lmax is not None else sys.default_lmax(),
        lmax_tol=lmax_tol,
        max_lmax_doublings=max_lmax_doublings if adaptive_lmax else None,
        geometry="sphere", axis="imaginary",
    )
