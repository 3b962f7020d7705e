"""Wigner 3j symbols for integer arguments, for every j3 of a row at once:
the closed form of (j1 j2 j3; 0 0 0) and the three-term recurrence in j3
for every other row, each computed on its row's own triangle."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def wigner3j(j1, j2, j3, m1, m2, m3, band=False):
    """Wigner 3j symbol (j1 j2 j3; m1 m2 m3) for integer arguments.

    With integer arguments, returns a float, 0.0 wherever a selection rule
    fails. With ``j3=None`` it returns the symbols for every j3 at once:
    j1, j2, m1, m2 and m3 broadcast like numpy arrays to a shape S, and the
    result has shape S + (max(j1 + j2) + 1,), its entry [..., j3] holding
    (j1 j2 j3; m1 m2 m3) (zero outside each triangle).

    With ``j3=None`` and ``band=True`` only the triangles are returned: the
    result has shape S + (W,), its entry [..., k] holding
    (j1 j2 lo + k; m1 m2 m3) with lo = max(|j1 - j2|, |m3|), the lowest j3
    of the row, and W the largest j1 + j2 - lo + 1 of the valid rows (zero
    past a row's j1 + j2, and on rows that break a selection rule).

    (j1 j2 j3; 0 0 0) comes from its closed form (``_wigner3j_zero_m``).
    Every other row comes from the three-term recurrence in j3 of Schulten
    & Gordon (J. Math. Phys. 16, 1961 (1975)), run over all rows at once as
    in Luscombe & Luban (Phys. Rev. E 57, 7274 (1998)); see
    ``_wigner3j_rows``. Measured against sympy's exact symbols: within
    1e-15 absolute for 35 rows with j <= 40, 5.6e-16 relative for
    (60 60 60; 0 0 0) and 7.8e-16 relative for the tiny
    (50 50 100; 50 -50 0) = 2.3e-31; the orthogonality defect
    |sum_j3 (2 j3 + 1) (j j j3; m -m 0)^2 - 1| is at most 1e-15 up to
    j = 200 and 2e-15 at j = 300 (m = 0, 1, j/3, j/2, j - 1, j).
    """
    if j3 is not None:
        table = wigner3j(j1, j2, None, m1, m2, m3)
        out = table[..., j3] if 0 <= j3 < table.shape[-1] else np.zeros(table.shape[:-1])
        return float(out) if out.ndim == 0 else out
    args = [np.asarray(a, dtype=np.int64) for a in (j1, j2, m1, m2, m3)]
    shape = np.broadcast_shapes(*(a.shape for a in args))
    j1, j2, m1, m2, m3 = args
    ok = (j1 >= 0) & (j2 >= 0) & (abs(m1) <= j1) & (abs(m2) <= j2) & (m1 + m2 + m3 == 0)
    every = ok.all()
    r = slice(None) if every else np.flatnonzero(np.broadcast_to(ok, shape))
    # the rows' j1 and j2 as 1-d arrays; an m given as one number stays one
    j1, j2 = (np.broadcast_to(a, shape).ravel()[r] for a in (j1, j2))
    m1, m2, m3 = (a if a.ndim == 0 else np.broadcast_to(a, shape).ravel()[r]
                  for a in (m1, m2, m3))
    if m1.any() or m2.any():
        rows = _wigner3j_rows(j1, j2, m1, m2)
    else:
        rows = _wigner3j_zero_m(j1, j2)
    width = rows.shape[0]
    if band and every:
        return rows.T.reshape(shape + (width,))
    if every:
        r = np.arange(j1.size)
    lo = np.maximum(abs(j1 - j2), abs(m3))
    nj3 = width if band else int(np.max(args[0] + args[1], initial=0)) + 1
    out = np.zeros((math.prod(shape), nj3))
    # row r's symbols go to out[r, k] (band) or out[r, lo + k] (dense)
    k = np.arange(width)[:, None]
    at = r * nj3 if band else r * nj3 + lo
    keep = k <= j1 + j2 - lo
    out.reshape(-1)[(at + k)[keep]] = rows[keep]
    return out.reshape(shape + (nj3,))


def _wigner3j_zero_m(j1, j2):
    """(j1 j2 lo + k; 0 0 0) for the rows given by the 1-d arrays j1, j2
    (axis 1) and k = 0 .. 2 max(min(j1, j2)) (axis 0), lo = |j1 - j2|;
    zero past a row's j1 + j2.

    Closed form: for even j1 + j2 + j3 = 2g inside the triangle,
    (-1)^g sqrt(h(g - j1) h(g - j2) h(g - j3) / ((2g + 1) h(g))) with
    h(k) = binom(2k, k) / 4^k = prod_{i <= k} (2i - 1) / (2i), a product of
    factors below one that neither overflows nor cancels. Odd k break the
    parity rule; at k = 2i, g = max(j1, j2) + i, and the symbol is
    a(i) a(lo + i) a(min(j1, j2) - i) b(g) with a = sqrt(h) and
    b(g) = (-1)^g / sqrt((2g + 1) h(g)): three lookups in one small table
    and one in another.
    """
    lo, low, top = abs(j1 - j2), np.minimum(j1, j2), np.maximum(j1, j2)
    half = int(low.max()) + 1 if low.size else 1
    # tables for every g < size, size a multiple of 64 so that calls share them
    size = -(-(int(np.max(j1 + j2, initial=0)) + half + 1) // 64) * 64
    a, b = _zero_m_tables(size)
    i = np.arange(half)[:, None]
    even = a[lo + size + i]
    even *= a[size:size + half, None]
    even *= a[low + size - i]
    even *= b[top + i]
    out = np.zeros((2 * half - 1, j1.size))
    out[::2] = even
    return out


@lru_cache(maxsize=4)
def _zero_m_tables(size):
    """(a, b) of ``_wigner3j_zero_m`` for g = 0 .. size - 1: a(g) = sqrt(h(g))
    at index size + g, after zeros for the negative arguments down to
    -size, and b(g) = (-1)^g / sqrt((2g + 1) h(g))."""
    g = np.arange(size)
    h = np.concatenate([[1.0], np.cumprod((2 * g[1:] - 1) / (2 * g[1:]))])
    a = np.concatenate([np.zeros(size), np.sqrt(h)])
    b = np.where(g % 2, -1.0, 1.0) / np.sqrt((2 * g + 1) * h)
    a.flags.writeable = b.flags.writeable = False
    return a, b


def _wigner3j_rows(j1, j2, m1, m2):
    """(j1 j2 lo + k; m1 m2 -m1-m2) for the rows given by the 1-d arrays j1,
    j2, m1, m2 (axis 1) and k = 0 .. W - 1 (axis 0), lo = max(|j1 - j2|,
    |m1 + m2|) and W the largest j1 + j2 - lo + 1; zero past a row's
    j1 + j2. Needs |m1| <= j1 and |m2| <= j2.

    Schulten-Gordon's recurrence, divided by j3 (j3 + 1):

        alpha(j3 + 1) f(j3 + 1) + beta(j3) f(j3) + alpha(j3) f(j3 - 1) = 0

    with alpha vanishing at the triangle ends j3 = lo and j3 = hi + 1
    (hi = j1 + j2). In this form it stays regular at j3 = 0, the start of
    the rows (j j j3; m -m 0), where the undivided one reads 0 = 0; for
    m3 = 0 it reads alpha = sqrt((j3^2 - (j1 - j2)^2) ((hi + 1)^2 - j3^2))
    and beta = (2 j3 + 1) (m2 - m1). Each row runs forward from lo and
    backward from hi, each in the direction in which the solution grows,
    up to a meeting point inside the classically allowed region (where
    beta^2 / (alpha alpha) is smallest), is matched there by least squares
    over two points, normalised by sum_j3 (2 j3 + 1) f^2 = 1 and signed by
    sign f(hi) = (-1)^(j1-j2-m3). Every array is indexed by the offset
    k = j3 - lo of its row, so a row takes no room outside its triangle.
    """
    m3 = -(m1 + m2)
    lo = np.maximum(abs(j1 - j2), abs(m3))
    last = j1 + j2 - lo
    nrow = j1.size
    width = int(last.max()) + 1 if nrow else 1
    cols = np.arange(nrow)
    # alpha, beta at j3 = lo + k for k = -1 .. width + 1: index i holds
    # k = i - 1; work arrays are built in place and dropped once used
    j = np.arange(-1.0, width + 2)[:, None] + lo.astype(float)
    jj = j * j
    alpha = jj - (j1 - j2) ** 2
    alpha *= (j1 + j2 + 1) ** 2 - jj
    twoj1 = j + j
    twoj1 += 1
    general = m3.any()
    if general:
        alpha *= jj - m3 * m3
        np.maximum(alpha, 1e-300, out=alpha)
        np.sqrt(alpha, out=alpha)
        alpha /= np.maximum(abs(j), 1.0)
        beta = m3 * (j1 * (j1 + 1) - j2 * (j2 + 1)) / np.maximum(jj + j, 1.0)
        np.subtract(m2 - m1, beta, out=beta)
        beta *= twoj1
    else:
        np.maximum(alpha, 1e-300, out=alpha)
        np.sqrt(alpha, out=alpha)
        beta = twoj1 * (m2 - m1)
    del j, jj
    a_prev, a_here, a_next, a_next2 = (alpha[i:i + width] for i in range(4))
    b_prev, b_here, b_next = (beta[i:i + width] for i in range(3))
    k = np.arange(width)[:, None]
    if general:
        with np.errstate(over="ignore"):
            ratio = b_here**2
            ratio /= a_here * a_next
        ratio[(k == 0) | (k >= last)] = np.inf
        mid = ratio.argmin(axis=0)
    else:
        # beta^2 / (alpha alpha) is (m2 - m1)^2 over alpha alpha / (2 j3 + 1)^2,
        # which is 0 at k = 0 and k >= last
        ratio = a_here * a_next
        ratio /= twoj1[1:width + 1] ** 2
        mid = ratio.argmax(axis=0)
    mid = np.where(last > 1, mid, 0)
    del ratio
    # forward f(k) = -p f(k-1) - q f(k-2) for 0 < k <= mid + 1 in columns
    # :nrow; backward g(k) = -p g(k+1) - q g(k+2) for mid <= k < last in
    # columns nrow:, stored in reversed k order so that both run in one loop.
    # alpha >= 1e-150 keeps p and q finite; p = q = 0 at the two steps past
    # each run's end leave zeros after it
    inv = 1.0 / alpha
    # qp[i] = (q, p) of step i, which multiply fg[i:i + 2] below
    qp = np.empty((width, 2, 2 * nrow))
    q, p = qp[:, 0], qp[:, 1]
    np.multiply(b_prev, inv[1:width + 1], out=p[:, :nrow])
    np.multiply(a_prev, inv[1:width + 1], out=q[:, :nrow])
    np.multiply(b_next, inv[2:width + 2], out=p[::-1, nrow:])
    np.multiply(a_next2, inv[2:width + 2], out=q[::-1, nrow:])
    del alpha, beta, inv, a_prev, a_here, a_next, a_next2, b_prev, b_here, b_next
    stop = np.minimum(mid + 1, last)
    step = np.concatenate([stop + 1, stop + 2, width - mid, width + 1 - mid])
    col = np.concatenate([cols, cols, nrow + cols, nrow + cols])
    keep = step < width
    p[step[keep], col[keep]] = q[step[keep], col[keep]] = 0.0
    # rows 0, 1 and width + 2 are zero padding; fg[2 + i] holds step i
    fg = np.zeros((width + 3, 2 * nrow))
    fg[2, :nrow] = 1.0
    fg[2 + (width - 1 - last), nrow + cols] = 1.0
    t = np.empty((2, 2 * nrow))
    t0, t1 = t
    for i in range(width):
        row = fg[i + 2]
        np.multiply(qp[i], fg[i:i + 2], out=t)
        row -= t0
        row -= t1
        if i % 8 == 7 and np.abs(row).max() > 1e200:
            fg[:i + 3, np.abs(row) > 1e200] *= 1e-200
    del qp, p, q
    f = fg[2:width + 3, :nrow]  # f[k] holds offset k, for k = 0 .. width
    g = fg[width + 1:0:-1, nrow:]  # so does g[k]
    f0, f1, g0, g1 = f[mid, cols], f[mid + 1, cols], g[mid, cols], g[mid + 1, cols]
    # f and g are scaled by their size at the meeting point before they are
    # matched, so that neither the match nor the norm overflows; f is zero
    # past mid + 1 and g below mid, so the row is f + g but at those two
    sf = np.maximum(abs(f0), abs(f1))
    sg = np.maximum(abs(g0), abs(g1))
    f0, f1, g0, g1 = f0 / sf, f1 / sf, g0 / sg, g1 / sg
    c = (f0 * g0 + f1 * g1) / (g0 * g0 + g1 * g1)
    f *= 1 / sf
    g *= c / sg
    out = f + g
    out[mid, cols] = f[mid, cols]
    out[mid + 1, cols] = g[mid + 1, cols]
    out = out[:width]
    del fg, f, g
    norm = np.sqrt(np.einsum("ij,ij,ij->j", out, out, twoj1[1:width + 1]))
    sign = np.where(last > mid, np.sign(c), 1.0) * np.where((j1 - j2 - m3) % 2, -1.0, 1.0)
    out *= sign / norm
    return out
