"""Dense complex linear algebra: log-determinants, 2x2 block lemmas,
Haar-random unitaries and unitary dilations of contractions.

All determinants are handled in log form (log-modulus, principal argument)
so that identities between products of determinants can be checked without
overflow. Matrices are plain complex numpy arrays; functions validate their
inputs instead of wrapping them in a class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotContraction, NotUnitary, SingularBlock, SingularMatrix

# Global max-norm tolerance for unitarity checks.
UNITARITY_TOL = 1e-10


def as_complex_matrix(m, name="matrix"):
    """Validate and return a complex matrix, or a stack (..., rows, cols) of
    them, with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-2] < 1 or a.shape[-1] < 1:
        raise ValueError(f"{name} must be a 2-d array or a stack of them, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def worst_member(values):
    """' (matrix i of the stack)' naming the member with the largest of
    per-matrix ``values``; '' for the value of a single matrix."""
    values = np.asarray(values)
    if values.ndim == 0:
        return ""
    i = tuple(int(j) for j in np.unravel_index(values.argmax(), values.shape))
    return f" (matrix {i[0] if len(i) == 1 else i} of the stack)"


def unitarity_defect(m):
    """Max-norm of M^dag M - 1; for a stack, an array with one per matrix."""
    m = as_complex_matrix(m)
    n = m.shape[-1]
    if m.shape[-2] != n:
        raise ValueError("unitarity defect requires a square matrix")
    defect = np.abs(m.swapaxes(-1, -2).conj() @ m - np.eye(n)).max(axis=(-2, -1))
    return float(defect) if defect.ndim == 0 else defect


def require_unitary(m, name="matrix"):
    """Raise NotUnitary unless ||M^dag M - 1||_max <= UNITARITY_TOL for M,
    or for every matrix of a stack (the message names the worst)."""
    defect = np.asarray(unitarity_defect(m))
    if defect.max() > UNITARITY_TOL:
        raise NotUnitary(f"{name}{worst_member(defect)}: unitarity defect "
                         f"{defect.max():.3e} > {UNITARITY_TOL:.1e}")


def logdet(m):
    """Log-determinant of a square complex matrix, or one per matrix of a
    stack, from one LU factorisation each (LAPACK getrf through
    ``np.linalg.slogdet``, the routine behind every log det of the package).

    Returns
    -------
    complex, or a complex array for a stack
        Real part log|det M|, imaginary part arg(det M) in (-pi, pi].

    Raises
    ------
    SingularMatrix
        If a factorisation meets an exactly zero pivot (naming the member).
    """
    m = as_complex_matrix(m)
    if m.shape[-2] != m.shape[-1]:
        raise ValueError("logdet requires a square matrix")
    sign, logabs = np.linalg.slogdet(m)
    if (sign == 0).any():
        raise SingularMatrix("matrix is singular: zero pivot in its LU factorisation"
                             f"{worst_member(sign == 0)}")
    im = np.angle(sign)
    # principal branch (-pi, pi]: a sign of -1 - 0j has angle -pi
    return batch_free(logabs + 1j * np.where(im == -np.pi, np.pi, im))


def batch_free(x):
    """A Python scalar for a single matrix's value, the array for a stack's."""
    return np.asarray(x).item() if np.ndim(x) == 0 else x


def solve(a, b, err=SingularBlock):
    """Solve a x = b by LU (``np.linalg.solve``, which broadcasts over
    stacks); raise ``err`` if a, or any matrix of its stack, is exactly
    singular, and ValueError if it is not square."""
    a = as_complex_matrix(a, "a")
    if a.shape[-1] != a.shape[-2]:
        raise ValueError(f"a must be square, got shape {a.shape}")
    try:
        return np.linalg.solve(a, np.asarray(b, dtype=complex))
    except np.linalg.LinAlgError as exc:
        # the same getrf factorisation names the member with the zero pivot
        where = worst_member(np.linalg.slogdet(a)[0] == 0)
        raise err(f"matrix is singular: zero pivot in its LU factorisation{where}") from exc


def inv(a, err=SingularBlock):
    """Inverse with an explicit singularity check."""
    a = as_complex_matrix(a, "a")
    return solve(a, np.eye(a.shape[-1], dtype=complex), err=err)


@dataclass(frozen=True)
class Block2x2:
    """2x2 block matrix [[A, B], [C, D]] with square A and D, or a stack of
    them whose four blocks share their leading batch axes."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        for name in "ABCD":
            object.__setattr__(self, name, as_complex_matrix(getattr(self, name), name))
        a, b, c, d = self.A.shape, self.B.shape, self.C.shape, self.D.shape
        batch, na, nd = a[:-2], a[-1], d[-1]
        if a != batch + (na, na) or d != batch + (nd, nd):
            raise ValueError("blocks A and D must be square, with equal batch axes")
        if b != batch + (na, nd) or c != batch + (nd, na):
            raise ValueError("blocks B and C not conformable with A and D")

    @property
    def n_a(self):
        return self.A.shape[-1]

    @property
    def n_d(self):
        return self.D.shape[-1]

    def assemble(self):
        """Full (n_a + n_d) square matrix (stack)."""
        return np.block([[self.A, self.B], [self.C, self.D]])

    @classmethod
    def split(cls, m, n_a):
        """Partition a square matrix (stack) with an n_a x n_a upper-left block."""
        m = as_complex_matrix(m)
        return cls(m[..., :n_a, :n_a], m[..., :n_a, n_a:], m[..., n_a:, :n_a], m[..., n_a:, n_a:])


def schur_complement(m: Block2x2, which="A"):
    """Schur complement M/A = D - C A^-1 B or M/D = A - B D^-1 C.

    Parameters
    ----------
    m : Block2x2
    which : {'A', 'D'}
        Block to complement against (the one inverted).
    """
    if which == "A":
        return m.D - m.C @ solve(m.A, m.B)
    if which == "D":
        return m.A - m.B @ solve(m.D, m.C)
    raise ValueError("which must be 'A' or 'D'")


def matrix_det_lemma_residual(a, b, d, c):
    """Relative defect of det(A + B D C) = det(A) det(D) det(D^-1 + C A^-1 B).

    Both sides are evaluated through log-determinants, so the residual
    |lhs - rhs| / |lhs| is formed as |1 - exp(rhs_log - lhs_log)| and stays
    meaningful even when the determinants themselves are huge.
    """
    a, b, d, c = (as_complex_matrix(x, name) for x, name in zip((a, b, d, c), "ABDC"))
    try:
        lhs = logdet(a + b @ d @ c)
        rhs = logdet(a) + logdet(d) + logdet(inv(d) + c @ solve(a, b))
    except SingularMatrix as exc:
        raise SingularBlock(str(exc)) from exc
    return batch_free(np.abs(1 - np.exp(rhs - lhs)))


def unitary_block_relations(m: Block2x2):
    """Check the two block identities satisfied by a unitary [[A,B],[C,D]].

    Returns a dict (of per-member arrays for a stack) with

    - ``det_ratio_residual``: |det M - det(D)/det(A^dag)|
    - ``offdiag_residual``: ||B D^-1 C - (A - (A^dag)^-1)||_max

    Raises
    ------
    NotUnitary
        If the assembled matrix (any member) is not unitary.
    SingularBlock
        If A or D is singular.
    """
    full = m.assemble()
    require_unitary(full, name="assembled block matrix")
    ld_m = logdet(full)
    ld_a = logdet(m.A)
    ld_d = logdet(m.D)
    # det(A^dag) = conj(det A)
    det_ratio_residual = np.abs(np.exp(ld_m) - np.exp(ld_d - np.conj(ld_a)))
    lhs = m.B @ solve(m.D, m.C)
    rhs = m.A - inv(m.A).swapaxes(-1, -2).conj()
    return {
        "det_ratio_residual": batch_free(det_ratio_residual),
        "offdiag_residual": batch_free(np.abs(lhs - rhs).max(axis=(-2, -1))),
    }


def _gaussian(n, seed, scale=None):
    """A complex standard-Gaussian n x n matrix from ``default_rng(seed)``
    and, drawn after it from the same generator, one uniform(*scale) number
    (None without ``scale``). A sequence of seeds gives the stack of matrices
    and the array of numbers, one generator per seed."""
    def draw(s):
        rng = np.random.default_rng(s)
        # real parts, then imaginary parts: the order of two (n, n) draws
        return rng.standard_normal((2, n, n)), (rng.uniform(*scale) if scale else None)

    x, u = draw(seed) if np.ndim(seed) == 0 else map(np.array, zip(*map(draw, seed)))
    return (x[..., 0, :, :] + 1j * x[..., 1, :, :]) / np.sqrt(2), u


def random_unitary(n, seed):
    """Haar-distributed n x n unitary, deterministic per seed; for a
    sequence of seeds, the stack from one stacked QR.

    QR of a complex standard-Gaussian matrix with the R diagonal phases
    divided out, which makes the distribution exactly Haar.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    q, r = np.linalg.qr(_gaussian(n, seed)[0])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_contraction(n, seed):
    """Random strict contraction: Gaussian matrix rescaled to a norm in
    [0.2, 0.95); for a sequence of seeds, the stack from one stacked SVD."""
    z, scale = _gaussian(n, seed, (0.2, 0.95))
    smax = np.linalg.svd(z, compute_uv=False)[..., 0]
    return z * np.asarray(scale / smax)[..., None, None]


def unitary_dilation(k):
    """Embed a contraction K as the upper-left block of a 2n x 2n unitary.

    U = [[K, (1 - K K^dag)^1/2], [(1 - K^dag K)^1/2, -K^dag]]

    Both square roots come from the one SVD K = W S V^dag: with
    D = ((1 - S)(1 + S))^1/2 they are W D W^dag and V D V^dag. The
    off-diagonal blocks of U^dag U then cancel for any D, so U stays
    unitary to rounding even at singular values of 1, where square roots
    of 1 - K K^dag taken by eigendecomposition lose half the digits.
    Singular values within 1e-12 above 1 are taken as 1. The upper-left
    block of the result equals K bitwise. A stack of K gives the stack of
    dilations, from one stacked SVD.

    Raises
    ------
    NotContraction
        If the largest singular value of K (of any K of a stack) exceeds
        1 + 1e-12.
    """
    k = as_complex_matrix(k, "K")
    n = k.shape[-1]
    if k.shape[-2] != n:
        raise ValueError("K must be square")
    w, s, vh = np.linalg.svd(k)
    if s.max() > 1 + 1e-12:
        where = worst_member(s[..., 0])
        raise NotContraction(f"largest singular value {s.max():.12f} > 1 + 1e-12{where}")
    s = np.minimum(s, 1.0)
    d = np.sqrt((1.0 - s) * (1.0 + s))[..., None, :]
    u = np.empty(k.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    u[..., :n, :n] = k
    w_h, v = w.swapaxes(-1, -2).conj(), vh.swapaxes(-1, -2).conj()
    u[..., :n, n:] = (w * d) @ w_h
    u[..., n:, :n] = (v * d) @ vh
    u[..., n:, n:] = -k.swapaxes(-1, -2).conj()
    return u
