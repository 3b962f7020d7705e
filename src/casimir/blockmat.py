"""Dense complex linear algebra: log-determinants, 2x2 block lemmas,
Haar-random unitaries and unitary dilations of contractions.

All determinants are handled in log form (log-modulus, principal argument)
so that identities between products of determinants can be checked without
overflow. Matrices are plain complex numpy arrays; functions validate their
inputs instead of wrapping them in a class.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor

from .errors import NotContraction, NotUnitary, SingularBlock, SingularMatrix

# Pivot magnitude below which a factorization is declared singular.
EPS_PIVOT = 1e-300

# Global max-norm tolerance for unitarity checks.
UNITARITY_TOL = 1e-10


def as_complex_matrix(m, name="matrix"):
    """Validate and return a 2-d complex array with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"{name} must be a 2-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def unitarity_defect(m):
    """Max-norm of M^dag M - 1."""
    m = as_complex_matrix(m)
    n = m.shape[0]
    if m.shape[1] != n:
        raise ValueError("unitarity defect requires a square matrix")
    return float(np.max(np.abs(m.conj().T @ m - np.eye(n))))


def require_unitary(m, tol=UNITARITY_TOL, name="matrix"):
    """Raise NotUnitary unless ||M^dag M - 1||_max <= tol."""
    defect = unitarity_defect(m)
    if defect > tol:
        raise NotUnitary(f"{name}: unitarity defect {defect:.3e} > {tol:.1e}")


def logdet(m, eps_pivot=EPS_PIVOT):
    """Log-determinant of a square complex matrix.

    Parameters
    ----------
    m : array_like
        Square complex matrix.
    eps_pivot : float
        Singularity threshold on pivot magnitudes.

    Returns
    -------
    complex
        Real part log|det M|, imaginary part arg(det M) in (-pi, pi].

    Raises
    ------
    SingularMatrix
        If any pivot magnitude falls below ``eps_pivot``.
    """
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("logdet requires a square matrix")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(m, check_finite=False)
    diag = np.diag(lu)
    small = np.abs(diag) < eps_pivot
    if np.any(small):
        raise SingularMatrix(
            f"pivot magnitude {np.min(np.abs(diag)):.3e} below {eps_pivot:.1e}"
        )
    # LAPACK piv: row i was swapped with row piv[i]; each proper swap flips the sign.
    nswaps = int(np.sum(piv != np.arange(len(piv))))
    re = float(np.sum(np.log(np.abs(diag))))
    im = float(np.sum(np.angle(diag)))
    if nswaps % 2:
        im += np.pi
    # reduce argument to the principal branch (-pi, pi]
    im = float(np.mod(im + np.pi, 2 * np.pi) - np.pi)
    if im == -np.pi:
        im = np.pi
    return complex(re, im)


def solve(a, b, eps_pivot=EPS_PIVOT, err=SingularBlock):
    """Solve a x = b with an explicit pivot-magnitude singularity check."""
    a = as_complex_matrix(a, "a")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(a, check_finite=False)
    if np.min(np.abs(np.diag(lu))) < eps_pivot:
        raise err("matrix singular at pivot threshold")
    from scipy.linalg import lu_solve

    return lu_solve((lu, piv), np.asarray(b, dtype=complex), check_finite=False)


def inv(a, eps_pivot=EPS_PIVOT, err=SingularBlock):
    """Inverse with an explicit singularity check."""
    a = as_complex_matrix(a, "a")
    return solve(a, np.eye(a.shape[0], dtype=complex), eps_pivot=eps_pivot, err=err)


@dataclass(frozen=True)
class Block2x2:
    """2x2 block matrix [[A, B], [C, D]] with square A and D."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        a = as_complex_matrix(self.A, "A")
        b = as_complex_matrix(self.B, "B")
        c = as_complex_matrix(self.C, "C")
        d = as_complex_matrix(self.D, "D")
        na, nd = a.shape[0], d.shape[0]
        if a.shape != (na, na) or d.shape != (nd, nd):
            raise ValueError("blocks A and D must be square")
        if b.shape != (na, nd) or c.shape != (nd, na):
            raise ValueError("blocks B and C not conformable with A and D")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "C", c)
        object.__setattr__(self, "D", d)

    @property
    def n_a(self):
        return self.A.shape[0]

    @property
    def n_d(self):
        return self.D.shape[0]

    def assemble(self):
        """Full (n_a + n_d) square matrix."""
        return np.block([[self.A, self.B], [self.C, self.D]])

    @classmethod
    def split(cls, m, n_a):
        """Partition a square matrix with an n_a x n_a upper-left block."""
        m = as_complex_matrix(m)
        return cls(m[:n_a, :n_a], m[:n_a, n_a:], m[n_a:, :n_a], m[n_a:, n_a:])


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
    a = as_complex_matrix(a, "A")
    b = as_complex_matrix(b, "B")
    d = as_complex_matrix(d, "D")
    c = as_complex_matrix(c, "C")
    try:
        lhs = logdet(a + b @ d @ c)
        rhs = logdet(a) + logdet(d) + logdet(inv(d) + c @ solve(a, b))
    except SingularMatrix as exc:
        raise SingularBlock(str(exc)) from exc
    return float(abs(1 - np.exp(rhs - lhs)))


def unitary_block_relations(m: Block2x2, tol=UNITARITY_TOL):
    """Check the two block identities satisfied by a unitary [[A,B],[C,D]].

    Returns a dict with

    - ``det_ratio_residual``: |det M - det(D)/det(A^dag)|
    - ``offdiag_residual``: ||B D^-1 C - (A - (A^dag)^-1)||_max

    Raises
    ------
    NotUnitary
        If the assembled matrix is not unitary within ``tol``.
    SingularBlock
        If A or D is singular.
    """
    full = m.assemble()
    require_unitary(full, tol=tol, name="assembled block matrix")
    ld_m = logdet(full)
    ld_a = logdet(m.A)
    ld_d = logdet(m.D)
    # det(A^dag) = conj(det A)
    det_ratio_residual = abs(np.exp(ld_m) - np.exp(ld_d - np.conj(ld_a)))
    lhs = m.B @ solve(m.D, m.C)
    rhs = m.A - inv(m.A).conj().T
    offdiag_residual = float(np.max(np.abs(lhs - rhs)))
    return {
        "det_ratio_residual": float(det_ratio_residual),
        "offdiag_residual": offdiag_residual,
    }


def random_unitary(n, seed):
    """Haar-distributed n x n unitary, deterministic per seed.

    QR of a complex standard-Gaussian matrix with the R diagonal phases
    divided out, which makes the distribution exactly Haar.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    q = q * (d / np.abs(d))
    return q


def random_contraction(n, seed, margin=0.05):
    """Random strict contraction: Gaussian matrix rescaled below unit norm."""
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    smax = np.linalg.svd(z, compute_uv=False)[0]
    scale = rng.uniform(0.2, 1.0 - margin)
    return z * (scale / smax)


def hermitian_sqrt(h, clamp=1e-14):
    """Square root of a Hermitian PSD matrix via eigendecomposition.

    Eigenvalues that dip below zero by rounding (magnitude < ``clamp``)
    are clamped to zero; larger negative eigenvalues raise ValueError.
    """
    h = as_complex_matrix(h, "h")
    w, v = np.linalg.eigh(h)
    if np.min(w) < -clamp:
        raise ValueError(f"matrix not PSD: eigenvalue {np.min(w):.3e}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def unitary_dilation(k, tol=1e-12):
    """Embed a contraction K as the upper-left block of a 2n x 2n unitary.

    U = [[K, (1 - K K^dag)^1/2], [(1 - K^dag K)^1/2, -K^dag]]

    The upper-left block of the result equals K bitwise.

    Raises
    ------
    NotContraction
        If the largest singular value of K exceeds 1 + tol.
    """
    k = as_complex_matrix(k, "K")
    n = k.shape[0]
    if k.shape[1] != n:
        raise ValueError("K must be square")
    smax = np.linalg.svd(k, compute_uv=False)[0] if n else 0.0
    if smax > 1 + tol:
        raise NotContraction(f"largest singular value {smax:.12f} > 1 + {tol:.1e}")
    eye = np.eye(n)
    s_left = hermitian_sqrt(eye - k @ k.conj().T)
    s_right = hermitian_sqrt(eye - k.conj().T @ k)
    u = np.empty((2 * n, 2 * n), dtype=complex)
    u[:n, :n] = k
    u[:n, n:] = s_left
    u[n:, :n] = s_right
    u[n:, n:] = -k.conj().T
    return u
