"""Geometry-independent pieces of the energy formula: branch-safe
log det(1 - M) and the order-doubling loop of every order-refined integral.

Physical constants live here so every module prices energies identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BranchRisk, NotConverged

HBAR = 1.054571817e-34  # J s
C_LIGHT = 299792458.0  # m / s


def log_det_one_minus(m):
    """log det(1 - M) as a sum of principal logs over the eigenvalues of M.

    With every |lambda_i| < 1 each factor satisfies Re(1 - lambda_i) > 0,
    so the per-eigenvalue principal branch can never wrap: the result is
    branch-safe by construction. For the Hermitian-symmetric problems that
    arise on the imaginary frequency axis the result is real and <= 0.

    ``m`` is one square matrix or a stack of shape (..., n, n). A stack is
    validated once and goes through one stacked ``eigvals``; real input
    stays real. Returns a complex for one matrix and a complex array of
    shape ``m.shape[:-2]`` for a stack.

    Raises
    ------
    ValueError
        If the matrices are not square or an entry is not finite.
    BranchRisk
        If the spectral radius of any matrix, the largest of its exact
        eigenvalue moduli, reaches 1 - 1e-9.
    """
    m = np.asarray(m)
    if not np.iscomplexobj(m):
        m = m.astype(float, copy=False)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    # complex even when every eigenvalue of a real stack is real, so that
    # a matrix's logs do not depend on the other matrices of its stack
    lam = np.linalg.eigvals(m).astype(complex, copy=False)
    rho = np.max(np.abs(lam), axis=-1)
    if np.any(rho >= 1 - 1e-9):
        worst = np.unravel_index(np.argmax(rho), rho.shape)
        where = f" (matrix {worst} of the stack)" if rho.ndim else ""
        raise BranchRisk(f"spectral radius {rho[worst]:.12f} >= 1{where}")
    out = np.sum(np.log(1.0 - lam), axis=-1)
    return complex(out) if m.ndim == 2 else out


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre order, doubling budget and relative tolerance."""

    base_order: int = 64
    max_doublings: int = 6
    tol: float = 1e-8

    def __post_init__(self):
        if self.base_order < 8:
            raise ValueError("base_order must be >= 8")
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if self.max_doublings < 0:
            raise ValueError("max_doublings must be >= 0")


@dataclass
class EnergyResult:
    """Energy value with a quadrature error estimate and run metadata."""

    value: float
    error_estimate: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be >= 0")


_GL_CACHE = {}


def gauss_legendre_01(order):
    """Cached Gauss-Legendre nodes and weights mapped to (0, 1)."""
    order = int(order)
    if order not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(order)
        _GL_CACHE[order] = ((x + 1.0) / 2.0, w / 2.0)
    return _GL_CACHE[order]


def refine_order(evaluate, quad: QuadratureSpec, what):
    """Gauss-Legendre order doubling shared by every order-refined integral.

    ``evaluate(u, w)`` integrates with the nodes and weights of
    ``gauss_legendre_01`` at orders ``quad.base_order``, twice that, and so
    on, until two successive values differ by at most ``quad.tol``
    relative.

    Returns
    -------
    (value, error_estimate, history)
        ``history`` lists (order, value) for each refinement;
        ``error_estimate`` is the last change.

    Raises
    ------
    NotConverged
        After ``quad.max_doublings`` doublings, naming ``what``; the best
        (value, error_estimate, history) triple is attached.
    """
    history = []
    err = np.inf
    order = quad.base_order
    for _ in range(quad.max_doublings + 1):
        value = evaluate(*gauss_legendre_01(order))
        history.append((order, value))
        if len(history) > 1:
            err = abs(value - history[-2][1])
            if err <= quad.tol * max(abs(value), 1e-300):
                return value, err, history
        order *= 2
    raise NotConverged(
        f"{what} not converged after {quad.max_doublings} doublings "
        f"(last change {err:.3e})",
        result=(value, err, history),
    )


def integrate_semiinfinite(f, quad: QuadratureSpec = QuadratureSpec(), scale=1.0):
    """Integrate f over (0, inf) via the map xi = scale * u / (1 - u), with
    the Gauss-Legendre order in u refined by ``refine_order``.

    ``f`` must accept an ndarray of xi values and return the integrand
    values elementwise. Returns and raises as ``refine_order``.
    """

    def evaluate(u, w):
        xi = scale * u / (1.0 - u)
        jac = scale / (1.0 - u) ** 2
        return float(np.sum(w * jac * np.asarray(f(xi), dtype=float)))

    return refine_order(evaluate, quad, "semi-infinite quadrature")
