"""Geometry-independent pieces of the energy formula: branch-safe
log det(1 - M), the order-doubling loop of every order-refined integral and
the one energy loop that every geometry and frequency axis runs through.

Physical constants live here so every module prices energies identically.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import count

import numpy as np
from numpy.polynomial.legendre import leggauss

from .blockmat import worst_member
from .errors import BranchRisk, NotConverged

# glibc gives each allocation above its mmap threshold a fresh mapping that
# faults in page by page. The threshold starts at 128 kB and rises to the
# size of the largest such mapping freed so far. The stacked quadrature
# passes allocate arrays of 128 kB to a few MB every time, so freeing one
# 8 MB array here spares a spheres benchmark pass about 25,000 page faults.
# Importing scipy used to do this as a side effect. Other allocators ignore
# it.
np.empty(1 << 20)

HBAR = 1.054571817e-34  # J s
C_LIGHT = 299792458.0  # m / s
# silent events of an energy run, counted in its metadata
EVENTS = ("xi_clamped", "mie_zeroed", "tol_floored")


# Spectral radius at which log_det_one_minus raises BranchRisk.
_BRANCH_RHO = 1 - 1e-9
# Frobenius norm below which log_det_one_minus sums -tr(M^k)/k for k <= 4:
# the dropped terms add up to at most f^5 / (5 (1 - f)) <= eps there, below
# the rounding of 1 - M that an LU factorisation starts from, and to at
# most eps f for f < 1.8e-4.
_SERIES_F = (4 * np.finfo(float).eps) ** 0.2


def log_det_one_minus(m):
    """log det(1 - M) on the principal branch of each eigenvalue's log.

    With every |lambda_i| < 1 each factor satisfies Re(1 - lambda_i) > 0,
    so the sum of the principal logs log(1 - lambda_i) can never wrap: the
    result is branch-safe by construction. For the Hermitian-symmetric
    problems that arise on the imaginary frequency axis the result is real
    and <= 0.

    Each matrix takes one of three routes, chosen by its Frobenius norm f,
    which bounds its spectral radius rho:

    - f < ``_SERIES_F`` (about 1e-3): the series -sum_{k<=4} tr(M^k)/k,
      from one matrix product. It keeps the relative accuracy of a weak
      round trip, for which det(1 - M) would round to 1.
    - real M with f < 1 - 1e-9: one LU factorisation of 1 - M
      (``np.linalg.slogdet``); rho <= f certifies the branch, and a real
      det(1 - M) is then > 0. Rounding 1 - M leaves an absolute error of
      a few eps per matrix.
    - any other M (complex, or f >= 1 - 1e-9, as for a non-normal M of
      small radius): the eigenvalues of M. Each log(1 - lambda) comes from
      log1p for |lambda| < 0.5, so it keeps its relative accuracy for small
      |lambda|, and from log|1 - lambda| elsewhere.

    ``m`` is one square matrix or a stack of shape (..., n, n). A stack is
    validated once and each route takes its matrices as one stack; a
    matrix's result does not depend on the other matrices of its stack.
    Returns a complex for one matrix and a complex array of shape
    ``m.shape[:-2]`` for a stack.

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
    shape, n = m.shape[:-2], m.shape[-1]
    m = m.reshape(-1, n, n)
    f = np.sqrt(np.einsum("kij,kij->k", m, m.conj()).real)
    series = f < _SERIES_F
    lu = ~series & (f < _BRANCH_RHO) & (not np.iscomplexobj(m))
    eig = ~(series | lu)
    out = np.empty(len(m), dtype=complex)
    if series.any():
        out[series] = _log_det_series(m if series.all() else m[series])
    if lu.any():
        one_minus = np.negative(m if lu.all() else m[lu])
        one_minus[:, np.arange(n), np.arange(n)] += 1.0
        out[lu] = np.linalg.slogdet(one_minus).logabsdet
    if eig.any():
        # complex even when every eigenvalue of a real stack is real, so that
        # a matrix's logs do not depend on the other matrices of its stack
        lam = np.linalg.eigvals(m if eig.all() else m[eig]).astype(complex, copy=False)
        rho = np.zeros(len(m))
        rho[eig] = np.max(np.abs(lam), axis=-1)
        if rho.max() >= _BRANCH_RHO:
            raise BranchRisk(f"spectral radius {rho.max():.12f} >= 1"
                             f"{worst_member(rho.reshape(shape))}")
        # log(1 + z), z = -lambda: for |z| < 0.5 the modulus comes from
        # log1p, not from rounding 1 + z, to keep its relative precision for
        # tiny |z|; elsewhere from |1 + z|, exact near z = -1 where log1p's
        # argument cancels
        z = -lam
        modulus, small = np.log(np.abs(1.0 + z)), np.abs(z) < 0.5
        modulus[small] = 0.5 * np.log1p(2.0 * z[small].real + np.abs(z[small]) ** 2)
        out[eig] = np.sum(modulus + 1j * np.arctan2(z.imag, 1.0 + z.real), axis=-1)
    return complex(out[0]) if not shape else out.reshape(shape)


def _log_det_series(m):
    """-sum_{k<=4} tr(M^k)/k for a stack of matrices, smallest term first."""
    m2 = m @ m
    t1 = np.einsum("kii->k", m)
    t2 = np.einsum("kij,kji->k", m, m)
    t3 = np.einsum("kij,kji->k", m2, m)
    t4 = np.einsum("kij,kji->k", m2, m2)
    return -(t4 / 4 + t3 / 3 + t2 / 2 + t1)


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre order, doubling budget and relative tolerance."""

    base_order: int = 64
    max_doublings: int = 6
    tol: float = 1e-8

    def __post_init__(self):
        for name in ("base_order", "max_doublings"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.base_order < 8:
            raise ValueError("base_order must be >= 8")
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be finite and > 0, got {self.tol!r}")
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
        x, w = leggauss(order)
        _GL_CACHE[order] = ((x + 1.0) / 2.0, w / 2.0)
    return _GL_CACHE[order]


def refine_order(evaluate, quad: QuadratureSpec):
    """Gauss-Legendre order doubling shared by every order-refined integral.

    ``evaluate(u, w)`` integrates with the nodes and weights of
    ``gauss_legendre_01`` at orders ``quad.base_order``, twice that, and so
    on, until two successive values differ by at most ``quad.tol``
    relative. It may return a 1-d stack of integrals on the same nodes,
    which is refined until each of them meets the tolerance.

    Returns
    -------
    (value, error_estimate, history, converged)
        ``history`` lists (order, value) for each refinement;
        ``error_estimate`` is the last change (inf after one order).
        ``converged`` is False, and nothing is raised, when
        ``quad.max_doublings`` doublings did not meet the tolerance.
    """
    history = []
    order = quad.base_order
    for _ in range(quad.max_doublings + 1):
        value = evaluate(*gauss_legendre_01(order))
        err = abs(value - history[-1][1]) if history else abs(value) + np.inf
        history.append((order, value))
        if len(history) > 1 and np.all(err <= quad.tol * np.maximum(abs(value), 1e-300)):
            return value, err, history, True
        order *= 2
    return value, err, history, False


def integrate_semiinfinite(f, quad: QuadratureSpec = QuadratureSpec(), scale=1.0):
    """Integrate f over (0, inf) via the map xi = scale * u / (1 - u), with
    the Gauss-Legendre order in u refined by ``refine_order``.

    ``f`` must accept an ndarray of xi values and return the integrand
    values elementwise, or a (k, nodes) stack of k integrands on those
    nodes; each is summed along its last axis. Returns as ``refine_order``:
    the value is a float, or a (k,) array for a stack.
    """

    def evaluate(u, w):
        xi, weights = scale * u / (1.0 - u), w * (scale / (1.0 - u) ** 2)
        total = np.sum(weights * np.asarray(f(xi), dtype=float), axis=-1)
        return total if total.ndim else float(total)

    return refine_order(evaluate, quad)


def energy(integrate, *, lmax=None, lmax_tol=0.0, max_lmax_doublings=None,
           warnings=(), **meta):
    """Energy of one geometry, E = hbar/(2 pi) int dxi sum log det(1 - M),
    from the function that integrates it at one truncation.

    ``integrate(lmax, events)`` integrates at truncation ``lmax`` (None for
    plates), counts its silent events into the Counter ``events`` and
    returns ``refine_order``'s four items and the nested check (lmax',
    value'): the same pass's energy at a truncation lmax' < lmax, from the
    same nodes, or None. Unless ``max_lmax_doublings`` is None, a converged
    pass is accepted when |value - value'| <= ``lmax_tol`` |value|;
    otherwise lmax doubles, up to ``max_lmax_doublings`` times. The last
    such change (inf if no check ran) joins the error.

    Returns
    -------
    EnergyResult
        Value and error as floats. Its metadata has the same keys on
        success and on NotConverged: ``geometry`` and ``axis`` (with the
        other ``meta`` entries), ``orders`` of the last quadrature, ``lmax``
        (the last one tried), ``lmax_history`` as one (lmax, value) pair per
        pass and ``lmax_check`` as the last nested check (lmax', value') of
        a converged pass (None, [] and None for plates; ``lmax_check`` is
        None where no check ran), ``events`` (``EVENTS``, as counted by the
        last ``integrate``) and ``warnings``.

    Raises
    ------
    NotConverged
        If a pass's quadrature or the lmax doubling does not converge; the
        best EnergyResult is attached. No other function of the package
        raises it.
    """
    lmax_history, check = [], None

    def result(value, err, history, events, failed=None):
        return EnergyResult(value, err, {
            **meta,
            "orders": [order for order, _ in history],
            "lmax": lmax_history[-1][0] if lmax_history else None,
            "lmax_history": lmax_history,
            "lmax_check": check,
            "events": {name: events[name] for name in EVENTS},
            "warnings": [*warnings, *([f"{failed} not converged"] if failed else [])],
        })

    for doubling in count():
        events = Counter()
        value, err, history, converged, nested = integrate(lmax, events)
        value, err = float(value), float(err)
        if lmax is not None:
            lmax_history.append((lmax, value))
        if not converged:
            raise NotConverged(
                f"quadrature not converged after {len(history) - 1} doublings "
                f"(error estimate {err:.3e})",
                result=result(value, err, history, events, "quadrature"))
        if max_lmax_doublings is None:
            return result(value, err, history, events)
        check = (nested[0], float(nested[1]))
        # a negative budget accepts no pass
        change = abs(value - check[1]) if doubling <= max_lmax_doublings else np.inf
        if change <= lmax_tol * max(abs(value), 1e-300):
            return result(value, err + change, history, events)
        if doubling >= max_lmax_doublings:
            raise NotConverged(
                f"multipole truncation not converged after {max_lmax_doublings} "
                f"doublings (last change {change:.3e})",
                result=result(value, err + change, history, events, "lmax"))
        lmax *= 2
