"""Geometry-independent pieces of the energy formula: log det(1 - G G^T)
of an imaginary-axis round trip, the order-doubling loop of every
order-refined integral and the one energy loop that every geometry and
frequency axis runs through.

Physical constants live here so every module prices energies identically.
"""

from __future__ import annotations

import math
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


# Largest eigenvalue of N at which log_det_one_minus raises BranchRisk, and
# the Frobenius norm of N below which it takes no eigenvalues.
_BRANCH_RHO = 1 - 1e-9
# Frobenius norm below which log_det_one_minus sums -tr(N^k)/k for k <= 4:
# the dropped terms add up to at most f^5 / (5 (1 - f)) <= eps there, below
# the rounding of 1 - N that an LU factorisation starts from, and to at
# most eps f for f < 1.8e-4.
_SERIES_F = (4 * np.finfo(float).eps) ** 0.2
# Frobenius norm up to which the series stops at k = 2, which needs no
# matrix product: the dropped terms add up to at most f^3 / (3 (1 - f)),
# which is <= eps f for f <= sqrt(3 eps (1 - f)), about 2.6e-8 (so
# 1 - f > 1 - 3e-8 there).
_SERIES_F2 = (3 * np.finfo(float).eps * (1 - 3e-8)) ** 0.5


def log_det_one_minus(g):
    """log det(1 - N) of N = G G^T, for a real square G or a stack of them.

    On the imaginary axis the round trip M of two passive reciprocal
    scatterers is similar to such an N (Rahi, Emig, Graham, Jaffe & Kardar,
    Phys. Rev. D 80, 085021 (2009)): N is symmetric positive semidefinite,
    its eigenvalues lambda are real and >= 0, and the result,
    sum log(1 - lambda), is real and <= 0 while every lambda < 1.

    Each G takes one of four routes, chosen by tr N = ||G||_F^2 and by
    f = ||N||_F, which bounds the largest eigenvalue:

    - tr N <= eps / sqrt(n) (n rows): -tr N, without forming N. With
      f <= tr N the dropped terms add up to at most f^2 / (2 (1 - f)) <=
      f tr N, below the bound eps f of the series.
    - f < ``_SERIES_F`` (about 1e-3): the series -sum_{k<=4} tr(N^k)/k,
      from one matrix product, or -(tr N + tr(N^2)/2), from none, for
      f <= ``_SERIES_F2`` (about 2.6e-8). Either keeps the relative
      accuracy of a weak round trip, for which det(1 - N) would round to
      1: the dropped terms add up to at most eps f (f^5 / (5 (1 - f)) <=
      eps for 1.8e-4 < f < 1e-3).
    - f < 1 - 1e-9: one LU factorisation of 1 - N (``np.linalg.slogdet``);
      lambda <= f keeps det(1 - N) > 0. Rounding 1 - N leaves an absolute
      error of a few eps per matrix.
    - f >= 1 - 1e-9: the eigenvalues of N (``np.linalg.eigvalsh``), each
      log(1 - lambda) from log1p.

    ``g`` is one square matrix or a stack of shape (..., n, n). A stack is
    validated once, N is formed as one stacked product of the G that need
    it, and each route takes its matrices as one stack; a matrix's result
    does not depend on the other matrices of its stack. Returns a float
    for one matrix and a float array of shape ``g.shape[:-2]`` for a stack.

    Raises
    ------
    ValueError
        If G is complex or not square, or tr N is not finite (an entry of G
        is not, or N overflows).
    BranchRisk
        If the largest eigenvalue of any N reaches 1 - 1e-9.
    """
    g = np.asarray(g)
    if np.iscomplexobj(g):
        raise ValueError("G must be real")
    g = g.astype(float, copy=False)
    if g.ndim < 2 or g.shape[-1] != g.shape[-2] or g.shape[-1] < 1:
        raise ValueError(f"matrix must be square, got shape {g.shape}")
    shape, n = g.shape[:-2], g.shape[-1]
    g = g.reshape(-1, n, n)
    out = -np.einsum("kij,kij->k", g, g)
    if not np.all(np.isfinite(out)):
        raise ValueError("matrix contains non-finite entries, or G G^T overflows")
    strong = -out > np.finfo(float).eps / math.sqrt(n)
    if strong.any():
        gs = g if strong.all() else g[strong]
        nn = gs @ gs.transpose(0, 2, 1)
        f = np.sqrt(np.einsum("kij,kij->k", nn, nn))
        series = f < _SERIES_F
        lu = ~series & (f < _BRANCH_RHO)
        eig = ~(series | lu)
        ld = np.empty(len(nn))
        if series.any():
            ld[series] = _log_det_series(nn if series.all() else nn[series], f[series])
        if lu.any():
            one_minus = np.negative(nn if lu.all() else nn[lu])
            one_minus[:, np.arange(n), np.arange(n)] += 1.0
            ld[lu] = np.linalg.slogdet(one_minus).logabsdet
        if eig.any():
            lam = np.linalg.eigvalsh(nn if eig.all() else nn[eig])
            top = np.zeros(len(g))
            top[np.flatnonzero(strong)[eig]] = lam[:, -1]
            if top.max() >= _BRANCH_RHO:
                raise BranchRisk(f"largest eigenvalue {top.max():.12f} of G G^T >= 1"
                                 f"{worst_member(top.reshape(shape))}")
            ld[eig] = np.sum(np.log1p(-lam), axis=-1)
        out[strong] = ld
    return float(out[0]) if not shape else out.reshape(shape)


def _log_det_series(m, f):
    """-sum_{k<=4} tr(N^k)/k for a stack of matrices N of Frobenius norms
    ``f``, smallest term first, or -(tr N + tr(N^2)/2) where
    f <= _SERIES_F2."""
    t1 = np.einsum("kii->k", m)
    t2 = np.einsum("kij,kji->k", m, m)
    out = -(t2 / 2 + t1)
    full = f > _SERIES_F2
    if full.any():
        mf = m[full] if not full.all() else m
        m2 = mf @ mf
        t3 = np.einsum("kij,kji->k", m2, mf)
        t4 = np.einsum("kij,kji->k", m2, m2)
        out[full] = -(t4 / 4 + t3 / 3 + t2[full] / 2 + t1[full])
    return out


def check_count(name, value, lowest, error=ValueError):
    """Raise ``error`` unless ``value`` is an integer (not a bool) >= ``lowest``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < lowest:
        raise error(f"{name} must be an integer >= {lowest}, got {value!r}")


def check_real(name, value, lowest=-math.inf, error=ValueError, strict=True):
    """Raise ``error`` unless ``value`` is a real number (not a bool), finite
    and > ``lowest`` (>= ``lowest`` unless ``strict``)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise error(f"{name} must be a real number, got {value!r}")
    if not (math.isfinite(value) and (value > lowest or not strict and value == lowest)):
        bound = "" if lowest == -math.inf else f" and {'>' if strict else '>='} {lowest:g}"
        raise error(f"{name} must be finite{bound}, got {value!r}")


@dataclass(frozen=True)
class QuadratureSpec:
    """Base Gauss-Legendre order, doubling budget and relative tolerance of
    the nested Gauss-Kronrod rules of ``refine_order``."""

    base_order: int = 64
    max_doublings: int = 6
    tol: float = 1e-8

    def __post_init__(self):
        check_count("base_order", self.base_order, 8)
        check_count("max_doublings", self.max_doublings, 0)
        check_real("tol", self.tol, 0)


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
_GK_CACHE = {}


def gauss_legendre_01(order):
    """Cached Gauss-Legendre nodes and weights mapped to (0, 1)."""
    order = int(order)
    if order not in _GL_CACHE:
        x, w = leggauss(order)
        _GL_CACHE[order] = ((x + 1.0) / 2.0, w / 2.0)
    return _GL_CACHE[order]


def gauss_kronrod_01(order):
    """Cached Gauss-Kronrod rule on (0, 1): the 2 order + 1 Kronrod nodes
    and a (2, 2 order + 1) array of weight rows, the Gauss-Legendre rule of
    ``order`` (zero off its embedded nodes, the odd ones) and the Kronrod
    rule, exact for polynomials of degree 3 order + 1.

    The Kronrod Jacobi matrix comes from the Legendre recurrence by
    Laurie's algorithm (Math. Comp. 66, 1133 (1997)); its eigenvalues are
    the nodes, and each weight is b_0 / sum_k p_k(x)^2 over the
    orthonormal polynomials of its recurrence (no eigenvectors, so no
    further LAPACK routine is loaded). The embedded nodes and the Gauss
    row are those of ``gauss_legendre_01``, so the Gauss row integrates
    exactly as that rule.
    """
    n = int(order)
    if n in _GK_CACHE:
        return _GK_CACHE[n]
    # recurrence of the monic Legendre polynomials on (-2, 2): a_k = 0,
    # b_0 = 4, b_k = 4 k^2 / (4 k^2 - 1) -> 1. On (-1, 1), b_k -> 1/4 and
    # Laurie's mixed moments shrink like 4^-n, to below the smallest
    # normal double by n = 512 and to 0 / 0 above; the factor 2 keeps them
    # of order one and maps every number by an exact power of two. Laurie's
    # loops fill a and b from index floor(3n/2) + 1 and ceil(3n/2) + 1 on
    a, b = np.zeros(2 * n + 1), np.zeros(2 * n + 1)
    k = np.arange(1.0, -(-3 * n // 2) + 1)
    b[0], b[1:k.size + 1] = 4.0, 4 * k * k / (4 * k * k - 1)
    s, t = np.zeros(n // 2 + 2), np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        l = m - k
        s[k + 1] = np.cumsum((a[k + n + 1] - a[l]) * t[k + 1] + b[k + n + 1] * s[k]
                             - b[l] * s[k + 1])
        s, t = t, s
    s[1:n // 2 + 2] = s[:n // 2 + 1]
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        l = m - k
        j = n - 1 - l
        s[j + 1] = np.cumsum(-(a[k + n + 1] - a[l]) * t[j + 1] - b[k + n + 1] * s[j + 1]
                             + b[l] * s[j + 2])
        j, k = j[-1], (m + 1) // 2
        if m % 2 == 0:
            a[k + n + 1] = a[k] + (s[j + 1] - b[k + n + 1] * s[j + 2]) / t[j + 2]
        else:
            b[k + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
    root_b = np.sqrt(b)
    x = np.linalg.eigvalsh(np.diag(a) + np.diag(root_b[1:], 1) + np.diag(root_b[1:], -1))
    x = (x - x[::-1]) / 2  # symmetric about 0
    # p_k = sqrt(b_0) times the orthonormal polynomials, p_0 = 1
    p_prev, p, norm = np.zeros_like(x), np.ones_like(x), np.ones_like(x)
    for k in range(2 * n):
        p_prev, p = p, ((x - a[k]) * p - root_b[k] * p_prev) / root_b[k + 1]
        norm += p * p
    w = b[0] / norm
    u, weights = (x / 2.0 + 1.0) / 2.0, np.zeros((2, 2 * n + 1))
    u[1::2], weights[0, 1::2] = gauss_legendre_01(n)
    weights[1] = (w + w[::-1]) / 8.0  # symmetric, and mapped to (0, 1)
    _GK_CACHE[n] = (u, weights)
    return _GK_CACHE[n]


def _rules(quad):
    """(orders, nodes, weight rows) of each node set of ``refine_order``."""
    if quad.max_doublings == 0:
        u, w = gauss_legendre_01(quad.base_order)
        yield (quad.base_order,), u, w[None]
    for k in range(quad.max_doublings):
        order = quad.base_order * 2**k
        yield (order, 2 * order + 1), *gauss_kronrod_01(order)


def refine_order(evaluate, quad: QuadratureSpec):
    """Nested Gauss-Kronrod refinement shared by every order-refined
    integral.

    Each node set is the Kronrod extension of a Gauss-Legendre order: the
    Gauss orders are ``quad.base_order``, twice that, and so on, and order N
    gives 2 N + 1 nodes on (0, 1) (``gauss_kronrod_01``) that carry both
    rules. ``evaluate(u, w)`` integrates on the nodes ``u`` with each row
    of the weight array ``w`` and returns one value per row; it is called
    once per node set. A value may be a 1-d stack of integrals on the same
    nodes, which is refined until each of them meets the tolerance. The
    value of a node set is its Kronrod value K and its error estimate
    |K - G|, G the embedded Gauss value; the order doubles until
    |K - G| <= ``quad.tol`` |K|.

    ``quad.max_doublings`` = d >= 1 allows d node sets, the last of
    2^d ``base_order`` + 1 nodes, one more than the top order of plain
    doubling. d = 0 evaluates the Gauss rule of ``base_order`` alone, which
    gives no error estimate and never converges.

    Returns
    -------
    (value, error_estimate, history, converged)
        ``history`` lists (order, value) for each rule evaluated: (N, G)
        and (2 N + 1, K) for each node set, (N, G) alone for d = 0, so an
        order is the rule's node count. ``error_estimate`` is |K - G| of
        the last node set (inf for d = 0). ``converged`` is False, and
        nothing is raised, when no node set met the tolerance.
    """
    history = []
    for orders, u, w in _rules(quad):
        values = evaluate(u, w)
        history += zip(orders, values)
        value = values[-1]
        err = abs(value - values[0]) if len(values) > 1 else abs(value) + np.inf
        if len(values) > 1 and np.all(err <= quad.tol * np.maximum(abs(value), 1e-300)):
            return value, err, history, True
    return value, err, history, False


def integrate_semiinfinite(f, quad: QuadratureSpec = QuadratureSpec(), scale=1.0):
    """Integrate f over (0, inf) via the map xi = scale * u / (1 - u), with
    the nested Gauss-Kronrod rules in u of ``refine_order``.

    ``f`` must accept an ndarray of xi values and return the integrand
    values elementwise, or a (k, nodes) stack of k integrands on those
    nodes. It is called once per node set, and each weight row sums the
    values along the last axis. Returns as ``refine_order``: the value is
    a float, or a (k,) array for a stack.
    """

    def evaluate(u, w):
        values = np.asarray(f(scale * u / (1.0 - u)), dtype=float)
        out = np.sum(w * (scale / (1.0 - u) ** 2) * values[..., None, :], axis=-1)
        return [float(row) for row in out] if out.ndim == 1 else list(out.T)

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
    such change joins the error.

    Returns
    -------
    EnergyResult
        Value and error as floats. Its metadata has the same keys on
        success and on NotConverged: ``geometry`` and ``axis`` (with the
        other ``meta`` entries), ``orders`` of the last quadrature (the node
        counts of its rules, see ``refine_order``), ``lmax``
        (the last one tried), ``lmax_history`` as one (lmax, value) pair per
        pass and ``lmax_check`` as the last nested check (lmax', value') of
        a converged pass (None, [] and None for plates; ``lmax_check`` is
        None where no check ran), ``events`` (``EVENTS``, as counted by the
        last ``integrate``: over every node of the final lmax pass) and
        ``warnings``.

    Raises
    ------
    ValueError
        Before any pass, for a ``max_lmax_doublings`` that is not an
        integer >= 0 or an ``lmax_tol`` that is not finite and >= 0.
    NotConverged
        If a pass's quadrature or the lmax doubling does not converge; the
        best EnergyResult is attached. No other function of the package
        raises it.
    """
    if max_lmax_doublings is not None:
        check_count("max_lmax_doublings", max_lmax_doublings, 0)
    check_real("lmax_tol", lmax_tol, 0, strict=False)
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
                f"quadrature not converged at {history[-1][0]} nodes "
                f"(error estimate {err:.3e})",
                result=result(value, err, history, events, "quadrature"))
        if max_lmax_doublings is None:
            return result(value, err, history, events)
        check = (nested[0], float(nested[1]))
        change = abs(value - check[1])
        if change <= lmax_tol * max(abs(value), 1e-300):
            return result(value, err + change, history, events)
        if doubling >= max_lmax_doublings:
            raise NotConverged(
                f"multipole truncation not converged after {max_lmax_doublings} "
                f"doublings (last change {change:.3e})",
                result=result(value, err + change, history, events, "lmax"))
        lmax *= 2
