"""Plane-plane geometry: the interaction energy per unit area of two
half-spaces across a possibly dissipative medium.

In the plane-wave basis every channel (frequency, transverse momentum q,
polarization) decouples, so the round-trip operator is the scalar
x = r1 r2 e^{2 i kz L} per channel (``_round_trip``, one Fresnel pass for
both polarizations and both frequency axes) and the energy is a double
integral over frequency and q.

Two evaluation paths are provided. The production path integrates along
the imaginary frequency axis, where the integrand is real, negative and
smooth: each order N is an N x N Gauss-Legendre rule on the maps
xi = (c/L) t^2 and, at each xi, kappa = kappa_0(xi) + s/L, with t and s
in (0, inf) (see ``energy_per_area``). The real-frequency path evaluates
Im log(1 - x) literally, with q outermost because at fixed
q the frequency integrand decays like 1/w^4, while at fixed frequency the
q-integral picks up a non-decaying grazing-incidence shell. Each order of
the q rule is one stack of channels, one per q node, on the polarization
sum; the sum cannot wrap because it is the argument of a product of two
factors with Re > 0. The frequency panels of all channels are refined
together and evaluated in blocks of bounded size. Both paths agree channel
by channel, which is checked in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import C_LIGHT, HBAR, QuadratureSpec, energy, gauss_legendre_01, refine_order
from .errors import DomainError, OscillatoryFailure
from .materials import (
    MaterialModel,
    Medium,
    PerfectMirror,
    VACUUM,
    eps_imag_axis,
    eps_real_axis,
    is_dissipative,
)


@dataclass(frozen=True)
class PlaneSystem:
    """Two half-spaces facing each other across a gap of width L."""

    mat1: MaterialModel
    mat2: MaterialModel
    medium: Medium = VACUUM
    L: float = 1e-6

    def __post_init__(self):
        if not 0 < self.L < np.inf:
            raise DomainError(f"separation must be finite and > 0, got {self.L!r}")
        if isinstance(self.medium, PerfectMirror):
            raise DomainError("the medium cannot be a perfect mirror")


def _sqrt_im_pos(z):
    """Principal square root folded onto Im >= 0 (decay, not gain)."""
    s = np.sqrt(np.asarray(z, dtype=complex))
    return np.where(s.imag < 0, -s, s)


def _eps_k(mat, freq, q_sq, real):
    """Permittivity and normal wavevector of ``mat``.

    At imaginary frequency xi: kappa = sqrt(eps(i xi) xi^2/c^2 + q^2), real.
    At real frequency w: kz = sqrt(eps(w) w^2/c^2 - q^2) with Im kz >= 0,
    complex. Continuing w -> i xi turns kz into i kappa.
    """
    if real:
        eps = np.asarray(eps_real_axis(mat, freq), dtype=complex)
        return eps, _sqrt_im_pos(eps * (freq / C_LIGHT) ** 2 - q_sq)
    eps = eps_imag_axis(mat, freq)
    return eps, np.sqrt(eps * (freq / C_LIGHT) ** 2 + q_sq)


def _fresnel(mat, em, km, freq, q_sq, real):
    """(r_TE, r_TM) of a half-space of ``mat`` seen from a medium with
    permittivity ``em`` and wavevector ``km`` (from ``_eps_k``):

        r_TE = (k_m - k_p) / (k_m + k_p)
        r_TM = (eps_p k_m - eps_m k_p) / (eps_p k_m + eps_m k_p)

    Both ratios are homogeneous of degree zero in (k_m, k_p), so kappa on
    the imaginary axis and kz = i kappa on the real axis give the same
    amplitude; the dtype of ``km`` (float or complex) is kept. A perfect
    mirror gives exactly (-1, +1) on either axis.
    """
    if isinstance(mat, PerfectMirror):
        return -1.0, 1.0
    ep, kp = _eps_k(mat, freq, q_sq, real)
    return (km - kp) / (km + kp), (ep * km - em * kp) / (ep * km + em * kp)


def _round_trip(sys: PlaneSystem, freq, q_sq, real):
    """(x_TE, x_TM) with x = r1 r2 e^{2 i kz L}, the round trip of the gap,
    at the imaginary (``real`` false: e^{-2 kappa L}, real) or real
    frequencies ``freq``, broadcast against ``q_sq``. Equal mirrors share
    their amplitudes."""
    em, km = _eps_k(sys.medium, freq, q_sq, real)
    r1 = _fresnel(sys.mat1, em, km, freq, q_sq, real)
    r2 = r1 if sys.mat2 == sys.mat1 else _fresnel(sys.mat2, em, km, freq, q_sq, real)
    phase = np.exp(2j * km * sys.L) if real else np.exp(-2.0 * km * sys.L)
    return r1[0] * r2[0] * phase, r1[1] * r2[1] * phase


def ideal_energy_per_area(L):
    """Closed form for two perfect mirrors in vacuum: -pi^2 hbar c / (720 L^3)."""
    return -np.pi**2 * HBAR * C_LIGHT / (720.0 * np.asarray(L, dtype=float) ** 3)


def _warnings(sys: PlaneSystem):
    """Warnings that every plane energy at separation ``sys.L`` carries."""
    if sys.L < 1e-9:
        return ["separation below 1 nm: continuum dielectric models are suspect"]
    return []


def lifshitz_integrand(sys: PlaneSystem, xi, q):
    """Sum over polarizations of log(1 - r1 r2 e^{-2 kappa_m L}) on the
    (xi, q) grid, shape (n_xi, n_q). ``q`` is one row shared by every xi or
    an (n_xi, n_q) array with a row per xi. Non-positive for identical
    passive mirrors."""
    xi_col = np.atleast_1d(np.asarray(xi, dtype=float))[:, None]
    q_sq = np.atleast_2d(np.asarray(q, dtype=float)) ** 2
    x_te, x_tm = _round_trip(sys, xi_col, q_sq, real=False)
    return np.log1p(-x_te) + np.log1p(-x_tm)


def energy_per_area(sys: PlaneSystem, quad: QuadratureSpec = QuadratureSpec()):
    """Interaction energy per unit area, imaginary-axis evaluation.

    E/A = hbar/(4 pi^2) int_0^inf dxi int_0^inf q dq
          sum_pol log(1 - r1 r2 e^{-2 kappa_m L})

    Each order N of ``refine_order`` is an N x N rule, with u and v on its
    Gauss-Legendre nodes: xi = (c/L) t^2, t = u/(1-u), which makes the
    sqrt(xi) behaviour of Drude plates at xi -> 0 smooth in t; at each xi,
    kappa = kappa_0 + s/L with kappa_0 = sqrt(eps_m(i xi)) xi/c and
    s = v/(1-v). There q dq = kappa dkappa, and q^2 = (s/L)(2 kappa_0 + s/L)
    has no cancellation. Returns and raises as ``core.energy``; value in
    J/m^2.
    """

    def evaluate(u, w):
        t, jt = u / (1.0 - u), w / (1.0 - u) ** 2
        xi = C_LIGHT / sys.L * t**2
        k0 = (np.sqrt(eps_imag_axis(sys.medium, xi)) * xi / C_LIGHT)[:, None]
        s = t / sys.L
        grid = lifshitz_integrand(sys, xi, np.sqrt(s * (2.0 * k0 + s))) * (k0 + s)
        # dxi = (c/L) 2 t dt and dkappa = ds/L
        return HBAR * C_LIGHT / (2 * np.pi**2 * sys.L**2) * float((t * jt) @ grid @ jt)

    return energy(
        lambda lmax, events: (*refine_order(evaluate, quad), None),
        warnings=_warnings(sys), geometry="plane", axis="imaginary",
    )


def _real_axis_channel_values(sys: PlaneSystem, q, omega):
    """Sum over polarizations of Im log(1 - r1 r2 e^{2 i kz L}) at the real
    frequencies ``omega``, each paired with the transverse momentum of the
    same index in ``q``.

    With x = r1 r2 e^{2 i kz L} and |x| < 1 (dissipative mirrors), each
    factor 1 - x has Re > 0, so the arguments of the two factors add up to
    less than pi in modulus: the sum is the argument of their product.
    """
    x_te, x_tm = _round_trip(sys, np.asarray(omega, dtype=float),
                             np.asarray(q, dtype=float) ** 2, real=True)
    return np.angle((1.0 - x_te) * (1.0 - x_tm))


# integrand points per call of ``f`` in ``_adaptive_panels``: bounds the
# temporaries of the Fresnel amplitudes whatever the number of channels
_BLOCK = 4096


def _adaptive_panels(f, edges, rel_tol, abs_floor, max_rounds=40):
    """Integrate f over [edges[c, 0], edges[c, -1]] for every channel c of
    the 2-D ``edges``, with per-panel Gauss-Legendre of orders 8 and 16.
    Repeated edges give empty panels, which are dropped, so channels may
    have different numbers of panels. In each channel the panels whose order
    difference dominates the channel's error budget are bisected; a channel
    whose summed difference meets its budget is frozen. Returns the arrays
    (values, error_estimates), one entry per channel.

    ``f(c, x)`` takes paired arrays of channel indices and abscissae, at
    most ``_BLOCK`` long, and returns the integrand at each pair.
    """
    (x8, w8), (x16, w16) = gauss_legendre_01(8), gauss_legendre_01(16)
    nodes = np.concatenate([x8, x16])

    def panel_eval(a, b, c):
        parts, step = [], _BLOCK // len(nodes)  # whole panels per call of f
        for i in range(0, len(a), step):
            ai, wi = a[i:i + step, None], b[i:i + step, None] - a[i:i + step, None]
            vals = f(np.repeat(c[i:i + step], len(nodes)), (ai + wi * nodes).ravel())
            vals = vals.reshape(len(ai), -1)
            # row sums, not BLAS: a panel's value must not depend on its call's size
            parts.append(np.column_stack([(vals[:, :8] * w8).sum(axis=1),
                                          (vals[:, 8:] * w16).sum(axis=1)]) * wi)
        coarse, fine = np.concatenate(parts).T
        return fine, np.abs(fine - coarse)

    n = len(edges)
    a, b = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    chan = np.repeat(np.arange(n), edges.shape[1] - 1)
    a, b, chan = a[b > a], b[b > a], chan[b > a]
    vals, errs = panel_eval(a, b, chan)
    values, errors, active = np.zeros(n), np.zeros(n), np.ones(n, dtype=bool)
    for _ in range(max_rounds):
        total, total_err = np.bincount(chan, vals, n), np.bincount(chan, errs, n)
        budget = np.maximum(rel_tol * np.abs(total), abs_floor)
        done = active & (total_err <= budget)
        values[done], errors[done] = total[done], total_err[done]
        active &= ~done
        if not active.any():
            return values, errors
        live = active[chan]
        a, b, chan, vals, errs = a[live], b[live], chan[live], vals[live], errs[live]
        worst = errs > (budget / np.maximum(np.bincount(chan, minlength=n), 1))[chan]
        # a channel with no panel above its share bisects its largest
        peak = np.zeros(n)
        np.maximum.at(peak, chan, errs)
        worst |= (np.bincount(chan, worst, n) == 0)[chan] & (errs >= peak[chan])
        mid = (a[worst] + b[worst]) / 2
        nv, ne = panel_eval(np.concatenate([a[worst], mid]),
                            np.concatenate([mid, b[worst]]), np.tile(chan[worst], 2))
        a = np.concatenate([a[~worst], a[worst], mid])
        b = np.concatenate([b[~worst], mid, b[worst]])
        chan = np.concatenate([chan[~worst], chan[worst], chan[worst]])
        vals = np.concatenate([vals[~worst], nv])
        errs = np.concatenate([errs[~worst], ne])
    raise OscillatoryFailure(
        f"adaptive frequency integration exceeded {max_rounds} refinement rounds")


def _frequency_integrals(sys: PlaneSystem, q, omega_max):
    """(values, error estimates) of int_0^omega_max dw sum_pol
    Im log(1 - r1 r2 e^{2 i kz L}) for every transverse momentum in ``q``,
    all refined together by ``_adaptive_panels``. The error includes a bound
    on the tail beyond ``omega_max``."""
    # panel edges: half-period of e^{2 i w L / c}, plus the branch point of
    # kz at w = c q (clipped onto an end, where it adds no panel)
    n_panels = max(int(np.ceil(omega_max / (np.pi * C_LIGHT / (2 * sys.L)))), 8)
    grid = np.linspace(0.0, omega_max, n_panels + 1)
    grid[0] = omega_max * 1e-12
    branch = np.clip(C_LIGHT * q, grid[0], omega_max)[:, None]
    edges = np.sort(np.hstack([np.broadcast_to(grid, (len(q), len(grid))), branch]), axis=1)
    vals, errs = _adaptive_panels(
        lambda c, w: _real_axis_channel_values(sys, q[c], w), edges,
        rel_tol=1e-6, abs_floor=1e-9 * omega_max / n_panels)
    # tail bound: the envelope of the summed integrand decays like 1/w^4
    # beyond omega_max, so the tail is at most |f(omega_max)| omega_max / 3
    probe = _real_axis_channel_values(sys, q, np.full(len(q), omega_max))
    return vals, errs + np.abs(probe) * omega_max / 3.0


def energy_per_area_real_axis(
    sys: PlaneSystem, omega_max, quad: QuadratureSpec = QuadratureSpec(base_order=48)
):
    """Interaction energy per unit area evaluated on the real frequency axis:

    E/A = hbar/(4 pi^2) int_0^inf q dq int_0^omega_max dw
          sum_pol Im log(1 - r1 r2 e^{2 i kz L})

    Requires strictly dissipative mirror materials (positive damping), so
    that |r1 r2 e^{2 i kz L}| < 1 and the principal branch is safe. Each
    Gauss-Legendre order of the q integral evaluates all its q nodes as one
    stack: every q is one channel whose integrand is the polarization sum,
    from one Fresnel evaluation per point, and the frequency panels of all
    channels are refined together (``_adaptive_panels``), in blocks of at
    most ``_BLOCK`` points. The frequency integral at fixed q decays like
    1/w^4; the tail beyond ``omega_max``, the q cut-off remainder and the
    panel errors are bounded and folded into the error estimate.

    The outer q refinement stops at ``max(quad.tol, 1e-4)`` relative; a
    tighter ``quad.tol`` is counted as ``events["tol_floored"]``. Returns
    and raises as ``core.energy``, with ``omega_max`` in the metadata.

    Raises
    ------
    DomainError
        If either mirror material has no damping.
    OscillatoryFailure
        If the adaptive frequency refinement cannot resolve the oscillatory
        integrand.
    """
    if not (is_dissipative(sys.mat1) and is_dissipative(sys.mat2)):
        raise DomainError("real-axis evaluation requires strictly dissipative mirrors")
    if not 0 < omega_max < np.inf:
        raise DomainError(f"omega_max must be finite and > 0, got {omega_max!r}")
    L = sys.L
    # Channels beyond q_max contribute at the e^{-2 q L} level; their exact
    # real-axis values are exponentially small results of O(1) oscillatory
    # cancellation, so they are cut off and bounded instead of evaluated.
    q_max = 8.0 / L
    # cut-off remainder, from the exponential model e^{-2qL} of the
    # frequency integral; it does not depend on the quadrature order
    edge = _frequency_integrals(sys, np.array([q_max]), omega_max)[0][0]
    q_tail = HBAR / (4 * np.pi**2) * abs(edge) * (q_max / (2 * L) + 1 / (4 * L**2))
    inner_errs = []

    def evaluate(v, wv):
        q, jq = q_max * v, q_max * wv
        vals, errs = _frequency_integrals(sys, q, omega_max)
        inner_errs.append(HBAR / (4 * np.pi**2) * float(np.sum(jq * q * errs)))
        return HBAR / (4 * np.pi**2) * float(np.sum(jq * q * vals))

    def integrate(lmax, events):
        if quad.tol < 1e-4:
            events["tol_floored"] += 1
        value, err, history, converged = refine_order(
            evaluate, replace(quad, tol=max(quad.tol, 1e-4)))
        return value, err + inner_errs[-1] + q_tail, history, converged, None

    return energy(integrate, warnings=_warnings(sys), geometry="plane",
                  axis="real", omega_max=omega_max)
