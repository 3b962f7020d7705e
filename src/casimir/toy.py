"""Single-channel lossy Fabry-Perot toy: two lossy mirrors joined by a
phase-accumulating translation, all embedded in unitary scattering
matrices through dilation.

The toy exercises the equivalence of the two energy bookkeepings for a
frequency band [a, b]: integrating the scattering phase shift, and
integrating the density-of-states change weighted by the mode energy.
The two are related by an integration by parts, so the phase-shift route
carries the boundary term (hbar/2 pi) [w dphi]_a^b; with it included the
routes agree to quadrature accuracy.

The phase is that of the whole dilated cavity, loss ports included; the
density of states that of its internal round trip alone (``_dos_rel``).
Neither subtracts a reference: the translation between the mirrors is
lossless at real frequency, the dilation of [[0, t], [t, 0]] with |t| = 1,
so det S_L = |t|^4 = 1 at every frequency. A lossy gap would make it move.
"""

from __future__ import annotations

import numpy as np

from . import blockmat
from .core import C_LIGHT, HBAR, check_real, gauss_legendre_01
from .errors import BranchJump, DomainError, NotContraction
from .scattering import (
    ScatteringMatrix,
    eigenphases,
    matched_phase_increment,
    promote_internal,
    round_trip,
    star,
    translation_scatterer,
)


def lossy_mirror(r, t, facing):
    """Unitary scatterer for a mirror with scalar reflection r and
    transmission amplitude t, in the beamsplitter phase convention
    [[r, it], [it, r]] (passive iff r^2 + t^2 <= 1; strict means loss).

    ``facing`` selects which physical port is the internal channel:
    'right' for the left mirror of a cavity, 'left' for the right one.
    The two loss ports from the dilation are external.
    """
    check_real("mirror r", r)
    check_real("mirror t", t)
    k = np.array([[r, 1j * t], [1j * t, r]], dtype=complex)
    try:
        u = blockmat.unitary_dilation(k)
    except NotContraction as exc:
        raise NotContraction(f"mirror (r={r}, t={t}) is not passive") from exc
    internal = [1] if facing == "right" else [0]
    return ScatteringMatrix.from_full(u, internal)


def cavity(omega, L, r, t, mirrors=None):
    """Assembled unitary scattering matrix of the lossy cavity at a real
    frequency, plus the bare translation between the mirrors; for an array
    of frequencies, the stacks of both.

    ``mirrors`` allows reusing the (frequency-independent) mirror pair
    across calls. DomainError unless the length ``L`` is a real number > 0.
    """
    check_real("L", L, 0, DomainError)
    if mirrors is None:
        mirrors = (lossy_mirror(r, t, "right"), lossy_mirror(r, t, "left"))
    m1, m2 = mirrors
    sl = translation_scatterer(np.exp(1j * np.asarray(omega) * L / C_LIGHT)[..., None, None])
    return star(m1, promote_internal(star(sl, m2), 1)), sl


def phase_profile(samples):
    """Branch-continuous phase shifts of a stack of unitary matrices
    (ScatteringMatrix or array).

    The first value is the principal phase shift; subsequent values follow
    by nearest-branch matching of the eigenphases between neighbours. The
    eigenphases of each sample are computed once.
    """
    phases = eigenphases(samples)
    inc, worst = matched_phase_increment(phases[:-1], phases[1:])
    if np.any(worst >= np.pi / 2):
        raise BranchJump("grid too coarse for branch-continuous phases")
    return np.cumsum(np.concatenate([[0.5 * np.sum(phases[0])], inc]))


def _dos_rel(sl, L, mirrors):
    """Density-of-states change (1/pi) dphi/domega of the cavity, for the
    translation (stack) ``sl`` that ``cavity`` returns. By the chain
    composition theorem phi = const - Im log det(1 - M), M = S1ii T12 S2ii T21.
    Only T depends on omega, dM/domega = (2iL/c) M, so dphi/domega =
    (2L/c) Re tr(D21 - 1), taken as D21 M to keep a weak round trip accurate."""
    m1, m2 = mirrors
    n = m1.n_int
    s1, s2 = m1.ii @ sl.ie[..., :n], m2.ii @ sl.ei[..., :n, :]
    d21 = round_trip(s1, s2).D21
    return 2 * L / (np.pi * C_LIGHT) * np.einsum("...ij,...ji->...", d21, s1 @ s2).real


def band_energies(L, r, t, band, panels=None, order=16):
    """Band-limited vacuum-energy change of the toy cavity, two ways.

    Returns a dict with

    - ``phase_route``: -(hbar/2 pi) int dphi dw + (hbar/2 pi) [w dphi]_a^b
    - ``dos_route``: int (hbar w / 2) deta dw
    - ``rows``: per-node (omega, dphi, deta)

    dphi is the branch-continuous phase shift of the cavity; deta its
    frequency derivative over pi. The band is integrated by composite
    Gauss-Legendre panels sized to resolve the cavity resonances
    (width ~ (1 - r^2) c / L). DomainError unless the length ``L`` is a
    real number > 0.
    """
    check_real("L", L, 0, DomainError)
    a, b = band
    if not 0 < a < b:
        raise ValueError("band must satisfy 0 < a < b")
    if panels is None:
        resonance_width = max(1.0 - r * r, 0.02) * C_LIGHT / L
        panels = int(np.clip(np.ceil(3 * (b - a) / resonance_width), 8, 150))
    u, wq = gauss_legendre_01(order)
    edges = np.linspace(a, b, panels + 1)
    width = np.diff(edges)[:, None]
    omegas = np.concatenate([[a], (edges[:-1, None] + width * u).ravel(), [b]])
    weights = np.concatenate([[0.0], (width * wq).ravel(), [0.0]])

    mirrors = (lossy_mirror(r, t, "right"), lossy_mirror(r, t, "left"))
    full, sl = cavity(omegas, L, r, t, mirrors)
    dphi = phase_profile(full)
    # the phase carries a constant offset (branch anchor plus the
    # frequency-independent mirror phases); both routes are invariant to it
    deta = _dos_rel(sl, L, mirrors)

    integral_dphi = float(np.sum(weights * dphi))
    boundary = b * dphi[-1] - a * dphi[0]
    phase_route = HBAR / (2 * np.pi) * (boundary - integral_dphi)
    dos_route = float(np.sum(weights * omegas * deta)) * HBAR / 2.0
    return {
        "phase_route": phase_route,
        "dos_route": dos_route,
        "rows": list(zip(omegas.tolist(), dphi.tolist(), deta.tolist())),
    }
