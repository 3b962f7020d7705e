"""Modified spherical Bessel functions with exponential scaling.

The energy integrands pair i_l (growing like e^x) with k_l (decaying like
e^-x), so the stable currency is the scaled pair

    si_l(x) = e^-x i_l(x)        sk_l(x) = e^x k_l(x)

computed by downward (Miller) recurrence for i_l and upward recurrence for
k_l; both directions are the numerically stable ones. Riccati forms and
their derivatives carry the same scaling.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError


def si_array(lmax, x):
    """Scaled e^-x i_l(x) for l = 0..lmax (one x > 0 at a time).

    Downward recurrence from a start order safely above both lmax and the
    turning point at l ~ x, normalized against the closed form of si_0.
    """
    if x < 0:
        raise DomainError("argument must be >= 0")
    if x == 0.0:
        out = np.zeros(lmax + 1)
        out[0] = 1.0  # e^0 i_0(0)
        return out
    top = int(max(lmax, 1.1 * x) + 0.5 * np.sqrt(max(x, 1.0)) + 30)
    p_up = 0.0
    p = 1e-280
    vals = np.zeros(lmax + 2)
    for l in range(top, -1, -1):
        p_down = p_up + (2 * l + 3) / x * p
        if l <= lmax + 1:
            vals[l] = p_down
        p_up, p = p, p_down
        if abs(p) > 1e250:  # renormalize mid-recurrence to avoid overflow
            p_up /= 1e250
            p /= 1e250
            vals *= 1e-250
    # si_0(x) = e^-x sinh(x)/x = (1 - e^{-2x}) / (2x)
    si0 = (1.0 - np.exp(-2.0 * x)) / (2.0 * x)
    return vals[: lmax + 1] * (si0 / vals[0])


def sk_array(lmax, x):
    """Scaled e^x k_l(x) for l = 0..lmax (x > 0), by upward recurrence."""
    if x <= 0:
        raise DomainError("argument must be > 0")
    out = np.empty(lmax + 1)
    out[0] = np.pi / (2.0 * x)
    if lmax >= 1:
        out[1] = np.pi / (2.0 * x) * (1.0 + 1.0 / x)
    for l in range(1, lmax):
        out[l + 1] = out[l - 1] + (2 * l + 1) / x * out[l]
    return out


def riccati_si(lmax, x):
    """Scaled Riccati pair for the regular solution.

    Returns (sS, sdS) with sS_l = e^-x x i_l(x) and sdS_l = e^-x S_l'(x),
    l = 0..lmax, using S_l'(x) = x i_{l-1}(x) - l i_l(x), i_{-1} = cosh/x.
    """
    si = si_array(lmax + 1, x)
    ss = x * si[: lmax + 1]
    sds = np.empty(lmax + 1)
    if x == 0.0:
        sds[:] = 0.0
        sds[0] = 1.0
        if lmax >= 1:
            sds[1] = 0.0
        return ss, sds
    si_m1 = (1.0 + np.exp(-2.0 * x)) / (2.0 * x)  # e^-x cosh(x)/x
    prev = si_m1
    for l in range(lmax + 1):
        sds[l] = x * prev - l * si[l]
        prev = si[l]
    return ss, sds


def riccati_sk(lmax, x):
    """Scaled Riccati pair for the outgoing solution.

    Returns (sC, sdC) with sC_l = e^x x k_l(x) and sdC_l = e^x C_l'(x),
    l = 0..lmax, using C_l'(x) = -x k_{l-1}(x) - l k_l(x), k_{-1} = k_0.
    """
    sk = sk_array(lmax, x)
    sc = x * sk
    sdc = np.empty(lmax + 1)
    prev = sk[0]  # k_{-1} = k_0
    for l in range(lmax + 1):
        sdc[l] = -x * prev - l * sk[l]
        prev = sk[l]
    return sc, sdc
