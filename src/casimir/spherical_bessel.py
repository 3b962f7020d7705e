"""Modified spherical Bessel functions with exponential scaling.

The energy integrands pair i_l (growing like e^x) with k_l (decaying like
e^-x), so the stable currency is the scaled pair

    si_l(x) = e^-x i_l(x)        sk_l(x) = e^x k_l(x)

computed by downward (Miller) recurrence for i_l and upward recurrence for
k_l; both directions are the numerically stable ones. Riccati forms and
their derivatives carry the same scaling.

Every function takes a scalar x or an array of x and returns arrays of
shape ``x.shape + (lmax + 1,)``: the order l runs along the last axis.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError


def si_array(lmax, x):
    """Scaled e^-x i_l(x) for l = 0..lmax (x >= 0).

    Miller's algorithm in ratio form: r_l = i_{l+1}/i_l follows from the
    downward recurrence r_l = 1/((2l + 3)/x + r_{l+1}) started at r = 0 from
    order lmax + 30 + sqrt(40 x). Above the turning point l ~ x the ratio
    start error dies off at once; below it, i_l and k_l change like
    exp(-+l^2/2x), so that start leaves a relative error below e^-40. Each
    x starts from its own order, so a value does not depend on the other
    entries of the array. The ratios are then chained from the closed form
    of si_0.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("argument must be >= 0")
    flat = x.reshape(-1)
    zero = flat == 0.0
    xs = np.where(zero, 1.0, flat)
    top = lmax + 30 + np.sqrt(40.0 * xs).astype(int)
    order = np.argsort(-top, kind="stable")
    xs, top = xs[order], top[order]
    r = np.zeros(xs.size)
    ratios = np.empty((xs.size, lmax))
    active = 0
    for l in range(int(top[0]) if xs.size else -1, -1, -1):
        while active < xs.size and top[active] >= l:
            active += 1
        r[:active] = 1.0 / ((2 * l + 3) / xs[:active] + r[:active])
        if l < lmax:
            ratios[:, l] = r
    # si_0(x) = e^-x sinh(x)/x = (1 - e^{-2x}) / (2x), from expm1: the
    # difference 1 - e^{-2x} would lose all digits below x = 1e-16
    si0 = -np.expm1(-2.0 * xs) / (2.0 * xs)
    vals = np.empty((xs.size, lmax + 1))
    vals[:, 0] = si0
    vals[:, 1:] = si0[:, None] * np.cumprod(ratios, axis=1)
    out = np.empty_like(vals)
    out[order] = vals
    out[zero] = 0.0
    out[zero, 0] = 1.0  # e^0 i_0(0)
    return out.reshape(x.shape + (lmax + 1,))


def sk_array(lmax, x):
    """Scaled e^x k_l(x) for l = 0..lmax (x > 0), by upward recurrence."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("argument must be > 0")
    out = np.empty(x.shape + (lmax + 1,))
    out[..., 0] = np.pi / (2.0 * x)
    if lmax >= 1:
        out[..., 1] = np.pi / (2.0 * x) * (1.0 + 1.0 / x)
    for l in range(1, lmax):
        out[..., l + 1] = out[..., l - 1] + (2 * l + 1) / x * out[..., l]
    return out


def riccati_si(lmax, x):
    """Scaled Riccati pair for the regular solution.

    Returns (sS, sdS) with sS_l = e^-x x i_l(x) and sdS_l = e^-x S_l'(x),
    l = 0..lmax, using S_l'(x) = x i_{l-1}(x) - l i_l(x), i_{-1} = cosh/x.
    """
    x = np.asarray(x, dtype=float)
    si = si_array(lmax + 1, x)
    xe = x[..., None]
    ss = xe * si[..., : lmax + 1]
    zero = x == 0.0
    xs = np.where(zero, 1.0, x)
    prev = np.empty_like(ss)
    prev[..., 0] = (1.0 + np.exp(-2.0 * xs)) / (2.0 * xs)  # e^-x cosh(x)/x
    prev[..., 1:] = si[..., :lmax]
    sds = xe * prev - np.arange(lmax + 1) * si[..., : lmax + 1]
    sds[zero] = 0.0
    sds[zero, 0] = 1.0
    return ss, sds


def riccati_sk(lmax, x):
    """Scaled Riccati pair for the outgoing solution.

    Returns (sC, sdC) with sC_l = e^x x k_l(x) and sdC_l = e^x C_l'(x),
    l = 0..lmax, using C_l'(x) = -x k_{l-1}(x) - l k_l(x), k_{-1} = k_0.
    """
    sk = sk_array(lmax, x)
    xe = np.asarray(x, dtype=float)[..., None]
    prev = np.empty_like(sk)
    prev[..., 0] = sk[..., 0]  # k_{-1} = k_0
    prev[..., 1:] = sk[..., :lmax]
    return xe * sk, -xe * prev - np.arange(lmax + 1) * sk
