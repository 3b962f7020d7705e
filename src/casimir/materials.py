"""Dispersion models evaluable on the real frequency axis and on the
positive imaginary axis.

Each model states its permittivity once, as ``permittivity(w)`` of a
complex frequency w with Im w >= 0; ``eps_real_axis`` evaluates it and
``eps_imag_axis`` takes its real part at w = i xi. All models are causal
with the +i gamma damping convention, so that the imaginary part of the
refractive index describes attenuation. On the imaginary axis every model
gives a real permittivity >= 1. The perfect mirror is a sentinel variant
handled specially by the Fresnel amplitudes (r_TE = -1, r_TM = +1 exactly)
rather than as a large-permittivity limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from .core import check_real
from .errors import DomainError


@dataclass(frozen=True)
class PerfectMirror:
    """Ideal mirror sentinel; has no finite permittivity."""


class _Dispersive:
    """A model with a finite permittivity, whose every parameter is finite
    and at least ``_LOWEST``."""

    _LOWEST = 0.0

    def __post_init__(self):
        for f in fields(self):
            check_real(f.name, getattr(self, f.name), self._LOWEST, strict=False)


@dataclass(frozen=True)
class Plasma(_Dispersive):
    """Lossless plasma: eps(w) = 1 - wp^2 / w^2."""

    omega_p: float

    def permittivity(self, w):
        return 1.0 - self.omega_p**2 / w**2


@dataclass(frozen=True)
class Drude(_Dispersive):
    """Ohmic metal: eps(w) = 1 - wp^2 / (w (w + i gamma))."""

    omega_p: float
    gamma: float

    def permittivity(self, w):
        return 1.0 - self.omega_p**2 / (w * (w + 1j * self.gamma))


@dataclass(frozen=True)
class ConstantEps(_Dispersive):
    """Non-dispersive dielectric with eps >= 1."""

    eps: float
    _LOWEST = 1.0

    def permittivity(self, w):
        return np.full_like(w, self.eps)


@dataclass(frozen=True)
class Lorentz(_Dispersive):
    """Single resonance: eps(w) = 1 + wp^2 / (w0^2 - w^2 - i gamma w)."""

    omega_p: float
    omega_0: float
    gamma: float

    def permittivity(self, w):
        return 1.0 + self.omega_p**2 / (self.omega_0**2 - w**2 - 1j * self.gamma * w)


MaterialModel = Union[PerfectMirror, Plasma, Drude, ConstantEps, Lorentz]

# The medium surrounding / separating the objects is described by the same
# dispersion models; vacuum is the unit dielectric.
Medium = MaterialModel

VACUUM = ConstantEps(1.0)


def eps_imag_axis(model, xi):
    """Permittivity at imaginary frequency, eps(i xi), real and >= 1.

    Parameters
    ----------
    model : MaterialModel
    xi : float or ndarray
        Imaginary frequency, rad/s, finite and > 0.

    Returns
    -------
    float or ndarray
        PerfectMirror returns +inf as a sentinel.

    Raises
    ------
    DomainError
        For xi outside (0, inf), or where (i xi)^2 underflows to zero
        (xi below about 1e-154 for Plasma and undamped Drude), which would
        turn eps -> +inf into -inf.
    """
    xi = np.asarray(xi, dtype=float)
    if not np.all((xi > 0) & (xi < math.inf)):
        raise DomainError("imaginary frequency must be finite and > 0")
    if isinstance(model, PerfectMirror):
        out = np.full_like(xi, math.inf)
    else:
        out = model.permittivity(1j * xi).real
        if not np.all(out >= 1):
            raise DomainError(f"eps(i xi) of {model!r} is not representable at xi = {xi.min():g}")
    return out if out.ndim else float(out)


def eps_real_axis(model, omega):
    """Permittivity at (possibly complex) frequency with Im omega >= 0.

    Uses the causal forms with +i gamma damping; at omega = i xi this
    reduces to eps_imag_axis.
    """
    w = np.asarray(omega, dtype=complex)
    if np.any(w == 0):
        raise DomainError("frequency must be nonzero")
    if isinstance(model, PerfectMirror):
        raise DomainError("perfect mirror has no finite permittivity")
    out = model.permittivity(w)
    return out if out.ndim else complex(out)


def is_dissipative(model):
    """True when the model has a strictly positive damping rate."""
    return getattr(model, "gamma", 0.0) > 0


# config name -> model; the parameters are the model's fields
_MODELS = {"perfect_mirror": PerfectMirror, "mirror": PerfectMirror, "ideal": PerfectMirror,
           "plasma": Plasma, "drude": Drude, "constant_eps": ConstantEps,
           "dielectric": ConstantEps, "lorentz": Lorentz, "vacuum": lambda: VACUUM}


def material_from_dict(spec):
    """Build a material from a config mapping, e.g.
    {"model": "drude", "omega_p": 1.37e16, "gamma": 5.3e13}, or from a bare
    model name. The other keys of the mapping are the model's fields, as
    numbers; a missing, unknown or rejected field raises ValueError.

    Recognized models: perfect_mirror (mirror, ideal) | plasma | drude |
    constant_eps (dielectric) | lorentz | vacuum; "-" may stand for "_".
    """
    if isinstance(spec, str):
        spec = {"model": spec}
    if not isinstance(spec, dict):
        raise ValueError(f"material spec must be a model name or a mapping, got {spec!r}")
    params = dict(spec)
    kind = str(params.pop("model", "")).lower().replace("-", "_")
    if kind not in _MODELS:
        raise ValueError(f"unknown material model {spec!r}")
    try:
        return _MODELS[kind](**params)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"material spec {spec!r}: {exc}") from None
