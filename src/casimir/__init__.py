"""Casimir interaction energies from unitary scattering matrices with
explicit dissipation channels.

The package provides block scattering-matrix composition (star product)
with its determinant factorization identities, dispersion models, and
interaction-energy evaluation for plane-plane and sphere-sphere
geometries with lossy materials and a lossy intervening medium.
"""

from . import blockmat, core, materials, plane, scattering, sphere
from .core import C_LIGHT, HBAR, EnergyResult, QuadratureSpec
from .errors import (
    BranchJump,
    BranchRisk,
    CasimirError,
    ChannelMismatch,
    DomainError,
    NotContraction,
    NotConverged,
    NotUnitary,
    OscillatoryFailure,
    ResonantSingular,
    SingularBlock,
    SingularMatrix,
)
from .materials import (
    VACUUM,
    ConstantEps,
    Drude,
    Lorentz,
    PerfectMirror,
    Plasma,
    eps_imag_axis,
)
from .plane import (
    PlaneSystem,
    energy_per_area,
    energy_per_area_real_axis,
    ideal_energy_per_area,
)
from .scattering import (
    RoundTrip,
    ScatteringMatrix,
    alpha_phase,
    chain3_factorization_residual,
    det_composition_residual,
    dos_change,
    round_trip,
    round_trip_series,
    star,
    translation_scatterer,
)
from .sphere import (
    SphereSystem,
    mie_amplitudes,
    sphere_energy,
    translation_block,
)

__version__ = "0.1.0"
