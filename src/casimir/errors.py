"""Exception types shared across the package."""


class CasimirError(Exception):
    """Base class for all package errors."""


class SingularMatrix(CasimirError):
    """The LU factorisation met an exactly zero pivot."""


class SingularBlock(CasimirError):
    """A matrix block that must be inverted is numerically singular."""


class NotUnitary(CasimirError):
    """A matrix required to be unitary fails the unitarity tolerance."""


class NotContraction(CasimirError):
    """Largest singular value exceeds 1 beyond tolerance."""


class ChannelMismatch(CasimirError):
    """Scattering matrices have incompatible channel counts."""


class ResonantSingular(CasimirError):
    """The round-trip resolvent (1 - S2ii S1ii) is singular.

    Physically: a lossless, perfectly resonant cavity at a real frequency.
    """


class BranchJump(CasimirError):
    """Eigenphase continuity was lost between two frequency samples.

    Callers should retry with a smaller frequency step.
    """


class BranchRisk(CasimirError):
    """Spectral radius of the round-trip matrix is >= 1.

    log det(1 - M) is no longer guaranteed branch-safe.
    """


class DomainError(CasimirError):
    """Argument outside the mathematical domain of the operation."""


class NotConverged(CasimirError):
    """Quadrature or truncation refinement hit its limit before the tolerance.

    The best available result is attached as the ``result`` attribute.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class OscillatoryFailure(CasimirError):
    """Adaptive subdivision of an oscillatory integral exceeded the depth limit."""
