"""Exception hierarchy for the laboratory.

Every failure mode that callers are expected to handle gets its own class;
generic ValueError/TypeError are reserved for plain misuse (wrong shapes,
non-finite input).
"""


class IsomlabError(Exception):
    """Base class for all package-specific failures."""


class EigenSolverError(IsomlabError):
    """Eigenvalue solver failed; usually signals severe ill-conditioning."""


class JordanChainError(IsomlabError):
    """Jordan chain structure could not be resolved within tolerance.

    Callers should coarsen the rank tolerance or treat the input as
    numerically degenerate.
    """


class ResonanceError(IsomlabError):
    """A Sylvester-type operator is singular because two spectra meet.

    Carries the offending eigenvalue pair so callers can report which
    resonance blocked the computation.
    """

    def __init__(self, message, pair=None, order=None):
        super().__init__(message)
        self.pair = pair
        self.order = order


class CoincidentPointsError(IsomlabError):
    """Two deformation parameters u_i, u_j coincide where distinctness is required."""


class AdmissibilityError(IsomlabError):
    """The chosen direction tau lies on (or too close to) a Stokes ray."""


class SectorError(IsomlabError):
    """A point or direction violates sector bounds, or a sector overlap is empty."""


class WallError(IsomlabError):
    """A u-path touches the coalescence locus or the crossing locus."""


class IntegrationError(IsomlabError):
    """Numerical path integration failed (step collapse or tolerance not met)."""


class InputFormatError(IsomlabError):
    """A system or path file is malformed; message names the offending field."""
