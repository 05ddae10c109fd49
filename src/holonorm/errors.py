"""Error taxonomy shared across the engine; the CLI maps these to exit codes."""


class HolonormError(Exception):
    """Base class for engine errors."""


class ArityError(HolonormError):
    """Series with mismatched variable lists were combined."""


class OrderGuaranteeError(HolonormError):
    """An operation cannot certify exactness at the requested order."""


class NotInvertibleError(HolonormError):
    """Jet map with singular linear part."""


class FlowOrderError(HolonormError):
    """Flow precondition violated: a term of weighted order < 1."""


class NotNormalCoordinatesError(HolonormError):
    """Hypersurface data contains harmonic terms where none are allowed."""


class InconsistentTangencyError(HolonormError):
    """Input data contradicts what tangency to a Levi-nonflat surface forces."""


class NotIntegralManifoldError(HolonormError):
    """Tangency residual does not vanish through the requested order."""


class SeedInvalidError(HolonormError):
    """Realization seed violates homogeneity, reality or shape requirements."""


class WrongBranchError(HolonormError):
    """Parameters select a different normalization branch."""


class CertificateError(HolonormError):
    """Majorant certificate inequality failed (an implementation bug)."""


class ParseError(HolonormError):
    """Malformed input file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class OutputError(HolonormError):
    """An output file cannot be written."""


class InternalError(HolonormError):
    """A solve the theory guarantees failed; never a silent skip."""
