"""Exception hierarchy shared by all sbpkit modules."""

from __future__ import annotations

__all__ = [
    "SbpError", "InvariantError", "ShapeError", "ParameterError", "ContractError",
    "ParseError", "SchemaError", "SingularNormError", "IndefiniteNormError",
    "DecompositionError", "RepairImpossibleError", "SingularSystemError",
    "InternalInconsistencyError",
]


class SbpError(Exception):
    """Base class for every error raised by sbpkit."""


class InvariantError(SbpError, ValueError):
    """A structural invariant of a domain object is violated.

    Examples: duplicate grid nodes, an empty interval, mismatched shapes
    between the matrices and the node vector.
    """


class ShapeError(SbpError, ValueError):
    """Array arguments do not conform in shape or length."""


class ParameterError(SbpError, ValueError):
    """A numeric parameter is outside its admissible range."""


class ContractError(SbpError, ValueError):
    """A documented precondition of an operation is violated by the caller."""


class ParseError(SbpError, ValueError):
    """An operator document cannot be parsed at all."""


class SchemaError(SbpError, ValueError):
    """An operator document parses but violates the document schema.

    Carries ``path``, the location of the offending field (e.g. ``"H"`` or
    ``"interval[1]"``).
    """

    def __init__(self, message: str, path: str = "") -> None:
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class SingularNormError(SbpError):
    """The norm matrix H is singular and cannot be solved against."""


class IndefiniteNormError(SbpError):
    """Interpolatory quadrature weights are not all positive.

    Carries ``weights``, the offending diagonal entries.
    """

    def __init__(self, message: str, weights=None) -> None:
        super().__init__(message)
        self.weights = weights


class DecompositionError(SbpError):
    """An eigenvalue or singular value iteration failed to converge."""


class RepairImpossibleError(SbpError):
    """The operator is not nullspace consistent; a zero eigenvalue cannot be
    moved by the dissipation construction."""


class SingularSystemError(SbpError):
    """The assembled boundary-penalized system is numerically singular."""


class InternalInconsistencyError(SbpError):
    """Two independent diagnostic routes disagree beyond tolerance."""
