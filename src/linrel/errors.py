"""Exception types shared across the package."""


class StructureError(ValueError):
    """Base class for structural validation failures."""


class DuplicateNameError(StructureError):
    pass


class UnknownElementError(StructureError):
    pass


class CyclicOrderError(StructureError):
    pass


class NotALatticeError(StructureError):
    pass


class MonoidError(StructureError):
    """Raised when a monoid table is not commutative, not associative,
    not cancellative, or the requested shift is not invertible."""


class MismatchError(StructureError):
    """Boundary, dimension, or ambient-structure mismatch between operands."""


class NoParStructureError(StructureError):
    pass


class NotGirardError(StructureError):
    pass


class NotClosedError(StructureError):
    """A construction's cells are not closed under its composition;
    ``witness`` names a composite that leaves them."""

    def __init__(self, witness: dict):
        super().__init__(witness["note"])
        self.witness = witness


class SearchSpaceError(StructureError):
    """A brute-force search would exceed its configured cap."""


class InputFormatError(StructureError):
    """Malformed JSON input; the message carries field context."""
