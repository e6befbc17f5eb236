"""Exception types shared across the package."""


class WorkbenchError(Exception):
    """Base class for every error this package raises on purpose."""


class DuplicateAtomName(WorkbenchError):
    pass


class EmptyAtomName(WorkbenchError):
    pass


class InvalidAtomName(WorkbenchError):
    pass


class UnknownAtom(WorkbenchError):
    pass


class UnknownId(WorkbenchError):
    pass


class EmptySetForbidden(WorkbenchError):
    """Raised when an operation would have to produce a memberless set."""


class CapExceeded(WorkbenchError):
    """A build stage or constructor would push the universe past its cap."""

    def __init__(self, required: int, max_sets: int, stage: int | None = None):
        self.required = required
        self.max_sets = max_sets
        self.stage = stage
        where = f"stage {stage}" if stage is not None else "interning"
        super().__init__(
            f"{where} needs {_count(required)} sets, exceeding the cap of {max_sets}"
        )


def _count(n: int) -> str:
    """``n`` in decimal, or as a power of two when it is too long to print."""
    if n.bit_length() <= 1000:
        return str(n)
    # A stage or powerset of k sets needs 2**k - 1.
    if n & (n + 1) == 0:
        return f"2**{n.bit_length()} - 1"
    return f"over 2**{n.bit_length() - 1}"


class ParseError(WorkbenchError):
    """Syntax error in some surface notation, with a character position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class FormulaSyntaxError(ParseError):
    pass


class LiteralSyntaxError(ParseError):
    pass


class UnboundVariable(WorkbenchError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"free variable {name!r} has no binding")


class WrongArity(WorkbenchError):
    """A one-variable criterion had the wrong set of free variables."""


class NotAtom(WorkbenchError):
    pass


class AtomsEqual(WorkbenchError):
    pass


class MalformedSequence(WorkbenchError):
    pass


class UniverseFormatError(WorkbenchError):
    """A universe file does not round-trip to a valid universe."""
