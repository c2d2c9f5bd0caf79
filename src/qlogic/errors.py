"""Exception types shared across the package."""

from __future__ import annotations


class QLogicError(Exception):
    """Base class for every error raised by this package."""


class FormulaSyntaxError(QLogicError):
    """Malformed formula text; ``position`` is the 1-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class DepthLimitExceeded(QLogicError):
    """Requested enumeration depth is above the combinatorial guard."""


class QuantumNodeInClassicalEval(QLogicError):
    """A quantum connective reached the two-valued classical evaluator."""


class ObjectOutOfRange(QLogicError):
    """Object index is not inside the state's universe."""


class UnknownPredicate(QLogicError):
    """Formula mentions a predicate the model does not declare."""


class UnknownState(QLogicError):
    """Operation addressed a state the model does not declare."""


class ModelValidationError(QLogicError):
    """A model or spec file violates its schema or internal invariants."""


class DimensionMismatch(QLogicError):
    """Subspace operands live in different ambient dimensions."""


class ZeroVector(QLogicError):
    """A state vector (or spanning vector) is identically zero."""


class ClosureOverflow(QLogicError):
    """Lattice closure exceeded its element cap; carries the generators."""

    def __init__(self, message: str, generators: tuple = ()):
        super().__init__(message)
        self.generators = tuple(generators)


class UniverseTooSmall(QLogicError):
    """Universe cannot host a proper nonempty extension (needs n >= 2)."""


class NotTestable(QLogicError):
    """A classical subformula has no property predicate with its signature.

    Given a formula, the message is ``message`` followed by the formula,
    rendered only when the message is read: callers that fall back to
    classical evaluation never pay for it.
    """

    def __init__(self, message: str, formula: object = None):
        args = (message,) if formula is None else (message, formula)
        super().__init__(*args)
        self.formula = formula

    def __str__(self) -> str:
        return self.args[0] if self.formula is None else f"{self.args[0]} {self.formula}"


class MissingTheta(QLogicError):
    """Quantum evaluation requested on a model without Hilbert provenance."""


class PostconditionFailed(QLogicError):
    """A built object breaks a guarantee its construction promises."""
