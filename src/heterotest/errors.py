"""Exception types shared across the toolkit.

Validation *violations* are ordinary data (see ``validate_*`` functions);
exceptions are reserved for conditions that make an operation impossible.
"""

from .records import record


@record
class Violation:
    """A single well-formedness violation, located for the report."""

    where: str
    message: str

    def __str__(self):
        return f"{self.where}: {self.message}"


class HeterotestError(Exception):
    """Base class for all toolkit errors."""


class SchemaError(HeterotestError):
    """A model file does not conform to its JSON schema."""


class UsageError(HeterotestError):
    """A command lacks a flag that its kind of model needs."""


class InvalidModel(HeterotestError):
    """A model failed the structural checks of ``validate``."""

    def __init__(self, kind, violations):
        super().__init__(f"{kind} model has {len(violations)} violation(s)")
        self.violations = tuple(violations)


class TermError(HeterotestError):
    """A pattern or update expression is malformed or cannot be evaluated."""


class MissingSampleError(HeterotestError):
    """An open memory domain was used without a declared finite sample."""


class BranchBoundExceeded(HeterotestError):
    """Run exploration hit the simultaneous-branch bound."""


class ExplosionBoundExceeded(HeterotestError):
    """An enumeration exceeded its cap: rule assignments, branches, the
    values of a memory domain, or the cases of a test suite."""


class NondeterministicInput(HeterotestError):
    """An automaton operation requires a deterministic automaton."""


class UnreachableStateError(HeterotestError):
    """An automaton operation requires every state to be reachable."""


class NotMinimalError(HeterotestError):
    """Two states of the automaton cannot be separated."""


class DftFailure(HeterotestError):
    """A design-for-test precondition failed; carries the full report."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class NondeterministicProduct(HeterotestError):
    """The product machine's associated automaton is nondeterministic."""


class AlphabetCollision(HeterotestError):
    """A reserved or extension symbol collides with a declared alphabet."""


class PortIncompatibility(HeterotestError):
    """Base and control port domains do not fit together."""


class DepthCapExceeded(HeterotestError):
    """A wrapped P system failed to halt within its step cap."""


class OracleTimeout(HeterotestError):
    """The external oracle did not answer within its budget."""


class OracleInvalidResult(HeterotestError):
    """The external oracle returned a malformed or out-of-model result."""


class DeadlockError(HeterotestError):
    """A heterotic run stopped with no enabled move before completing."""


class NoValidMutants(HeterotestError):
    """Every candidate mutant was invalid or a duplicate."""


class EmptyMutantSet(HeterotestError):
    """Scoring requires at least one mutant."""
