"""Exception hierarchy shared by all tndpq modules."""


class TndpqError(Exception):
    """Base class for every error raised by this package."""


class ParseError(TndpqError):
    """Malformed concrete syntax.  Carries the character position."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class UnknownSymbol(TndpqError):
    """A variable or atomic-value name does not resolve in the schema."""


class IllFormed(TndpqError):
    """Structurally invalid judgment (e.g. a product value in an antecedent)."""


class SchemaMismatch(TndpqError):
    """Training data does not fit the declared schema."""


class MixedVariables(TndpqError):
    """A single-variable value mentions atoms of two distinct variables."""


class ShapeMismatch(TndpqError):
    """Value shape does not match the subject term, or premises do not fit a rule."""


class OracleTooLarge(TndpqError):
    """Brute-force enumeration would exceed the atom budget."""


class ZeroDenominator(TndpqError):
    """A rule formula would divide by zero; names the offending premise."""


class SideConditionUnproved(TndpqError):
    """Exclusivity or independence required by a rule could not be discharged."""


class ConsistencyError(TndpqError):
    """Premises jointly violate the laws of probability."""


class ProvenanceMismatch(TndpqError):
    """Tagged premises disagree on (training set, estimator)."""


class UnknownCondition(TndpqError):
    """An attribution list cannot be evaluated by the probability source."""


class EmptySupport(TndpqError):
    """No training row satisfies the attribution list."""


class InvariantViolation(TndpqError):
    """A stored distribution fails its well-formedness checks."""


class IncomparableSystems(TndpqError):
    """Trust comparison between systems over different variables, atoms or sigma."""


class PreconditionFailed(TndpqError):
    """A theorem hypothesis required before a check does not hold."""


class DerivationFailed(TndpqError):
    """A value could not be derived for a term by the rule engine."""


class RuleNotAllowed(TndpqError):
    """A construction/deconstruction plan uses a rule outside its allowed set."""


class NothingToCompare(TndpqError):
    """A trust check was given no atoms, probe values, contexts or targets."""
