"""Probabilistic judgment calculus and trust verification over tabular data.

The public surface re-exports the most common entry points; the modules
themselves stay importable for the full APIs:

- syntax: grammar, terms, values, judgments, schemas
- exclusivity: mutual-exclusivity decision procedure and oracle
- systems: training tables, estimators, applied systems
- calculus: inference rules, derivations, checking
- trust: JT/ET/WT/AT relations, algebra, chains
- construction: plans, closures, preservation
- cli: the command-line entry point
"""

from .errors import TndpqError
from .syntax import (
    AttributeSchema,
    Judgment,
    load_schema,
    parse_judgment,
    parse_term,
    parse_value,
    print_judgment,
)
from .exclusivity import exclusive, oracle_exclusive
from .systems import (
    AppliedSystem,
    Estimator,
    TrainingSet,
    conditional_distribution,
    independent,
    load_training_set,
)
from .calculus import Derivation, RuleId, apply_rule, at_query, check_derivation
from .trust import at, build_chain, check_local, compose_square, et, jt, verify_algebra, wt
from .construction import (
    ClosureSpec,
    Plan,
    PlanStep,
    closure_member,
    construct,
    deconstruct,
    derive_value,
    verify_preservation,
)

__version__ = "0.1.0"

__all__ = [
    "AppliedSystem",
    "AttributeSchema",
    "ClosureSpec",
    "Derivation",
    "Estimator",
    "Judgment",
    "Plan",
    "PlanStep",
    "RuleId",
    "TndpqError",
    "TrainingSet",
    "apply_rule",
    "at",
    "at_query",
    "build_chain",
    "check_derivation",
    "check_local",
    "closure_member",
    "compose_square",
    "conditional_distribution",
    "construct",
    "deconstruct",
    "derive_value",
    "et",
    "exclusive",
    "independent",
    "jt",
    "load_schema",
    "load_training_set",
    "oracle_exclusive",
    "parse_judgment",
    "parse_term",
    "parse_value",
    "print_judgment",
    "verify_algebra",
    "verify_preservation",
    "wt",
]
