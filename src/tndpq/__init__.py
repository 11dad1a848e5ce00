"""Probabilistic judgment calculus and trust verification over tabular data.

The public surface re-exports the most common entry points; the modules
themselves stay importable for the full APIs:

- syntax: grammar, terms, values, judgments, schemas
- exclusivity: mutual-exclusivity decision procedure and oracle
- systems: training tables, estimators, applied systems
- calculus: inference rules, derivations, plans and their executor, checking
- trust: JT/ET/WT/AT relations, algebra, chains
- construction: rule-restricted plans, derived values, preservation
- cli: the command-line entry point

Names and submodules are imported when first read (PEP 562), so that a CLI
command loads only the layers it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each submodule and the names it exports.
_LAYERS = {
    "errors": "TndpqError",
    "syntax": "AttributeSchema Judgment load_schema parse_judgment parse_term parse_value print_judgment",
    "exclusivity": "exclusive oracle_exclusive",
    "systems": "AppliedSystem Estimator TrainingSet conditional_distribution independent load_training_set",
    "calculus": "Derivation Plan PlanStep RuleId apply_rule at_query check_derivation run_plan",
    "trust": "at build_chain check_local compose_square et jt verify_algebra wt",
    "construction": "construct deconstruct derive_value verify_preservation",
    "cli": "",
}
_EXPORTS = {name: module for module, names in _LAYERS.items() for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _LAYERS:
        value = import_module(f"{__name__}.{name}")
    elif name in _EXPORTS:
        value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
