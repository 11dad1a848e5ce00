"""Logical construction and deconstruction of applied systems.

Construction builds judgments for compound values using only right
introduction rules; deconstruction recovers component judgments using only
right elimination rules.  Both restrict a plan's rules and run it through
`calculus.run_plan`, whose `Plan` and `PlanStep` this module re-exports.
The module also provides the preservation checker that runs one plan
against an original system and a copy and reports whether the chosen trust
relation survives.
"""

from __future__ import annotations

from .errors import (
    DerivationFailed,
    PreconditionFailed,
    RuleNotAllowed,
    TndpqError,
)
from .calculus import (
    RULES, Derivation, Plan, PlanStep, RuleId, RuleKind, apply_rule, at_query, independence_fact, run_plan,
)
from .syntax import (
    Arrow,
    Atom,
    AtomVal,
    AttributeSchema,
    Cond,
    Neg,
    Or,
    Pair,
    Prod,
    Value,
    ValueAttribution,
    VariableTerm,
    print_term,
    print_value,
    reduce_projections,
)
from .systems import AppliedSystem, Learner
from .trust import TrustKind, TrustProfile, TrustReport

# Rules admissible in each mode, as (rule, direction) pairs, read from the
# rule table: a double-line rule introduces forward and eliminates backward.
RIGHT_I_RULES = frozenset(
    (rule, "forward")
    for rule, entry in RULES.items()
    if entry.kind in (RuleKind.RIGHT_I, RuleKind.DOUBLE_LINE)
)
RIGHT_E_RULES = frozenset(
    (rule, "backward" if entry.kind is RuleKind.DOUBLE_LINE else "forward")
    for rule, entry in RULES.items()
    if entry.kind in (RuleKind.RIGHT_E, RuleKind.DOUBLE_LINE)
)


def _run_restricted(inputs: dict, plan: Plan, schema, allowed, kind: str) -> Derivation:
    if not plan.steps:
        raise RuleNotAllowed("empty plan")
    for step in plan.steps:
        if (step.rule, step.direction) not in allowed:
            name = step.rule.value if isinstance(step.rule, RuleId) else step.rule
            raise RuleNotAllowed(f"{name} ({step.direction}) is not a right {kind} rule")
    return run_plan(inputs, plan, schema)[plan.result_id]


def construct(inputs: dict, plan: Plan, schema: AttributeSchema) -> Derivation:
    """Run a plan restricted to right introduction rules."""
    return _run_restricted(inputs, plan, schema, RIGHT_I_RULES, "introduction")


def deconstruct(inputs: dict, plan: Plan, schema: AttributeSchema) -> Derivation:
    """Run a plan restricted to right elimination rules."""
    return _run_restricted(inputs, plan, schema, RIGHT_E_RULES, "elimination")


# ---------------------------------------------------------------------------
# Automatic derivation of compound values


def derive_value(
    source, sigma, term: VariableTerm, value: Value, schema: AttributeSchema
) -> Derivation:
    """Derive sigma |> term : value through right introduction rules only.

    Atoms come from queries against the source; disjunctions use exclusive
    introduction, negations the double-line negation rule, conditionals the
    residuation rule, and products either the conditional introduction (for
    an atomic left component) or the independence rule.  A pair source is
    read through a `Learner` for this call, or one the verdict's calls share.
    """
    term = reduce_projections(term)
    sigma = tuple(sigma)
    if not isinstance(source, (AppliedSystem, Learner)):
        source = Learner(source)
    try:
        return _derive(source, sigma, term, value, schema)
    except TndpqError as exc:
        if isinstance(exc, DerivationFailed):
            raise
        raise DerivationFailed(
            f"cannot derive {print_value(value)} for {print_term(term)}: {exc}"
        ) from exc


def _derive(source, sigma, term, value, schema) -> Derivation:
    if isinstance(value, AtomVal):
        if not isinstance(term, Atom):
            raise DerivationFailed(
                f"atomic value {value.name} for non-atomic term {print_term(term)}"
            )
        system = source if isinstance(source, AppliedSystem) else source(sigma, term.name)
        return at_query(system, sigma, term.name, value.name)
    if isinstance(value, Neg):
        inner = _derive(source, sigma, term, value.inner, schema)
        return apply_rule(RuleId.NegIER, [inner], schema)
    if isinstance(value, Or):
        left = _derive(source, sigma, term, value.left, schema)
        right = _derive(source, sigma, term, value.right, schema)
        return apply_rule(RuleId.OrIR, [left, right], schema)
    if isinstance(value, Arrow):
        if not isinstance(term, Cond) or not isinstance(reduce_projections(term.antecedent), Atom):
            raise DerivationFailed(
                f"conditional value needs a conditional term with an atomic antecedent, got {print_term(term)}"
            )
        antecedent = reduce_projections(term.antecedent)
        extended = sigma + (ValueAttribution(antecedent.name, value.left),)
        body = _derive(source, extended, reduce_projections(term.consequent), value.right, schema)
        return apply_rule(RuleId.ImpIE, [body], schema)
    if isinstance(value, Prod):
        if not isinstance(term, Pair):
            raise DerivationFailed(
                f"product value for non-pair term {print_term(term)}"
            )
        left_term = reduce_projections(term.left)
        right_term = reduce_projections(term.right)
        if isinstance(left_term, Atom):
            try:
                # conditional route: sigma, t:beta |> u:delta then I-times-1
                minor = _derive(source, sigma, left_term, value.left, schema)
                extended = sigma + (ValueAttribution(left_term.name, value.left),)
                major = _derive(source, extended, right_term, value.right, schema)
                return apply_rule(RuleId.ProdI1, [major, minor], schema)
            except TndpqError:
                pass
        if isinstance(source, Learner) and isinstance(left_term, Atom) and isinstance(right_term, Atom):
            fact = independence_fact(source, sigma, left_term.name, right_term.name)
            if not fact["verdict"]:
                raise DerivationFailed(
                    f"components of {print_value(value)} are neither conditionally "
                    f"derivable nor independent (max deviation {fact['max_deviation']:.3g})"
                )
            right_d = _derive(source, sigma, right_term, value.right, schema)
            left_d = _derive(source, sigma, left_term, value.left, schema)
            return apply_rule(RuleId.ProdIIndep, [right_d, left_d], schema, side=[fact])
        raise DerivationFailed(
            f"no introduction route for {print_value(value)} over {print_term(term)}"
        )
    raise DerivationFailed(f"unrecognized value {print_value(value)}")


def zero_probe_values(term: VariableTerm, schema: AttributeSchema):
    """Negation-free single-connective probes fitting the term's shape."""
    term = reduce_projections(term)
    if isinstance(term, Atom):
        atoms = [AtomVal(a) for a in schema.atoms(term.name)]
        probes = list(atoms)
        for i, a in enumerate(atoms):
            for b in atoms[i + 1 :]:
                probes.append(Or(a, b))
        return probes
    if isinstance(term, Pair):
        return [
            Prod(left, right)
            for left in zero_probe_values(term.left, schema)
            if isinstance(left, AtomVal)
            for right in zero_probe_values(term.right, schema)
            if isinstance(right, AtomVal)
        ]
    return [
        Arrow(left, right)
        for left in zero_probe_values(term.antecedent, schema)
        if isinstance(left, AtomVal)
        for right in zero_probe_values(term.consequent, schema)
        if isinstance(right, AtomVal)
    ]


# ---------------------------------------------------------------------------
# Preservation


def _preservation_guaranteed(kind: TrustKind, mode: str, plan: Plan) -> tuple[bool, str]:
    """Whether a theorem covers this kind/mode/plan combination."""
    if kind.name == "JT":
        return True, "construction and deconstruction preserve JT"
    if kind.name == "ET":
        if mode == "construct":
            return True, "construction preserves ET"
        return True, "deconstruction into sub-values preserves ET"
    if mode == "deconstruct":
        return False, f"no theorem covers {kind.name} under deconstruction"
    if any(step.rule == RuleId.NegIER and step.direction == "forward" for step in plan.steps):
        return False, f"{kind.name} preservation is proved for negation-free construction only"
    return True, f"negation-free construction preserves {kind.name}"


def verify_preservation(
    orig_inputs: dict,
    copy_inputs: dict,
    plan: Plan,
    kind: TrustKind,
    mode: str,
    schema: AttributeSchema,
    tol: float = 0.0,
) -> TrustReport:
    """Run one plan on an original and a copy and check trust preservation.

    Input derivations are first verified pairwise for the stated kind.  Each
    input, like the result, is compared as a one-entry list, so the kind's
    prefix length plays no part.  The report's warning field marks verdicts
    that are merely empirical because no preservation theorem covers the
    combination.
    """
    if mode not in ("construct", "deconstruct"):
        raise PreconditionFailed(f"unknown mode {mode!r}")
    if set(orig_inputs) != set(copy_inputs):
        raise PreconditionFailed("original and copy input names differ")
    for name in orig_inputs:
        f = orig_inputs[name].conclusion.probability
        g = copy_inputs[name].conclusion.probability
        if not TrustProfile((f,), (g,), tol).holds(kind.name):
            raise PreconditionFailed(
                f"inputs {name!r} do not stand in {kind}: original {f!r}, copy {g!r}"
            )
    guaranteed, reason = _preservation_guaranteed(kind, mode, plan)
    runner = construct if mode == "construct" else deconstruct
    result_orig = runner(orig_inputs, plan, schema)
    result_copy = runner(copy_inputs, plan, schema)
    label = print_value(result_orig.conclusion.value)
    entry = [(label, result_orig.conclusion.probability, result_copy.conclusion.probability)]
    report = TrustReport(kind)
    report.record(entry, entry, tol)
    if not guaranteed:
        report.warning = f"empirical verdict only: {reason}"
    return report
