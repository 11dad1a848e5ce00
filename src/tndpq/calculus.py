"""The inference-rule engine.

Every rule pairs a schematic premise shape with a probability formula.
`apply_rule` matches concrete premise derivations against the shapes,
discharges side conditions (mutual exclusivity through the decision
procedure, independence through a numeric test or explicit assertion),
computes the conclusion probability and returns an immutable derivation
tree.  A `Plan` is an ordered list of rule applications over named
derivations, and `run_plan` applies it step by step.  `check_derivation`
re-verifies a tree node by node.

Naming: I-rules introduce a connective in the conclusion, E-rules eliminate
one; the trailing digit or letter distinguishes variants that conclude
different premise slots.  The rule table `RULES` gives each rule but the
axiom AtQuery its premise count, its handler and its kind, one of four: a
right introduction or right elimination rule works on the conclusion's
subject and value, a left rule on its antecedent, and a double-line rule
(ImpIE, NegIER) introduces read forward and eliminates read backward.

The nine left rules share one handler, `_rule_left`, which reads their
premise forms from a second table, `_LEFT`.  Every premise of a left rule,
and its conclusion, is a judgment over one context σ, one atomic variable
t and one query u : δ, in one of three forms: X is σ |> t : X, u is
σ |> u : δ, and X| is σ, t : X |> u : δ, where X is γ, β, γ+β or ~β.  A
row gives the forms of the premises f, g, h, i in order, the conclusion's
form and the probability formula.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass

from .errors import (
    ConsistencyError,
    ProvenanceMismatch,
    RuleNotAllowed,
    ShapeMismatch,
    SideConditionUnproved,
    TndpqError,
    UnknownCondition,
    ZeroDenominator,
)
from .exclusivity import exclusive
from .syntax import (
    Arrow,
    Atom,
    AtomVal,
    AttributeSchema,
    Cond,
    Fst,
    Judgment,
    Neg,
    Or,
    Pair,
    Prod,
    Snd,
    ValueAttribution,
    VariableTerm,
    fresh,
    print_judgment,
    print_term,
    print_value,
    record,
    reduce_projections,
    require_linear,
    same_sigma,
)
from .systems import AppliedSystem, Learner, conditional_distribution

_TOL = 1e-9


class RuleId(str, enum.Enum):
    AtQuery = "AtQuery"
    ImpIE = "ImpIE"
    ProdI1 = "ProdI1"
    ProdI2 = "ProdI2"
    ProdE1a = "ProdE1a"
    ProdE1b = "ProdE1b"
    ProdE2a = "ProdE2a"
    ProdE2b = "ProdE2b"
    OrIR = "OrIR"
    OrERa = "OrERa"
    OrERb = "OrERb"
    OrIL = "OrIL"
    OrELa = "OrELa"
    OrELb = "OrELb"
    OrELc = "OrELc"
    OrELd = "OrELd"
    NegIER = "NegIER"
    NegIL = "NegIL"
    NegELa = "NegELa"
    NegELb = "NegELb"
    NegELc = "NegELc"
    ProdIIndep = "ProdIIndep"


# Stays a dataclass: the benchmark's worker rebuilds derivations with `dataclasses.replace`.
@dataclass(frozen=True)
class Derivation:
    conclusion: Judgment
    rule: RuleId
    premises: tuple["Derivation", ...] = ()
    side_conditions: tuple[dict, ...] = ()
    provenance: tuple[str, str] | None = None
    direction: str = "forward"


class RuleKind(enum.Enum):
    RIGHT_I = "right introduction"
    RIGHT_E = "right elimination"
    DOUBLE_LINE = "double-line"
    LEFT = "left"


@record(frozen=True)
class Rule:
    """One row of the rule table: a rule's premise count, handler and kind."""

    id: RuleId
    premises: int
    handler: Callable
    kind: RuleKind


# ---------------------------------------------------------------------------
# Axioms


def at_query(source, sigma, variable: str, atom: str) -> Derivation:
    """Leaf derivation importing P(variable=atom | sigma) from a system.

    `source` is either an (TrainingSet, Estimator) pair or a precomputed
    AppliedSystem whose context and target must match the query.
    """
    sigma = tuple(sigma)
    if isinstance(source, AppliedSystem):
        system = source
        if system.variable != variable or not same_sigma(system.sigma, sigma):
            raise UnknownCondition(
                "stored applied system does not cover the requested context"
            )
    else:
        ts, est = source
        system = conditional_distribution(ts, est, sigma, variable)
    conclusion = Judgment(sigma, Atom(variable), AtomVal(atom), system.probability(atom))
    return Derivation(conclusion, RuleId.AtQuery, (), (), (system.training, system.estimator))


# ---------------------------------------------------------------------------
# Rule application machinery


def _merge_provenance(premises) -> tuple[str, str] | None:
    tags = {p.provenance for p in premises if p.provenance is not None}
    if len(tags) > 1:
        raise ProvenanceMismatch(f"premises tagged with {sorted(tags)}")
    return tags.pop() if tags else None


def _finish(p: float, rule: RuleId) -> float:
    if p < -_TOL or p > 1.0 + _TOL:
        raise ConsistencyError(f"{rule.value} gives probability {p!r}, outside [0, 1]")
    return min(1.0, max(0.0, p))


def _nonzero(x: float, rule: RuleId, what: str) -> float:
    if x == 0.0:
        raise ZeroDenominator(f"{rule.value}: {what} is zero")
    return x


def _extension(judgment: Judgment, base_sigma) -> ValueAttribution:
    """The one attribution the judgment's antecedent adds to base_sigma, neither naming a variable twice."""
    extra = [va for va in judgment.antecedent if va not in base_sigma]
    if len(extra) != 1 or len(judgment.antecedent) != len(base_sigma) + 1:
        raise ShapeMismatch(
            f"antecedent of {print_judgment(judgment)} does not extend the context by one attribution"
        )
    return extra[0]


def _require(condition: bool, rule: RuleId, message: str) -> None:
    if not condition:
        raise ShapeMismatch(f"{rule.value}: {message}")


def _as_atom(term: VariableTerm, rule: RuleId) -> Atom:
    term = reduce_projections(term)
    if not isinstance(term, Atom):
        raise ShapeMismatch(
            f"{rule.value}: {print_term(term)} cannot appear in an antecedent"
        )
    return term


def _same_subject(a: VariableTerm, b: VariableTerm) -> bool:
    return reduce_projections(a) == reduce_projections(b)


def _exclusivity_evidence(term, left, right, schema, rule) -> dict:
    if not exclusive(term, left, right, schema):
        raise SideConditionUnproved(
            f"{rule.value}: {print_term(term)}: {print_value(left)} and "
            f"{print_value(right)} are not mutually exclusive"
        )
    return {"kind": "exclusive", "term": term, "left": left, "right": right}


def _independence_evidence(side, t, u, rule) -> dict:
    for fact in side or ():
        if fact.get("kind") != "independent":
            continue
        if {fact.get("t"), fact.get("u")} == {t, u}:
            if fact.get("asserted") or fact.get("verdict"):
                return dict(fact)
            raise SideConditionUnproved(
                f"{rule.value}: independence evidence for {t!r}, {u!r} is negative"
            )
    raise SideConditionUnproved(
        f"{rule.value}: no independence evidence for {t!r} and {u!r}"
    )


def independence_fact(source, sigma, t: str, u: str) -> dict:
    """Test u for independence of t under sigma on a (TrainingSet, Estimator)
    pair, or through a verdict's `Learner`, whose P(u | sigma) the test then
    shares with the leaves; return the side-condition fact that ProdIIndep reads."""
    learner = source if isinstance(source, Learner) else Learner(source)
    verdict, witness = learner.independent(tuple(sigma), t, u)
    return {"kind": "independent", "t": t, "u": u, "verdict": verdict, **witness}


def apply_rule(
    rule: RuleId,
    premises,
    schema: AttributeSchema,
    side=(),
    direction: str = "forward",
) -> Derivation:
    """Apply one inference rule, a `RuleId` or its name, to premise derivations.

    `direction` is "forward", or "backward" for the double-line rules ImpIE
    and NegIER; anything else raises `RuleNotAllowed`.
    """
    entry = RULES.get(rule)
    if entry is None:
        if rule == RuleId.AtQuery:
            raise RuleNotAllowed("AtQuery is an axiom, not a rule over premises; use at_query")
        raise RuleNotAllowed(f"no inference rule {rule!r}")
    rule = entry.id
    if direction != "forward" and (direction != "backward" or entry.kind is not RuleKind.DOUBLE_LINE):
        raise RuleNotAllowed(
            f"{rule.value}: direction {direction!r} is not allowed; "
            "only ImpIE and NegIER also run 'backward'"
        )
    premises = tuple(premises)
    provenance = _merge_provenance(premises)
    if len(premises) != entry.premises:
        raise ShapeMismatch(f"{rule.value} takes {entry.premises} premises, got {len(premises)}")
    conclusion, evidence = entry.handler(
        rule, [p.conclusion for p in premises], schema, side, direction
    )
    return Derivation(conclusion, rule, premises, tuple(evidence), provenance, direction)


# Each handler takes (rule, premise conclusions, schema, side, direction) and
# returns (conclusion judgment, side-condition evidence).


def _rule_imp_ie(rule, conclusions, schema, side, direction):
    (p,) = conclusions
    if direction == "forward":
        _require(len(p.antecedent) >= 1, rule, "empty antecedent, nothing to discharge")
        moved = p.antecedent[-1]
        conclusion = Judgment(
            p.antecedent[:-1],
            Cond(Atom(moved.variable), p.subject),
            Arrow(moved.value, p.value),
            p.probability,
        )
        return conclusion, []
    term = reduce_projections(p.subject)
    _require(isinstance(term, Cond), rule, "subject is not a conditional term")
    _require(isinstance(p.value, Arrow), rule, "value is not a conditional")
    antecedent_term = _as_atom(term.antecedent, rule)
    conclusion = Judgment(
        p.antecedent + (ValueAttribution(antecedent_term.name, p.value.left),),
        term.consequent,
        p.value.right,
        p.probability,
    )
    return conclusion, []


def _rule_prod_i(rule, conclusions, schema, side, direction):
    major, minor = conclusions
    sigma = minor.antecedent
    extra = _extension(major, sigma)
    minor_term = _as_atom(minor.subject, rule)
    _require(extra.variable == minor_term.name, rule, "antecedent extension does not match the minor premise subject")
    _require(extra.value == minor.value, rule, "antecedent extension value differs from the minor premise")
    f, g = minor.probability, major.probability
    if rule == RuleId.ProdI2:
        # major: sigma, u:delta |> t:beta ; minor: sigma |> u:delta
        t_term, u_term = major.subject, minor.subject
        beta, delta = major.value, minor.value
    else:
        # major: sigma, t:beta |> u:delta ; minor: sigma |> t:beta
        t_term, u_term = minor.subject, major.subject
        beta, delta = minor.value, major.value
    conclusion = Judgment(
        sigma, Pair(t_term, u_term), Prod(beta, delta), _finish(f * g, rule)
    )
    return conclusion, []


def _rule_prod_e(rule, conclusions, schema, side, direction):
    second = rule == RuleId.ProdE2a or rule == RuleId.ProdE2b
    conditional_form = rule == RuleId.ProdE1b or rule == RuleId.ProdE2b
    major, minor = conclusions
    _require(isinstance(major.value, Prod), rule, "major premise value is not a product")
    beta, delta = major.value.left, major.value.right
    t = major.subject
    first_term = reduce_projections(Fst(t))
    second_term = reduce_projections(Snd(t))
    sigma = major.antecedent
    kept_term, kept_value = (second_term, delta) if second else (first_term, beta)
    other_term, other_value = (first_term, beta) if second else (second_term, delta)
    f = major.probability
    g = _nonzero(minor.probability, rule, "the minor premise probability")
    if conditional_form:
        # minor: sigma |> kept : value ; conclusion extends sigma with it
        _require(same_sigma(minor.antecedent, sigma), rule, "minor premise context differs")
        _require(_same_subject(minor.subject, kept_term), rule, "minor premise subject mismatch")
        _require(minor.value == kept_value, rule, "minor premise value mismatch")
        kept_atom = _as_atom(kept_term, rule)
        conclusion = Judgment(
            sigma + (ValueAttribution(kept_atom.name, kept_value),),
            other_term,
            other_value,
            _finish(f / g, rule),
        )
    else:
        # minor: sigma, kept : value |> other ; conclusion is sigma |> kept
        extra = _extension(minor, sigma)
        kept_atom = _as_atom(kept_term, rule)
        _require(extra.variable == kept_atom.name and extra.value == kept_value, rule, "minor premise antecedent mismatch")
        _require(_same_subject(minor.subject, other_term), rule, "minor premise subject mismatch")
        _require(minor.value == other_value, rule, "minor premise value mismatch")
        conclusion = Judgment(sigma, kept_term, kept_value, _finish(f / g, rule))
    return conclusion, []


def _rule_or_ir(rule, conclusions, schema, side, direction):
    p1, p2 = conclusions
    _require(same_sigma(p1, p2), rule, "premise contexts differ")
    _require(_same_subject(p1.subject, p2.subject), rule, "premise subjects differ")
    evidence = _exclusivity_evidence(p1.subject, p1.value, p2.value, schema, rule)
    conclusion = Judgment(
        p1.antecedent,
        p1.subject,
        Or(p1.value, p2.value),
        _finish(p1.probability + p2.probability, rule),
    )
    return conclusion, [evidence]


def _rule_or_er(rule, conclusions, schema, side, direction):
    second = rule == RuleId.OrERb
    p1, p2 = conclusions
    _require(isinstance(p1.value, Or), rule, "major premise value is not a disjunction")
    _require(same_sigma(p1, p2), rule, "premise contexts differ")
    _require(_same_subject(p1.subject, p2.subject), rule, "premise subjects differ")
    expected = p1.value.right if second else p1.value.left
    remaining = p1.value.left if second else p1.value.right
    _require(p2.value == expected, rule, "minor premise value is not the matching disjunct")
    conclusion = Judgment(
        p1.antecedent,
        p1.subject,
        remaining,
        _finish(p1.probability - p2.probability, rule),
    )
    return conclusion, []


def _rule_neg_ier(rule, conclusions, schema, side, direction):
    (p,) = conclusions
    if direction == "forward":
        value = Neg(p.value)
    else:
        _require(isinstance(p.value, Neg), rule, "value is not negated")
        value = p.value.inner
    conclusion = Judgment(p.antecedent, p.subject, value, _finish(1.0 - p.probability, rule))
    return conclusion, []


def _rule_prod_i_indep(rule, conclusions, schema, side, direction):
    p1, p2 = conclusions
    _require(same_sigma(p1, p2), rule, "premise contexts differ")
    u_term = reduce_projections(p1.subject)
    t_term = reduce_projections(p2.subject)
    require_linear(Pair(t_term, u_term))
    evidence = _independence_evidence(side, print_term(t_term), print_term(u_term), rule)
    g, f = p1.probability, p2.probability
    conclusion = Judgment(
        p1.antecedent,
        Pair(p2.subject, p1.subject),
        Prod(p2.value, p1.value),
        _finish(f * g, rule),
    )
    return conclusion, [evidence]


# ---------------------------------------------------------------------------
# Left rules: the forms X, u and X| are those of the module docstring


@record(frozen=True)
class _Left:
    """A left rule's premise forms f, g, h, i, its conclusion form and formula.

    The formula has no value where `undefined(f, g, ...)` holds, and the
    ZeroDenominator message then says `why`.
    """

    forms: tuple[str, ...]
    concludes: str
    formula: Callable
    undefined: Callable | None = None
    why: str = ""


_LEFT = {
    RuleId.OrIL: _Left(("γ|", "β|", "γ", "β"), "γ+β|", lambda f, g, h, i: (f * h + g * i) / (h + i),
                       lambda f, g, h, i: h + i == 0.0, "h + i is zero"),
    RuleId.OrELa: _Left(("γ+β|", "β|", "γ", "β"), "γ|", lambda f, g, h, i: (f * (h + i) - g * i) / h,
                        lambda f, g, h, i: h == 0.0, "h is zero"),
    RuleId.OrELb: _Left(("γ+β|", "γ|", "γ", "β"), "β|", lambda f, g, h, i: (f * (h + i) - g * h) / i,
                        lambda f, g, h, i: i == 0.0, "i is zero"),
    RuleId.OrELc: _Left(("γ|", "β|", "γ+β|", "β"), "γ", lambda f, g, h, i: i * (g - h) / (h - f),
                        lambda f, g, h, i: h - f == 0.0, "h = f (no proviso is stated for this case)"),
    RuleId.OrELd: _Left(("γ|", "β|", "γ+β|", "γ"), "β", lambda f, g, h, i: i * (f - h) / (h - g),
                        lambda f, g, h, i: h - g == 0.0, "h = g (no proviso is stated for this case)"),
    RuleId.NegIL: _Left(("β", "u", "β|"), "~β|", lambda f, g, h: (g - f * h) / (1.0 - f),
                        lambda f, g, h: f == 1.0, "f = 1"),
    RuleId.NegELa: _Left(("β", "u", "~β|"), "β|", lambda f, g, h: (g + h * (f - 1.0)) / f,
                         lambda f, g, h: f == 0.0, "f is zero"),
    RuleId.NegELb: _Left(("β", "β|", "~β|"), "u", lambda f, g, h: h - h * f + g * f),
    RuleId.NegELc: _Left(("u", "β|", "~β|"), "β", lambda f, g, h: (f - h) / (g - h),
                         lambda f, g, h: g == h, "g = h (no proviso is stated for this case)"),
}


def _parts(x: str, value):
    """The (letter, value) pairs that `value` shows in form X, or None if it has not that form."""
    if x == "γ+β":
        return (("γ", value.left), ("β", value.right)) if isinstance(value, Or) else None
    if x == "~β":
        return (("β", value.inner),) if isinstance(value, Neg) else None
    return ((x, value),)


def _shown(x: str, values: dict):
    """The value that form X shows for the bound γ and β."""
    if x == "γ+β":
        return Or(values["γ"], values["β"])
    if x == "~β":
        return Neg(values["β"])
    return values[x]


def _rule_left(rule, conclusions, schema, side, direction):
    """Match the premises to the rule's forms in order, then apply its formula.

    σ is the context of the first premise of form X or u.  The first premise
    that shows t, γ, β or u : δ binds it, and each later one must agree.
    """
    row = _LEFT[rule]
    k = next(n for n, form in enumerate(row.forms, 1) if not form.endswith("|"))
    sigma = conclusions[k - 1].antecedent
    bound = {}  # t, γ, β and u : δ: (what the first premise to show each shows, its number)
    t_subject = query = None  # the first X premise's subject and the first u or X| premise
    for n, (p, form) in enumerate(zip(conclusions, row.forms), 1):
        x = form.rstrip("|")
        conditional = x != form
        shows = []  # (t, γ, β or u : δ, what premise n shows for it)
        if not conditional and not same_sigma(p.antecedent, sigma):
            raise ShapeMismatch(f"{rule.value}: premise {n}: the context differs from premise {k}'s")
        if conditional or x == "u":
            shows.append(("u : δ", (reduce_projections(p.subject), p.value)))
            query = p if query is None else query
        if conditional:  # σ, t : X |> u : δ
            try:
                extra = _extension(p, sigma)
            except ShapeMismatch as exc:
                raise ShapeMismatch(f"{rule.value}: premise {n}, with the context of premise {k}: {exc}") from None
            name, value = extra.variable, extra.value
        elif x != "u":  # σ |> t : X
            term = reduce_projections(p.subject)
            if not isinstance(term, Atom):
                raise ShapeMismatch(f"{rule.value}: premise {n}: {print_term(term)} is not an atomic variable")
            name, value = term.name, p.value
            t_subject = p.subject if t_subject is None else t_subject
        if x != "u":
            parts = _parts(x, value)
            if parts is None:
                raise ShapeMismatch(f"{rule.value}: premise {n}: the value of {name} is not of the form {x}")
            shows += [("t", name), *parts]
        for key, shown in shows:
            seen, m = bound.setdefault(key, (shown, n))
            if m != n and seen != shown:
                raise ShapeMismatch(f"{rule.value}: premise {n}: {key} differs from premise {m}'s")
    values = {key: seen for key, (seen, _) in bound.items()}
    x = row.concludes.rstrip("|")
    evidence = []
    if x == "γ+β":  # the conclusion's disjunction needs γ and β exclusive
        evidence.append(_exclusivity_evidence(t_subject, values["γ"], values["β"], schema, rule))
    probabilities = [p.probability for p in conclusions]
    if row.undefined is not None and row.undefined(*probabilities):
        raise ZeroDenominator(f"{rule.value}: {row.why}")
    p = _finish(row.formula(*probabilities), rule)
    if x == "u":
        return Judgment(sigma, query.subject, query.value, p), evidence
    if x != row.concludes:
        attribution = ValueAttribution(values["t"], _shown(x, values))
        return Judgment(sigma + (attribution,), query.subject, query.value, p), evidence
    t_term = Atom(values["t"]) if t_subject is None else t_subject
    return Judgment(sigma, t_term, _shown(x, values), p), evidence


RULES = {
    entry.id: entry
    for entry in (
        Rule(RuleId.ImpIE, 1, _rule_imp_ie, RuleKind.DOUBLE_LINE),
        Rule(RuleId.ProdI1, 2, _rule_prod_i, RuleKind.RIGHT_I),
        Rule(RuleId.ProdI2, 2, _rule_prod_i, RuleKind.RIGHT_I),
        Rule(RuleId.ProdE1a, 2, _rule_prod_e, RuleKind.RIGHT_E),
        Rule(RuleId.ProdE1b, 2, _rule_prod_e, RuleKind.RIGHT_E),
        Rule(RuleId.ProdE2a, 2, _rule_prod_e, RuleKind.RIGHT_E),
        Rule(RuleId.ProdE2b, 2, _rule_prod_e, RuleKind.RIGHT_E),
        Rule(RuleId.OrIR, 2, _rule_or_ir, RuleKind.RIGHT_I),
        Rule(RuleId.OrERa, 2, _rule_or_er, RuleKind.RIGHT_E),
        Rule(RuleId.OrERb, 2, _rule_or_er, RuleKind.RIGHT_E),
        Rule(RuleId.NegIER, 1, _rule_neg_ier, RuleKind.DOUBLE_LINE),
        *(Rule(rule, len(row.forms), _rule_left, RuleKind.LEFT) for rule, row in _LEFT.items()),
        Rule(RuleId.ProdIIndep, 2, _rule_prod_i_indep, RuleKind.RIGHT_I),
    )
}


# ---------------------------------------------------------------------------
# Plans


@record(frozen=True)
class PlanStep:
    id: str
    rule: RuleId
    operands: tuple[str, ...]
    direction: str = "forward"
    side: tuple = ()


@record(frozen=True)
class Plan:
    """An ordered list of rule applications over named inputs and steps."""

    steps: tuple[PlanStep, ...]

    def __post_init__(self):
        seen: set[str] = set()
        for step in self.steps:
            if step.id in seen:
                raise RuleNotAllowed(f"duplicate step id {step.id!r}")
            seen.add(step.id)

    @property
    def result_id(self) -> str:
        return self.steps[-1].id


def run_plan(env: dict, plan: Plan, schema: AttributeSchema, source=None) -> dict:
    """Apply a plan's steps in order to named derivations.

    Returns `env` extended by each step's derivation.  An independence fact
    with neither a verdict nor an assertion is tested on `source`, a
    (TrainingSet, Estimator) pair, under the first premise's context.
    """
    env = dict(env)
    for step in plan.steps:
        try:
            premises = [env[name] for name in step.operands]
        except KeyError as exc:
            raise RuleNotAllowed(f"step {step.id!r} references unknown operand {exc}") from None
        side = tuple(_tested(fact, step, premises, source) for fact in step.side)
        env[step.id] = apply_rule(
            step.rule, premises, schema, side=side, direction=step.direction
        )
    return env


def _tested(fact, step, premises, source) -> dict:
    if fact.get("kind") != "independent" or "verdict" in fact or fact.get("asserted"):
        return fact
    if not isinstance(source, tuple):
        raise TndpqError(f"step {step.id}: cannot verify independence without a training table")
    sigma = premises[0].conclusion.antecedent if premises else ()
    return {**fact, **independence_fact(source, sigma, fact["t"], fact["u"])}


# ---------------------------------------------------------------------------
# Checking


@record
class CheckReport:
    violations: list[tuple[str, str, str]] = fresh(list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, path: str, kind: str, message: str) -> None:
        self.violations.append((path, kind, message))


def check_derivation(
    derivation: Derivation, schema: AttributeSchema, sources: dict | None = None
) -> CheckReport:
    """Re-verify every node of a derivation tree.

    `sources` optionally maps training-set ids to (TrainingSet, Estimator)
    pairs for recomputing leaf probabilities and recorded independence
    verdicts.  Violations are collected, not raised.
    """
    report = CheckReport()
    tags = set()
    learners = {id: Learner(pair) for id, pair in (sources or {}).items()}
    _check_node(derivation, schema, learners, report, "root", tags)
    if len(tags) > 1:
        report.add("root", "ProvenanceMismatch", f"multiple provenance tags {sorted(tags)}")
    return report


def _check_node(node, schema, learners, report, path, tags):
    if node.provenance is not None:
        tags.add(node.provenance)
    learn = learners.get(node.provenance[0]) if learners and node.provenance else None
    if node.rule == RuleId.AtQuery:
        if node.premises:
            report.add(path, "ShapeMismatch", "axiom node with premises")
        if learn is not None:
            try:
                variable = _as_atom(node.conclusion.subject, RuleId.AtQuery).name
                atom = node.conclusion.value.name
                expected = learn(node.conclusion.antecedent, variable).probability(atom)
            except Exception as exc:
                report.add(path, "UnknownCondition", str(exc))
            else:
                if abs(expected - node.conclusion.probability) > _TOL:
                    report.add(
                        path,
                        "FormulaViolation",
                        f"leaf probability {node.conclusion.probability!r}, source gives {expected!r}",
                    )
        return
    try:
        rebuilt = apply_rule(
            node.rule, node.premises, schema,
            side=node.side_conditions, direction=node.direction,
        )
    except Exception as exc:
        report.add(path, type(exc).__name__, str(exc))
    else:
        expected, actual = rebuilt.conclusion, node.conclusion
        structural = (
            expected.antecedent == actual.antecedent
            and _same_subject(expected.subject, actual.subject)
            and expected.value == actual.value
        )
        if not structural:
            report.add(path, "ShapeMismatch",
                       f"conclusion {print_judgment(actual)} differs from rule result {print_judgment(expected)}")
        elif abs(expected.probability - actual.probability) > _TOL:
            report.add(path, "FormulaViolation",
                       f"probability {actual.probability!r}, formula gives {expected.probability!r}")
        _retest_independence(node, learn, report, path)
    for index, premise in enumerate(node.premises):
        _check_node(premise, schema, learners, report, f"{path}.{index}", tags)


def _retest_independence(node, learn, report, path):
    """Re-run a recorded independence test against the node's source, if `learn` reads one.

    Asserted independence carries no verdict and is taken as given.
    """
    if learn is None:
        return
    for fact in node.side_conditions:
        if fact.get("kind") != "independent" or "verdict" not in fact:
            continue
        t, u = fact["t"], fact["u"]
        try:
            retested = independence_fact(learn, node.conclusion.antecedent, t, u)
        except TndpqError as exc:
            report.add(path, type(exc).__name__, str(exc))
            continue
        if retested["verdict"] != fact["verdict"]:
            report.add(
                path,
                "SideConditionUnproved",
                f"recorded independence verdict {fact['verdict']!r} for {t!r}, {u!r}; "
                f"the source gives {retested['verdict']!r} (max deviation {retested['max_deviation']:.3g})",
            )
