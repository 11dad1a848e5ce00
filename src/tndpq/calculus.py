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

Every rule has one handler, `_rule_match`, which reads the rule's premise
and conclusion forms from a second table, `_READINGS`: one row per rule,
and one per direction for a double-line rule.  `_compile` writes a row's
matcher out as Python the first time the row is used, so that applying a
rule makes no choice the forms have already made.  Every premise, and the
conclusion, is a judgment over one context σ, one term t and one query
u : δ, in one of six forms, where X is γ, β, γ+β or ~β:

    X      σ |> t : X            X|     σ, t : X |> u : δ
    u      σ |> u : δ            X->u   σ |> [t]u : X->δ
    X*u    σ |> <t,u> : X*δ      u*X    σ |> <u,t> : δ*X

t and u compare as reduced terms, and a premise of form X|, X->u, X*u or
u*X must show an atomic variable for t.  A row gives the forms of the
premises f, g, h, i in order, the conclusion's form and the probability
formula.
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


# Stays a dataclass: the benchmark's worker rebuilds derivations with
# `dataclasses.replace`.  A derivation is as deep as its plan is long, with
# no bound, so `==` compares pairs of nodes from a worklist, and `hash` and
# `repr` read the node alone: its rule, direction and conclusion.
@dataclass(frozen=True, eq=False, repr=False)
class Derivation:
    conclusion: Judgment
    rule: RuleId
    premises: tuple["Derivation", ...] = ()
    side_conditions: tuple[dict, ...] = ()
    provenance: tuple[str, str] | None = None
    direction: str = "forward"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        work = [(self, other)]
        while work:
            a, b = work.pop()
            if a is b:
                continue
            if b.__class__ is not a.__class__ or len(a.premises) != len(b.premises) or (
                a.conclusion, a.rule, a.side_conditions, a.provenance, a.direction
            ) != (b.conclusion, b.rule, b.side_conditions, b.provenance, b.direction):
                return False
            work += zip(a.premises, b.premises)
        return True

    def __hash__(self):
        return hash((self.rule, self.direction, self.conclusion))

    def __repr__(self):
        shown = f"rule={self.rule.value}, direction={self.direction!r}, conclusion={print_judgment(self.conclusion)!r}"
        return f"Derivation({shown}, premises={len(self.premises)})"


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


def _extension(judgment: Judgment, base_sigma) -> ValueAttribution:
    """The one attribution the judgment's antecedent adds to base_sigma, neither naming a variable twice."""
    extra = [va for va in judgment.antecedent if va not in base_sigma]
    if len(extra) != 1 or len(judgment.antecedent) != len(base_sigma) + 1:
        raise ShapeMismatch(
            f"antecedent of {print_judgment(judgment)} does not extend the context by one attribution"
        )
    return extra[0]


def _as_atom(term: VariableTerm, rule: RuleId) -> Atom:
    term = reduce_projections(term)
    if not isinstance(term, Atom):
        raise ShapeMismatch(
            f"{rule.value}: {print_term(term)} cannot appear in an antecedent"
        )
    return term


def _exclusivity_evidence(term, left, right, schema, rule) -> dict:
    if not exclusive(term, left, right, schema):
        raise SideConditionUnproved(
            f"{rule.value}: {print_term(term)}: {print_value(left)} and "
            f"{print_value(right)} are not mutually exclusive"
        )
    return {"kind": "exclusive", "term": term, "left": left, "right": right}


def _independence_evidence(side, t, u, rule) -> dict:
    """The fact in `side` that the reduced terms t and u are independent, once <t,u> is linear."""
    require_linear(Pair(t, u))
    t, u = print_term(t), print_term(u)
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


# ---------------------------------------------------------------------------
# Rule readings: the forms are those of the module docstring


def _read_form(text: str) -> tuple[str, str | None]:
    """(shape, X) of a form: its shape with X for its value part, and that part."""
    if text == "u":
        return "u", None
    if text.startswith("u*"):
        return "u*X", text[2:]
    for tail in ("|", "->u", "*u"):
        if text.endswith(tail):
            return "X" + tail, text[: -len(tail)]
    return "X", text


@record(frozen=True)
class _Reading:
    """One reading of a rule: its premises' forms f, g, h, i, its conclusion's form and formula.

    The formula takes the premises' probabilities in order.  It has no value
    where `undefined(f, g, ...)` holds, and the ZeroDenominator message then
    says `why`.  An `independent` reading needs <t,u> linear and the side
    conditions to hold a fact that t and u are independent.
    """

    forms: tuple[str, ...]
    concludes: str
    formula: Callable
    undefined: Callable | None = None
    why: str = ""
    independent: bool = False
    _match: Callable | None = None  # its matcher, compiled when first used


_MINOR_ZERO = "the minor premise probability is zero"

# One row per rule, and one per direction for a double-line rule.
_READINGS = {
    (RuleId.ImpIE, "forward"): _Reading(("β|",), "β->u", lambda f: f),
    (RuleId.ImpIE, "backward"): _Reading(("β->u",), "β|", lambda f: f),
    (RuleId.NegIER, "forward"): _Reading(("β",), "~β", lambda f: 1.0 - f),
    (RuleId.NegIER, "backward"): _Reading(("~β",), "β", lambda f: 1.0 - f),
    (RuleId.ProdI1, "forward"): _Reading(("β|", "β"), "β*u", lambda f, g: g * f),
    (RuleId.ProdI2, "forward"): _Reading(("β|", "β"), "u*β", lambda f, g: g * f),
    (RuleId.ProdE1a, "forward"): _Reading(("β*u", "β|"), "β", lambda f, g: f / g, lambda f, g: g == 0.0, _MINOR_ZERO),
    (RuleId.ProdE1b, "forward"): _Reading(("β*u", "β"), "β|", lambda f, g: f / g, lambda f, g: g == 0.0, _MINOR_ZERO),
    (RuleId.ProdE2a, "forward"): _Reading(("u*β", "β|"), "β", lambda f, g: f / g, lambda f, g: g == 0.0, _MINOR_ZERO),
    (RuleId.ProdE2b, "forward"): _Reading(("u*β", "β"), "β|", lambda f, g: f / g, lambda f, g: g == 0.0, _MINOR_ZERO),
    (RuleId.OrIR, "forward"): _Reading(("γ", "β"), "γ+β", lambda f, g: f + g),
    (RuleId.OrERa, "forward"): _Reading(("γ+β", "γ"), "β", lambda f, g: f - g),
    (RuleId.OrERb, "forward"): _Reading(("γ+β", "β"), "γ", lambda f, g: f - g),
    (RuleId.ProdIIndep, "forward"): _Reading(("u", "β"), "β*u", lambda f, g: g * f, independent=True),
    (RuleId.OrIL, "forward"): _Reading(("γ|", "β|", "γ", "β"), "γ+β|", lambda f, g, h, i: (f * h + g * i) / (h + i),
                                       lambda f, g, h, i: h + i == 0.0, "h + i is zero"),
    (RuleId.OrELa, "forward"): _Reading(("γ+β|", "β|", "γ", "β"), "γ|", lambda f, g, h, i: (f * (h + i) - g * i) / h,
                                        lambda f, g, h, i: h == 0.0, "h is zero"),
    (RuleId.OrELb, "forward"): _Reading(("γ+β|", "γ|", "γ", "β"), "β|", lambda f, g, h, i: (f * (h + i) - g * h) / i,
                                        lambda f, g, h, i: i == 0.0, "i is zero"),
    (RuleId.OrELc, "forward"): _Reading(("γ|", "β|", "γ+β|", "β"), "γ", lambda f, g, h, i: i * (g - h) / (h - f),
                                        lambda f, g, h, i: h - f == 0.0, "h = f (no proviso is stated for this case)"),
    (RuleId.OrELd, "forward"): _Reading(("γ|", "β|", "γ+β|", "γ"), "β", lambda f, g, h, i: i * (f - h) / (h - g),
                                        lambda f, g, h, i: h - g == 0.0, "h = g (no proviso is stated for this case)"),
    (RuleId.NegIL, "forward"): _Reading(("β", "u", "β|"), "~β|", lambda f, g, h: (g - f * h) / (1.0 - f),
                                        lambda f, g, h: f == 1.0, "f = 1"),
    (RuleId.NegELa, "forward"): _Reading(("β", "u", "~β|"), "β|", lambda f, g, h: (g + h * (f - 1.0)) / f,
                                         lambda f, g, h: f == 0.0, "f is zero"),
    (RuleId.NegELb, "forward"): _Reading(("β", "β|", "~β|"), "u", lambda f, g, h: h - h * f + g * f),
    (RuleId.NegELc, "forward"): _Reading(("u", "β|", "~β|"), "β", lambda f, g, h: (f - h) / (g - h),
                                         lambda f, g, h: g == h, "g = h (no proviso is stated for this case)"),
}


def _unfold(shape: str, p: Judgment, where: str, form: str):
    """(t, the value of X, (u, δ)) that p shows in form X->u, X*u or u*X, t an atomic variable."""
    shown = None
    if shape == "X->u":  # σ |> [t]u : X->δ
        term = reduce_projections(p.subject)
        if isinstance(term, Cond) and isinstance(p.value, Arrow):
            shown = term.antecedent, p.value.left, (term.consequent, p.value.right)
    elif isinstance(p.value, Prod):
        first, second = reduce_projections(Fst(p.subject)), reduce_projections(Snd(p.subject))
        if shape == "X*u":  # σ |> <t,u> : X*δ
            shown = first, p.value.left, (second, p.value.right)
        else:  # u*X: σ |> <u,t> : δ*X
            shown = second, p.value.right, (first, p.value.left)
    if shown is None:
        raise ShapeMismatch(f"{where} is not of the form {form}")
    if not isinstance(shown[0], Atom):
        raise ShapeMismatch(f"{where}: {print_term(shown[0])} is not an atomic variable")
    return shown


# What a reading's matcher calls each value that premises show.
_NAMES = {"t": "t", "γ": "gamma", "β": "beta", "u : δ": "u_key"}
# For each X: the class its value must be of, the letters it shows with the
# part of its value that shows each, and the value it concludes.
_X_FORMS = {
    "γ": (None, (("γ", ""),), "gamma"),
    "β": (None, (("β", ""),), "beta"),
    "γ+β": ("Or", (("γ", ".left"), ("β", ".right")), "Or(gamma, beta)"),
    "~β": ("Neg", (("β", ".inner"),), "Neg(beta)"),
}


def _compile(rule: RuleId, reading: _Reading) -> Callable:
    """The reading's matcher, `match(conclusions, schema, side)`, written out as Python and compiled.

    It matches the premises to the reading's forms in order, then applies
    its formula.  σ is the context of premise k, the first whose form has no
    `|`, or else the first premise's antecedent less its last attribution.
    The first premise that shows t, γ, β or u : δ binds it, and each later
    one must agree; t and u compare reduced.  The conclusion shows the first
    X premise's subject for t, if there is one, and the first premise's u
    that shows one.
    """
    forms = [_read_form(form) for form in reading.forms]
    k = next((n for n, (shape, _) in enumerate(forms, 1) if shape != "X|"), 0)  # 0 if every form has a `|`
    numbers = range(1, len(forms) + 1)
    premises, probabilities = "".join(f"p{n}, " for n in numbers), "".join(f"p{n}.probability, " for n in numbers)
    code = [f"{premises}= conclusions", f"sigma = p{k}.antecedent" if k else "sigma = p1.antecedent[:-1]"]
    first = {}  # t, γ, β and u : δ: the number of the first premise that shows each
    t_subject = None

    def show(n, key, expr):
        if key in first:
            message = f"{rule.value}: premise {n}: {key} differs from premise {first[key]}'s"
            code.append(f"if {expr} != {_NAMES[key]}: raise ShapeMismatch({message!r})")
        else:
            first[key] = n
            code.append(f"{_NAMES[key]} = {expr}")

    for n, (shape, x) in enumerate(forms, 1):
        p, where = f"p{n}", f"{rule.value}: premise {n}"
        u = f"{p}.subject", f"{p}.value"
        if shape == "X|":  # σ, t : X |> u : δ
            origin = f"the context of premise {k}" if k else "its own context"
            code += ["try:", f"    extra = _extension({p}, sigma)", "except ShapeMismatch as exc:",
                     f"    raise ShapeMismatch({f'{where}, with {origin}: '!r} + str(exc)) from None",
                     f"t{n}, v{n} = Atom(extra.variable), extra.value"]
        elif n != k:
            message = f"{where}: the context differs from premise {k}'s"
            code.append(f"if {p}.antecedent is not sigma and not same_sigma({p}.antecedent, sigma): "
                        f"raise ShapeMismatch({message!r})")
        if shape == "X":  # σ |> t : X
            code.append(f"t{n}, v{n} = reduce_projections({p}.subject), {p}.value")
            t_subject, u = t_subject or f"{p}.subject", None
        elif shape not in ("u", "X|"):  # X->u, X*u or u*X
            code.append(f"t{n}, v{n}, u{n} = _unfold({shape!r}, {p}, {where!r}, {reading.forms[n - 1]!r})")
            u = f"u{n}[0]", f"u{n}[1]"
        if u is not None:
            if "u : δ" not in first:
                code.append(f"query = {u[0]}, {u[1]}")
            show(n, "u : δ", f"(reduce_projections({u[0]}), {u[1]})")
        if shape == "u":
            continue
        kind, letters, _ = _X_FORMS[x]
        if kind:
            code.append(f"if not isinstance(v{n}, {kind}): raise ShapeMismatch({f'{where}: the value of '!r}"
                        f" + print_term(t{n}) + {f' is not of the form {x}'!r})")
        show(n, "t", f"t{n}")
        for key, part in letters:
            show(n, key, f"v{n}{part}")
    t_subject = t_subject or "t"
    shape, x = _read_form(reading.concludes)
    code.append("evidence = []")
    if x == "γ+β":  # the conclusion's disjunction needs γ and β exclusive
        code.append(f"evidence.append(_exclusivity_evidence({t_subject}, gamma, beta, schema, rule))")
    if reading.independent:
        code.append("evidence.append(_independence_evidence(side, t, u_key[0], rule))")
    code.append(f"f = {probabilities}")
    if reading.undefined is not None:
        code.append(f"if undefined(*f): raise ZeroDenominator({f'{rule.value}: {reading.why}'!r})")
    code.append("p = _finish(formula(*f), rule)")
    value = _X_FORMS[x][2] if x else None
    code.append("return " + {
        "u": "Judgment(sigma, query[0], query[1], p)",
        "X": f"Judgment(sigma, {t_subject}, {value}, p)",
        "X|": f"Judgment(sigma + (ValueAttribution(t.name, {value}),), query[0], query[1], p)",
        "X->u": f"Judgment(sigma, Cond({t_subject}, query[0]), Arrow({value}, query[1]), p)",
        "X*u": f"Judgment(sigma, Pair({t_subject}, query[0]), Prod({value}, query[1]), p)",
        "u*X": f"Judgment(sigma, Pair(query[0], {t_subject}), Prod(query[1], {value}), p)",
    }[shape] + ", evidence")
    env = {**globals(), "rule": rule, "formula": reading.formula, "undefined": reading.undefined}
    exec("def match(conclusions, schema, side):\n" + "".join(f"    {line}\n" for line in code), env)
    return env["match"]


# The one handler: it takes (rule, premise conclusions, schema, side,
# direction) and returns (conclusion judgment, side-condition evidence).
def _rule_match(rule, conclusions, schema, side, direction):
    """Apply the reading of `rule` in `direction`, whose matcher is compiled when first used."""
    reading = _READINGS[rule, direction]
    if reading._match is None:
        object.__setattr__(reading, "_match", _compile(rule, reading))
    return reading._match(conclusions, schema, side)


RULES = {
    rule: Rule(rule, len(_READINGS[rule, "forward"].forms), _rule_match, kind)
    for kind, rules in (
        (RuleKind.DOUBLE_LINE, (RuleId.ImpIE, RuleId.NegIER)),
        (RuleKind.RIGHT_I, (RuleId.ProdI1, RuleId.ProdI2, RuleId.OrIR, RuleId.ProdIIndep)),
        (RuleKind.RIGHT_E, (RuleId.ProdE1a, RuleId.ProdE1b, RuleId.ProdE2a, RuleId.ProdE2b, RuleId.OrERa, RuleId.OrERb)),
        (RuleKind.LEFT, (RuleId.OrIL, RuleId.OrELa, RuleId.OrELb, RuleId.OrELc, RuleId.OrELd,
                         RuleId.NegIL, RuleId.NegELa, RuleId.NegELb, RuleId.NegELc)),
    )
    for rule in rules
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
    # A worklist in pre-order, since a derivation is as deep as its plan is long.
    work = [(derivation, "root")]
    while work:
        node, path = work.pop()
        _check_node(node, schema, learners, report, path, tags)
        if node.rule != RuleId.AtQuery:
            work += reversed([(premise, f"{path}.{index}") for index, premise in enumerate(node.premises)])
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
            and reduce_projections(expected.subject) == reduce_projections(actual.subject)
            and expected.value == actual.value
        )
        if not structural:
            report.add(path, "ShapeMismatch",
                       f"conclusion {print_judgment(actual)} differs from rule result {print_judgment(expected)}")
        elif abs(expected.probability - actual.probability) > _TOL:
            report.add(path, "FormulaViolation",
                       f"probability {actual.probability!r}, formula gives {expected.probability!r}")
        _retest_independence(node, learn, report, path)


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
