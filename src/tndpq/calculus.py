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
different premise slots.  The one rule table, `_READINGS`, has a row for
each rule but the axiom AtQuery, and one per direction for a double-line
rule (ImpIE, NegIER), which introduces read forward and eliminates read
backward.  A row states its rule, its kind (right introduction or right
elimination, which work on the conclusion's subject and value, or left,
which works on its antecedent), the forms of its premises f, g, h, i in
order, its conclusion's form and its probability formula.  A rule's
premise count is the number of its forms, and its legal directions are
those it has rows for.  `_compile` writes a row's matcher out as Python
the first time the row is used, so that applying a rule makes no choice
the forms have already made.  Every premise, and the conclusion, is a
judgment over one context σ, one term t and one query u : δ, in one of six
forms, where X is γ, β, γ+β or ~β:

    X      σ |> t : X            X|     σ, t : X |> u : δ
    u      σ |> u : δ            X->u   σ |> [t]u : X->δ
    X*u    σ |> <t,u> : X*δ      u*X    σ |> <u,t> : δ*X

t and u compare structurally, since the parser resolves projections, and a
premise of form X|, X->u, X*u or u*X must show an atomic variable for t.
"""

from __future__ import annotations

import enum
from collections.abc import Callable

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
    Judgment,
    Neg,
    Or,
    Pair,
    Prod,
    ValueAttribution,
    VariableTerm,
    fresh,
    print_judgment,
    print_term,
    print_value,
    record,
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


class _DataclassFields:
    """A record's `__dataclass_fields__`, made on first read and then cached on the class."""

    def __get__(self, instance, owner):
        import dataclasses

        default = vars(owner).get
        spec = [
            (name, owner.__annotations__[name], dataclasses.field(default=default(name, dataclasses.MISSING)))
            for name in owner.__match_args__
        ]
        fields = owner.__dataclass_fields__ = dataclasses.make_dataclass(owner.__name__, spec).__dataclass_fields__
        return fields


@record(frozen=True)
class Derivation:
    """A conclusion, the rule and direction that gave it, and its premises' derivations.

    A derivation is as deep as its plan is long, with no bound, so `==`
    compares pairs of nodes from a worklist, and `hash` and `repr` read the
    node alone: its rule, direction and conclusion.

    `dataclasses.replace`, `fields` and `is_dataclass` take a derivation as
    a dataclass through `__dataclass_fields__`.  Its first read imports
    `dataclasses`, makes the fields from the record's own (`__match_args__`,
    the class defaults and the annotations) and caches them on the class,
    so only a caller that has imported `dataclasses` itself loads it.
    """

    conclusion: Judgment
    rule: RuleId
    premises: tuple["Derivation", ...] = ()
    side_conditions: tuple[dict, ...] = ()
    provenance: tuple[str, str] | None = None
    direction: str = "forward"

    __dataclass_fields__ = _DataclassFields()

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
    LEFT = "left"


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
            raise UnknownCondition("stored applied system does not cover the requested context")
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
    if not isinstance(term, Atom):
        raise ShapeMismatch(f"{rule.value}: {print_term(term)} cannot appear in an antecedent")
    return term


def _exclusivity_evidence(term, left, right, schema, rule) -> dict:
    if not exclusive(term, left, right, schema):
        raise SideConditionUnproved(
            f"{rule.value}: {print_term(term)}: {print_value(left)} and "
            f"{print_value(right)} are not mutually exclusive"
        )
    return {"kind": "exclusive", "term": term, "left": left, "right": right}


def _independence_evidence(side, t, u, rule) -> dict:
    """The fact in `side` that the terms t and u are independent, once <t,u> is linear."""
    require_linear(Pair(t, u))
    t, u = print_term(t), print_term(u)
    for fact in side or ():
        if fact.get("kind") != "independent":
            continue
        if {fact.get("t"), fact.get("u")} == {t, u}:
            if fact.get("asserted") or fact.get("verdict"):
                return dict(fact)
            raise SideConditionUnproved(f"{rule.value}: independence evidence for {t!r}, {u!r} is negative")
    raise SideConditionUnproved(f"{rule.value}: no independence evidence for {t!r} and {u!r}")


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
    try:
        reading = _READINGS[rule, direction]
    except (KeyError, TypeError):  # TypeError: an unhashable direction
        if rule == RuleId.AtQuery:
            raise RuleNotAllowed("AtQuery is an axiom, not a rule over premises; use at_query") from None
        forward = _READINGS.get((rule, "forward"))
        if forward is None:
            raise RuleNotAllowed(f"no inference rule {rule!r}") from None
        raise RuleNotAllowed(
            f"{forward.id.value}: direction {direction!r} is not allowed; "
            "only ImpIE and NegIER also run 'backward'"
        ) from None
    rule = reading.id
    premises = tuple(premises)
    provenance = _merge_provenance(premises)
    if len(premises) != len(reading.forms):
        raise ShapeMismatch(f"{rule.value} takes {len(reading.forms)} premises, got {len(premises)}")
    match = reading._match or _compile(reading)
    conclusion, evidence = match([p.conclusion for p in premises], schema, side)
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
    """One reading of a rule: its rule and kind, its premises' forms f, g, h, i, its conclusion's form and formula.

    The formula takes the premises' probabilities in order.  It has no value
    where `undefined(f, g, ...)` holds, and the ZeroDenominator message then
    says `why`.  An `independent` reading needs <t,u> linear and the side
    conditions to hold a fact that t and u are independent.
    """

    id: RuleId
    kind: RuleKind
    forms: tuple[str, ...]
    concludes: str
    formula: Callable
    undefined: Callable | None = None
    why: str = ""
    independent: bool = False
    direction: str = "forward"
    _match: Callable | None = None  # its matcher, compiled when first used


_MINOR_ZERO = "the minor premise probability is zero"
_INTRO, _ELIM, _LEFT = RuleKind.RIGHT_I, RuleKind.RIGHT_E, RuleKind.LEFT

# One row per rule, and one per direction for a double-line rule, keyed by
# (rule, direction).
_READINGS = {(reading.id, reading.direction): reading for reading in (
    _Reading(RuleId.ImpIE, _INTRO, ("β|",), "β->u", lambda f: f),
    _Reading(RuleId.ImpIE, _ELIM, ("β->u",), "β|", lambda f: f, direction="backward"),
    _Reading(RuleId.NegIER, _INTRO, ("β",), "~β", lambda f: 1.0 - f),
    _Reading(RuleId.NegIER, _ELIM, ("~β",), "β", lambda f: 1.0 - f, direction="backward"),
    _Reading(RuleId.ProdI1, _INTRO, ("β|", "β"), "β*u", lambda f, g: g * f),
    _Reading(RuleId.ProdI2, _INTRO, ("β|", "β"), "u*β", lambda f, g: g * f),
    _Reading(RuleId.ProdE1a, _ELIM, ("β*u", "β|"), "β", lambda f, g: f / g, lambda f, g: g == 0.0, _MINOR_ZERO),
    _Reading(RuleId.ProdE1b, _ELIM, ("β*u", "β"), "β|", lambda f, g: f / g, lambda f, g: g == 0.0, _MINOR_ZERO),
    _Reading(RuleId.ProdE2a, _ELIM, ("u*β", "β|"), "β", lambda f, g: f / g, lambda f, g: g == 0.0, _MINOR_ZERO),
    _Reading(RuleId.ProdE2b, _ELIM, ("u*β", "β"), "β|", lambda f, g: f / g, lambda f, g: g == 0.0, _MINOR_ZERO),
    _Reading(RuleId.OrIR, _INTRO, ("γ", "β"), "γ+β", lambda f, g: f + g),
    _Reading(RuleId.OrERa, _ELIM, ("γ+β", "γ"), "β", lambda f, g: f - g),
    _Reading(RuleId.OrERb, _ELIM, ("γ+β", "β"), "γ", lambda f, g: f - g),
    _Reading(RuleId.ProdIIndep, _INTRO, ("u", "β"), "β*u", lambda f, g: g * f, independent=True),
    _Reading(RuleId.OrIL, _LEFT, ("γ|", "β|", "γ", "β"), "γ+β|", lambda f, g, h, i: (f * h + g * i) / (h + i),
             lambda f, g, h, i: h + i == 0.0, "h + i is zero"),
    _Reading(RuleId.OrELa, _LEFT, ("γ+β|", "β|", "γ", "β"), "γ|", lambda f, g, h, i: (f * (h + i) - g * i) / h,
             lambda f, g, h, i: h == 0.0, "h is zero"),
    _Reading(RuleId.OrELb, _LEFT, ("γ+β|", "γ|", "γ", "β"), "β|", lambda f, g, h, i: (f * (h + i) - g * h) / i,
             lambda f, g, h, i: i == 0.0, "i is zero"),
    _Reading(RuleId.OrELc, _LEFT, ("γ|", "β|", "γ+β|", "β"), "γ", lambda f, g, h, i: i * (g - h) / (h - f),
             lambda f, g, h, i: h - f == 0.0, "h = f (no proviso is stated for this case)"),
    _Reading(RuleId.OrELd, _LEFT, ("γ|", "β|", "γ+β|", "γ"), "β", lambda f, g, h, i: i * (f - h) / (h - g),
             lambda f, g, h, i: h - g == 0.0, "h = g (no proviso is stated for this case)"),
    _Reading(RuleId.NegIL, _LEFT, ("β", "u", "β|"), "~β|", lambda f, g, h: (g - f * h) / (1.0 - f),
             lambda f, g, h: f == 1.0, "f = 1"),
    _Reading(RuleId.NegELa, _LEFT, ("β", "u", "~β|"), "β|", lambda f, g, h: (g + h * (f - 1.0)) / f,
             lambda f, g, h: f == 0.0, "f is zero"),
    _Reading(RuleId.NegELb, _LEFT, ("β", "β|", "~β|"), "u", lambda f, g, h: h - h * f + g * f),
    _Reading(RuleId.NegELc, _LEFT, ("u", "β|", "~β|"), "β", lambda f, g, h: (f - h) / (g - h),
             lambda f, g, h: g == h, "g = h (no proviso is stated for this case)"),
)}


def _unfold(shape: str, p: Judgment, where: str, form: str):
    """(t, the value of X, (u, δ)) that p shows in form X->u, X*u or u*X, t an atomic variable."""
    shown, term, value = None, p.subject, p.value
    if shape == "X->u":  # σ |> [t]u : X->δ
        if isinstance(term, Cond) and isinstance(value, Arrow):
            shown = term.antecedent, value.left, (term.consequent, value.right)
    elif isinstance(term, Pair) and isinstance(value, Prod):
        if shape == "X*u":  # σ |> <t,u> : X*δ
            shown = term.left, value.left, (term.right, value.right)
        else:  # u*X: σ |> <u,t> : δ*X
            shown = term.right, value.right, (term.left, value.left)
    if shown is None:
        raise ShapeMismatch(f"{where} is not of the form {form}")
    if not isinstance(shown[0], Atom):
        raise ShapeMismatch(f"{where}: {print_term(shown[0])} is not an atomic variable")
    return shown


# What a reading's matcher calls each value that premises show.
_NAMES = {"t": "t", "γ": "gamma", "β": "beta", "u : δ": "query"}
# For each X: the class its value must be of, the letters it shows with the
# part of its value that shows each, and the value it concludes.
_X_FORMS = {
    "γ": (None, (("γ", ""),), "gamma"),
    "β": (None, (("β", ""),), "beta"),
    "γ+β": ("Or", (("γ", ".left"), ("β", ".right")), "Or(gamma, beta)"),
    "~β": ("Neg", (("β", ".inner"),), "Neg(beta)"),
}


def _compile(reading: _Reading) -> Callable:
    """The reading's matcher, `match(conclusions, schema, side)`, written out as Python, compiled and kept in the row.

    It matches the premises to the reading's forms in order, then applies
    its formula.  σ is the context of premise k, the first whose form has no
    `|`, or else the first premise's antecedent less its last attribution.
    The first premise that shows t, γ, β or u : δ binds it, and each later
    one must agree, with `==`, but an `X|` premise's t, an atomic variable,
    compares by its name.  The conclusion shows the first X premise's subject
    for t, if there is one, and the first premise's u that shows one.
    """
    rule = reading.id
    forms = [_read_form(form) for form in reading.forms]
    k = next((n for n, (shape, _) in enumerate(forms, 1) if shape != "X|"), 0)  # 0 if every form has a `|`
    numbers = range(1, len(forms) + 1)
    premises, probabilities = "".join(f"p{n}, " for n in numbers), "".join(f"p{n}.probability, " for n in numbers)
    code = [f"{premises}= conclusions", f"sigma = p{k}.antecedent" if k else "sigma = p1.antecedent[:-1]"]
    first = {}  # t, γ, β and u : δ: the number of the first premise that shows each
    named = set()  # the premises whose t is a variable's name: those of form X|
    t_subject = None

    def show(n, key, expr):
        if key in first:
            differs = f"{expr} != {_NAMES[key]}"
            if key == "t" and (n in named) != (first[key] in named):  # a name against a term
                term, name = ("t", expr) if n in named else (expr, "t")
                differs = f"{term}.__class__ is not Atom or {term}.name != {name}"
            message = f"{rule.value}: premise {n}: {key} differs from premise {first[key]}'s"
            code.append(f"if {differs}: raise ShapeMismatch({message!r})")
        else:
            first[key] = n
            code.append(f"{_NAMES[key]} = {expr}")

    for n, (shape, x) in enumerate(forms, 1):
        p, where = f"p{n}", f"{rule.value}: premise {n}"
        u = f"({p}.subject, {p}.value)"
        if shape == "X|":  # σ, t : X |> u : δ
            origin = f"the context of premise {k}" if k else "its own context"
            code += ["try:", f"    extra = _extension({p}, sigma)", "except ShapeMismatch as exc:",
                     f"    raise ShapeMismatch({f'{where}, with {origin}: '!r} + str(exc)) from None",
                     f"t{n}, v{n} = extra.variable, extra.value"]
            named.add(n)
        elif n != k:
            message = f"{where}: the context differs from premise {k}'s"
            code.append(f"if {p}.antecedent is not sigma and not same_sigma({p}.antecedent, sigma): "
                        f"raise ShapeMismatch({message!r})")
        if shape == "X":  # σ |> t : X
            code.append(f"t{n}, v{n} = {p}.subject, {p}.value")
            t_subject, u = t_subject or f"{p}.subject", None
        elif shape not in ("u", "X|"):  # X->u, X*u or u*X
            code.append(f"t{n}, v{n}, u{n} = _unfold({shape!r}, {p}, {where!r}, {reading.forms[n - 1]!r})")
            u = f"u{n}"
        if u is not None:
            show(n, "u : δ", u)
        if shape == "u":
            continue
        kind, letters, _ = _X_FORMS[x]
        if kind:
            shown = f"t{n}" if n in named else f"print_term(t{n})"
            code.append(f"if not isinstance(v{n}, {kind}): raise ShapeMismatch({f'{where}: the value of '!r}"
                        f" + {shown} + {f' is not of the form {x}'!r})")
        show(n, "t", f"t{n}")
        for key, part in letters:
            show(n, key, f"v{n}{part}")
    t_name, t_term = ("t", "Atom(t)") if first["t"] in named else ("t.name", "t")
    t_subject = t_subject or t_term
    shape, x = _read_form(reading.concludes)
    code.append("evidence = []")
    if x == "γ+β":  # the conclusion's disjunction needs γ and β exclusive
        code.append(f"evidence.append(_exclusivity_evidence({t_subject}, gamma, beta, schema, rule))")
    if reading.independent:
        code.append(f"evidence.append(_independence_evidence(side, {t_term}, query[0], rule))")
    code.append(f"f = {probabilities}")
    if reading.undefined is not None:
        code.append(f"if undefined(*f): raise ZeroDenominator({f'{rule.value}: {reading.why}'!r})")
    code.append("p = _finish(formula(*f), rule)")
    value = _X_FORMS[x][2] if x else None
    code.append("return " + {
        "u": "Judgment(sigma, query[0], query[1], p)",
        "X": f"Judgment(sigma, {t_subject}, {value}, p)",
        "X|": f"Judgment(sigma + (ValueAttribution({t_name}, {value}),), query[0], query[1], p)",
        "X->u": f"Judgment(sigma, Cond({t_subject}, query[0]), Arrow({value}, query[1]), p)",
        "X*u": f"Judgment(sigma, Pair({t_subject}, query[0]), Prod({value}, query[1]), p)",
        "u*X": f"Judgment(sigma, Pair(query[0], {t_subject}), Prod(query[1], {value}), p)",
    }[shape] + ", evidence")
    env = {**globals(), "rule": rule, "formula": reading.formula, "undefined": reading.undefined}
    exec("def match(conclusions, schema, side):\n" + "".join(f"    {line}\n" for line in code), env)
    object.__setattr__(reading, "_match", env["match"])
    return env["match"]


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
            and expected.subject == actual.subject
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
