"""The one rule matcher against the hand-written handlers it replaced.

The reference below is the rule code as it stood before every rule became
a row of `calculus._READINGS`: seven handlers for the fourteen right-rule
readings, and the left-rule handler with its table of nine.  A seeded
generator builds well-shaped premises for each of the 23 readings, then
perturbs them, and both sides must agree on every outcome: the conclusion,
the probability to the bit, the side-condition evidence, or the class of
the error.  Two kinds of divergence are expected.  A ProdE minor premise
of probability 0 that is also misshapen, or whose major premise shows a
composite t, was refused with ZeroDenominator, since the handler divided
before it matched the minor premise, and is now refused with ShapeMismatch.
And the Or eliminations, whose formulas read P(γ+β) as P(γ) + P(β), now
require γ and β exclusive, as OrIR and OrIL do: where they overlap the
matcher refuses with SideConditionUnproved, and where they are exclusive it
records the fact.
Terms have no projections, since the parser resolves them, so the
reference compares subjects with `==` and reads a pair's components
directly, and the generator builds each projected term in its resolved form.
"""

import random

import pytest

from tndpq import calculus
from tndpq.calculus import (
    RuleId,
    _exclusivity_evidence,
    _extension,
    _finish,
)
from tndpq.errors import ConsistencyError, ShapeMismatch, SideConditionUnproved, TndpqError, ZeroDenominator
from tndpq.syntax import (
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
    print_term,
    record,
    require_linear,
    term_atoms,
    same_sigma,
)

# ---------------------------------------------------------------------------
# The reference: the handlers as they were, with the helpers they alone used


def _nonzero(x, rule, what):
    if x == 0.0:
        raise ZeroDenominator(f"{rule.value}: {what} is zero")
    return x


def _as_atom(term, rule):
    if not isinstance(term, Atom):
        raise ShapeMismatch(f"{rule.value}: {print_term(term)} cannot appear in an antecedent")
    return term


def _require(condition, rule, message):
    if not condition:
        raise ShapeMismatch(f"{rule.value}: {message}")


def _independence_evidence(side, t, u, rule):
    for fact in side or ():
        if fact.get("kind") != "independent":
            continue
        if {fact.get("t"), fact.get("u")} == {t, u}:
            if fact.get("asserted") or fact.get("verdict"):
                return dict(fact)
            raise SideConditionUnproved(f"{rule.value}: independence evidence for {t!r}, {u!r} is negative")
    raise SideConditionUnproved(f"{rule.value}: no independence evidence for {t!r} and {u!r}")


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
    term = p.subject
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
        t_term, u_term = major.subject, minor.subject
        beta, delta = major.value, minor.value
    else:
        t_term, u_term = minor.subject, major.subject
        beta, delta = minor.value, major.value
    conclusion = Judgment(sigma, Pair(t_term, u_term), Prod(beta, delta), _finish(f * g, rule))
    return conclusion, []


def _rule_prod_e(rule, conclusions, schema, side, direction):
    second = rule == RuleId.ProdE2a or rule == RuleId.ProdE2b
    conditional_form = rule == RuleId.ProdE1b or rule == RuleId.ProdE2b
    major, minor = conclusions
    _require(isinstance(major.value, Prod), rule, "major premise value is not a product")
    beta, delta = major.value.left, major.value.right
    t = major.subject
    sigma = major.antecedent
    f = major.probability
    g = _nonzero(minor.probability, rule, "the minor premise probability")
    _require(isinstance(t, Pair), rule, "major premise subject is not a pair")
    kept_term, kept_value = (t.right, delta) if second else (t.left, beta)
    other_term, other_value = (t.left, beta) if second else (t.right, delta)
    if conditional_form:
        _require(same_sigma(minor.antecedent, sigma), rule, "minor premise context differs")
        _require(minor.subject == kept_term, rule, "minor premise subject mismatch")
        _require(minor.value == kept_value, rule, "minor premise value mismatch")
        kept_atom = _as_atom(kept_term, rule)
        conclusion = Judgment(
            sigma + (ValueAttribution(kept_atom.name, kept_value),),
            other_term,
            other_value,
            _finish(f / g, rule),
        )
    else:
        extra = _extension(minor, sigma)
        kept_atom = _as_atom(kept_term, rule)
        _require(extra.variable == kept_atom.name and extra.value == kept_value, rule, "minor premise antecedent mismatch")
        _require(minor.subject == other_term, rule, "minor premise subject mismatch")
        _require(minor.value == other_value, rule, "minor premise value mismatch")
        conclusion = Judgment(sigma, kept_term, kept_value, _finish(f / g, rule))
    return conclusion, []


def _rule_or_ir(rule, conclusions, schema, side, direction):
    p1, p2 = conclusions
    _require(same_sigma(p1, p2), rule, "premise contexts differ")
    _require(p1.subject == p2.subject, rule, "premise subjects differ")
    evidence = _exclusivity_evidence(p1.subject, p1.value, p2.value, schema, rule)
    conclusion = Judgment(
        p1.antecedent, p1.subject, Or(p1.value, p2.value), _finish(p1.probability + p2.probability, rule)
    )
    return conclusion, [evidence]


def _rule_or_er(rule, conclusions, schema, side, direction):
    second = rule == RuleId.OrERb
    p1, p2 = conclusions
    _require(isinstance(p1.value, Or), rule, "major premise value is not a disjunction")
    _require(same_sigma(p1, p2), rule, "premise contexts differ")
    _require(p1.subject == p2.subject, rule, "premise subjects differ")
    expected = p1.value.right if second else p1.value.left
    remaining = p1.value.left if second else p1.value.right
    _require(p2.value == expected, rule, "minor premise value is not the matching disjunct")
    conclusion = Judgment(p1.antecedent, p1.subject, remaining, _finish(p1.probability - p2.probability, rule))
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
    u_term = p1.subject
    t_term = p2.subject
    require_linear(Pair(t_term, u_term))
    evidence = _independence_evidence(side, print_term(t_term), print_term(u_term), rule)
    g, f = p1.probability, p2.probability
    conclusion = Judgment(p1.antecedent, Pair(p2.subject, p1.subject), Prod(p2.value, p1.value), _finish(f * g, rule))
    return conclusion, [evidence]


@record(frozen=True)
class _Left:
    forms: tuple
    concludes: str
    formula: object
    undefined: object = None
    why: str = ""


_LEFT = {
    RuleId.OrIL: _Left(("γ|", "β|", "γ", "β"), "γ+β|", lambda f, g, h, i: (f * h + g * i) / (h + i),
                       lambda f, g, h, i: h + i == 0.0, "h + i is zero"),
    RuleId.OrELa: _Left(("γ+β|", "β|", "γ", "β"), "γ|", lambda f, g, h, i: (f * (h + i) - g * i) / h,
                        lambda f, g, h, i: h == 0.0, "h is zero"),
    RuleId.OrELb: _Left(("γ+β|", "γ|", "γ", "β"), "β|", lambda f, g, h, i: (f * (h + i) - g * h) / i,
                        lambda f, g, h, i: i == 0.0, "i is zero"),
    RuleId.OrELc: _Left(("γ|", "β|", "γ+β|", "β"), "γ", lambda f, g, h, i: i * (g - h) / (h - f),
                        lambda f, g, h, i: h - f == 0.0, "h = f"),
    RuleId.OrELd: _Left(("γ|", "β|", "γ+β|", "γ"), "β", lambda f, g, h, i: i * (f - h) / (h - g),
                        lambda f, g, h, i: h - g == 0.0, "h = g"),
    RuleId.NegIL: _Left(("β", "u", "β|"), "~β|", lambda f, g, h: (g - f * h) / (1.0 - f),
                        lambda f, g, h: f == 1.0, "f = 1"),
    RuleId.NegELa: _Left(("β", "u", "~β|"), "β|", lambda f, g, h: (g + h * (f - 1.0)) / f,
                         lambda f, g, h: f == 0.0, "f is zero"),
    RuleId.NegELb: _Left(("β", "β|", "~β|"), "u", lambda f, g, h: h - h * f + g * f),
    RuleId.NegELc: _Left(("u", "β|", "~β|"), "β", lambda f, g, h: (f - h) / (g - h),
                         lambda f, g, h: g == h, "g = h"),
}


def _parts(x, value):
    if x == "γ+β":
        return (("γ", value.left), ("β", value.right)) if isinstance(value, Or) else None
    if x == "~β":
        return (("β", value.inner),) if isinstance(value, Neg) else None
    return ((x, value),)


def _shown(x, values):
    if x == "γ+β":
        return Or(values["γ"], values["β"])
    if x == "~β":
        return Neg(values["β"])
    return values[x]


def _rule_left(rule, conclusions, schema, side, direction):
    row = _LEFT[rule]
    k = next(n for n, form in enumerate(row.forms, 1) if not form.endswith("|"))
    sigma = conclusions[k - 1].antecedent
    bound = {}
    t_subject = query = None
    for n, (p, form) in enumerate(zip(conclusions, row.forms), 1):
        x = form.rstrip("|")
        conditional = x != form
        shows = []
        if not conditional and not same_sigma(p.antecedent, sigma):
            raise ShapeMismatch(f"{rule.value}: premise {n}: the context differs from premise {k}'s")
        if conditional or x == "u":
            shows.append(("u : δ", (p.subject, p.value)))
            query = p if query is None else query
        if conditional:
            try:
                extra = _extension(p, sigma)
            except ShapeMismatch as exc:
                raise ShapeMismatch(f"{rule.value}: premise {n}, with the context of premise {k}: {exc}") from None
            name, value = extra.variable, extra.value
        elif x != "u":
            term = p.subject
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
    if x == "γ+β":
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


REFERENCE = {
    RuleId.ImpIE: _rule_imp_ie,
    RuleId.ProdI1: _rule_prod_i,
    RuleId.ProdI2: _rule_prod_i,
    RuleId.ProdE1a: _rule_prod_e,
    RuleId.ProdE1b: _rule_prod_e,
    RuleId.ProdE2a: _rule_prod_e,
    RuleId.ProdE2b: _rule_prod_e,
    RuleId.OrIR: _rule_or_ir,
    RuleId.OrERa: _rule_or_er,
    RuleId.OrERb: _rule_or_er,
    RuleId.NegIER: _rule_neg_ier,
    RuleId.ProdIIndep: _rule_prod_i_indep,
    **{rule: _rule_left for rule in _LEFT},
}

# ---------------------------------------------------------------------------
# The generator: premises in the forms of each reading, then perturbed

SCHEMA = AttributeSchema.of(
    [("X", ("a", "b", "c")), ("Y", ("u", "v")), ("Z", ("m", "n")), ("W", ("p", "q")), ("V", ("r", "s", "t"))]
)
PROBABILITIES = (0.0, 0.0, 0.1, 0.2, 0.25, 0.3, 0.5, 0.6, 0.75, 1.0)
PERTURBATIONS = ("none", "none", "sigma", "t", "value", "subject", "zero", "composite", "shape")
PER_READING = 1850


def _atom(rng, variable):
    return AtomVal(rng.choice(SCHEMA.atoms(variable)))


def _det(rng, variable):
    """An atom of the variable, or a disjunction or negation of its atoms."""
    kind = rng.random()
    if kind < 0.7:
        return _atom(rng, variable)
    if kind < 0.85:
        return Or(_atom(rng, variable), _atom(rng, variable))
    return Neg(_atom(rng, variable))


def _term(rng, names, kind):
    """A term over the first one or two `names` and a value maker for it."""
    a, b = names[0], names[1]
    if kind == "atom":
        return Atom(a), lambda: _det(rng, a)
    if kind == "projected":
        return Atom(a), lambda: _det(rng, a)  # fst(<a,b>), as the parser reads it
    if kind == "pair":
        return Pair(Atom(a), Atom(b)), lambda: Prod(_atom(rng, a), _atom(rng, b))
    return Cond(Atom(a), Atom(b)), lambda: Arrow(_atom(rng, a), _atom(rng, b))


def _kind(rng):
    return rng.choices(("atom", "projected", "pair", "cond"), (7, 1, 1, 1))[0]


def _judgment(sigma, shape, t, x_value, u, delta, p):
    if shape == "X":
        return Judgment(sigma, t, x_value, p)
    if shape == "u":
        return Judgment(sigma, u, delta, p)
    if shape == "X|":
        name = min(term_atoms(t))  # a composite t shows one of its variables
        return Judgment(sigma + (ValueAttribution(name, x_value),), u, delta, p)
    if shape == "X*u":
        return Judgment(sigma, Pair(t, u), Prod(x_value, delta), p)
    if shape == "u*X":
        return Judgment(sigma, Pair(u, t), Prod(delta, x_value), p)
    return Judgment(sigma, Cond(t, u), Arrow(x_value, delta), p)


def _x_value(x, gamma, beta):
    return {"γ": gamma, "β": beta, "γ+β": Or(gamma, beta), "~β": Neg(beta)}[x]


def _case(rng, rule, direction):
    """Premise conclusions for one reading of `rule`, perhaps perturbed, and the side conditions."""
    reading = calculus._READINGS[rule, direction]
    names = rng.sample([name for name, _ in SCHEMA.variables], 5)
    t_kind = _kind(rng) if rng.random() < 0.2 else "atom"
    t, t_value = _term(rng, names[0:2], t_kind)
    u, u_value = _term(rng, names[2:4], _kind(rng) if rng.random() < 0.3 else "atom")
    sigma_names = [names[4]] + ([names[1]] if t_kind in ("atom", "cond") else [])
    sigma = tuple(ValueAttribution(n, _det(rng, n)) for n in sigma_names[: rng.randint(0, 2)])
    gamma, beta = t_value(), t_value()
    delta = u_value()
    perturbation = rng.choice(PERTURBATIONS)
    victim = rng.randrange(len(reading.forms))
    premises = []
    for n, (shape, x) in enumerate(map(calculus._read_form, reading.forms)):
        s, tt, g, b, uu, d = sigma, t, gamma, beta, u, delta
        p = rng.choice(PROBABILITIES) if rng.random() < 0.5 else rng.random()
        if n == victim:
            if perturbation == "sigma":
                s = rng.choice([
                    (), sigma[::-1], sigma[:-1], sigma + (ValueAttribution(names[4], _det(rng, names[4])),),
                    tuple(ValueAttribution(va.variable, _det(rng, va.variable)) for va in sigma),
                ])
            elif perturbation == "t":
                tt = Atom(names[1]) if t_kind == "atom" else Atom(names[0])
            elif perturbation == "value":
                g, b, d = rng.choice([(t_value(), b, d), (g, t_value(), d), (g, b, u_value())])
            elif perturbation == "subject":  # the second choice is snd(<names[3],u>)
                uu = rng.choice([Atom(names[3]), u, Pair(u, Atom(names[3]))])
            elif perturbation == "zero":
                p = 0.0
            elif perturbation == "composite":  # the third choice is snd(<names[1],t>)
                tt = rng.choice([Pair(t, Atom(names[1])), Cond(t, Atom(names[1])), t])
            elif perturbation == "shape" and shape == "X|":
                shape = "u"  # the attribution to t left out
            elif perturbation == "shape":
                g = b = rng.choice([Prod(g, d), Arrow(g, d), Neg(g), Or(g, b)])
        premises.append(_judgment(s, shape, tt, _x_value(x, g, b) if x else None, uu, d, p))
    side = ()
    if reading.independent:
        t_name, u_name = print_term(t), print_term(u)
        fact = rng.choice([{"verdict": True}, {"verdict": False}, {"asserted": True}, None])
        if fact is not None:
            pair = (t_name, u_name) if rng.random() < 0.5 else (u_name, t_name)
            if rng.random() < 0.1:
                pair = (t_name, names[4])
            side = ({"kind": "independent", "t": pair[0], "u": pair[1], **fact},)
    return premises, side


def _outcome(handler, rule, premises, side, direction):
    try:
        conclusion, evidence = handler(rule, premises, SCHEMA, side, direction)
    except TndpqError as exc:
        return type(exc)
    return conclusion, conclusion.probability.hex(), evidence


def _matched(rule, premises, schema, side, direction):
    """The row's compiled matcher, called as the handlers were."""
    reading = calculus._READINGS[rule, direction]
    return (reading._match or calculus._compile(reading))(premises, schema, side)


def _expected_divergence(rule, premises, reference, matched):
    """Whether the outcomes differ in one of the two expected ways.

    ProdE's zero minor premise was met before a misshapen premise.  An Or
    elimination's premise shows γ+β, which the handlers took on trust: the
    matcher refuses where γ and β overlap, and records their exclusivity
    where they do not.
    """
    if rule in (RuleId.ProdE1a, RuleId.ProdE1b, RuleId.ProdE2a, RuleId.ProdE2b):
        return premises[1].probability == 0.0 and reference is ZeroDenominator and matched is ShapeMismatch
    if rule not in (RuleId.OrERa, RuleId.OrERb, RuleId.OrELa, RuleId.OrELb, RuleId.OrELc, RuleId.OrELd):
        return False
    forms = calculus._READINGS[rule, "forward"].forms
    if "γ+β" in forms:  # OrERa, OrERb: t : γ+β is the first premise
        t, shown = premises[0].subject, premises[0].value
    else:  # σ, t : γ+β |> u : δ, with t and σ those of the first premise of form γ or β
        k = next(n for n, form in enumerate(forms) if not form.endswith("|"))
        t, shown = premises[k].subject, _extension(premises[forms.index("γ+β|")], premises[k].antecedent).value
    try:
        evidence = _exclusivity_evidence(t, shown.left, shown.right, SCHEMA, rule)
    except TndpqError as exc:  # refused before the formula, where the reference refused in it or not at all
        later = isinstance(reference, tuple) or reference in (ZeroDenominator, ConsistencyError)
        return later and matched is type(exc)
    return isinstance(reference, tuple) and matched == (*reference[:2], [evidence])


READINGS = sorted(calculus._READINGS, key=lambda key: (key[0].value, key[1]))


def test_every_reading_is_compared():
    assert len(READINGS) == 23
    assert {rule for rule, _ in READINGS} == set(RuleId) - {RuleId.AtQuery} == set(REFERENCE)


def test_the_matcher_agrees_with_the_handlers_it_replaced():
    rng = random.Random(24)
    tuples = outcomes = 0
    diverged = set()
    for rule, direction in READINGS:
        for _ in range(PER_READING):
            try:
                premises, side = _case(rng, rule, direction)
            except TndpqError:  # a premise the generator cannot build, such as a σ naming t
                continue
            tuples += 1
            reference = _outcome(REFERENCE[rule], rule, premises, side, direction)
            matched = _outcome(_matched, rule, premises, side, direction)
            outcomes += not isinstance(matched, type)
            if matched != reference:
                assert _expected_divergence(rule, premises, reference, matched), (rule, direction, premises, side)
                diverged.add(rule)
    assert tuples >= 40_000
    assert outcomes >= tuples // 5  # enough conclusions are drawn, not only refusals
    assert RuleId.ProdE1a in diverged and RuleId.OrELa in diverged  # the generator reaches both kinds


@pytest.mark.parametrize("rule", [RuleId.ProdE1a, RuleId.ProdE1b, RuleId.ProdE2a, RuleId.ProdE2b])
def test_a_misshapen_minor_premise_of_probability_zero_is_a_shape_mismatch(rule):
    major = Judgment((), Pair(Atom("X"), Atom("Y")), Prod(AtomVal("a"), AtomVal("u")), 0.2)
    minor = Judgment((), Atom("Z"), AtomVal("m"), 0.0)
    with pytest.raises(ShapeMismatch):
        calculus.apply_rule(rule, [calculus.Derivation(j, RuleId.AtQuery) for j in (major, minor)], SCHEMA)
