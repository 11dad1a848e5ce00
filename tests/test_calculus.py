"""Rule engine: worked examples, inversion round trips, coherence."""

import collections
import random
import re

import pytest

from tndpq import calculus
from tndpq.calculus import (
    _READINGS,
    Derivation,
    Plan,
    PlanStep,
    RuleId,
    _extension,
    apply_rule,
    at_query,
    check_derivation,
    independence_fact,
    run_plan,
)
from tndpq.construction import RIGHT_E_RULES, RIGHT_I_RULES
from tndpq.errors import (
    ConsistencyError,
    IllFormed,
    ProvenanceMismatch,
    RuleNotAllowed,
    ShapeMismatch,
    SideConditionUnproved,
    ZeroDenominator,
)
from tndpq.syntax import (
    Atom,
    AtomVal,
    AttributeSchema,
    Judgment,
    Neg,
    Or,
    Pair,
    Prod,
    ValueAttribution,
    parse_attribution_list,
    parse_judgment,
    parse_term,
    parse_value,
    same_sigma,
)
from tndpq.systems import Estimator, TrainingSet, independent

# every conclusion a rule builds in these tests must parse back
pytestmark = pytest.mark.usefixtures("conclusions_parse_back")

SCHEMA = AttributeSchema.of(
    [("X", ("a", "b", "c")), ("Y", ("u", "v")), ("Z", ("m", "n"))]
)
FREQ = Estimator("A", "freq")


def leaf(text, schema=SCHEMA):
    return Derivation(parse_judgment(text, schema), RuleId.AtQuery)


LOAN = AttributeSchema.of(
    [
        ("Age", ("18", "27", "35")),
        ("Gen", ("f", "m")),
        ("MS", ("single", "married", "divorced")),
        ("Etn", ("white", "black")),
        ("Loan", ("yes", "no")),
    ]
)


def test_conjunction_loan_example():
    sigma = "Age:27, MS:married+divorced, Etn:~white"
    major = leaf(f"{sigma}, Gen:f |> Loan : yes @ 0.60", LOAN)
    minor = leaf(f"{sigma} |> Gen : f @ 0.50", LOAN)
    d = apply_rule(RuleId.ProdI1, [major, minor], LOAN)
    assert d.conclusion.probability == pytest.approx(0.30)
    expected = parse_judgment(f"{sigma} |> <Gen,Loan> : f*yes @ 0.30", LOAN)
    assert d.conclusion.subject == expected.subject
    assert d.conclusion.value == expected.value


def test_disjunction_example_or_el_a():
    p1 = leaf("X:a+b |> Y : u @ 0.60")
    p2 = leaf("X:b |> Y : u @ 0.40")
    p3 = leaf("|> X : a @ 0.45")
    p4 = leaf("|> X : b @ 0.10")
    d = apply_rule(RuleId.OrELa, [p1, p2, p3, p4], SCHEMA)
    assert d.conclusion.probability == pytest.approx((0.60 * 0.55 - 0.40 * 0.10) / 0.45)
    assert abs(d.conclusion.probability - 0.64) < 0.005


def test_negation_example_neg_el_a():
    p1 = leaf("|> X : a @ 0.80")
    p2 = leaf("|> Y : u @ 0.75")
    p3 = leaf("X:~a |> Y : u @ 0.60")
    d = apply_rule(RuleId.NegELa, [p1, p2, p3], SCHEMA)
    assert d.conclusion.probability == pytest.approx(0.7875)
    assert abs(d.conclusion.probability - 0.79) < 0.005


def test_or_il_recomposes_disjunction_example():
    f = (0.60 * 0.55 - 0.40 * 0.10) / 0.45
    p1 = leaf(f"X:a |> Y : u @ {f}")
    p2 = leaf("X:b |> Y : u @ 0.40")
    p3 = leaf("|> X : a @ 0.45")
    p4 = leaf("|> X : b @ 0.10")
    d = apply_rule(RuleId.OrIL, [p1, p2, p3, p4], SCHEMA)
    assert d.conclusion.probability == pytest.approx(0.60)


def test_neg_ier_involution():
    p = leaf("|> Y : u @ 0.3")
    once = apply_rule(RuleId.NegIER, [p], SCHEMA)
    assert once.conclusion.probability == pytest.approx(0.7)
    twice = apply_rule(RuleId.NegIER, [once], SCHEMA, direction="backward")
    assert twice.conclusion.value == p.conclusion.value
    assert twice.conclusion.probability == pytest.approx(0.3)


def test_imp_ie_round_trip():
    p = leaf("Z:m, X:a |> Y : u @ 0.25")
    forward = apply_rule(RuleId.ImpIE, [p], SCHEMA)
    assert forward.conclusion == parse_judgment("Z:m |> [X]Y : a->u @ 0.25", SCHEMA)
    backward = apply_rule(RuleId.ImpIE, [forward], SCHEMA, direction="backward")
    assert backward.conclusion == p.conclusion


@pytest.mark.parametrize(
    "rule, premises, direction",
    [
        (RuleId.OrIR, ("|> X : a @ 0.2", "|> X : b @ 0.3"), "backward"),
        (RuleId.ProdI1, ("X:a |> Y : u @ 0.5", "|> X : a @ 0.2"), "backward"),
        (RuleId.NegIER, ("|> Y : u @ 0.3",), "sideways"),
        (RuleId.ImpIE, ("X:a |> Y : u @ 0.3",), "Forward"),
    ],
)
def test_direction_must_be_a_reading_of_the_rule(rule, premises, direction):
    nodes = [leaf(text) for text in premises]
    with pytest.raises(RuleNotAllowed, match=f"direction {direction!r} is not allowed"):
        apply_rule(rule, nodes, SCHEMA, direction=direction)
    good = apply_rule(rule, nodes, SCHEMA)
    bad = Derivation(good.conclusion, good.rule, good.premises, good.side_conditions, good.provenance, direction)
    assert check_derivation(good, SCHEMA).ok
    (violation,) = check_derivation(bad, SCHEMA).violations
    assert violation[:2] == ("root", "RuleNotAllowed")


def test_every_rule_but_the_axiom_has_one_table_entry():
    assert {rule for rule, direction in _READINGS if direction == "forward"} == set(RuleId) - {RuleId.AtQuery}
    assert {rule for rule, direction in _READINGS if direction == "backward"} == {RuleId.ImpIE, RuleId.NegIER}


def test_right_rule_sets_are_read_from_the_table():
    assert RIGHT_I_RULES == {
        (RuleId.ProdI1, "forward"),
        (RuleId.ProdI2, "forward"),
        (RuleId.ProdIIndep, "forward"),
        (RuleId.OrIR, "forward"),
        (RuleId.NegIER, "forward"),
        (RuleId.ImpIE, "forward"),
    }
    assert RIGHT_E_RULES == {
        (RuleId.ProdE1a, "forward"),
        (RuleId.ProdE1b, "forward"),
        (RuleId.ProdE2a, "forward"),
        (RuleId.ProdE2b, "forward"),
        (RuleId.OrERa, "forward"),
        (RuleId.OrERb, "forward"),
        (RuleId.NegIER, "backward"),
        (RuleId.ImpIE, "backward"),
    }


@pytest.mark.parametrize(
    "rule, count, given",
    [
        (RuleId.ImpIE, 1, 2),
        (RuleId.NegIER, 1, 0),
        ("OrIR", 2, 1),
        (RuleId.ProdIIndep, 2, 3),
        (RuleId.NegELb, 3, 2),
        (RuleId.OrIL, 4, 3),
        (RuleId.OrELd, 4, 5),
    ],
)
def test_premise_count_message(rule, count, given):
    nodes = [leaf("|> X : a @ 0.2")] * given
    with pytest.raises(ShapeMismatch) as caught:
        apply_rule(rule, nodes, SCHEMA)
    assert str(caught.value) == f"{RuleId(rule).value} takes {count} premises, got {given}"


def test_a_rule_with_no_table_entry_is_named():
    with pytest.raises(RuleNotAllowed, match="AtQuery is an axiom.*use at_query"):
        apply_rule(RuleId.AtQuery, [], SCHEMA)
    with pytest.raises(RuleNotAllowed, match="no inference rule 'Nope'"):
        apply_rule("Nope", [leaf("|> X : a @ 0.2")], SCHEMA)
    node = Derivation(parse_judgment("|> X : a @ 0.2", SCHEMA), "Nope", (leaf("|> X : a @ 0.2"),))
    (violation,) = check_derivation(node, SCHEMA).violations
    assert violation[:2] == ("root", "RuleNotAllowed")


def test_a_rule_given_by_name_is_stored_as_its_id():
    d = apply_rule("OrIR", [leaf("|> X : a @ 0.2"), leaf("|> X : b @ 0.3")], SCHEMA)
    assert d.rule is RuleId.OrIR
    assert d == apply_rule(RuleId.OrIR, d.premises, SCHEMA)


def test_or_ir_side_condition():
    p1 = leaf("|> X : a @ 0.2")
    p2 = leaf("|> X : b @ 0.3")
    d = apply_rule(RuleId.OrIR, [p1, p2], SCHEMA)
    assert d.conclusion.probability == pytest.approx(0.5)
    assert d.side_conditions[0]["kind"] == "exclusive"
    overlap = leaf("|> X : a+b @ 0.5")
    with pytest.raises(SideConditionUnproved):
        apply_rule(RuleId.OrIR, [p1, overlap], SCHEMA)


def test_or_ir_over_a_conditional_below_a_pair_is_refused():
    # ImpIE then ProdI1 build |> <Z,[X]Y> : m*(a->u); exclusivity of two such
    # values has no reading, so OrIR raises ShapeMismatch (it crashed before)
    def conclusion(text):
        implication = apply_rule(RuleId.ImpIE, [leaf(text)], SCHEMA)
        return apply_rule(RuleId.ProdI1, [implication, leaf("|> Z : m @ 0.5")], SCHEMA)

    d1 = conclusion("Z:m, X:a |> Y : u @ 0.25")
    d2 = conclusion("Z:m, X:a |> Y : v @ 0.75")
    assert d1.conclusion == parse_judgment("|> <Z,[X]Y> : m*(a->u) @ 0.125", SCHEMA)
    with pytest.raises(ShapeMismatch, match="below a pair"):
        apply_rule(RuleId.OrIR, [d1, d2], SCHEMA)


def test_or_ir_prints_only_its_evidence(monkeypatch):
    from tndpq import calculus, exclusivity

    calls = []

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls.append((name, real(*args)))
            return calls[-1][1]

        monkeypatch.setattr(module, name, wrapper)

    for module in (calculus, exclusivity):
        counting(module, "print_value")
        counting(module, "print_term")
    p1 = leaf("|> <X,Y> : a*u + b*v @ 0.2")
    p2 = leaf("|> <X,Y> : c*~u @ 0.3")
    d = apply_rule(RuleId.OrIR, [p1, p2], SCHEMA)
    assert d.side_conditions == (
        {
            "kind": "exclusive",
            "term": parse_term("<X,Y>"),
            "left": parse_value("a*u + b*v"),
            "right": parse_value("c*~u"),
        },
    )
    assert calls == []


def test_prod_i_indep_requires_evidence():
    p1 = leaf("|> Y : u @ 0.5")
    p2 = leaf("|> X : a @ 0.2")
    with pytest.raises(SideConditionUnproved):
        apply_rule(RuleId.ProdIIndep, [p1, p2], SCHEMA)
    side = [{"kind": "independent", "t": "X", "u": "Y", "asserted": True}]
    d = apply_rule(RuleId.ProdIIndep, [p1, p2], SCHEMA, side=side)
    assert d.conclusion.probability == pytest.approx(0.1)
    assert d.conclusion.value == parse_judgment("|> <X,Y> : a*u @ 0.1", SCHEMA).value


def test_prod_i_indep_requires_a_linear_pair():
    premises = [leaf("|> X : a @ 0.4"), leaf("|> X : b @ 0.4")]
    side = [{"kind": "independent", "t": "X", "u": "X", "asserted": True}]
    with pytest.raises(IllFormed, match="term <X,X> names 'X' more than once"):
        apply_rule(RuleId.ProdIIndep, premises, SCHEMA, side=side)
    # a hand-built node of that shape is reported by the checker
    pair = Judgment((), Pair(Atom("X"), Atom("X")), Prod(AtomVal("b"), AtomVal("a")), 0.16)
    node = Derivation(pair, RuleId.ProdIIndep, tuple(premises), tuple(side))
    (violation,) = check_derivation(node, SCHEMA).violations
    assert violation[:2] == ("root", "IllFormed")


def test_independence_fact_records_the_test():
    rows = tuple({"X": x, "Y": y, "Z": "m"} for x, y in (("a", "u"), ("a", "v"), ("b", "u"), ("c", "v")))
    ts = TrainingSet.from_rows("T", SCHEMA, rows)
    sigma = parse_attribution_list("Z:m", SCHEMA)
    verdict, witness = independent(ts, FREQ, sigma, "X", "Y")
    fact = independence_fact((ts, FREQ), sigma, "X", "Y")
    assert fact == {"kind": "independent", "t": "X", "u": "Y", "verdict": verdict, **witness}


def test_zero_denominator():
    p1 = leaf("|> <Y,X> : u*a @ 0.0")
    p2 = leaf("|> Y : u @ 0.0")
    with pytest.raises(ZeroDenominator):
        apply_rule(RuleId.ProdE1b, [p1, p2], SCHEMA)


def test_consistency_error():
    p1 = leaf("|> <Y,X> : u*a @ 0.9")
    p2 = leaf("|> Y : u @ 0.3")
    with pytest.raises(ConsistencyError):
        apply_rule(RuleId.ProdE1b, [p1, p2], SCHEMA)


def test_shape_mismatch():
    p1 = leaf("|> X : a @ 0.5")
    p2 = leaf("|> Y : u @ 0.5")
    with pytest.raises(ShapeMismatch):
        apply_rule(RuleId.OrERa, [p1, p2], SCHEMA)


# Each reading's premises f, g, h, i in order, and its conclusion, each in
# one of the forms of the calculus: X (Z:m |> X : X), u (Z:m |> Y : u),
# X| (Z:m, X : X |> Y : u), X*u (Z:m |> <X,Y> : X*u), u*X
# (Z:m |> <Y,X> : u*X) or X->u (Z:m |> [X]Y : X->u).  A double-line rule's
# backward reading is named `rule@backward`.  Under Z:m, X is a, b, c with
# probability 0.3, 0.2, 0.5, and Y is u with probability 0.5, 0.4, 0.6
# given each; γ is a and β is b in the Or rules, β is a in the others.
# ProdIIndep reads Y as independent of X, with probability 0.5.
FORMS = {
    "OrIL": (("γ|", "β|", "γ", "β"), "γ+β|"),
    "OrELa": (("γ+β|", "β|", "γ", "β"), "γ|"),
    "OrELb": (("γ+β|", "γ|", "γ", "β"), "β|"),
    "OrELc": (("γ|", "β|", "γ+β|", "β"), "γ"),
    "OrELd": (("γ|", "β|", "γ+β|", "γ"), "β"),
    "NegIL": (("β", "u", "β|"), "~β|"),
    "NegELa": (("β", "u", "~β|"), "β|"),
    "NegELb": (("β", "β|", "~β|"), "u"),
    "NegELc": (("u", "β|", "~β|"), "β"),
    "ImpIE": (("β|",), "β->u"),
    "ImpIE@backward": (("β->u",), "β|"),
    "NegIER": (("β",), "~β"),
    "NegIER@backward": (("~β",), "β"),
    "ProdI1": (("β|", "β"), "β*u"),
    "ProdI2": (("β|", "β"), "u*β"),
    "ProdE1a": (("β*u", "β|"), "β"),
    "ProdE1b": (("β*u", "β"), "β|"),
    "ProdE2a": (("u*β", "β|"), "β"),
    "ProdE2b": (("u*β", "β"), "β|"),
    "OrIR": (("γ", "β"), "γ+β"),
    "OrERa": (("γ+β", "γ"), "β"),
    "OrERb": (("γ+β", "β"), "γ"),
    "ProdIIndep": (("u", "β"), "β*u"),
}
LEFT_SCHEMA = AttributeSchema.of(
    [("X", ("a", "b", "c")), ("Y", ("u", "v")), ("Z", ("m", "n")), ("W", ("p", "q"))]
)
FORM_PROBABILITY = {
    "Or": {"γ": 0.3, "β": 0.2, "γ+β": 0.5, "γ|": 0.5, "β|": 0.4, "γ+β|": 0.46},
    "Neg": {"β": 0.3, "~β": 0.7, "u": 0.53, "β|": 0.5, "~β|": 0.38 / 0.7, "β->u": 0.5, "β*u": 0.15, "u*β": 0.15},
    "Indep": {"u": 0.5, "β": 0.3, "β*u": 0.15},
}
INDEPENDENT = ({"kind": "independent", "t": "X", "u": "Y", "asserted": True},)
# a wrong context, a wrong t, a wrong value or a different query
WRONG = {"context": {"context": "Z:n"}, "t": {"t": "W", "g": "p", "b": "q"},
         "value": {"g": "c", "b": "c"}, "query": {"query": "Y : v"}}


def _family(reading):
    return "Or" if reading.startswith("Or") else "Indep" if reading == "ProdIIndep" else "Neg"


def form_premise(reading, form, context="Z:m", t="X", g=None, b=None, query="Y : u"):
    family = _family(reading)
    g, b = g or "a", b or ("b" if family == "Or" else "a")
    x = form.replace("|", "").replace("->u", "").replace("*u", "").replace("u*", "")
    value = {"γ": g, "β": b, "γ+β": f"{g}+{b}", "~β": f"~{b}", "u": None}[x]
    u, delta = query.split(" : ")
    p = FORM_PROBABILITY[family][form]
    if form == "u":
        shown = query
    elif form.endswith("|"):
        return leaf(f"{context}, {t}:{value} |> {query} @ {p}", LEFT_SCHEMA)
    elif form.endswith("->u"):
        shown = f"[{t}]{u} : {value}->{delta}"
    elif form.endswith("*u"):
        shown = f"<{t},{u}> : {value}*{delta}"
    elif form.startswith("u*"):
        shown = f"<{u},{t}> : {delta}*{value}"
    else:
        shown = f"{t} : {value}"
    return leaf(f"{context} |> {shown} @ {p}", LEFT_SCHEMA)


def apply_reading(reading, premises):
    rule, _, backward = reading.partition("@")
    side = INDEPENDENT if rule == "ProdIIndep" else ()
    return apply_rule(rule, premises, LEFT_SCHEMA, side=side, direction=backward or "forward")


def test_left_rules_conclude_their_form():
    for reading, (forms, concludes) in FORMS.items():
        rule, _, backward = reading.partition("@")
        assert len(_READINGS[rule, backward or "forward"].forms) == len(forms)
        derived = apply_reading(reading, [form_premise(reading, form) for form in forms]).conclusion
        expected = form_premise(reading, concludes).conclusion
        assert derived == expected.with_probability(derived.probability)
        assert derived.probability == pytest.approx(expected.probability)


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("rule", list(RuleId))
def test_the_rule_table_is_the_only_gate(rule, direction):
    """apply_rule accepts exactly the (rule, direction) pairs that have a row, and refuses every other."""
    if (rule, direction) in _READINGS:
        reading = rule.value if direction == "forward" else f"{rule.value}@backward"
        premises = [form_premise(reading, form) for form in FORMS[reading][0]]
        assert apply_reading(reading, premises).direction == direction
    else:
        refusal = "AtQuery is an axiom" if rule is RuleId.AtQuery else f"{rule.value}: direction 'backward' is not allowed"
        with pytest.raises(RuleNotAllowed, match=refusal):
            apply_rule(rule, [], SCHEMA, direction=direction)


def _shows(form):
    """What a premise of the form shows: t, the query u : δ and the letters γ and β."""
    if form == "u":
        return {"query"}
    shown = {"t"} | (set(form) & {"γ", "β"})
    return shown if form in ("γ", "β", "γ+β", "~β") else shown | {"query"}


def _refused(forms, n, wrong):
    """Whether a wrong premise n must be refused: another premise shows what it perturbs."""
    if wrong == "context":
        return len(forms) > 1
    perturbed = ({"γ", "β"} if wrong == "value" else {wrong}) & _shows(forms[n - 1])
    return any(perturbed & _shows(form) for m, form in enumerate(forms, 1) if m != n)


@pytest.mark.parametrize(
    "reading, n, wrong",
    [
        (reading, n, wrong)
        for reading, (forms, _) in FORMS.items()
        for n in range(1, len(forms) + 1)
        for wrong in WRONG
        if _refused(forms, n, wrong)
    ],
)
def test_left_rules_refuse_a_premise_of_the_wrong_form(reading, n, wrong):
    premises = [
        form_premise(reading, form, **(WRONG[wrong] if m == n else {}))
        for m, form in enumerate(FORMS[reading][0], 1)
    ]
    with pytest.raises(ShapeMismatch) as caught:
        apply_reading(reading, premises)
    message = str(caught.value)
    assert message.startswith(f"{reading.partition('@')[0]}: premise ")
    assert f"premise {n}" in message


def test_provenance_merge_and_mismatch():
    rows = tuple({"X": x, "Y": y} for x, y in (("a", "u"), ("a", "v"), ("b", "u")))
    t1 = TrainingSet.from_rows("T1", SCHEMA, rows)
    t2 = TrainingSet.from_rows("T2", SCHEMA, rows)
    d1 = at_query((t1, FREQ), (), "X", "a")
    d2 = at_query((t1, FREQ), (), "X", "b")
    merged = apply_rule(RuleId.OrIR, [d1, d2], SCHEMA)
    assert merged.provenance == ("T1", "A")
    d3 = at_query((t2, FREQ), (), "X", "b")
    with pytest.raises(ProvenanceMismatch):
        apply_rule(RuleId.OrIR, [d1, d3], SCHEMA)


# ---------------------------------------------------------------------------
# Inversion round trips (small sample; the acceptance suite runs 1000)


def _rng_cases(n):
    rng = random.Random(20)
    for _ in range(n):
        yield rng


def test_inversion_prod():
    rng = random.Random(20)
    for _ in range(50):
        f = rng.uniform(0.05, 1.0)
        g = rng.uniform(0.05, 1.0)
        major = leaf(f"Y:u |> X : a @ {g}")
        minor = leaf(f"|> Y : u @ {f}")
        concl = apply_rule(RuleId.ProdI1, [major, minor], SCHEMA)
        back_a = apply_rule(RuleId.ProdE1a, [concl, major], SCHEMA)
        assert abs(back_a.conclusion.probability - f) < 1e-9
        back_b = apply_rule(RuleId.ProdE1b, [concl, minor], SCHEMA)
        assert abs(back_b.conclusion.probability - g) < 1e-9


def test_inversion_or_right():
    rng = random.Random(21)
    for _ in range(50):
        f = rng.uniform(0, 0.6)
        g = rng.uniform(0, 1 - f)
        p1 = leaf(f"|> X : a @ {f}")
        p2 = leaf(f"|> X : b @ {g}")
        concl = apply_rule(RuleId.OrIR, [p1, p2], SCHEMA)
        assert abs(apply_rule(RuleId.OrERa, [concl, p1], SCHEMA).conclusion.probability - g) < 1e-9
        assert abs(apply_rule(RuleId.OrERb, [concl, p2], SCHEMA).conclusion.probability - f) < 1e-9


def test_inversion_or_left():
    rng = random.Random(22)
    for _ in range(50):
        f = rng.uniform(0, 1)
        g = rng.uniform(0, 1)
        if abs(f - g) < 1e-3:
            continue
        h = rng.uniform(0.05, 0.5)
        i = rng.uniform(0.05, 0.5)
        p1 = leaf(f"X:a |> Y : u @ {f}")
        p2 = leaf(f"X:b |> Y : u @ {g}")
        p3 = leaf(f"|> X : a @ {h}")
        p4 = leaf(f"|> X : b @ {i}")
        concl = apply_rule(RuleId.OrIL, [p1, p2, p3, p4], SCHEMA)
        assert abs(apply_rule(RuleId.OrELa, [concl, p2, p3, p4], SCHEMA).conclusion.probability - f) < 1e-9
        assert abs(apply_rule(RuleId.OrELb, [concl, p1, p3, p4], SCHEMA).conclusion.probability - g) < 1e-9
        assert abs(apply_rule(RuleId.OrELc, [p1, p2, concl, p4], SCHEMA).conclusion.probability - h) < 1e-9
        assert abs(apply_rule(RuleId.OrELd, [p1, p2, concl, p3], SCHEMA).conclusion.probability - i) < 1e-9


def test_inversion_neg_left():
    rng = random.Random(23)
    for _ in range(50):
        f = rng.uniform(0.05, 0.95)
        h = rng.uniform(0, 1)
        d = rng.uniform(0, 1)
        if abs(h - d) < 1e-3:
            continue
        g = f * h + (1 - f) * d
        p1 = leaf(f"|> X : a @ {f}")
        p2 = leaf(f"|> Y : u @ {g}")
        p3 = leaf(f"X:a |> Y : u @ {h}")
        concl = apply_rule(RuleId.NegIL, [p1, p2, p3], SCHEMA)
        assert abs(concl.conclusion.probability - d) < 1e-9
        assert abs(apply_rule(RuleId.NegELa, [p1, p2, concl], SCHEMA).conclusion.probability - h) < 1e-9
        assert abs(apply_rule(RuleId.NegELb, [p1, p3, concl], SCHEMA).conclusion.probability - g) < 1e-9
        assert abs(apply_rule(RuleId.NegELc, [p2, p3, concl], SCHEMA).conclusion.probability - f) < 1e-9


# ---------------------------------------------------------------------------
# Coherence against learned tables


def _random_table(rng, id="T"):
    rows = []
    for _ in range(rng.randrange(20, 40)):
        rows.append(
            {
                "X": rng.choice(("a", "b", "c")),
                "Y": rng.choice(("u", "v")),
                "Z": rng.choice(("m", "n")),
            }
        )
    # guarantee every X atom occurs so conditional contexts are evaluable
    for x in ("a", "b", "c"):
        rows.append({"X": x, "Y": rng.choice(("u", "v")), "Z": rng.choice(("m", "n"))})
    return TrainingSet.from_rows(id, SCHEMA, rows)


def sigma(text):
    return parse_attribution_list(text, SCHEMA)


def test_or_il_matches_learned_disjunction():
    rng = random.Random(31)
    for _ in range(20):
        ts = _random_table(rng)
        src = (ts, FREQ)
        p1 = at_query(src, sigma("X:a"), "Y", "u")
        p2 = at_query(src, sigma("X:b"), "Y", "u")
        p3 = at_query(src, (), "X", "a")
        p4 = at_query(src, (), "X", "b")
        derived = apply_rule(RuleId.OrIL, [p1, p2, p3, p4], SCHEMA)
        direct = at_query(src, sigma("X:a+b"), "Y", "u")
        assert abs(derived.conclusion.probability - direct.conclusion.probability) < 1e-9


def test_neg_il_matches_learned_negation():
    rng = random.Random(32)
    for _ in range(20):
        ts = _random_table(rng)
        src = (ts, FREQ)
        p1 = at_query(src, (), "X", "a")
        p2 = at_query(src, (), "Y", "u")
        p3 = at_query(src, sigma("X:a"), "Y", "u")
        derived = apply_rule(RuleId.NegIL, [p1, p2, p3], SCHEMA)
        direct = at_query(src, sigma("X:~a"), "Y", "u")
        assert abs(derived.conclusion.probability - direct.conclusion.probability) < 1e-9


def test_neg_el_b_matches_total_probability():
    rng = random.Random(33)
    for _ in range(20):
        ts = _random_table(rng)
        src = (ts, FREQ)
        p1 = at_query(src, (), "X", "a")
        p2 = at_query(src, sigma("X:a"), "Y", "u")
        p3 = at_query(src, sigma("X:~a"), "Y", "u")
        derived = apply_rule(RuleId.NegELb, [p1, p2, p3], SCHEMA)
        direct = at_query(src, (), "Y", "u")
        assert abs(derived.conclusion.probability - direct.conclusion.probability) < 1e-9


# ---------------------------------------------------------------------------
# check_derivation


def _sound_tree():
    p1 = leaf("|> X : a @ 0.2")
    p2 = leaf("|> X : b @ 0.3")
    return apply_rule(RuleId.OrIR, [p1, p2], SCHEMA)


def test_check_sound_tree():
    assert check_derivation(_sound_tree(), SCHEMA).ok


def test_check_injected_formula_fault():
    tree = _sound_tree()
    bad = Derivation(
        tree.conclusion.with_probability(0.9), tree.rule, tree.premises, tree.side_conditions, tree.provenance
    )
    report = check_derivation(bad, SCHEMA)
    assert any(kind == "FormulaViolation" for _, kind, _ in report.violations)


def test_check_leaf_against_source():
    rows = tuple({"X": x, "Y": "u", "Z": "m"} for x in ("a", "a", "b"))
    ts = TrainingSet.from_rows("T", SCHEMA, rows)
    good = at_query((ts, FREQ), (), "X", "a")
    assert check_derivation(good, SCHEMA, sources={"T": (ts, FREQ)}).ok
    bad = Derivation(good.conclusion.with_probability(0.5), good.rule, provenance=good.provenance)
    report = check_derivation(bad, SCHEMA, sources={"T": (ts, FREQ)})
    assert any(kind == "FormulaViolation" for _, kind, _ in report.violations)


def test_check_provenance_mixing():
    rows = tuple({"X": x, "Y": "u", "Z": "m"} for x in ("a", "a", "b"))
    t1 = TrainingSet.from_rows("T1", SCHEMA, rows)
    t2 = TrainingSet.from_rows("T2", SCHEMA, rows)
    d1 = at_query((t1, FREQ), (), "X", "a")
    d2 = at_query((t2, FREQ), (), "X", "b")
    tree = apply_rule(RuleId.OrIR, [d1, Derivation(d2.conclusion, d2.rule)], SCHEMA)
    # reinstate the conflicting tag on the stored premise
    hacked = Derivation(tree.conclusion, tree.rule, (d1, d2), tree.side_conditions, tree.provenance)
    report = check_derivation(hacked, SCHEMA)
    assert any(kind == "ProvenanceMismatch" for _, kind, _ in report.violations)


def test_dataclasses_take_a_derivation_as_a_dataclass():
    import dataclasses

    rows = tuple({"X": x, "Y": "u", "Z": "m"} for x in ("a", "a", "b"))
    base = at_query((TrainingSet.from_rows("T", SCHEMA, rows), FREQ), (), "X", "a")
    d = apply_rule(RuleId.NegIER, [base], SCHEMA)
    fields = dataclasses.fields(Derivation)
    assert [f.name for f in fields] == ["conclusion", "rule", "premises", "side_conditions", "provenance", "direction"]
    assert [f.default for f in fields] == [dataclasses.MISSING] * 2 + [(), (), None, "forward"]
    assert dataclasses.fields(d) == fields
    assert dataclasses.is_dataclass(Derivation) and dataclasses.is_dataclass(d)
    # the two rebuilds of the benchmark's tampered trees
    halved = d.conclusion.with_probability(d.conclusion.probability / 2)
    rebuilt = Derivation(halved, d.rule, d.premises, d.side_conditions, d.provenance, d.direction)
    assert dataclasses.replace(d, conclusion=halved) == rebuilt
    other = (leaf("|> X : a @ 0.5"),)
    replaced = dataclasses.replace(d, premises=other)
    assert replaced == Derivation(d.conclusion, d.rule, other, d.side_conditions, d.provenance, d.direction)
    assert replaced != d
    with pytest.raises(TypeError):
        dataclasses.replace(d, bogus=1)
    with pytest.raises(AttributeError):
        d.rule = RuleId.AtQuery
    again = apply_rule(RuleId.NegIER, [base], SCHEMA)
    assert d == again and hash(d) == hash(again) == hash((d.rule, d.direction, d.conclusion))
    assert repr(d) == "Derivation(rule=NegIER, direction='forward', conclusion='|> X : ~a @ 0.33333333333333337', premises=1)"


def _indep_tree(rows, evidence):
    ts = TrainingSet.from_rows("T", SCHEMA, rows)
    source = (ts, FREQ)
    premises = [at_query(source, (), "Y", "u"), at_query(source, (), "X", "a")]
    tree = apply_rule(RuleId.ProdIIndep, premises, SCHEMA, side=[{"kind": "independent", "t": "X", "u": "Y", **evidence}])
    return check_derivation(tree, SCHEMA, sources={"T": source})


def test_check_retests_recorded_independence():
    # X=a exactly when Y=u: the recorded verdict is refuted by the table
    moving = [{"X": x, "Y": y, "Z": "m"} for x, y in (("a", "u"), ("a", "u"), ("b", "v"), ("c", "v"))]
    report = _indep_tree(moving, {"verdict": True})
    assert [(path, kind) for path, kind, _ in report.violations] == [("root", "SideConditionUnproved")]
    # asserted independence carries no verdict to re-test
    assert _indep_tree(moving, {"asserted": True}).ok
    product = [{"X": x, "Y": y, "Z": "m"} for x in ("a", "b", "c") for y in ("u", "v")]
    assert _indep_tree(product, {"verdict": True}).ok


def _set_extension(antecedent, base):
    """The attribution extending `base` in `antecedent`, read by sets of (variable, value); None if none does."""
    known = {(va.variable, va.value) for va in base}
    extra = [va for va in antecedent if (va.variable, va.value) not in known]
    rest = [va for va in antecedent if (va.variable, va.value) in known]
    return extra[0] if len(extra) == 1 and len(rest) == len(known) else None


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_context_comparison_matches_the_set_reading(seed):
    """`same_sigma` and `_extension` read contexts as sets, over permuted, extended and foreign σ."""
    schema = AttributeSchema.of([(f"V{i}", (f"a{i}", f"b{i}", f"c{i}")) for i in range(5)])
    rng = random.Random(seed)

    def value(i):
        atoms = [AtomVal(a) for a in schema.atoms(f"V{i}")]
        kind = rng.randrange(3)
        if kind == 0:
            return rng.choice(atoms)
        if kind == 1:
            return Neg(rng.choice(atoms))
        left, right = rng.sample(atoms, 2)
        return Or(left, right)

    def context(variables):
        return tuple(ValueAttribution(f"V{i}", value(i)) for i in variables)

    def pairs(sigma):
        return frozenset((va.variable, va.value) for va in sigma)

    outcomes = collections.Counter()
    for _ in range(300):
        variables = rng.sample(range(4), rng.randint(0, 3))  # V4 is the judgments' subject
        sigma = context(variables)
        unused = [i for i in range(4) if i not in variables]
        permuted = tuple(rng.sample(sigma, len(sigma)))
        others = [permuted, sigma + context(unused[:1]), context(variables)]
        if unused:
            others.append(tuple(rng.sample(permuted + context(unused[:1]), len(sigma) + 1)))
            others.append(sigma + context(unused[:2]))
        if sigma:
            others += [permuted[1:], permuted[1:] + context(unused[:1])]
        for other in others:
            same = same_sigma(sigma, other)
            assert same == (pairs(sigma) == pairs(other)) == same_sigma(other, sigma)
            judgment = Judgment(other, Atom("V4"), AtomVal("a4"), 0.5)
            assert same_sigma(judgment, sigma) == same
            try:
                extra = _extension(judgment, sigma)
            except ShapeMismatch:
                extra = None
            assert extra == _set_extension(other, sigma)
            outcomes[same, extra is not None] += 1
    assert min(outcomes[key] for key in ((True, False), (False, True), (False, False))) > 100, outcomes


# ---------------------------------------------------------------------------
# Shared premises: a plan's derivation is a DAG

XU = AttributeSchema.of([("X", ("a", "b")), ("U", ("p", "q"))])


def _shared_derivation(lines, y0_probability=None):
    """The derivation of the last step of a plan `lines` long whose steps share premises, and its source.

    `x0 = ATQUERY X : a`, `y0 = ATQUERY X:a |> U : p`, `z0 = ProdI1 y0 x0`;
    then each round k uses z{k}, y{k} and x{k} twice: x{k+1} = ProdE1a z{k}
    y{k}, y{k+1} = ProdE1b z{k} x{k} and z{k+1} = ProdI1 y{k+1} x{k+1}.  A
    tree walk visits x0 and y0 once per path, some 2**k times.
    """
    rng = random.Random(5)
    rows = tuple({"X": rng.choice("ab"), "U": rng.choice("pq")} for _ in range(200))
    source = (TrainingSet.from_rows("T", XU, rows), FREQ)
    y0 = at_query(source, parse_attribution_list("X:a", XU), "U", "p")
    if y0_probability is not None:
        y0 = Derivation(y0.conclusion.with_probability(y0_probability), y0.rule, provenance=y0.provenance)
    env = {"x0": at_query(source, (), "X", "a"), "y0": y0}
    steps = [PlanStep("z0", RuleId.ProdI1, ("y0", "x0"))]
    for k in range((lines - 3) // 3):
        steps += [
            PlanStep(f"x{k + 1}", RuleId.ProdE1a, (f"z{k}", f"y{k}")),
            PlanStep(f"y{k + 1}", RuleId.ProdE1b, (f"z{k}", f"x{k}")),
            PlanStep(f"z{k + 1}", RuleId.ProdI1, (f"y{k + 1}", f"x{k + 1}")),
        ]
    plan = Plan(tuple(steps))
    return run_plan(env, plan, XU)[plan.result_id], source


def test_check_visits_each_shared_node_once(monkeypatch):
    root, source = _shared_derivation(30)
    checked = []
    check_node = calculus._check_node
    monkeypatch.setattr(calculus, "_check_node", lambda node, *rest: checked.append(node) or check_node(node, *rest))
    assert check_derivation(root, XU, sources={"T": source}).ok
    assert len(checked) == len({id(node) for node in checked}) == 30


def test_a_shared_faulty_node_is_reported_once_under_its_first_path():
    root, source = _shared_derivation(30, y0_probability=0.75)
    report = check_derivation(root, XU, sources={"T": source})
    # z9, y9, z8, ..., y1, z0, y0: the first path down to y0 takes premise 0 each time
    assert [(path, kind) for path, kind, _ in report.violations] == [("root" + ".0" * 19, "FormulaViolation")]


@pytest.mark.parametrize("lines", [15, 30])
def test_equality_compares_each_pair_of_shared_nodes_once(monkeypatch, lines):
    a, _ = _shared_derivation(lines)
    b, _ = _shared_derivation(lines)
    compared = []
    judgment_eq = Judgment.__eq__
    monkeypatch.setattr(Judgment, "__eq__", lambda self, other: compared.append(self) or judgment_eq(self, other))
    assert a == b and a is not b
    assert len(compared) == lines


# ---------------------------------------------------------------------------
# An axiom node concludes `variable : atom`


@pytest.mark.parametrize(
    "text, with_sources",
    [("|> X : a+b @ 0.3", False), ("|> X : a+b @ 0.3", True), ("|> <X,Y> : a*u @ 0.3", True)],
)
def test_check_refuses_an_axiom_that_does_not_conclude_a_variable_and_an_atom(text, with_sources):
    rows = tuple({"X": x, "Y": "u", "Z": "m"} for x in ("a", "a", "b"))
    source = (TrainingSet.from_rows("T", SCHEMA, rows), FREQ)
    node = Derivation(parse_judgment(text, SCHEMA), RuleId.AtQuery, provenance=("T", "A"))
    report = check_derivation(node, SCHEMA, sources={"T": source} if with_sources else None)
    shown = text[3:text.index(" @")]
    assert report.violations == [("root", "ShapeMismatch", f"axiom node concludes {shown}, not variable : atom")]


# ---------------------------------------------------------------------------
# The checker's and the rules' remaining refusals


def _source_t():
    rows = tuple({"X": x, "Y": y, "Z": "m"} for x, y in (("a", "u"), ("a", "v"), ("b", "u"), ("b", "v")))
    return TrainingSet.from_rows("T", SCHEMA, rows), FREQ


def test_independence_evidence_skips_facts_of_another_kind():
    source = _source_t()
    premises = [at_query(source, (), "Y", "u"), at_query(source, (), "X", "a")]
    facts = [{"kind": "exclusive"}, {"kind": "independent", "t": "X", "u": "Y", "verdict": True}]
    tree = apply_rule(RuleId.ProdIIndep, premises, SCHEMA, side=facts)
    assert tree.side_conditions == ({"kind": "independent", "t": "X", "u": "Y", "verdict": True},)


@pytest.mark.parametrize(
    "case, violations",
    [
        ("axiom with premises", [("root", "ShapeMismatch", "axiom node with premises")]),
        ("other conclusion", [("root", "ShapeMismatch", "conclusion |> X : a+c @ 0.5 differs from rule result"
                                                         " |> X : a+b @ 0.5")]),
        ("retest raises", [("root", "EmptySupport", "no training row satisfies Z:n"),
                           ("root.0", "UnknownCondition", "no training row satisfies Z:n"),
                           ("root.1", "UnknownCondition", "no training row satisfies Z:n")]),
        ("no provenance", []),
    ],
)
def test_check_reports_each_fault_at_its_node(case, violations):
    sources = None
    if case == "axiom with premises":
        base = leaf("|> X : a @ 0.2")
        tree = Derivation(base.conclusion, RuleId.AtQuery, (base,))
    elif case == "other conclusion":
        tree = _sound_tree()
        tree = Derivation(leaf("|> X : a+c @ 0.5").conclusion, tree.rule, tree.premises, tree.side_conditions)
    elif case == "retest raises":
        # built under Z:n from a table that has such rows, checked against one that has none
        rows = tuple({"X": x, "Y": y, "Z": "n"} for x in ("a", "b") for y in ("u", "v"))
        with_z_n = (TrainingSet.from_rows("T", SCHEMA, rows), FREQ)
        premises = [at_query(with_z_n, sigma("Z:n"), "Y", "u"), at_query(with_z_n, sigma("Z:n"), "X", "a")]
        fact = {"kind": "independent", "t": "X", "u": "Y", "verdict": True}
        tree = apply_rule(RuleId.ProdIIndep, premises, SCHEMA, side=[fact])
        sources = {"T": _source_t()}
    else:  # a node with no provenance has no source to be re-counted against
        tree = leaf("|> X : a @ 0.9")
        sources = {"T": _source_t()}
    assert check_derivation(tree, SCHEMA, sources=sources).violations == violations


def test_a_derivation_is_not_equal_to_another_kind_of_object():
    tree = _sound_tree()
    assert tree != tree.conclusion and tree.__eq__(tree.conclusion) is NotImplemented


def test_a_premise_not_of_its_form_is_named():
    major, minor = leaf("|> X : a @ 0.5"), leaf("X:a |> Y : u @ 0.5")
    with pytest.raises(ShapeMismatch, match=r"^ProdE1a: premise 1 is not of the form β\*u$"):
        apply_rule(RuleId.ProdE1a, [major, minor], SCHEMA)


# ---------------------------------------------------------------------------
# The Or eliminations read P(γ+β) as P(γ) + P(β), so γ and β must be exclusive


@pytest.mark.parametrize(
    "rule, forms",
    [
        (RuleId.OrERa, ("|> X : a+(a+b) @ 0.5", "|> X : a @ 0.2")),
        (RuleId.OrERb, ("|> X : (a+b)+b @ 0.5", "|> X : b @ 0.2")),
        (RuleId.OrELa, ("X:(a+b)+(b+c) |> Y : u @ 0.5", "X:b+c |> Y : u @ 0.5", "|> X : a+b @ 0.5", "|> X : b+c @ 0.5")),
        (RuleId.OrELb, ("X:(a+b)+(b+c) |> Y : u @ 0.5", "X:a+b |> Y : u @ 0.5", "|> X : a+b @ 0.5", "|> X : b+c @ 0.5")),
        (RuleId.OrELc, ("X:a+b |> Y : u @ 0.5", "X:b |> Y : u @ 0.4", "X:(a+b)+b |> Y : u @ 0.6", "|> X : b @ 0.5")),
        (RuleId.OrELd, ("X:a |> Y : u @ 0.5", "X:a+b |> Y : u @ 0.4", "X:a+(a+b) |> Y : u @ 0.6", "|> X : a @ 0.5")),
    ],
)
def test_an_or_elimination_refuses_overlapping_disjuncts(rule, forms):
    premises = [leaf(text) for text in forms]
    gamma, beta = {RuleId.OrERa: ("a", "a+b"), RuleId.OrERb: ("a+b", "b"), RuleId.OrELc: ("a+b", "b"),
                   RuleId.OrELd: ("a", "a+b")}.get(rule, ("a+b", "b+c"))
    message = f"{rule.value}: X: {gamma} and {beta} are not mutually exclusive"
    with pytest.raises(SideConditionUnproved, match=f"^{re.escape(message)}$"):
        apply_rule(rule, premises, SCHEMA)
