"""Exclusivity procedure vs brute-force oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from tndpq import exclusivity
from tndpq.errors import IllFormed, MixedVariables, OracleTooLarge, ShapeMismatch, UnknownSymbol
from tndpq.exclusivity import exclusive, oracle_exclusive
from tndpq.syntax import (
    Arrow,
    Atom,
    AtomVal,
    AttributeSchema,
    Cond,
    Neg,
    Or,
    Pair,
    Prod,
    fit,
    parse_term,
    parse_value,
    print_term,
    print_value,
)

FIVE = AttributeSchema.of([("V", ("a1", "a2", "a3", "a4", "a5"))])


def v(text):
    return parse_value(text)


def cell_mask(term, value, schema):
    """The mask that `fit` returns over an arrow-free term."""
    return fit(term, value, schema)[0]


def test_cell_mask_singleton():
    assert cell_mask(Atom("V"), v("a1"), FIVE) == 0b1


def test_cell_mask_complement(small_schema):
    assert cell_mask(Atom("X"), v("a"), small_schema) == 0b001
    assert cell_mask(Atom("X"), v("~a"), small_schema) == 0b110


def test_cell_mask_nested():
    # (((a1+a2)^bot + a3)^bot + a4)^bot over five atoms
    value = v("~(~(~(a1+a2)+a3)+a4)")
    assert cell_mask(Atom("V"), value, FIVE) == 0b10100


def _positive_form(mask, atoms):
    """The disjunction of the atoms whose bits are set, in declared order."""
    chosen = [AtomVal(a) for i, a in enumerate(atoms) if mask >> i & 1]
    value = chosen[0]
    for atom in chosen[1:]:
        value = Or(value, atom)
    return value


def test_cell_mask_fixpoint(small_schema):
    # the mask of the positive-atom form is the mask it was built from
    mask = cell_mask(Atom("X"), v("~(a+b)"), small_schema)
    rebuilt = _positive_form(mask, small_schema.atoms("X"))
    assert rebuilt == AtomVal("c")
    assert cell_mask(Atom("X"), rebuilt, small_schema) == mask


def test_contradiction_has_the_empty_mask(small_schema):
    # a value that holds at no atom is exclusive with every value, itself too
    nothing = v("~(a+b+c)")
    assert cell_mask(Atom("X"), nothing, small_schema) == 0
    assert exclusive(Atom("X"), nothing, nothing, small_schema)
    assert oracle_exclusive(Atom("X"), nothing, nothing, small_schema)


def test_cell_mask_errors(small_schema):
    with pytest.raises(MixedVariables):
        cell_mask(Atom("X"), v("a+u"), small_schema)
    with pytest.raises(ShapeMismatch):
        cell_mask(Atom("X"), Prod(AtomVal("a"), AtomVal("b")), small_schema)


def test_exclusive_age_style():
    # disjunction of the extremes vs the middle band
    ages = AttributeSchema.of([("Age", ("low", "mid", "high"))])
    assert exclusive(Atom("Age"), v("low+high"), v("mid"), ages)


def test_atomic_not_self_exclusive(small_schema):
    assert not exclusive(Atom("X"), v("a+b"), v("a+b"), small_schema)


def test_atomic_complement_overlap():
    three = AttributeSchema.of([("V", ("a1", "a2", "a3"))])
    assert not exclusive(Atom("V"), v("~a1"), v("a1+a2"), three)


def test_pair_negated_product_not_exclusive():
    schema = AttributeSchema.of([("A", ("a1", "a2")), ("B", ("a3", "a4"))])
    term = Pair(Atom("A"), Atom("B"))
    assert not exclusive(term, v("~(a1*a3)"), v("(a1+a2)*a3"), schema)


def test_pair_disjoint_left_components():
    schema = AttributeSchema.of([("A", ("a1", "a2")), ("B", ("a3", "a4"))])
    term = Pair(Atom("A"), Atom("B"))
    assert exclusive(term, v("a1*a3"), v("a2*a3"), schema)


def test_cond_different_antecedents():
    schema = AttributeSchema.of([("A", ("a1", "a2")), ("B", ("a3", "a4"))])
    term = Cond(Atom("A"), Atom("B"))
    assert not exclusive(term, v("a1->a3"), v("a2->a4"), schema)


def test_cond_same_antecedent_exclusive_consequents():
    schema = AttributeSchema.of([("A", ("a1", "a2")), ("B", ("a3", "a4"))])
    term = Cond(Atom("A"), Atom("B"))
    assert exclusive(term, v("a1->a3"), v("a1->a4"), schema)
    assert oracle_exclusive(term, v("a1->a3"), v("a1->a4"), schema)


def test_shape_mismatch():
    schema = AttributeSchema.of([("A", ("a1", "a2")), ("B", ("a3", "a4"))])
    with pytest.raises(ShapeMismatch):
        exclusive(Atom("A"), v("a1*a3"), v("a2"), schema)
    with pytest.raises(ShapeMismatch):
        exclusive(Pair(Atom("A"), Atom("B")), v("a1->a3"), v("a1*a3"), schema)


def test_oracle_examples_match():
    schema = AttributeSchema.of([("A", ("a1", "a2")), ("B", ("a3", "a4"))])
    pair = Pair(Atom("A"), Atom("B"))
    cond = Cond(Atom("A"), Atom("B"))
    cases = [
        (pair, v("~(a1*a3)"), v("(a1+a2)*a3")),
        (pair, v("a1*a3"), v("a2*a3")),
        (cond, v("a1->a3"), v("a2->a4")),
    ]
    for term, b, d in cases:
        assert exclusive(term, b, d, schema) == oracle_exclusive(term, b, d, schema)


def test_oracle_unsatisfiable_value():
    schema = AttributeSchema.of([("A", ("a1", "a2", "a3")), ("B", ("a4", "a5"))])
    # a1*~a1 on the left component has no model, so any partner is exclusive
    term = Pair(Atom("A"), Atom("B"))
    contradiction = Prod(Or(AtomVal("a1"), Neg(Or(AtomVal("a1"), Or(AtomVal("a2"), AtomVal("a3"))))), AtomVal("a4"))
    empty_left = Prod(Neg(Or(AtomVal("a1"), Or(AtomVal("a2"), AtomVal("a3")))), AtomVal("a4"))
    assert oracle_exclusive(term, empty_left, v("a1*a4"), schema)
    assert exclusive(term, empty_left, v("a1*a4"), schema)
    assert oracle_exclusive(Atom("A"), v("a1"), v("a2"), schema)


def test_oracle_budget():
    big = AttributeSchema.of([("A", tuple(f"x{i}" for i in range(12))), ("B", tuple(f"y{i}" for i in range(12)))])
    with pytest.raises(OracleTooLarge):
        oracle_exclusive(Pair(Atom("A"), Atom("B")), v("x1*y1"), v("x2*y2"), big)


# the parser reads a+...+a in a loop, but the value is nested once per
# term, so 1500 terms cannot be built; the longest chain that can is decided
@pytest.mark.parametrize("decide", [exclusive, oracle_exclusive])
def test_a_value_nested_too_deeply_is_ill_formed(decide):
    schema = AttributeSchema.of([("X", ("a", "b"))])
    with pytest.raises(IllFormed) as caught:
        parse_value("+".join(["a"] * 1500))
    assert str(caught.value) == "input nested too deeply"
    longest = parse_value("+".join(["a"] * 200))
    assert decide(parse_term("X", schema), longest, AtomVal("b"), schema)
    assert not decide(parse_term("X", schema), longest, AtomVal("a"), schema)


def test_explain_trace():
    schema = AttributeSchema.of([("A", ("a1", "a2")), ("B", ("a3", "a4"))])
    trace: list[str] = []
    exclusive(Pair(Atom("A"), Atom("B")), v("a1*a3"), v("a2*a3"), schema, trace=trace)
    assert trace and "rectangle" in " ".join(trace)
    trace.clear()
    exclusive(Pair(Atom("A"), Atom("B")), v("~(a1*a3)"), v("a1*(a3+a4)"), schema, trace=trace)
    assert trace[-1].strip() == "3 vs 2 of the 4 cells of the rectangle -> overlap at (a1,a4)"


@pytest.mark.parametrize(
    "beta, delta, verdict, steps",
    [
        (
            "~~(a->u)",
            "a->v",
            True,
            [
                "  strip double negation",
                "  antecedents equal",
                "  Y: u vs v",
                "    index sets {1} vs {2} -> disjoint",
            ],
        ),
        (
            "(a->u)+(b->u)",
            "a->v",
            False,
            [
                "  disjunction: every disjunct must be exclusive",
                "  antecedents equal",
                "  Y: u vs v",
                "    index sets {1} vs {2} -> disjoint",
                "  antecedents differ",
            ],
        ),
        (
            "~(a->u)",
            "a->u",
            True,
            [
                "  negated conditional: push negation into the consequent",
                "  antecedents equal",
                "  Y: ~u vs u",
                "    index sets {2} vs {1} -> disjoint",
            ],
        ),
        (
            "~((a->u)+(a->v))",
            "a->u",
            True,
            [
                "  negated disjunction: some disjunct must be exclusive",
                "  negated conditional: push negation into the consequent",
                "  antecedents equal",
                "  Y: ~u vs u",
                "    index sets {2} vs {1} -> disjoint",
            ],
        ),
    ],
)
def test_conditional_step_cases_by_hand(small_schema, beta, delta, verdict, steps):
    # the procedure and the oracle share these step cases, so the
    # differential tests cannot tell a fault in them; each is pinned here
    term = parse_term("[X]Y")
    trace: list[str] = []
    assert exclusive(term, v(beta), v(delta), small_schema, trace=trace) is verdict
    assert oracle_exclusive(term, v(beta), v(delta), small_schema) is verdict
    assert trace == [f"[X]Y: {beta} vs {delta}", *steps]


def test_negated_disjunction_negates_each_disjunct(small_schema):
    # pushing the negation in gives a->r against a->r; the case used to test
    # a->p and a->q against a->r, without their negation, and answer True
    term, beta, delta = parse_term("[X]Z"), v("~((a->p)+(a->q))"), v("a->r")
    assert exclusive(term, beta, delta, small_schema) is False
    assert oracle_exclusive(term, beta, delta, small_schema) is False


def _consequent(value):
    """A conditional value over one antecedent, read as a value of its consequent."""
    if isinstance(value, Arrow):
        return value.right
    if isinstance(value, Neg):
        return Neg(_consequent(value.inner))
    return Or(_consequent(value.left), _consequent(value.right))


def _negates_an_or(value):
    if isinstance(value, Arrow):
        return False
    if isinstance(value, Neg):
        return isinstance(value.inner, Or) or _negates_an_or(value.inner)
    return _negates_an_or(value.left) or _negates_an_or(value.right)


def test_step_cases_against_truth_tables(small_schema):
    # over one antecedent a, the values a->x under ~ and + are the values x
    # of the consequent, so the oracle's truth tables over Z judge the step
    # cases apart from them; the negated disjunction case is sound but not
    # complete, the other three are exact
    rng = random.Random(11)
    term = parse_term("[X]Z")

    def conditional(depth):
        if depth == 0 or rng.random() < 0.3:
            return Arrow(AtomVal("a"), _random_class_o(rng, small_schema.atoms("Z"), 2))
        if rng.random() < 0.4:
            return Neg(conditional(depth - 1))
        return Or(conditional(depth - 1), conditional(depth - 1))

    verdicts = []
    for _ in range(600):
        beta, delta = conditional(3), conditional(3)
        verdict = exclusive(term, beta, delta, small_schema)
        truth = oracle_exclusive(Atom("Z"), _consequent(beta), _consequent(delta), small_schema)
        exact = not (_negates_an_or(beta) or _negates_an_or(delta))
        assert verdict <= truth and (verdict == truth or not exact), (print_value(beta), print_value(delta))
        verdicts.append(verdict)
    assert 50 < sum(verdicts) < 550


@pytest.mark.parametrize(
    "term, value",
    [("<X,X>", "a*b"), ("[X]X", "a->b"), ("<X,<Y,X>>", "a*(u*b)")],
)
def test_repeated_variable_is_ill_formed(small_schema, term, value):
    # exclusive read <X,X> position by position (False here) while the
    # oracle assigned X once (True); both now reject such terms
    for decide in (exclusive, oracle_exclusive):
        with pytest.raises(IllFormed, match="more than once"):
            decide(parse_term(term), v(value), v(value), small_schema)


def test_no_printing_without_a_trace(monkeypatch):
    calls = []

    def counting(real):
        def wrapper(*args):
            calls.append(args)
            return real(*args)
        return wrapper

    monkeypatch.setattr(exclusivity, "print_value", counting(exclusivity.print_value))
    monkeypatch.setattr(exclusivity, "print_term", counting(exclusivity.print_term))
    rng = random.Random(3)
    cases = []
    for n in range(140):
        term = SHAPES[n % len(SHAPES)]
        cases.append((term, _shaped(rng, term, FOUR, 3), _shaped(rng, term, FOUR, 3)))
    for term, b, d in cases:
        exclusive(term, b, d, FOUR)
    assert calls == []
    for term, b, d in cases[:7]:
        exclusive(term, b, d, FOUR, trace=[])
    assert calls


# ---------------------------------------------------------------------------
# Randomized agreement with the oracle


def _random_class_o(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.4:
        return AtomVal(rng.choice(atoms))
    kind = rng.random()
    if kind < 0.4:
        return Neg(_random_class_o(rng, atoms, depth - 1))
    return Or(
        _random_class_o(rng, atoms, depth - 1), _random_class_o(rng, atoms, depth - 1)
    )


def _random_shaped(rng, term, schema, depth):
    """A random value fitting the term's shape, with limited connective depth."""
    if depth > 0 and rng.random() < 0.35:
        if rng.random() < 0.5:
            return Neg(_random_shaped(rng, term, schema, depth - 1))
        return Or(
            _random_shaped(rng, term, schema, depth - 1),
            _random_shaped(rng, term, schema, depth - 1),
        )
    if isinstance(term, Atom):
        return _random_class_o(rng, schema.atoms(term.name), depth)
    if isinstance(term, Pair):
        return Prod(
            _random_shaped(rng, term.left, schema, depth - 1),
            _random_shaped(rng, term.right, schema, depth - 1),
        )
    return Arrow(
        _random_shaped(rng, term.antecedent, schema, depth - 1),
        _random_shaped(rng, term.consequent, schema, depth - 1),
    )


def test_atomic_agrees_with_oracle():
    rng = random.Random(7)
    schema = AttributeSchema.of([("A", ("a1", "a2", "a3", "a4"))])
    atoms = schema.atoms("A")
    for _ in range(600):
        b = _random_class_o(rng, atoms, 4)
        d = _random_class_o(rng, atoms, 4)
        assert exclusive(Atom("A"), b, d, schema) == oracle_exclusive(
            Atom("A"), b, d, schema
        )


def test_compound_agrees_with_oracle():
    rng = random.Random(11)
    schema = AttributeSchema.of(
        [("A", ("a1", "a2", "a3")), ("B", ("b1", "b2")), ("C", ("c1", "c2", "c3"))]
    )
    terms = [
        Pair(Atom("A"), Atom("B")),
        Cond(Atom("A"), Atom("B")),
        Pair(Atom("A"), Pair(Atom("B"), Atom("C"))),
        Cond(Pair(Atom("A"), Atom("B")), Atom("C")),
        Cond(Atom("A"), Pair(Atom("B"), Atom("C"))),
    ]
    for _ in range(400):
        term = rng.choice(terms)
        b = _random_shaped(rng, term, schema, 2)
        d = _random_shaped(rng, term, schema, 2)
        assert exclusive(term, b, d, schema) == oracle_exclusive(term, b, d, schema), (
            term,
            b,
            d,
        )


def test_symmetry():
    rng = random.Random(13)
    schema = AttributeSchema.of([("A", ("a1", "a2", "a3")), ("B", ("b1", "b2"))])
    terms = [Atom("A"), Pair(Atom("A"), Atom("B")), Cond(Atom("A"), Atom("B"))]
    for _ in range(300):
        term = rng.choice(terms)
        if isinstance(term, Atom):
            b = _random_class_o(rng, schema.atoms("A"), 3)
            d = _random_class_o(rng, schema.atoms("A"), 3)
            assert exclusive(Atom("A"), b, d, schema) == exclusive(
                Atom("A"), d, b, schema
            )
        else:
            b = _random_shaped(rng, term, schema, 2)
            d = _random_shaped(rng, term, schema, 2)
            assert exclusive(term, b, d, schema) == exclusive(term, d, b, schema)


# ---------------------------------------------------------------------------
# Cell masks against the oracle, over the term shapes of the benchmark

FOUR = AttributeSchema.of(
    [("A", ("a1", "a2", "a3")), ("B", ("b1", "b2")), ("C", ("c1", "c2", "c3")), ("D", ("d1", "d2"))]
)
_A, _B, _C, _D = (Atom(n) for n in "ABCD")
SHAPES = [
    _A,
    Pair(_A, _B),
    Pair(Pair(_A, _B), Pair(_C, _D)),
    Pair(_A, Pair(_B, _C)),
    Cond(_A, _B),
    Cond(_A, Pair(_B, _C)),
    Cond(Pair(_A, _B), _C),
]


def _shaped(rng, term, schema, depth, antecedents=None):
    """A random value fitting the term, with negated Ors of negated values.

    Conditionals draw their antecedent from `antecedents` when given, so
    that equal antecedents, often written differently, come up.
    """
    r = rng.random() if depth > 0 else 1.0
    if r < 0.12:
        parts = [Neg(_shaped(rng, term, schema, depth - 1, antecedents)) for _ in range(2)]
        return Neg(Or(*parts))
    if r < 0.25:
        return Or(*(_shaped(rng, term, schema, depth - 1, antecedents) for _ in range(2)))
    if r < 0.35:
        return Neg(_shaped(rng, term, schema, depth - 1, antecedents))
    if isinstance(term, Atom):
        return AtomVal(rng.choice(schema.atoms(term.name)))
    if isinstance(term, Pair):
        return Prod(
            _shaped(rng, term.left, schema, depth - 1),
            _shaped(rng, term.right, schema, depth - 1),
        )
    if antecedents:
        antecedent = rng.choice(antecedents)
    else:
        antecedent = _shaped(rng, term.antecedent, schema, depth - 1)
    return Arrow(antecedent, _shaped(rng, term.consequent, schema, depth - 1))


def _antecedent_pool(rng, term, schema):
    x = _shaped(rng, term.antecedent, schema, 2)
    y = _shaped(rng, term.antecedent, schema, 2)
    return [x, Neg(Neg(x)), Or(x, x), y]


def test_cell_masks_agree_with_oracle():
    rng = random.Random(2026)
    verdicts = {True: 0, False: 0}
    for n in range(1400):
        term = SHAPES[n % len(SHAPES)]
        pool = _antecedent_pool(rng, term, FOUR) if isinstance(term, Cond) else None
        b = _shaped(rng, term, FOUR, 3, pool)
        d = _shaped(rng, term, FOUR, 3, pool)
        got = exclusive(term, b, d, FOUR)
        assert got == oracle_exclusive(term, b, d, FOUR), (term, b, d)
        verdicts[got] += 1
    assert min(verdicts.values()) > 200, verdicts


def test_negated_or_of_many_products():
    # ~(p1 + ... + p12): expanded into rectangles this had 3^12 of them
    five = AttributeSchema.of(
        [(f"V{i}", tuple(f"x{i}{j}" for j in range(5))) for i in range(4)]
    )
    term = parse_term("<<V0,V1>,<V2,V3>>")
    rng = random.Random(5)

    def component(i):
        atoms = five.atoms(f"V{i}")
        picked = rng.sample(atoms, rng.randint(1, 3))
        value = AtomVal(picked[0])
        for atom in picked[1:]:
            value = Or(value, AtomVal(atom))
        return Neg(value) if rng.random() < 0.3 else value

    def product():
        return Prod(Prod(component(0), component(1)), Prod(component(2), component(3)))

    big = product()
    for _ in range(11):
        big = Or(big, product())
    big = Neg(big)
    def cell():
        atoms = [AtomVal(rng.choice(five.atoms(f"V{i}"))) for i in range(4)]
        return Prod(Prod(atoms[0], atoms[1]), Prod(atoms[2], atoms[3]))

    verdicts = set()
    for n in range(40):
        other = product() if n % 2 else cell()
        got = exclusive(term, big, other, five)
        assert got == oracle_exclusive(term, big, other, five)
        verdicts.add(got)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# Conditional terms below pairs, and the validating mask walk

SIX = AttributeSchema.of(
    [("X", ("a", "b")), ("Y", ("c", "d")), ("Z", ("e", "f")), ("W", ("g", "h")), ("U", ("i", "j"))]
)


@pytest.mark.parametrize(
    "term, beta, delta",
    [
        ("<X,[Y]Z>", "a*(c->e)", "a*(c->f)"),
        ("<[Y]Z,X>", "(c->e)*a", "(c->e)*b"),
        ("<X,<W,[Y]Z>>", "a*(g*(c->e))", "a*(g*(c->f))"),
        ("<X,fst(<[Y]Z,W>)>", "a*(c->e)", "a*(c->f)"),
        # inside a conditional antecedent, compared by masks or by equality
        ("[<X,[Y]Z>]W", "(a*(c->e))->g", "(a*(c->e))->h"),
        ("[[<X,[Y]Z>]W]U", "((a*(c->e))->g)->i", "((a*(c->e))->g)->j"),
        # in a consequent
        ("[W]<X,[Y]Z>", "g->a*(c->e)", "g->a*(c->f)"),
    ],
)
def test_conditional_below_a_pair_is_rejected(term, beta, delta):
    # exclusive crashed with an AttributeError on such terms, and the oracle
    # read the conditional value as a material implication
    for decide in (exclusive, oracle_exclusive):
        with pytest.raises(ShapeMismatch, match="below a pair"):
            decide(parse_term(term), v(beta), v(delta), SIX)


XYZW = AttributeSchema.of([("X", ("a", "b")), ("Y", ("u", "v")), ("Z", ("p", "q")), ("W", ("r", "s"))])


@pytest.mark.parametrize(
    "term, beta, delta",
    [
        # antecedents that differ in structure but not in truth table
        ("[[X]Y]Z", "(a->u)->p", "(~~(a->u))->q"),
        ("[[X]Y]Z", "(a->u)->p", "(a->u)->q"),
        ("[[X]Y]Z", "~((a->u)->p)", "((b->v)->q)+((a->u)->p)"),
        ("[X][[Y]Z]W", "a->((u->p)->r)", "a->((u->p)->s)"),
    ],
)
def test_conditional_antecedent_is_rejected(term, beta, delta):
    for decide in (exclusive, oracle_exclusive):
        with pytest.raises(ShapeMismatch, match="conditional antecedent"):
            decide(parse_term(term), v(beta), v(delta), XYZW)


def _reference_check_shape(term, value, schema):
    """The shape check as a walk of its own, before the mask walk took it over."""
    while isinstance(value, (Neg, Or)):
        if isinstance(value, Neg):
            value = value.inner
        else:
            _reference_check_shape(term, value.left, schema)
            value = value.right
    if isinstance(term, Atom):
        if not isinstance(value, AtomVal):
            raise ShapeMismatch(f"{print_value(value)} is not a deterministic value for {term.name!r}")
        if schema.owner(value.name) != term.name:
            raise MixedVariables(f"{value.name!r} is not an atomic value of {term.name!r}")
        return
    if isinstance(term, Pair):
        if not isinstance(value, Prod):
            raise ShapeMismatch(f"pair term {print_term(term)} needs a product, got {print_value(value)}")
        _reference_check_shape(term.left, value.left, schema)
        _reference_check_shape(term.right, value.right, schema)
        return
    if not isinstance(value, Arrow):
        raise ShapeMismatch(f"conditional term {print_term(term)} needs a conditional, got {print_value(value)}")
    _reference_check_shape(term.antecedent, value.left, schema)
    _reference_check_shape(term.consequent, value.right, schema)


def _misfit(rng, term, depth):
    """A value that mostly fits the term, with misfits mixed in."""
    r = rng.random()
    if depth > 0 and r < 0.2:
        return Or(_misfit(rng, term, depth - 1), _misfit(rng, term, depth - 1))
    if depth > 0 and r < 0.3:
        return Neg(_misfit(rng, term, depth - 1))
    if r < 0.36:
        return Arrow(AtomVal("a1"), AtomVal("b1"))
    if r < 0.42:
        return AtomVal(rng.choice(["zz", "b2", "c3", "d1"]))  # unknown or another variable's
    if isinstance(term, Atom):
        if depth > 0 and r < 0.48:
            return Prod(AtomVal("a1"), AtomVal("b1"))
        return AtomVal(rng.choice(FOUR.atoms(term.name)))
    if isinstance(term, Cond):
        return Arrow(_misfit(rng, term.antecedent, depth - 1), _misfit(rng, term.consequent, depth - 1))
    return Prod(_misfit(rng, term.left, depth - 1), _misfit(rng, term.right, depth - 1))


def _outcome(fn):
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 - the outcome is the error itself
        return (type(exc), str(exc))
    return None


def test_shape_checks_raise_what_the_separate_walk_raised():
    rng = random.Random(41)
    misfits = 0
    for n in range(3000):
        term = SHAPES[n % len(SHAPES)]
        value = _misfit(rng, term, 3)
        want = _outcome(lambda: _reference_check_shape(term, value, FOUR))
        misfits += want is not None
        assert _outcome(lambda: fit(term, value, FOUR)) == want, (term, value)
    assert 500 < misfits < 2500, misfits


@pytest.mark.parametrize(
    "beta, error",
    [
        ("(a->c)+(a*b)", ShapeMismatch),  # needs a conditional
        ("(a->c)+(a->zz)", UnknownSymbol),
        ("~(~(a->c)+~(a->c*d))", ShapeMismatch),  # not a deterministic value
        ("(a->c)+(a->e)", MixedVariables),
    ],
)
def test_conditional_values_are_checked_whole(beta, error):
    # the first disjunct already decides (not exclusive, or exclusive under
    # a negated disjunction), so the procedure never reaches the misfit
    for decide in (exclusive, oracle_exclusive):
        with pytest.raises(error):
            decide(parse_term("[X]Y"), v(beta), v("a->c"), SIX)
