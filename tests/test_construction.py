"""Tests for plan execution, sub-values, derived values, and preservation."""

import collections
import random
import re

import pytest

from tndpq import calculus, construction, systems
from tndpq.calculus import Derivation, RuleId, apply_rule, at_query, check_derivation
from tndpq.construction import (
    Plan,
    PlanStep,
    construct,
    deconstruct,
    derive_value,
    verify_preservation,
    zero_probe_values,
)
from tndpq.errors import (
    DerivationFailed,
    EmptySupport,
    PreconditionFailed,
    RuleNotAllowed,
    TndpqError,
)
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
    ValueAttribution,
    parse_term,
    parse_value,
    print_term,
    print_value,
    subvalues,
)
from tndpq.systems import Estimator, TrainingSet
from tndpq.trust import at as at_kind
from tndpq.trust import TrustReport, check_nonatomic, et, jt, wt

# every conclusion a rule builds in these tests must parse back
pytestmark = pytest.mark.usefixtures("conclusions_parse_back")


@pytest.fixture
def pox_schema():
    return AttributeSchema.of(
        {
            "Chickenpox": ("Absent", "Minor", "Moderate", "Major", "Extreme"),
            "Hepatitis": ("No", "Yes"),
        }
    )


def _table(schema, counts):
    """A training set with the given number of copies of each row."""
    rows = []
    for row, n in counts:
        rows.extend([dict(row)] * n)
    return TrainingSet.from_rows("t", schema, rows)


@pytest.fixture
def product_pair(pox_schema):
    """Original and copy tables where the two variables are independent."""
    pox = [("Absent", 2), ("Minor", 4), ("Moderate", 2), ("Major", 1), ("Extreme", 1)]
    orig = _table(
        pox_schema,
        [({"Chickenpox": c, "Hepatitis": h}, n) for c, n in pox for h in ("No", "Yes")],
    )
    pox_copy = [("Absent", 2), ("Minor", 3), ("Moderate", 2), ("Major", 1), ("Extreme", 2)]
    copy = _table(
        pox_schema,
        [({"Chickenpox": c, "Hepatitis": h}, n) for c, n in pox_copy for h in ("No", "Yes")],
    )
    return (orig, Estimator("e", "freq")), (copy, Estimator("e", "freq"))


# ---------------------------------------------------------------------------
# Plans


def test_construct_product_and_deconstruct_back(product_pair, pox_schema):
    source, _ = product_pair
    minor = at_query(source, (), "Chickenpox", "Extreme")
    major = at_query(
        source, (parse_attr("Chickenpox : Extreme"),), "Hepatitis", "Yes"
    )
    plan = Plan((PlanStep("pair", RuleId.ProdI1, ("major", "minor")),))
    built = construct({"major": major, "minor": minor}, plan, pox_schema)
    assert built.conclusion.probability == pytest.approx(0.1 * 0.5)
    assert built.conclusion.value == Prod(AtomVal("Extreme"), AtomVal("Yes"))

    back = Plan((PlanStep("minor", RuleId.ProdE1a, ("pair", "cond")),))
    recovered = deconstruct({"pair": built, "cond": major}, back, pox_schema)
    assert recovered.conclusion.probability == pytest.approx(0.1)
    assert recovered.conclusion.value == AtomVal("Extreme")


def parse_attr(text):
    from tndpq.syntax import parse_attribution_list

    (attr,) = parse_attribution_list(text)
    return attr


def test_construct_rejects_elimination_rules(product_pair, pox_schema):
    source, _ = product_pair
    leaf = at_query(source, (), "Chickenpox", "Extreme")
    plan = Plan((PlanStep("s", RuleId.OrERa, ("x", "y")),))
    with pytest.raises(RuleNotAllowed):
        construct({"x": leaf, "y": leaf}, plan, pox_schema)
    plan = Plan((PlanStep("s", RuleId.NegIER, ("x",), direction="backward"),))
    with pytest.raises(RuleNotAllowed):
        construct({"x": leaf}, plan, pox_schema)


@pytest.mark.parametrize(
    "mode, rule, message",
    [
        (construct, "OrERa", "OrERa (forward) is not a right introduction rule"),
        (construct, "Nope", "Nope (forward) is not a right introduction rule"),
        (deconstruct, "OrIR", "OrIR (forward) is not a right elimination rule"),
    ],
)
def test_a_rule_given_by_name_is_refused(product_pair, pox_schema, mode, rule, message):
    source, _ = product_pair
    leaf = at_query(source, (), "Chickenpox", "Extreme")
    plan = Plan((PlanStep("s", rule, ("x", "y")),))
    with pytest.raises(RuleNotAllowed, match=re.escape(message)):
        mode({"x": leaf, "y": leaf}, plan, pox_schema)


def test_deconstruct_rejects_introduction_rules(product_pair, pox_schema):
    source, _ = product_pair
    leaf = at_query(source, (), "Chickenpox", "Extreme")
    plan = Plan((PlanStep("s", RuleId.OrIR, ("x", "y")),))
    with pytest.raises(RuleNotAllowed):
        deconstruct({"x": leaf, "y": leaf}, plan, pox_schema)
    plan = Plan((PlanStep("s", RuleId.NegIER, ("x",), direction="forward"),))
    with pytest.raises(RuleNotAllowed):
        deconstruct({"x": leaf}, plan, pox_schema)


def test_plan_reference_errors(product_pair, pox_schema):
    source, _ = product_pair
    leaf = at_query(source, (), "Chickenpox", "Extreme")
    with pytest.raises(RuleNotAllowed):
        Plan((PlanStep("s", RuleId.NegIER, ("x",)), PlanStep("s", RuleId.NegIER, ("s",))))
    plan = Plan((PlanStep("s", RuleId.NegIER, ("missing",)),))
    with pytest.raises(RuleNotAllowed):
        construct({"x": leaf}, plan, pox_schema)
    with pytest.raises(RuleNotAllowed):
        construct({"x": leaf}, Plan(()), pox_schema)


# ---------------------------------------------------------------------------
# Sub-values


def test_subvalues():
    v = parse_value("~(Major + Extreme) * Minor")
    subs = set(subvalues(v))
    assert parse_value("Major") in subs
    assert parse_value("Major + Extreme") in subs
    assert parse_value("~(Major + Extreme)") in subs
    assert v in subs
    assert parse_value("Minor + Major") not in subs


# ---------------------------------------------------------------------------
# Derived values and probes


def test_derive_atomic_and_disjunction(product_pair, pox_schema):
    source, _ = product_pair
    term = Atom("Chickenpox")
    d = derive_value(source, (), term, parse_value("Major + Extreme"), pox_schema)
    assert d.conclusion.probability == pytest.approx(0.2)
    assert d.rule == RuleId.OrIR
    n = derive_value(source, (), term, parse_value("~Minor"), pox_schema)
    assert n.conclusion.probability == pytest.approx(0.6)


def test_derive_product_and_conditional(product_pair, pox_schema):
    source, _ = product_pair
    pair_term = Pair(Atom("Chickenpox"), Atom("Hepatitis"))
    d = derive_value(
        source, (), pair_term, Prod(AtomVal("Extreme"), AtomVal("Yes")), pox_schema
    )
    assert d.conclusion.probability == pytest.approx(0.1 * 0.5)
    cond_term = Cond(Atom("Chickenpox"), Atom("Hepatitis"))
    a = derive_value(
        source, (), cond_term, Arrow(AtomVal("Extreme"), AtomVal("Yes")), pox_schema
    )
    assert a.conclusion.probability == pytest.approx(0.5)
    assert a.rule == RuleId.ImpIE


def test_derive_failure_on_overlapping_disjunction(product_pair, pox_schema):
    source, _ = product_pair
    bad = Or(AtomVal("Major"), Or(AtomVal("Major"), AtomVal("Extreme")))
    with pytest.raises(DerivationFailed):
        derive_value(source, (), Atom("Chickenpox"), bad, pox_schema)


def test_zero_probe_values_shapes(pox_schema):
    atomic = zero_probe_values(Atom("Hepatitis"), pox_schema)
    assert AtomVal("No") in atomic and Or(AtomVal("No"), AtomVal("Yes")) in atomic
    pair = zero_probe_values(Pair(Atom("Chickenpox"), Atom("Hepatitis")), pox_schema)
    assert len(pair) == 10
    assert all(isinstance(v, Prod) for v in pair)
    cond = zero_probe_values(Cond(Atom("Hepatitis"), Atom("Chickenpox")), pox_schema)
    assert all(isinstance(v, Arrow) for v in cond)


def test_check_nonatomic_pair(product_pair, pox_schema):
    orig, copy = product_pair
    term = Pair(Atom("Chickenpox"), Atom("Hepatitis"))
    probes = [
        Prod(AtomVal("Extreme"), AtomVal("Yes")),
        Prod(AtomVal("Major"), AtomVal("No")),
    ]
    report = check_nonatomic(orig, orig, term, (), probes, jt(), pox_schema)
    assert report.verdict
    # the copy doubles the Extreme mass, so joint trust fails on that probe
    report = check_nonatomic(orig, copy, term, (), probes, jt(), pox_schema, tol=1e-9)
    assert not report.verdict
    report = check_nonatomic(orig, copy, term, (), [probes[0]], at_kind(1), pox_schema)
    assert report.verdict


# ---------------------------------------------------------------------------
# Preservation


def _leaf_pair(product_pair, sigma, variable, atom):
    orig, copy = product_pair
    return at_query(orig, sigma, variable, atom), at_query(copy, sigma, variable, atom)


def test_preserve_jt_guaranteed(product_pair, pox_schema):
    orig, _ = product_pair
    f1 = at_query(orig, (), "Chickenpox", "Major")
    f2 = at_query(orig, (), "Chickenpox", "Extreme")
    plan = Plan((PlanStep("or", RuleId.OrIR, ("a", "b")),))
    report = verify_preservation(
        {"a": f1, "b": f2}, {"a": f1, "b": f2}, plan, jt(), "construct", pox_schema, tol=1e-12
    )
    assert report.verdict and report.warning is None


def test_preserve_at_negation_counterexample(product_pair, pox_schema):
    (fo, fc) = _leaf_pair(product_pair, (), "Chickenpox", "Extreme")
    assert fc.conclusion.probability > fo.conclusion.probability  # AT holds on input
    plan = Plan((PlanStep("neg", RuleId.NegIER, ("a",)),))
    report = verify_preservation(
        {"a": fo}, {"a": fc}, plan, at_kind(1), "construct", pox_schema
    )
    assert not report.verdict
    assert report.warning is not None  # negation voids the guarantee


def test_preserve_at_negation_free_construct(product_pair, pox_schema):
    (fo, fc) = _leaf_pair(product_pair, (), "Chickenpox", "Extreme")
    (go, gc) = _leaf_pair(product_pair, (), "Chickenpox", "Major")
    plan = Plan((PlanStep("or", RuleId.OrIR, ("a", "b")),))
    report = verify_preservation(
        {"a": fo, "b": go}, {"a": fc, "b": gc}, plan, at_kind(1), "construct", pox_schema
    )
    assert report.verdict and report.warning is None


def test_preserve_at_deconstruction_counterexample(pox_schema):
    # inputs satisfy AT (equal disjunction mass, copy ahead on Minor) but
    # eliminating Minor leaves the copy behind on Moderate.
    def make(minor, moderate, absent):
        spec = [("Minor", minor), ("Moderate", moderate), ("Absent", absent)]
        return _table(
            pox_schema,
            [({"Chickenpox": c, "Hepatitis": "No"}, n) for c, n in spec],
        )

    orig = (make(3, 4, 3), Estimator("e", "freq"))
    copy = (make(4, 3, 3), Estimator("e", "freq"))
    build = Plan((PlanStep("or", RuleId.OrIR, ("x", "y")),))
    inputs = {}
    for name, source in (("orig", orig), ("copy", copy)):
        minor = at_query(source, (), "Chickenpox", "Minor")
        moderate = at_query(source, (), "Chickenpox", "Moderate")
        both = construct({"x": minor, "y": moderate}, build, pox_schema)
        inputs[name] = {"big": both, "small": minor}
    plan = Plan((PlanStep("rest", RuleId.OrERa, ("big", "small")),))
    report = verify_preservation(
        inputs["orig"], inputs["copy"], plan, at_kind(1), "deconstruct", pox_schema
    )
    assert report.warning is not None  # no theorem for AT under deconstruction
    assert not report.verdict


def test_preserve_et_deconstruction_guaranteed(product_pair, pox_schema):
    orig, _ = product_pair
    minor = at_query(orig, (), "Chickenpox", "Minor")
    mod = at_query(orig, (), "Chickenpox", "Moderate")
    both = construct(
        {"x": minor, "y": mod}, Plan((PlanStep("or", RuleId.OrIR, ("x", "y")),)), pox_schema
    )
    plan = Plan((PlanStep("rest", RuleId.OrERa, ("big", "small")),))
    report = verify_preservation(
        {"big": both, "small": minor},
        {"big": both, "small": minor},
        plan,
        et(1),
        "deconstruct",
        pox_schema,
    )
    assert report.verdict and report.warning is None


def test_preserve_input_precondition(product_pair, pox_schema):
    (fo, fc) = _leaf_pair(product_pair, (), "Chickenpox", "Extreme")
    plan = Plan((PlanStep("neg", RuleId.NegIER, ("a",)),))
    with pytest.raises(PreconditionFailed):
        verify_preservation({"a": fo}, {"a": fc}, plan, jt(), "construct", pox_schema)
    with pytest.raises(PreconditionFailed):
        verify_preservation({"a": fc}, {"a": fo}, plan, at_kind(1), "construct", pox_schema)
    with pytest.raises(PreconditionFailed):
        verify_preservation({"a": fo}, {"b": fo}, plan, jt(), "construct", pox_schema)
    with pytest.raises(PreconditionFailed):
        verify_preservation({"a": fo}, {"a": fo}, plan, jt(), "sideways", pox_schema)


def test_preserve_wt_zero_pattern_gate(pox_schema):
    # the original places no mass on Extreme while the copy does, so the
    # weak-trust zero pattern is violated already at the inputs.
    def make(spec):
        return _table(
            pox_schema,
            [({"Chickenpox": c, "Hepatitis": h}, n) for c, n in spec for h in ("No", "Yes")],
        )

    orig = (make([("Minor", 6), ("Moderate", 4)]), Estimator("e", "freq"))
    copy = (make([("Minor", 5), ("Moderate", 4), ("Extreme", 1)]), Estimator("e", "freq"))
    o_e = at_query(orig, (), "Chickenpox", "Extreme")
    c_e = at_query(copy, (), "Chickenpox", "Extreme")
    o_m = at_query(orig, (), "Chickenpox", "Minor")
    c_m = at_query(copy, (), "Chickenpox", "Minor")
    plan = Plan((PlanStep("or", RuleId.OrIR, ("x", "y")),))
    with pytest.raises(PreconditionFailed):
        # the zero pattern is already broken at the inputs
        verify_preservation(
            {"x": o_e, "y": o_m}, {"x": c_e, "y": c_m}, plan, wt(1), "construct", pox_schema
        )


# ---------------------------------------------------------------------------
# derive_value against derivations built one atom query at a time

XYZ = AttributeSchema.of([("X", ("x1", "x2", "x3", "x4")), ("Y", ("y1", "y2", "y3")), ("Z", ("z1", "z2"))])
ESTIMATORS = (Estimator("f", "freq"), Estimator("l", "laplace", 0.5))


def _seeded_table(rng, n):
    rows = [{name: rng.choice(atoms) for name, atoms in XYZ.variables} for _ in range(n)]
    return TrainingSet.from_rows(f"T{n}", XYZ, rows)


def _deterministic_value(rng, atoms):
    """Distinct atoms in a random disjunction tree, perhaps negated; or any
    class-O value, whose disjuncts may overlap."""
    if rng.random() < 0.25:
        value = AtomVal(rng.choice(atoms))
        for _ in range(rng.randint(1, 3)):
            value = Neg(value) if rng.random() < 0.4 else Or(value, AtomVal(rng.choice(atoms)))
        return value

    def tree(names):
        if len(names) == 1:
            return AtomVal(names[0])
        k = rng.randint(1, len(names) - 1)
        return Or(tree(names[:k]), tree(names[k:]))

    value = tree(rng.sample(atoms, rng.randint(1, len(atoms))))
    for _ in range(rng.randint(0, 2)):
        value = Neg(value)
    return value


def _atom_by_atom(source, sigma, term, value, schema):
    """The derivation `derive_value` builds, with one `at_query` per atom."""

    def build(sigma, term, value):
        if isinstance(value, AtomVal):
            return at_query(source, sigma, term.name, value.name)
        if isinstance(value, Neg):
            return apply_rule(RuleId.NegIER, [build(sigma, term, value.inner)], schema)
        if isinstance(value, Or):
            return apply_rule(
                RuleId.OrIR, [build(sigma, term, value.left), build(sigma, term, value.right)], schema
            )
        if isinstance(value, Arrow):
            extended = sigma + (ValueAttribution(term.antecedent.name, value.left),)
            return apply_rule(RuleId.ImpIE, [build(extended, term.consequent, value.right)], schema)
        minor = build(sigma, term.left, value.left)
        extended = sigma + (ValueAttribution(term.left.name, value.left),)
        major = build(extended, term.right, value.right)
        return apply_rule(RuleId.ProdI1, [major, minor], schema)

    return build(tuple(sigma), term, value)


def _derivation_cases(seed):
    """(source, sigma, term, value) over seeded tables."""
    rng = random.Random(seed)
    atoms = {name: list(a) for name, a in XYZ.variables}
    for _ in range(40):
        ts = _seeded_table(rng, rng.choice((0, 3, 20, 90)))
        for est in ESTIMATORS:
            sigma = ()
            if rng.random() < 0.5:
                sigma = (ValueAttribution("Z", _deterministic_value(rng, atoms["Z"])),)
            shape = rng.randrange(3)
            if shape == 0:
                term, value = Atom("X"), _deterministic_value(rng, atoms["X"])
            elif shape == 1:
                term = Cond(Atom("X"), Atom("Y"))
                value = Arrow(_deterministic_value(rng, atoms["X"]), _deterministic_value(rng, atoms["Y"]))
            else:
                term = Pair(Atom("X"), Atom("Y"))
                value = Prod(_deterministic_value(rng, atoms["X"]), _deterministic_value(rng, atoms["Y"]))
            yield (ts, est), sigma, term, value


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_derive_value_matches_atom_by_atom_queries(seed):
    derived = failed = 0
    for source, sigma, term, value in _derivation_cases(seed):
        try:
            expected = _atom_by_atom(source, sigma, term, value, XYZ)
        except TndpqError as exc:
            if isinstance(term, Pair):
                continue  # derive_value may still take the independence route
            with pytest.raises(DerivationFailed) as caught:
                derive_value(source, sigma, term, value, XYZ)
            if not isinstance(exc, DerivationFailed):
                assert str(caught.value) == f"cannot derive {print_value(value)} for {print_term(term)}: {exc}"
            failed += 1
            continue
        got = derive_value(source, sigma, term, value, XYZ)
        assert got == expected, (term, value, sigma)
        report = check_derivation(got, XYZ, sources={source[0].id: source})
        assert report.ok, report.violations
        derived += 1
    assert derived > 20 and failed > 5


def test_derive_value_learns_one_distribution_per_deterministic_subvalue(monkeypatch):
    """Each (σ, target) a `derive_value` call reads is learnt exactly once, on either product route.

    Learns are counted where every one is made, so one inside the
    independence test is seen as well as a leaf's.
    """
    calls = []
    real = systems._conditional

    def counting(ts, est, sigma, target):
        calls.append((tuple(sigma), target))
        return real(ts, est, sigma, target)

    monkeypatch.setattr(systems, "_conditional", counting)
    routes = collections.Counter()
    for source, sigma, term, value in _derivation_cases(4):
        calls.clear()
        try:
            d = derive_value(source, sigma, term, value, XYZ)
        except DerivationFailed:
            continue
        if isinstance(term, Atom):
            expected = {(sigma, "X")}
        elif isinstance(term, Cond):
            expected = {(sigma + (ValueAttribution("X", value.left),), "Y")}
        else:
            # the conditional route is tried first; the independence route
            # then learns P(Y | σ) for its test, and its leaves read P(X | σ)
            # and P(Y | σ) from the learner
            expected = {(sigma, "X"), (sigma + (ValueAttribution("X", value.left),), "Y")}
            if d.rule == RuleId.ProdIIndep:
                expected.add((sigma, "Y"))
        assert len(calls) == len(expected) and set(calls) == expected, (term, value, calls)
        routes[d.rule] += 1
    assert routes[RuleId.ProdI1] > 5 and routes[RuleId.ProdIIndep] > 0 and sum(routes.values()) > 20, routes


class _Relearning:
    """`systems.Learner` without its memo: every call learns its distribution afresh."""

    def __init__(self, pair):
        self.pair = pair

    def __call__(self, sigma, target):
        ts, est = self.pair
        return systems.conditional_distribution(ts, est, sigma, target)

    def independent(self, sigma, t, u):
        ts, est = self.pair
        return systems.independent(ts, est, sigma, t, u)


def _nodes(node, path=()):
    """(path, node) for every node of a derivation, the root first."""
    yield path, node
    for index, premise in enumerate(node.premises):
        yield from _nodes(premise, path + (index,))


def _claiming(node, path, p):
    """The tree with the node at `path` claiming probability p."""
    if not path:
        return Derivation(node.conclusion.with_probability(p), node.rule, node.premises,
                          node.side_conditions, node.provenance, node.direction)
    premises = list(node.premises)
    premises[path[0]] = _claiming(premises[path[0]], path[1:], p)
    return Derivation(node.conclusion, node.rule, tuple(premises), node.side_conditions, node.provenance, node.direction)


@pytest.mark.parametrize("seed", [5, 6])
def test_check_derivation_with_sources_matches_relearning_every_leaf(seed, monkeypatch):
    rng = random.Random(seed)
    cases = []
    for source, sigma, term, value in _derivation_cases(seed):
        try:
            tree = derive_value(source, sigma, term, value, XYZ)
        except DerivationFailed:
            continue
        nodes = list(_nodes(tree))
        leaf = rng.choice([path for path, node in nodes if node.rule == RuleId.AtQuery])
        path = rng.choice([path for path, _ in nodes])
        cases.append((source, tree))
        for path in (leaf, path):
            p = dict(nodes)[path].conclusion.probability
            cases.append((source, _claiming(tree, path, p / 2 if p > 0.02 else p + 0.01)))
    # the checker-fault tree: an independence verdict recorded as True over dependent X and Y
    rows = [{"X": x, "Y": y, "Z": "z1"} for x, y in (("x1", "y1"), ("x1", "y1"), ("x2", "y2"), ("x1", "y2"))]
    fault = (TrainingSet.from_rows("fault", XYZ, rows), ESTIMATORS[0])
    side = [{"kind": "independent", "t": "X", "u": "Y", "verdict": True}]
    leaves = [at_query(fault, (), "Y", "y1"), at_query(fault, (), "X", "x1")]
    cases.append((fault, apply_rule(RuleId.ProdIIndep, leaves, XYZ, side=side)))

    def violations():
        return [check_derivation(tree, XYZ, sources={source[0].id: source}).violations for source, tree in cases]

    got = violations()
    monkeypatch.setattr(calculus, "Learner", _Relearning)
    assert got == violations()
    assert sum(not v for v in got) > 20 and sum(bool(v) for v in got) > 40
    assert any(kind == "SideConditionUnproved" for _, kind, _ in got[-1])


@pytest.mark.parametrize("seed", [1, 2])
def test_check_nonatomic_evidence_matches_fresh_derivations(seed):
    """One learner per side gives the evidence of a fresh `derive_value` call per probe, bit for bit."""
    rng = random.Random(seed)
    atoms = {name: list(a) for name, a in XYZ.variables}
    shapes = (
        (Atom("X"), lambda: _deterministic_value(rng, atoms["X"])),
        (Cond(Atom("X"), Atom("Y")),
         lambda: Arrow(_deterministic_value(rng, atoms["X"]), _deterministic_value(rng, atoms["Y"]))),
        (Pair(Atom("X"), Atom("Y")),
         lambda: Prod(_deterministic_value(rng, atoms["X"]), _deterministic_value(rng, atoms["Y"]))),
    )
    kinds = (jt(), et(1), at_kind(2), wt(1), wt(2))

    def outcome(run):
        try:
            return repr(run())
        except DerivationFailed as exc:
            return f"DerivationFailed: {exc}"

    reports = failures = 0
    for _ in range(60):
        sources = [(_seeded_table(rng, rng.choice((6, 30, 90))), rng.choice(ESTIMATORS)) for _ in range(2)]
        sigma = (ValueAttribution("Z", _deterministic_value(rng, atoms["Z"])),) if rng.random() < 0.5 else ()
        term, make = rng.choice(shapes)
        values = [make() for _ in range(rng.randint(1, 4))]
        kind, tol = rng.choice(kinds), rng.choice((0.0, 0.05))

        def fresh():
            def entry(value):
                f, g = (derive_value(s, sigma, term, value, XYZ).conclusion.probability for s in sources)
                return print_value(value), f, g

            inspected = [entry(value) for value in values]
            zero_pattern = []
            if kind.name == "WT":
                for value in zero_probe_values(term, XYZ):
                    try:
                        zero_pattern.append(entry(value))
                    except DerivationFailed:
                        continue
            report = TrustReport(kind)
            report.record(inspected, zero_pattern, tol)
            return report.evidence

        got = outcome(lambda: check_nonatomic(*sources, term, sigma, values, kind, XYZ, tol).evidence)
        assert got == outcome(fresh), (term, values, kind)
        failures += got.startswith("DerivationFailed")
        reports += not got.startswith("DerivationFailed")
    assert reports > 20 and failures > 5


def test_derive_value_empty_support_message():
    ts = TrainingSet.from_rows("t", XYZ, ({"X": "x1", "Y": "y1", "Z": "z1"},))
    sigma = (ValueAttribution("Z", AtomVal("z2")),)
    value = parse_value("x1 + ~(x2 + x3)")
    with pytest.raises(DerivationFailed) as caught:
        derive_value((ts, Estimator("f", "freq")), sigma, Atom("X"), value, XYZ)
    assert str(caught.value) == "cannot derive x1+~(x2+x3) for X: no training row satisfies Z:z2"
    assert isinstance(caught.value.__cause__, EmptySupport)
    # a product below an atomic term is refused before any distribution is learnt
    with pytest.raises(DerivationFailed) as caught:
        derive_value((ts, Estimator("f", "freq")), sigma, Atom("X"), parse_value("~(x1*y1)+x2"), XYZ)
    assert str(caught.value) == "cannot derive ~(x1*y1)+x2 for X: x1*y1 is not a deterministic value for 'X'"


@pytest.mark.parametrize(
    "term, value, message",
    [
        ("[<X,Y>]Z", "x1*y1->z1", "conditional value needs a conditional term with an atomic antecedent, got [<X,Y>]Z"),
        ("<<X,Y>,Z>", "(x1*y1)*z1", "no introduction route for x1*y1*z1 over <<X,Y>,Z>"),
    ],
)
def test_derive_value_names_a_value_it_has_no_route_for(term, value, message):
    ts = TrainingSet.from_rows("t", XYZ, ({"X": "x1", "Y": "y1", "Z": "z1"},))
    with pytest.raises(DerivationFailed, match=f"^{re.escape(message)}$"):
        derive_value((ts, Estimator("f", "freq")), (), parse_term(term, XYZ), parse_value(value, XYZ), XYZ)
