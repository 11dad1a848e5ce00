"""Acceptance suite.

Each criterion is one test function, so a verbose pytest run prints exactly
one pass/fail line per criterion:

  1. the four worked numeric examples reproduce at their stated tolerances;
  2. every elimination rule inverts its introduction rule to 1e-9 over
     1000 random premise sets per rule family;
  3. the exclusivity decision procedure agrees with the brute-force oracle
     on 5000 atomic and 2000 compound random cases, 100%;
  4. rule-derived probabilities coincide with directly counted frequencies
     on 200 random training tables to 1e-9;
  5. every algebraic law of the trust relations holds on 2000 random
     samples at zero tolerance, with non-entailment witnesses both ways;
  6. diverging trust chains of length 50 stay in relation to their
     predecessor and never re-agree, for all variants;
  7. 1000 composition squares satisfy the guaranteed conclusion;
  8. preservation: identity under 500 construct/deconstruct plans,
     inequality and zero-pattern under negation-free construction, the two
     deconstruction counterexamples, and prefix-equality both ways.
"""

import random
from fractions import Fraction

import pytest

from tndpq.calculus import Derivation, RuleId, apply_rule, at_query
from tndpq.construction import Plan, PlanStep, verify_preservation
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
    parse_attribution_list,
    parse_judgment,
    subvalues,
)
from tndpq.systems import AppliedSystem, Estimator, TrainingSet
from tndpq.trust import at, build_chain, check_local, compose_square, et, jt, verify_algebra, wt

# every conclusion a rule builds in these criteria must parse back
pytestmark = pytest.mark.usefixtures("conclusions_parse_back")

SCHEMA = AttributeSchema.of(
    [("X", ("a", "b", "c")), ("Y", ("u", "v")), ("Z", ("m", "n"))]
)
LOAN = AttributeSchema.of(
    [
        ("Age", ("18", "27", "35")),
        ("Gen", ("f", "m")),
        ("MS", ("single", "married", "divorced")),
        ("Etn", ("white", "black")),
        ("Loan", ("yes", "no")),
    ]
)
FREQ = Estimator("A", "freq")


def leaf(text, schema=SCHEMA):
    return Derivation(parse_judgment(text, schema), RuleId.AtQuery)


# ---------------------------------------------------------------------------
# 1. Worked examples


def test_criterion_1_worked_examples():
    sigma = "Age:27, MS:married+divorced, Etn:~white"
    major = leaf(f"{sigma}, Gen:f |> Loan : yes @ 0.60", LOAN)
    minor = leaf(f"{sigma} |> Gen : f @ 0.50", LOAN)
    conj = apply_rule(RuleId.ProdI1, [major, minor], LOAN)
    assert conj.conclusion.probability == pytest.approx(0.30, abs=1e-12)

    p1 = leaf("X:a+b |> Y : u @ 0.60")
    p2 = leaf("X:b |> Y : u @ 0.40")
    p3 = leaf("|> X : a @ 0.45")
    p4 = leaf("|> X : b @ 0.10")
    or_el = apply_rule(RuleId.OrELa, [p1, p2, p3, p4], SCHEMA)
    assert or_el.conclusion.probability == pytest.approx(
        (0.60 * 0.55 - 0.40 * 0.10) / 0.45, abs=1e-12
    )
    assert abs(or_el.conclusion.probability - 0.64) < 0.005

    q1 = leaf("|> X : a @ 0.80")
    q2 = leaf("|> Y : u @ 0.75")
    q3 = leaf("X:~a |> Y : u @ 0.60")
    neg_el = apply_rule(RuleId.NegELa, [q1, q2, q3], SCHEMA)
    assert neg_el.conclusion.probability == pytest.approx(0.7875, abs=1e-12)
    assert abs(neg_el.conclusion.probability - 0.79) < 0.005

    r1 = leaf("|> Y : u @ 0.5")
    r2 = leaf("|> X : a @ 0.2")
    side = [{"kind": "independent", "t": "X", "u": "Y", "asserted": True}]
    indep = apply_rule(RuleId.ProdIIndep, [r1, r2], SCHEMA, side=side)
    assert indep.conclusion.probability == pytest.approx(0.1, abs=1e-12)


# ---------------------------------------------------------------------------
# 2. Inversion principle


def test_criterion_2_inversion_principle():
    rng = random.Random(1001)
    tol = 1e-9

    done = 0
    while done < 1000:
        f, g = rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0)
        major = leaf(f"Y:u |> X : a @ {g}")
        minor = leaf(f"|> Y : u @ {f}")
        concl = apply_rule(RuleId.ProdI1, [major, minor], SCHEMA)
        assert abs(apply_rule(RuleId.ProdE1a, [concl, major], SCHEMA).conclusion.probability - f) < tol
        assert abs(apply_rule(RuleId.ProdE1b, [concl, minor], SCHEMA).conclusion.probability - g) < tol
        major2 = leaf(f"Y:u |> X : a @ {g}")
        minor2 = leaf(f"|> Y : u @ {f}")
        concl2 = apply_rule(RuleId.ProdI2, [major2, minor2], SCHEMA)
        assert abs(apply_rule(RuleId.ProdE2a, [concl2, major2], SCHEMA).conclusion.probability - f) < tol
        assert abs(apply_rule(RuleId.ProdE2b, [concl2, minor2], SCHEMA).conclusion.probability - g) < tol
        done += 1

    done = 0
    while done < 1000:
        f = rng.uniform(0, 0.6)
        g = rng.uniform(0, 1 - f)
        p1 = leaf(f"|> X : a @ {f}")
        p2 = leaf(f"|> X : b @ {g}")
        concl = apply_rule(RuleId.OrIR, [p1, p2], SCHEMA)
        assert abs(apply_rule(RuleId.OrERa, [concl, p1], SCHEMA).conclusion.probability - g) < tol
        assert abs(apply_rule(RuleId.OrERb, [concl, p2], SCHEMA).conclusion.probability - f) < tol
        done += 1

    done = 0
    while done < 1000:
        f, g = rng.uniform(0, 1), rng.uniform(0, 1)
        if abs(f - g) < 1e-3:
            continue
        h, i = rng.uniform(0.05, 0.5), rng.uniform(0.05, 0.5)
        p1 = leaf(f"X:a |> Y : u @ {f}")
        p2 = leaf(f"X:b |> Y : u @ {g}")
        p3 = leaf(f"|> X : a @ {h}")
        p4 = leaf(f"|> X : b @ {i}")
        concl = apply_rule(RuleId.OrIL, [p1, p2, p3, p4], SCHEMA)
        assert abs(apply_rule(RuleId.OrELa, [concl, p2, p3, p4], SCHEMA).conclusion.probability - f) < tol
        assert abs(apply_rule(RuleId.OrELb, [concl, p1, p3, p4], SCHEMA).conclusion.probability - g) < tol
        assert abs(apply_rule(RuleId.OrELc, [p1, p2, concl, p4], SCHEMA).conclusion.probability - h) < tol
        assert abs(apply_rule(RuleId.OrELd, [p1, p2, concl, p3], SCHEMA).conclusion.probability - i) < tol
        done += 1

    done = 0
    while done < 1000:
        f = rng.uniform(0.05, 0.95)
        h, d = rng.uniform(0, 1), rng.uniform(0, 1)
        if abs(h - d) < 1e-3:
            continue
        g = f * h + (1 - f) * d
        p1 = leaf(f"|> X : a @ {f}")
        p2 = leaf(f"|> Y : u @ {g}")
        p3 = leaf(f"X:a |> Y : u @ {h}")
        concl = apply_rule(RuleId.NegIL, [p1, p2, p3], SCHEMA)
        assert abs(concl.conclusion.probability - d) < tol
        assert abs(apply_rule(RuleId.NegELa, [p1, p2, concl], SCHEMA).conclusion.probability - h) < tol
        assert abs(apply_rule(RuleId.NegELb, [p1, p3, concl], SCHEMA).conclusion.probability - g) < tol
        assert abs(apply_rule(RuleId.NegELc, [p2, p3, concl], SCHEMA).conclusion.probability - f) < tol
        done += 1

    done = 0
    while done < 1000:
        p = leaf(f"|> Y : u @ {rng.uniform(0, 1)}")
        once = apply_rule(RuleId.NegIER, [p], SCHEMA)
        back = apply_rule(RuleId.NegIER, [once], SCHEMA, direction="backward")
        assert abs(back.conclusion.probability - p.conclusion.probability) < tol
        q = leaf(f"Z:m, X:a |> Y : u @ {rng.uniform(0, 1)}")
        fwd = apply_rule(RuleId.ImpIE, [q], SCHEMA)
        bwd = apply_rule(RuleId.ImpIE, [fwd], SCHEMA, direction="backward")
        assert abs(bwd.conclusion.probability - q.conclusion.probability) < tol
        done += 1


# ---------------------------------------------------------------------------
# 3. Exclusivity oracle equivalence


def _random_class_o(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.4:
        return AtomVal(rng.choice(atoms))
    if rng.random() < 0.4:
        return Neg(_random_class_o(rng, atoms, depth - 1))
    return Or(
        _random_class_o(rng, atoms, depth - 1), _random_class_o(rng, atoms, depth - 1)
    )


def _random_shaped(rng, term, schema, depth):
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


def test_criterion_3_exclusivity_oracle_equivalence():
    rng = random.Random(1003)
    schemas = [
        AttributeSchema.of([("A", ("a1", "a2"))]),
        AttributeSchema.of([("A", ("a1", "a2", "a3", "a4"))]),
        AttributeSchema.of([("A", ("a1", "a2", "a3")), ("B", ("b1", "b2"))]),
        AttributeSchema.of(
            [("A", ("a1", "a2", "a3")), ("B", ("b1", "b2")), ("C", ("c1", "c2", "c3", "c4"))]
        ),
    ]
    for _ in range(5000):
        schema = rng.choice(schemas)
        var = rng.choice([name for name, _ in schema.variables])
        atoms = schema.atoms(var)
        b = _random_class_o(rng, atoms, 4)
        d = _random_class_o(rng, atoms, 4)
        assert exclusive(Atom(var), b, d, schema) == oracle_exclusive(
            Atom(var), b, d, schema
        ), (var, b, d)

    compound = AttributeSchema.of(
        [("A", ("a1", "a2", "a3")), ("B", ("b1", "b2")), ("C", ("c1", "c2", "c3"))]
    )
    terms = [
        Pair(Atom("A"), Atom("B")),
        Cond(Atom("A"), Atom("B")),
        Pair(Atom("A"), Pair(Atom("B"), Atom("C"))),
        Cond(Pair(Atom("A"), Atom("B")), Atom("C")),
        Cond(Atom("A"), Pair(Atom("B"), Atom("C"))),
    ]
    for _ in range(2000):
        term = rng.choice(terms)
        b = _random_shaped(rng, term, compound, 2)
        d = _random_shaped(rng, term, compound, 2)
        assert exclusive(term, b, d, compound) == oracle_exclusive(
            term, b, d, compound
        ), (term, b, d)


# ---------------------------------------------------------------------------
# 4. Calculus-frequency coherence


def _count(rows, assignments):
    return sum(1 for row in rows if all(row[v] == a for v, a in assignments))


def test_criterion_4_calculus_frequency_coherence():
    rng = random.Random(1004)
    tol = 1e-9
    for case in range(200):
        width = rng.randrange(2, 7)
        names = [f"V{i}" for i in range(width)]
        schema = AttributeSchema.of(
            [(n, tuple(f"{n.lower()}{j}" for j in range(rng.randrange(2, 4)))) for n in names]
        )
        rows = []
        for _ in range(rng.randrange(30, 200)):
            rows.append({n: rng.choice(schema.atoms(n)) for n in names})
        x, y = rng.sample(names, 2)
        xa, xb = schema.atoms(x)[0], schema.atoms(x)[1]
        yu = schema.atoms(y)[0]
        # guarantee both conditioning cells are inhabited
        for atom in (xa, xb):
            rows.append({n: (atom if n == x else rng.choice(schema.atoms(n))) for n in names})
        ts = TrainingSet.from_rows(f"T{case}", schema, rows)
        src = (ts, FREQ)
        sig = lambda text: parse_attribution_list(text, schema)
        total = len(rows)

        # conjunction versus a direct joint count
        minor = at_query(src, (), x, xa)
        major = at_query(src, sig(f"{x}:{xa}"), y, yu)
        joint = apply_rule(RuleId.ProdI1, [major, minor], schema)
        assert abs(joint.conclusion.probability - _count(rows, [(x, xa), (y, yu)]) / total) < tol

        # disjunctive context versus a direct count on the union
        p1 = at_query(src, sig(f"{x}:{xa}"), y, yu)
        p2 = at_query(src, sig(f"{x}:{xb}"), y, yu)
        p3 = at_query(src, (), x, xa)
        p4 = at_query(src, (), x, xb)
        derived = apply_rule(RuleId.OrIL, [p1, p2, p3, p4], schema)
        either = _count(rows, [(x, xa), (y, yu)]) + _count(rows, [(x, xb), (y, yu)])
        both = _count(rows, [(x, xa)]) + _count(rows, [(x, xb)])
        assert abs(derived.conclusion.probability - either / both) < tol

        # negated context versus a direct count on the complement
        others = _count(rows, []) - _count(rows, [(x, xa)])
        if others:
            q2 = at_query(src, (), y, yu)
            neg = apply_rule(RuleId.NegIL, [p3, q2, p1], schema)
            outside = _count(rows, [(y, yu)]) - _count(rows, [(x, xa), (y, yu)])
            assert abs(neg.conclusion.probability - outside / others) < tol

            # total probability recomposed from the split
            q3 = at_query(src, sig(f"{x}:~{xa}"), y, yu)
            back = apply_rule(RuleId.NegELb, [p3, p1, q3], schema)
            assert abs(back.conclusion.probability - _count(rows, [(y, yu)]) / total) < tol


# ---------------------------------------------------------------------------
# 5. Trust algebra


def _random_distribution(rng, n, denominator=32):
    # a power-of-two denominator keeps every probability and every
    # perturbation exactly representable, so tol=0 comparisons are exact
    cuts = sorted(rng.randrange(denominator + 1) for _ in range(n - 1))
    parts, last = [], 0
    for cut in cuts:
        parts.append(cut - last)
        last = cut
    parts.append(denominator - last)
    return tuple(p / denominator for p in parts)


def _related_copy(rng, probs):
    mode = rng.random()
    probs = list(probs)
    if mode < 0.3:
        return tuple(probs)
    if mode < 0.7:
        i, j = rng.randrange(len(probs)), rng.randrange(len(probs))
        amount = min(probs[i], rng.randrange(3) / 32)
        probs[i] -= amount
        probs[j] += amount
        return tuple(probs)
    rng.shuffle(probs)
    return tuple(probs)


POX = AttributeSchema.of([("Pox", ("Absent", "Minor", "Moderate", "Major", "Extreme"))])


def _system(probs, training="T", estimator="A"):
    return AppliedSystem(
        training, estimator, (), "Pox", tuple(zip(POX.atoms("Pox"), probs))
    )


def criterion_5_samples():
    """The 2000 seeded (a, b, c) triples criterion 5 checks the laws on."""
    rng = random.Random(1005)
    samples = []
    for _ in range(2000):
        base = _random_distribution(rng, 5)
        samples.append(
            (
                _system(_related_copy(rng, base), estimator="A"),
                _system(_related_copy(rng, base), estimator="B"),
                _system(_related_copy(rng, base), estimator="C"),
            )
        )
    return samples


def test_criterion_5_trust_algebra():
    samples = criterion_5_samples()
    report = verify_algebra(samples, tol=0.0)
    assert report.ok, report.failures[:5]
    assert report.checked > 100000

    # non-entailment between prefix-equality and zero-pattern dominance,
    # witnessed among the generated samples in both directions
    et_not_wt = wt_not_et = False
    for a, b, _ in samples:
        for m in range(1, 5):
            try:
                et_holds = check_local(a, b, et(m)).verdict
                wt_holds = check_local(a, b, wt(m)).verdict
            except Exception:
                continue
            et_not_wt = et_not_wt or (et_holds and not wt_holds)
            wt_not_et = wt_not_et or (wt_holds and not et_holds)
        if et_not_wt and wt_not_et:
            break
    assert et_not_wt and wt_not_et


# ---------------------------------------------------------------------------
# 6. Diverging chains


def test_criterion_6_diverging_chains():
    probs = (0.2, 0.4, 0.3, 0.1, 0.0)
    configs = [
        ("AT", dict(m=1, k=2)),
        ("AT", dict(m=2, k=3)),
        ("WT", dict(m=1, k=2, l=1)),
        ("ET", dict(m=1, k=2, l=3)),
    ]
    for variant, kwargs in configs:
        a0 = _system(probs)
        b0 = _system(probs, estimator="B")
        chain_a, chain_b, report = build_chain(
            a0, b0, variant=variant, steps=50, **kwargs
        )
        assert len(report.steps) == 50
        assert report.ok, (variant, kwargs)
        for step in report.steps:
            assert step["parent_relation"]
            assert not step["jt_cross"]
            if variant != "ET":
                assert not step["et_cross"]


# ---------------------------------------------------------------------------
# 7. Composition square


def test_criterion_7_composition_square():
    rng = random.Random(1007)
    m = 2
    for _ in range(1000):
        base = [Fraction(x) for x in _random_distribution(rng, 5)]
        b0 = _system(tuple(float(p) for p in base))
        a0 = _system(tuple(float(p) for p in base), estimator="B")
        # a1: equal prefix, mass shuffled within the tail
        tail = base[m:]
        rng.shuffle(tail)
        a1 = _system(tuple(float(p) for p in base[:m] + tail), estimator="C")
        # b1: dominates the prefix by draining tail mass into it
        b1_probs = list(base)
        movable = sum(b1_probs[m:])
        if movable:
            take = min(movable, Fraction(rng.randrange(1, 4), 32))
            b1_probs[rng.randrange(m)] += take
            remaining = take
            for i in range(m, 5):
                dec = min(b1_probs[i], remaining)
                b1_probs[i] -= dec
                remaining -= dec
        b1 = _system(tuple(float(p) for p in b1_probs), estimator="D")
        report = compose_square(a0, b0, a1, b1, m=m)
        assert report.verdict, (base, a1, b1_probs)


# ---------------------------------------------------------------------------
# 8. Preservation


def _construct_fixture(rng, deltas):
    """A random construct plan with leaf pairs (f, f + delta)."""

    def prob(low=0.02, high=0.45):
        return rng.uniform(low, high)

    def bump(f):
        if f == 0:
            return 0.0
        return min(1.0, f + deltas * rng.uniform(0, 0.04))

    kind = rng.randrange(5)
    if kind == 0:  # exclusive disjunction
        f1, f2 = prob(), prob()
        inputs_f = {"a": leaf(f"|> X : a @ {f1}"), "b": leaf(f"|> X : b @ {f2}")}
        inputs_g = {"a": leaf(f"|> X : a @ {bump(f1)}"), "b": leaf(f"|> X : b @ {bump(f2)}")}
        plan = Plan((PlanStep("s", RuleId.OrIR, ("a", "b")),))
    elif kind == 1:  # conditional-route conjunction
        f1, f2 = prob(), rng.uniform(0.02, 0.95)
        inputs_f = {"t": leaf(f"|> X : a @ {f1}"), "u": leaf(f"X:a |> Y : u @ {f2}")}
        inputs_g = {"t": leaf(f"|> X : a @ {bump(f1)}"), "u": leaf(f"X:a |> Y : u @ {bump(f2)}")}
        plan = Plan((PlanStep("s", RuleId.ProdI1, ("u", "t")),))
    elif kind == 2:  # independence conjunction
        f1, f2 = prob(), prob()
        inputs_f = {"u": leaf(f"|> Y : u @ {f1}"), "t": leaf(f"|> X : a @ {f2}")}
        inputs_g = {"u": leaf(f"|> Y : u @ {bump(f1)}"), "t": leaf(f"|> X : a @ {bump(f2)}")}
        side = ({"kind": "independent", "t": "X", "u": "Y", "asserted": True},)
        plan = Plan((PlanStep("s", RuleId.ProdIIndep, ("u", "t"), side=side),))
    elif kind == 3:  # conditional value
        f = rng.uniform(0.02, 0.95)
        inputs_f = {"p": leaf(f"X:a |> Y : u @ {f}")}
        inputs_g = {"p": leaf(f"X:a |> Y : u @ {bump(f)}")}
        plan = Plan((PlanStep("s", RuleId.ImpIE, ("p",)),))
    else:  # two-level disjunction
        f1, f2, f3 = prob(0.02, 0.3), prob(0.02, 0.3), prob(0.02, 0.3)
        inputs_f = {
            "a": leaf(f"|> X : a @ {f1}"),
            "b": leaf(f"|> X : b @ {f2}"),
            "c": leaf(f"|> X : c @ {f3}"),
        }
        inputs_g = {
            "a": leaf(f"|> X : a @ {bump(f1)}"),
            "b": leaf(f"|> X : b @ {bump(f2)}"),
            "c": leaf(f"|> X : c @ {bump(f3)}"),
        }
        plan = Plan(
            (
                PlanStep("ab", RuleId.OrIR, ("a", "b")),
                PlanStep("s", RuleId.OrIR, ("ab", "c")),
            )
        )
    return inputs_f, inputs_g, plan


def _deconstruct_fixture(rng):
    """A random deconstruct plan with identical original and copy inputs."""
    kind = rng.randrange(4)
    if kind == 0:
        f1, f2 = rng.uniform(0.02, 0.45), rng.uniform(0.02, 0.45)
        big = apply_rule(
            RuleId.OrIR,
            [leaf(f"|> X : a @ {f1}"), leaf(f"|> X : b @ {f2}")],
            SCHEMA,
        )
        inputs = {"big": big, "small": leaf(f"|> X : a @ {f1}")}
        plan = Plan((PlanStep("s", rng.choice((RuleId.OrERa, RuleId.OrERb)), ("big", "small")),))
        if plan.steps[0].rule == RuleId.OrERb:
            inputs["small"] = leaf(f"|> X : b @ {f2}")
    elif kind == 1:
        f1, f2 = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
        major = leaf(f"X:a |> Y : u @ {f2}")
        minor = leaf(f"|> X : a @ {f1}")
        pair = apply_rule(RuleId.ProdI1, [major, minor], SCHEMA)
        if rng.random() < 0.5:
            inputs = {"pair": pair, "w": major}
            plan = Plan((PlanStep("s", RuleId.ProdE1a, ("pair", "w")),))
        else:
            inputs = {"pair": pair, "w": minor}
            plan = Plan((PlanStep("s", RuleId.ProdE1b, ("pair", "w")),))
    elif kind == 2:
        neg = apply_rule(RuleId.NegIER, [leaf(f"|> X : a @ {rng.uniform(0, 1)}")], SCHEMA)
        inputs = {"n": neg}
        plan = Plan((PlanStep("s", RuleId.NegIER, ("n",), direction="backward"),))
    else:
        fwd = apply_rule(RuleId.ImpIE, [leaf(f"X:a |> Y : u @ {rng.uniform(0, 1)}")], SCHEMA)
        inputs = {"i": fwd}
        plan = Plan((PlanStep("s", RuleId.ImpIE, ("i",), direction="backward"),))
    return inputs, plan


def test_criterion_8_preservation():
    rng = random.Random(1008)

    # (a) identity is exactly preserved by construction and deconstruction
    for _ in range(250):
        inputs_f, _, plan = _construct_fixture(rng, deltas=0.0)
        report = verify_preservation(inputs_f, inputs_f, plan, jt(), "construct", SCHEMA)
        assert report.verdict and report.warning is None
    for _ in range(250):
        inputs, plan = _deconstruct_fixture(rng)
        report = verify_preservation(inputs, inputs, plan, jt(), "deconstruct", SCHEMA)
        assert report.verdict and report.warning is None

    # (b) inequality and zero pattern survive negation-free construction
    for _ in range(250):
        inputs_f, inputs_g, plan = _construct_fixture(rng, deltas=1.0)
        report = verify_preservation(inputs_f, inputs_g, plan, at(1), "construct", SCHEMA)
        assert report.verdict and report.warning is None, report.evidence
        report = verify_preservation(inputs_f, inputs_g, plan, wt(1), "construct", SCHEMA)
        assert report.verdict and report.warning is None, report.evidence

    # (c) the two counterexamples: negation flips dominance ...
    fo = leaf("|> X : a @ 0.3")
    fc = leaf("|> X : a @ 0.4")
    plan = Plan((PlanStep("s", RuleId.NegIER, ("a",)),))
    report = verify_preservation({"a": fo}, {"a": fc}, plan, at(1), "construct", SCHEMA)
    assert not report.verdict
    assert report.warning is not None
    ((_, f, g, _, ok),) = report.evidence
    assert f == pytest.approx(0.7) and g == pytest.approx(0.6) and not ok

    # ... and 0.6/0.6/0.3/0.2 breaks both elimination inequalities
    fi, gi, fj, gj = 0.6, 0.6, 0.3, 0.2
    assert fi >= gi and fj >= gj
    assert not fi / fj >= gi / gj
    assert not fi - fj >= gi - gj
    big_f = apply_rule(
        RuleId.OrIR, [leaf("|> X : a @ 0.2"), leaf("|> X : b @ 0.4")], SCHEMA
    )
    big_g = apply_rule(
        RuleId.OrIR, [leaf("|> X : a @ 0.3"), leaf("|> X : b @ 0.3")], SCHEMA
    )
    plan = Plan((PlanStep("s", RuleId.OrERa, ("big", "small")),))
    report = verify_preservation(
        {"big": big_f, "small": leaf("|> X : a @ 0.2")},
        {"big": big_g, "small": leaf("|> X : a @ 0.3")},
        plan,
        at(1),
        "deconstruct",
        SCHEMA,
        tol=1e-9,
    )
    assert not report.verdict
    assert report.warning is not None

    # (d) prefix equality survives construction and, on sub-values,
    # deconstruction
    for _ in range(250):
        inputs_f, _, plan = _construct_fixture(rng, deltas=0.0)
        report = verify_preservation(inputs_f, inputs_f, plan, et(1), "construct", SCHEMA)
        assert report.verdict and report.warning is None
    for _ in range(250):
        inputs, plan = _deconstruct_fixture(rng)
        report = verify_preservation(inputs, inputs, plan, et(1), "deconstruct", SCHEMA)
        assert report.verdict and report.warning is None
        majors = [d.conclusion.value for d in inputs.values()]
        from tndpq.construction import deconstruct as run

        result = run(inputs, plan, SCHEMA).conclusion.value
        assert any(result in subvalues(v) for v in majors)
