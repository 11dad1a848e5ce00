"""Trust relations, relation algebra, composition square and chains."""

import math
import random
import re
from fractions import Fraction

import pytest

from test_acceptance import criterion_5_samples
from tndpq.errors import IncomparableSystems, NothingToCompare, PreconditionFailed
from tndpq.syntax import Atom, AtomVal, AttributeSchema, ValueAttribution
from tndpq.systems import AppliedSystem, Estimator, TrainingSet
from tndpq.trust import (
    ChainReport,
    PropertyReport,
    TrustKind,
    TrustReport,
    TrustProfile,
    at,
    build_chain,
    check_general,
    check_local,
    check_nonatomic,
    compose_square,
    et,
    jt,
    system_profile,
    verify_algebra,
    wt,
)

POX = AttributeSchema.of(
    [("Pox", ("Absent", "Minor", "Moderate", "Major", "Extreme"))]
)


def system(probs, training="T", estimator="A", variable="Pox", atoms=None):
    atoms = atoms or POX.atoms(variable)
    return AppliedSystem(training, estimator, (), variable, tuple(zip(atoms, probs)))


ORIGINAL = system((0.2, 0.4, 0.3, 0.1, 0.0))


def test_jt_identical():
    copy = system((0.2, 0.4, 0.3, 0.1, 0.0), estimator="B")
    assert check_local(ORIGINAL, copy, jt()).verdict


def test_chickenpox_prefix_example():
    # relevant atoms Moderate, Major, Extreme expressed via an explicit list
    copy = system((0.2, 0.35, 0.3, 0.15, 0.0), estimator="B")
    relevant = ("Moderate", "Major", "Extreme")
    assert check_local(ORIGINAL, copy, at(3), relevant=relevant).verdict
    assert not check_local(ORIGINAL, copy, et(3), relevant=relevant).verdict


def test_wt_zero_pattern():
    copy = system((0.2, 0.4, 0.25, 0.1, 0.05), estimator="B")
    for m in range(1, 5):
        assert not check_local(ORIGINAL, copy, wt(m)).verdict
    assert check_local(ORIGINAL, copy, at(2)).verdict


def test_incomparable():
    other = AppliedSystem("T", "B", (), "Pox", (("Absent", 0.5), ("Minor", 0.5)))
    with pytest.raises(IncomparableSystems):
        check_local(ORIGINAL, other, jt())


def test_both_components_differ_warns():
    copy = system((0.2, 0.4, 0.3, 0.1, 0.0), training="U", estimator="B")
    report = check_local(ORIGINAL, copy, jt())
    assert report.verdict
    assert "both" in report.warning


def test_failed_condition_pinpointed():
    copy = system((0.2, 0.3, 0.3, 0.2, 0.0), estimator="B")
    report = check_local(ORIGINAL, copy, et(2))
    assert not report.verdict
    assert next(entry for entry in report.evidence if not entry[-1])[0] == "Minor"


# ---------------------------------------------------------------------------
# Relation algebra


def _random_distribution(rng, n, denominator=24):
    cuts = sorted(rng.randrange(denominator + 1) for _ in range(n - 1))
    parts = []
    last = 0
    for cut in cuts:
        parts.append(cut - last)
        last = cut
    parts.append(denominator - last)
    return tuple(p / denominator for p in parts)


def _related_copy(rng, probs):
    """Perturb a distribution in ways that often leave some relation intact."""
    mode = rng.random()
    probs = list(probs)
    if mode < 0.3:
        return tuple(probs)
    if mode < 0.7:
        # move mass from one atom to another in exact 1/24 steps
        i, j = rng.randrange(len(probs)), rng.randrange(len(probs))
        amount = min(probs[i], rng.randrange(3) / 24)
        probs[i] -= amount
        probs[j] += amount
        return tuple(probs)
    rng.shuffle(probs)
    return tuple(probs)


def test_algebra_on_random_samples():
    rng = random.Random(41)
    atoms = ("Absent", "Minor", "Moderate", "Major", "Extreme")
    samples = []
    for _ in range(60):
        base = _random_distribution(rng, 5)
        a = system(_related_copy(rng, base), estimator="A")
        b = system(_related_copy(rng, base), estimator="B")
        c = system(_related_copy(rng, base), estimator="C")
        samples.append((a, b, c))
    report = verify_algebra(samples, tol=0.0)
    assert report.ok, report.failures[:5]
    assert report.checked > 10000


def test_no_entailment_et_to_wt():
    copy = system((0.2, 0.4, 0.3, 0.0, 0.1), estimator="B")
    assert check_local(ORIGINAL, copy, et(2)).verdict
    assert not check_local(ORIGINAL, copy, wt(2)).verdict


# ---------------------------------------------------------------------------
# Composition square


def test_compose_square_holds():
    b0 = system((0.2, 0.4, 0.3, 0.1, 0.0))
    a0 = system((0.2, 0.4, 0.3, 0.1, 0.0), estimator="B")
    a1 = system((0.2, 0.4, 0.25, 0.15, 0.0), estimator="C")  # ET(2) of a0
    b1 = system((0.25, 0.45, 0.2, 0.1, 0.0), estimator="D")  # AT(2) of b0
    report = compose_square(a0, b0, a1, b1, m=2)
    assert report.verdict


def test_compose_square_gate():
    b0 = system((0.2, 0.4, 0.3, 0.1, 0.0))
    a0 = system((0.2, 0.4, 0.3, 0.1, 0.0), estimator="B")
    broken_a1 = system((0.1, 0.5, 0.3, 0.1, 0.0), estimator="C")
    b1 = system((0.25, 0.45, 0.2, 0.1, 0.0), estimator="D")
    with pytest.raises(PreconditionFailed, match="ET"):
        compose_square(a0, b0, broken_a1, b1, m=2)


def _square_systems():
    """The seeded (a0, b0, a1, b1) quadruples of the composition-square search."""
    rng = random.Random(42)
    out = []
    for _ in range(500):
        base = _random_distribution(rng, 5)
        b0 = system(base)
        a0 = system(base, estimator="B")
        a1 = system(_related_copy(rng, base), estimator="C")
        b1 = system(_related_copy(rng, base), estimator="D")
        out.append((a0, b0, a1, b1))
    return out


def test_compose_square_random_search():
    found = 0
    for a0, b0, a1, b1 in _square_systems():
        try:
            report = compose_square(a0, b0, a1, b1, m=2)
        except PreconditionFailed:
            continue
        found += 1
        assert report.verdict
    assert found > 20


# ---------------------------------------------------------------------------
# Diverging chains


def test_chain_at_variant_worked_numbers():
    a0 = system((0.2, 0.4, 0.3, 0.1, 0.0))
    b0 = system((0.2, 0.4, 0.3, 0.1, 0.0), estimator="B")
    chain_a, chain_b, report = build_chain(a0, b0, m=1, k=2, variant="AT", steps=3)
    assert chain_a[1][0] == Fraction(2, 5)
    assert chain_b[1][0] == pytest.approx(Fraction(1, 5) + Fraction(2, 15))
    assert report.ok
    for step in report.steps:
        assert not step["jt_cross"]


def test_chain_zero_steps():
    """A chain of no steps has no step to hold or fail: it is refused, not reported ok."""
    a0 = system((0.2, 0.4, 0.3, 0.1, 0.0))
    b0 = system((0.2, 0.4, 0.3, 0.1, 0.0), estimator="B")
    for steps in (0, -3):
        with pytest.raises(PreconditionFailed, match="at least one step"):
            build_chain(a0, b0, m=1, k=2, variant="AT", steps=steps)
    assert len(build_chain(a0, b0, m=1, k=2, variant="AT", steps=1)[2].steps) == 1


def test_chain_wt_variant_keeps_zero_pattern():
    a0 = system((0.2, 0.4, 0.3, 0.1, 0.0))
    b0 = system((0.2, 0.4, 0.3, 0.1, 0.0), estimator="B")
    chain_a, chain_b, report = build_chain(
        a0, b0, m=1, k=2, variant="WT", steps=5, l=1
    )
    assert report.ok
    for dist in chain_a + chain_b:
        assert [p == 0 for p in dist] == [False, False, False, False, True]


def test_chain_et_variant_prefix_untouched():
    a0 = system((0.2, 0.4, 0.3, 0.1, 0.0))
    b0 = system((0.2, 0.4, 0.3, 0.1, 0.0), estimator="B")
    chain_a, chain_b, report = build_chain(
        a0, b0, m=2, k=4, variant="ET", steps=5, l=3
    )
    assert report.ok
    for dist in chain_a + chain_b:
        assert dist[0] == Fraction(1, 5) and dist[1] == Fraction(2, 5)
    assert chain_a[-1] != chain_b[-1]


def test_chain_preconditions():
    a0 = system((0.2, 0.4, 0.3, 0.1, 0.0))
    with pytest.raises(PreconditionFailed):
        build_chain(a0, system((0.3, 0.3, 0.3, 0.1, 0.0), estimator="B"), 1, 2)
    with pytest.raises(PreconditionFailed):
        build_chain(a0, system((0.2, 0.4, 0.3, 0.1, 0.0), estimator="B"), 1, 5)



# Prefix lengths, atom indices and step counts are integers: anything else,
# a bool included, is refused before any other work.
@pytest.mark.parametrize("m", [1.5, True])
def test_holds_refuses_a_prefix_length_that_is_not_an_integer(m):
    with pytest.raises(PreconditionFailed, match="m must be an integer"):
        TrustProfile((0.5, 0.3, 0.2), (0.5, 0.3, 0.2)).holds("ET", m)


@pytest.mark.parametrize(
    "arguments, name",
    [
        ({"m": 1.5, "k": 3}, "m"),
        ({"m": 1, "k": 2.5}, "k"),
        ({"m": 1, "k": 2, "steps": 2.5}, "steps"),
        ({"m": 1, "k": 2, "variant": "WT", "l": 1.5}, "l"),
    ],
)
def test_chain_refuses_an_argument_that_is_not_an_integer(arguments, name):
    a0 = system((0.2, 0.4, 0.3, 0.1, 0.0))
    with pytest.raises(PreconditionFailed, match=f"{name} must be an integer"):
        build_chain(a0, a0, **arguments)


def test_compose_square_refuses_a_prefix_length_that_is_not_an_integer():
    a0 = system((0.2, 0.4, 0.3, 0.1, 0.0))
    with pytest.raises(PreconditionFailed, match="m must be an integer"):
        compose_square(a0, a0, a0, a0, 1.5)


# ---------------------------------------------------------------------------
# No vacuous verdicts


def _source():
    rows = tuple({"Pox": atom} for atom in ("Absent", "Minor", "Minor", "Major"))
    return TrainingSet.from_rows("T", POX, rows), Estimator("A", "freq")


def test_empty_relevant_list_is_refused():
    copy = system((0.2, 0.4, 0.3, 0.1, 0.0), estimator="B")
    with pytest.raises(NothingToCompare):
        check_local(ORIGINAL, copy, et(1), relevant=())


def test_algebra_over_no_triples_is_refused():
    with pytest.raises(NothingToCompare):
        verify_algebra([])
    assert verify_algebra([(ORIGINAL, ORIGINAL, ORIGINAL)]).checked > 0


@pytest.mark.parametrize("m", [1.5, 2.0, "2"])
def test_a_prefix_length_that_is_not_an_integer_is_refused(m):
    with pytest.raises(ValueError):
        TrustKind("ET", m)
    copy = system((0.2, 0.4, 0.3, 0.1, 0.0), estimator="B")
    assert check_local(ORIGINAL, copy, TrustKind("ET", 2)).verdict


@pytest.mark.parametrize("contexts, targets", [([], ["Pox"]), ([()], []), ([], [])])
def test_general_check_without_cells_is_refused(contexts, targets):
    source = _source()
    with pytest.raises(NothingToCompare):
        check_general(source, source, contexts, targets, None, et(1))
    assert check_general(source, source, [()], ["Pox"], None, et(1)).verdict


@pytest.mark.parametrize("tol", [-1, -1e-12, math.nan, math.inf])
def test_tolerance_outside_range_is_refused(tol):
    source = _source()
    copy = system((0.2, 0.4, 0.3, 0.1, 0.0), estimator="B")
    calls = [
        lambda: check_local(ORIGINAL, ORIGINAL, jt(), tol),
        lambda: check_local(ORIGINAL, copy, wt(2), tol, ("Minor",)),
        lambda: check_general(source, source, [()], ["Pox"], None, et(1), tol),
        lambda: check_nonatomic(source, source, Atom("Pox"), (), [AtomVal("Minor")], jt(), POX, tol),
        lambda: verify_algebra([(ORIGINAL, copy, ORIGINAL)], tol),
        lambda: compose_square(ORIGINAL, ORIGINAL, ORIGINAL, ORIGINAL, 1, tol),
        lambda: TrustProfile((0.5, 0.5), (0.5, 0.5), tol),
    ]
    for call in calls:
        with pytest.raises(PreconditionFailed):
            call()


@pytest.mark.parametrize("name", ["JT", "ET", "AT", "WT"])
@pytest.mark.parametrize("m", [0, -1, 6])
def test_profile_refuses_prefix_outside_list(name, m):
    p = system_profile(ORIGINAL, ORIGINAL)
    assert p.holds(name) and p.holds(name, 5)
    with pytest.raises(IncomparableSystems):
        p.holds(name, m)


def test_algebra_reads_copy_against_original():
    # under tol, AT(1) is not transitive: a AT(1) b and b AT(1) c, yet not
    # a AT(1) c.  The converse relation is transitive on the same triple, so
    # the failure pins the direction in which the algebra reads a relation.
    a = system((0.50, 0.20, 0.10, 0.10, 0.10))
    b = system((0.51, 0.19, 0.10, 0.10, 0.10), estimator="B")
    c = system((0.52, 0.18, 0.10, 0.10, 0.10), estimator="C")

    def at_1_failures(triple):
        failures = verify_algebra([triple], tol=0.015).failures
        return [inst for name, inst in failures if name == "AT transitivity" and inst[3:] == (1, 1)]

    assert at_1_failures((a, b, c)) == [(a, b, c, 1, 1)]
    assert at_1_failures((c, b, a)) == []


def test_nonatomic_check_without_probe_values_is_refused():
    source = _source()
    with pytest.raises(NothingToCompare):
        check_nonatomic(source, source, Atom("Pox"), (), [], jt(), POX)
    assert check_nonatomic(source, source, Atom("Pox"), (), [AtomVal("Minor")], jt(), POX).verdict


# ---------------------------------------------------------------------------
# Profiles against the relations read entry by entry


def _naive_holds(f, g, name, m, tol):
    """JT, ET(m), AT(m) or WT(m) of copy g against original f, atom by atom."""
    if name == "JT":
        return all(abs(g[i] - f[i]) <= tol for i in range(len(f)))
    if name == "ET":
        return all(abs(g[i] - f[i]) <= tol for i in range(m))
    dominates = all(g[i] >= f[i] - tol for i in range(m))
    if name == "AT":
        return dominates
    return dominates and all((abs(f[i]) <= tol) == (abs(g[i]) <= tol) for i in range(len(f)))


def _naive_evidence(atoms, f, g, name, m, tol, relevant=None):
    """check_local's evidence, rendered entry by entry."""
    if name == "JT":
        inspected = range(len(atoms))
    elif relevant is not None:
        inspected = [atoms.index(atom) for atom in relevant]
    else:
        inspected = range(m)
    out = []
    for i in inspected:
        if name in ("JT", "ET"):
            out.append((atoms[i], f[i], g[i], "g = f", abs(f[i] - g[i]) <= tol))
        else:
            out.append((atoms[i], f[i], g[i], "g >= f", g[i] >= f[i] - tol))
    if name == "WT":
        for i in range(len(atoms)):
            out.append((atoms[i], f[i], g[i], "g = 0 iff f = 0", (abs(f[i]) <= tol) == (abs(g[i]) <= tol)))
    return out


def _jittered(rng, probs):
    """probs with a little mass moved between two atoms, often within 0.0137."""
    i, j = rng.sample(range(len(probs)), 2)
    amount = min(probs[i], rng.choice((0.004, 0.0137, 0.02)))
    out = list(probs)
    out[i] -= amount
    out[j] += amount
    return tuple(out)


def _ordered_pairs():
    """Distinct (original, copy) systems of the criterion-5 triples and the
    square search, each group with a jittered copy of its first system, so
    that the tolerance decides some verdicts."""
    rng = random.Random(5)
    groups = [
        (*group, system(_jittered(rng, group[0].probabilities), estimator="J"))
        for group in list(criterion_5_samples()) + _square_systems()
    ]
    pairs = {}
    for group in groups:
        for original in group:
            for copy in group:
                pairs.setdefault((original.probabilities, copy.probabilities), (original, copy))
    return list(pairs.values())


KINDS = [("JT", None)] + [(name, m) for name in ("ET", "AT", "WT") for m in range(1, 6)]


@pytest.mark.parametrize("tol", [0.0, 0.0137])
def test_profile_matches_naive_relations(tol):
    pairs = _ordered_pairs()
    assert len(pairs) > 1000
    seen = set()
    for original, copy in pairs:
        f, g = original.probabilities, copy.probabilities
        p = system_profile(original, copy, tol)
        q = TrustProfile(f, g, tol)
        assert (p.n, p.equal, p.dominated, p.zeros) == (q.n, q.equal, q.dominated, q.zeros)
        for name, m in KINDS:
            verdict = p.holds(name, m)
            assert verdict == _naive_holds(f, g, name, m, tol), (f, g, name, m)
            seen.add((name, m, verdict))
    # both verdicts occur for every kind, so no relation holds vacuously
    assert len(seen) == 2 * len(KINDS)


@pytest.mark.parametrize("tol", [0.0, 0.0137])
def test_check_local_evidence_matches_naive_rendering(tol):
    rng = random.Random(7)
    atoms = POX.atoms("Pox")
    for original, copy in _ordered_pairs()[::10]:
        f, g = original.probabilities, copy.probabilities
        for name, m in KINDS:
            kind = TrustKind(name, m)
            report = check_local(original, copy, kind, tol)
            assert report.evidence == _naive_evidence(atoms, f, g, name, m, tol)
            assert report.verdict == system_profile(original, copy, tol).holds(name, m)
        relevant = tuple(rng.sample(atoms, rng.randrange(1, 6)))
        for name in ("ET", "AT", "WT"):
            report = check_local(original, copy, TrustKind(name, 1), tol, relevant)
            naive = _naive_evidence(atoms, f, g, name, 1, tol, relevant)
            assert report.evidence == naive
            assert report.verdict == all(entry[-1] for entry in naive)


def _old_prefix_relation(child, parent, name, m):
    """The chain's step relation on exact fractions, as build_chain once stated it."""
    if name == "JT":
        return child == parent
    if name == "ET":
        return all(child[i] == parent[i] for i in range(m))
    ok = all(child[i] >= parent[i] for i in range(m))
    if name == "WT":
        ok = ok and all((child[i] == 0) == (parent[i] == 0) for i in range(len(child)))
    return ok


@pytest.mark.parametrize(
    "probs, variant, kwargs",
    [
        ((0.2, 0.4, 0.3, 0.1, 0.0), "AT", dict(m=1, k=2)),
        ((0.2, 0.4, 0.3, 0.1, 0.0), "AT", dict(m=3, k=4)),
        ((0.2, 0.4, 0.3, 0.1, 0.0), "WT", dict(m=1, k=2, l=1)),
        ((0.0, 0.5, 0.25, 0.25, 0.0), "WT", dict(m=2, k=3, l=2)),
        ((0.2, 0.4, 0.3, 0.1, 0.0), "ET", dict(m=1, k=2, l=3)),
        ((0.0, 0.5, 0.25, 0.25, 0.0), "ET", dict(m=2, k=4, l=5)),
    ],
)
def test_chain_relations_match_old_prefix_relation(probs, variant, kwargs):
    m = kwargs["m"]
    chain_a, chain_b, report = build_chain(
        system(probs), system(probs, estimator="B"), variant=variant, steps=6, **kwargs
    )
    for i, step in enumerate(report.steps, start=1):
        assert step["parent_relation"] == (
            _old_prefix_relation(chain_a[i], chain_a[i - 1], variant, m)
            and _old_prefix_relation(chain_b[i], chain_b[i - 1], variant, m)
        )
        assert step["jt_cross"] == _old_prefix_relation(chain_a[i], chain_b[i], "JT", None)
        assert step["et_cross"] == _old_prefix_relation(chain_a[i], chain_b[i], "ET", m)
    dists = chain_a + chain_b
    for parent in dists:
        for child in dists:
            for name, l in KINDS:
                assert TrustProfile(parent, child).holds(name, l) == _old_prefix_relation(
                    child, parent, name, l
                ), (parent, child, name, l)


def _fraction_chains(probs, k, target, steps):
    """Both chains stepped on Fractions, as build_chain once computed them."""
    chains = []
    for share in (2, 3):
        dist = [Fraction(str(p)) for p in probs]
        chain = [tuple(dist)]
        for _ in range(steps):
            moved = dist[k - 1] / share
            dist[target - 1] += moved
            dist[k - 1] -= moved
            chain.append(tuple(dist))
        chains.append(chain)
    return chains


@pytest.mark.parametrize(
    "probs, variant, kwargs, target",
    [
        ((0.2, 0.4, 0.3, 0.1, 0.0), "AT", dict(m=1, k=2), 1),
        ((0.2, 0.4, 0.3, 0.1, 0.0), "WT", dict(m=1, k=2, l=3), 3),
        ((0.2, 0.4, 0.3, 0.1, 0.0), "ET", dict(m=2, k=4, l=3), 3),
        # start denominators that differ from one another
        ((1 / 3, 1 / 6, 1 / 2), "AT", dict(m=1, k=3), 1),
        ((1 / 3, 1 / 6, 1 / 2), "WT", dict(m=1, k=2, l=1), 1),
        ((1 / 3, 1 / 6, 1 / 2), "ET", dict(m=1, k=3, l=2), 2),
    ],
)
def test_chain_entries_match_fraction_steps(probs, variant, kwargs, target):
    atoms = POX.atoms("Pox")[: len(probs)]
    a0, b0 = system(probs, atoms=atoms), system(probs, estimator="B", atoms=atoms)
    chain_a, chain_b, report = build_chain(a0, b0, variant=variant, steps=40, **kwargs)
    want_a, want_b = _fraction_chains(probs, kwargs["k"], target, 40)
    assert len(chain_a) == len(chain_b) == 41 and len(report.steps) == 40
    steps_a = [step["f"] for step in report.steps]
    steps_b = [step["g"] for step in report.steps]
    for got, want in ((chain_a, want_a), (chain_b, want_b), (steps_a, want_a[1:]), (steps_b, want_b[1:])):
        assert got == want
        assert all(type(x) is Fraction for dist in got for x in dist)
    m = kwargs["m"]
    for i, step in enumerate(report.steps, start=1):
        assert step["parent_relation"] == (
            _old_prefix_relation(want_a[i], want_a[i - 1], variant, m)
            and _old_prefix_relation(want_b[i], want_b[i - 1], variant, m)
        )
        assert step["jt_cross"] == _old_prefix_relation(want_a[i], want_b[i], "JT", None)
        assert step["et_cross"] == _old_prefix_relation(want_a[i], want_b[i], "ET", m)


def test_each_report_gets_its_own_list():
    for make, field in [(lambda: TrustReport(jt()), "evidence"), (PropertyReport, "failures"),
                        (lambda: ChainReport("ET"), "steps")]:
        first, second = make(), make()
        getattr(first, field).append(("entry",))
        assert getattr(second, field) == [] and first != second
        with pytest.raises(TypeError, match="unhashable"):
            hash(first)


# ---------------------------------------------------------------------------
# Refusals, each with its class and text

_GEN_F = AppliedSystem("T", "B", (ValueAttribution("Gen", AtomVal("f")),), "Pox", ORIGINAL.distribution)
_NO_ZERO = system((0.2, 0.4, 0.3, 0.05, 0.05))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: TrustKind("XT"), ValueError, "unknown trust kind 'XT'"),
        (lambda: TrustKind("JT", 2), ValueError, "JT takes no prefix length; ET/WT/AT require one"),
        (lambda: TrustKind("AT"), ValueError, "JT takes no prefix length; ET/WT/AT require one"),
        (lambda: TrustProfile((0.5, 0.5), (1.0,)), IncomparableSystems, "2 original values against 1 copy values"),
        (lambda: TrustProfile((), ()), NothingToCompare, "no values to compare"),
        (lambda: check_local(ORIGINAL, _GEN_F, jt()), IncomparableSystems, "systems are applied to different contexts"),
        (lambda: compose_square(ORIGINAL, _NO_ZERO, ORIGINAL, ORIGINAL, 1), PreconditionFailed,
         "hypothesis a0 JT b0 does not hold"),
        (lambda: build_chain(ORIGINAL, ORIGINAL, 1, 2, variant="XT"), PreconditionFailed, "unknown chain variant 'XT'"),
        (lambda: build_chain(ORIGINAL, ORIGINAL, 1, 2, variant="ET"), PreconditionFailed,
         "variant ET needs the target index l"),
        (lambda: build_chain(ORIGINAL, ORIGINAL, 1, 2, variant="WT"), PreconditionFailed,
         "variant WT needs the target index l"),
        (lambda: build_chain(ORIGINAL, ORIGINAL, 2, 4, variant="ET", l=2), PreconditionFailed,
         "ET variant needs l > m distinct from k"),
        (lambda: build_chain(ORIGINAL, ORIGINAL, 2, 4, variant="ET", l=6), PreconditionFailed,
         "ET variant needs l > m distinct from k"),
        (lambda: build_chain(ORIGINAL, ORIGINAL, 2, 4, variant="ET", l=4), PreconditionFailed,
         "ET variant needs l > m distinct from k"),
        (lambda: build_chain(ORIGINAL, ORIGINAL, 2, 4, variant="WT", l=0), PreconditionFailed,
         "WT variant needs a target index l distinct from k"),
        (lambda: build_chain(_NO_ZERO, _NO_ZERO, 2, 4, variant="WT", l=6), PreconditionFailed,
         "WT variant needs a target index l distinct from k"),
        (lambda: build_chain(ORIGINAL, ORIGINAL, 2, 4, variant="WT", l=4), PreconditionFailed,
         "WT variant needs a target index l distinct from k"),
        (lambda: build_chain(ORIGINAL, ORIGINAL, 2, 4, variant="WT", l=5), PreconditionFailed,
         "atom 5 must have nonzero probability"),
    ],
)
def test_refusals_name_their_fault(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "variant, m, k, l", [("ET", 2, 4, 3), ("ET", 2, 4, 5), ("WT", 2, 4, 1), ("WT", 2, 4, 5)]
)
def test_a_chain_takes_each_end_of_its_target_range(variant, m, k, l):
    # the first and last index that each variant's l may take
    _, _, report = build_chain(_NO_ZERO, _NO_ZERO, m, k, variant=variant, steps=2, l=l)
    assert [(s["parent_relation"], s["jt_cross"]) for s in report.steps] == [(True, False)] * 2


def test_general_check_reads_relevant_atoms_for_kinds_other_than_jt():
    rows = tuple({"Pox": atom} for atom in ("Absent", "Minor", "Minor", "Major"))
    source = (TrainingSet.from_rows("T", POX, rows), Estimator("A", "freq"))
    laplace = (TrainingSet.from_rows("U", POX, rows), Estimator("B", "laplace"))
    relevance = {"Pox": ("Moderate", "Extreme")}
    report = check_general(source, laplace, [()], ["Pox"], relevance, et(2))
    assert [entry[0][2] for entry in report.evidence] == ["Moderate", "Extreme"]
    # the training set and the estimator both differ, as check_local warns
    assert report.warning == "both the training set and the estimator differ; outside the one-component copy discipline"
    # JT reads every atom, whatever the relevance map says
    assert len(check_general(source, laplace, [()], ["Pox"], relevance, jt()).evidence) == 5
