"""Trustworthiness relations between an original system and its copies.

A copy is compared against its original over the same context and target.
Four relations, defined once in `_RELATIONS`, are supported: JT (identical
distributions), ET(m) (equal on the first m atoms), AT(m) (copy at least as
confident on the first m atoms) and WT(m) (AT plus an identical zero pattern
across all atoms).  "First m" follows the schema's declared atom order.  A
`TrustProfile` of one ordered pair reads any of them by integer comparison.

The module also provides the relation algebra checker, the JT/ET/AT
composition square, and the diverging-chain constructors that certify the
negative results (chains that stay AT/WT/ET step by step while the two
chains never re-enter JT).
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import repeat

from .errors import (
    DerivationFailed,
    IncomparableSystems,
    NothingToCompare,
    PreconditionFailed,
)
from .syntax import AttributeSchema, VariableTerm, fresh, print_value, record, same_sigma
from .systems import AppliedSystem, Learner, conditional_distribution


@record(frozen=True)
class TrustKind:
    name: str  # JT, ET, WT, AT
    m: int | None = None

    def __post_init__(self):
        if self.name not in ("JT", "ET", "WT", "AT"):
            raise ValueError(f"unknown trust kind {self.name!r}")
        if (self.name == "JT") != (self.m is None):
            raise ValueError("JT takes no prefix length; ET/WT/AT require one")
        if self.m is not None and type(self.m) is not int:
            raise ValueError(f"the prefix length must be an integer, got {self.m!r}")

    def __str__(self):
        return self.name if self.m is None else f"{self.name}({self.m})"


def jt() -> TrustKind:
    return TrustKind("JT")


def et(m: int) -> TrustKind:
    return TrustKind("ET", m)


def wt(m: int) -> TrustKind:
    return TrustKind("WT", m)


def at(m: int) -> TrustKind:
    return TrustKind("AT", m)


# Per-entry conditions on an original value f and a copy value g, tol >= 0.
# Each tries the exact comparison first and does arithmetic only under a
# positive tolerance: the chains compare long-denominator Fractions at tol 0.
def _equal(f, g, tol) -> bool:
    return f == g or (tol > 0 and abs(f - g) <= tol)


def _dominates(f, g, tol) -> bool:
    return g >= f or (tol > 0 and g >= f - tol)


def _same_zero(f, g, tol) -> bool:
    return (f == 0 or (tol > 0 and abs(f) <= tol)) == (g == 0 or (tol > 0 and abs(g) <= tol))


# Each relation: the condition (evidence label, test) on every inspected entry and
# whether the zero patterns must agree too.  JT inspects the whole atom list; ET,
# AT and WT the first m entries or an explicit list.
_RELATIONS = {
    "JT": ("g = f", _equal, False),
    "ET": ("g = f", _equal, False),
    "AT": ("g >= f", _dominates, False),
    "WT": ("g >= f", _dominates, True),
}


def _prefix(test, f, g, tol, start=0) -> int:
    """End of the run of entries from `start` on which test(f_i, g_i, tol) holds."""
    end = start
    while end < len(f) and test(f[end], g[end], tol):
        end += 1
    return end


def _check_tol(tol) -> None:
    if not (math.isfinite(tol) and tol >= 0):
        raise PreconditionFailed(f"tolerance must be a finite number >= 0, got {tol!r}")


def _check_prefix(m: int, n: int) -> None:
    if not 1 <= m <= n:
        raise IncomparableSystems(f"prefix length {m} outside 1..{n}")


class TrustProfile:
    """How far copy values g follow original values f, equally long sequences
    of floats or Fractions.

    `n` is the list's length, `equal` the longest prefix with |f - g| <= tol,
    `dominated` the longest prefix with g >= f - tol, and `zeros` whether f
    and g are zero (within tol) at the same places; only WT reads `zeros`,
    so it is computed on first use.
    """

    def __init__(self, f, g, tol=0):
        _check_tol(tol)
        if len(f) != len(g):
            raise IncomparableSystems(f"{len(f)} original values against {len(g)} copy values")
        if not f:
            raise NothingToCompare("no values to compare")
        self.f, self.g, self.tol, self.n = f, g, tol, len(f)
        self.equal = _prefix(_equal, f, g, tol)
        self.dominated = _prefix(_dominates, f, g, tol, self.equal)  # an equal entry is also dominated

    @cached_property
    def zeros(self) -> bool:
        return all(map(_same_zero, self.f, self.g, repeat(self.tol)))

    def holds(self, name: str, m: int | None = None) -> bool:
        """Whether JT, ET(m), AT(m) or WT(m) holds; m defaults to the whole list."""
        if m is not None:
            _check_prefix(m, self.n)
        _, test, zeros = _RELATIONS[name]
        prefix = self.equal if test is _equal else self.dominated
        need = self.n if m is None or name == "JT" else m
        return prefix >= need and (not zeros or self.zeros)


@record
class TrustReport:
    kind: TrustKind
    evidence: list[tuple] = fresh(list)
    warning: str | None = None

    @property
    def verdict(self) -> bool:
        return all(entry[-1] for entry in self.evidence)

    def add(self, label, f, g, condition: str, satisfied: bool) -> None:
        self.evidence.append((label, f, g, condition, satisfied))

    def record(self, inspected, zero_pattern, tol) -> None:
        """Add this report's kind's conditions on (label, f, g) entries."""
        _check_tol(tol)
        condition, test, zeros = _RELATIONS[self.kind.name]
        for label, f, g in inspected:
            self.add(label, f, g, condition, test(f, g, tol))
        if zeros:
            for label, f, g in zero_pattern:
                self.add(label, f, g, "g = 0 iff f = 0", _same_zero(f, g, tol))


def _check_comparable(original: AppliedSystem, copy: AppliedSystem) -> None:
    if original.variable != copy.variable or original.atoms != copy.atoms:
        raise IncomparableSystems("systems target different variables or atom lists")
    if not same_sigma(original.sigma, copy.sigma):
        raise IncomparableSystems("systems are applied to different contexts")


def system_profile(original: AppliedSystem, copy: AppliedSystem, tol: float = 0.0) -> TrustProfile:
    """The trust profile of a copy against its original over all atoms."""
    _check_comparable(original, copy)
    return TrustProfile(original.probabilities, copy.probabilities, tol)


def check_local(
    original: AppliedSystem,
    copy: AppliedSystem,
    kind: TrustKind,
    tol: float = 0.0,
    relevant: tuple[str, ...] | None = None,
) -> TrustReport:
    """Compare one copy distribution against its original.

    `relevant` overrides the first-m-atoms convention with an explicit
    atom list for ET/WT/AT.
    """
    _check_comparable(original, copy)
    report = TrustReport(kind)
    differs = (original.training != copy.training, original.estimator != copy.estimator)
    if all(differs):
        report.warning = (
            "both the training set and the estimator differ; "
            "outside the one-component copy discipline"
        )
    atoms = original.atoms
    if kind.name == "JT":
        inspected = atoms
    elif relevant is not None:
        inspected = tuple(relevant)
        if not inspected:
            raise NothingToCompare("the relevant atom list is empty")
    else:
        _check_prefix(kind.m, len(atoms))
        inspected = atoms[: kind.m]
    entries = [(atom, original.probability(atom), copy.probability(atom)) for atom in inspected]
    report.record(entries, zip(atoms, original.probabilities, copy.probabilities), tol)
    return report


def check_general(
    orig_pair,
    copy_pair,
    contexts,
    targets,
    relevance: dict | None,
    kind: TrustKind,
    tol: float = 0.0,
) -> TrustReport:
    """Conjunction of local checks over every (context, target) cell.

    `relevance` optionally maps a target variable to its relevant atoms;
    unmapped targets fall back to the first-m convention.
    """
    o_ts, o_est = orig_pair
    c_ts, c_est = copy_pair
    contexts, targets = list(contexts), list(targets)
    if not contexts or not targets:
        raise NothingToCompare("a general trust check needs at least one context and one target")
    report = TrustReport(kind)
    for sigma in contexts:
        for target in targets:
            original = conditional_distribution(o_ts, o_est, sigma, target)
            copy = conditional_distribution(c_ts, c_est, sigma, target)
            relevant = None
            if relevance is not None and target in relevance and kind.name != "JT":
                relevant = tuple(relevance[target])
            local = check_local(original, copy, kind, tol, relevant)
            if local.warning and not report.warning:
                report.warning = local.warning
            for label, f, g, condition, ok in local.evidence:
                report.add((tuple(sigma), target, label), f, g, condition, ok)
    return report


def check_nonatomic(
    original_source,
    copy_source,
    term: VariableTerm,
    sigma,
    values,
    kind: TrustKind,
    schema: AttributeSchema,
    tol: float = 0.0,
) -> TrustReport:
    """Trust over a compound variable, probed on an explicit value set.

    Probabilities for each value are derived through right introduction
    rules on both systems.  The probe values are the inspected list, so
    ET/AT/WT hold when every probe value meets the condition.  For WT the
    zero-pattern clause is checked over all single-connective combinations
    of atoms fitting the term (the negation-free fragment suffices for zero
    preservation).
    """
    from .construction import derive_value, zero_probe_values

    values = list(values)
    if not values:
        raise NothingToCompare("no probe values to compare")
    sigma = tuple(sigma)
    sources = [s if isinstance(s, AppliedSystem) else Learner(s) for s in (original_source, copy_source)]

    def entry(value):
        f, g = (derive_value(s, sigma, term, value, schema).conclusion.probability for s in sources)
        return print_value(value), f, g

    inspected = [entry(value) for value in values]
    zero_pattern = []
    if kind.name == "WT":
        for value in zero_probe_values(term, schema):
            try:
                zero_pattern.append(entry(value))
            except DerivationFailed:
                continue
    report = TrustReport(kind)
    report.record(inspected, zero_pattern, tol)
    return report


# ---------------------------------------------------------------------------
# Relation algebra (fundamental properties and coordination principles)


@record
class PropertyReport:
    checked: int = 0
    failures: list[tuple] = fresh(list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _verdict_table(p: TrustProfile) -> dict:
    """Every verdict of one profile: JT as a bool, the others indexed by m (0 unused)."""
    ms = range(1, p.n + 1)
    table = {name: [None] + [p.holds(name, m) for m in ms] for name in ("ET", "WT", "AT")}
    table["JT"] = p.holds("JT")
    return table


def verify_algebra(samples, tol: float = 0.0) -> PropertyReport:
    """Check every fundamental property and coordination principle.

    `samples` is an iterable of (a, b, c) triples of comparable applied
    systems; `x REL y` below reads "x is a trustworthy copy of y".  All
    laws are material implications, so every sampled triple either
    vacuously or actively confirms each row; any falsification is recorded.
    Each triple's laws read five profiles: aa, ab, ba, bc and ac, where xy
    is the profile of copy x against original y.
    """
    report = PropertyReport()

    def law(name, instance, holds):
        report.checked += 1
        if not holds:
            report.failures.append((name, instance))

    for a, b, c in samples:
        n = len(a.atoms)
        aa, ab, ba, bc, ac = (
            _verdict_table(system_profile(y, x, tol))
            for x, y in ((a, a), (a, b), (b, a), (b, c), (a, c))
        )
        law("JT reflexivity", (a,), aa["JT"])
        law("JT symmetry", (a, b), not ab["JT"] or ba["JT"])
        law("JT transitivity", (a, b, c), not (ab["JT"] and bc["JT"]) or ac["JT"])
        ab_et, ab_wt, ab_at = ab["ET"], ab["WT"], ab["AT"]
        for m in range(1, n + 1):
            for name in ("ET", "WT", "AT"):
                x_aa, x_ab, x_bc, x_ac = aa[name], ab[name], bc[name], ac[name]
                law(f"{name} reflexivity", (a, m), x_aa[m])
                for l in range(1, n + 1):
                    holds = not (x_ab[m] and x_bc[l]) or x_ac[min(m, l)]
                    law(f"{name} transitivity", (a, b, c, m, l), holds)
                law(f"{name} transitivity'", (a, b, c, m), not (x_ab[m] and x_bc[m]) or x_ac[m])
                for l in range(1, m + 1):
                    law(f"{name} weakening", (a, b, m, l), not x_ab[m] or x_ab[l])
            for l in range(1, m + 1):
                law("ET symmetry", (a, b, m, l), not ab_et[m] or ba["ET"][l])
            law("AT Bottom", (a, b, m), not (ab_et[m] or ab_wt[m] or ab["JT"]) or ab_at[m])
            law("JT Top", (a, b, m), not ab["JT"] or (ab_at[m] and ab_et[m] and ab_wt[m]))
            law("JT Top'", (a, b, m), not ab["JT"] or (ab_et[m] and ab_wt[m]))
            for l in range(1, n + 1):
                antisymmetric = ab_et[min(m, l)]
                law("Semi-Antisymmetry AT", (a, b, m, l), not (ab_at[m] and ba["AT"][l]) or antisymmetric)
                law("Semi-Antisymmetry WT", (a, b, m, l), not (ab_wt[m] and ba["WT"][l]) or antisymmetric)
        law("m=n to Top", (a, b), not (ab_et[n] or ab_wt[n] or ab_at[n]) or ab["JT"])
        law("AT + m=n = Top", (a, b), not ab_at[n] or ab["JT"])
    if not report.checked:
        raise NothingToCompare("no triples to check the laws on")
    return report


def compose_square(
    a0: AppliedSystem,
    b0: AppliedSystem,
    a1: AppliedSystem,
    b1: AppliedSystem,
    m: int,
    tol: float = 0.0,
) -> TrustReport:
    """The JT/ET/AT composition square.

    Hypotheses: a0 is a JT copy of b0, a1 an ET(m) copy of a0 and b1 an
    AT(m) copy of b0.  The guaranteed conclusion, b1 AT(m) a1, is checked
    and reported.
    """
    if not system_profile(b0, a0, tol).holds("JT"):
        raise PreconditionFailed("hypothesis a0 JT b0 does not hold")
    if not system_profile(a0, a1, tol).holds("ET", m):
        raise PreconditionFailed(f"hypothesis a1 ET({m}) a0 does not hold")
    if not system_profile(b0, b1, tol).holds("AT", m):
        raise PreconditionFailed(f"hypothesis b1 AT({m}) b0 does not hold")
    return check_local(a1, b1, at(m), tol)


# ---------------------------------------------------------------------------
# Diverging chains


@record
class ChainReport:
    variant: str
    steps: list[dict] = fresh(list)

    @property
    def ok(self) -> bool:
        # every step stays in relation to its parent, the chains never agree
        # again, and for the AT/WT variants they are not even ET(m) anymore
        return all(
            s["parent_relation"]
            and not s["jt_cross"]
            and (self.variant == "ET" or not s["et_cross"])
            for s in self.steps
        )


def build_chain(
    a0: AppliedSystem,
    b0: AppliedSystem,
    m: int,
    k: int,
    variant: str = "AT",
    steps: int = 10,
    l: int | None = None,
):
    """Build two diverging chains from a JT pair by exact mass transfers.

    Per step, chain a moves half of atom k's mass and chain b one third of
    it; the mass goes to atom 1 (AT variant), to atom l (WT variant, which
    keeps every zero pattern intact) or to atom l > m (ET variant, which
    leaves the relevant prefix untouched).  Every step stays in the chosen
    relation to its predecessor while the two chains never agree again.
    """
    from fractions import Fraction

    variant = variant.upper()
    if variant not in ("AT", "WT", "ET"):
        raise PreconditionFailed(f"unknown chain variant {variant!r}")
    f, g = ([Fraction(str(p)) for p in system.probabilities] for system in (a0, b0))
    n = len(f)
    if not TrustProfile(f, g).holds("JT"):
        raise PreconditionFailed("chains start from a JT pair: a0 must equal b0")
    if not 1 <= m < n:
        raise PreconditionFailed("m must satisfy 1 <= m < n")
    if steps < 1:
        raise PreconditionFailed(f"a chain takes at least one step, got {steps!r}")
    if not m + 1 <= k <= n:
        raise PreconditionFailed(f"k must lie in {m + 1}..{n}")
    if f[k - 1] == 0:
        raise PreconditionFailed(f"atom {k} must have nonzero probability")
    if variant == "AT":
        target = 1
    else:
        if l is None:
            raise PreconditionFailed(f"variant {variant} needs the target index l")
        if variant == "ET" and not (m + 1 <= l <= n and l != k):
            raise PreconditionFailed("ET variant needs l > m distinct from k")
        if variant == "WT" and not (1 <= l <= n and l != k):
            raise PreconditionFailed("WT variant needs a target index l distinct from k")
        if variant == "WT" and f[l - 1] == 0:
            raise PreconditionFailed(f"atom {l} must have nonzero probability")
        target = l
    # Chain a's step s is held as integer numerators over D * 2**s and chain
    # b's over D * 3**s, D the common denominator of the start: moving f[k]/2
    # (g[k]/3) then moves the old numerator of atom k within the new
    # denominator.  The parent relation compares the previous step, scaled to
    # the new denominator, with the current one; the cross relation compares
    # both chains over D * 6**s.  Only entries k and target change value, so
    # only they become new Fractions.
    denominator = math.lcm(*(x.denominator for x in f))
    num_a = num_b = [x.numerator * (denominator // x.denominator) for x in f]
    pow_a = pow_b = 1  # 2**s and 3**s
    chain_a = [tuple(f)]
    chain_b = [tuple(g)]
    report = ChainReport(variant)
    i, t = k - 1, target - 1
    for step in range(1, steps + 1):
        moved_a, moved_b = num_a[i], num_b[i]
        parent_a, parent_b = [2 * x for x in num_a], [3 * x for x in num_b]
        num_a, num_b = parent_a[:], parent_b[:]
        num_a[i] -= moved_a
        num_a[t] += moved_a
        num_b[i] -= moved_b
        num_b[t] += moved_b
        pow_a, pow_b = 2 * pow_a, 3 * pow_b
        parent_ok = TrustProfile(parent_a, num_a).holds(variant, m)
        parent_ok = parent_ok and TrustProfile(parent_b, num_b).holds(variant, m)
        cross = TrustProfile([x * pow_b for x in num_a], [x * pow_a for x in num_b])
        f, g = list(chain_a[-1]), list(chain_b[-1])
        for j in (i, t):
            f[j] = Fraction(num_a[j], denominator * pow_a)
            g[j] = Fraction(num_b[j], denominator * pow_b)
        f, g = tuple(f), tuple(g)
        chain_a.append(f)
        chain_b.append(g)
        report.steps.append(
            {
                "step": step,
                "parent_relation": parent_ok,
                "jt_cross": cross.holds("JT"),
                "et_cross": cross.holds("ET", m),
                "f": f,
                "g": g,
            }
        )
    return chain_a, chain_b, report
