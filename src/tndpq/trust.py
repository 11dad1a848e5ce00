"""Trustworthiness relations between an original system and its copies.

A copy is compared against its original over the same context and target.
Four relations are supported: JT (identical distributions), ET(m) (equal on
the first m atoms), AT(m) (copy at least as confident on the first m atoms)
and WT(m) (AT plus an identical zero pattern across all atoms).  "First m"
follows the schema's declared atom order.

The module also provides the relation algebra checker, the JT/ET/AT
composition square, and the diverging-chain constructors that certify the
negative results (chains that stay AT/WT/ET step by step while the two
chains never re-enter JT).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    DerivationFailed,
    IncomparableSystems,
    PreconditionFailed,
)
from .syntax import AttributeSchema, VariableTerm, print_value, same_sigma
from .systems import AppliedSystem, conditional_distribution


@dataclass(frozen=True)
class TrustKind:
    name: str  # JT, ET, WT, AT
    m: int | None = None

    def __post_init__(self):
        if self.name not in ("JT", "ET", "WT", "AT"):
            raise ValueError(f"unknown trust kind {self.name!r}")
        if (self.name == "JT") != (self.m is None):
            raise ValueError("JT takes no prefix length; ET/WT/AT require one")

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


@dataclass
class TrustReport:
    kind: TrustKind
    evidence: list[tuple] = field(default_factory=list)
    warning: str | None = None

    @property
    def verdict(self) -> bool:
        return all(entry[-1] for entry in self.evidence)

    @property
    def failed_condition(self):
        for entry in self.evidence:
            if not entry[-1]:
                return entry
        return None

    def add(self, label, f, g, condition: str, satisfied: bool) -> None:
        self.evidence.append((label, f, g, condition, satisfied))


def _eq(f, g, tol) -> bool:
    return abs(f - g) <= tol


def _ge(g, f, tol) -> bool:
    return g >= f - tol


def _zero(p, tol) -> bool:
    return abs(p) <= tol


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
    if original.variable != copy.variable or original.atoms != copy.atoms:
        raise IncomparableSystems("systems target different variables or atom lists")
    if not same_sigma(original.sigma, copy.sigma):
        raise IncomparableSystems("systems are applied to different contexts")
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
    else:
        if not 1 <= kind.m <= len(atoms):
            raise IncomparableSystems(
                f"prefix length {kind.m} outside 1..{len(atoms)}"
            )
        inspected = atoms[: kind.m]
    for atom in inspected:
        f = original.probability(atom)
        g = copy.probability(atom)
        if kind.name in ("JT", "ET"):
            report.add(atom, f, g, "g = f", _eq(f, g, tol))
        else:
            report.add(atom, f, g, "g >= f", _ge(g, f, tol))
    if kind.name == "WT":
        for atom in atoms:
            f = original.probability(atom)
            g = copy.probability(atom)
            report.add(
                atom, f, g, "g = 0 iff f = 0", _zero(f, tol) == _zero(g, tol)
            )
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
    rules on both systems.  For WT the zero-pattern clause is checked over
    the probe values plus all single-connective combinations of atoms fitting
    the term (the negation-free fragment suffices for zero preservation).
    """
    from .construction import derive_value, zero_probe_values

    report = TrustReport(kind)
    pairs = []
    for value in values:
        p_orig = derive_value(original_source, sigma, term, value, schema)
        p_copy = derive_value(copy_source, sigma, term, value, schema)
        pairs.append((value, p_orig.conclusion.probability, p_copy.conclusion.probability))
    for value, f, g in pairs:
        label = print_value(value)
        if kind.name in ("JT", "ET"):
            report.add(label, f, g, "g = f", _eq(f, g, tol))
        else:
            report.add(label, f, g, "g >= f", _ge(g, f, tol))
    if kind.name == "WT":
        for value in zero_probe_values(term, schema):
            try:
                f = derive_value(original_source, sigma, term, value, schema).conclusion.probability
                g = derive_value(copy_source, sigma, term, value, schema).conclusion.probability
            except DerivationFailed:
                continue
            report.add(
                print_value(value), f, g, "g = 0 iff f = 0", _zero(f, tol) == _zero(g, tol)
            )
    return report


# ---------------------------------------------------------------------------
# Relation algebra (fundamental properties and coordination principles)


@dataclass
class PropertyReport:
    checked: int = 0
    failures: list[tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _holds(copy: AppliedSystem, original: AppliedSystem, kind: TrustKind, tol) -> bool:
    return check_local(original, copy, kind, tol).verdict


def verify_algebra(samples, tol: float = 0.0) -> PropertyReport:
    """Check every fundamental property and coordination principle.

    `samples` is an iterable of (a, b, c) triples of comparable applied
    systems; `x REL y` below reads "x is a trustworthy copy of y".  All
    laws are material implications, so every sampled triple either
    vacuously or actively confirms each row; any falsification is recorded.
    """
    report = PropertyReport()

    def law(name, instance, holds):
        report.checked += 1
        if not holds:
            report.failures.append((name, instance))

    for a, b, c in samples:
        n = len(a.atoms)
        kinds_m = [et, wt, at]
        law("JT reflexivity", (a,), _holds(a, a, jt(), tol))
        law("JT symmetry", (a, b), (not _holds(a, b, jt(), tol)) or _holds(b, a, jt(), tol))
        law(
            "JT transitivity",
            (a, b, c),
            not (_holds(a, b, jt(), tol) and _holds(b, c, jt(), tol))
            or _holds(a, c, jt(), tol),
        )
        for m in range(1, n + 1):
            for make in kinds_m:
                name = make(m).name
                law(f"{name} reflexivity", (a, m), _holds(a, a, make(m), tol))
                for l in range(1, n + 1):
                    law(
                        f"{name} transitivity",
                        (a, b, c, m, l),
                        not (_holds(a, b, make(m), tol) and _holds(b, c, make(l), tol))
                        or _holds(a, c, make(min(m, l)), tol),
                    )
                law(
                    f"{name} transitivity'",
                    (a, b, c, m),
                    not (_holds(a, b, make(m), tol) and _holds(b, c, make(m), tol))
                    or _holds(a, c, make(m), tol),
                )
                for l in range(1, m + 1):
                    law(
                        f"{name} weakening",
                        (a, b, m, l),
                        not _holds(a, b, make(m), tol) or _holds(a, b, make(l), tol),
                    )
            for l in range(1, m + 1):
                law(
                    "ET symmetry",
                    (a, b, m, l),
                    not _holds(a, b, et(m), tol) or _holds(b, a, et(l), tol),
                )
            law(
                "AT Bottom",
                (a, b, m),
                not (
                    _holds(a, b, et(m), tol)
                    or _holds(a, b, wt(m), tol)
                    or _holds(a, b, jt(), tol)
                )
                or _holds(a, b, at(m), tol),
            )
            law(
                "JT Top",
                (a, b, m),
                not _holds(a, b, jt(), tol)
                or (
                    _holds(a, b, at(m), tol)
                    and _holds(a, b, et(m), tol)
                    and _holds(a, b, wt(m), tol)
                ),
            )
            law(
                "JT Top'",
                (a, b, m),
                not _holds(a, b, jt(), tol)
                or (_holds(a, b, et(m), tol) and _holds(a, b, wt(m), tol)),
            )
            for l in range(1, n + 1):
                law(
                    "Semi-Antisymmetry AT",
                    (a, b, m, l),
                    not (_holds(a, b, at(m), tol) and _holds(b, a, at(l), tol))
                    or _holds(a, b, et(min(m, l)), tol),
                )
                law(
                    "Semi-Antisymmetry WT",
                    (a, b, m, l),
                    not (_holds(a, b, wt(m), tol) and _holds(b, a, wt(l), tol))
                    or _holds(a, b, et(min(m, l)), tol),
                )
        law(
            "m=n to Top",
            (a, b),
            not (
                _holds(a, b, et(n), tol)
                or _holds(a, b, wt(n), tol)
                or _holds(a, b, at(n), tol)
            )
            or _holds(a, b, jt(), tol),
        )
        law(
            "AT + m=n = Top",
            (a, b),
            not _holds(a, b, at(n), tol) or _holds(a, b, jt(), tol),
        )
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
    if not _holds(a0, b0, jt(), tol):
        raise PreconditionFailed("hypothesis a0 JT b0 does not hold")
    if not _holds(a1, a0, et(m), tol):
        raise PreconditionFailed(f"hypothesis a1 ET({m}) a0 does not hold")
    if not _holds(b1, b0, at(m), tol):
        raise PreconditionFailed(f"hypothesis b1 AT({m}) b0 does not hold")
    return check_local(a1, b1, at(m), tol)


# ---------------------------------------------------------------------------
# Diverging chains


@dataclass
class ChainReport:
    variant: str
    steps: list[dict] = field(default_factory=list)

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


def _to_fractions(system: AppliedSystem) -> list[Fraction]:
    return [Fraction(str(p)) for p in system.probabilities]


def _prefix_relation(child, parent, kind: TrustKind) -> bool:
    if kind.name == "JT":
        return child == parent
    prefix = range(kind.m)
    if kind.name == "ET":
        return all(child[i] == parent[i] for i in prefix)
    ok = all(child[i] >= parent[i] for i in prefix)
    if kind.name == "WT":
        ok = ok and all((child[i] == 0) == (parent[i] == 0) for i in range(len(child)))
    return ok


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
    variant = variant.upper()
    if variant not in ("AT", "WT", "ET"):
        raise PreconditionFailed(f"unknown chain variant {variant!r}")
    f = _to_fractions(a0)
    g = _to_fractions(b0)
    n = len(f)
    if f != g:
        raise PreconditionFailed("chains start from a JT pair: a0 must equal b0")
    if not 1 <= m < n:
        raise PreconditionFailed("m must satisfy 1 <= m < n")
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
    kind = {"AT": at(m), "WT": wt(m), "ET": et(m)}[variant]
    chain_a = [tuple(f)]
    chain_b = [tuple(g)]
    report = ChainReport(variant)
    for step in range(1, steps + 1):
        f = list(chain_a[-1])
        g = list(chain_b[-1])
        moved_f = f[k - 1] / 2
        moved_g = g[k - 1] / 3
        f[target - 1] += moved_f
        f[k - 1] -= moved_f
        g[target - 1] += moved_g
        g[k - 1] -= moved_g
        f, g = tuple(f), tuple(g)
        parent_ok = _prefix_relation(f, chain_a[-1], kind) and _prefix_relation(
            g, chain_b[-1], kind
        )
        jt_cross = f == g
        et_cross = all(f[i] == g[i] for i in range(m))
        chain_a.append(f)
        chain_b.append(g)
        report.steps.append(
            {
                "step": step,
                "parent_relation": parent_ok,
                "jt_cross": jt_cross,
                "et_cross": et_cross,
                "f": f,
                "g": g,
            }
        )
    return chain_a, chain_b, report
