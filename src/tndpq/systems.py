"""Training tables, probability estimators and applied systems.

A machine-learning system is modelled as a pair of a training table and an
estimator; applying it to a context σ and a target variable yields a full
probability distribution over the target's atoms, which downstream modules
compare and derive from.
"""

from __future__ import annotations

import csv

from .errors import (
    EmptySupport,
    InvariantViolation,
    ParseError,
    SchemaMismatch,
)
from .syntax import (
    AttributeSchema,
    ValueAttribution,
    fresh,
    open_text,
    parse_attribution_list,
    print_attribution_list,
    record,
)

_SUM_TOL = 1e-9


@record(frozen=True)
class TrainingSet:
    """An immutable table of fully observed rows over the schema.

    Counting goes through a row-bitset index: for each variable, one int
    per atom whose bit i is set when row i holds that atom.  A column is
    indexed at the first query that touches it and cached; the cache is
    not part of the table's value.
    """

    id: str
    schema: AttributeSchema
    rows: tuple[dict, ...]
    _masks: dict = fresh(dict)

    def __len__(self) -> int:
        return len(self.rows)

    def column_masks(self, variable: str) -> tuple[int, ...]:
        """Row bitsets of `variable`, one per atom in the schema's order."""
        masks = self._masks.get(variable)
        if masks is None:
            atoms = self.schema.atoms(variable)
            try:
                column = [row[variable] for row in reversed(self.rows)]
            except KeyError:
                raise SchemaMismatch(f"training table {self.id!r} has no column {variable!r}") from None
            masks = tuple(
                int("0" + "".join(["1" if cell == atom else "0" for cell in column]), 2)
                for atom in atoms
            )
            if sum(mask.bit_count() for mask in masks) != len(column):
                raise SchemaMismatch(f"column {variable!r} holds a value that is not one of its atoms")
            self._masks[variable] = masks
        return masks


@record(frozen=True)
class Estimator:
    """A conditional-probability estimator over a training table.

    kind "freq" is plain relative frequency; kind "laplace" adds
    `smoothing` pseudo-counts, finite and positive, to every atom of the
    target variable.
    """

    id: str
    kind: str = "freq"
    smoothing: float = 1.0

    def __post_init__(self):
        if self.kind not in ("freq", "laplace"):
            raise InvariantViolation(f"unknown estimator kind {self.kind!r}")
        if self.kind == "laplace" and not 0 < self.smoothing < float("inf"):
            raise InvariantViolation(f"laplace smoothing must be finite and positive, got {self.smoothing!r}")


@record(frozen=True)
class AppliedSystem:
    """A system applied to a context: the induced distribution on one variable."""

    training: str
    estimator: str
    sigma: tuple[ValueAttribution, ...]
    variable: str
    distribution: tuple[tuple[str, float], ...]

    def __post_init__(self):
        total = sum(p for _, p in self.distribution)
        if abs(total - 1.0) > _SUM_TOL:
            raise InvariantViolation(f"distribution sums to {total!r}, not 1")
        for atom, p in self.distribution:
            if not -_SUM_TOL <= p <= 1.0 + _SUM_TOL:
                raise InvariantViolation(f"probability {p!r} for {atom!r} outside [0, 1]")

    def probability(self, atom: str) -> float:
        for name, p in self.distribution:
            if name == atom:
                return p
        raise SchemaMismatch(f"{atom!r} is not in the stored distribution")

    @property
    def atoms(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.distribution)

    @property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.distribution)


def load_training_set(path, schema: AttributeSchema, id: str | None = None) -> TrainingSet:
    """Read an RFC-4180 CSV whose header names schema variables."""
    with open_text(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = [h.strip() for h in next(reader)]
            for column in header:
                if not schema.has_variable(column):
                    raise SchemaMismatch(f"header column {column!r} is not a schema variable")
            if len(set(header)) != len(header):
                raise ParseError("duplicate column in header")
            allowed = [frozenset(schema.atoms(column)) for column in header]
            rows = []
            for lineno, cells in enumerate(reader, start=2):
                if not cells or all(not c.strip() for c in cells):
                    continue
                if len(cells) != len(header):
                    raise ParseError(f"row {lineno}: {len(cells)} cells, expected {len(header)}")
                row = {}
                for column, atoms, cell in zip(header, allowed, cells):
                    atom = cell.strip()
                    if atom not in atoms:
                        raise SchemaMismatch(
                            f"row {lineno}: {atom!r} is not an atomic value of {column!r}"
                        )
                    row[column] = atom
                rows.append(row)
        except StopIteration:
            raise ParseError("empty file, expected a header row") from None
        except csv.Error as exc:
            # a cell over the `csv` module's field limit, say
            raise ParseError(f"row {reader.line_num}: {exc}") from None
    name = id if id is not None else str(path)
    return TrainingSet(name, schema, tuple(rows))


def _probabilities(ts: TrainingSet, est: Estimator, target: str, selected: int) -> list[float]:
    """P(target = each atom) among the rows in `selected`, of which "freq" needs one."""
    counts = [(selected & mask).bit_count() for mask in ts.column_masks(target)]
    support = selected.bit_count()
    if est.kind == "freq":
        return [count / support for count in counts]
    total = support + est.smoothing * len(counts)
    return [(count + est.smoothing) / total for count in counts]


def _conditional(ts: TrainingSet, est: Estimator, sigma: tuple, target: str):
    """`conditional_distribution`, and the row bitset of the rows satisfying σ."""
    if any(va.variable == target for va in sigma):
        raise InvariantViolation(f"{target!r} is already attributed in sigma")
    masks = [va.mask(ts.schema) for va in sigma]
    atoms = ts.schema.atoms(target)
    # a row satisfies an attribution when its atom's bit is in the value's
    # cell mask, and σ when it satisfies every attribution
    selected = (1 << len(ts.rows)) - 1
    for va, mask in zip(sigma, masks):
        chosen = 0
        for i, rows in enumerate(ts.column_masks(va.variable)):
            if mask >> i & 1:
                chosen |= rows
        selected &= chosen
    if est.kind == "freq" and not selected:
        raise EmptySupport(f"no training row satisfies {print_attribution_list(sigma) or 'the empty context'}")
    dist = tuple(zip(atoms, _probabilities(ts, est, target, selected)))
    return AppliedSystem(ts.id, est.id, sigma, target, dist), selected


def conditional_distribution(
    ts: TrainingSet, est: Estimator, sigma, target: str
) -> AppliedSystem:
    """Distribution of `target` among the rows classically satisfying σ."""
    return _conditional(ts, est, tuple(sigma), target)[0]


def independent(
    ts: TrainingSet, est: Estimator, sigma, t: str, u: str, tol: float = 1e-9
):
    """Test conditional independence of u from t given σ.

    Returns (verdict, witness) where the witness records the maximal
    deviation |P(u=υ | σ, t=τ) − P(u=υ | σ)| and where it occurs.  With
    the frequency estimator an atom τ that no row holds under σ has
    P(t=τ | σ) = 0 and no conditional to compare; it is skipped.
    """
    base, selected = _conditional(ts, est, tuple(sigma), u)
    if t == u:
        raise InvariantViolation(f"{u!r} is already attributed in sigma")
    worst = (0.0, None, None)
    # σ extended by t = τ selects the rows of σ that hold τ
    for tau, rows in zip(ts.schema.atoms(t), ts.column_masks(t)):
        rows &= selected
        if est.kind == "freq" and not rows:
            continue
        given = _probabilities(ts, est, u, rows)
        for (upsilon, p), q in zip(base.distribution, given):
            deviation = abs(q - p)
            if deviation > worst[0]:
                worst = (deviation, tau, upsilon)
    verdict = worst[0] <= tol
    return verdict, {"max_deviation": worst[0], "t_atom": worst[1], "u_atom": worst[2]}


def save_applied_system(system: AppliedSystem, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"system {system.training} {system.estimator}\n")
        handle.write(f"sigma {print_attribution_list(system.sigma)}\n")
        handle.write(f"var {system.variable}\n")
        for atom, p in system.distribution:
            handle.write(f"{atom} {p:.17g}\n")


def load_applied_system(path, schema: AttributeSchema | None = None) -> AppliedSystem:
    with open_text(path) as handle:
        lines = [line.rstrip("\n") for line in handle if line.strip()]
    if len(lines) < 4:
        raise ParseError("applied-system file needs header lines and a distribution")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "system":
        raise ParseError(f"bad system line: {lines[0]!r}")
    if not lines[1].startswith("sigma"):
        raise ParseError(f"bad sigma line: {lines[1]!r}")
    sigma = parse_attribution_list(lines[1][len("sigma") :].strip(), schema)
    var_parts = lines[2].split()
    if len(var_parts) != 2 or var_parts[0] != "var":
        raise ParseError(f"bad var line: {lines[2]!r}")
    distribution = []
    for line in lines[3:]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"bad distribution line: {line!r}")
        try:
            p = float(parts[1])
        except ValueError:
            raise ParseError(f"bad probability: {parts[1]!r}") from None
        distribution.append((parts[0], p))
    if schema is not None:
        declared = schema.atoms(var_parts[1])
        if tuple(a for a, _ in distribution) != declared:
            raise SchemaMismatch("distribution atoms do not follow the schema order")
    return AppliedSystem(head[1], head[2], sigma, var_parts[1], tuple(distribution))
