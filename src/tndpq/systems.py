"""Training tables, probability estimators and applied systems.

A machine-learning system is modelled as a pair of a training table and an
estimator; applying it to a context σ and a target variable yields a full
probability distribution over the target's atoms, which downstream modules
compare and derive from.
"""

from __future__ import annotations

from itertools import islice

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
    require_distinct_variables,
)

_SUM_TOL = 1e-9
# `independent` finds u independent of t when no conditional differs by more
_INDEPENDENCE_TOL = 1e-9


@record(frozen=True)
class TrainingSet:
    """An immutable table of fully observed rows over the schema, stored by column.

    `columns` maps each variable of the table to one string of atom codes:
    character i is row i's atom, as the code point of its index in the
    schema's order.  A column takes one byte per row while its variable has
    at most 256 atoms, so 10^5 rows over 8 variables take 0.8 MB; no row
    is stored as such, nor are all rows held while the table is built:
    `load_training_set` and `from_rows` encode the rows a chunk at a time
    and join each column's chunk strings once at the end.  Counting goes
    through a row-bitset index: for each variable, one int per atom whose
    bit i is set when row i holds that atom, read off the column by one `str.translate` and one `int(..., 2)`
    per atom (about 20 ms for 8 columns of 5 atoms at 10^5 rows), or, for
    a column holding an atom past the 128th, by one pass over its rows.  A
    column is indexed at the first query that touches it and cached; the
    cache is not part of the table's value.
    """

    id: str
    schema: AttributeSchema
    columns: dict[str, str]
    _masks: dict = fresh(dict)

    @classmethod
    def from_rows(cls, id: str, schema: AttributeSchema, rows) -> TrainingSet:
        """A table from row dicts, checked as `load_training_set` checks a CSV.

        The first dict's keys are the header, and dict i is row i + 2 in
        error messages, as though the header were row 1 of a file.  With no
        rows the table has every variable of the schema as an empty column.
        Every dict's keys are checked before any cell; the cells are then
        encoded a chunk of rows at a time, as a CSV's are.
        """
        rows = tuple(rows)
        header = list(rows[0]) if rows else [name for name, _ in schema.variables]
        _check_header(schema, header)
        for lineno, row in enumerate(rows, start=2):
            if row.keys() != rows[0].keys():
                raise ParseError(f"row {lineno}: columns {sorted(row)}, expected {sorted(header)}")
        records = ([row[column] for column in header] for row in rows)
        return cls(id, schema, _columns(schema, header, records))

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ""))

    def column_masks(self, variable: str) -> tuple[int, ...]:
        """Row bitsets of `variable`, one per atom in the schema's order."""
        masks = self._masks.get(variable)
        if masks is None:
            n = len(self.schema.atoms(variable))
            codes = self.columns.get(variable)
            if codes is None:
                # a table with no rows holds no atom of any variable, in a column or not
                if len(self):
                    raise SchemaMismatch(f"training table {self.id!r} has no column {variable!r}")
                codes = ""
            if codes.isascii():
                codes = codes[::-1]
                # translating through a string maps code i to that string's
                # character i: "1" for atom i, "0" for every other atom
                masks = tuple(int(codes.translate("0" * i + "1" + "0" * (n - 1 - i)) or "0", 2) for i in range(n))
            else:
                # a code past 127 takes translate off its fast path, where
                # it costs atoms x rows; so set each row's bit in one pass
                bits = [bytearray((len(codes) + 7) // 8) for _ in range(n)]
                for row, code in enumerate(map(ord, codes)):
                    bits[code][row >> 3] |= 1 << (row & 7)
                masks = tuple(int.from_bytes(b, "little") for b in bits)
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
        require_distinct_variables(self.sigma)
        _require_unattributed(self.sigma, self.variable)
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
    """Read an RFC-4180 CSV whose header names schema variables.

    Cells are stripped of padding and blank rows are skipped.  An error
    names the first faulty row, counting the header as row 1.  The rows
    are read and encoded `_CHUNK` at a time, so the load holds the code
    strings made so far and one chunk of `csv.reader` rows, not every
    row of the file.
    """
    import csv

    with open_text(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = [h.strip() for h in next(reader)]
            _check_header(schema, header)
            columns = _columns(schema, header, reader, csv.Error)
        except StopIteration:
            raise ParseError("empty file, expected a header row") from None
        except csv.Error as exc:
            # a cell over the `csv` module's field limit, say
            raise ParseError(f"row {reader.line_num}: {exc}") from None
    return TrainingSet(id if id is not None else str(path), schema, columns)


def _check_header(schema: AttributeSchema, header: list) -> None:
    for column in header:
        if not schema.has_variable(column):
            raise SchemaMismatch(f"header column {column!r} is not a schema variable")
    if len(set(header)) != len(header):
        raise ParseError("duplicate column in header")


# Rows read and encoded at a time.  A chunk of 256 rows of 8 cells takes
# about 0.15 MB as `csv.reader` lists; 4096 would keep every row of a
# 4000-row table alive, and smaller chunks load 10^5 rows no faster.
_CHUNK = 256


def _columns(schema: AttributeSchema, header: list, records, read_error=()) -> dict[str, str]:
    """Each column's code string, from an iterator over the cells of each row under `header`.

    The records are taken `_CHUNK` at a time, and each chunk's columns are
    checked and encoded whole.  Only when that fails are the chunk's
    records walked row by row, to name the first faulty one, or to strip
    padded cells and drop the blank rows that held cells.  A `read_error`
    (`csv.Error` for a CSV) while a chunk is read is raised once the rows
    read before it in that chunk are checked, so a fault in any earlier row
    is named first.
    """
    to_code = [{atom: chr(i) for i, atom in enumerate(schema.atoms(column))}.__getitem__ for column in header]
    parts = [[] for _ in header]
    first = 2  # the header is row 1
    while True:
        chunk = []
        try:
            chunk.extend(islice(records, _CHUNK))
        except read_error:
            _clean_rows(schema, header, chunk, first)
            raise
        if not chunk:
            return {column: "".join(part) for column, part in zip(header, parts)}
        encoded = _encode(to_code, chunk)
        if encoded is None:
            encoded = _encode(to_code, _clean_rows(schema, header, chunk, first))
        for part, text in zip(parts, encoded):
            part.append(text)
        first += len(chunk)


def _encode(to_code: list, records: list) -> list | None:
    """Each column's code string over `records`, or None when some row does not fit as it stands.

    `to_code[j]` maps an atom of column j to its code, raising KeyError for any other cell.
    """
    rows = list(filter(None, records))  # csv reads a blank line as []
    if set(map(len, rows)) - {len(to_code)}:
        return None
    try:
        return ["".join(map(code, cells)) for code, cells in zip(to_code, zip(*rows))]
    except (KeyError, TypeError):  # a padded or blank cell, or a stranger
        return None


def _clean_rows(schema: AttributeSchema, header: list, records: list, first: int) -> list:
    """The non-blank records, the first being row `first`, with their cells stripped.

    Raises at the first faulty row.  A cell that is not a string, which a
    row dict may hold, is no atom.
    """
    allowed = [frozenset(schema.atoms(column)) for column in header]
    rows = []
    for lineno, cells in enumerate(records, start=first):
        if not cells or all(isinstance(c, str) and not c.strip() for c in cells):
            continue
        if len(cells) != len(header):
            raise ParseError(f"row {lineno}: {len(cells)} cells, expected {len(header)}")
        row = [cell.strip() if isinstance(cell, str) else cell for cell in cells]
        for column, atoms, atom in zip(header, allowed, row):
            if not isinstance(atom, str) or atom not in atoms:
                raise SchemaMismatch(f"row {lineno}: {atom!r} is not an atomic value of {column!r}")
        rows.append(row)
    return rows


def _probabilities(ts: TrainingSet, est: Estimator, target: str, selected: int) -> list[float]:
    """P(target = each atom) among the rows in `selected`, of which "freq" needs one."""
    counts = [(selected & mask).bit_count() for mask in ts.column_masks(target)]
    support = selected.bit_count()
    if est.kind == "freq":
        return [count / support for count in counts]
    total = support + est.smoothing * len(counts)
    return [(count + est.smoothing) / total for count in counts]


def _require_unattributed(sigma: tuple, target: str) -> None:
    """Refuse a σ that attributes the target variable itself."""
    for va in sigma:
        if va.variable == target:
            raise InvariantViolation(f"{target!r} is already attributed in sigma")


def _conditional(ts: TrainingSet, est: Estimator, sigma: tuple, target: str):
    """`conditional_distribution`, and the row bitset of the rows satisfying σ."""
    require_distinct_variables(sigma)
    _require_unattributed(sigma, target)
    masks = [va.mask(ts.schema) for va in sigma]
    atoms = ts.schema.atoms(target)
    # a row satisfies an attribution when its atom's bit is in the value's
    # cell mask, and σ when it satisfies every attribution
    selected = (1 << len(ts)) - 1
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


class Learner:
    """`conditional_distribution` over one (table, estimator) pair, learnt once per (σ, target) in one verdict.

    Each learnt system is kept with the row bitset of σ, so that an
    independence test of the verdict takes P(u | σ) from the same learn.
    """

    def __init__(self, pair):
        self.pair = pair
        self._learnt = {}

    def _learn(self, sigma: tuple, target: str):
        learnt = self._learnt.get((sigma, target))
        if learnt is None:
            learnt = self._learnt[sigma, target] = _conditional(*self.pair, sigma, target)
        return learnt

    def __call__(self, sigma: tuple, target: str) -> AppliedSystem:
        return self._learn(sigma, target)[0]

    def independent(self, sigma: tuple, t: str, u: str):
        """`independent` on this learner's pair, P(u | σ) read through the learner."""
        base, selected = self._learn(sigma, u)
        if t == u:
            raise InvariantViolation(f"{u!r} is already attributed in sigma")
        ts, est = self.pair
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
        verdict = worst[0] <= _INDEPENDENCE_TOL
        return verdict, {"max_deviation": worst[0], "t_atom": worst[1], "u_atom": worst[2]}


def independent(
    ts: TrainingSet, est: Estimator, sigma, t: str, u: str
):
    """Test conditional independence of u from t given σ.

    Returns (verdict, witness) where the witness records the maximal
    deviation |P(u=υ | σ, t=τ) − P(u=υ | σ)| and where it occurs.  With
    the frequency estimator an atom τ that no row holds under σ has
    P(t=τ | σ) = 0 and no conditional to compare; it is skipped.
    """
    return Learner((ts, est)).independent(tuple(sigma), t, u)


def save_applied_system(system: AppliedSystem, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"system {system.training} {system.estimator}\n")
        handle.write(f"sigma {print_attribution_list(system.sigma)}\n")
        handle.write(f"var {system.variable}\n")
        for atom, p in system.distribution:
            handle.write(f"{atom} {p:.17g}\n")


def _clip(text: str) -> str:
    """`text` as a repr for an error message, cut to its first 60 characters."""
    return repr(text) if len(text) <= 60 else f"{text[:60]!r}..."


def load_applied_system(path, schema: AttributeSchema | None = None) -> AppliedSystem:
    with open_text(path) as handle:
        lines = [line.rstrip("\n") for line in handle if line.strip()]
    if len(lines) < 4:
        raise ParseError("applied-system file needs header lines and a distribution")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "system":
        raise ParseError(f"bad system line: {_clip(lines[0])}")
    if lines[1][:6].rstrip() != "sigma":  # the word, then whitespace or the end of the line
        raise ParseError(f"bad sigma line: {_clip(lines[1])}")
    sigma = parse_attribution_list(lines[1][len("sigma") :].strip(), schema)
    var_parts = lines[2].split()
    if len(var_parts) != 2 or var_parts[0] != "var":
        raise ParseError(f"bad var line: {_clip(lines[2])}")
    distribution = []
    for line in lines[3:]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"bad distribution line: {_clip(line)}")
        try:
            p = float(parts[1])
        except ValueError:
            raise ParseError(f"bad probability: {_clip(parts[1])}") from None
        distribution.append((parts[0], p))
    if schema is not None:
        declared = schema.atoms(var_parts[1])
        if tuple(a for a, _ in distribution) != declared:
            raise SchemaMismatch("distribution atoms do not follow the schema order")
    return AppliedSystem(head[1], head[2], sigma, var_parts[1], tuple(distribution))
