"""Training tables, estimators and applied-system files."""

import csv
import math
import random
import tracemalloc

import pytest

from tndpq.calculus import at_query
from tndpq import systems
from tndpq.cli import main
from tndpq.errors import (
    EmptySupport,
    IllFormed,
    InvariantViolation,
    MixedVariables,
    ParseError,
    SchemaMismatch,
    UnknownSymbol,
)
from tndpq.syntax import (
    Atom,
    AtomVal,
    AttributeSchema,
    Judgment,
    Neg,
    Or,
    ValueAttribution,
    load_schema,
    parse_attribution_list,
)
from tndpq.systems import (
    AppliedSystem,
    Estimator,
    TrainingSet,
    conditional_distribution,
    independent,
    load_applied_system,
    load_training_set,
    save_applied_system,
)

SCHEMA = AttributeSchema.of([("a", ("x", "y")), ("b", ("u", "v"))])
FREQ = Estimator("A", "freq")


def _ts(rows, schema=SCHEMA, id="T"):
    return TrainingSet.from_rows(id, schema, rows)


def _rows(ts):
    """The table's rows as dicts, decoded from its code strings."""
    return [
        {name: ts.schema.atoms(name)[ord(code)] for name, code in zip(ts.columns, codes)}
        for codes in zip(*ts.columns.values())
    ]


THREE = _ts([{"a": "x", "b": "u"}, {"a": "x", "b": "v"}, {"a": "y", "b": "u"}])


def sigma(text):
    return parse_attribution_list(text, SCHEMA)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\nx,u\nx,v\ny,u\n")
    ts = load_training_set(path, SCHEMA, id="T")
    assert len(ts) == 3
    assert _rows(ts)[2] == {"a": "y", "b": "u"}


def test_csv_unknown_atom(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\nx,u\nz,u\n")
    with pytest.raises(SchemaMismatch, match="row 3"):
        load_training_set(path, SCHEMA)


def test_csv_loader_error_contract(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(" a , b \n x ,u\ny, v \n")
    assert _rows(load_training_set(path, SCHEMA)) == [{"a": "x", "b": "u"}, {"a": "y", "b": "v"}]
    path.write_text("a,b\nx,u\n\nx,v\ny,w\n")
    with pytest.raises(SchemaMismatch) as caught:
        load_training_set(path, SCHEMA)
    assert str(caught.value) == "row 5: 'w' is not an atomic value of 'b'"
    path.write_text("a,b\nx,u\ny\n")
    with pytest.raises(ParseError) as caught:
        load_training_set(path, SCHEMA)
    assert str(caught.value) == "row 3: 1 cells, expected 2"


def test_csv_empty_data(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n")
    ts = load_training_set(path, SCHEMA)
    assert len(ts) == 0
    with pytest.raises(EmptySupport):
        conditional_distribution(ts, FREQ, (), "a")


def test_empty_table_without_the_column_has_empty_support(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a\n")
    ts = load_training_set(path, SCHEMA)
    with pytest.raises(EmptySupport):
        conditional_distribution(ts, FREQ, (), "b")
    with pytest.raises(EmptySupport):
        conditional_distribution(ts, FREQ, sigma("b:u"), "a")
    assert conditional_distribution(ts, Estimator("L", "laplace"), (), "b").distribution == (
        ("u", 0.5),
        ("v", 0.5),
    )


def test_conditional_distribution():
    system = conditional_distribution(THREE, FREQ, sigma("b:u"), "a")
    assert system.distribution == (("x", 0.5), ("y", 0.5))


def test_marginal_distribution():
    system = conditional_distribution(THREE, FREQ, (), "a")
    assert math.isclose(system.probability("x"), 2 / 3)
    assert math.isclose(system.probability("y"), 1 / 3)


def test_exhaustive_disjunction_is_marginal():
    system = conditional_distribution(THREE, FREQ, sigma("b:u+v"), "a")
    assert system.probabilities == conditional_distribution(THREE, FREQ, (), "a").probabilities


def test_negated_context():
    system = conditional_distribution(THREE, FREQ, sigma("b:~u"), "a")
    assert system.probability("x") == 1.0


def test_empty_support():
    ts = _ts([{"a": "x", "b": "u"}])
    with pytest.raises(EmptySupport):
        conditional_distribution(ts, FREQ, sigma("b:v"), "a")


def test_laplace_no_empty_support():
    ts = _ts([{"a": "x", "b": "u"}])
    system = conditional_distribution(ts, Estimator("B", "laplace", 1.0), sigma("b:v"), "a")
    assert system.probabilities == (0.5, 0.5)


def test_laplace_converges_to_freq():
    tiny = Estimator("B", "laplace", 1e-9)
    for context in ((), sigma("b:u")):
        freq = conditional_distribution(THREE, FREQ, context, "a")
        smooth = conditional_distribution(THREE, tiny, context, "a")
        for atom in ("x", "y"):
            assert abs(freq.probability(atom) - smooth.probability(atom)) < 1e-6


def test_row_order_and_duplication_invariance():
    rng = random.Random(3)
    rows = _rows(THREE)
    rng.shuffle(rows)
    shuffled = _ts(rows)
    doubled = _ts(_rows(THREE) * 3)
    base = conditional_distribution(THREE, FREQ, sigma("b:u"), "a")
    assert conditional_distribution(shuffled, FREQ, sigma("b:u"), "a").distribution == base.distribution
    assert conditional_distribution(doubled, FREQ, sigma("b:u"), "a").distribution == base.distribution


def test_independence_product_table():
    rows = [
        {"a": a, "b": b}
        for a in ("x", "x", "y")
        for b in ("u", "v")
    ]
    ts = _ts(rows)
    verdict, witness = independent(ts, FREQ, (), "a", "b")
    assert verdict
    assert witness["max_deviation"] <= 1e-9


def test_independence_copied_column():
    schema = AttributeSchema.of([("a", ("x", "y")), ("b", ("u", "v"))])
    rows = [{"a": "x", "b": "u"}, {"a": "x", "b": "u"}, {"a": "y", "b": "v"}, {"a": "y", "b": "v"}]
    ts = _ts(rows, schema)
    verdict, witness = independent(ts, FREQ, (), "a", "b")
    assert not verdict
    assert witness["max_deviation"] == pytest.approx(0.5)


def test_independence_skips_an_unheld_atom():
    # an exact product over X in {a,b}, Y in {u,v}; no row holds X = c
    schema = AttributeSchema.of([("X", ("a", "b", "c")), ("Y", ("u", "v"))])
    ts = _ts([{"X": x, "Y": y} for x in ("a", "b") for y in ("u", "v")], schema)
    verdict, witness = independent(ts, FREQ, (), "X", "Y")
    assert verdict
    assert witness["max_deviation"] == 0.0
    # smoothing gives the unheld atom a conditional, which is compared
    verdict, witness = independent(ts, Estimator("L", "laplace", 1.0), (), "X", "Y")
    assert verdict


@pytest.mark.parametrize("smoothing", [math.inf, 0.0, -1.0, math.nan])
def test_laplace_smoothing_must_be_finite_and_positive(smoothing):
    with pytest.raises(InvariantViolation) as caught:
        Estimator("L", "laplace", smoothing)
    assert str(caught.value) == f"laplace smoothing must be finite and positive, got {smoothing!r}"


def test_applied_system_round_trip(tmp_path):
    system = conditional_distribution(THREE, FREQ, sigma("b:u"), "a")
    path = tmp_path / "sys.txt"
    save_applied_system(system, path)
    assert load_applied_system(path, SCHEMA) == system


def test_applied_system_validation(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("system T A\nsigma b:u\nvar a\nx 0.5\ny 0.3\n")
    with pytest.raises(InvariantViolation):
        load_applied_system(path, SCHEMA)
    path.write_text("system T A\nsigma b:u\nvar a\nx -0.5\ny 1.5\n")
    with pytest.raises(InvariantViolation):
        load_applied_system(path, SCHEMA)
    path.write_text("system T A\nsigma\n")
    with pytest.raises(ParseError):
        load_applied_system(path, SCHEMA)


def test_missing_column_is_schema_mismatch(tmp_path):
    schema = AttributeSchema.of([("a", ("x", "y")), ("b", ("u", "v")), ("c", ("p", "q"))])
    path = tmp_path / "t.csv"
    path.write_text("a,b\nx,u\ny,v\n")
    ts = load_training_set(path, schema)
    with pytest.raises(SchemaMismatch, match="no column 'c'"):
        conditional_distribution(ts, FREQ, parse_attribution_list("c:p", schema), "a")
    with pytest.raises(SchemaMismatch, match="no column 'c'"):
        conditional_distribution(ts, FREQ, (), "c")


def test_cell_outside_the_atoms_is_schema_mismatch():
    with pytest.raises(SchemaMismatch) as caught:
        _ts([{"a": "x", "b": "u"}, {"a": "w", "b": "u"}])
    assert str(caught.value) == "row 3: 'w' is not an atomic value of 'a'"


WIDE = AttributeSchema.of(
    [("a", ("x", "y", "z")), ("b", ("u", "v")), ("c", ("p", "q", "r", "s")), ("d", ("m", "n", "o"))]
)


def _random_table(rng, n):
    rows = [{name: rng.choice(atoms) for name, atoms in WIDE.variables} for _ in range(n)]
    return TrainingSet.from_rows(f"R{n}", WIDE, rows)


def _random_value(rng, atoms, depth=2):
    if depth == 0 or rng.random() < 0.4:
        return AtomVal(rng.choice(atoms))
    if rng.random() < 0.5:
        return Neg(_random_value(rng, atoms, depth - 1))
    return Or(_random_value(rng, atoms, depth - 1), _random_value(rng, atoms, depth - 1))


def _star(value, atoms):
    """The atoms in which a deterministic one-variable value holds."""
    if isinstance(value, AtomVal):
        return {value.name}
    if isinstance(value, Neg):
        return set(atoms) - _star(value.inner, atoms)
    return _star(value.left, atoms) | _star(value.right, atoms)


def _naive_distribution(table, schema, est, sigma, target):
    """Row-by-row counting over row dicts; None where the frequency estimator has no support."""
    rows = [
        row for row in table
        if all(row[va.variable] in _star(va.value, schema.atoms(va.variable)) for va in sigma)
    ]
    atoms = schema.atoms(target)
    counts = [sum(1 for row in rows if row[target] == atom) for atom in atoms]
    if est.kind == "freq":
        if not rows:
            return None
        return tuple((atom, count / len(rows)) for atom, count in zip(atoms, counts))
    total = len(rows) + est.smoothing * len(atoms)
    return tuple((atom, (count + est.smoothing) / total) for atom, count in zip(atoms, counts))


def _naive_independent(ts, est, sigma, t, u):
    rows = _rows(ts)
    base = _naive_distribution(rows, ts.schema, est, sigma, u)
    if base is None:
        return None
    worst = (0.0, None, None)
    for tau in ts.schema.atoms(t):
        given = _naive_distribution(rows, ts.schema, est, sigma + (ValueAttribution(t, AtomVal(tau)),), u)
        if given is None:  # no row holds t = tau under sigma: P(t=tau | sigma) = 0
            continue
        for (upsilon, p), (_, q) in zip(given, base):
            if abs(p - q) > worst[0]:
                worst = (abs(p - q), tau, upsilon)
    return worst[0] <= 1e-9, {"max_deviation": worst[0], "t_atom": worst[1], "u_atom": worst[2]}


def _outcome(call):
    try:
        return call()
    except EmptySupport:
        return None


def _negated_disjunctions(rng, atoms, depth=3):
    """`~(... + ...)` nested `depth` deep, with a random value beside each level."""
    value = _random_value(rng, atoms, 1)
    for _ in range(depth):
        other = _random_value(rng, atoms, 1)
        value = Neg(Or(value, other) if rng.random() < 0.5 else Or(other, value))
    return value


def _assert_counts_agree(ts, est, context, sigma, t, target):
    got = _outcome(lambda: conditional_distribution(ts, est, sigma, target).distribution)
    assert got == _naive_distribution(_rows(ts), ts.schema, est, sigma, target), sigma
    got = _outcome(lambda: independent(ts, est, context, t, target))
    assert got == _naive_independent(ts, est, context, t, target), context


def test_index_matches_row_counting():
    rng = random.Random(11)
    estimators = (FREQ, Estimator("L", "laplace", 0.5))
    names = [name for name, _ in WIDE.variables]
    for _ in range(150):
        ts = _random_table(rng, rng.choice((0, 1, 7, 64, 65, 200)))
        for est in estimators:
            target, t, *rest = rng.sample(names, len(names))
            context = tuple(
                ValueAttribution(name, _random_value(rng, WIDE.atoms(name)))
                for name in rest[: rng.randint(0, 2)]
            )
            sigma = context + ((ValueAttribution(t, _random_value(rng, WIDE.atoms(t))),) if rng.random() < 0.5 else ())
            _assert_counts_agree(ts, est, context, sigma, t, target)
    # every σ value three negated disjunctions deep
    rng = random.Random(12)
    for _ in range(60):
        ts = _random_table(rng, rng.choice((0, 7, 65, 200)))
        for est in estimators:
            target, t, *rest = rng.sample(names, len(names))
            context = tuple(
                ValueAttribution(name, _negated_disjunctions(rng, WIDE.atoms(name)))
                for name in rest[: rng.randint(1, 2)]
            )
            sigma = context + (ValueAttribution(t, _negated_disjunctions(rng, WIDE.atoms(t))),)
            _assert_counts_agree(ts, est, context, sigma, t, target)


@pytest.mark.parametrize("n", [3, 3000])
def test_one_cell_mask_per_attribution(monkeypatch, n):
    real = ValueAttribution.mask
    calls = []

    def counting(attribution, schema):
        calls.append(attribution.value)
        return real(attribution, schema)

    monkeypatch.setattr(ValueAttribution, "mask", counting)
    ts = _random_table(random.Random(n), n)
    context = parse_attribution_list("a:x+y, b:~u, c:~(p+q)", WIDE)
    calls.clear()  # parsing validated each attribution through its mask
    conditional_distribution(ts, Estimator("L", "laplace", 1.0), context, "d")
    assert len(calls) == len(context)
    assert calls == [va.value for va in context]


@pytest.mark.parametrize("est", [FREQ, Estimator("L", "laplace", 1.0)])
def test_independent_walks_sigma_once(monkeypatch, est):
    real = ValueAttribution.mask
    calls = []

    def counting(attribution, schema):
        calls.append(attribution.value)
        return real(attribution, schema)

    monkeypatch.setattr(ValueAttribution, "mask", counting)
    ts = _random_table(random.Random(5), 300)
    for text in ("", "a:x+y", "a:x+y, b:~u"):
        context = parse_attribution_list(text, WIDE)
        calls.clear()
        assert independent(ts, est, context, "c", "d") == _naive_independent(ts, est, context, "c", "d")
        assert calls == [va.value for va in context]
    with pytest.raises(InvariantViolation, match="^'d' is already attributed in sigma$"):
        independent(ts, est, context, "d", "d")


# One fault per case, then two at once to pin the precedence: each
# attribution in order, then the target, then the table's columns.
SIGMA_FAULTS = [
    ("z:x", "b", UnknownSymbol, "unknown variable 'z'"),
    ("a:u", "b", IllFormed, "value atoms do not belong to 'a'"),
    ("a:x*u", "b", IllFormed, "attribution to 'a' uses a non-deterministic value"),
    ("a:x->u", "b", IllFormed, "attribution to 'a' uses a non-deterministic value"),
    ("a:~(x->u)", "b", IllFormed, "attribution to 'a' uses a non-deterministic value"),
    ("a:w", "b", UnknownSymbol, "unknown atomic value 'w'"),
    ("a:x+u", "b", MixedVariables, "value mixes variables ['a', 'b']"),
    ("a:x", "w", UnknownSymbol, "unknown variable 'w'"),
    ("c:p", "b", SchemaMismatch, "training table {csv!r} has no column 'c'"),
    ("a:x", "a", InvariantViolation, "'a' is already attributed in sigma"),
    ("a:u+x*u", "b", IllFormed, "attribution to 'a' uses a non-deterministic value"),
    ("a:x*u", "w", IllFormed, "attribution to 'a' uses a non-deterministic value"),
    ("b:u, a:x->y", "w", IllFormed, "attribution to 'a' uses a non-deterministic value"),
    ("c:p", "w", UnknownSymbol, "unknown variable 'w'"),
    ("c:p, a:u", "b", IllFormed, "value atoms do not belong to 'a'"),
    ("z:x, a:u", "b", UnknownSymbol, "unknown variable 'z'"),
    ("a:u, z:x", "b", IllFormed, "value atoms do not belong to 'a'"),
]


@pytest.mark.parametrize("text, target, error, message", SIGMA_FAULTS)
def test_sigma_error_contract(tmp_path, capsys, text, target, error, message):
    schema_path, csv_path = tmp_path / "s.txt", tmp_path / "t.csv"
    schema_path.write_text("a = x | y\nb = u | v\nc = p | q\n")
    csv_path.write_text("a,b\nx,u\ny,v\nx,v\n")
    message = message.format(csv=str(csv_path))
    ts = load_training_set(csv_path, load_schema(schema_path))
    sigma = parse_attribution_list(text)
    with pytest.raises(error) as caught:
        conditional_distribution(ts, FREQ, sigma, target)
    assert type(caught.value) is error and str(caught.value) == message
    with pytest.raises(error) as caught:
        at_query((ts, FREQ), sigma, target, "u")
    assert type(caught.value) is error and str(caught.value) == message
    code = main(["learn", str(schema_path), str(csv_path), "--target", target, "--sigma", text])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_sigma_naming_a_variable_twice_is_ill_formed(tmp_path, capsys):
    # such a σ was read as the meet of its attributions, here as a:x
    message = "a variable appears twice in the antecedent"
    twice = (ValueAttribution("a", Or(AtomVal("x"), AtomVal("y"))), ValueAttribution("a", AtomVal("x")))
    for call in (
        lambda: parse_attribution_list("a:x+y, a:x"),
        lambda: parse_attribution_list("a:x+y, a:x", SCHEMA),
        lambda: conditional_distribution(THREE, FREQ, twice, "b"),
        lambda: at_query((THREE, FREQ), twice, "b", "u"),
        lambda: Judgment(twice, Atom("b"), AtomVal("u"), 0.5),
    ):
        with pytest.raises(IllFormed) as caught:
            call()
        assert str(caught.value) == message
    schema_path, csv_path, system = tmp_path / "s.txt", tmp_path / "t.csv", tmp_path / "s.sys"
    schema_path.write_text("a = x | y\nb = u | v\n")
    csv_path.write_text("a,b\nx,u\ny,v\nx,v\n")
    learn = ["learn", str(schema_path), str(csv_path), "--target", "b", "--sigma"]
    assert main([*learn, "a:x+y, a:x"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert main([*learn, "a:x", "-o", str(system)]) == 0
    capsys.readouterr()
    system.write_text(system.read_text().replace("sigma a:x\n", "sigma a:x+y, a:x\n"))
    assert main(["compare", str(schema_path), str(system), str(system), "--kind", "jt"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_index_is_not_part_of_equality():
    queried, fresh = _ts(_rows(THREE)), _ts(_rows(THREE))
    conditional_distribution(queried, FREQ, sigma("b:u"), "a")
    assert queried == fresh
    assert fresh == queried
    assert repr(queried) == repr(fresh)


# ---------------------------------------------------------------------------
# The column store against row-by-row counting, over CSV spellings

MIXED = AttributeSchema.of(
    [("a", ("x", "y", "z")), ("w", tuple(f"w{i}" for i in range(300))), ("b", ("u", "v"))]
)


def _spell(rng, header, rows):
    """`rows` under `header` as CSV text, with padding, quotes, blank lines and CRLF at random."""

    def cell(atom):
        return rng.choice((atom, f" {atom}", f"{atom}\t ", f'"{atom}"', f'" {atom} "'))

    def blank():
        return rng.choice(("", " ", ",".join(" " * rng.randrange(3) for _ in header), '""'))

    lines = [", ".join(header)]
    for row in rows:
        while rng.random() < 0.15:
            lines.append(blank())
        lines.append(",".join(cell(row[name]) for name in header))
    lines += [blank() for _ in range(rng.randrange(3))]
    end = rng.choice(("\n", "\r\n"))
    return end.join(lines) + end


def _reference_masks(rows, name, atoms):
    masks = dict.fromkeys(atoms, 0)
    for i, row in enumerate(rows):
        masks[row[name]] |= 1 << i
    return tuple(masks.values())


def _random_sigma(rng, names):
    return tuple(
        ValueAttribution(name, _random_value(rng, MIXED.atoms(name)[:6]))
        for name in rng.sample(names, rng.randint(0, len(names)))
    )


def test_loader_matches_row_by_row_reference(tmp_path):
    rng = random.Random(16)
    path = tmp_path / "t.csv"
    estimators = (FREQ, Estimator("L", "laplace", 0.5))
    for case in range(40):
        header = rng.sample([name for name, _ in MIXED.variables], rng.randint(2, 3))
        n = rng.choice((0, 1, 5, 64, 65, 300))
        rows = [{name: rng.choice(MIXED.atoms(name)) for name in header} for _ in range(n)]
        path.write_bytes(_spell(rng, header, rows).encode())
        ts = load_training_set(path, MIXED, id="T")
        assert len(ts) == n
        for name in header:
            assert ts.column_masks(name) == _reference_masks(rows, name, MIXED.atoms(name)), (case, name)
        for est in estimators:
            target, *rest = rng.sample(header, len(header))
            sigma = _random_sigma(rng, rest)
            assert _outcome(lambda: conditional_distribution(ts, est, sigma, target).distribution) == (
                _naive_distribution(rows, MIXED, est, sigma, target)
            ), (case, sigma)


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("a,b\nx,u\nx\ny,w\n", ParseError, "row 3: 1 cells, expected 2"),
        ("a,b\nx,w\n\nx\n", SchemaMismatch, "row 2: 'w' is not an atomic value of 'b'"),
        ("a,b\n x , u \n , \ny, \n", SchemaMismatch, "row 4: '' is not an atomic value of 'b'"),
        ('a,b\r\n"x",u\r\n"y\n",v\r\nx,u,\r\n', ParseError, "row 4: 3 cells, expected 2"),
        ("a,b\nx,w\nx,{huge}\n", SchemaMismatch, "row 2: 'w' is not an atomic value of 'b'"),
        ("a,b\nx,u\nx,{huge}\n", ParseError, "row 3: field larger than field limit (131072)"),
    ],
)
def test_load_error_names_the_first_faulty_row(tmp_path, text, error, message):
    path = tmp_path / "t.csv"
    path.write_text(text.replace("{huge}", "u" * 140_000))  # over the csv field limit
    with pytest.raises(error) as caught:
        load_training_set(path, SCHEMA)
    assert type(caught.value) is error and str(caught.value) == message


def test_padding_and_empty_lines_stay_on_the_column_path(tmp_path, monkeypatch):
    # only a padded cell, an all-blank row with cells, or a fault sends the
    # load row by row
    path = tmp_path / "t.csv"
    path.write_text(' a , b \r\nx,"u"\r\n\r\ny,v\r\n\r\n')
    monkeypatch.setattr(systems, "_clean_rows", None)
    assert _rows(load_training_set(path, SCHEMA)) == [{"a": "x", "b": "u"}, {"a": "y", "b": "v"}]


def test_from_rows_checks_as_the_loader_does():
    with pytest.raises(SchemaMismatch, match="^header column 'q' is not a schema variable$"):
        _ts([{"a": "x", "q": "u"}])
    with pytest.raises(ParseError, match=r"^row 3: columns \['a'\], expected \['a', 'b'\]$"):
        _ts([{"a": "x", "b": "u"}, {"a": "y"}])
    empty = _ts([])
    assert len(empty) == 0 and set(empty.columns) == {"a", "b"}
    with pytest.raises(EmptySupport):
        conditional_distribution(empty, FREQ, sigma("b:u"), "a")


@pytest.mark.parametrize("cell", [1, None, ["x"]])
def test_from_rows_refuses_a_cell_that_is_not_a_string(cell):
    with pytest.raises(SchemaMismatch) as caught:
        _ts([{"a": cell, "b": "u"}])
    assert str(caught.value) == f"row 2: {cell!r} is not an atomic value of 'a'"


# ---------------------------------------------------------------------------
# Chunked loading against a row-by-row reference

CHUNK = systems._CHUNK
HUGE = "u" * 140_000  # over the csv field limit


def _reference_load(path, schema):
    """Loading one row at a time: the rows as dicts, or the first fault's (type, message)."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = [h.strip() for h in next(reader)]
        rows = []
        try:
            for lineno, cells in enumerate(reader, start=2):
                if all(not cell.strip() for cell in cells):
                    continue
                if len(cells) != len(header):
                    return ParseError, f"row {lineno}: {len(cells)} cells, expected {len(header)}"
                row = {column: cell.strip() for column, cell in zip(header, cells)}
                for column, atom in row.items():
                    if atom not in schema.atoms(column):
                        return SchemaMismatch, f"row {lineno}: {atom!r} is not an atomic value of {column!r}"
                rows.append(row)
        except csv.Error as exc:
            return ParseError, f"row {reader.line_num}: {exc}"
    return rows


# Each fault rewrites the line of a row of atoms (a, w, b); the blank ones drop the row.
CHUNK_FAULTS = {
    "unknown atom": lambda a, w, b: f"{a},{w},q",
    "cell count": lambda a, w, b: f"{a},{w}",
    "padded cell": lambda a, w, b: f" {a},{w}\t,{b} ",
    "blank line": lambda a, w, b: "",
    "all-blank row": lambda a, w, b: ' ,"",',
    "embedded newline": lambda a, w, b: f'"{a}\n",{w},{b}',
    "field limit": lambda a, w, b: f"{a},{w},{HUGE}",
}

def _chunk_places(n):
    """(where the fault goes, where a csv.Error goes), by index among `n` rows.

    The places are at the start of the last chunk, or, in a table of one
    chunk, at its last row.
    """
    start = (n - 1) // CHUNK * CHUNK
    if not start:
        return {"last row of a chunk": (n - 1, None)}
    places = {
        "last row of a chunk": (start - 1, None),
        "first row of the next chunk": (start, None),
        "row before an error in the next chunk": (start - 1, start),
    }
    if start + 1 < n:
        places["row before an error in its later chunk"] = (start, start + 1)
    return places


def test_chunk_boundaries_match_a_row_by_row_reference(tmp_path):
    rng = random.Random(19)
    header = ["a", "w", "b"]
    path = tmp_path / "t.csv"
    estimators = (FREQ, Estimator("L", "laplace", 0.5))
    cases = [(0, None, None, None)]
    for n in (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3):
        cases.append((n, None, None, None))
        for at, error_at in _chunk_places(n).values():
            cases += [(n, fault, at, error_at) for fault in CHUNK_FAULTS]
    assert len(cases) == 1 + 4 + len(CHUNK_FAULTS) * (1 + 1 + 3 + 4)
    errors = 0
    for n, fault, at, error_at in cases:
        case = (n, fault, at, error_at)
        rows = [tuple(rng.choice(MIXED.atoms(name)) for name in header) for _ in range(n)]
        lines = [",".join(row) for row in rows]
        if fault is not None:
            lines[at] = CHUNK_FAULTS[fault](*rows[at])
        if error_at is not None:
            lines[error_at] = CHUNK_FAULTS["field limit"](*rows[error_at])
        end = rng.choice(("\n", "\r\n"))
        path.write_bytes(end.join([",".join(header), *lines, ""]).encode())
        expected = _reference_load(path, MIXED)
        try:
            ts = load_training_set(path, MIXED, id="T")
        except (ParseError, SchemaMismatch) as exc:
            assert (type(exc), str(exc)) == expected, case
            errors += 1
            continue
        assert isinstance(expected, list), (case, expected)
        assert len(ts) == len(expected)
        for name in header:
            assert ts.column_masks(name) == _reference_masks(expected, name, MIXED.atoms(name)), case
        for est in estimators:
            target, *rest = rng.sample(header, len(header))
            sigma = _random_sigma(rng, rest)
            assert _outcome(lambda: conditional_distribution(ts, est, sigma, target).distribution) == (
                _naive_distribution(expected, MIXED, est, sigma, target)
            ), (case, sigma)
    # the unknown atom, the cell count and the field limit at each of the 9
    # places, and every other fault before one of the 3 csv errors
    assert errors == 3 * 9 + 4 * 3


def test_load_memory_is_bounded_by_a_chunk(tmp_path):
    names = [f"V{i}" for i in range(8)]
    schema = AttributeSchema.of([(name, tuple(f"{name}a{j}" for j in range(5))) for name in names])
    rng = random.Random(20)
    path = tmp_path / "t.csv"
    with open(path, "w") as handle:
        handle.write(",".join(names) + "\n")
        for _ in range(20_000):
            handle.write(",".join(rng.choice(schema.atoms(name)) for name in names) + "\n")
    tracemalloc.start()
    try:
        ts = load_training_set(path, schema)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ts) == 20_000
    # the finished table keeps 8 code strings of 20 000 characters, 0.16 MiB
    assert peak < 1 << 20, peak
