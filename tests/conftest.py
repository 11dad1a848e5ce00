import pytest

from tndpq.syntax import AttributeSchema


@pytest.fixture
def loan_schema() -> AttributeSchema:
    return AttributeSchema.of(
        [
            ("Age", tuple(str(n) for n in (18, 27, 35, 50, 65))),
            ("Gen", ("f", "m")),
            ("MS", ("single", "married", "divorced", "widowed")),
            ("Etn", ("white", "black", "asian", "hispanic")),
            ("Loan", ("yes", "no")),
        ]
    )


@pytest.fixture
def small_schema() -> AttributeSchema:
    return AttributeSchema.of([("X", ("a", "b", "c")), ("Y", ("u", "v")), ("Z", ("p", "q", "r"))])


@pytest.fixture
def conclusions_parse_back(monkeypatch):
    """Record the conclusion of every rule applied during a test; each must parse back.

    At teardown each conclusion is printed, parsed against its schema
    (which validates it) and compared with itself.
    """
    import copy

    from tndpq import calculus
    from tndpq.syntax import parse_judgment, print_judgment

    built = []

    def recording(match):
        def wrapper(conclusions, schema, side):
            conclusion, evidence = match(conclusions, schema, side)
            built.append((conclusion, schema))
            return conclusion, evidence

        return wrapper

    for key, reading in list(calculus._READINGS.items()):
        wrapped = copy.copy(reading)
        object.__setattr__(wrapped, "_match", recording(reading._match or calculus._compile(reading)))
        monkeypatch.setitem(calculus._READINGS, key, wrapped)
    yield
    for conclusion, schema in built:
        assert parse_judgment(print_judgment(conclusion), schema) == conclusion
