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
    from tndpq import calculus
    from tndpq.syntax import parse_judgment, print_judgment

    built = []

    def recording(handler):
        def wrapper(rule, conclusions, schema, side, direction):
            conclusion, evidence = handler(rule, conclusions, schema, side, direction)
            built.append((conclusion, schema))
            return conclusion, evidence

        return wrapper

    for rule, entry in list(calculus.RULES.items()):
        wrapped = calculus.Rule(entry.id, entry.premises, recording(entry.handler), entry.kind)
        monkeypatch.setitem(calculus.RULES, rule, wrapped)
    yield
    for conclusion, schema in built:
        assert parse_judgment(print_judgment(conclusion), schema) == conclusion
