"""Mutual-exclusivity decision procedure and brute-force oracle.

Two deterministic values of the same variable term are mutually exclusive
when their conjunction is refutable in classical logic extended with the
per-variable exclusivity axioms (distinct atoms are incompatible) and
exhaustivity axioms (some atom holds).

`exclusive` is the recursive decision procedure: over an arrow-free term
two values are exclusive when their cell masks (`syntax.fit`) are
disjoint; conditional terms are decided by antecedent matching.
`oracle_exclusive` decides the same question by enumerating every
admissible assignment of atoms to variables; over conditional terms it
shares the procedure's step cases.  Both start the same way: the term must
be linear (a term naming a variable twice is ill-formed), and both values
must fit it.  Neither accepts a conditional term below a
pair, such as `<X,[Y]Z>`, nor one whose antecedent is conditional, such as
`[[X]Y]Z`: antecedents are compared by their masks, which only arrow-free
terms have.  The step case for a negated disjunction is sound but not
complete: `~((a->p)+(a->q))` against `a->(p+q)` over `[X]Z` is decided
not exclusive, although the two are.
"""

from __future__ import annotations

from .errors import OracleTooLarge, ShapeMismatch
from .syntax import (
    Arrow,
    Atom,
    AtomVal,
    AttributeSchema,
    Cond,
    Neg,
    Or,
    Pair,
    Value,
    VariableTerm,
    fit,
    print_term,
    print_value,
    require_linear,
    term_atoms,
)

# ---------------------------------------------------------------------------
# Shared prologue


def _prologue(term, beta, delta, schema):
    """The fits of both values to the term (None over a conditional term).

    Each value is checked whole, since the step cases may stop before it
    has seen every branch.  A conditional below a pair fits a judgment, so
    the walk lets it through and the term check after it rejects it.
    """
    require_linear(term)
    b = fit(term, beta, schema)
    d = fit(term, delta, schema)
    if b is None:
        below = _below_a_pair(term)
        if below is not None:
            raise ShapeMismatch(f"conditional term {print_term(below)} below a pair")
        inner = term
        while type(inner) is Cond:
            if type(inner.antecedent) is Cond:
                raise ShapeMismatch(
                    f"conditional term {print_term(term)} has the conditional antecedent"
                    f" {print_term(inner.antecedent)}"
                )
            inner = inner.consequent
    return b, d


def _below_a_pair(term, in_pair=False):
    """The first conditional term below a pair in `term`, in text order, or None."""
    kind = type(term)
    if kind is Cond:
        return term if in_pair else _below_a_pair(term.antecedent) or _below_a_pair(term.consequent)
    if kind is Pair:
        return _below_a_pair(term.left, True) or _below_a_pair(term.right, True)
    return None


# ---------------------------------------------------------------------------
# Decision procedure


class _Trace:
    def __init__(self, lines: list[str] | None):
        self.lines = lines
        self.depth = 0

    def note(self, text) -> None:
        """Record the line `text()` builds; nothing is built without a trace."""
        if self.lines is not None:
            self.lines.append("  " * self.depth + text())


def exclusive(
    term: VariableTerm,
    beta: Value,
    delta: Value,
    schema: AttributeSchema,
    trace: list[str] | None = None,
) -> bool:
    """Decide mutual exclusivity of two values of the same linear variable term."""
    b, d = _prologue(term, beta, delta, schema)
    return _exclusive(term, beta, delta, schema, _Trace(trace), (b, d))


def _exclusive(term, beta, delta, schema, trace, fits=None) -> bool:
    """`fits` holds the two values' fits to `term` when the caller has them."""
    trace.note(lambda: f"{print_term(term)}: {print_value(beta)} vs {print_value(delta)}")
    trace.depth += 1
    try:
        if type(term) is Cond:

            def base(b, d) -> bool:
                equal = fit(term.antecedent, b.left, schema) == fit(term.antecedent, d.left, schema)
                trace.note(lambda: f"antecedents {'equal' if equal else 'differ'}")
                return equal and _exclusive(term.consequent, b.right, d.right, schema, trace)

            return _step_cases(beta, delta, base, trace.note)
        (b, width), (d, _) = fits or (fit(term, beta, schema), fit(term, delta, schema))
        trace.note(lambda: _explain_masks(term, b, d, width, schema))
        return not b & d
    finally:
        trace.depth -= 1


def _explain_masks(term, b: int, d: int, width: int, schema) -> str:
    verdict = "disjoint" if not b & d else "overlap"
    if isinstance(term, Atom):
        b_set, d_set = (
            "{" + ",".join(str(i + 1) for i in range(width) if m >> i & 1) + "}"
            for m in (b, d)
        )
        return f"index sets {b_set} vs {d_set} -> {verdict}"
    cells = _cell_names(term, schema)
    text = (
        f"{b.bit_count()} vs {d.bit_count()} of the {len(cells)} cells"
        f" of the rectangle -> {verdict}"
    )
    common = [cells[i] for i in range(len(cells)) if (b & d) >> i & 1]
    if common:
        shown = ", ".join("(" + ",".join(c) + ")" for c in common[:4])
        more = f" and {len(common) - 4} more" if len(common) > 4 else ""
        text += f" at {shown}{more}"
    return text


def _cell_names(term, schema) -> list[tuple[str, ...]]:
    """Atom names of each cell, indexed by the cell's bit position."""
    if isinstance(term, Atom):
        return [(a,) for a in schema.atoms(term.name)]
    return [
        l + r
        for l in _cell_names(term.left, schema)
        for r in _cell_names(term.right, schema)
    ]


# Conditional terms.  Step cases in a fixed, symmetric priority: strip
# double negations, distribute over disjunctions (every disjunct must be
# exclusive), push negation through conditionals, then negated disjunctions
# (some disjunct must be exclusive).  Base case: both sides conditionals,
# exclusive when the antecedents are equal and the consequents exclusive.
# The procedure and the oracle share the step cases and differ in how they
# decide the base case.  Each step case is its trace line, whether every
# part it splits a value into must be exclusive (else some part), and the
# split: the parts, or False where the case does not apply.
_STEPS = (
    ("strip double negation", True, lambda v: type(v) is Neg and type(v.inner) is Neg and [v.inner.inner]),
    ("disjunction: every disjunct must be exclusive", True, lambda v: type(v) is Or and [v.left, v.right]),
    ("negated conditional: push negation into the consequent", True,
     lambda v: type(v) is Neg and type(v.inner) is Arrow and [Arrow(v.inner.left, Neg(v.inner.right))]),
    ("negated disjunction: some disjunct must be exclusive", False,
     lambda v: type(v) is Neg and type(v.inner) is Or and [Neg(v.inner.left), Neg(v.inner.right)]),
)


def _step_cases(beta, delta, base, note) -> bool:
    """Reduce two values of a conditional term to `base(b, d)` on conditionals.

    Both values fit the term, so both are conditionals once no step case
    applies.  `note` receives a thunk for the line each step case adds to a
    trace.  The second pair of each split waits on a list, not the stack, so
    the walk takes one frame however deep both values are; it stops where
    `all` or `any` over the pairs would.
    """
    pending = []  # per open split: whether both pairs must be exclusive, and the second pair
    while True:
        for text, every, split in _STEPS:
            parts, flip = split(beta), False
            if not parts:
                parts, flip = split(delta), True
            if parts:
                note(lambda: text)
                (beta, delta), *second = [(beta, part) if flip else (part, delta) for part in parts]
                pending.extend((every, pair) for pair in second)
                break
        else:
            verdict = base(beta, delta)
            while pending and pending[-1][0] != verdict:
                pending.pop()
            if not pending:
                return verdict
            beta, delta = pending.pop()[1]


# ---------------------------------------------------------------------------
# Oracle

ORACLE_ATOM_BUDGET = 20


def oracle_exclusive(
    term: VariableTerm, beta: Value, delta: Value, schema: AttributeSchema
) -> bool:
    """Brute-force exclusivity check by assignment enumeration.

    Each involved variable is assigned exactly one atom (encoding the
    exclusivity and exhaustivity axioms) and the conjunction of the two
    values is evaluated classically.  Conditional terms go through the step
    cases that `exclusive` uses, so the oracle checks only their base case
    independently: enumerated antecedent equality and enumerated consequent
    exclusivity.
    """
    _prologue(term, beta, delta, schema)
    budget = sum(len(schema.atoms(v)) for v in term_atoms(term))
    if budget > ORACLE_ATOM_BUDGET:
        raise OracleTooLarge(f"{budget} atoms involved, budget {ORACLE_ATOM_BUDGET}")
    return _oracle(term, beta, delta, schema)


def _oracle(term, beta, delta, schema) -> bool:
    if isinstance(term, Cond):

        def base(b, d) -> bool:
            equal = _oracle_equal(term.antecedent, b.left, d.left, schema)
            return equal and _oracle(term.consequent, b.right, d.right, schema)

        return _step_cases(beta, delta, base, lambda text: None)
    variables = sorted(term_atoms(term))
    for assignment in _assignments(variables, schema):
        if _sat(beta, assignment, schema) and _sat(delta, assignment, schema):
            return False
    return True


def _oracle_equal(subterm, x, y, schema) -> bool:
    variables = sorted(term_atoms(subterm))
    return all(
        _sat(x, assignment, schema) == _sat(y, assignment, schema)
        for assignment in _assignments(variables, schema)
    )


def _assignments(variables, schema):
    if not variables:
        yield {}
        return
    head, *rest = variables
    for tail in _assignments(rest, schema):
        for atom in schema.atoms(head):
            yield {head: atom, **tail}


def _sat(value: Value, assignment: dict, schema) -> bool:
    """Whether the assignment satisfies `value`, which fits an arrow-free term."""
    if isinstance(value, AtomVal):
        return assignment[schema.owner(value.name)] == value.name
    if isinstance(value, Neg):
        return not _sat(value.inner, assignment, schema)
    if isinstance(value, Or):
        return _sat(value.left, assignment, schema) or _sat(value.right, assignment, schema)
    return _sat(value.left, assignment, schema) and _sat(value.right, assignment, schema)
