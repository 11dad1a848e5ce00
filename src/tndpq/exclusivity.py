"""Mutual-exclusivity decision procedure and brute-force oracle.

Two deterministic values of the same variable term are mutually exclusive
when their conjunction is refutable in classical logic extended with the
per-variable exclusivity axioms (distinct atoms are incompatible) and
exhaustivity axioms (some atom holds).

`exclusive` is the recursive decision procedure: over an arrow-free term a
value denotes a set of cells, held as one int bitmask, and two values are
exclusive when their masks are disjoint; conditional terms are decided by
antecedent matching.  `oracle_exclusive` decides the same question by
enumerating every admissible assignment of atoms to variables; over
conditional terms it shares the procedure's step cases.  Both accept
linear terms only: a term naming a variable twice is ill-formed.  Neither
accepts a conditional term below a pair, such as `<X,[Y]Z>`, nor one whose
antecedent is conditional, such as `[[X]Y]Z`.  `cell_mask` gives the mask
itself; over one variable, bit i stands for its (i+1)-th atom.
"""

from __future__ import annotations

from .errors import (
    IllFormed,
    MixedVariables,
    OracleTooLarge,
    ShapeMismatch,
)
from .syntax import (
    Arrow,
    Atom,
    AtomVal,
    AttributeSchema,
    Cond,
    Neg,
    Or,
    Pair,
    Prod,
    Value,
    VariableTerm,
    print_term,
    print_value,
    reduce_projections,
    term_atoms,
)

# ---------------------------------------------------------------------------
# Shape discipline


def _check_shape(term, value, schema) -> None:
    """Reject values whose connective structure does not fit the term.

    Products belong under pair terms and conditionals under conditional
    terms; negation and disjunction are transparent.  Arrow-free terms are
    checked by the walk that computes their masks.
    """
    if not isinstance(term, Cond):
        _mask(term, value, schema)
        return
    while isinstance(value, (Neg, Or)):
        if isinstance(value, Neg):
            value = value.inner
        else:
            _check_shape(term, value.left, schema)
            value = value.right
    if not isinstance(value, Arrow):
        raise ShapeMismatch(
            f"conditional term {print_term(term)} needs a conditional, got {print_value(value)}"
        )
    _check_shape(term.antecedent, value.left, schema)
    _check_shape(term.consequent, value.right, schema)


def _require_arrow_free_antecedents(term) -> None:
    """Reject a conditional term with a conditional antecedent, such as `[[X]Y]Z`.

    Antecedents are compared by their cell masks, which only arrow-free
    terms have; no rule builds such a term.
    """
    whole = term
    while isinstance(term, Cond):
        if isinstance(term.antecedent, Cond):
            raise ShapeMismatch(
                f"conditional term {print_term(whole)} has the conditional antecedent"
                f" {print_term(term.antecedent)}"
            )
        term = term.consequent


def _require_linear(term) -> None:
    """Reject a reduced term that names a variable more than once."""
    seen: set[str] = set()

    def walk(t) -> None:
        if isinstance(t, Atom):
            if t.name in seen:
                raise IllFormed(f"term {print_term(term)} names {t.name!r} more than once")
            seen.add(t.name)
        elif isinstance(t, Pair):
            walk(t.left)
            walk(t.right)
        elif isinstance(t, Cond):
            walk(t.antecedent)
            walk(t.consequent)
        else:
            walk(t.inner)

    walk(term)


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
    term = reduce_projections(term)
    _require_linear(term)
    # `_cond_exclusive` may stop before it has seen every branch of a value,
    # so values of conditional terms are checked whole first; over an
    # arrow-free term the mask walk checks as it goes.
    if isinstance(term, Cond):
        _check_shape(term, beta, schema)
        _check_shape(term, delta, schema)
        _require_arrow_free_antecedents(term)
    return _exclusive(term, beta, delta, schema, _Trace(trace))


def _exclusive(term, beta, delta, schema, trace) -> bool:
    trace.note(lambda: f"{print_term(term)}: {print_value(beta)} vs {print_value(delta)}")
    trace.depth += 1
    try:
        if isinstance(term, Cond):
            return _cond_exclusive(term, beta, delta, schema, trace)
        b, width = _mask(term, beta, schema)
        d, _ = _mask(term, delta, schema)
        trace.note(lambda: _explain_masks(term, b, d, width, schema))
        return not b & d
    finally:
        trace.depth -= 1


# Arrow-free terms.  A value over a linear arrow-free term denotes a set of
# cells of the product of its variables' atom ranges, held as one int: an
# atom sets bit `index - 1`, a product places the right component's mask at
# offset i * width(right) for each set bit i of the left component's mask,
# `+` is `|` and `~` is XOR with the term's universe.  Two values are
# exclusive when their masks are disjoint and equal when the masks are.


def _mask(term, value, schema) -> tuple[int, int]:
    """The cell mask of `value` over the arrow-free `term`, and the term's width.

    The walk also checks that the value fits the term: the first misfit it
    meets raises `ShapeMismatch`, `MixedVariables` or `UnknownSymbol`.
    """
    if isinstance(value, Or):
        left, width = _mask(term, value.left, schema)
        right, _ = _mask(term, value.right, schema)
        return left | right, width
    if isinstance(value, Neg):
        inner, width = _mask(term, value.inner, schema)
        return ((1 << width) - 1) ^ inner, width
    if isinstance(term, Atom):
        if not isinstance(value, AtomVal):
            raise ShapeMismatch(
                f"{print_value(value)} is not a deterministic value for {term.name!r}"
            )
        if schema.owner(value.name) != term.name:
            raise MixedVariables(
                f"{value.name!r} is not an atomic value of {term.name!r}"
            )
        atoms = schema.atoms(term.name)
        return 1 << atoms.index(value.name), len(atoms)
    if isinstance(term, Pair):
        if not isinstance(value, Prod):
            raise ShapeMismatch(
                f"pair term {print_term(term)} needs a product, got {print_value(value)}"
            )
        left, left_width = _mask(term.left, value.left, schema)
        right, width = _mask(term.right, value.right, schema)
        out = 0
        while left:
            low = left & -left
            out |= right << (low.bit_length() - 1) * width
            left ^= low
        return out, left_width * width
    if isinstance(term, Cond):
        raise ShapeMismatch(f"conditional term {print_term(term)} below a pair")
    raise ShapeMismatch(f"unreduced projection in term {print_term(term)}")


def cell_mask(term: VariableTerm, value: Value, schema: AttributeSchema) -> int:
    """The cell mask of `value` over the reduced arrow-free `term`.

    Raises `ShapeMismatch`, `MixedVariables` or `UnknownSymbol` at the first
    misfit between the value and the term.
    """
    return _mask(term, value, schema)[0]


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
# decide the base case.


def _step_cases(beta, delta, base, note) -> bool:
    """Reduce two values of a conditional term to `base(b, d)` on conditionals.

    `note` receives a thunk for the line each step case adds to a trace.
    """
    for value, other, flip in ((beta, delta, False), (delta, beta, True)):
        if isinstance(value, Neg) and isinstance(value.inner, Neg):
            note(lambda: "strip double negation")
            stripped = value.inner.inner
            args = (other, stripped) if flip else (stripped, other)
            return _step_cases(*args, base, note)
    for value, other, flip in ((beta, delta, False), (delta, beta, True)):
        if isinstance(value, Or):
            note(lambda: "disjunction: every disjunct must be exclusive")
            return all(
                _step_cases(*((other, d) if flip else (d, other)), base, note)
                for d in (value.left, value.right)
            )
    for value, other, flip in ((beta, delta, False), (delta, beta, True)):
        if isinstance(value, Neg) and isinstance(value.inner, Arrow):
            note(lambda: "negated conditional: push negation into the consequent")
            pushed = Arrow(value.inner.left, Neg(value.inner.right))
            args = (other, pushed) if flip else (pushed, other)
            return _step_cases(*args, base, note)
    for value, other, flip in ((beta, delta, False), (delta, beta, True)):
        if isinstance(value, Neg) and isinstance(value.inner, Or):
            note(lambda: "negated disjunction: some disjunct must be exclusive")
            return any(
                _step_cases(*((other, Neg(d)) if flip else (Neg(d), other)), base, note)
                for d in (value.inner.left, value.inner.right)
            )
    if isinstance(beta, Arrow) and isinstance(delta, Arrow):
        return base(beta, delta)
    raise ShapeMismatch(
        f"not conditional-shaped: {print_value(beta)} vs {print_value(delta)}"
    )


def _cond_exclusive(term, beta, delta, schema, trace) -> bool:
    antecedent = term.antecedent

    def base(b, d) -> bool:
        equal = _mask(antecedent, b.left, schema)[0] == _mask(antecedent, d.left, schema)[0]
        trace.note(lambda: f"antecedents {'equal' if equal else 'differ'}")
        return equal and _exclusive(term.consequent, b.right, d.right, schema, trace)

    return _step_cases(beta, delta, base, trace.note)


# ---------------------------------------------------------------------------
# Oracle

ORACLE_ATOM_BUDGET = 20


def oracle_exclusive(
    term: VariableTerm, beta: Value, delta: Value, schema: AttributeSchema
) -> bool:
    """Brute-force exclusivity check by assignment enumeration.

    Each involved variable is assigned exactly one atom (encoding the
    exclusivity and exhaustivity axioms) and the conjunction of the two
    values is evaluated classically, reading conditionals as material
    implication.  Conditional terms go through the step cases that
    `exclusive` uses, so the oracle checks only their base case
    independently: enumerated antecedent equality and enumerated consequent
    exclusivity.
    """
    term = reduce_projections(term)
    _require_linear(term)
    _check_shape(term, beta, schema)
    _check_shape(term, delta, schema)
    _require_arrow_free_antecedents(term)
    budget = sum(len(schema.atoms(v)) for v in term_atoms(term))
    if budget > ORACLE_ATOM_BUDGET:
        raise OracleTooLarge(f"{budget} atoms involved, budget {ORACLE_ATOM_BUDGET}")
    return _oracle(term, beta, delta, schema)


def _oracle(term, beta, delta, schema) -> bool:
    if isinstance(term, Cond):
        return _oracle_cond(term, beta, delta, schema)
    variables = sorted(term_atoms(term))
    for assignment in _assignments(variables, schema):
        if _sat(beta, assignment, schema) and _sat(delta, assignment, schema):
            return False
    return True


def _oracle_cond(term, beta, delta, schema) -> bool:
    def base(b, d) -> bool:
        if not _oracle_equal(term.antecedent, b.left, d.left, schema):
            return False
        return _oracle(reduce_projections(term.consequent), b.right, d.right, schema)

    return _step_cases(beta, delta, base, lambda text: None)


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
    if isinstance(value, AtomVal):
        return assignment[schema.owner(value.name)] == value.name
    if isinstance(value, Neg):
        return not _sat(value.inner, assignment, schema)
    if isinstance(value, Or):
        return _sat(value.left, assignment, schema) or _sat(value.right, assignment, schema)
    if isinstance(value, Prod):
        return _sat(value.left, assignment, schema) and _sat(value.right, assignment, schema)
    return (not _sat(value.left, assignment, schema)) or _sat(value.right, assignment, schema)
