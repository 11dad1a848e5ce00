"""Abstract syntax, concrete grammar, parser and canonical printer.

Concrete notation (ASCII):

    Age:27, Gen:f, MS:married+divorced, Etn:~white |> Loan : yes @ 0.60

``~`` is negation, ``+`` disjunction, ``*`` product, ``->`` conditional,
``<t,u>`` pairs, ``fst(t)``/``snd(t)`` projections, ``[t]u`` conditional
terms, ``|>`` separates the attribution list from the queried attribution
and ``@`` carries the probability.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import IllFormed, MixedVariables, ParseError, UnknownSymbol

# ---------------------------------------------------------------------------
# Schema


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered variables, each with an ordered list of atomic values.

    Atomic-value names must be globally unique so every atom determines
    its owning variable.
    """

    variables: tuple[tuple[str, tuple[str, ...]], ...]
    _atoms_of: dict = field(init=False, repr=False, compare=False)
    _owner_of: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        atoms_of, owner_of = {}, {}
        for name, atoms in self.variables:
            if name in atoms_of:
                raise IllFormed(f"duplicate variable {name!r}")
            atoms_of[name] = atoms
            if len(atoms) < 2:
                raise IllFormed(f"variable {name!r} needs at least 2 atomic values")
            if len(set(atoms)) != len(atoms):
                raise IllFormed(f"duplicate atomic value within {name!r}")
            overlap = owner_of.keys() & set(atoms)
            if overlap:
                raise IllFormed(f"atomic values shared across variables: {sorted(overlap)}")
            owner_of.update(dict.fromkeys(atoms, name))
        object.__setattr__(self, "_atoms_of", atoms_of)
        object.__setattr__(self, "_owner_of", owner_of)

    @classmethod
    def of(cls, mapping) -> "AttributeSchema":
        """Build from a dict or iterable of (name, atoms) pairs."""
        items = mapping.items() if hasattr(mapping, "items") else mapping
        return cls(tuple((n, tuple(a)) for n, a in items))

    @property
    def variable_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.variables)

    def atoms(self, variable: str) -> tuple[str, ...]:
        try:
            return self._atoms_of[variable]
        except KeyError:
            raise UnknownSymbol(f"unknown variable {variable!r}") from None

    def owner(self, atom: str) -> str:
        try:
            return self._owner_of[atom]
        except KeyError:
            raise UnknownSymbol(f"unknown atomic value {atom!r}") from None

    def has_variable(self, name: str) -> bool:
        return name in self._atoms_of

    def has_atom(self, name: str) -> bool:
        return name in self._owner_of

    def atom_index(self, variable: str, atom: str) -> int:
        """1-based position of `atom` within `variable`'s declared order."""
        atoms = self.atoms(variable)
        try:
            return atoms.index(atom) + 1
        except ValueError:
            raise UnknownSymbol(f"{atom!r} is not an atomic value of {variable!r}") from None


def load_schema(path) -> AttributeSchema:
    """Read a schema file: one `name = v1 | v2 | ...` line per variable."""
    variables = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"schema line {lineno}: expected 'name = v1 | v2 | ...'")
            name, _, rhs = line.partition("=")
            atoms = tuple(part.strip() for part in rhs.split("|"))
            if any(not a for a in atoms):
                raise ParseError(f"schema line {lineno}: empty atomic value")
            variables.append((name.strip(), atoms))
    return AttributeSchema(tuple(variables))


def save_schema(schema: AttributeSchema, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for name, atoms in schema.variables:
            handle.write(f"{name} = {' | '.join(atoms)}\n")


# ---------------------------------------------------------------------------
# Terms


class VariableTerm:
    """Base class for variable terms (subjects of queries)."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(VariableTerm):
    name: str


@dataclass(frozen=True)
class Pair(VariableTerm):
    left: VariableTerm
    right: VariableTerm


@dataclass(frozen=True)
class Fst(VariableTerm):
    inner: VariableTerm


@dataclass(frozen=True)
class Snd(VariableTerm):
    inner: VariableTerm


@dataclass(frozen=True)
class Cond(VariableTerm):
    antecedent: VariableTerm
    consequent: VariableTerm


def reduce_projections(term: VariableTerm) -> VariableTerm:
    """Apply fst(<t,u>)=t and snd(<t,u>)=u exhaustively.

    Projections on non-pairs are left symbolic; the result is a fixpoint.
    """
    if isinstance(term, Atom):
        return term
    if isinstance(term, Pair):
        return Pair(reduce_projections(term.left), reduce_projections(term.right))
    if isinstance(term, Cond):
        return Cond(reduce_projections(term.antecedent), reduce_projections(term.consequent))
    if isinstance(term, Fst):
        inner = reduce_projections(term.inner)
        return inner.left if isinstance(inner, Pair) else Fst(inner)
    if isinstance(term, Snd):
        inner = reduce_projections(term.inner)
        return inner.right if isinstance(inner, Pair) else Snd(inner)
    raise TypeError(f"not a term: {term!r}")


def term_atoms(term: VariableTerm) -> set[str]:
    """Atomic variable names occurring in a term (after projection reduction)."""
    term = reduce_projections(term)
    out: set[str] = set()

    def walk(t: VariableTerm) -> None:
        if isinstance(t, Atom):
            out.add(t.name)
        elif isinstance(t, Pair):
            walk(t.left)
            walk(t.right)
        elif isinstance(t, Cond):
            walk(t.antecedent)
            walk(t.consequent)
        else:
            walk(t.inner)

    walk(term)
    return out


# ---------------------------------------------------------------------------
# Values


class Value:
    """Base class for values (outputs attributed to variables)."""

    __slots__ = ()


@dataclass(frozen=True)
class AtomVal(Value):
    name: str


@dataclass(frozen=True)
class Neg(Value):
    inner: Value


@dataclass(frozen=True)
class Or(Value):
    left: Value
    right: Value


@dataclass(frozen=True)
class Prod(Value):
    left: Value
    right: Value


@dataclass(frozen=True)
class Arrow(Value):
    left: Value
    right: Value


def value_atoms(value: Value) -> set[str]:
    if isinstance(value, AtomVal):
        return {value.name}
    if isinstance(value, Neg):
        return value_atoms(value.inner)
    return value_atoms(value.left) | value_atoms(value.right)


def is_deterministic(value: Value) -> bool:
    """True iff the value is in class O: no products, no conditionals."""
    if isinstance(value, AtomVal):
        return True
    if isinstance(value, Neg):
        return is_deterministic(value.inner)
    if isinstance(value, Or):
        return is_deterministic(value.left) and is_deterministic(value.right)
    return False


def single_variable_of(value: Value, schema: AttributeSchema) -> str:
    """The unique variable owning every atom of `value`."""
    owners = {schema.owner(a) for a in value_atoms(value)}
    if len(owners) != 1:
        raise MixedVariables(f"value mixes variables {sorted(owners)}")
    return owners.pop()


# ---------------------------------------------------------------------------
# Attributions and judgments


@dataclass(frozen=True)
class ValueAttribution:
    """`variable : value` with a deterministic value over that variable."""

    variable: str
    value: Value

    def validate(self, schema: AttributeSchema) -> "ValueAttribution":
        if not schema.has_variable(self.variable):
            raise UnknownSymbol(f"unknown variable {self.variable!r}")
        if not is_deterministic(self.value):
            raise IllFormed(f"attribution to {self.variable!r} uses a non-deterministic value")
        if single_variable_of(self.value, schema) != self.variable:
            raise IllFormed(f"value atoms do not belong to {self.variable!r}")
        return self


@dataclass(frozen=True)
class Judgment:
    """sigma |> subject : value @ probability."""

    antecedent: tuple[ValueAttribution, ...]
    subject: VariableTerm
    value: Value
    probability: float

    def __post_init__(self):
        if not -0.0 <= self.probability <= 1.0:
            raise IllFormed(f"probability {self.probability} outside [0, 1]")
        variables = [va.variable for va in self.antecedent]
        if len(set(variables)) != len(variables):
            raise IllFormed("a variable appears twice in the antecedent")

    def validate(self, schema: AttributeSchema) -> "Judgment":
        for va in self.antecedent:
            va.validate(schema)
        subject_vars = term_atoms(self.subject)
        for name in subject_vars:
            if not schema.has_variable(name):
                raise UnknownSymbol(f"unknown variable {name!r}")
        if subject_vars & {va.variable for va in self.antecedent}:
            raise IllFormed("subject variable occurs in the antecedent")
        for atom in value_atoms(self.value):
            if not schema.has_atom(atom):
                raise UnknownSymbol(f"unknown atomic value {atom!r}")
        return self

    def sigma_key(self):
        """Order-insensitive view of the antecedent, keyed by variable."""
        return frozenset((va.variable, va.value) for va in self.antecedent)

    def with_probability(self, p: float) -> "Judgment":
        return Judgment(self.antecedent, self.subject, self.value, p)


def same_sigma(a: Judgment | tuple, b: Judgment | tuple) -> bool:
    if a is b or a == b:
        return True
    key_a = a.sigma_key() if isinstance(a, Judgment) else frozenset((v.variable, v.value) for v in a)
    key_b = b.sigma_key() if isinstance(b, Judgment) else frozenset((v.variable, v.value) for v in b)
    return key_a == key_b


# ---------------------------------------------------------------------------
# Tokenizer / parser

# One pattern scans the whole text (the tokenizer recipe of the `re` docs).
# Each match is one token, tried in this order: whitespace is skipped; `|>`
# and `->`; a numeral, unless an ASCII word character follows it; single
# punctuation; a word of Unicode letters and digits, `_` and `.`, which is a
# number when it starts with a digit or `.` and `float` reads it (`1_0`);
# anything else is an error.  The numeral's look-ahead also refuses any
# decimal digit (`1٣x`): the longest numeral is never followed by one, and
# every shorter match stops before a digit, `.`, `e` or `E`, so a rejected
# numeral is not retried shorter.  This does the work of an atomic group,
# which `re` lacks before Python 3.11.
_TOKEN_RE = re.compile(
    r"""
    \s+
    | (?P<punct>\|>|->|[,:+*~()<>\[\]@])
    | (?P<number>(?:\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)(?![A-Za-z0-9_.]|\d))
    | (?P<numeric>[\d.][\w.]*)
    | (?P<ident>\w[\w.]*)
    | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) triples ending with ("eof", "", len(text)).

    The kind is "ident", "number" or the punctuation itself.
    """
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        word = m.group()
        if kind == "punct":
            kind = word
        elif kind == "numeric":
            kind = "number" if _is_number(word) else "ident"
        elif kind == "bad":
            raise ParseError(f"unexpected character {word!r}", m.start())
        tokens.append((kind, word, m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


def _is_number(word: str) -> bool:
    try:
        float(word)
        return True
    except ValueError:
        return False


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> str:
        """The kind of the next token."""
        return self.tokens[self.pos][0]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> None:
        found, text, pos = self.next()
        if found != kind:
            raise ParseError(f"expected {kind!r}, found {text!r}", pos)

    def ident(self) -> str:
        kind, text, pos = self.next()
        if kind not in ("ident", "number"):
            raise ParseError(f"expected identifier, found {text!r}", pos)
        return text

    # values: arrow < or < prod < neg < primary
    def value(self) -> Value:
        left = self.value_or()
        if self.peek() == "->":
            self.next()
            return Arrow(left, self.value())
        return left

    def value_or(self) -> Value:
        node = self.value_prod()
        while self.peek() == "+":
            self.next()
            node = Or(node, self.value_prod())
        return node

    def value_prod(self) -> Value:
        node = self.value_neg()
        while self.peek() == "*":
            self.next()
            node = Prod(node, self.value_neg())
        return node

    def value_neg(self) -> Value:
        if self.peek() == "~":
            self.next()
            return Neg(self.value_neg())
        return self.value_primary()

    def value_primary(self) -> Value:
        if self.peek() == "(":
            self.next()
            node = self.value()
            self.expect(")")
            return node
        return AtomVal(self.ident())

    def term(self) -> VariableTerm:
        kind = self.peek()
        if kind == "<":
            self.next()
            left = self.term()
            self.expect(",")
            right = self.term()
            self.expect(">")
            return Pair(left, right)
        if kind == "[":
            self.next()
            antecedent = self.term()
            self.expect("]")
            return Cond(antecedent, self.term())
        name = self.ident()
        if name in ("fst", "snd") and self.peek() == "(":
            self.next()
            inner = self.term()
            self.expect(")")
            return Fst(inner) if name == "fst" else Snd(inner)
        return Atom(name)

    def attribution(self) -> ValueAttribution:
        variable = self.ident()
        self.expect(":")
        return ValueAttribution(variable, self.value())

    def judgment(self) -> Judgment:
        attributions: list[ValueAttribution] = []
        if self.peek() != "|>":
            attributions.append(self.attribution())
            while self.peek() == ",":
                self.next()
                attributions.append(self.attribution())
        self.expect("|>")
        subject = self.term()
        self.expect(":")
        value = self.value()
        self.expect("@")
        kind, text, pos = self.next()
        if kind not in ("number", "ident") or not _is_number(text):
            raise ParseError(f"expected probability, found {text!r}", pos)
        probability = float(text)
        self.expect("eof")
        return Judgment(tuple(attributions), subject, value, probability)


def parse_value(text: str, schema: AttributeSchema | None = None) -> Value:
    parser = _Parser(text)
    value = parser.value()
    parser.expect("eof")
    if schema is not None:
        for atom in value_atoms(value):
            if not schema.has_atom(atom):
                raise UnknownSymbol(f"unknown atomic value {atom!r}")
    return value


def parse_term(text: str, schema: AttributeSchema | None = None) -> VariableTerm:
    parser = _Parser(text)
    term = parser.term()
    parser.expect("eof")
    if schema is not None:
        for name in term_atoms(term):
            if not schema.has_variable(name):
                raise UnknownSymbol(f"unknown variable {name!r}")
    return term


def parse_attribution_list(text: str, schema: AttributeSchema | None = None) -> tuple[ValueAttribution, ...]:
    text = text.strip()
    if not text:
        return ()
    parser = _Parser(text)
    attributions = [parser.attribution()]
    while parser.peek() == ",":
        parser.next()
        attributions.append(parser.attribution())
    parser.expect("eof")
    if schema is not None:
        for va in attributions:
            va.validate(schema)
    return tuple(attributions)


def parse_judgment(text: str, schema: AttributeSchema) -> Judgment:
    """Parse and validate one judgment against the schema."""
    judgment = _Parser(text).judgment()
    for va in judgment.antecedent:
        if not is_deterministic(va.value):
            raise IllFormed(f"antecedent attribution to {va.variable!r} is not deterministic")
    return judgment.validate(schema)


# ---------------------------------------------------------------------------
# Printer

_PREC_ARROW, _PREC_OR, _PREC_PROD, _PREC_NEG, _PREC_ATOM = 0, 1, 2, 3, 4


def _print_value(value: Value, parent_prec: int = 0) -> str:
    if isinstance(value, AtomVal):
        return value.name
    if isinstance(value, Neg):
        return "~" + _print_value(value.inner, _PREC_NEG)
    if isinstance(value, Or):
        prec, op = _PREC_OR, "+"
    elif isinstance(value, Prod):
        prec, op = _PREC_PROD, "*"
    else:
        prec, op = _PREC_ARROW, "->"
    if isinstance(value, Arrow):
        # right-associative
        text = f"{_print_value(value.left, prec + 1)}{op}{_print_value(value.right, prec)}"
    else:
        text = f"{_print_value(value.left, prec)}{op}{_print_value(value.right, prec + 1)}"
    return f"({text})" if prec < parent_prec else text


def print_value(value: Value) -> str:
    return _print_value(value)


def print_term(term: VariableTerm) -> str:
    if isinstance(term, Atom):
        return term.name
    if isinstance(term, Pair):
        return f"<{print_term(term.left)},{print_term(term.right)}>"
    if isinstance(term, Fst):
        return f"fst({print_term(term.inner)})"
    if isinstance(term, Snd):
        return f"snd({print_term(term.inner)})"
    inner = print_term(term.consequent)
    return f"[{print_term(term.antecedent)}]{inner}"


def print_attribution_list(attributions) -> str:
    return ", ".join(f"{va.variable}:{print_value(va.value)}" for va in attributions)


def print_judgment(judgment: Judgment) -> str:
    """Canonical one-line form; `parse_judgment` inverts it exactly."""
    prefix = print_attribution_list(judgment.antecedent)
    if prefix:
        prefix += " "
    return (
        f"{prefix}|> {print_term(judgment.subject)} : "
        f"{print_value(judgment.value)} @ {judgment.probability!r}"
    )
