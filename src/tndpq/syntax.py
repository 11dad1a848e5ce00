"""Abstract syntax, concrete grammar, parser and canonical printer.

Concrete notation (ASCII):

    Age:27, Gen:f, MS:married+divorced, Etn:~white |> Loan : yes @ 0.60

``~`` is negation, ``+`` disjunction, ``*`` product, ``->`` conditional,
``<t,u>`` pairs, ``fst(t)``/``snd(t)`` projections, ``[t]u`` conditional
terms, ``|>`` separates the attribution list from the queried attribution
and ``@`` carries the probability.

The parser resolves each projection as it reads it: ``fst(<t,u>)`` is read
as ``t`` and ``snd(<t,u>)`` as ``u``, and a projection of anything but a pair
is refused.  So a term has one representation, built from variables, pairs
and conditional terms, and structural equality of terms is the calculus's
equality.  Printing a parsed term gives no projection back.

The package's records are classes decorated with `record`, which gives
them the subset of `dataclasses` that tndpq uses: `__init__` over the
annotated fields with defaults, `fresh(make)` default factories and
`__post_init__`; field-wise `__eq__` within one class; the dataclass
`Name(field=value, ...)` repr; and, when frozen, immutability and
`__hash__`.  Private (`_`-named) fields, such as the lookup maps of
`AttributeSchema`, stay out of `__init__`, `__eq__` and `__repr__`.  One
`exec` per class builds `__init__`, `__eq__` and `__hash__`, and `__repr__`
is made per class too, so importing a layer does not import `dataclasses`
and `inspect`.  Every record of the package, `calculus.Derivation` too,
is built here; `Derivation` alone also answers `dataclasses.replace`.

Each composite term and value carries a private `_depth`, atoms being 1
deep.  Building one deeper than `_MAX_DEPTH` (200) raises `IllFormed`, so
every walk over a term or value stays within the interpreter's stack.
"""

from __future__ import annotations

import re

from .errors import IllFormed, MixedVariables, ParseError, ShapeMismatch, TndpqError, UnknownSymbol

# ---------------------------------------------------------------------------
# Records


class fresh:
    """A field default made anew for each record: `steps: list = fresh(list)`."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


def _refuse_set(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


# A term or value is nested at most this deep, so that every walk that
# recurses once per level of one stays well inside the interpreter's stack.
_MAX_DEPTH = 200
_TOO_DEEP = "input nested too deeply"


def record(cls=None, /, *, frozen=False):
    """Give `cls` the methods of a record over its annotated fields, in order.

    `__init__` takes the public fields, with their defaults, and calls
    `__post_init__` when the class has one; a `fresh(make)` default calls
    `make()` for each record.  A private (`_`-named) field is no parameter
    and takes no part in `__eq__` or `__repr__`: it starts from its default
    if it has one, else `__post_init__` sets it.  `__eq__` holds between
    records of one class whose public fields are equal, and `__repr__`
    reads `Name(field=value, ...)`.  A field annotated with one of the
    class's own bases holds a child node: `__init__` then sets `_depth` to
    one more than the deepest child's and raises `IllFormed` past
    `_MAX_DEPTH`.  A frozen record refuses assignment and hashes its public
    fields; a mutable one is unhashable.  A method the class defines itself
    is kept.
    """
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    # The generated code reads each default from `env` as `_d_<field>`.
    env = {"_setattr": object.__setattr__, "_IllFormed": IllFormed, "_TOO_DEEP": _TOO_DEEP}
    assign = "_setattr(self, {name!r}, {value})" if frozen else "self.{name} = {value}"
    annotations = cls.__dict__.get("__annotations__", {})
    bases = {base.__name__ for base in cls.__mro__[1:]}
    children = [f"{name}._depth" for name, kind in annotations.items() if kind in bases]
    params, body, public, missing = ["self"], [], [], object()
    if children:
        deepest = children[0]
        for child in children[1:]:
            deepest = f"({deepest} if {deepest} > {child} else {child})"
        body += [f"depth = {deepest}", f"if depth >= {_MAX_DEPTH}: raise _IllFormed(_TOO_DEEP)"]
        body.append(assign.format(name="_depth", value="depth + 1"))
    for name in annotations:
        default = env[f"_d_{name}"] = cls.__dict__.get(name, missing)
        made = type(default) is fresh
        if made:
            delattr(cls, name)
        if name.startswith("_"):
            if made:
                body.append(assign.format(name=name, value=f"_d_{name}.make()"))
            continue
        public.append(name)
        params.append(name if default is missing else f"{name}=_d_{name}")
        value = f"_d_{name}.make() if {name} is _d_{name} else {name}" if made else name
        body.append(assign.format(name=name, value=value))
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    mine = "".join(f"self.{name}," for name in public)
    theirs = "".join(f"other.{name}," for name in public)
    shown = f"{cls.__qualname__}({', '.join(f'{name}=%r' for name in public)})"
    source = [
        f"def __init__({', '.join(params)}):",
        *(f"    {line}" for line in body or ["pass"]),
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return ({mine}) == ({theirs})",
        "    return NotImplemented",
    ]
    if frozen:
        source += ["def __hash__(self):", f"    return hash(({mine}))"]
    exec("\n".join(source), env)

    def __repr__(self):  # one frame per level of a nested record, as `__eq__` takes
        return shown % tuple(map(self.__getattribute__, public))

    env["__repr__"] = __repr__
    methods = {name: env[name] for name in ("__init__", "__eq__", "__repr__", "__hash__") if name in env}
    for name, method in methods.items():
        method.__qualname__ = f"{cls.__qualname__}.{name}"
    methods["__match_args__"] = tuple(public)
    if frozen:
        methods.update(__setattr__=_refuse_set, __delattr__=_refuse_delete)
    else:
        methods["__hash__"] = None
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


# ---------------------------------------------------------------------------
# Schema


@record(frozen=True)
class AttributeSchema:
    """Ordered variables, each with an ordered list of atomic values.

    Atomic-value names must be globally unique so every atom determines
    its owning variable.  Every name is one identifier or number token of
    the grammar, so that whatever the printer writes parses back.
    """

    variables: tuple[tuple[str, tuple[str, ...]], ...]
    _atoms_of: dict
    _owner_of: dict  # atom -> (variable, its bit)

    def __post_init__(self):
        atoms_of, owner_of = {}, {}
        for name, atoms in self.variables:
            for word in (name, *atoms):
                _require_word(word)
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
            owner_of.update((atom, (name, 1 << i)) for i, atom in enumerate(atoms))
        object.__setattr__(self, "_atoms_of", atoms_of)
        object.__setattr__(self, "_owner_of", owner_of)

    @classmethod
    def of(cls, mapping) -> "AttributeSchema":
        """Build from a dict or iterable of (name, atoms) pairs."""
        items = mapping.items() if hasattr(mapping, "items") else mapping
        return cls(tuple((n, tuple(a)) for n, a in items))

    def atoms(self, variable: str) -> tuple[str, ...]:
        try:
            return self._atoms_of[variable]
        except KeyError:
            raise UnknownSymbol(f"unknown variable {variable!r}") from None

    def owner(self, atom: str) -> str:
        try:
            return self._owner_of[atom][0]
        except KeyError:
            raise UnknownSymbol(f"unknown atomic value {atom!r}") from None

    def has_variable(self, name: str) -> bool:
        return name in self._atoms_of

    def has_atom(self, name: str) -> bool:
        return name in self._owner_of


def _require_word(word: str) -> None:
    """Reject a name that the tokenizer does not read as exactly one identifier or number."""
    try:
        tokens = _tokenize(word)
    except ParseError:
        tokens = []
    if len(tokens) != 2 or tokens[0][0] not in ("ident", "number") or tokens[0][1] != word:
        raise IllFormed(f"name {word!r} is not one identifier or number of the grammar")


class open_text:
    """`with open_text(path) as handle`: the file read as UTF-8 text.

    A leading byte-order mark, which some editors write, is dropped.  A byte
    that does not decode raises a ParseError that names the file.
    """

    def __init__(self, path, newline=None):
        self.path = path
        self.handle = open(path, encoding="utf-8-sig", newline=newline)

    def __enter__(self):
        return self.handle

    def __exit__(self, kind, exc, traceback):
        self.handle.close()
        if isinstance(exc, UnicodeDecodeError):
            raise ParseError(f"file {str(self.path)!r} is not UTF-8 text: {exc.reason}") from exc


def load_schema(path) -> AttributeSchema:
    """Read a schema file: one `name = v1 | v2 | ...` line per variable."""
    variables = []
    with open_text(path) as handle:
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


# ---------------------------------------------------------------------------
# Terms


class VariableTerm:
    """Base class for variable terms (subjects of queries)."""

    __slots__ = ()
    _depth = 1  # an atom's; `record` gives each composite term its own


@record(frozen=True)
class Atom(VariableTerm):
    name: str


@record(frozen=True)
class Pair(VariableTerm):
    left: VariableTerm
    right: VariableTerm


@record(frozen=True)
class Cond(VariableTerm):
    antecedent: VariableTerm
    consequent: VariableTerm


def _variables(term: VariableTerm) -> list[str]:
    """The variable names of `term` in text order, repeats kept."""
    kind = type(term)
    if kind is Atom:
        return [term.name]
    if kind is Pair:
        return _variables(term.left) + _variables(term.right)
    return _variables(term.antecedent) + _variables(term.consequent)


def term_atoms(term: VariableTerm) -> set[str]:
    """Atomic variable names occurring in a term."""
    return set(_variables(term))


def require_linear(term: VariableTerm) -> None:
    """Reject a term that names a variable more than once."""
    seen: set[str] = set()
    for name in _variables(term):
        if name in seen:
            raise IllFormed(f"term {print_term(term)} names {name!r} more than once")
        seen.add(name)


def _require_declared(names, schema: AttributeSchema) -> None:
    """Reject the first name, in order, that the schema does not declare as a variable."""
    for name in names:
        if not schema.has_variable(name):
            raise UnknownSymbol(f"unknown variable {name!r}")


# ---------------------------------------------------------------------------
# Values


class Value:
    """Base class for values (outputs attributed to variables)."""

    __slots__ = ()
    _depth = 1  # an atom's; `record` gives each composite value its own


@record(frozen=True)
class AtomVal(Value):
    name: str


@record(frozen=True)
class Neg(Value):
    inner: Value


@record(frozen=True)
class Or(Value):
    left: Value
    right: Value


@record(frozen=True)
class Prod(Value):
    left: Value
    right: Value


@record(frozen=True)
class Arrow(Value):
    left: Value
    right: Value


def subvalues(value: Value):
    """`value` and every value inside it; the atoms come in text order."""
    stack = [value]
    while stack:
        value = stack.pop()
        yield value
        kind = type(value)
        if kind is Neg:
            stack.append(value.inner)
        elif kind is not AtomVal:
            stack += (value.right, value.left)


# ---------------------------------------------------------------------------
# Fit of a value to a term
#
# A value fits a term when its connectives follow the term: `~` and
# `+` over any term, an atom of the variable under a variable, a product
# under a pair and a conditional under a conditional term.  Over a linear
# arrow-free term a fitting value denotes a set of cells of the product of
# its variables' atom ranges, held as one int: an atom sets bit `index - 1`,
# a product places the right component's mask at offset i * width(right) for
# each set bit i of the left component's mask, `+` is `|` and `~` is XOR
# with the term's universe.  Two values are exclusive when their masks are
# disjoint and equal when the masks are.  An attribution `v : β` is in class
# O exactly when β fits the term `v`.


def fit(term: VariableTerm, value: Value, schema: AttributeSchema) -> tuple[int, int] | None:
    """Check that `value` fits `term`, raising at the first misfit.

    Returns the value's cell mask and the term's width over an arrow-free
    term, and None over a term that holds a conditional.  The first misfit
    the walk meets, left to right, raises `ShapeMismatch`, `MixedVariables`
    or `UnknownSymbol`.
    """
    mask = _fit(term, value, schema)
    return None if mask is None else (mask, _width(term, schema))


def _fit(term, value, schema) -> int | None:
    kind = type(value)
    if kind is Or:
        left = _fit(term, value.left, schema)
        right = _fit(term, value.right, schema)
        return None if left is None else left | right
    if kind is Neg:
        inner = _fit(term, value.inner, schema)
        return None if inner is None else ((1 << _width(term, schema)) - 1) ^ inner
    kind = type(term)
    if kind is Atom:
        if type(value) is not AtomVal:
            raise ShapeMismatch(f"{print_value(value)} is not a deterministic value for {term.name!r}")
        owner, bit = schema._owner_of.get(value.name, (None, 0))
        if owner != term.name:
            schema.owner(value.name)  # an unknown atom is named as such
            raise MixedVariables(f"{value.name!r} is not an atomic value of {term.name!r}")
        return bit
    if kind is Pair:
        if type(value) is not Prod:
            raise ShapeMismatch(f"pair term {print_term(term)} needs a product, got {print_value(value)}")
        left = _fit(term.left, value.left, schema)
        right = _fit(term.right, value.right, schema)
        if left is None or right is None:
            return None
        width = _width(term.right, schema)
        out = 0
        while left:
            low = left & -left
            out |= right << (low.bit_length() - 1) * width
            left ^= low
        return out
    if type(value) is not Arrow:
        raise ShapeMismatch(f"conditional term {print_term(term)} needs a conditional, got {print_value(value)}")
    _fit(term.antecedent, value.left, schema)
    _fit(term.consequent, value.right, schema)
    return None


def _width(term, schema) -> int:
    """The number of cells of an arrow-free term whose value has been fitted."""
    if type(term) is Atom:
        return len(schema._atoms_of[term.name])
    return _width(term.left, schema) * _width(term.right, schema)


# ---------------------------------------------------------------------------
# Attributions and judgments


@record(frozen=True)
class ValueAttribution:
    """`variable : value` with a deterministic value over that variable."""

    variable: str
    value: Value
    _mask: tuple = (None, 0)  # the schema of the last mask worked out, and that mask

    def mask(self, schema: AttributeSchema) -> int:
        """The value's cell mask over the variable: bit i for its (i+1)-th atom.

        A value that does not fit is reported in σ's order: an unknown
        variable, a product or conditional, an unknown atom (the first in
        text order), atoms of several variables, atoms of another variable.
        The mask is kept with its schema, so asking again under that schema
        walks the value no more.
        """
        known, mask = self._mask
        if known is schema:
            return mask
        try:
            mask = _fit(Atom(self.variable), self.value, schema)
        except TndpqError:
            fault = self._fault(schema)
        else:
            object.__setattr__(self, "_mask", (schema, mask))
            return mask
        raise fault

    def _fault(self, schema) -> TndpqError:
        if not schema.has_variable(self.variable):
            return UnknownSymbol(f"unknown variable {self.variable!r}")
        values = list(subvalues(self.value))
        if any(type(v) is Prod or type(v) is Arrow for v in values):
            return IllFormed(f"attribution to {self.variable!r} uses a non-deterministic value")
        owners = {schema.owner(v.name) for v in values if type(v) is AtomVal}
        if len(owners) != 1:
            return MixedVariables(f"value mixes variables {sorted(owners)}")
        return IllFormed(f"value atoms do not belong to {self.variable!r}")

    def validate(self, schema: AttributeSchema) -> "ValueAttribution":
        self.mask(schema)
        return self


@record(frozen=True)
class Judgment:
    """sigma |> subject : value @ probability."""

    antecedent: tuple[ValueAttribution, ...]
    subject: VariableTerm
    value: Value
    probability: float

    def __post_init__(self):
        if not -0.0 <= self.probability <= 1.0:
            raise IllFormed(f"probability {self.probability} outside [0, 1]")
        require_distinct_variables(self.antecedent)

    def validate(self, schema: AttributeSchema, _named=None) -> "Judgment":
        """Check the antecedent, then that the value fits the linear subject.

        Every variable of the subject must be declared, and so must every
        name in `_named`: the variables that the subject's text named, in
        text order, those of a component that a projection discarded too.
        """
        for va in self.antecedent:
            va.validate(schema)
        names = _variables(self.subject)
        _require_declared(names if _named is None else _named, schema)
        if any(va.variable in names for va in self.antecedent):
            raise IllFormed("subject variable occurs in the antecedent")
        if len(set(names)) < len(names):
            require_linear(self.subject)
        _fit(self.subject, self.value, schema)
        return self

    def with_probability(self, p: float) -> "Judgment":
        return Judgment(self.antecedent, self.subject, self.value, p)


def require_distinct_variables(sigma) -> None:
    """Reject a context σ in which two attributions name one variable."""
    if len(sigma) > 1 and len({va.variable for va in sigma}) != len(sigma):
        raise IllFormed("a variable appears twice in the antecedent")


def same_sigma(a: Judgment | tuple, b: Judgment | tuple) -> bool:
    """Whether two contexts, or judgments' antecedents, are equal as tuples or else as sets."""
    a = a.antecedent if isinstance(a, Judgment) else a
    b = b.antecedent if isinstance(b, Judgment) else b
    return a == b or frozenset(a) == frozenset(b)


# ---------------------------------------------------------------------------
# Tokenizer / parser

# One pattern reads the whole text, and one `findall` gives the parser the
# texts of its tokens in order, with no kinds or positions.  A token is the
# pattern's one group, tried in this order: `|>`, `->` and single
# punctuation; a numeral, unless an ASCII word character follows it; a word
# of Unicode letters and digits, `_` and `.`, which is a number when it
# starts with a digit or `.` and `float` reads it (`1_0`).  Whitespace
# matches nothing and is skipped.  Any other character matches `\S` outside
# the group and so comes out as an empty text, which no rule of the grammar
# accepts.  Only once a parse has failed does `_tokenize` read the text
# again with the same pattern, for the kind and position that the error
# names, or for the first unexpected character.  The numeral's look-ahead
# also refuses any decimal digit (`1٣x`): the longest numeral is never
# followed by one, and every shorter match stops before a digit, `.`, `e` or
# `E`, so a rejected numeral is not retried shorter and the word alternative
# reads the whole word.  This does the work of an atomic group, which `re`
# lacks before Python 3.11.
_TOKEN_RE = re.compile(
    r"""
    ( \|> | -> | [,:+*~()<>\[\]@]
    | (?:\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)(?![A-Za-z0-9_.]|\d)
    | [\w.]+
    )
    | \S
    """,
    re.VERBOSE,
)

# The token texts that are not a word (identifier or number): punctuation,
# the empty text of an unexpected character, and None, the end of the text.
_NOT_WORD = frozenset(["|>", "->", *",:+*~()<>[]@", "", None])


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) triples ending with ("eof", "", len(text)).

    The kind is "ident", "number" or the punctuation itself.
    """
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        word = m.group(1)
        if word is None:
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        if word in _NOT_WORD:
            kind = word
        elif (word[0] == "." or word[0].isdecimal()) and _is_number(word):
            kind = "number"
        else:
            kind = "ident"
        tokens.append((kind, word, m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


def _is_number(word: str) -> bool:
    try:
        float(word)
        return True
    except ValueError:
        return False


# The binary value connectives, read by both the parser and the printer:
# token -> (node class, binding power, right-associative).  `~` binds
# tighter than all of them.
_BINARY = {"->": (Arrow, 0, True), "+": (Or, 1, False), "*": (Prod, 2, False)}
_SYMBOL = {cls: (op, power, right) for op, (cls, power, right) in _BINARY.items()}
_NEG_POWER = 3


class _Parser:
    """Top-down operator precedence over the token texts of one text.

    `tokens` ends with None and `pos` indexes the next token.  A rule that
    meets a token it cannot take raises `fail`, which names that token.
    `named` collects the variables that terms name, in text order.
    """

    __slots__ = ("text", "tokens", "pos", "named")

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)
        self.tokens.append(None)
        self.pos = 0
        self.named = []

    def fail(self, expected: str) -> ParseError:
        """The error at the next token, or at the first unexpected character of the text."""
        _, found, position = _tokenize(self.text)[self.pos]
        return ParseError(f"expected {expected}, found {found!r}", position)

    def whole(self, rule, *args):
        """`rule(*args)`, which must read to the end of the text; it recurses before any node bounds it."""
        try:
            node = rule(*args)
        except RecursionError:
            raise ParseError(_TOO_DEEP) from None
        if self.tokens[self.pos] is not None:
            raise self.fail("'eof'")
        return node

    def value(self, floor: int = 0) -> Value:
        """A value whose binary connectives bind at `floor` or tighter (precedence climbing)."""
        tokens = self.tokens
        pos = self.pos
        tok = tokens[pos]
        self.pos = pos + 1
        if tok == "~":
            node = Neg(self.value(_NEG_POWER))
        elif tok == "(":
            node = self.value()
            if tokens[self.pos] != ")":
                raise self.fail("')'")
            self.pos += 1
        elif tok in _NOT_WORD:
            self.pos = pos
            raise self.fail("identifier")
        else:
            node = AtomVal(tok)
        while True:
            entry = _BINARY.get(tokens[self.pos])
            if entry is None or entry[1] < floor:
                return node
            cls, power, right = entry
            self.pos += 1
            node = cls(node, self.value(power if right else power + 1))

    def term(self) -> VariableTerm:
        """A term, each projection in it resolved: `fst(<t,u>)` reads as t and `snd(<t,u>)` as u."""
        tokens = self.tokens
        pos = self.pos
        tok = tokens[pos]
        self.pos = pos + 1
        if tok == "<":
            left = self.term()
            if tokens[self.pos] != ",":
                raise self.fail("','")
            self.pos += 1
            right = self.term()
            if tokens[self.pos] != ">":
                raise self.fail("'>'")
            self.pos += 1
            return Pair(left, right)
        if tok == "[":
            antecedent = self.term()
            if tokens[self.pos] != "]":
                raise self.fail("']'")
            self.pos += 1
            return Cond(antecedent, self.term())
        if tok in _NOT_WORD:
            self.pos = pos
            raise self.fail("identifier")
        if (tok == "fst" or tok == "snd") and tokens[pos + 1] == "(":
            self.pos = pos + 2
            inner = self.term()
            if tokens[self.pos] != ")":
                raise self.fail("')'")
            self.pos += 1
            if inner.__class__ is not Pair:
                raise ShapeMismatch(f"unreduced projection in term {tok}({print_term(inner)})")
            return inner.left if tok == "fst" else inner.right
        self.named.append(tok)
        return Atom(tok)

    def attributions(self, end: str | None) -> tuple[ValueAttribution, ...]:
        """Attributions separated by `,`, up to the token `end`, which is left unread.

        `end` None stands for the end of the text.
        """
        tokens = self.tokens
        attributions = []
        if tokens[self.pos] != end:
            while True:
                pos = self.pos
                variable = tokens[pos]
                if variable in _NOT_WORD:
                    raise self.fail("identifier")
                if tokens[pos + 1] != ":":
                    self.pos = pos + 1
                    raise self.fail("':'")
                self.pos = pos + 2
                attributions.append(ValueAttribution(variable, self.value()))
                if tokens[self.pos] != ",":
                    break
                self.pos += 1
        if tokens[self.pos] != end:
            raise self.fail("'eof'" if end is None else repr(end))
        return tuple(attributions)

    def judgment(self) -> Judgment:
        antecedent = self.attributions("|>")
        self.pos += 1
        subject = self.term()
        tokens = self.tokens
        if tokens[self.pos] != ":":
            raise self.fail("':'")
        self.pos += 1
        value = self.value()
        if tokens[self.pos] != "@":
            raise self.fail("'@'")
        self.pos += 1
        text = tokens[self.pos]
        if text in _NOT_WORD or not _is_number(text):
            raise self.fail("probability")
        self.pos += 1
        return Judgment(antecedent, subject, value, float(text))


def parse_value(text: str, schema: AttributeSchema | None = None) -> Value:
    parser = _Parser(text)
    value = parser.whole(parser.value)
    if schema is not None:
        for node in subvalues(value):
            if type(node) is AtomVal:
                schema.owner(node.name)  # names an unknown atom
    return value


def parse_term(text: str, schema: AttributeSchema | None = None) -> VariableTerm:
    """Parse a term; with a schema, every variable its text names must be declared."""
    parser = _Parser(text)
    term = parser.whole(parser.term)
    if schema is not None:
        _require_declared(parser.named, schema)
    return term


def parse_attribution_list(text: str, schema: AttributeSchema | None = None) -> tuple[ValueAttribution, ...]:
    parser = _Parser(text)
    attributions = parser.whole(parser.attributions, None)
    require_distinct_variables(attributions)
    if schema is not None:
        for va in attributions:
            va.mask(schema)
    return attributions


def parse_judgment(text: str, schema: AttributeSchema) -> Judgment:
    """Parse and validate one judgment against the schema, every variable its subject's text names included."""
    parser = _Parser(text)
    return parser.whole(parser.judgment).validate(schema, parser.named)


# ---------------------------------------------------------------------------
# Printer


def print_value(value: Value, _floor: int = 0) -> str:
    """`value` with the fewest parentheses under which `_Parser.value` reads it back at floor `_floor`."""
    kind = type(value)
    if kind is AtomVal:
        return value.name
    if kind is Neg:
        return "~" + print_value(value.inner, _NEG_POWER)
    op, power, right = _SYMBOL[kind]
    left_floor, right_floor = (power + 1, power) if right else (power, power + 1)
    text = f"{print_value(value.left, left_floor)}{op}{print_value(value.right, right_floor)}"
    return f"({text})" if power < _floor else text


def print_term(term: VariableTerm) -> str:
    if isinstance(term, Atom):
        return term.name
    if isinstance(term, Pair):
        return f"<{print_term(term.left)},{print_term(term.right)}>"
    inner = print_term(term.consequent)
    return f"[{print_term(term.antecedent)}]{inner}"


def print_attribution_list(attributions) -> str:
    return ", ".join(f"{va.variable}:{print_value(va.value)}" for va in attributions)


def print_judgment(judgment: Judgment) -> str:
    """Canonical one-line form; `parse_judgment` inverts it exactly."""
    prefix = print_attribution_list(judgment.antecedent)
    if prefix:
        prefix += " "
    # abs: a probability of -0.0 prints as 0.0, since the grammar has no sign
    return (
        f"{prefix}|> {print_term(judgment.subject)} : "
        f"{print_value(judgment.value)} @ {abs(judgment.probability)!r}"
    )
