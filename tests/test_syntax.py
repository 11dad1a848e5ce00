"""Parser, printer and projection-resolution tests."""

import math
import random
import re

import pytest
from hypothesis import given, strategies as st

from tndpq import syntax
from tndpq.errors import IllFormed, MixedVariables, ParseError, ShapeMismatch, TndpqError, UnknownSymbol
from tndpq.syntax import (
    Arrow,
    Atom,
    AtomVal,
    AttributeSchema,
    Cond,
    Judgment,
    Neg,
    Or,
    Pair,
    Prod,
    ValueAttribution,
    _is_number,
    _tokenize,
    fit,
    fresh,
    load_schema,
    parse_attribution_list,
    parse_judgment,
    parse_term,
    parse_value,
    print_judgment,
    print_term,
    print_value,
    record,
    same_sigma,
    term_atoms,
)


def test_parse_full_judgment(loan_schema):
    j = parse_judgment(
        "Age:27, Gen:f, MS:married+divorced, Etn:~white |> Loan : yes @ 0.60", loan_schema
    )
    assert [va.variable for va in j.antecedent] == ["Age", "Gen", "MS", "Etn"]
    assert j.antecedent[2].value == Or(AtomVal("married"), AtomVal("divorced"))
    assert j.antecedent[3].value == Neg(AtomVal("white"))
    assert j.subject == Atom("Loan")
    assert j.value == AtomVal("yes")
    assert math.isclose(j.probability, 0.60)


def test_parse_empty_antecedent(loan_schema):
    j = parse_judgment("|> Loan : yes @ 0.5", loan_schema)
    assert j.antecedent == ()


def test_parse_compound_subject_and_value(loan_schema):
    j = parse_judgment("|> <Loan,Gen> : yes*f @ 0.25", loan_schema)
    assert j.subject == Pair(Atom("Loan"), Atom("Gen"))
    assert j.value == Prod(AtomVal("yes"), AtomVal("f"))


def test_parse_conditional(loan_schema):
    j = parse_judgment("|> [Gen]Loan : f->yes @ 0.7", loan_schema)
    assert j.subject == Cond(Atom("Gen"), Atom("Loan"))
    assert j.value == Arrow(AtomVal("f"), AtomVal("yes"))


def test_value_precedence():
    v = parse_value("~a+b*c->d")
    assert v == Arrow(Or(Neg(AtomVal("a")), Prod(AtomVal("b"), AtomVal("c"))), AtomVal("d"))


def test_arrow_right_associative():
    assert parse_value("a->b->c") == Arrow(AtomVal("a"), Arrow(AtomVal("b"), AtomVal("c")))


def test_parse_errors(loan_schema):
    with pytest.raises(ParseError):
        parse_judgment("|> Loan : yes", loan_schema)
    with pytest.raises(ParseError):
        parse_value("a+")
    with pytest.raises(UnknownSymbol):
        parse_judgment("|> Loan : maybe @ 0.5", loan_schema)
    with pytest.raises(UnknownSymbol):
        parse_judgment("|> Cheese : yes @ 0.5", loan_schema)


def test_judgment_invariants(loan_schema):
    with pytest.raises(IllFormed):
        parse_judgment("Gen:f, Gen:m |> Loan : yes @ 0.5", loan_schema)
    with pytest.raises(IllFormed):
        parse_judgment("Loan:yes |> Loan : no @ 0.5", loan_schema)
    with pytest.raises(IllFormed):
        parse_judgment("Gen:f |> Loan : yes @ 1.5", loan_schema)
    # non-deterministic antecedent value
    with pytest.raises(IllFormed):
        parse_judgment("Gen:f->m |> Loan : yes @ 0.5", loan_schema)
    # antecedent value atoms from the wrong variable
    with pytest.raises(IllFormed):
        parse_judgment("Gen:yes |> Loan : yes @ 0.5", loan_schema)


def test_projection_reduction():
    # the parser reads fst(<t,u>) as t and snd(<t,u>) as u
    assert parse_term("fst(<A,B>)") == Atom("A")
    assert parse_term("snd(<A,fst(<B,C>)>)") == Atom("B")
    assert parse_term("fst(<<A,B>,[C]D>)") == Pair(Atom("A"), Atom("B"))
    # a projection of anything but a pair is refused, named as it resolved
    for text, shown in [("fst(A)", "fst(A)"), ("snd([A]B)", "snd([A]B)"), ("fst(snd(<A,B>))", "fst(B)"),
                        ("<A,snd(fst(<B,C>))>", "snd(B)")]:
        with pytest.raises(ShapeMismatch) as caught:
            parse_term(text)
        assert str(caught.value) == f"unreduced projection in term {shown}"


def test_a_projection_free_term_reduces_to_itself():
    pair = Pair(Pair(Atom("A"), Atom("B")), Cond(Atom("C"), Atom("D")))
    assert parse_term("<<A,B>,[C]D>") == pair
    # a projection inside a pair or a conditional term resolves in place
    assert parse_term("<fst(<<A,B>,E>),[C]snd(<E,D>)>") == pair
    assert parse_term("[snd(<E,<A,B>>)]<C,fst(<D,E>)>") == Cond(Pair(Atom("A"), Atom("B")), Pair(Atom("C"), Atom("D")))
    assert parse_term("<fst(<A,B>),B>") == Pair(Atom("A"), Atom("B"))


_CHAIN = "+".join(["a"] * 1500)
_DEEP = AttributeSchema.of([("X", ("a", "b"))])


# Each public entry raises a TndpqError, not RecursionError, for input
# nested too deeply: a ParseError for text nested past the interpreter's
# recursion limit, and IllFormed for a value past the depth bound, which
# `a+...+a` reaches without nesting in the text.
@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: parse_value("~" * 1200 + "a"), ParseError),
        (lambda: parse_value("(" * 1200 + "a" + ")" * 1200), ParseError),
        (lambda: parse_term("fst(" * 1200 + "X" + ")" * 1200), ParseError),
        (lambda: parse_attribution_list("X:" + _CHAIN, _DEEP), IllFormed),
        (lambda: parse_judgment(f"|> X : {_CHAIN} @ 0.5", _DEEP), IllFormed),
        (lambda: print_value(parse_value(_CHAIN)), IllFormed),
    ],
    ids=["parse_value-negations", "parse_value-parentheses", "parse_term", "parse_attribution_list",
         "parse_judgment-validation", "print_value"],
)
def test_input_nested_too_deeply_is_a_tndpq_error(call, error):
    with pytest.raises(TndpqError) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == "input nested too deeply"


def test_subject_check_after_reduction(loan_schema):
    # fst(<Loan,Gen>) reduces to Loan, so Gen may appear in the antecedent
    j = parse_judgment("Gen:f |> fst(<Loan,Gen>) : yes @ 0.5", loan_schema)
    assert term_atoms(j.subject) == {"Loan"}
    with pytest.raises(IllFormed):
        parse_judgment("Gen:f |> snd(<Loan,Gen>) : f @ 0.5", loan_schema)


def test_a_resolved_judgment_is_the_judgment_written_without_projections(small_schema):
    projected = parse_judgment("|> fst(<X,Y>) : a @ 0.5", small_schema)
    plain = parse_judgment("|> X : a @ 0.5", small_schema)
    assert projected == plain and hash(projected) == hash(plain)
    assert print_judgment(projected) == "|> X : a @ 0.5"


@pytest.mark.parametrize("text", ["fst(<X,Q>)", "snd(<Q,X>)", "<X,snd(<fst(<Q,R>),Y>)>", "fst(<X,<Y,Q>>)"])
def test_a_discarded_component_names_only_declared_variables(small_schema, text):
    # the component a projection discards must still name declared variables,
    # the first unknown one in text order
    with pytest.raises(UnknownSymbol) as caught:
        parse_term(text, small_schema)
    assert str(caught.value) == "unknown variable 'Q'"
    assert parse_term(text) is not None  # without a schema, nothing is checked
    with pytest.raises(UnknownSymbol) as caught:
        parse_judgment(f"|> {text} : a @ 0.5", small_schema)
    assert str(caught.value) == "unknown variable 'Q'"


def test_the_antecedent_is_checked_before_a_discarded_component(small_schema):
    with pytest.raises(UnknownSymbol, match="^unknown atomic value 'zz'$"):
        parse_judgment("Y:zz |> snd(<Q,X>) : a @ 0.5", small_schema)
    with pytest.raises(UnknownSymbol, match="^unknown variable 'Q'$"):
        parse_judgment("Y:u |> snd(<Q,X>) : a @ 0.5", small_schema)
    # the subject's own variables are checked against the antecedent, not the discarded ones
    assert parse_judgment("Y:u |> fst(<X,Y>) : a @ 0.5", small_schema).subject == Atom("X")


def test_is_deterministic(small_schema):
    # class O: the value fits its variable, so no products, no conditionals
    assert ValueAttribution("X", Or(AtomVal("a"), Neg(AtomVal("b")))).validate(small_schema)
    for value in (Prod(AtomVal("a"), AtomVal("b")), Arrow(AtomVal("a"), AtomVal("b"))):
        with pytest.raises(IllFormed, match="non-deterministic"):
            ValueAttribution("X", value).validate(small_schema)


def test_attribution_mask_is_kept_for_its_schema_only():
    va = parse_attribution_list("X:a+b")[0]
    first = AttributeSchema.of([("X", ("a", "b", "c"))])
    again = AttributeSchema.of([("X", ("c", "b", "a"))])  # equal names, other order
    wrong = AttributeSchema.of([("X", ("b", "c"))])
    for _ in range(2):
        assert va.mask(first) == 0b011
        assert va.mask(again) == 0b110
        with pytest.raises(UnknownSymbol, match="'a'"):
            va.mask(wrong)
    assert va == ValueAttribution("X", va.value) and hash(va) == hash(ValueAttribution("X", va.value))


def test_schema_invariants():
    with pytest.raises(IllFormed):
        AttributeSchema.of([("X", ("a",))])
    with pytest.raises(IllFormed):
        AttributeSchema.of([("X", ("a", "b")), ("Y", ("b", "c"))])
    with pytest.raises(IllFormed):
        AttributeSchema.of([("X", ("a", "b")), ("X", ("c", "d"))])


@pytest.mark.parametrize("word", ["high-risk", "a b", " a", "a ", "", "x,y", "fst(X)", "a|b", "1e-"])
@pytest.mark.parametrize("where", ["variable", "atom"])
def test_schema_names_must_be_grammar_words(word, where):
    # `high-risk` used to be accepted, and `derive` printed judgments that
    # `parse` then rejected
    variables = [(word, ("p", "q"))] if where == "variable" else [("X", ("p", word))]
    with pytest.raises(IllFormed, match=re.escape(repr(word))):
        AttributeSchema.of(variables)


def test_schema_file_names_must_be_grammar_words(tmp_path):
    path = tmp_path / "schema.txt"
    path.write_text("X = a b | c\n")
    with pytest.raises(IllFormed, match="'a b'"):
        load_schema(path)


def test_number_and_unicode_names_round_trip():
    schema = AttributeSchema.of([("0.5", ("1e-5", "2", "1_0")), ("Größe", ("ñandú", "日本"))])
    for text in (
        "0.5:1e-5+1_0 |> Größe : ~ñandú @ 0.25",
        "Größe:日本 |> 0.5 : ~(2+1e-5) @ 1e-05",
        "|> <Größe,0.5> : ñandú*1_0 @ 0.0",
        "|> [0.5]Größe : 1e-5->日本 @ 1.0",
    ):
        judgment = parse_judgment(text, schema)
        printed = print_judgment(judgment)
        assert parse_judgment(printed, schema) == judgment
        assert print_judgment(parse_judgment(printed, schema)) == printed


def test_negative_zero_probability_prints_as_a_number_the_grammar_reads(small_schema):
    # a stored system may hold -0.0, and `@ -0.0` did not parse back
    judgment = Judgment((), Atom("X"), AtomVal("a"), -0.0)
    assert print_judgment(judgment).endswith(" @ 0.0")
    assert parse_judgment(print_judgment(judgment), small_schema) == judgment


def test_schema_lookups(small_schema):
    assert small_schema.atoms("Y") == ("u", "v")
    assert small_schema.owner("r") == "Z"
    assert fit(Atom("Z"), AtomVal("q"), small_schema) == (0b010, 3)
    assert small_schema.has_variable("X") and not small_schema.has_variable("a")
    assert small_schema.has_atom("a") and not small_schema.has_atom("X")
    for lookup, args in [("atoms", ("W",)), ("owner", ("w",))]:
        with pytest.raises(UnknownSymbol):
            getattr(small_schema, lookup)(*args)
    with pytest.raises(MixedVariables):
        fit(Atom("X"), AtomVal("u"), small_schema)
    # the lookup maps are derived, not part of the schema's value
    same = AttributeSchema(small_schema.variables)
    assert same == small_schema and hash(same) == hash(small_schema)
    assert repr(same) == f"AttributeSchema(variables={small_schema.variables!r})"
    assert AttributeSchema.of([("X", ("a", "b"))]) != AttributeSchema.of([("X", ("b", "a"))])


def test_schema_file_round_trip(tmp_path, loan_schema):
    path = tmp_path / "schema.txt"
    path.write_text("".join(f"{name} = {' | '.join(atoms)}\n" for name, atoms in loan_schema.variables))
    assert load_schema(path) == loan_schema


# ---------------------------------------------------------------------------
# Property tests: print/parse round trips

_names = st.sampled_from(["a", "b", "c", "u", "v", "p", "q", "r"])


def _values(depth=3):
    return st.recursive(
        _names.map(AtomVal),
        lambda inner: st.one_of(
            inner.map(Neg),
            st.tuples(inner, inner).map(lambda t: Or(*t)),
            st.tuples(inner, inner).map(lambda t: Prod(*t)),
            st.tuples(inner, inner).map(lambda t: Arrow(*t)),
        ),
        max_leaves=8,
    )


_term_names = st.sampled_from(["X", "Y", "Z"])


def _terms():
    return st.recursive(
        _term_names.map(Atom),
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda t: Pair(*t)),
            st.tuples(inner, inner).map(lambda t: Cond(*t)),
        ),
        max_leaves=6,
    )


@given(_values())
def test_value_round_trip(value):
    assert parse_value(print_value(value)) == value


@given(_terms())
def test_term_round_trip(term):
    assert parse_term(print_term(term)) == term


_projections = st.sampled_from(["fst", "snd"])


def _term_texts():
    """Term texts with projections, most of them of a pair."""
    return st.recursive(
        _term_names,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda t: f"<{t[0]},{t[1]}>"),
            st.tuples(inner, inner).map(lambda t: f"[{t[0]}]{t[1]}"),
            st.tuples(_projections, inner, inner).map(lambda t: f"{t[0]}(<{t[1]},{t[2]}>)"),
            st.tuples(_projections, inner).map(lambda t: f"{t[0]}({t[1]})"),
        ),
        max_leaves=6,
    )


@given(_term_texts())
def test_reduction_idempotent(text):
    # a parsed term prints with no projection, and that text parses back to it
    try:
        term = parse_term(text)
    except ShapeMismatch as exc:
        assert str(exc).startswith("unreduced projection in term ")
        return
    printed = print_term(term)
    assert "fst" not in printed and "snd" not in printed
    assert parse_term(printed) == term


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), _values())
def test_judgment_round_trip(p, value):
    schema = AttributeSchema.of(
        [("X", ("a", "b", "c")), ("Y", ("u", "v")), ("Z", ("p", "q", "r"))]
    )
    try:
        j = Judgment((ValueAttribution("Y", AtomVal("u")),), Atom("X"), value, p).validate(schema)
    except Exception:
        return
    text = print_judgment(j)
    assert parse_judgment(text, schema) == j


# ---------------------------------------------------------------------------
# Tokenizer: error messages and positions, and a differential test against
# the character-stepping tokenizer it replaced

# (parser, text, message, position)
MALFORMED = [
    ("value", "a+", "expected identifier, found '' (at position 2)", 2),
    ("value", "", "expected identifier, found '' (at position 0)", 0),
    ("value", "a b", "expected 'eof', found 'b' (at position 2)", 2),
    ("value", "(a", "expected ')', found '' (at position 2)", 2),
    ("value", "a)", "expected 'eof', found ')' (at position 1)", 1),
    ("value", "a $ b", "unexpected character '$' (at position 2)", 2),
    ("value", "a|b", "unexpected character '|' (at position 1)", 1),
    ("value", "a-b", "unexpected character '-' (at position 1)", 1),
    ("value", "->a", "expected identifier, found '->' (at position 0)", 0),
    ("value", "~", "expected identifier, found '' (at position 1)", 1),
    ("value", "a é", "expected 'eof', found 'é' (at position 2)", 2),
    ("value", "1_0 ~", "expected 'eof', found '~' (at position 4)", 4),
    ("term", "<X,Y", "expected '>', found '' (at position 4)", 4),
    ("term", "<X Y>", "expected ',', found 'Y' (at position 3)", 3),
    ("term", "[X", "expected ']', found '' (at position 2)", 2),
    ("term", "fst(X", "expected ')', found '' (at position 5)", 5),
    ("term", "X>", "expected 'eof', found '>' (at position 1)", 1),
    ("term", "<,Y>", "expected identifier, found ',' (at position 1)", 1),
    ("term", "X\xa0\u2028!", "unexpected character '!' (at position 3)", 3),  # Unicode spaces
    ("judgment", "|> Loan : yes", "expected '@', found '' (at position 13)", 13),
    ("judgment", "|> Loan : yes @", "expected probability, found '' (at position 15)", 15),
    ("judgment", "|> Loan : yes @ x", "expected probability, found 'x' (at position 16)", 16),
    ("judgment", "|> Loan : yes @ 0.5 0.5", "expected 'eof', found '0.5' (at position 20)", 20),
    ("judgment", "Gen f |> Loan : yes @ 0.5", "expected ':', found 'f' (at position 4)", 4),
    ("judgment", "Loan : yes @ 0.5", "expected '|>', found '@' (at position 11)", 11),
    ("judgment", "|> Loan yes @ 0.5", "expected ':', found 'yes' (at position 8)", 8),
    ("judgment", "|> Loan : yes @ 0.5.1", "expected probability, found '0.5.1' (at position 16)", 16),
    ("judgment", "|> Loan : yes @ .5.", "expected probability, found '.5.' (at position 16)", 16),
    ("judgment", "|> Loan : yes @ 1e", "expected probability, found '1e' (at position 16)", 16),
    ("judgment", "Gen:f; |> Loan : yes @ 0.5", "unexpected character ';' (at position 5)", 5),
    ("judgment", "|> Loan : yes @ 0.5 #", "unexpected character '#' (at position 20)", 20),
    ("attributions", "Gen:f,", "expected identifier, found '' (at position 6)", 6),
    ("attributions", "Gen f", "expected ':', found 'f' (at position 4)", 4),
    ("attributions", "Gen:f Loan:yes", "expected 'eof', found 'Loan' (at position 6)", 6),
]


@pytest.mark.parametrize("parser, text, message, position", MALFORMED)
def test_parse_error_message_and_position(loan_schema, parser, text, message, position):
    parse = {
        "value": parse_value,
        "term": parse_term,
        "judgment": lambda t: parse_judgment(t, loan_schema),
        "attributions": parse_attribution_list,
    }[parser]
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message
    assert info.value.position == position


_REF_FLOAT_RE = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_REF_WORD_CHARS = re.compile(r"[A-Za-z0-9_.]")


def _reference_tokenize(text):
    """The character-stepping tokenizer, as (kind, text, pos) triples."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        two = text[i : i + 2]
        if two in ("|>", "->"):
            tokens.append((two, two, i))
            i += 2
            continue
        if ch.isdigit() or ch == ".":
            m = _REF_FLOAT_RE.match(text, i)
            if m and not (m.end() < n and _REF_WORD_CHARS.match(text[m.end()])):
                tokens.append(("number", m.group(), i))
                i = m.end()
                continue
        if ch in ",+*~()<>[]@:":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isalnum() or ch in "_.":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_."):
                j += 1
            word = text[i:j]
            try:
                is_number = any(c.isdigit() for c in word) and float(word) is not None
            except ValueError:
                is_number = False
            tokens.append(("number" if is_number else "ident", word, i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("eof", "", n))
    return tokens


# Pieces of token text, punctuation, ASCII and non-ASCII letters, digits
# and spaces, and number-like words at the edge of the numeral pattern.
_PIECES = (
    list("ab_xE.e+-0159,:*~()<>[]@|$ \t\n")
    + ["é", "ß", "٣", "²", "Ⅷ", "½", "\xa0", "\u2028", "一", "\U0001d7d8"]
    + ["|>", "->", "1_0", "1e", "1e+5x", ".5.", "1.5", "2e-3", "0.25", "inf", "nan", "1__0", "_1", "1_"]
)


def _random_text(rng):
    return "".join(rng.choice(_PIECES) for _ in range(rng.randrange(0, 12)))


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return ("error", str(exc), exc.position)


def test_tokenizer_matches_reference_on_random_text():
    rng = random.Random(20250601)
    for _ in range(20000):
        text = _random_text(rng)
        assert _tokens_or_error(_tokenize, text) == _tokens_or_error(_reference_tokenize, text), text


def test_tokenizer_matches_reference_on_every_character():
    for code in range(0x20000):  # the basic and supplementary multilingual planes
        ch = chr(code)
        for text in ("1" + ch + "a", "a" + ch + ".5"):
            assert _tokens_or_error(_tokenize, text) == _tokens_or_error(_reference_tokenize, text), hex(code)


def test_token_pattern_needs_no_python_3_11_syntax():
    # Atomic groups and possessive quantifiers are new in Python 3.11's `re`;
    # the package supports 3.10.
    patterns = [value for value in vars(syntax).values() if isinstance(value, re.Pattern)]
    assert patterns
    for pattern in patterns:
        assert not re.search(r"\(\?>|[*+?}]\+", pattern.pattern), pattern


# ---------------------------------------------------------------------------
# Parser: a differential test against the recursive-descent parser over
# (kind, text, position) tokens that the flat-token parser replaced, here
# resolving projections and checking the subject's names as the parser does


_REF_BINARY = {"->": (Arrow, 0, True), "+": (Or, 1, False), "*": (Prod, 2, False)}


class _ReferenceParser:
    def __init__(self, text):
        self.tokens = _reference_tokenize(text)
        self.pos = 0
        self.named = []  # the variables that terms name, in text order

    def peek(self):
        return self.tokens[self.pos][0]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        found, text, pos = self.next()
        if found != kind:
            raise ParseError(f"expected {kind!r}, found {text!r}", pos)

    def ident(self):
        kind, text, pos = self.next()
        if kind not in ("ident", "number"):
            raise ParseError(f"expected identifier, found {text!r}", pos)
        return text

    def value(self, floor=0):
        node = self.operand()
        while True:
            entry = _REF_BINARY.get(self.peek())
            if entry is None or entry[1] < floor:
                return node
            cls, power, right = entry
            self.pos += 1
            node = cls(node, self.value(power if right else power + 1))

    def operand(self):
        kind = self.peek()
        if kind == "~":
            self.pos += 1
            return Neg(self.operand())
        if kind == "(":
            self.pos += 1
            node = self.value()
            self.expect(")")
            return node
        return AtomVal(self.ident())

    def term(self):
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
            if not isinstance(inner, Pair):
                raise ShapeMismatch(f"unreduced projection in term {name}({print_term(inner)})")
            return inner.left if name == "fst" else inner.right
        self.named.append(name)
        return Atom(name)

    def attribution(self):
        variable = self.ident()
        self.expect(":")
        return ValueAttribution(variable, self.value())

    def attributions(self, end):
        attributions = []
        if self.peek() != end:
            attributions.append(self.attribution())
            while self.peek() == ",":
                self.next()
                attributions.append(self.attribution())
        self.expect(end)
        return tuple(attributions)

    def judgment(self):
        antecedent = self.attributions("|>")
        subject = self.term()
        self.expect(":")
        value = self.value()
        self.expect("@")
        kind, text, pos = self.next()
        if kind not in ("number", "ident") or not _is_number(text):
            raise ParseError(f"expected probability, found {text!r}", pos)
        probability = float(text)
        self.expect("eof")
        return Judgment(antecedent, subject, value, probability)

    def whole(self, rule):
        node = rule()
        self.expect("eof")
        return node


# Names of `_PIECES` in a schema, so that some random judgments validate.
_DIFF_SCHEMA = AttributeSchema.of([("x", ("a", "b", "ab")), ("E", ("e", "_", "0", "1_0")), ("X", ("y", "z"))])


def _reference_parse(rule, text):
    parser = _ReferenceParser(text)
    if rule == "value":
        return parser.whole(parser.value)
    if rule == "term":
        return parser.whole(parser.term)
    if rule == "attributions":
        return parser.attributions("eof")
    judgment = parser.judgment()
    # after the antecedent, every variable the subject's text names must be declared
    for va in judgment.antecedent:
        va.validate(_DIFF_SCHEMA)
    for name in parser.named:
        if not _DIFF_SCHEMA.has_variable(name):
            raise UnknownSymbol(f"unknown variable {name!r}")
    return judgment.validate(_DIFF_SCHEMA)


_PARSE = {
    "value": parse_value,
    "term": parse_term,
    "attributions": parse_attribution_list,
    "judgment": lambda text: parse_judgment(text, _DIFF_SCHEMA),
}


def _outcome(parse, text):
    try:
        return ("parsed", parse(text))
    except ParseError as exc:
        return ("ParseError", str(exc), exc.position)
    except TndpqError as exc:  # a validation error of a parsed judgment
        return ("parsed", type(exc).__name__, str(exc))


def test_parser_matches_reference_on_random_token_strings():
    rng = random.Random(20261019)
    pieces = _PIECES + ["|>", "@", "<", ">", "[", "]", ",", ":", "fst("]
    parsed = dict.fromkeys(_PARSE, 0)

    def pick(most):
        return "".join(rng.choice(pieces) for _ in range(rng.randrange(0, most)))

    def part(well_formed, most):
        return rng.choice(well_formed) if rng.random() < 0.5 else pick(most)

    for n in range(30000):
        # every other text has the frame of a judgment, each of whose parts
        # is well formed half the time, so that some judgments parse
        text = pick(12) if n % 2 else (
            f"{part(['', 'x:a+b', 'X:~y, x:ab'], 3)}|>{part(['E', '<x,X>', '[X]E'], 3)}"
            f":{part(['e', '1_0*y', 'e->z'], 3)}@{part(['0.25', '1', '1.5'], 2)}"
        )
        for rule, parse in _PARSE.items():
            got = _outcome(parse, text)
            assert got == _outcome(lambda t: _reference_parse(rule, t), text), (rule, text)
            parsed[rule] += got[0] == "parsed"
    # every rule is met with texts it reads, not only with syntax errors
    assert min(parsed.values()) > 100, parsed


def test_same_sigma_ignores_order_only():
    schema = AttributeSchema.of([("X", ("a", "b")), ("Y", ("u", "v"))])
    sigma = parse_attribution_list("X:a, Y:u+v", schema)
    judgment = Judgment(sigma, Atom("X"), AtomVal("a"), 0.5)
    assert same_sigma(sigma, sigma)
    assert same_sigma(sigma, tuple(reversed(sigma)))
    assert same_sigma(judgment, tuple(reversed(sigma)))
    assert same_sigma(judgment, judgment.with_probability(0.25))
    others = [(), sigma[:1]] + [parse_attribution_list(t, schema) for t in ("X:a, Y:u", "X:b, Y:u+v")]
    for other in others:
        assert not same_sigma(sigma, other)
        assert not same_sigma(other, judgment)


def test_records_compare_by_class_and_fields():
    assert Atom("X") == Atom("X") and hash(Atom("X")) == hash(Atom("X"))
    assert Atom("X") != AtomVal("X") and Atom("X") != "X"
    assert Pair(Atom("X"), Atom("Y")) != Pair(Atom("Y"), Atom("X"))
    same = (parse_value("a + ~b"), parse_value("a + ~b"))
    assert same[0] == same[1] and hash(same[0]) == hash(same[1])
    assert repr(Neg(AtomVal("a"))) == "Neg(inner=AtomVal(name='a'))"
    with pytest.raises(TypeError, match=r"Atom\.__init__\(\) missing 1 required"):
        Atom()


def test_frozen_records_refuse_assignment():
    atom = Atom("X")
    with pytest.raises(AttributeError, match="cannot assign to field 'name'"):
        atom.name = "Y"
    with pytest.raises(AttributeError, match="cannot delete field 'name'"):
        del atom.name
    assert atom == Atom("X")


def test_judgment_post_init_still_checks():
    with pytest.raises(IllFormed, match=r"probability 1\.5 outside \[0, 1\]"):
        Judgment((), Atom("X"), AtomVal("a"), 1.5)
    twice = (ValueAttribution("Y", AtomVal("u")), ValueAttribution("Y", AtomVal("v")))
    with pytest.raises(IllFormed, match="a variable appears twice"):
        Judgment(twice, Atom("X"), AtomVal("a"), 0.5)


def test_record_fields():
    @record
    class Tally:
        name: str
        count: int = 0
        seen: list = fresh(list)
        _cache: dict = fresh(dict)

        def __repr__(self):
            return f"<{self.name}>"

    first, second = Tally("a"), Tally("a", 0, [])
    assert first == second and first.seen is not second.seen and first._cache is not second._cache
    first._cache["k"] = 1
    first.count += 1
    assert first != second and Tally("a", 1) == first
    assert repr(first) == "<a>"
    assert Tally.__hash__ is None
    with pytest.raises(TypeError, match="_cache"):
        Tally("a", _cache={})
