"""The depth bound: no term or value is built deeper than 200, and every walk handles the deepest."""

import sys

import pytest

from tndpq.calculus import RuleId
from tndpq.construction import derive_value
from tndpq.errors import IllFormed
from tndpq.exclusivity import exclusive, oracle_exclusive
from tndpq.syntax import (
    Arrow,
    Atom,
    AtomVal,
    AttributeSchema,
    Cond,
    Fst,
    Judgment,
    Neg,
    Or,
    Pair,
    Prod,
    Snd,
    Value,
    ValueAttribution,
    print_term,
    print_value,
    reduce_projections,
)
from tndpq.systems import Estimator, TrainingSet
from tndpq.trust import check_nonatomic, jt

BOUND = 200
SCHEMA = AttributeSchema.of([("X", ("a", "b")), ("Y", ("u", "v")), ("Z", ("p", "q"))])


def _chain(make, node, levels):
    for _ in range(levels):
        node = make(node)
    return node


def _negations(atom):
    """`~…~atom`, at the bound: 199 negations, so the value means `~atom`."""
    return _chain(Neg, AtomVal(atom), BOUND - 1)


def _from_deep_stack(call, frames=100):
    """`call()` run from a stack `frames` frames deep."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back

    def nest(more):
        return call() if more <= 0 else nest(more - 1)

    return nest(frames - depth)


def _source():
    rows = [{"X": x, "Y": y, "Z": z} for x in "ab" for y in "uv" for z in "pq"]
    return TrainingSet.from_rows("t", SCHEMA, rows), Estimator("e", "freq")


# a projection chain 199 deep that reduces to X: fst(<fst(<…,Y>),Y>)
_PROJECTED = _chain(lambda t: Fst(Pair(t, Atom("Y"))), Atom("X"), (BOUND - 1) // 2)


def _arrows(antecedent, consequent, depth=BOUND):
    """An Or chain of `antecedent->consequent` arrows, `depth` deep."""
    arrow = Arrow(AtomVal(antecedent), AtomVal(consequent))
    return _chain(lambda v: Or(v, arrow), arrow, depth - 2)


# Or chains of arrows at the bound that fit [X]Z, and values at the bound
# that fit [X][Y]Z, each an arrow to such a chain.  The step cases take a
# pair of values, so each pair is deep on both sides.
_ARROWS = _arrows("a", "p")
_ARROWS_Q = _arrows("a", "q")
_NESTED = Arrow(AtomVal("a"), _arrows("u", "p", BOUND - 1))
_NESTED_Q = Arrow(AtomVal("a"), _arrows("u", "q", BOUND - 1))
_XZ, _XYZ = Cond(Atom("X"), Atom("Z")), Cond(Atom("X"), Cond(Atom("Y"), Atom("Z")))
_SIGMA = (ValueAttribution("Y", _negations("u")),)

WALKS = {
    "repr": lambda: repr(_negations("a")),
    "==": lambda: _negations("a") == _negations("a"),
    "hash": lambda: hash(_negations("a")) == hash(_negations("a")),
    "print_value": lambda: print_value(_ARROWS),
    "print_term": lambda: print_term(_chain(Snd, Atom("X"), BOUND - 1)),
    "reduce_projections": lambda: reduce_projections(_PROJECTED) == Atom("X"),
    "Judgment.validate": lambda: Judgment(_SIGMA, _PROJECTED, _negations("a"), 0.5).validate(SCHEMA),
    "exclusive-X": lambda: exclusive(Atom("X"), _negations("a"), AtomVal("a"), SCHEMA),
    "exclusive-[X]Z": lambda: exclusive(_XZ, _ARROWS, _ARROWS_Q, SCHEMA),
    "oracle_exclusive-[X]Z": lambda: oracle_exclusive(_XZ, _ARROWS, _ARROWS_Q, SCHEMA),
    "exclusive-[X][Y]Z": lambda: exclusive(_XYZ, _NESTED, _NESTED_Q, SCHEMA),
    "oracle_exclusive-[X][Y]Z": lambda: oracle_exclusive(_XYZ, _NESTED, _NESTED_Q, SCHEMA),
    "derive_value": lambda: derive_value(_source(), _SIGMA, Atom("X"), _negations("a"), SCHEMA).rule
    is RuleId.NegIER,
    "check_nonatomic": lambda: check_nonatomic(
        _source(), _source(), Atom("X"), _SIGMA, [_negations("a")], jt(), SCHEMA
    ).verdict,
}


@pytest.mark.parametrize("walk", WALKS.values(), ids=WALKS.keys())
def test_every_walk_takes_a_tree_at_the_bound(walk):
    assert _from_deep_stack(walk)


@pytest.mark.parametrize("cls", [Pair, Fst, Snd, Cond, Neg, Or, Prod, Arrow])
def test_each_node_refuses_to_pass_the_bound(cls):
    if issubclass(cls, Value):
        deepest, atom = _negations("a"), AtomVal("b")
    else:
        deepest, atom = _chain(Fst, Atom("X"), BOUND - 1), Atom("Y")
    fields = cls.__match_args__
    for deep in fields:
        with pytest.raises(IllFormed, match="^input nested too deeply$"):
            cls(**{name: deepest if name == deep else atom for name in fields})


@pytest.mark.parametrize(
    "build",
    [lambda: _chain(Fst, Atom("X"), 1500), lambda: _chain(lambda v: Or(v, AtomVal("a")), AtomVal("a"), 1500)],
    ids=["Fst", "Or"],
)
def test_a_tree_built_in_python_past_the_bound_is_ill_formed(build):
    with pytest.raises(IllFormed, match="^input nested too deeply$"):
        build()
