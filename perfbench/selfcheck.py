"""Checks of the benchmark's own references, on hand-worked cases.

    python3 perfbench/selfcheck.py

Each reference is tested against answers worked out by hand.  The mutation
check then feeds every expected answer of every workload, perturbed, to the
comparison that judges the program's output, and requires it to count as
failed.  Run from the root of a checkout; exits 1 if any check fails.
"""

from __future__ import annotations

import sys
from fractions import Fraction as F
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import reference as ref  # noqa: E402
from run import parse_cli, tally  # noqa: E402


def atom(name):
    return ("atom", name)


def or_(a, b):
    return ("or", a, b)


def rows(*pairs):
    """Rows with the given (V0, V1) atoms; every other variable fixed."""
    out = []
    for x, y in pairs:
        row = {v: ref.ATOMS[v][0] for v in ref.VARIABLES}
        row["V0"], row["V1"] = x, y
        out.append(row)
    return ref.Table(out)


def test_row_counter():
    t = rows(("a0", "a1"), ("a0", "b1"), ("b0", "a1"), ("c0", "a1"))
    assert t.distribution([], "V0") == [F(1, 2), F(1, 4), F(1, 4), 0, 0]
    assert t.distribution([("V1", atom("a1"))], "V0") == [F(1, 3), F(1, 3), F(1, 3), 0, 0]
    assert t.distribution([("V1", ("neg", atom("a1")))], "V0") == [1, 0, 0, 0, 0]
    assert t.distribution([("V0", or_(atom("a0"), atom("b0")))], "V1") == [F(2, 3), F(1, 3), 0, 0, 0]
    assert t.distribution([], "V0", 1) == [F(3, 9), F(2, 9), F(2, 9), F(1, 9), F(1, 9)]
    assert t.support([("V0", ("neg", or_(atom("a0"), atom("b0"))))]) == 1


def test_independence():
    product = rows(*[(x, y) for x in ref.ATOMS["V0"] for y in ("a1", "b1")])
    assert ref.max_deviation(product, [], "V0", "V1") == 0
    linked = rows(("a0", "a1"), ("b0", "b1"), ("c0", "b1"), ("d0", "b1"), ("e0", "b1"))
    # P(V1=a1) = 1/5, P(V1=a1 | V0=a0) = 1
    assert ref.max_deviation(linked, [], "V0", "V1") == F(4, 5)


def test_cells_and_exclusivity():
    pair = ("pair", ("var", "V0"), ("var", "V1"))
    a0a1 = ("prod", atom("a0"), atom("a1"))
    assert len(ref.cells(pair, ("prod", atom("a0"), ("neg", atom("a1"))))) == 4
    assert len(ref.cells(pair, ("neg", a0a1))) == 24
    assert ref.exclusive(pair, a0a1, ("neg", a0a1))
    assert not ref.exclusive(pair, ("prod", atom("a0"), or_(atom("a1"), atom("b1"))),
                             ("prod", or_(atom("a0"), atom("b0")), atom("b1")))
    assert ref.exclusive(("var", "V0"), or_(atom("a0"), atom("b0")), ("neg", or_(atom("a0"), atom("b0"))))
    deep = ("pair", pair, ("pair", ("var", "V2"), ("var", "V3")))
    left = ("prod", a0a1, ("prod", atom("a2"), atom("a3")))
    assert ref.exclusive(deep, left, ("prod", a0a1, ("prod", atom("a2"), atom("b3"))))
    assert not ref.exclusive(deep, left, ("prod", a0a1, ("prod", ("neg", atom("b2")), atom("a3"))))
    cond = ("cond", ("var", "V0"), ("var", "V1"))
    assert ref.exclusive(cond, ("arrow", atom("a0"), atom("a1")), ("arrow", atom("a0"), atom("b1")))
    assert not ref.exclusive(cond, ("arrow", atom("a0"), atom("a1")), ("arrow", atom("b0"), atom("b1")))


def test_printer():
    v = ("neg", or_(("prod", atom("a0"), atom("a1")), atom("b0")))
    assert ref.show_value(v) == "~(a0*a1+b0)"
    assert ref.show_value(("arrow", or_(atom("a0"), atom("b0")), ("arrow", atom("a1"), atom("b1")))) == \
        "a0+b0->a1->b1"
    assert ref.show_value(("arrow", ("arrow", atom("a0"), atom("a1")), atom("b1"))) == "(a0->a1)->b1"
    judgment = ref.show_judgment([("V2", ("neg", atom("a2")))], ("cond", ("var", "V0"), ("var", "V1")),
                                 ("arrow", atom("a0"), atom("a1")), 0.25)
    assert judgment == "V2:~a2 |> [V0]V1 : a0->a1 @ 0.25"


def test_joint():
    joint = ref.Joint(("V0", "V1"), {("a0", "a1"): 1, ("a0", "b1"): 3, ("b0", "a1"): 2, ("b0", "b1"): 2})
    assert joint.prob([], [("V0", {"a0"})]) == F(1, 2)
    assert joint.prob([("V1", atom("b1"))], [("V0", {"a0"})]) == F(3, 5)
    assert joint.distribution([("V0", atom("b0"))], "V1") == [F(1, 2), F(1, 2), 0, 0, 0]
    # root of a tree for <V0,V1> : a0*a1 + b0*b1, the sum of its rectangles
    rects = [({"a0"}, {"a1"}), ({"b0"}, {"b1"})]
    assert sum(joint.prob([], [("V0", b), ("V1", d)]) for b, d in rects) == F(3, 8)


def test_trust():
    f = [F(1, 2), F(1, 4), F(1, 4), 0, 0]
    g = [F(1, 2), F(1, 8), F(3, 8), 0, 0]
    assert not ref.holds(ref.trust_entries(f, g, "JT", None, F(0)))
    assert ref.holds(ref.trust_entries(f, g, "ET", 1, F(0)))
    assert ref.holds(ref.trust_entries(f, g, "AT", 1, F(0)))
    assert not ref.holds(ref.trust_entries(f, g, "AT", 2, F(0)))
    assert ref.holds(ref.trust_entries(f, g, "AT", 2, F(1, 8)))
    assert ref.holds(ref.trust_entries(f, g, "WT", 1, F(0)))
    assert not ref.holds(ref.trust_entries(f, [F(1, 2), F(1, 8), F(1, 4), F(1, 8), 0], "WT", 1, F(0)))
    assert [ok for _, _, ok in ref.trust_entries(f, g, "AT", 2, F(0), relevant=[2, 0])] == [True, True]


def test_chain():
    f0 = [F(1, 2), F(1, 4), F(1, 4), 0, 0]
    (parent, jt, et, f, g), second = ref.chain(f0, 1, 2, "AT", 2, None)
    assert f == (F(5, 8), F(1, 8), F(1, 4), 0, 0)
    assert g == (F(7, 12), F(1, 6), F(1, 4), 0, 0)
    assert parent and not jt and not et
    assert second[3] == (F(11, 16), F(1, 16), F(1, 4), 0, 0)


def test_law_count():
    # n = 1: JT reflexivity, symmetry, transitivity (3); for m = 1 and each of
    # ET, WT, AT: reflexivity, transitivity (l = 1), transitivity', weakening
    # (l = 1) (12); ET symmetry (1); AT Bottom, JT Top, JT Top' (3);
    # semi-antisymmetry AT and WT (2); the two m = n laws (2).  23 in all.
    assert ref.algebra_law_count(1) == 23
    assert ref.algebra_law_count(5) == 7 * 25 + 11 * 5 + 5


def test_same():
    assert ref.same([0.5, True, "x"], [F(1, 2), True, "x"], 0.0)
    assert not ref.same([0.5 + 1e-15], [F(1, 2)], 0.0)
    assert ref.same([0.5 + 1e-15], [F(1, 2)], 1e-12)
    assert not ref.same([True], [1], 0.0)
    assert not ref.same({"error": "boom"}, [1.0], 0.0)
    assert not ref.same([1.0, 2.0], [1.0], 0.0)


def test_parse_cli():
    out = "a2\t0.2\t0.25\tg = f\tviolated\nVERDICT et:1 false\n"
    assert parse_cli("compare", 1, out) == [1, [[0.2, 0.25, False]], "VERDICT et:1 false"]
    assert parse_cli("learn", 0, "a1\t0.5\nb1\t0.5\n") == [0, [0.5, 0.5]]
    out = "b\t|> V0 : a0 @ 0.25\npair\tV0:a0 |> V1 : b1 @ 0.5\nCHECK\tok\n"
    assert parse_cli("derive", 0, out) == [0, [["b", "|> V0 : a0", 0.25], ["pair", "V0:a0 |> V1 : b1", 0.5]],
                                           "CHECK\tok"]
    out = "step\tin-relation\tjt-again\tet-again\tchain-a\tchain-b\n1\tTrue\tFalse\tFalse\t1/2,1/2\t1/3,2/3\n" \
          "VERDICT chain-at true\n"
    assert parse_cli("chain", 0, out) == [0, [[True, False, False, ["1/2", "1/2"], ["1/3", "2/3"]]],
                                          "VERDICT chain-at true"]


def perturb(x, tol):
    """The same answer with its last leaf changed by more than `tol`."""
    if isinstance(x, bool):
        return not x
    if isinstance(x, (int, float, F)):
        return float(x) + max(1e-6, 1000 * tol)
    if isinstance(x, str):
        return x + "?"
    if isinstance(x, dict):
        return dict(x, extra=None)
    if not x:
        return [None]
    return list(x[:-1]) + [perturb(x[-1], tol)]


def as_output(x):
    """An expected answer as the program's output would carry it."""
    if isinstance(x, F):
        return float(x)
    if isinstance(x, (list, tuple)):
        return [as_output(e) for e in x]
    return x


def test_mutations():
    for workload in ("table_queries", "symbolic", "cli_session"):
        wl = gen.build(workload, 7)
        outputs = [as_output(answer) for answer, _ in wl.expected]
        rounds = 3
        attempted, failed, unexpected = tally(wl, outputs, [], rounds)
        assert (attempted, failed, unexpected) == (rounds * len(wl.ops), 0, []), workload
        for i, (answer, tol) in enumerate(wl.expected):
            assert not ref.same(perturb(outputs[i], tol), answer, tol), (workload, wl.ops[i]["kind"])
            mutated = list(outputs)
            mutated[i] = perturb(outputs[i], tol)
            _, failed, unexpected = tally(wl, mutated, [], rounds)
            assert failed == rounds and unexpected == ([] if i in wl.known_fault else [i]), (workload, i)
        # an output that changes in a later round counts once
        _, failed, unexpected = tally(wl, outputs, [[1, 0]], rounds)
        assert failed == 1 and unexpected == [0]


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    bad = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            bad += 1
            print(f"FAIL\t{name}\t{exc}")
        else:
            print(f"PASS\t{name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
