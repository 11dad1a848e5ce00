"""Answers computed apart from tndpq, against which every verdict is checked.

Values and terms are the benchmark's own tuples:

    ("atom", name) ("neg", v) ("or", l, r) ("prod", l, r) ("arrow", l, r)
    ("var", name) ("pair", l, r) ("cond", antecedent, consequent)

Nothing here imports tndpq, except `cond_exclusive`, which defers to the
program's oracle because the paper's step cases for conditional terms are
the definition (see README).
"""

from __future__ import annotations

import math
from functools import lru_cache
from fractions import Fraction
from itertools import product

VARIABLES = tuple(f"V{i}" for i in range(8))
ATOMS = {v: tuple(f"{c}{v[1:]}" for c in "abcde") for v in VARIABLES}
OWNER = {a: v for v, atoms in ATOMS.items() for a in atoms}


def schema_text() -> str:
    return "".join(f"{v} = {' | '.join(ATOMS[v])}\n" for v in VARIABLES)


# ---------------------------------------------------------------------------
# Printer: the canonical concrete syntax, written from the grammar

_PREC = {"arrow": 0, "or": 1, "prod": 2, "neg": 3, "atom": 4}
_OP = {"arrow": "->", "or": "+", "prod": "*"}


def show_value(v, parent: int = 0) -> str:
    kind = v[0]
    if kind == "atom":
        return v[1]
    if kind == "neg":
        return "~" + show_value(v[1], _PREC["neg"])
    prec = _PREC[kind]
    if kind == "arrow":
        text = f"{show_value(v[1], prec + 1)}->{show_value(v[2], prec)}"
    else:
        text = f"{show_value(v[1], prec)}{_OP[kind]}{show_value(v[2], prec + 1)}"
    return f"({text})" if prec < parent else text


def show_term(t) -> str:
    if t[0] == "var":
        return t[1]
    if t[0] == "pair":
        return f"<{show_term(t[1])},{show_term(t[2])}>"
    return f"[{show_term(t[1])}]{show_term(t[2])}"


def show_sigma(sigma) -> str:
    return ", ".join(f"{var}:{show_value(v)}" for var, v in sigma)


def show_judgment(sigma, term, value, p: float) -> str:
    prefix = show_sigma(sigma)
    return f"{prefix + ' ' if prefix else ''}|> {show_term(term)} : {show_value(value)} @ {p!r}"


# ---------------------------------------------------------------------------
# Set semantics of single-variable values and of attribution lists


def star(v, var: str) -> frozenset:
    """Atoms of `var` that satisfy the deterministic value `v`."""
    kind = v[0]
    if kind == "atom":
        return frozenset({v[1]})
    if kind == "neg":
        return frozenset(ATOMS[var]) - star(v[1], var)
    if kind == "or":
        return star(v[1], var) | star(v[2], var)
    raise ValueError(f"not a deterministic value: {v!r}")


def term_vars(t) -> list:
    if t[0] == "var":
        return [t[1]]
    return term_vars(t[1]) + term_vars(t[2])


def sat(v, cell: dict) -> bool:
    """Classical truth of an arrow-free value in a cell (variable -> atom)."""
    kind = v[0]
    if kind == "atom":
        return cell[OWNER[v[1]]] == v[1]
    if kind == "neg":
        return not sat(v[1], cell)
    if kind == "or":
        return sat(v[1], cell) or sat(v[2], cell)
    if kind == "prod":
        return sat(v[1], cell) and sat(v[2], cell)
    raise ValueError(f"arrow in an arrow-free value: {v!r}")


@lru_cache(maxsize=None)
def cells(term, v) -> frozenset:
    """The cells of the term's atom product in which `v` holds."""
    names = term_vars(term)
    if len(set(names)) != len(names):
        raise ValueError("the cell semantics covers linear terms only")
    return frozenset(
        combo
        for combo in product(*(ATOMS[n] for n in names))
        if sat(v, dict(zip(names, combo)))
    )


def arrow_free_exclusive(term, a, b) -> bool:
    return not (cells(term, a) & cells(term, b))


def cond_exclusive(term, a, b) -> bool:
    from tndpq.exclusivity import oracle_exclusive
    from tndpq.syntax import AttributeSchema, parse_term, parse_value

    schema = AttributeSchema.of(ATOMS)
    return oracle_exclusive(
        parse_term(show_term(term)), parse_value(show_value(a)), parse_value(show_value(b)), schema
    )


def exclusive(term, a, b) -> bool:
    if term[0] == "cond":
        return cond_exclusive(term, a, b)
    return arrow_free_exclusive(term, a, b)


# ---------------------------------------------------------------------------
# Row counter: distributions of a generated table, as exact fractions


class Table:
    """Rows the benchmark generated, as dicts variable -> atom."""

    def __init__(self, rows):
        self.rows = rows

    def select(self, sigma):
        sets = [(var, star(v, var)) for var, v in sigma]
        return [r for r in self.rows if all(r[var] in s for var, s in sets)]

    def distribution(self, sigma, target: str, smoothing: int | None = None):
        """Exact P(target = atom | sigma), by frequency or Laplace smoothing."""
        rows = self.select(sigma)
        counts = {a: 0 for a in ATOMS[target]}
        for r in rows:
            counts[r[target]] += 1
        if smoothing is None:
            if not rows:
                raise ValueError("empty support")
            return [Fraction(counts[a], len(rows)) for a in ATOMS[target]]
        total = len(rows) + smoothing * len(counts)
        return [Fraction(counts[a] + smoothing, total) for a in ATOMS[target]]

    def support(self, sigma) -> int:
        return len(self.select(sigma))


def max_deviation(table: Table, sigma, t: str, u: str) -> Fraction:
    """max |P(u=y | sigma, t=x) - P(u=y | sigma)| over atoms x, y (frequency)."""
    base = table.distribution(sigma, u)
    worst = Fraction(0)
    for x in ATOMS[t]:
        given = table.distribution(list(sigma) + [(t, ("atom", x))], u)
        worst = max(worst, max(abs(g - b) for g, b in zip(given, base)))
    return worst


# ---------------------------------------------------------------------------
# Joint distribution for the symbolic workload


class Joint:
    """An exact joint distribution over some variables, from integer weights."""

    def __init__(self, names, weights):
        self.names = tuple(names)
        self.weights = weights  # {cell tuple: positive int}

    def _given(self, sigma):
        sets = [(self.names.index(var), star(v, var)) for var, v in sigma]
        return [(c, w) for c, w in self.weights.items() if all(c[i] in s for i, s in sets)]

    def prob(self, sigma, event) -> Fraction:
        """P(event | sigma); `event` is a list of (variable, atom set)."""
        given = self._given(sigma)
        want = [(self.names.index(var), s) for var, s in event]
        num = sum(w for c, w in given if all(c[i] in s for i, s in want))
        return Fraction(num, sum(w for _, w in given))

    def distribution(self, sigma, target: str):
        given = self._given(sigma)
        i = self.names.index(target)
        counts = {a: 0 for a in ATOMS[target]}
        for c, w in given:
            counts[c[i]] += w
        total = sum(counts.values())
        return [Fraction(counts[a], total) for a in ATOMS[target]]


# ---------------------------------------------------------------------------
# Trust relations on exact fractions


def trust_entries(f, g, kind: str, m, tol: Fraction, relevant=None):
    """Evidence (f, g, ok) of check_local, recomputed; f original, g copy.

    `relevant` holds atom positions replacing the first-m prefix.
    """
    n = len(f)
    if kind == "JT":
        inspected = range(n)
    elif relevant is not None:
        inspected = relevant
    else:
        inspected = range(m)
    out = []
    for i in inspected:
        if kind in ("JT", "ET"):
            out.append((f[i], g[i], abs(f[i] - g[i]) <= tol))
        else:
            out.append((f[i], g[i], g[i] >= f[i] - tol))
    if kind == "WT":
        for i in range(n):
            out.append((f[i], g[i], (abs(f[i]) <= tol) == (abs(g[i]) <= tol)))
    return out


def holds(entries) -> bool:
    return all(ok for _, _, ok in entries)


def chain(f0, m: int, k: int, variant: str, steps: int, l: int | None):
    """The two diverging chains, stepped with exact fractions.

    Returns one (parent_relation, jt_cross, et_cross, f, g) per step.
    """
    target = 1 if variant == "AT" else l
    kind = {"AT": "AT", "WT": "WT", "ET": "ET"}[variant]
    f, g = list(f0), list(f0)
    out = []
    for _ in range(steps):
        nf, ng = list(f), list(g)
        moved_f, moved_g = nf[k - 1] / 2, ng[k - 1] / 3
        nf[target - 1] += moved_f
        nf[k - 1] -= moved_f
        ng[target - 1] += moved_g
        ng[k - 1] -= moved_g
        parent = holds(trust_entries(f, nf, kind, m, Fraction(0))) and holds(
            trust_entries(g, ng, kind, m, Fraction(0))
        )
        out.append((parent, nf == ng, nf[:m] == ng[:m], tuple(nf), tuple(ng)))
        f, g = nf, ng
    return out


def algebra_law_count(n: int) -> int:
    """Law instances verify_algebra checks for one triple over n atoms.

    Per triple: JT reflexivity, symmetry and transitivity (3), the two
    m = n laws (2) and, for each m in 1..n, for each of ET, WT and AT:
    reflexivity (1), transitivity over l in 1..n (n), transitivity' (1)
    and weakening over l in 1..m (m); then ET symmetry over l in 1..m (m),
    AT Bottom, JT Top and JT Top' (3) and the two semi-antisymmetries over
    l in 1..n (2n).  Summed: 3 + 2 + sum_m (3(n + 2 + m) + m + 3 + 2n).
    """
    return 5 + sum(3 * (n + 2 + m) + m + 3 + 2 * n for m in range(1, n + 1))


# ---------------------------------------------------------------------------
# Comparing program output with the reference


def same(out, expected, tol: float) -> bool:
    """Structural equality; floats agree within `tol` (0 means exactly)."""
    if isinstance(expected, bool) or expected is None or isinstance(expected, str):
        return out == expected
    if isinstance(expected, (int, float, Fraction)) and not isinstance(expected, bool):
        if isinstance(out, bool) or not isinstance(out, (int, float)):
            return False
        if tol == 0:
            return out == float(expected)
        return math.isfinite(out) and abs(out - float(expected)) <= tol
    if isinstance(expected, (list, tuple)):
        return (
            isinstance(out, (list, tuple))
            and len(out) == len(expected)
            and all(same(o, e, tol) for o, e in zip(out, expected))
        )
    if isinstance(expected, dict):
        return (
            isinstance(out, dict)
            and out.keys() == expected.keys()
            and all(same(out[k], expected[k], tol) for k in expected)
        )
    raise TypeError(f"cannot compare {type(expected).__name__}")
