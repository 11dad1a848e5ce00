"""Seeded inputs of the three workloads, with the expected answer of each.

`build(workload, seed)` returns a Workload: the files the program reads,
the list of operations of one round (what the program is asked), and for
each operation the answer computed by `reference` and the tolerance its
floats are compared with.  The program never sees the expected answers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import reference as ref
from reference import ATOMS, VARIABLES, show_judgment, show_sigma, show_term, show_value

# Operations per round.  Every round attempts exactly these, whatever the
# seed, so the share of failed operations is the same in every run.
TABLE_MIX = {"dist": 168, "indep": 20, "general": 20, "nonatomic": 24, "derive": 24, "checker": 2}
TABLE_SIDE = 32
TABLE_ROWS = TABLE_SIDE ** 2  # V6 and V7 get exactly independent counts a6[x] * a7[y]
SYMBOLIC_MIX = {"tree": 48, "exclusive": 128, "preserve": 48, "algebra": 48, "square_chain": 48, "roundtrip": 80}
CLI_MIX = {"parse": 6, "exclusive": 6, "compare": 8, "preserve": 4, "chain": 4, "learn": 8, "derive": 6}
CLI_ROWS = 4000

# Trust tolerances: 0, or values no difference of two small-denominator
# fractions can equal, so float and exact comparisons cannot split.
ODD_TOLS = (0.0137, 0.0311)


@dataclass
class Workload:
    name: str
    files: dict = field(default_factory=dict)  # relative path -> text
    ops: list = field(default_factory=list)  # program-facing operations
    expected: list = field(default_factory=list)  # (answer, float tolerance)
    known_fault: list = field(default_factory=list)  # op indices failing by a named fault

    def add(self, op, answer, tol=0.0, known_fault=False):
        if known_fault:
            self.known_fault.append(len(self.ops))
        self.ops.append(op)
        self.expected.append((answer, tol))


def build(workload: str, seed: int) -> Workload:
    rng = random.Random(f"{workload}:{seed}")
    return {"table_queries": table_queries, "symbolic": symbolic, "cli_session": cli_session}[workload](rng)


# ---------------------------------------------------------------------------
# Shared generators


DET_SHAPES = 5


def det_value(rng, var, shape=None):
    """A deterministic value of one variable whose disjunctions are exclusive.

    Shapes: an atom, a negated atom, an Or of two or of three atoms, and a
    negated Or of two.  A fixed shape keeps the work of an operation the
    same from seed to seed.
    """
    atoms = list(ATOMS[var])
    shape = rng.randrange(DET_SHAPES) if shape is None else shape % DET_SHAPES
    if shape < 2:
        v = ("atom", rng.choice(atoms))
        return ("neg", v) if shape else v
    chosen = rng.sample(atoms, 3 if shape == 3 else 2)
    v = ("atom", chosen[0])
    for a in chosen[1:]:
        v = ("or", v, ("atom", a))
    return ("neg", v) if shape == 4 else v


def random_sigma(rng, pool, size, shape=None):
    return [(var, det_value(rng, var, None if shape is None else shape + k))
            for k, var in enumerate(rng.sample(pool, size))]


def first_fit(make, ok, shape):
    """make(shape) until ok(result); a fixed shape that keeps failing is
    given up for random ones, so that every seed finds its inputs."""
    for attempt in range(100_000):
        value = make(shape if attempt < 50 else None)
        if ok(value):
            return value
    raise RuntimeError("no generated input meets its constraints")


def csv_text(rows) -> str:
    lines = [",".join(VARIABLES)]
    lines += [",".join(r[v] for v in VARIABLES) for r in rows]
    return "\n".join(lines) + "\n"


def system_text(training, estimator, sigma, var, probs) -> str:
    body = "".join(f"{a} {float(p):.17g}\n" for a, p in zip(ATOMS[var], probs))
    return f"system {training} {estimator}\nsigma {show_sigma(sigma)}\nvar {var}\n{body}"


def composition(rng, total, parts):
    """`parts` positive integers summing to `total`."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def chain_rows(rng, n):
    """Rows over V0..V7: V0..V5 a dependent chain, V6 and V7 exactly independent."""
    def weights():  # the same skew on every seed, on other atoms
        return rng.sample([1, 4, 9, 16, 25], 5)

    w0 = weights()
    cpts = [[weights() for _ in range(5)] for _ in range(5)]
    a6, a7 = composition(rng, TABLE_SIDE, 5), composition(rng, TABLE_SIDE, 5)
    pairs = [
        (ATOMS["V6"][x], ATOMS["V7"][y])
        for x in range(5)
        for y in range(5)
        for _ in range(a6[x] * a7[y])
    ]
    rng.shuffle(pairs)
    rows = []
    for i in range(n):
        xs = [rng.choices(range(5), w0)[0]]
        for cpt in cpts:
            xs.append(rng.choices(range(5), cpt[xs[-1]])[0])
        row = {f"V{k}": ATOMS[f"V{k}"][x] for k, x in enumerate(xs)}
        row["V6"], row["V7"] = pairs[i % len(pairs)]
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# table_queries


SYSTEMS = ("orig", "resampled", "laplace")


def _prod_prob(tables, system, sigma, i, j, beta, delta):
    """P(<Vi,Vj> : beta*delta | sigma) along the conditional route the rules take."""
    table, smoothing = tables[system]
    p_beta = sum(
        p for a, p in zip(ATOMS[i], table.distribution(sigma, i, smoothing)) if a in ref.star(beta, i)
    )
    extended = list(sigma) + [(i, beta)]
    p_delta = sum(
        p
        for a, p in zip(ATOMS[j], table.distribution(extended, j, smoothing))
        if a in ref.star(delta, j)
    )
    return p_beta * p_delta


def _pair_value_prob(tables, system, sigma, i, j, value):
    kind = value[0]
    if kind == "prod":
        return _prod_prob(tables, system, sigma, i, j, value[1], value[2])
    if kind == "or":
        return _pair_value_prob(tables, system, sigma, i, j, value[1]) + _pair_value_prob(
            tables, system, sigma, i, j, value[2]
        )
    return 1 - _pair_value_prob(tables, system, sigma, i, j, value[1])


def _supported(tables, sigma, minimum=1):
    return all(tables[s][0].support(sigma) >= minimum for s in ("orig", "resampled"))


def _pair_value(rng, tables, sigma, i, j, shape, det_shape):
    """A pair value (a product, its negation or an Or of two exclusive ones)
    all of whose products have support under sigma."""
    term = ("pair", ("var", i), ("var", j))

    def rect(shape):
        beta = first_fit(lambda s: det_value(rng, i, s), lambda b: _supported(tables, list(sigma) + [(i, b)]),
                         shape)
        return ("prod", beta, det_value(rng, j, None if shape is None else shape + 2))

    if shape == "prod":
        return rect(det_shape)
    if shape == "neg":
        return ("neg", rect(det_shape))
    first = rect(det_shape)
    return ("or", first, first_fit(rect, lambda r: ref.arrow_free_exclusive(term, first, r), det_shape + 1))


def table_queries(rng) -> Workload:
    w = Workload("table_queries")
    rows = chain_rows(rng, TABLE_ROWS)
    resampled = rng.choices(rows, k=len(rows))
    fault_rows = []
    for k in range(5):
        row = {v: ATOMS[v][0] for v in VARIABLES}
        row["V0"], row["V1"] = ATOMS["V0"][k], ATOMS["V1"][k]
        fault_rows += [row, row]
    w.files = {
        "schema.txt": ref.schema_text(),
        "orig.csv": csv_text(rows),
        "resampled.csv": csv_text(resampled),
        "fault.csv": csv_text(fault_rows),
    }
    tables = {"orig": (ref.Table(rows), None), "resampled": (ref.Table(resampled), None),
              "laplace": (ref.Table(rows), 1)}
    chain_vars = VARIABLES[:6]

    def supported_sigma(pool, size, shape, minimum=1):
        return first_fit(lambda s: random_sigma(rng, pool, size, s), lambda sg: _supported(tables, sg, minimum),
                         shape)

    # Stratified: every round holds the same number of operations of each
    # system, context size and shape, whatever the seed.
    ops = []
    for n in range(TABLE_MIX["dist"]):
        system, size = SYSTEMS[n % 3], (n // 3) % 4
        target = rng.choice(VARIABLES)
        sigma = supported_sigma([v for v in chain_vars if v != target], size, n)
        table, smoothing = tables[system]
        ops.append(({"kind": "dist", "sys": system, "sigma": show_sigma(sigma), "target": target},
                    table.distribution(sigma, target, smoothing), 0.0 if smoothing is None else 1e-12))

    for n in range(TABLE_MIX["indep"]):
        if n < 8:  # exactly independent by construction
            t, u = ("V6", "V7") if n % 2 else ("V7", "V6")
            system, sigma = "orig", []
        else:
            system = ("orig", "resampled")[n % 2]
            k = rng.randrange(5)
            t, u = rng.sample(chain_vars[k:k + 2], 2)
            pool = [v for v in chain_vars if v not in (t, u)]
            table = tables[system][0]
            sigma = first_fit(lambda s: random_sigma(rng, pool, n % 3, s),
                              lambda sg: all(table.support(sg + [(t, ("atom", x))]) for x in ATOMS[t]), n)
        dev = ref.max_deviation(tables[system][0], sigma, t, u)
        ops.append(({"kind": "indep", "sys": system, "sigma": show_sigma(sigma), "t": t, "u": u},
                    [dev <= Fraction(1e-9), dev], 1e-12))

    for n in range(TABLE_MIX["general"]):
        copy = ("resampled", "laplace")[n % 2]
        kind = ("JT", "ET", "AT", "WT")[n % 4]
        m = None if kind == "JT" else 1 + (n // 4) % 4
        tol = ((0.0,) + ODD_TOLS)[n % 3]
        targets = rng.sample(VARIABLES, 2)
        pool = [v for v in chain_vars if v not in targets]
        contexts = [supported_sigma(pool, size, n + size) for size in (1, 2)]
        relevance = None
        if kind != "JT" and n % 5 < 2:
            picked = sorted(rng.sample(range(5), rng.randint(1, 3)))
            relevance = {targets[0]: [ATOMS[targets[0]][i] for i in picked]}
        entries = []
        for sigma in contexts:
            for target in targets:
                f = tables["orig"][0].distribution(sigma, target)
                table, smoothing = tables[copy]
                g = table.distribution(sigma, target, smoothing)
                relevant = None
                if relevance and target in relevance:
                    relevant = [ATOMS[target].index(a) for a in relevance[target]]
                entries += ref.trust_entries(f, g, kind, m, Fraction(tol), relevant)
        ops.append(({"kind": "general", "copy": copy, "contexts": [show_sigma(s) for s in contexts],
                     "targets": targets, "relevance": relevance, "trust": [kind, m], "tol": tol},
                    [ref.holds(entries), [list(e) for e in entries]], 1e-12))

    for n in range(TABLE_MIX["nonatomic"]):
        copy = ("resampled", "laplace")[n % 2]
        kind = ("JT", "ET", "AT")[n % 3]
        tol = ODD_TOLS[(n // 2) % 2]
        i, j = rng.sample(chain_vars, 2)
        sigma = supported_sigma([v for v in chain_vars if v not in (i, j)], (n // 3) % 2, n, 20)
        values = [_pair_value(rng, tables, sigma, i, j, ("prod", "neg")[(n // 6) % 2], n),
                  _pair_value(rng, tables, sigma, i, j, "or", n + 1)]
        entries = []
        for value in values:
            f = _pair_value_prob(tables, "orig", sigma, i, j, value)
            g = _pair_value_prob(tables, copy, sigma, i, j, value)
            entries += ref.trust_entries([f], [g], kind, 1, Fraction(tol))
        ops.append(({"kind": "nonatomic", "copy": copy, "term": f"<{i},{j}>", "sigma": show_sigma(sigma),
                     "values": [show_value(v) for v in values], "trust": [kind, 1], "tol": tol},
                    [ref.holds(entries), [list(e) for e in entries]], 1e-12))

    for n in range(TABLE_MIX["derive"]):
        system, shape, size = SYSTEMS[n % 3], (n // 3) % 3, (n % 2 + n // 9) % 3
        table, smoothing = tables[system]
        if shape == 0:  # product over a pair term
            i, j = rng.sample(chain_vars, 2)
            sigma = supported_sigma([v for v in chain_vars if v not in (i, j)], size, n, 20)
            value = _pair_value(rng, tables, sigma, i, j, ("prod", "neg")[n % 2], n)
            term = ("pair", ("var", i), ("var", j))
            p = _pair_value_prob(tables, system, sigma, i, j, value)
        elif shape == 1:  # conditional value over [Vi]Vj
            i, j = rng.sample(chain_vars, 2)
            sigma = supported_sigma([v for v in chain_vars if v not in (i, j)], size, n, 20)
            beta = first_fit(lambda s: det_value(rng, i, s), lambda b: _supported(tables, sigma + [(i, b)]), n)
            delta = det_value(rng, j, n + 2)
            value, term = ("arrow", beta, delta), ("cond", ("var", i), ("var", j))
            dist = table.distribution(sigma + [(i, beta)], j, smoothing)
            p = sum(q for a, q in zip(ATOMS[j], dist) if a in ref.star(delta, j))
        else:  # compound value of one variable
            j = rng.choice(VARIABLES)
            sigma = supported_sigma([v for v in chain_vars if v != j], size, n)
            value, term = det_value(rng, j, n + 2), ("var", j)
            dist = table.distribution(sigma, j, smoothing)
            p = sum(q for a, q in zip(ATOMS[j], dist) if a in ref.star(value, j))
        ops.append(({"kind": "derive", "sys": system, "sigma": show_sigma(sigma), "term": show_term(term),
                     "value": show_value(value)}, [p, True, []], 1e-12))

    rng.shuffle(ops)
    for op, answer, tol in ops:
        w.add(op, answer, tol)
    # Kept failing: ProdIIndep evidence {"verdict": True} that the fault
    # table refutes (V0 and V1 move together).  Counting gives
    # P(<V0,V1> : x*y) = 0.2, the rule 0.04; the checker must flag the root.
    # The inputs do not depend on the seed.
    for k in range(TABLE_MIX["checker"]):
        op = {"kind": "checker", "t": "V0", "u": "V1", "t_atom": ATOMS["V0"][2 * k], "u_atom": ATOMS["V1"][2 * k]}
        w.add(op, [False, ["root"]], known_fault=True)
    return w


# ---------------------------------------------------------------------------
# symbolic


JOINT_VARS = VARIABLES[:5]


def make_joint(rng) -> ref.Joint:
    factors = [[[rng.randint(1, 6) for _ in range(5)] for _ in range(5)] for _ in range(len(JOINT_VARS))]
    weights = {}
    idx = range(5)

    def walk(prefix):
        if len(prefix) == len(JOINT_VARS):
            w = 1
            for k in range(len(prefix)):
                w *= factors[k][prefix[k]][prefix[(k + 1) % len(prefix)]]
            weights[tuple(ATOMS[v][x] for v, x in zip(JOINT_VARS, prefix))] = w
            return
        for x in idx:
            walk(prefix + [x])

    walk([])
    return ref.Joint(JOINT_VARS, weights)


def _value_nodes(v) -> int:
    if v[0] == "atom":
        return 1
    if v[0] == "neg":
        return 1 + _value_nodes(v[1])
    return 1 + _value_nodes(v[1]) + _value_nodes(v[2])


def _value_internal_paths(v, path):
    """Paths of the internal nodes of the tree worker._build_value makes for v."""
    if v[0] == "atom":
        return []
    if v[0] == "neg":
        return [path] + _value_internal_paths(v[1], path + ".0")
    return [path] + _value_internal_paths(v[1], path + ".0") + _value_internal_paths(v[2], path + ".1")


def shaped_value(rng, term, depth):
    """A random value fitting the term's shape (arrow-free unless cond)."""
    if depth > 0 and rng.random() < 0.3:
        if rng.random() < 0.5:
            return ("neg", shaped_value(rng, term, depth - 1))
        return ("or", shaped_value(rng, term, depth - 1), shaped_value(rng, term, depth - 1))
    if term[0] == "var":
        return det_value(rng, term[1])
    if term[0] == "pair":
        return ("prod", shaped_value(rng, term[1], depth - 1), shaped_value(rng, term[2], depth - 1))
    return ("arrow", shaped_value(rng, term[1], depth - 1), shaped_value(rng, term[2], depth - 1))


def _linear_term(rng, shape):
    vs = [("var", v) for v in rng.sample(VARIABLES, 4)]
    return {
        "var": lambda: vs[0],
        "pair": lambda: ("pair", vs[0], vs[1]),
        "pair2": lambda: ("pair", ("pair", ("var", "V0"), ("var", "V1")), ("pair", ("var", "V2"), ("var", "V3"))),
        "pair3": lambda: ("pair", vs[0], ("pair", vs[1], vs[2])),
        "cond": lambda: ("cond", vs[0], vs[1]),
        "cond_pair": lambda: ("cond", vs[0], ("pair", vs[1], vs[2])),
        "pair_cond": lambda: ("cond", ("pair", vs[0], vs[1]), vs[2]),
    }[shape]()


def _cond_value(rng, term, antecedents, depth=2):
    """A conditional value whose antecedent comes from a small pool."""
    if depth and rng.random() < 0.25:
        inner = _cond_value(rng, term, antecedents, depth - 1)
        if rng.random() < 0.6:
            return ("neg", inner)
        return ("or", inner, _cond_value(rng, term, antecedents, depth - 1))
    return ("arrow", rng.choice(antecedents), shaped_value(rng, term[2], 1))


def symbolic(rng) -> Workload:
    w = Workload("symbolic")
    joint = make_joint(rng)
    files = {"schema.txt": ref.schema_text()}
    systems = {}  # (sigma text, var) -> file name

    def system_for(sigma, var):
        key = (show_sigma(sigma), var)
        if key not in systems:
            name = f"sys/j{len(systems)}.sys"
            systems[key] = name
            files[name] = system_text("J", "exact", sigma, var, joint.distribution(sigma, var))
        return systems[key]

    ops = []
    for n in range(SYMBOLIC_MIX["tree"]):
        ops.append(_tree_op(rng, joint, system_for, tampered=n % 4 == 3))
    for n in range(SYMBOLIC_MIX["exclusive"]):
        ops.append(_exclusive_op(rng, n))
    for n in range(SYMBOLIC_MIX["preserve"]):
        ops.append(_preserve_op(rng, joint, construct=n % 2 == 0))
    for n in range(SYMBOLIC_MIX["algebra"]):
        ops.append(_algebra_op(rng, files, n))
    for n in range(SYMBOLIC_MIX["square_chain"]):
        ops.append(_square_chain_op(rng, files, n))
    for _ in range(SYMBOLIC_MIX["roundtrip"]):
        ops.append(_roundtrip_op(rng))
    rng.shuffle(ops)
    for op, answer, tol in ops:
        w.add(op, answer, tol)
    w.files = files
    return w


def _tree_op(rng, joint, system_for, tampered):
    """An Or of disjoint rectangles over <Vi,Vj>, about 50 nodes."""
    while True:
        i, j = rng.sample(JOINT_VARS, 2)
        sigma = random_sigma(rng, [v for v in JOINT_VARS if v not in (i, j)], rng.randint(0, 2))
        term = ("pair", ("var", i), ("var", j))
        rects, covered, nodes = [], frozenset(), -1
        for _ in range(60):
            rect = ("prod", det_value(rng, i), det_value(rng, j))
            cells = ref.cells(term, rect)
            if cells and not cells & covered:
                rects.append(rect)
                covered |= cells
                nodes += _value_nodes(rect) + 1
            if nodes >= 44:
                break
        if 44 <= nodes <= 60:
            break
    system_for(sigma, i)
    for rect in rects:
        system_for(sigma + [(i, rect[1])], j)
    p = sum(joint.prob(sigma, [(i, ref.star(r[1], i)), (j, ref.star(r[2], j))]) for r in rects)
    # Paths: the root is OrIR(acc, rect_k); a rectangle is ProdI1(major=delta, minor=beta).
    internal, acc = [], "root"
    for k in range(len(rects) - 1, -1, -1):
        rect_path = acc + ".1" if k else acc
        beta, delta = rects[k][1], rects[k][2]
        internal += [rect_path] + _value_internal_paths(delta, rect_path + ".0")
        internal += _value_internal_paths(beta, rect_path + ".1")
        if k:
            internal.append(acc)
            acc += ".0"
    tamper = rng.choice(internal) if tampered else None
    flagged = sorted({tamper, tamper.rpartition(".")[0] or "root"}) if tamper else []
    op = {"kind": "tree", "sigma": show_sigma(sigma), "t": i, "u": j,
          "rects": [[show_value(r[1]), show_value(r[2])] for r in rects], "tamper": tamper}
    return op, [p, not tampered, flagged], 1e-9


# Term shapes of the exclusivity operations, with the number of values of
# each disjunction, chosen so that one operation costs about the same.
EXCLUSIVE_SHAPES = {"var": 10, "pair": 7, "pair2": 5, "pair3": 5, "cond": 8, "cond_pair": 6, "pair_cond": 6}


def rect_value(rng, term):
    """An Or of one or two, possibly negated, products over a pair term.

    Deeper negated disjunctions make the rectangle count, and so the cost
    of one decision, grow exponentially; they are left out so that every
    exclusivity operation is of comparable cost.
    """
    def component(t):
        return det_value(rng, t[1]) if t[0] == "var" else ("prod", component(t[1]), component(t[2]))

    def item():
        p = ("prod", component(term[1]), component(term[2]))
        return ("neg", p) if rng.random() < 0.3 else p

    v = item()
    return ("or", v, item()) if rng.random() < 0.4 else v


def _exclusive_op(rng, n):
    """The exclusivity side conditions of one k-way disjunction."""
    shapes = tuple(EXCLUSIVE_SHAPES)
    shape = shapes[n % len(shapes)]
    k = EXCLUSIVE_SHAPES[shape]
    term = _linear_term(rng, shape)
    if term[0] == "cond":
        antecedents = [shaped_value(rng, term[1], 1) for _ in range(2)]
        make = lambda: _cond_value(rng, term, antecedents)  # noqa: E731
    elif term[0] == "pair":
        make = lambda: rect_value(rng, term)  # noqa: E731
    else:
        make = lambda: shaped_value(rng, term, 3)  # noqa: E731
    values = []
    want_exclusive = (n // len(shapes)) % 2 == 0
    for _ in range(200):
        if len(values) == k:
            break
        v = make()
        if want_exclusive and not all(ref.exclusive(term, v, u) for u in values):
            continue
        values.append(v)
    while len(values) < k:
        values.append(make())
    pairs = [ref.exclusive(term, values[a], values[b])
             for a in range(k) for b in range(a + 1, k)]
    return {"kind": "exclusive", "term": show_term(term), "values": [show_value(v) for v in values]}, pairs, 0.0


BUMP = 2.0 ** -8


def _preserve_op(rng, joint, construct):
    """One plan checked under JT, ET(1), AT(1) and WT(1)."""
    while True:
        i, j = rng.sample(JOINT_VARS, 2)
        sigma = random_sigma(rng, [v for v in JOINT_VARS if v not in (i, j)], rng.randint(0, 1))
        leaves, steps, build = {}, [], {}
        if construct:
            # Or of k disjoint atom rectangles, maybe negated at the end
            k = rng.randint(2, 4)
            xs = rng.sample(ATOMS[i], k)
            for n, x in enumerate(xs):
                y = rng.choice(ATOMS[j])
                pm = float(joint.prob(sigma, [(i, {x})]))
                pM = float(joint.prob(sigma + [(i, ("atom", x))], [(j, {y})]))
                leaves[f"m{n}"] = (sigma, ("var", i), ("atom", x), pm)
                leaves[f"M{n}"] = (sigma + [(i, ("atom", x))], ("var", j), ("atom", y), pM)
                steps.append([f"p{n}", "ProdI1", [f"M{n}", f"m{n}"], "forward"])
            acc = "p0"
            for n in range(1, k):
                steps.append([f"o{n}", "OrIR", [acc, f"p{n}"], "forward"])
                acc = f"o{n}"
            negated = rng.random() < 0.5
            if negated:
                steps.append(["neg", "NegIER", [acc], "forward"])

            def result(vals):
                total = sum(Fraction(vals[f"m{n}"]) * Fraction(vals[f"M{n}"]) for n in range(k))
                return 1 - total if negated else total
            guaranteed = {"JT": True, "ET": True, "AT": not negated, "WT": not negated}
        else:
            # eliminate the last disjuncts of an Or of k atoms, one by one
            k = rng.randint(3, 5)
            xs = rng.sample(ATOMS[i], k)
            for n, x in enumerate(xs):
                leaves[f"x{n}"] = (sigma, ("var", i), ("atom", x), float(joint.prob(sigma, [(i, {x})])))
            build["big"] = ["or_chain", [f"x{n}" for n in range(k)]]
            acc = "big"
            for n in range(k - 1, 0, -1):
                steps.append([f"e{n}", "OrERb", [acc, f"x{n}"], "forward"])
                acc = f"e{n}"

            def result(vals):
                return Fraction(vals["x0"])
            guaranteed = {"JT": True, "ET": True, "AT": False, "WT": False}
        orig = {name: leaf[3] for name, leaf in leaves.items()}
        copy = {name: leaf[3] + BUMP for name, leaf in leaves.items()}
        if construct and not all(result(vals) <= 1 - Fraction(1, 64) and 1 - result(vals) <= 1 - Fraction(1, 64)
                                 for vals in (orig, copy)):
            continue
        if not construct and sum(Fraction(copy[f"x{n}"]) for n in range(k)) > 1 - Fraction(1, 64):
            continue
        break
    answer = []
    for kind in ("JT", "ET", "AT", "WT"):
        vals = orig if kind in ("JT", "ET") else copy
        f, g = result(orig), result(vals)
        entries = ref.trust_entries([f], [g], kind, 1, Fraction(0))
        answer.append([ref.holds(entries), not guaranteed[kind], f, g])
    op = {"kind": "preserve", "mode": "construct" if construct else "deconstruct",
          "orig": {n: show_judgment(*leaf[:3], orig[n]) for n, leaf in leaves.items()},
          "copy": {n: show_judgment(*leaf[:3], copy[n]) for n, leaf in leaves.items()},
          "build": build, "steps": steps}
    return op, answer, 1e-12


def dyadic(rng, n, zeros=True):
    """n probabilities k/64 summing to one."""
    parts = composition(rng, 64 + n, n)
    probs = [Fraction(p - 1, 64) for p in parts]
    if not zeros and min(probs) == 0:
        return dyadic(rng, n, zeros)
    return probs


def _move(rng, probs, units):
    out = list(probs)
    i, j = rng.sample(range(len(out)), 2)
    delta = min(out[i], Fraction(units, 64))
    out[i] -= delta
    out[j] += delta
    return out


def _algebra_op(rng, files, n):
    base = dyadic(rng, 5)
    triple = [base]
    for _ in range(2):
        triple.append(_move(rng, triple[-1], rng.randint(1, 4)) if rng.random() < 0.7 else list(triple[-1]))
    names = []
    for label, probs in zip("abc", triple):
        name = f"alg/t{n}{label}.sys"
        files[name] = system_text("A", label, [], "V5", probs)
        names.append(name)
    return {"kind": "algebra", "systems": names}, [ref.algebra_law_count(5), 0], 0.0


def _square_chain_op(rng, files, n):
    base = dyadic(rng, 5, zeros=False)
    m = rng.randint(1, 3)
    a1 = base[:m] + _move(rng, base[m:], rng.randint(1, 4))  # ET(m) copy: same prefix
    b1 = list(base)
    donor = max(range(m, 5), key=lambda x: b1[x])
    gain = min(b1[donor], Fraction(rng.randint(1, 3), 64))
    b1[donor] -= gain
    b1[rng.randrange(m)] += gain
    names = {}
    for label, probs in (("base", base), ("a1", a1), ("b1", b1)):
        names[label] = f"sq/s{n}{label}.sys"
        files[names[label]] = system_text("Q", label, [], "V6", probs)
    variant = ("AT", "WT", "ET")[n % 3]
    k = rng.randint(m + 1, 5)
    l = _chain_target(rng, variant, m, k)
    steps = 40
    square = ref.trust_entries(a1, b1, "AT", m, Fraction(0))
    chain_out = _diverging_chain(base, m, k, variant, steps, l)
    op = {"kind": "square_chain", "systems": names, "m": m, "k": k, "l": l, "variant": variant, "steps": steps}
    return op, [ref.holds(square), [list(e) for e in square], True, chain_out], 0.0


def _chain_target(rng, variant, m, k):
    """Where the chain moves mass: atom 1 (AT), l <= m (WT), l > m, l != k (ET)."""
    if variant == "AT":
        return None
    if variant == "WT":
        return rng.randint(1, m)
    return rng.choice([x for x in range(m + 1, 6) if x != k])


def _diverging_chain(base, m, k, variant, steps, l):
    """The reference chain from the base as the program reads it (str of the
    float).  Every step must stay in relation to its parent and the chains
    must never agree again; for AT and WT not even on the first m atoms."""
    chain = ref.chain([Fraction(str(float(p))) for p in base], m, k, variant, steps, l)
    if not all(s[0] and not s[1] and (variant == "ET" or not s[2]) for s in chain):
        raise RuntimeError(f"chain {variant} m={m} k={k} l={l} does not diverge")
    return [[s[0], s[1], s[2], [str(x) for x in s[3]], [str(x) for x in s[4]]] for s in chain]


def _messy(rng, text):
    """The same text with extra spaces around some punctuation."""
    out = []
    for ch in text:
        if ch in ",+*:" and rng.random() < 0.5:
            out.append(" " + ch + " ")
        else:
            out.append(ch)
    return "".join(out)


def _messy_value(rng, v):
    """Print v with redundant parentheses around some subvalues."""
    text = show_value(v)
    if v[0] == "atom":
        return f"({text})" if rng.random() < 0.2 else text
    if v[0] == "neg":
        inner = _messy_value(rng, v[1])
        return "~(" + inner + ")"
    op = {"or": "+", "prod": "*", "arrow": "->"}[v[0]]
    return f"({_messy_value(rng, v[1])}){op}({_messy_value(rng, v[2])})"


def _roundtrip_op(rng):
    canon, messy = [], []
    for _ in range(8):
        shape = rng.choice(("var", "pair", "pair3", "cond", "cond_pair"))
        term = _linear_term(rng, shape)
        used = set(ref.term_vars(term))
        sigma = random_sigma(rng, [v for v in VARIABLES if v not in used], rng.randint(0, 2))
        value = shaped_value(rng, term, 3)
        p = rng.choice((round(rng.random(), 3), rng.random()))
        canon.append(show_judgment(sigma, term, value, p))
        prefix = ", ".join(f"{var} : {_messy_value(rng, v)}" for var, v in sigma)
        messy.append(_messy(rng, f"{prefix} |> {show_term(term)} : ") + _messy_value(rng, value) + f" @ {p!r}")
    return {"kind": "roundtrip", "judgments": messy + canon}, canon + canon, 0.0


# ---------------------------------------------------------------------------
# cli_session


def cli_session(rng) -> Workload:
    w = Workload("cli_session")
    rows = chain_rows(rng, CLI_ROWS)
    table = ref.Table(rows)
    files = {"schema.txt": ref.schema_text(), "small.csv": csv_text(rows)}
    chain_vars = VARIABLES[:6]
    invocations = []

    def supported_sigma(pool, size, shape, minimum=20):
        return first_fit(lambda s: random_sigma(rng, pool, size, s), lambda sg: table.support(sg) >= minimum, shape)

    for n in range(CLI_MIX["parse"]):
        op, canon, _ = _roundtrip_op(rng)
        invocations.append((["parse", "schema.txt", op["judgments"][0]], [0, canon[0]], 0.0))

    for n in range(CLI_MIX["exclusive"]):
        term = _linear_term(rng, ("pair2", "cond", "pair")[n % 3])
        if term[0] == "cond":
            ante = shaped_value(rng, term[1], 1)
            a, b = _cond_value(rng, term, [ante]), _cond_value(rng, term, [ante])
        else:
            a, b = rect_value(rng, term), rect_value(rng, term)
        verdict = ref.exclusive(term, a, b)
        invocations.append((["exclusive", "schema.txt", show_term(term), show_value(a), show_value(b)],
                            [0 if verdict else 1, "exclusive" if verdict else "not-exclusive"], 0.0))

    target = rng.choice(VARIABLES)
    sigma = supported_sigma([v for v in chain_vars if v != target], 1, 0)
    f = table.distribution(sigma, target)
    g = table.distribution(sigma, target, 1)
    files["orig.sys"] = system_text("small", "freq", sigma, target, f)
    files["copy.sys"] = system_text("small", "laplace:1", sigma, target, g)
    f = [Fraction(float(p)) for p in f]
    g = [Fraction(float(p)) for p in g]
    for n in range(CLI_MIX["compare"]):
        name = ("JT", "ET", "AT", "WT")[n % 4]
        m = None if name == "JT" else rng.randint(1, 4)
        tol = rng.choice((0.0,) + ODD_TOLS)
        entries = ref.trust_entries(f, g, name, m, Fraction(tol))
        spec = name.lower() if m is None else f"{name.lower()}:{m}"
        verdict = ref.holds(entries)
        invocations.append((["compare", "schema.txt", "orig.sys", "copy.sys", "--kind", spec, "--tol", repr(tol)],
                            [0 if verdict else 1, [list(e) for e in entries],
                             f"VERDICT {spec} {'true' if verdict else 'false'}"], 1e-12))

    # preserve: Or of two atoms of one variable; the copy dominates both
    pv = rng.choice(chain_vars)
    x, y = rng.sample(range(5), 2)
    base = table.distribution([], pv)
    moved = min(base[z] for z in range(5) if z not in (x, y)) / 2
    donors = [z for z in range(5) if z not in (x, y)]
    dom = list(base)
    for z in donors:
        dom[z] -= moved / len(donors) * 2
    dom[x] += moved
    dom[y] += moved
    files["p_orig.sys"] = system_text("small", "freq", [], pv, base)
    files["p_copy.sys"] = system_text("small", "shifted", [], pv, dom)
    files["plan.txt"] = f"a = ATQUERY {pv} : {ATOMS[pv][x]}\nb = ATQUERY {pv} : {ATOMS[pv][y]}\nboth = OrIR a b\n"
    fb = [Fraction(float(p)) for p in base]
    gb = [Fraction(float(p)) for p in dom]
    for n in range(CLI_MIX["preserve"]):
        kind = ("at", "jt", "wt", "et")[n % 4]
        dominates = kind in ("at", "wt")  # JT and ET need the copy's inputs equal
        copy = "p_copy.sys" if dominates else "p_orig.sys"
        g = gb if dominates else fb
        fo, go = fb[x] + fb[y], g[x] + g[y]
        ok = go >= fo and (fo == 0) == (go == 0) if dominates else go == fo
        invocations.append((["preserve", "schema.txt", "--orig", "p_orig.sys", "--copy", copy, "--plan", "plan.txt",
                             "--kind", kind, "--mode", "construct"],
                            [0 if ok else 1, f"VERDICT preserve-{kind} {'true' if ok else 'false'}"], 0.0))

    cbase = dyadic(rng, 5, zeros=False)
    files["chain.sys"] = system_text("C", "base", [], "V7", cbase)
    for n in range(CLI_MIX["chain"]):
        m = rng.randint(1, 3)
        k = rng.randint(m + 1, 5)
        variant = ("AT", "WT")[n % 2]
        l = _chain_target(rng, variant, m, k)
        args = ["chain", "schema.txt", "chain.sys", "--variant", variant.lower(), "--m", str(m), "--k", str(k),
                "--steps", "25"] + (["--l", str(l)] if l else [])
        rows = _diverging_chain(cbase, m, k, variant, 25, l)
        invocations.append((args, [0, rows, f"VERDICT chain-{variant.lower()} true"], 0.0))

    for n in range(CLI_MIX["learn"]):
        target = rng.choice(VARIABLES)
        sigma = supported_sigma([v for v in chain_vars if v != target], n % 3, n)
        smoothing = 1 if n % 2 else None
        args = ["learn", "schema.txt", "small.csv", "--target", target]
        if sigma:
            args += ["--sigma", show_sigma(sigma)]
        if smoothing:
            args += ["--estimator", "laplace:1"]
        invocations.append((args, [0, table.distribution(sigma, target, smoothing)],
                            0.0 if smoothing is None else 1e-12))

    for n in range(CLI_MIX["derive"]):
        i, j = rng.sample(chain_vars, 2)
        beta = first_fit(lambda s: det_value(rng, i, s), lambda b: table.support([(i, b)]) >= 5, n)
        # delta's leaves are the row scans (under sigma = Vi:beta); two each,
        # an Or or a negated Or of two atoms, so every derive costs the same
        delta = det_value(rng, j, (2, 4)[n % 2])
        script, expected = _derive_script(table, i, j, beta, delta)
        files[f"proof{n}.txt"] = script
        invocations.append((["derive", "schema.txt", "small.csv", "--script", f"proof{n}.txt", "--check"],
                            [0, expected, "CHECK\tok"], 1e-12))

    rng.shuffle(invocations)
    for args, answer, tol in invocations:
        w.add({"kind": args[0], "args": args}, answer, tol)
    w.files = files
    return w


def _derive_script(table, i, j, beta, delta):
    """A proof script for <Vi,Vj> : beta*delta, and each step's judgment."""
    lines, expected = [], []

    def emit(name, rule_text, sigma, term, value, p):
        lines.append(f"{name} = {rule_text}")
        expected.append([name, show_judgment(sigma, term, value, 0.0).rpartition(" @ ")[0], p])

    def leaves(prefix, sigma, var, value):
        dist = dict(zip(ATOMS[var], table.distribution(sigma, var)))
        sigma_text = show_sigma(sigma) + " |> " if sigma else ""
        if value[0] == "atom":
            emit(prefix, f"ATQUERY {sigma_text}{var} : {value[1]}", sigma, ("var", var), value, dist[value[1]])
            return prefix, dist[value[1]]
        if value[0] == "neg":
            inner, p = leaves(prefix + "n", sigma, var, value[1])
            emit(prefix, f"NegIER {inner}", sigma, ("var", var), value, 1 - p)
            return prefix, 1 - p
        left, p = leaves(prefix + "l", sigma, var, value[1])
        right, q = leaves(prefix + "r", sigma, var, value[2])
        emit(prefix, f"OrIR {left} {right}", sigma, ("var", var), value, p + q)
        return prefix, p + q

    minor, p = leaves("b", [], i, beta)
    major, q = leaves("d", [(i, beta)], j, delta)
    emit("pair", f"ProdI1 {major} {minor}", [], ("pair", ("var", i), ("var", j)), ("prod", beta, delta), p * q)
    return "\n".join(lines) + "\n", expected
