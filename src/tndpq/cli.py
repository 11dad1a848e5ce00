"""Command-line interface.

One binary with subcommands: parse, learn, derive, exclusive, compare,
chain and preserve.  Verdict-bearing commands end with a single
machine-parseable `VERDICT` line; exit status 0 means the verdict is true
(or the command simply succeeded), 1 means the verdict is false, and 2
means a usage or data error.  All tabular output is tab-separated and
deterministically ordered.

Each command's arguments are stated once, in `_COMMANDS`.  `main` reads an
argument list of the plain form against that table itself: the command
name, exactly its positionals, then its options by their exact flags, each
at most once, no value starting with `-`.  Every other list goes unchanged
to the argparse parser built from the same table, and argparse is imported
only then: `-h`, usage errors, abbreviated flags and `--opt=value` are read
by argparse, and their help and error texts are argparse's own.
"""

from __future__ import annotations

import math
import sys
from types import SimpleNamespace

from .errors import TndpqError, UnknownCondition

# Each command imports the layers it runs, inside its function, so that a
# process pays the import of no layer it does not use.


def _parse_estimator(spec: str) -> Estimator:
    from .systems import Estimator

    if spec == "freq":
        return Estimator("freq", "freq")
    if spec.startswith("laplace:"):
        try:
            smoothing = float(spec.split(":", 1)[1])
        except ValueError:
            raise TndpqError(f"bad smoothing in estimator spec {spec!r}") from None
        return Estimator(spec, "laplace", smoothing)
    if spec == "laplace":
        return Estimator("laplace", "laplace")
    raise TndpqError(f"unknown estimator spec {spec!r}, expected freq or laplace:<a>")


def _parse_kind(spec: str) -> trust.TrustKind:
    from . import trust

    name, _, m = spec.partition(":")
    name = name.lower()
    if name == "jt":
        if m:
            raise TndpqError("jt takes no prefix length")
        return trust.jt()
    if name in ("et", "wt", "at"):
        if not m:
            raise TndpqError(f"{name} needs a prefix length, e.g. {name}:2")
        try:
            return trust.TrustKind(name.upper(), int(m))
        except ValueError as exc:
            raise TndpqError(f"bad trust kind {spec!r}: {exc}") from None
    raise TndpqError(f"unknown trust kind {spec!r}")


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not math.isfinite(tol) or tol < 0:
        import argparse

        raise argparse.ArgumentTypeError(f"tolerance must be a finite number >= 0, got {text!r}")
    return tol


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        import argparse

        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return n


def _kind_label(kind: trust.TrustKind) -> str:
    label = kind.name.lower()
    return label if kind.m is None else f"{label}:{kind.m}"


def _print_trust_report(report: trust.TrustReport, label: str) -> int:
    """Print a trust report's evidence, warning and verdict; return the exit status."""
    for name, f, g, condition, ok in report.evidence:
        print(f"{name}\t{f!r}\t{g!r}\t{condition}\t{'ok' if ok else 'violated'}")
    if report.warning:
        print(f"WARNING\t{report.warning}")
    print(f"VERDICT {label} {'true' if report.verdict else 'false'}")
    return 0 if report.verdict else 1


# ---------------------------------------------------------------------------
# Proof scripts
#
# One step per line:  `id = RULE premise_ids... [| side assertions]`
# Leaves:             `id = ATQUERY [attrlist |>] variable : atom`
# A leaf is read by the judgment grammar against the schema.  A premise must
# be defined on an earlier line.  An optional `@backward` marker after the
# rule name is allowed only on the two double-line rules, ImpIE and NegIER.
# Side assertions: `independent t u` (verified on the training table under
# the premises' context) or `assume-independent t u` (taken on faith).


def parse_script(text: str, schema: AttributeSchema) -> dict:
    """Map each step id, in script order, to a leaf `(sigma, variable, atom)` or a `PlanStep`."""
    from .calculus import PlanStep, RuleId
    from .syntax import AtomVal, parse_attribution_list

    steps: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise TndpqError(f"script line {lineno}: expected `id = RULE ...`")
        name, rest = line.split("=", 1)
        name = name.strip()
        if name in steps:
            raise TndpqError(f"script line {lineno}: duplicate step id {name!r}")
        rest = rest.strip()
        rule_name = rest.split(maxsplit=1)[0] if rest else ""
        tail = rest[len(rule_name) + 1:]  # after the one whitespace character that ends the name
        if rule_name.upper() == "ATQUERY":
            sigma_text, _, query_text = tail.rpartition("|>")
            try:
                sigma = parse_attribution_list(sigma_text, schema)
                query = parse_attribution_list(query_text, schema)
            except TndpqError as exc:
                raise type(exc)(f"script line {lineno}: {exc}") from None
            if len(query) != 1 or type(query[0].value) is not AtomVal:
                raise TndpqError(f"script line {lineno}: ATQUERY needs `variable : atom`")
            steps[name] = (sigma, query[0].variable, query[0].value.name)
            continue
        head, _, side_text = tail.partition("|")
        args = head.split()
        if not rule_name:
            raise TndpqError(f"script line {lineno}: missing rule name")
        try:
            rule = RuleId(rule_name)
        except ValueError:
            raise TndpqError(f"script line {lineno}: unknown rule {rule_name!r}") from None
        direction = "forward"
        if args and args[0] == "@backward":
            direction = "backward"
            args = args[1:]
        for arg in args:
            if arg not in steps:
                raise TndpqError(f"script line {lineno}: unknown premise {arg!r}")
        side = ()
        if side_text.strip():
            assertion, *names = side_text.split()
            if len(names) != 2 or assertion not in ("independent", "assume-independent"):
                raise TndpqError(
                    f"step {name}: side assertion must be `independent t u` "
                    "or `assume-independent t u`"
                )
            fact = {"kind": "independent", "t": names[0], "u": names[1]}
            side = (fact | {"asserted": True} if assertion == "assume-independent" else fact,)
        steps[name] = PlanStep(name, rule, tuple(args), direction, side)
    if not steps:
        raise TndpqError("empty proof script")
    return steps


def _leaves_and_plan(steps: dict):
    from .calculus import Plan, PlanStep

    leaves = {name: s for name, s in steps.items() if not isinstance(s, PlanStep)}
    return leaves, Plan(tuple(s for s in steps.values() if isinstance(s, PlanStep)))


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_parse(args) -> int:
    from .syntax import load_schema, parse_judgment, print_judgment

    schema = load_schema(args.schema)
    judgment = parse_judgment(args.judgment, schema)
    print(print_judgment(judgment))
    return 0


def _cmd_learn(args) -> int:
    from .syntax import load_schema, parse_attribution_list
    from .systems import conditional_distribution, load_training_set, save_applied_system

    schema = load_schema(args.schema)
    ts = load_training_set(args.csv, schema)
    est = _parse_estimator(args.estimator)
    sigma = parse_attribution_list(args.sigma) if args.sigma else ()
    system = conditional_distribution(ts, est, sigma, args.target)
    for atom, p in system.distribution:
        print(f"{atom}\t{p!r}")
    if args.output:
        save_applied_system(system, args.output)
    return 0


def _cmd_derive(args) -> int:
    from .calculus import at_query, check_derivation, run_plan
    from .syntax import load_schema, open_text, print_judgment
    from .systems import load_training_set

    schema = load_schema(args.schema)
    ts = load_training_set(args.source, schema)
    est = _parse_estimator(args.estimator)
    source = (ts, est)
    with open_text(args.script) as handle:
        steps = parse_script(handle.read(), schema)
    leaves, plan = _leaves_and_plan(steps)
    env = {name: at_query(source, *leaf) for name, leaf in leaves.items()}
    env = run_plan(env, plan, schema, source)
    for name in steps:
        print(f"{name}\t{print_judgment(env[name].conclusion)}")
    if args.check:
        used = {p for step in plan.steps for p in step.operands}
        ok = True
        for name in steps:
            if name in used:
                continue
            report = check_derivation(env[name], schema, sources={ts.id: source})
            for path, kind, message in report.violations:
                ok = False
                print(f"CHECK\t{name}{path}\t{kind}\t{message}", file=sys.stderr)
        if not ok:
            return 2
        print("CHECK\tok")
    return 0


def _cmd_exclusive(args) -> int:
    from .exclusivity import exclusive
    from .syntax import load_schema, parse_term, parse_value

    schema = load_schema(args.schema)
    term = parse_term(args.term, schema)
    beta = parse_value(args.value1, schema)
    delta = parse_value(args.value2, schema)
    trace: list[str] | None = [] if args.explain else None
    verdict = exclusive(term, beta, delta, schema, trace=trace)
    if trace is not None:
        for line in trace:
            print(f"TRACE\t{line}")
    print("exclusive" if verdict else "not-exclusive")
    return 0 if verdict else 1


def _cmd_compare(args) -> int:
    from . import trust
    from .syntax import load_schema
    from .systems import load_applied_system

    schema = load_schema(args.schema)
    original = load_applied_system(args.original, schema)
    copy = load_applied_system(args.copy, schema)
    kind = _parse_kind(args.kind)
    report = trust.check_local(original, copy, kind, tol=args.tol)
    return _print_trust_report(report, _kind_label(kind))


def _cmd_chain(args) -> int:
    from fractions import Fraction

    from . import trust
    from .syntax import load_schema
    from .systems import load_applied_system

    schema = load_schema(args.schema)
    system = load_applied_system(args.system, schema)
    chain_a, chain_b, report = trust.build_chain(
        system, system, args.m, args.k, variant=args.variant, steps=args.steps, l=args.l
    )
    def fmt(dist):
        return ",".join(str(Fraction(p)) for p in dist)
    print("step\tin-relation\tjt-again\tet-again\tchain-a\tchain-b")
    for entry in report.steps:
        print(
            f"{entry['step']}\t{entry['parent_relation']}\t{entry['jt_cross']}"
            f"\t{entry['et_cross']}\t{fmt(entry['f'])}\t{fmt(entry['g'])}"
        )
    label = f"chain-{report.variant.lower()}"
    print(f"VERDICT {label} {'true' if report.ok else 'false'}")
    return 0 if report.ok else 1


def _cmd_preserve(args) -> int:
    from . import trust
    from .calculus import at_query
    from .construction import verify_preservation
    from .syntax import load_schema, open_text
    from .systems import load_applied_system

    schema = load_schema(args.schema)
    orig_systems = [load_applied_system(p, schema) for p in args.orig]
    copy_systems = [load_applied_system(p, schema) for p in args.copy]
    with open_text(args.plan) as handle:
        leaves, plan = _leaves_and_plan(parse_script(handle.read(), schema))
    if not leaves or not plan.steps:
        raise TndpqError("a preservation plan needs ATQUERY inputs and rule steps")

    def query(systems, sigma, var, atom):
        for system in systems:
            try:
                return at_query(system, sigma, var, atom)
            except UnknownCondition:
                continue
        raise UnknownCondition(f"no provided system covers {var!r} under the given context")

    def inputs_for(systems):
        return {name: query(systems, *leaf) for name, leaf in leaves.items()}

    kind = trust.TrustKind(args.kind.upper(), None if args.kind == "jt" else 1)
    report = verify_preservation(
        inputs_for(orig_systems),
        inputs_for(copy_systems),
        plan,
        kind,
        args.mode,
        schema,
        tol=args.tol,
    )
    return _print_trust_report(report, f"preserve-{args.kind}")


# ---------------------------------------------------------------------------
# Command table, and the entry point that reads it


class _Option:
    """One option of a command, as argparse's `add_argument` is given it.

    `nargs` is None for one value, "+" for one or more, and 0 for a flag
    that takes none and stores True (argparse's `store_true`).
    """

    def __init__(self, *flags, type=None, choices=None, default=None, required=False, nargs=None, help=None):
        self.flags = flags
        self.dest = flags[-1].lstrip("-")  # argparse's: each option's last flag is its long one
        self.type = type
        self.choices = choices
        self.default = False if nargs == 0 else default
        self.required = required
        self.nargs = nargs
        self.help = help


# name: (help, positionals as (name, help), options, runner)
_COMMANDS = {
    "parse": ("round-trip a judgment through the grammar", [("schema", None), ("judgment", None)], [], _cmd_parse),
    "learn": (
        "estimate a conditional distribution from a CSV",
        [("schema", None), ("csv", None)],
        [
            _Option("--sigma", default=""),
            _Option("--target", required=True),
            _Option("--estimator", default="freq"),
            _Option("-o", "--output"),
        ],
        _cmd_learn,
    ),
    "derive": (
        "run a proof script against a training table",
        [("schema", None), ("source", "training CSV")],
        [
            _Option("--script", required=True),
            _Option("--estimator", default="freq"),
            _Option("--check", nargs=0),
        ],
        _cmd_derive,
    ),
    "exclusive": (
        "decide mutual exclusivity of two values",
        [("schema", None), ("term", None), ("value1", None), ("value2", None)],
        [_Option("--explain", nargs=0)],
        _cmd_exclusive,
    ),
    "compare": (
        "check a trust relation between two systems",
        [("schema", None), ("original", None), ("copy", None)],
        [
            _Option("--kind", required=True, help="jt | et:<m> | wt:<m> | at:<m>"),
            _Option("--tol", type=_tolerance, default=0.0),
        ],
        _cmd_compare,
    ),
    "chain": (
        "build diverging trust chains from one system",
        [("schema", None), ("system", None)],
        [
            _Option("--variant", choices=("at", "wt", "et"), default="at"),
            _Option("--m", type=int, required=True),
            _Option("--k", type=int, required=True),
            _Option("--l", type=int),
            _Option("--steps", type=_positive_int, default=10),
        ],
        _cmd_chain,
    ),
    "preserve": (
        "check trust preservation along a plan",
        [("schema", None)],
        [
            _Option("--orig", nargs="+", required=True),
            _Option("--copy", nargs="+", required=True),
            _Option("--plan", required=True),
            _Option("--kind", choices=("jt", "et", "at", "wt"), required=True),
            _Option("--mode", choices=("construct", "deconstruct"), required=True),
            _Option("--tol", type=_tolerance, default=0.0),
        ],
        _cmd_preserve,
    ),
}


def _read(argv):
    """`argv`'s arguments, as argparse would give them, when it has the plain form; else None.

    The plain form is a command name, exactly that command's positionals,
    then its options by their exact flags, each at most once.  No
    positional or value starts with `-`; a flag of nargs "+" takes the
    values up to the next flag.  Each value must pass the option's type and
    choices, and every required option must be given.  Whatever deviates
    (`-h`, an abbreviated flag, `--opt=value`, `--`, a repeated option, a
    bad value) is left to argparse, which reads it or says what is wrong.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, positionals, options, run = _COMMANDS[argv[0]]
    i = 1 + len(positionals)
    if len(argv) < i or any(text.startswith("-") for text in argv[1:i]):
        return None
    args = {"command": argv[0], "func": run}
    args.update(zip((name for name, _ in positionals), argv[1:i]))
    by_flag = {flag: option for option in options for flag in option.flags}
    given = {}
    while i < len(argv):
        option = by_flag.get(argv[i])
        if option is None or option in given:
            return None
        i += 1
        if option.nargs == 0:
            given[option] = True
            continue
        end = i
        while end < len(argv) and not argv[end].startswith("-") and (end == i or option.nargs == "+"):
            end += 1
        if end == i:
            return None
        values = []
        for text in argv[i:end]:
            try:
                value = text if option.type is None else option.type(text)
            except Exception:  # ValueError, TypeError or argparse's ArgumentTypeError; argparse names the fault
                return None
            if option.choices is not None and value not in option.choices:
                return None
            values.append(value)
        given[option] = values if option.nargs == "+" else values[0]
        i = end
    for option in options:
        if option not in given:
            if option.required:
                return None
            given[option] = option.default
    args.update((option.dest, value) for option, value in given.items())
    return SimpleNamespace(**args)


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="tndpq", description="probabilistic judgment calculus toolbox"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, positionals, options, run) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for positional, positional_help in positionals:
            p.add_argument(positional, help=positional_help)
        for option in options:
            if option.nargs == 0:
                p.add_argument(*option.flags, action="store_true", help=option.help)
            else:
                p.add_argument(
                    *option.flags, type=option.type, choices=option.choices, default=option.default,
                    required=option.required, nargs=option.nargs, help=option.help,
                )
        p.set_defaults(func=run)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read(argv) or _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TndpqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
