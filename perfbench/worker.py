"""The processes that run tndpq, and the one client that drives them.

Run in the directory holding the generated inputs, with tndpq importable:

    python3 worker.py client <workload> <seconds> <trace 0|1>
    python3 worker.py setup <workload>
    python3 worker.py run <workload> <seconds> <trace 0|1>
    python3 worker.py cli <spans.json> <tndpq arguments...>

`client` is the one client of the closed loop.  For cli_session it starts
one tndpq process per verdict; otherwise it starts `run`.  It then starts
`setup` processes until it has SETUP_SAMPLES set-up times, and writes
everything to client.json.  `setup` imports the package, loads the
workload's files and prints the time that took.  `run` does the same, then
asks for the round's verdicts one after another, round after round, until
`seconds` have passed; it writes the latencies to run.lat and the outputs
to run.json.  With trace 1, rounds run untraced for half the time (at
least 1 + TRACE_ROUNDS of them), then one round fewer runs traced.  `cli`
is a tndpq process with spans recorded.

Only `os`, `sys` and `time`, which the interpreter has loaded before it
runs any script, are imported at module level; everything else is imported
where it is used, after the set-up clock has stopped.  So the set-up time
includes the whole import of tndpq, standard modules and all.
"""

import os
import sys
import time


def run_rounds(ops, execute, seconds, latency_path, rounds=None, min_rounds=1, on_round=None):
    """Whole rounds of `ops` until `seconds` have passed (or `rounds` are done).

    At least `min_rounds` rounds are run.  Each round's latencies go to
    `latency_path` as doubles when the round ends, so the process holds one
    round of them however many rounds it runs.  Returns the first round's
    outputs, the (round, index) of outputs that differ from them, the number
    of rounds and the wall time of each round.
    """
    from array import array

    clock = time.perf_counter
    latencies = array("d", bytes(8 * len(ops)))
    first, changed, walls = None, [], []
    deadline = clock() + seconds
    with open(latency_path, "wb") as sink:
        while True:
            outputs = []
            begin = clock()
            for i, op in enumerate(ops):
                t = clock()
                try:
                    out = execute(op)
                except Exception as exc:  # a failed verdict is counted, not fatal
                    out = {"error": f"{type(exc).__name__}: {exc}"}
                latencies[i] = clock() - t
                outputs.append(out)
            walls.append(clock() - begin)
            latencies.tofile(sink)
            if first is None:
                first = outputs
            else:
                changed += [[len(walls) - 1, i] for i, (a, b) in enumerate(zip(first, outputs)) if a != b]
            if on_round is not None:
                on_round()
            done = len(walls)
            if rounds is not None:
                if done >= rounds:
                    break
            elif done >= min_rounds and clock() >= deadline:
                break
    return {"outputs": first, "changed": changed, "rounds": len(walls), "round_walls": walls}


def read_latencies(path):
    from array import array

    values = array("d")
    with open(path, "rb") as handle:
        values.frombytes(handle.read())
    return values.tolist()


# ---------------------------------------------------------------------------
# Set-up


def import_program(workload):
    import tndpq  # noqa: F401

    if workload == "cli_session":
        import tndpq.cli  # noqa: F401


def system_files():
    """The applied-system files of the work directory and its subdirectories."""
    paths = []
    for entry in os.scandir("."):
        if entry.is_dir():
            paths += [f"{entry.name}/{name}" for name in os.listdir(entry.name) if name.endswith(".sys")]
        elif entry.name.endswith(".sys"):
            paths.append(entry.name)
    return sorted(paths)


def load(workload, paths):
    from tndpq.syntax import load_schema
    from tndpq.systems import Estimator, load_applied_system, load_training_set

    schema = load_schema("schema.txt")
    state = {"schema": schema}
    if workload in ("table_queries", "cli_session"):
        tables = {}
        for name in ("orig", "resampled", "fault", "small"):
            if os.path.exists(f"{name}.csv"):
                tables[name] = load_training_set(f"{name}.csv", schema, id=name)
        freq = Estimator("freq", "freq")
        state["sources"] = {name: (ts, freq) for name, ts in tables.items()}
        if "orig" in tables:
            state["sources"]["laplace"] = (tables["orig"], Estimator("laplace:1", "laplace", 1.0))
    systems = {}
    for path in paths:
        systems[path] = load_applied_system(path, schema)
    state["systems"] = systems
    state["by_context"] = {
        (frozenset((va.variable, va.value) for va in s.sigma), s.variable): s for s in systems.values()
    }
    return state


def setup(workload):
    """Import tndpq and load the workload's files: (state, seconds taken)."""
    paths = system_files()
    start = time.perf_counter()
    import_program(workload)
    state = load(workload, paths)
    return state, time.perf_counter() - start


# ---------------------------------------------------------------------------
# Operations: each asks tndpq for one verdict and returns it as JSON data


def _kind(spec):
    from tndpq import trust

    name, m = spec
    return trust.jt() if name == "JT" else trust.TrustKind(name, m)


def op_dist(st, op):
    from tndpq.syntax import parse_attribution_list
    from tndpq.systems import conditional_distribution

    ts, est = st["sources"][op["sys"]]
    sigma = parse_attribution_list(op["sigma"], st["schema"])
    return list(conditional_distribution(ts, est, sigma, op["target"]).probabilities)


def op_indep(st, op):
    from tndpq.syntax import parse_attribution_list
    from tndpq.systems import independent

    ts, est = st["sources"][op["sys"]]
    verdict, witness = independent(ts, est, parse_attribution_list(op["sigma"], st["schema"]), op["t"], op["u"])
    return [verdict, witness["max_deviation"]]


def _evidence(report):
    return [report.verdict, [[f, g, ok] for _, f, g, _, ok in report.evidence]]


def op_general(st, op):
    from tndpq.syntax import parse_attribution_list
    from tndpq.trust import check_general

    contexts = [parse_attribution_list(c, st["schema"]) for c in op["contexts"]]
    report = check_general(st["sources"]["orig"], st["sources"][op["copy"]], contexts, op["targets"],
                           op["relevance"], _kind(op["trust"]), op["tol"])
    return _evidence(report)


def op_nonatomic(st, op):
    from tndpq.syntax import parse_attribution_list, parse_term, parse_value
    from tndpq.trust import check_nonatomic

    schema = st["schema"]
    report = check_nonatomic(st["sources"]["orig"], st["sources"][op["copy"]], parse_term(op["term"], schema),
                             parse_attribution_list(op["sigma"], schema),
                             [parse_value(v, schema) for v in op["values"]], _kind(op["trust"]), schema, op["tol"])
    return _evidence(report)


def op_derive(st, op):
    from tndpq.calculus import check_derivation
    from tndpq.construction import derive_value
    from tndpq.syntax import parse_attribution_list, parse_term, parse_value

    schema = st["schema"]
    source = st["sources"][op["sys"]]
    d = derive_value(source, parse_attribution_list(op["sigma"], schema), parse_term(op["term"], schema),
                     parse_value(op["value"], schema), schema)
    report = check_derivation(d, schema, sources={source[0].id: source})
    return [d.conclusion.probability, report.ok, sorted(p for p, _, _ in report.violations)]


def op_checker(st, op):
    from tndpq.calculus import RuleId, apply_rule, at_query, check_derivation

    schema = st["schema"]
    source = st["sources"]["fault"]
    evidence = [{"kind": "independent", "t": op["t"], "u": op["u"], "verdict": True}]
    d = apply_rule(RuleId.ProdIIndep,
                   [at_query(source, (), op["u"], op["u_atom"]), at_query(source, (), op["t"], op["t_atom"])],
                   schema, side=evidence)
    report = check_derivation(d, schema, sources={"fault": source})
    return [report.ok, sorted(p for p, _, _ in report.violations)]


def _build_value(st, sigma, var, value):
    """A derivation of sigma |> var : value from the stored applied systems."""
    from tndpq.calculus import RuleId, apply_rule, at_query
    from tndpq.syntax import AtomVal, Neg, Or

    schema = st["schema"]
    if isinstance(value, AtomVal):
        key = (frozenset((va.variable, va.value) for va in sigma), var)
        return at_query(st["by_context"][key], sigma, var, value.name)
    if isinstance(value, Neg):
        return apply_rule(RuleId.NegIER, [_build_value(st, sigma, var, value.inner)], schema)
    if isinstance(value, Or):
        parts = [_build_value(st, sigma, var, value.left), _build_value(st, sigma, var, value.right)]
        return apply_rule(RuleId.OrIR, parts, schema)
    raise ValueError(f"cannot build {value!r}")


def _tamper(node, path):
    """The tree with the node at `path` claiming a different probability."""
    import dataclasses

    if not path:
        p = node.conclusion.probability
        return dataclasses.replace(node, conclusion=node.conclusion.with_probability(p / 2 if p > 0.02 else p + 0.01))
    index, rest = path[0], path[1:]
    premises = list(node.premises)
    premises[index] = _tamper(premises[index], rest)
    return dataclasses.replace(node, premises=tuple(premises))


def op_tree(st, op):
    from tndpq.calculus import RuleId, apply_rule, check_derivation
    from tndpq.syntax import ValueAttribution, parse_attribution_list, parse_value

    schema = st["schema"]
    sigma = parse_attribution_list(op["sigma"], schema)
    tree = None
    for beta_text, delta_text in op["rects"]:
        beta, delta = parse_value(beta_text, schema), parse_value(delta_text, schema)
        minor = _build_value(st, sigma, op["t"], beta)
        major = _build_value(st, sigma + (ValueAttribution(op["t"], beta),), op["u"], delta)
        rect = apply_rule(RuleId.ProdI1, [major, minor], schema)
        tree = rect if tree is None else apply_rule(RuleId.OrIR, [tree, rect], schema)
    p = tree.conclusion.probability
    if op["tamper"]:
        tree = _tamper(tree, [int(i) for i in op["tamper"].split(".")[1:]])
    report = check_derivation(tree, schema)
    return [p, report.ok, sorted({path for path, _, _ in report.violations})]


def op_exclusive(st, op):
    from tndpq.exclusivity import exclusive
    from tndpq.syntax import parse_term, parse_value

    schema = st["schema"]
    term = parse_term(op["term"], schema)
    values = [parse_value(v, schema) for v in op["values"]]
    return [exclusive(term, values[a], values[b], schema)
            for a in range(len(values)) for b in range(a + 1, len(values))]


def op_preserve(st, op):
    from tndpq.calculus import Derivation, RuleId, apply_rule
    from tndpq.construction import Plan, PlanStep, verify_preservation
    from tndpq.syntax import parse_judgment

    schema = st["schema"]

    def inputs(texts):
        env = {name: Derivation(parse_judgment(text, schema), RuleId.AtQuery) for name, text in texts.items()}
        for name, (_, parts) in op["build"].items():  # "or_chain" of leaves
            acc = env[parts[0]]
            for part in parts[1:]:
                acc = apply_rule(RuleId.OrIR, [acc, env[part]], schema)
            env[name] = acc
        return env

    plan = Plan(tuple(PlanStep(sid, RuleId(rule), tuple(operands), direction)
                      for sid, rule, operands, direction in op["steps"]))
    orig, copy = inputs(op["orig"]), inputs(op["copy"])
    out = []
    for name in ("JT", "ET", "AT", "WT"):
        report = verify_preservation(orig, orig if name in ("JT", "ET") else copy, plan,
                                     _kind([name, None if name == "JT" else 1]), op["mode"], schema)
        _, f, g, _, _ = report.evidence[0]
        out.append([report.verdict, report.warning is not None, f, g])
    return out


def op_algebra(st, op):
    from tndpq.trust import verify_algebra

    report = verify_algebra([tuple(st["systems"][name] for name in op["systems"])])
    return [report.checked, len(report.failures)]


def op_square_chain(st, op):
    from fractions import Fraction

    from tndpq.trust import build_chain, compose_square

    s = {k: st["systems"][v] for k, v in op["systems"].items()}
    square = compose_square(s["base"], s["base"], s["a1"], s["b1"], op["m"])
    _, _, report = build_chain(s["base"], s["base"], op["m"], op["k"], op["variant"], op["steps"], op["l"])
    steps = [[e["parent_relation"], e["jt_cross"], e["et_cross"], [str(Fraction(x)) for x in e["f"]],
              [str(Fraction(x)) for x in e["g"]]] for e in report.steps]
    return _evidence(square) + [report.ok, steps]


def op_roundtrip(st, op):
    from tndpq.syntax import parse_judgment, print_judgment

    return [print_judgment(parse_judgment(text, st["schema"])) for text in op["judgments"]]


OPS = {name[3:]: fn for name, fn in globals().items() if name.startswith("op_")}


def execute(st, op):
    return OPS[op["kind"]](st, op)


# ---------------------------------------------------------------------------
# Entry points

SETUP_SAMPLES = 11
# A traced run of a workload: one warm-up round and at least TRACE_ROUNDS
# more untraced, then as many traced as there were untraced after the
# warm-up.
TRACE_ROUNDS = 3
CLI_LAUNCH = "import sys; from tndpq.cli import main; sys.exit(main())"


def _read_json(path):
    import json

    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _write_json(path, data):
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)


def _run(workload, seconds, trace):
    state, setup_s = setup(workload)
    ops = _read_json("ops.json")

    def verdict(op):
        return execute(state, op)

    result = {"setup_s": setup_s}
    if not trace:
        result.update(run_rounds(ops, verdict, seconds, "run.lat"))
    else:
        from spans import Tracer

        loading = Tracer()
        loading.install()
        load(workload, system_files())  # traced again, for systems.load_ms
        loading.uninstall()
        result.update(run_rounds(ops, verdict, seconds / 2, "run.lat", min_rounds=1 + TRACE_ROUNDS))
        tracer = Tracer()
        tracer.install()
        traced = run_rounds(ops, verdict, 0, "traced.lat", rounds=result["rounds"] - 1, on_round=tracer.end_round)
        tracer.uninstall()
        result["traced"] = dict(traced, spans=tracer.summary(), load_spans=loading.summary())
    _write_json("run.json", result)


def _cli(spans_path, argv):
    start = time.perf_counter()
    import tndpq.cli

    import_s = time.perf_counter() - start
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = tndpq.cli.main(argv)
    finally:
        tracer.uninstall()
        _write_json(spans_path, {"import_s": import_s, "spans": tracer.summary()})
    return code


def _python(args):
    import subprocess

    return subprocess.run([sys.executable] + args, capture_output=True, text=True, timeout=120)


def _worker(args):
    done = _python([os.path.abspath(__file__)] + args)
    if done.returncode != 0:
        raise RuntimeError(f"worker {args[0]} failed:\n{done.stderr}")
    return done.stdout


def _invoke(launcher):
    def execute(op):
        done = _python(launcher(op) + op["args"])
        return [done.returncode, done.stdout]
    return execute


def _client(workload, seconds, trace):
    """The closed-loop client: starts the processes that run tndpq.

    It holds no reference data, and it reads the peak resident memory of
    its child processes before it starts the set-up processes, so that
    figure is that of the processes that asked for the verdicts.
    """
    import resource

    if workload == "cli_session":
        ops = _read_json("ops.json")
        if not trace:
            result = run_rounds(ops, _invoke(lambda op: ["-c", CLI_LAUNCH]), seconds, "run.lat")
        else:
            from spans import merge

            result = run_rounds(ops, _invoke(lambda op: ["-c", CLI_LAUNCH]), seconds / 2, "run.lat",
                                min_rounds=1 + TRACE_ROUNDS)
            paths = []

            def launcher(op):
                paths.append(f"spans{len(paths)}.json")
                return [os.path.abspath(__file__), "cli", paths[-1]]

            traced = run_rounds(ops, _invoke(launcher), 0, "traced.lat", rounds=result["rounds"] - 1)
            parts = [_read_json(path) for path in paths]
            result["traced"] = dict(traced, spans=merge(p["spans"] for p in parts),
                                    import_s=[p["import_s"] for p in parts])
        setups = []
    else:
        _worker(["run", workload, str(seconds), "1" if trace else "0"])
        result = _read_json("run.json")
        setups = [result["setup_s"]]
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["latencies"] = read_latencies("run.lat")
    if trace:
        result["traced"]["latencies"] = read_latencies("traced.lat")
    else:
        while len(setups) < SETUP_SAMPLES:
            setups.append(float(_worker(["setup", workload])))
        result["setups"] = setups
    _write_json("client.json", result)


def main(argv):
    """Every mode runs in the work directory that holds the generated files."""
    mode, args = argv[0], argv[1:]
    if mode == "client":
        _client(args[0], float(args[1]), args[2] == "1")
    elif mode == "setup":
        print(repr(setup(args[0])[1]))
    elif mode == "run":
        _run(args[0], float(args[1]), args[2] == "1")
    elif mode == "cli":
        return _cli(args[0], args[1:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
