"""Verdict benchmark for tndpq: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The inputs are generated from the seed,
tndpq runs in child processes (PYTHONPATH=src), every verdict is checked
against the answers in `reference`, and the last line printed is one JSON
object: correct, attempted, failed and the metrics.  With --trace 0 these
are the end-to-end metrics, with --trace 1 the per-layer ones.  Details
go to .perfbench/results/.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from reference import same  # noqa: E402

WORKLOADS = ("table_queries", "symbolic", "cli_session")
# Tail percentile of each workload: the highest whole percentile that
# leaves at least ten verdicts beyond it in a run of the length set in
# BENCHMARK.json, fixed so that a faster program is not read at a higher
# percentile than a slower one (README).
TAIL_PERCENTILE = {"table_queries": 90, "symbolic": 95, "cli_session": 90}
PROBES = 5
# The workload each per-layer metric is read from in a traced run: the one
# where its layer does the work (README).  trace.overhead_share is the
# traced workload's own.
LAYER_SOURCE = (
    ("syntax.", "symbolic"),
    ("exclusivity.", "symbolic"),
    ("systems.", "table_queries"),
    ("calculus.", "symbolic"),
    ("trust.", "symbolic"),
    ("construction.derive_value", "table_queries"),
    ("construction.verify_preservation", "symbolic"),
    ("cli.", "cli_session"),
)
BUDGET_S = 170  # a run must end within 180 s
STARTED = time.monotonic()


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def python(args, cwd):
    return subprocess.run([sys.executable] + args, cwd=cwd, env=child_env(), capture_output=True,
                          text=True, timeout=60)


def run_client(work, workload, seconds, trace):
    """Start the client in its own process group; on a timeout stop the group."""
    client = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "client", workload, str(seconds), "1" if trace else "0"],
        cwd=work, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        _, err = client.communicate(timeout=max(1.0, STARTED + BUDGET_S - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(client.pid, signal.SIGKILL)
        client.communicate()
        raise
    if client.returncode != 0:
        raise RuntimeError(f"client failed:\n{err}")
    return json.loads((work / "client.json").read_text(encoding="utf-8"))


def source_workload(metric, traced_workload):
    return next((w for prefix, w in LAYER_SOURCE if metric.startswith(prefix)), traced_workload)


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# Checking


def parse_cli(kind, code, stdout):
    """The verdict-bearing parts of one tndpq command's output."""
    lines = stdout.splitlines()
    fields = [line.split("\t") for line in lines]
    last = lines[-1] if lines else ""
    if kind == "parse":
        return [code, stdout.strip()]
    if kind in ("exclusive", "preserve"):
        return [code, last]
    if kind == "compare":
        return [code, [[float(c[1]), float(c[2]), c[4] == "ok"] for c in fields if len(c) == 5], last]
    if kind == "chain":
        steps = [[c[1] == "True", c[2] == "True", c[3] == "True", c[4].split(","), c[5].split(",")]
                 for c in fields[1:-1]]
        return [code, steps, last]
    if kind == "learn":
        return [code, [float(c[1]) for c in fields]]
    if kind == "derive":
        rows = []
        for c in fields[:-1]:
            text, _, p = c[1].rpartition(" @ ")
            rows.append([c[0], text, float(p)])
        return [code, rows, last]
    raise ValueError(f"unknown command {kind!r}")


def cli_output(op, out):
    if isinstance(out, dict):  # the process could not be run
        return out
    try:
        return parse_cli(op["kind"], *out)
    except (ValueError, IndexError) as exc:
        return {"error": f"unreadable output: {exc}"}


def tally(wl, outputs, changed, rounds, parse=None):
    """(attempted, failed, unexpected failures) over `rounds` whole rounds.

    `outputs` are the first round's; `changed` lists (round, index) of
    later outputs that differ from them.  A failure is unexpected unless
    the operation is one of the workload's known faults.
    """
    bad = set()
    for i, (out, (answer, tol)) in enumerate(zip(outputs, wl.expected)):
        if parse is not None:
            out = parse(wl.ops[i], out)
        if not same(out, answer, tol):
            bad.add(i)
    failed = rounds * len(bad) + sum(1 for _, i in changed if i not in bad)
    unexpected = sorted(bad - set(wl.known_fault)) + sorted({i for _, i in changed})
    return rounds * len(wl.ops), failed, unexpected


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(workload, run):
    lat = run["latencies"]
    return {
        "verdicts_per_s": (len(lat) / sum(run["round_walls"]), "1/s"),
        "verdict_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "verdict_tail_ms": (percentile(lat, TAIL_PERCENTILE[workload]) * 1e3, "ms"),
        "setup_s": (statistics.median(run["setups"]), "s"),
        "peak_rss_mib": (run["peak_rss_kib"] / 1024, "MiB"),
    }


SUMS = {
    "syntax.parse": ("syntax.parse_value", "syntax.parse_term", "syntax.parse_judgment",
                     "syntax.parse_attribution_list"),
    "syntax.print": ("syntax.print_value", "syntax.print_term", "syntax.print_judgment",
                     "syntax.print_attribution_list"),
    "systems.load": ("systems.load_training_set", "systems.load_applied_system"),
}
CLI_COMMANDS = ("learn", "compare", "exclusive", "derive", "preserve", "chain")


def per_layer(spans, rounds, verdicts, overhead, load_ms, cli):
    """Per-layer metrics; counts and times are per round of the workload."""
    fns = spans["functions"]

    def calls(*names):
        return sum(fns.get(n, {}).get("calls", 0) for n in names) / rounds

    def self_ms(*names):
        return sum(fns.get(n, {}).get("self_s", 0.0) for n in names) * 1e3 / rounds

    dist = calls("systems.conditional_distribution")
    local = calls("trust.check_local")
    nested = spans["nested"].get("systems.conditional_distribution>exclusivity.star_normalize", 0) / rounds
    distinct = spans["distinct"].get("trust.check_local", 0) / rounds
    m = {
        "syntax.parse_calls": (calls(*SUMS["syntax.parse"]), "count"),
        "syntax.parse_self_ms": (self_ms(*SUMS["syntax.parse"]), "ms"),
        "syntax.print_calls": (calls(*SUMS["syntax.print"]), "count"),
        "syntax.print_self_ms": (self_ms(*SUMS["syntax.print"]), "ms"),
        "syntax.print_calls_per_verdict": (calls(*SUMS["syntax.print"]) * rounds / verdicts, "count"),
        "exclusivity.exclusive_calls": (calls("exclusivity.exclusive"), "count"),
        "exclusivity.exclusive_self_ms": (self_ms("exclusivity.exclusive"), "ms"),
        "exclusivity.star_normalize_calls": (calls("exclusivity.star_normalize"), "count"),
        "exclusivity.star_normalize_self_ms": (self_ms("exclusivity.star_normalize"), "ms"),
        "systems.load_ms": (load_ms, "ms"),
        "systems.distribution_calls": (dist, "count"),
        "systems.distribution_self_ms": (self_ms("systems.conditional_distribution"), "ms"),
        "systems.independent_calls": (calls("systems.independent"), "count"),
        "systems.independent_self_ms": (self_ms("systems.independent"), "ms"),
        "systems.star_normalize_calls_per_distribution": (nested / dist if dist else 0.0, "count"),
        "calculus.apply_rule_calls": (calls("calculus.apply_rule"), "count"),
        "calculus.apply_rule_self_ms": (self_ms("calculus.apply_rule"), "ms"),
        "calculus.at_query_calls": (calls("calculus.at_query"), "count"),
        "calculus.check_derivation_calls": (calls("calculus.check_derivation"), "count"),
        "calculus.check_derivation_self_ms": (self_ms("calculus.check_derivation"), "ms"),
        "trust.check_local_calls": (local, "count"),
        "trust.check_local_self_ms": (self_ms("trust.check_local"), "ms"),
        "trust.check_local_distinct_share": (distinct / local if local else 0.0, "ratio"),
        "trust.verify_algebra_self_ms": (self_ms("trust.verify_algebra"), "ms"),
        "construction.derive_value_calls": (calls("construction.derive_value"), "count"),
        "construction.derive_value_self_ms": (self_ms("construction.derive_value"), "ms"),
        "construction.verify_preservation_self_ms": (self_ms("construction.verify_preservation"), "ms"),
    }
    m.update({f"cli.{k}": (v, "ms") for k, v in cli.items()})
    m["trace.overhead_share"] = (overhead, "ratio")
    return m


def load_ms(spans):
    """Time inside the systems layer's loaders, over all the given spans."""
    fns = spans["functions"]
    return sum(fns.get(n, {}).get("total_s", 0.0) for n in SUMS["systems.load"]) * 1e3


def interpreter_ms():
    """Median wall time of a bare interpreter start."""
    walls = []
    for _ in range(PROBES):
        t = time.perf_counter()
        python(["-c", "pass"], ROOT)
        walls.append(time.perf_counter() - t)
    return statistics.median(walls) * 1e3


def layer_metrics(wl, run):
    """Per-layer metrics of one workload's traced rounds.

    The untraced rounds they are compared with leave out the first, a
    warm-up; there are as many of them as traced rounds.
    """
    traced = run["traced"]
    cli = {}
    if wl.name == "cli_session":
        per_kind = {}
        for op, lat in zip(wl.ops * (run["rounds"] - 1), run["latencies"][len(wl.ops):]):
            per_kind.setdefault(op["kind"], []).append(lat)
        cli = {f"{c}_ms": statistics.median(per_kind[c]) * 1e3 for c in CLI_COMMANDS}
        cli["import_ms"] = statistics.median(traced["import_s"]) * 1e3
        cli["interpreter_ms"] = interpreter_ms()
        loading = load_ms(traced["spans"]) / traced["rounds"]  # every process loads
    else:
        loading = load_ms(traced["load_spans"])  # one set-up
    overhead = sum(traced["round_walls"]) / sum(run["round_walls"][1:])
    return per_layer(traced["spans"], traced["rounds"], len(traced["latencies"]), overhead, loading, cli)


# ---------------------------------------------------------------------------
# One run


def measure(workload, seed, seconds, trace):
    """Generate, run and check one workload: (workload, client result, tally)."""
    wl = gen.build(workload, seed)
    parse = cli_output if workload == "cli_session" else None
    work = ROOT / ".perfbench" / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for name, text in wl.files.items():
            (work / name).parent.mkdir(parents=True, exist_ok=True)
            (work / name).write_text(text, encoding="utf-8")
        (work / "ops.json").write_text(json.dumps(wl.ops), encoding="utf-8")
        run = run_client(work, workload, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    counts = tally(wl, run["outputs"], run["changed"], run["rounds"], parse)
    if trace:
        traced = run["traced"]
        more = tally(wl, traced["outputs"], traced["changed"], traced["rounds"], parse)
        counts = tuple(a + b for a, b in zip(counts, more))
    return wl, run, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tndpq" / "__init__.py").is_file():
        print(f"error: no tndpq sources under {SRC}", file=sys.stderr)
        return 2
    # The build: tndpq's bytecode, as an installed package has it.  The
    # environment may tell the interpreter not to write bytecode, and then
    # every timed process would compile the sources again.
    if not compileall.compile_dir(str(SRC / "tndpq"), quiet=1):
        print("error: tndpq does not compile", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the conditional-term reference uses tndpq's oracle

    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    if not args.trace:
        wl, run, (attempted, failed, unexpected) = measure(args.workload, args.seed, args.seconds, False)
        metrics = end_to_end(args.workload, run)
        unexpected = [wl.ops[i] for i in sorted(set(unexpected))]
        rounds = run["rounds"]
    else:
        # Every workload is traced, each for --seconds, so that each
        # per-layer metric is read where its layer does the work.
        runs = {w: measure(w, args.seed, args.seconds, True) for w in WORKLOADS}
        layers = {w: layer_metrics(wl, run) for w, (wl, run, _) in runs.items()}
        metrics = {name: layers[source_workload(name, args.workload)][name] for name in layers["cli_session"]}
        wl, run, (attempted, failed, _) = runs[args.workload]
        unexpected = [r[0].ops[i] for r in runs.values() for i in sorted(set(r[2][2]))]
        rounds = {w: {"untraced": r[1]["rounds"], "traced": r[1]["traced"]["rounds"],
                      "overhead_share": layers[w]["trace.overhead_share"][0]} for w, r in runs.items()}
        (results / f"{args.workload}-seed{args.seed}-spans.json").write_text(
            json.dumps({w: r[1]["traced"]["spans"] for w, r in runs.items()}, indent=1, sort_keys=True),
            encoding="utf-8")

    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, rounds=rounds,
                  tail_percentile=TAIL_PERCENTILE[args.workload], unexpected_failures=unexpected[:20])
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
