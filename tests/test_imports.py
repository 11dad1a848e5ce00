"""Import budgets and lazy exports: a process loads only the layers it runs."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tndpq
from tndpq.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")
BENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = {"syntax", "exclusivity", "systems", "calculus", "trust", "construction"}


def _loaded(code, *argv):
    """Run `code` in a fresh interpreter: the modules it loaded, and its stdout."""
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "loaded = sorted(set(sys.modules) - before)\n"
        "import json\n"
        "print(json.dumps(loaded))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    *output, modules = done.stdout.splitlines()
    return set(json.loads(modules)), output


def _tndpq(modules):
    return {m for m in modules if m == "tndpq" or m.startswith("tndpq.")}


def test_import_tndpq_loads_no_submodule():
    modules, _ = _loaded("import tndpq")
    assert _tndpq(modules) == {"tndpq"}


def test_import_cli_loads_only_errors():
    modules, _ = _loaded("import tndpq.cli")
    assert _tndpq(modules) == {"tndpq", "tndpq.cli", "tndpq.errors"}


# Every record is a `syntax.record`, and `calculus.Derivation` makes its
# dataclass fields only when `dataclasses` asks for them, so no process
# loads `dataclasses` or the `inspect` it imports.
HEAVY = {"dataclasses", "inspect"}
# argparse and what it imports, loaded only for help and usage errors
ARGPARSE = {"argparse", "gettext", "locale"}


def test_no_layer_loads_dataclasses():
    modules, _ = _loaded(f"import {', '.join(f'tndpq.{layer}' for layer in sorted(LAYERS))}, tndpq.cli")
    assert {f"tndpq.{layer}" for layer in LAYERS} <= modules
    assert not modules & HEAVY


def test_building_and_checking_a_derivation_loads_no_dataclasses():
    modules, output = _loaded(
        "from tndpq.calculus import Derivation, Plan, PlanStep, RuleId, check_derivation, run_plan\n"
        "from tndpq.syntax import AttributeSchema, parse_judgment\n"
        "schema = AttributeSchema.of({'X': ('a', 'b')})\n"
        "leaf = Derivation(parse_judgment('|> X : a @ 0.25', schema), RuleId.AtQuery)\n"
        "plan = Plan((PlanStep('p', RuleId.NegIER, ('x',)),))\n"
        "root, again = (run_plan({'x': leaf}, plan, schema)['p'] for _ in range(2))\n"
        "print(check_derivation(root, schema).ok, root == again, hash(root) == hash(again), repr(root))"
    )
    assert output == ["True True True Derivation(rule=NegIER, direction='forward', conclusion='|> X : ~a @ 0.75', premises=1)"]
    assert not modules & HEAVY


@pytest.fixture
def files(tmp_path):
    schema = tmp_path / "schema.txt"
    schema.write_text("X = a | b | c\nY = u | v\n")
    data = tmp_path / "data.csv"
    data.write_text("X,Y\na,u\na,v\nb,u\nc,v\n")
    system = tmp_path / "x.sys"
    assert main(["learn", str(schema), str(data), "--target", "X", "-o", str(system)]) == 0
    script = tmp_path / "script.txt"
    script.write_text("x = ATQUERY X : a\ny = ATQUERY X : b\nboth = OrIR x y\n")
    return {"schema": str(schema), "data": str(data), "system": str(system), "script": str(script)}


# Each command, and the layers it needs besides `errors` and `cli`.
COMMANDS = {
    "parse": (["parse", "{schema}", "|> X : a + b @ 0.5"], {"syntax"}),
    "learn": (["learn", "{schema}", "{data}", "--target", "X"], {"syntax", "systems"}),
    "derive": (
        ["derive", "{schema}", "{data}", "--script", "{script}", "--check"],
        {"syntax", "exclusivity", "systems", "calculus"},
    ),
    "exclusive": (["exclusive", "{schema}", "X", "a + b", "c"], {"syntax", "exclusivity"}),
    "compare": (
        ["compare", "{schema}", "{system}", "{system}", "--kind", "at:1"],
        {"syntax", "systems", "trust"},
    ),
    "chain": (
        ["chain", "{schema}", "{system}", "--m", "1", "--k", "2", "--steps", "3"],
        {"syntax", "systems", "trust"},
    ),
    "preserve": (
        ["preserve", "{schema}", "--orig", "{system}", "--copy", "{system}", "--plan", "{script}",
         "--kind", "jt", "--mode", "construct"],
        LAYERS,
    ),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_imports_only_its_layers(files, command):
    argv, layers = COMMANDS[command]
    modules, output = _loaded(
        "from tndpq.cli import main\nassert main(sys.argv[1:]) == 0",
        *(arg.format(**files) for arg in argv),
    )
    assert output, command
    assert _tndpq(modules) == {"tndpq", "tndpq.cli", "tndpq.errors"} | {f"tndpq.{m}" for m in layers}
    assert ("fractions" in modules) == (command == "chain")
    # only the commands that read a CSV load the csv module
    assert ("csv" in modules) == (command in ("learn", "derive"))
    # a well-formed argument list is read without argparse
    assert not modules & ARGPARSE, command
    assert not modules & HEAVY, command


def test_help_is_argparses():
    modules, output = _loaded(
        "from tndpq.cli import main\ntry:\n    main(['-h'])\nexcept SystemExit as exc:\n    assert exc.code == 0"
    )
    assert output[0].startswith("usage: tndpq ")
    assert "probabilistic judgment calculus toolbox" in output
    assert "argparse" in modules


def test_every_export_is_its_modules_object():
    for name in tndpq.__all__:
        namespace = {}
        exec(f"from tndpq import {name}", namespace)
        value = namespace[name]
        assert value.__module__.startswith("tndpq."), name
        assert getattr(importlib.import_module(value.__module__), name) is value, name
        assert getattr(tndpq, name) is value, name
    assert set(tndpq.__all__) <= set(dir(tndpq))


def test_submodule_after_bare_import():
    modules, output = _loaded(
        "import tndpq\nprint(tndpq.trust.jt().name, tndpq.trust is sys.modules['tndpq.trust'])"
    )
    assert output == ["JT True"]
    assert "tndpq.trust" in modules and "tndpq.construction" not in modules


def test_unknown_name():
    with pytest.raises(ImportError, match="nope"):
        exec("from tndpq import nope", {})
    with pytest.raises(AttributeError, match="'tndpq' has no attribute 'nope'"):
        tndpq.nope


def test_bench_imports_resolve():
    # a name the benchmark imports that moves in src fails here, not in a
    # benchmark run
    names = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tndpq":
                names += [(path.name, node.module, alias.name) for alias in node.names]
    assert names
    for filename, module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{filename}: from {module} import {name}"
