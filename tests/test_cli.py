"""End-to-end tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from tndpq.cli import main
from tndpq.errors import TndpqError
from tndpq.exclusivity import exclusive
from tndpq.syntax import load_schema, parse_judgment, parse_term, parse_value


@pytest.fixture
def schema_file(tmp_path):
    path = tmp_path / "schema.txt"
    path.write_text(
        "Chickenpox = Absent | Minor | Moderate | Major | Extreme\n"
        "Hepatitis = No | Yes\n"
    )
    return str(path)


@pytest.fixture
def csv_file(tmp_path):
    rows = ["Chickenpox,Hepatitis"]
    counts = [("Absent", 2), ("Minor", 4), ("Moderate", 2), ("Major", 1), ("Extreme", 1)]
    for c, n in counts:
        for h in ("No", "Yes"):
            rows.extend([f"{c},{h}"] * n)
    path = tmp_path / "data.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def test_parse_round_trip(schema_file, capsys):
    code = main([
        "parse", schema_file, "Hepatitis : Yes |> Chickenpox : Major + Extreme @ 0.2"
    ])
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert out == "Hepatitis:Yes |> Chickenpox : Major+Extreme @ 0.2"


def test_parse_prints_the_resolved_subject(schema_file, capsys):
    # the parser resolves a projection, so what prints is the term it stands for
    assert main(["parse", schema_file, "Hepatitis:Yes |> fst(<Chickenpox,Hepatitis>) : Major @ 0.5"]) == 0
    assert capsys.readouterr() == ("Hepatitis:Yes |> Chickenpox : Major @ 0.5\n", "")
    assert main(["parse", schema_file, "|> snd(<Hepatitis,Chickenpox>) : Major @ 0.5"]) == 0
    assert capsys.readouterr() == ("|> Chickenpox : Major @ 0.5\n", "")
    assert main(["parse", schema_file, "|> fst(Chickenpox) : Major @ 0.5"]) == 2
    assert capsys.readouterr() == ("", "error: unreduced projection in term fst(Chickenpox)\n")


def test_parse_rejects_unknown_symbol(schema_file, capsys):
    code = main(["parse", schema_file, "|> Chickenpox : Mild @ 0.2"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.fixture
def xyz_file(tmp_path):
    path = tmp_path / "xyz.txt"
    path.write_text("X = a | b\nY = u | v\nZ = p | q\n")
    return str(path)


@pytest.mark.parametrize(
    "judgment",
    [
        "|> X : u @ 0.5",  # an atom of Y
        "|> <X,Y> : a @ 0.5",
        "|> [X]Y : u @ 0.5",
        "|> <X,X> : a*b @ 0.5",
        "|> X : a->u @ 0.2",
        "|> <X,Y> : a*p @ 0.2",  # an atom of Z
    ],
)
def test_parse_rejects_what_exclusive_rejects(xyz_file, capsys, judgment):
    # each of these printed back with exit 0, though no procedure reads it
    schema = load_schema(xyz_file)
    term, _, rest = judgment[len("|> "):].partition(" : ")
    value = parse_value(rest.partition(" @ ")[0])
    with pytest.raises(TndpqError) as expected:
        exclusive(parse_term(term), value, value, schema)
    with pytest.raises(TndpqError) as caught:
        parse_judgment(judgment, schema)
    assert type(caught.value) is type(expected.value)
    assert str(caught.value) == str(expected.value)
    assert main(["parse", xyz_file, judgment]) == 2
    assert capsys.readouterr() == ("", f"error: {expected.value}\n")


def test_parse_names_the_undeclared_antecedent_variable(xyz_file, capsys):
    # a product under an undeclared variable was reported as not deterministic
    assert main(["parse", xyz_file, "Q:a*b |> X : a @ 0.5"]) == 2
    assert capsys.readouterr().err == "error: unknown variable 'Q'\n"


@pytest.mark.parametrize(
    "judgment, message",
    [
        ("X:w1+w2+w3 |> Y : u @ 0.5", "unknown atomic value 'w1'"),
        ("|> <Q1,<Q2,Q3>> : u @ 0.5", "unknown variable 'Q1'"),
    ],
)
def test_unknown_symbols_are_named_in_text_order(xyz_file, judgment, message):
    # the first unknown name used to follow the order of a set, which
    # changes with the hash seed
    for seed in ("2", "1"):
        result = _run_cli("parse", xyz_file, judgment, env={"PYTHONHASHSEED": seed})
        assert (result.returncode, result.stdout, result.stderr) == (2, "", f"error: {message}\n")


def test_learn_and_compare_reflexive(schema_file, csv_file, tmp_path, capsys):
    out_file = str(tmp_path / "orig.sys")
    code = main([
        "learn", schema_file, csv_file, "--target", "Chickenpox", "-o", out_file
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split("\t") == ["Absent", "0.2"]
    code = main([
        "compare", schema_file, out_file, out_file, "--kind", "jt"
    ])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out[-1] == "VERDICT jt true"


def test_compare_failing_at(schema_file, csv_file, tmp_path, capsys):
    orig = str(tmp_path / "orig.sys")
    copy = str(tmp_path / "copy.sys")
    main(["learn", schema_file, csv_file, "--target", "Chickenpox", "-o", orig])
    main([
        "learn", schema_file, csv_file, "--target", "Chickenpox",
        "--estimator", "laplace:1", "-o", copy,
    ])
    capsys.readouterr()
    code = main(["compare", schema_file, orig, copy, "--kind", "at:2"])
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1].startswith("VERDICT at:2 ")
    assert code in (0, 1)
    assert (code == 0) == out[-1].endswith("true")


def test_exclusive_verdicts(schema_file, capsys):
    code = main([
        "exclusive", schema_file, "Chickenpox", "Major + Extreme", "Minor"
    ])
    assert code == 0
    assert capsys.readouterr().out.strip() == "exclusive"
    code = main([
        "exclusive", schema_file, "Chickenpox", "Major + Extreme", "~Minor", "--explain"
    ])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 1
    assert out[-1] == "not-exclusive"
    assert any(line.startswith("TRACE\t") for line in out)
    code = main(["exclusive", schema_file, "Chickenpox", "Major +", "Minor"])
    assert code == 2


def test_derive_script(schema_file, csv_file, tmp_path, capsys):
    script = tmp_path / "proof.txt"
    script.write_text(
        "# conditional then conjunction\n"
        "minor = ATQUERY Chickenpox : Extreme\n"
        "major = ATQUERY Chickenpox : Extreme |> Hepatitis : Yes\n"
        "pair = ProdI1 major minor\n"
    )
    code = main([
        "derive", schema_file, csv_file, "--script", str(script), "--check"
    ])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out[-1] == "CHECK\tok"
    assert out[-2].startswith("pair\t")
    assert "@ 0.05" in out[-2]


def test_derive_check_takes_a_plan_longer_than_the_recursion_limit(schema_file, csv_file, tmp_path, capsys):
    # the checker used to recurse once per derivation level, so this
    # printed every step and then exited 2 with "input nested too deeply"
    steps = ["q0 = ATQUERY Chickenpox : Extreme"]
    steps += [f"q{i} = NegIER {'' if i % 2 else '@backward '}q{i - 1}" for i in range(1, 1201)]
    script = tmp_path / "proof.txt"
    script.write_text("\n".join(steps) + "\n")
    assert main(["derive", schema_file, csv_file, "--script", str(script), "--check"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1202 and out[-2].startswith("q1200\t") and out[-1] == "CHECK\tok"


def test_a_plan_that_builds_a_value_past_the_depth_bound_exits_2(schema_file, csv_file, tmp_path, capsys):
    # values a rule builds are bounded as parsed ones are: q200 would be
    # ~ applied 200 times to Extreme, 201 deep
    steps = ["q0 = ATQUERY Chickenpox : Extreme"]
    steps += [f"q{i} = NegIER q{i - 1}" for i in range(1, 201)]
    script = tmp_path / "proof.txt"
    script.write_text("\n".join(steps) + "\n")
    assert main(["derive", schema_file, csv_file, "--script", str(script)]) == 2
    assert capsys.readouterr() == ("", "error: input nested too deeply\n")


def test_script_rule_name_ends_at_any_whitespace(schema_file, csv_file, tmp_path, capsys):
    # a tab after the rule name used to make it part of the name:
    # "unknown rule 'ATQUERY\tChickenpox'" and "unknown rule 'NegIER\tq0'"
    script = tmp_path / "proof.txt"
    script.write_text("q0 = ATQUERY\tChickenpox : Extreme\nq1 = NegIER\tq0\n")
    assert main(["derive", schema_file, csv_file, "--script", str(script), "--check"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["q0\t|> Chickenpox : Extreme @ 0.1", "q1\t|> Chickenpox : ~Extreme @ 0.9", "CHECK\tok"]


def test_derive_script_error_paths(schema_file, csv_file, tmp_path, capsys):
    script = tmp_path / "proof.txt"
    script.write_text("pair = ProdI1 nowhere\n")
    code = main(["derive", schema_file, csv_file, "--script", str(script)])
    assert code == 2
    assert "unknown premise" in capsys.readouterr().err
    script.write_text("x = FROB a b\n")
    code = main(["derive", schema_file, csv_file, "--script", str(script)])
    assert code == 2
    assert "unknown rule" in capsys.readouterr().err
    # a premise must be defined on an earlier line
    script.write_text(
        "pair = ProdI1 major minor\n"
        "minor = ATQUERY Chickenpox : Extreme\n"
        "major = ATQUERY Chickenpox : Extreme |> Hepatitis : Yes\n"
    )
    code = main(["derive", schema_file, csv_file, "--script", str(script)])
    assert code == 2
    assert "script line 1: unknown premise 'major'" in capsys.readouterr().err


def test_derive_rejects_backward_on_a_single_line_rule(schema_file, csv_file, tmp_path, capsys):
    # this used to print the step, record a backward OrIR and `CHECK\tok`
    script = tmp_path / "proof.txt"
    script.write_text(
        "a = ATQUERY Chickenpox : Major\n"
        "b = ATQUERY Chickenpox : Extreme\n"
        "z = OrIR @backward a b\n"
    )
    assert main(["derive", schema_file, csv_file, "--script", str(script), "--check"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: OrIR: direction 'backward' is not allowed; only ImpIE and NegIER also run 'backward'\n"


@pytest.mark.parametrize(
    "leaf, message",
    [
        ("Chickenpox : Major : Minor", "script line 1: expected 'eof', found ':' (at position 19)"),
        ("Chickenpox : Major+Minor", "script line 1: ATQUERY needs `variable : atom`"),
        ("Chickenpox : ~Major", "script line 1: ATQUERY needs `variable : atom`"),
        ("Chickenpox : zz", "script line 1: unknown atomic value 'zz'"),
        ("Hepatitis : Maybe |> Chickenpox : Major", "script line 1: unknown atomic value 'Maybe'"),
        ("Hepatitis : Yes |> Chickenpox : Major, Hepatitis : No",
         "script line 1: ATQUERY needs `variable : atom`"),
        ("Chickenpox", "script line 1: expected ':', found '' (at position 10)"),
        ("", "script line 1: ATQUERY needs `variable : atom`"),
    ],
)
def test_atquery_leaves_are_read_by_the_grammar(schema_file, csv_file, tmp_path, capsys, leaf, message):
    # the first four used to reach `at_query` and fail there, e.g. with
    # "'Major : Minor' is not in the stored distribution"
    script = tmp_path / "proof.txt"
    script.write_text(f"a = ATQUERY {leaf}\nn = NegIER a\n")
    assert main(["derive", schema_file, csv_file, "--script", str(script)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["parse", "learn", "derive", "exclusive", "compare", "chain", "preserve"])
def test_a_schema_name_the_grammar_cannot_read_exits_2(tmp_path, command):
    schema = tmp_path / "schema.txt"
    schema.write_text("R = high-risk | low\nX = a | b\n")
    data = tmp_path / "data.csv"
    data.write_text("R,X\nlow,a\n")
    schema, data, other = str(schema), str(data), str(tmp_path / "other")
    argv = {
        "parse": [schema, "|> X : a @ 0.5"],
        "learn": [schema, data, "--target", "X"],
        "derive": [schema, data, "--script", other],
        "exclusive": [schema, "X", "a", "b"],
        "compare": [schema, other, other, "--kind", "jt"],
        "chain": [schema, other, "--m", "1", "--k", "1"],
        "preserve": [schema, "--orig", other, "--copy", other, "--plan", other,
                     "--kind", "jt", "--mode", "construct"],
    }[command]
    result = _run_cli(command, *argv)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: name 'high-risk' is not one identifier or number of the grammar\n"


@pytest.mark.parametrize("command", ["derive", "preserve"])
def test_script_rejects_a_duplicate_step_id(schema_file, csv_file, tmp_path, capsys, command):
    # the second `x` used to replace the leaf, so `derive --check` printed
    # the redefined judgment twice and `CHECK\tok` without checking a root
    script = tmp_path / "proof.txt"
    script.write_text("x = ATQUERY Chickenpox : Extreme\nx = NegIER x\n")
    if command == "derive":
        argv = ["derive", schema_file, csv_file, "--script", str(script), "--check"]
    else:
        system = str(tmp_path / "orig.sys")
        assert main(["learn", schema_file, csv_file, "--target", "Chickenpox", "-o", system]) == 0
        capsys.readouterr()
        argv = ["preserve", schema_file, "--orig", system, "--copy", system,
                "--plan", str(script), "--kind", "jt", "--mode", "construct"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "script line 2: duplicate step id 'x'" in err


@pytest.mark.parametrize("command", ["derive", "preserve"])
def test_script_rejects_a_malformed_side_assertion(schema_file, csv_file, tmp_path, capsys, command):
    # `preserve` used to drop side assertions unread and print a verdict
    script = tmp_path / "proof.txt"
    script.write_text(
        "a = ATQUERY Chickenpox : Major\n"
        "b = ATQUERY Chickenpox : Extreme\n"
        "both = OrIR a b | nonsense\n"
    )
    if command == "derive":
        argv = ["derive", schema_file, csv_file, "--script", str(script)]
    else:
        system = str(tmp_path / "orig.sys")
        assert main(["learn", schema_file, csv_file, "--target", "Chickenpox", "-o", system]) == 0
        capsys.readouterr()
        argv = ["preserve", schema_file, "--orig", system, "--copy", system,
                "--plan", str(script), "--kind", "jt", "--mode", "construct"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert "VERDICT" not in out
    assert "step both: side assertion must be" in err


def test_chain_table(schema_file, csv_file, tmp_path, capsys):
    sys_file = str(tmp_path / "orig.sys")
    main(["learn", schema_file, csv_file, "--target", "Chickenpox", "-o", sys_file])
    capsys.readouterr()
    code = main([
        "chain", schema_file, sys_file, "--variant", "at",
        "--m", "2", "--k", "4", "--steps", "5",
    ])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out[0].startswith("step\t")
    assert len(out) == 7  # header + 5 steps + verdict
    assert out[-1] == "VERDICT chain-at true"


def test_preserve_plan(schema_file, csv_file, tmp_path, capsys):
    orig = str(tmp_path / "orig.sys")
    copy = str(tmp_path / "copy.sys")
    main(["learn", schema_file, csv_file, "--target", "Chickenpox", "-o", orig])
    main([
        "learn", schema_file, csv_file, "--target", "Chickenpox",
        "--estimator", "laplace:1", "-o", copy,
    ])
    plan = tmp_path / "plan.txt"
    plan.write_text(
        "a = ATQUERY Chickenpox : Major\n"
        "b = ATQUERY Chickenpox : Extreme\n"
        "both = OrIR a b\n"
    )
    capsys.readouterr()
    code = main([
        "preserve", schema_file, "--orig", orig, "--copy", copy,
        "--plan", str(plan), "--kind", "at", "--mode", "construct",
    ])
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1].startswith("VERDICT preserve-at ")
    assert code in (0, 1)
    code = main([
        "preserve", schema_file, "--orig", orig, "--copy", orig,
        "--plan", str(plan), "--kind", "jt", "--mode", "construct",
    ])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out[-1] == "VERDICT preserve-jt true"


@pytest.fixture
def xyz_files(tmp_path):
    """A schema declaring Z, and a table in which, given Z=p, X and Y are
    independent while they are dependent marginally and given Z=q."""
    schema = tmp_path / "xyz.txt"
    schema.write_text("X = a | b\nY = u | v\nZ = p | q\n")
    rows = ["a,u,p", "a,v,p", "b,u,p", "b,v,p", "a,u,q", "a,u,q", "b,v,q", "b,v,q"]
    data = tmp_path / "xyz.csv"
    data.write_text("X,Y,Z\n" + "\n".join(rows) + "\n")
    return str(schema), str(data)


def test_learn_missing_column_exits_2(xyz_files, tmp_path, capsys):
    schema, _ = xyz_files
    data = tmp_path / "xy.csv"
    data.write_text("X,Y\na,u\nb,v\n")
    for extra in (["--target", "Y", "--sigma", "Z:p"], ["--target", "Z"]):
        assert main(["learn", schema, str(data), *extra]) == 2
        assert "no column 'Z'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["parse", "learn", "compare", "derive", "preserve"])
def test_a_file_that_is_not_utf8_exits_2(schema_file, csv_file, tmp_path, capsys, command):
    system = str(tmp_path / "orig.sys")
    assert main(["learn", schema_file, csv_file, "--target", "Chickenpox", "-o", system]) == 0
    script = tmp_path / "script.txt"
    script.write_text("a = ATQUERY Chickenpox : Major\nb = ATQUERY Chickenpox : Extreme\nboth = OrIR a b\n")
    good = {"parse": schema_file, "learn": csv_file, "compare": system, "derive": script, "preserve": script}
    bad = tmp_path / "bad"
    bad.write_bytes(Path(good[command]).read_bytes() + b"\xff\n")
    bad = str(bad)
    argv = {
        "parse": [bad, "|> Chickenpox : Major @ 0.5"],
        "learn": [schema_file, bad, "--target", "Chickenpox"],
        "compare": [schema_file, system, bad, "--kind", "jt"],
        "derive": [schema_file, csv_file, "--script", bad],
        "preserve": [schema_file, "--orig", system, "--copy", system, "--plan", bad,
                     "--kind", "jt", "--mode", "construct"],
    }[command]
    capsys.readouterr()
    assert main([command, *argv]) == 2
    assert capsys.readouterr() == ("", f"error: file {bad!r} is not UTF-8 text: invalid start byte\n")


@pytest.mark.parametrize("command", ["parse", "learn", "compare", "derive", "preserve"])
def test_a_file_with_a_byte_order_mark_reads_as_without_one(schema_file, csv_file, tmp_path, capsys, command):
    # Notepad, and Excel's CSV export, start a UTF-8 file with U+FEFF, which
    # was read as part of its first name
    system = str(tmp_path / "orig.sys")
    assert main(["learn", schema_file, csv_file, "--target", "Chickenpox", "-o", system]) == 0
    script = tmp_path / "script.txt"
    script.write_text("a = ATQUERY Chickenpox : Major\nb = ATQUERY Chickenpox : Extreme\nboth = OrIR a b\n")
    plain = {"parse": schema_file, "learn": csv_file, "compare": system, "derive": script, "preserve": script}[command]
    marked = tmp_path / "marked"
    marked.write_bytes(b"\xef\xbb\xbf" + Path(plain).read_bytes())
    outcomes = []
    for path in (str(plain), str(marked)):
        argv = {
            "parse": [path, "|> Chickenpox : Major @ 0.5"],
            "learn": [schema_file, path, "--target", "Chickenpox"],
            "compare": [schema_file, system, path, "--kind", "jt"],
            "derive": [schema_file, csv_file, "--script", path],
            "preserve": [schema_file, "--orig", system, "--copy", system, "--plan", path,
                         "--kind", "jt", "--mode", "construct"],
        }[command]
        capsys.readouterr()
        outcomes.append((main([command, *argv]), *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 0 and outcomes[0][2] == ""


@pytest.mark.parametrize(
    "schema, data, message",
    [
        ("\ufeff\ufeffX = a | b\n", "", "name '\\ufeffX' is not one identifier or number of the grammar"),
        ("X = a | b\n\ufeffY = u | v\n", "", "name '\\ufeffY' is not one identifier or number of the grammar"),
        ("X = a | b\nY = u | v\n", "X,\ufeffY\na,u\n", "header column '\\ufeffY' is not a schema variable"),
    ],
)
def test_a_byte_order_mark_past_the_first_character_is_refused(tmp_path, capsys, schema, data, message):
    (tmp_path / "s.txt").write_text(schema, encoding="utf-8")
    (tmp_path / "d.csv").write_text(data, encoding="utf-8")
    assert main(["learn", str(tmp_path / "s.txt"), str(tmp_path / "d.csv"), "--target", "X"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_a_cell_over_the_csv_field_limit_exits_2(schema_file, tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("Chickenpox,Hepatitis\nMajor,No\n" + "Minor" * 28_000 + ",Yes\n")
    assert main(["learn", schema_file, str(data), "--target", "Chickenpox"]) == 2
    assert capsys.readouterr().err.startswith("error: row 3: field larger than field limit")


# A bad line of each kind in an applied-system file, with the start of its echo.
BAD_LINES = {
    "system": ("system {huge} T A\nsigma\nvar Hepatitis\nNo 0.5\nYes 0.5\n", "bad system line: 'system xx"),
    "sigma": ("system T A\n{huge}\nvar Hepatitis\nNo 0.5\nYes 0.5\n", "bad sigma line: 'xx"),
    "var": ("system T A\nsigma\nvar Hepatitis {huge}\nNo 0.5\nYes 0.5\n", "bad var line: 'var Hepatitis xx"),
    "distribution": ("system T A\nsigma\nvar Hepatitis\nNo 0.5 {huge}\nYes 0.5\n", "bad distribution line: 'No 0.5 xx"),
    "probability": ("system T A\nsigma\nvar Hepatitis\nNo 0.5{huge}\nYes 0.5\n", "bad probability: '0.5xx"),
}


@pytest.mark.parametrize("line", BAD_LINES)
def test_a_huge_bad_system_line_is_echoed_in_part(schema_file, tmp_path, capsys, line):
    text, message = BAD_LINES[line]
    good, bad = tmp_path / "good.sys", tmp_path / "bad.sys"
    good.write_text("system T A\nsigma\nvar Hepatitis\nNo 0.5\nYes 0.5\n")
    bad.write_text(text.format(huge="x" * 140_000))
    assert main(["compare", schema_file, str(good), str(bad), "--kind", "jt"]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {message}") and err.endswith("'...\n")
    assert len(err.encode()) < 200
    assert "VERDICT" not in out


def _run_cli(*argv, env=None):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **(env or {}), PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, "-c", "import sys; from tndpq.cli import main; sys.exit(main())", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.mark.parametrize(
    "command, option",
    [
        ("learn", ["--estimator", "laplace:abc"]),
        ("learn", ["--estimator", "laplace:"]),
        ("compare", ["--kind", "et:x"]),
        ("compare", ["--kind", "wt:1.5"]),
        ("compare", ["--kind", "at:"]),
        ("learn", ["--estimator", "laplace:inf"]),
    ],
)
def test_bad_spec_exits_2_without_traceback(schema_file, csv_file, tmp_path, command, option):
    if command == "learn":
        argv = ["learn", schema_file, csv_file, "--target", "Chickenpox", *option]
    else:
        system = str(tmp_path / "orig.sys")
        assert main(["learn", schema_file, csv_file, "--target", "Chickenpox", "-o", system]) == 0
        argv = ["compare", schema_file, system, system, *option]
    result = _run_cli(*argv)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error:")


def test_derive_tests_independence_under_the_premises_context(xyz_files, tmp_path, capsys):
    schema, data = xyz_files
    script = tmp_path / "indep.txt"
    for context, code in (("Z : p |> ", 0), ("Z : q |> ", 2), ("", 2)):
        script.write_text(
            f"y = ATQUERY {context}Y : u\n"
            f"x = ATQUERY {context}X : a\n"
            "xy = ProdIIndep y x | independent X Y\n"
        )
        assert main(["derive", schema, data, "--script", str(script), "--check"]) == code, context
        out, err = capsys.readouterr()
        if code == 0:
            assert out.strip().splitlines()[-2:] == ["xy\tZ:p |> <X,Y> : a*u @ 0.25", "CHECK\tok"]
        else:
            assert "independence evidence for 'X', 'Y' is negative" in err


@pytest.mark.parametrize(
    "command, option",
    [
        ("compare", ["--tol", "nan"]),
        ("compare", ["--tol", "inf"]),
        ("compare", ["--tol", "-1"]),
        ("preserve", ["--tol", "nan"]),
        ("preserve", ["--tol", "inf"]),
        ("preserve", ["--tol", "-1"]),
        ("chain", ["--steps", "0"]),
        ("chain", ["--steps", "-5"]),
    ],
)
def test_bad_number_exits_2_without_traceback(schema_file, csv_file, tmp_path, command, option):
    system = str(tmp_path / "orig.sys")
    assert main(["learn", schema_file, csv_file, "--target", "Chickenpox", "-o", system]) == 0
    if command == "compare":
        argv = ["compare", schema_file, system, system, "--kind", "jt"]
    elif command == "preserve":
        plan = tmp_path / "plan.txt"
        plan.write_text(
            "a = ATQUERY Chickenpox : Major\n"
            "b = ATQUERY Chickenpox : Extreme\n"
            "both = OrIR a b\n"
        )
        argv = ["preserve", schema_file, "--orig", system, "--copy", system,
                "--plan", str(plan), "--kind", "jt", "--mode", "construct"]
    else:
        argv = ["chain", schema_file, system, "--m", "1", "--k", "2"]
    result = _run_cli(*argv, *option)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert "error:" in result.stderr
    assert "VERDICT" not in result.stdout


@pytest.mark.parametrize("term", ["<Chickenpox,Chickenpox>", "[Chickenpox]Chickenpox"])
def test_exclusive_repeated_variable_exits_2(schema_file, term):
    values = ("Major*Minor", "Major*Minor") if term.startswith("<") else ("Major->Minor", "Major->Major")
    result = _run_cli("exclusive", schema_file, term, *values)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert "more than once" in result.stderr


def test_derive_independence_with_an_unheld_atom(tmp_path, capsys):
    # an exact product over X in {a,b}, Y in {u,v}; the schema also declares X = c
    schema = tmp_path / "xyc.txt"
    schema.write_text("X = a | b | c\nY = u | v\n")
    data = tmp_path / "xy.csv"
    data.write_text("X,Y\n" + "\n".join(["a,u", "a,v", "b,u", "b,v"] * 2) + "\n")
    script = tmp_path / "indep.txt"
    script.write_text(
        "y = ATQUERY Y : u\n"
        "x = ATQUERY X : a\n"
        "xy = ProdIIndep y x | independent X Y\n"
    )
    assert main(["derive", str(schema), str(data), "--script", str(script), "--check"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-2:] == ["xy\t|> <X,Y> : a*u @ 0.25", "CHECK\tok"]


def test_derive_rejects_prod_i_indep_over_one_variable(tmp_path, capsys):
    # X cannot be both a and b: the pair <X,X> is refused as parse refuses it
    schema = tmp_path / "xy.txt"
    schema.write_text("X = a | b | c\nY = u | v\n")
    data = tmp_path / "xy.csv"
    data.write_text("X,Y\n" + "\n".join(["a,u", "a,v", "b,u", "b,v"] * 2) + "\n")
    script = tmp_path / "pair.txt"
    script.write_text(
        "x = ATQUERY X : a\n"
        "y = ATQUERY X : b\n"
        "xy = ProdIIndep y x | assume-independent X X\n"
    )
    assert main(["derive", str(schema), str(data), "--script", str(script), "--check"]) == 2
    out, err = capsys.readouterr()
    assert "CHECK" not in out
    assert err == "error: term <X,X> names 'X' more than once\n"
    assert main(["parse", str(schema), "|> <X,X> : a*b @ 0.25"]) == 2
    assert capsys.readouterr().err == err


def test_exclusive_conditional_below_a_pair_exits_2(tmp_path):
    schema = tmp_path / "s.txt"
    schema.write_text("X = a | b\nY = c | d\nZ = e | f\n")
    result = _run_cli("exclusive", str(schema), "<X,[Y]Z>", "a*(c->e)", "a*(c->f)")
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert "below a pair" in result.stderr


@pytest.mark.parametrize("term, beta, delta", [("V", "t", "t"), ("V", "a", "a"), ("<X,V>", "a*u", "a*u")])
def test_exclusive_names_an_undeclared_variable(tmp_path, term, beta, delta):
    # the term is read against the schema, so the unknown variable is named
    # rather than an atom that does not fit it
    schema = tmp_path / "xyz.txt"
    schema.write_text("X = a | b\nY = u | v\nZ = p | q\n")
    result = _run_cli("exclusive", str(schema), term, beta, delta)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: unknown variable 'V'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["exclusive", "{schema}", "fst(<X,Q>)", "a", "b"],
        ["exclusive", "{schema}", "<snd(<Q,X>),Y>", "a*u", "b*v"],
        ["parse", "{schema}", "|> snd(<Q,X>) : a @ 0.5"],
        ["parse", "{schema}", "Y:u |> fst(<X,<Q,Z>>) : a @ 0.5"],
    ],
)
def test_an_undeclared_variable_in_a_discarded_component_exits_2(tmp_path, capsys, argv):
    # a projection used to drop its other component unchecked: `exclusive`
    # printed `exclusive` and `parse` echoed the subject, each with exit 0
    schema = tmp_path / "xyz.txt"
    schema.write_text("X = a | b\nY = u | v\nZ = p | q\n")
    assert main([arg.format(schema=schema) for arg in argv]) == 2
    assert capsys.readouterr() == ("", "error: unknown variable 'Q'\n")


def test_exclusive_conditional_antecedent_exits_2(tmp_path):
    schema = tmp_path / "xyz.txt"
    schema.write_text("X = a | b\nY = u | v\nZ = p | q\n")
    result = _run_cli("exclusive", str(schema), "[[X]Y]Z", "(a->u)->p", "(~~(a->u))->q")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: conditional term [[X]Y]Z has the conditional antecedent [X]Y\n"


@pytest.fixture
def xy_systems(xyz_files, tmp_path):
    """Unconditional systems learnt for X and for Y from the xyz table."""
    schema, data = xyz_files
    systems = []
    for target in ("X", "Y"):
        path = str(tmp_path / f"{target}.sys")
        assert main(["learn", schema, data, "--target", target, "-o", path]) == 0
        systems.append(path)
    return schema, systems


@pytest.mark.parametrize("assertion", ["assume-independent", "independent"])
def test_preserve_reads_side_assertions(xy_systems, tmp_path, capsys, assertion):
    # `preserve` used to drop the assertion, so ProdIIndep found no evidence
    schema, systems = xy_systems
    plan = tmp_path / "plan.txt"
    plan.write_text(
        "y = ATQUERY Y : u\n"
        "x = ATQUERY X : a\n"
        f"xy = ProdIIndep y x | {assertion} X Y\n"
    )
    capsys.readouterr()
    argv = ["preserve", schema, "--orig", *systems, "--copy", *systems,
            "--plan", str(plan), "--kind", "jt", "--mode", "construct"]
    code = main(argv)
    out, err = capsys.readouterr()
    if assertion == "assume-independent":
        assert code == 0
        assert out.splitlines()[-1] == "VERDICT preserve-jt true"
    else:
        # there is no table to test independence on, only applied systems
        assert code == 2
        assert "VERDICT" not in out
        assert "step xy: cannot verify independence without a training table" in err


def test_exclusive_negated_disjunction_of_conditionals(tmp_path):
    # ~((a->p)+(a->q)) is a->r, which overlaps a->r
    schema = tmp_path / "xyz.txt"
    schema.write_text("X = a | b | c\nY = u | v\nZ = p | q | r\n")
    result = _run_cli("exclusive", str(schema), "[X]Z", "~((a->p)+(a->q))", "a->r")
    assert result.returncode == 1
    assert result.stdout == "not-exclusive\n"


_CHAIN = "+".join(["a"] * 1500)


# A value nested past the interpreter's recursion limit, by shape and command.
@pytest.mark.parametrize(
    "command, value",
    [
        ("parse", "(" * 5000 + "a" + ")" * 5000),
        ("parse", "~" * 1200 + "a"),
        ("parse", _CHAIN),
        ("exclusive", _CHAIN),
    ],
    ids=["parse-parentheses", "parse-negations", "parse-chain", "exclusive-chain"],
)
def test_a_value_nested_too_deeply_exits_2(tmp_path, command, value):
    schema = tmp_path / "s.txt"
    schema.write_text("X = a | b\n")
    if command == "parse":
        result = _run_cli("parse", str(schema), f"|> X : {value} @ 0.5")
    else:
        result = _run_cli("exclusive", str(schema), "X", value, "b")
    assert (result.returncode, result.stdout, result.stderr) == (2, "", "error: input nested too deeply\n")


def test_exclusive_decides_two_values_deep_on_both_sides(tmp_path):
    # the step cases split both values, 199 arrows each, one after the
    # other; walking them by recursion overflowed the stack
    schema = tmp_path / "s.txt"
    schema.write_text("X = a | b\nZ = p | q\n")
    beta, delta = ("+".join([f"(a->{z})"] * 199) for z in "pq")
    result = _run_cli("exclusive", str(schema), "[X]Z", beta, delta)
    assert (result.returncode, result.stdout, result.stderr) == (0, "exclusive\n", "")


def test_parentheses_take_one_parser_level_each(tmp_path):
    # the parser takes one frame per parenthesis, so 600 stay under the
    # recursion limit
    schema = tmp_path / "s.txt"
    schema.write_text("X = a | b\n")
    result = _run_cli("parse", str(schema), "|> X : " + "(" * 600 + "a" + ")" * 600 + " @ 0.5")
    assert (result.returncode, result.stdout, result.stderr) == (0, "|> X : a @ 0.5\n", "")


def test_the_sigma_header_is_the_word_then_space(tmp_path, capsys):
    schema = tmp_path / "s.txt"
    schema.write_text("V0 = a0 | b0\nV1 = c1 | d1\n")
    good, glued = tmp_path / "good.sys", tmp_path / "glued.sys"
    for line in ("sigma", "sigma\tV0:a0", "sigma  V0:a0 "):
        good.write_text(f"system T A\n{line}\nvar V1\nc1 0.5\nd1 0.5\n")
        assert main(["compare", str(schema), str(good), str(good), "--kind", "jt"]) == 0
        assert capsys.readouterr().out.endswith("VERDICT jt true\n")
    # a header glued to its first attribution is not read as `sigma V0:a0`
    glued.write_text("system T A\nsigmaV0:a0\nvar V1\nc1 0.5\nd1 0.5\n")
    assert main(["compare", str(schema), str(good), str(glued), "--kind", "jt"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: bad sigma line: 'sigmaV0:a0'\n")


# A stored system whose σ attributes its own target, X:a |> X, used to
# load, and each command gave a verdict on it.
@pytest.mark.parametrize(
    "command",
    [
        ["compare", "{schema}", "{system}", "{system}", "--kind", "jt"],
        ["chain", "{schema}", "{system}", "--m", "1", "--k", "2", "--steps", "2"],
        ["preserve", "{schema}", "--orig", "{system}", "--copy", "{system}", "--plan", "{plan}",
         "--kind", "jt", "--mode", "construct"],
    ],
    ids=["compare", "chain", "preserve"],
)
def test_a_system_attributing_its_own_target_exits_2(tmp_path, capsys, command):
    files = {"schema": tmp_path / "s.txt", "system": tmp_path / "bad.sys", "plan": tmp_path / "plan.txt"}
    files["schema"].write_text("X = a | b\nY = u | v\n")
    files["system"].write_text("system t e\nsigma X:a\nvar X\na 0.5\nb 0.5\n")
    files["plan"].write_text("x = ATQUERY X:a |> X : a\np = NegIER x\n")
    assert main([arg.format(**files) for arg in command]) == 2
    assert capsys.readouterr() == ("", "error: 'X' is already attributed in sigma\n")
