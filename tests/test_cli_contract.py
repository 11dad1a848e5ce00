"""The command-line exit contract over seeded random argument lists.

`learn`, `compare`, `preserve`, `chain` and `exclusive` run in-process on
valid and malformed arguments and files; every run must end with exit code
0, 1 or 2 and no traceback.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tndpq.cli import main


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    schema = root / "schema.txt"
    schema.write_text("Chickenpox = Absent | Minor | Moderate | Major | Extreme\nHepatitis = No | Yes\n")
    data = root / "data.csv"
    rows = [f"{c},{h}" for c, n in (("Absent", 2), ("Minor", 4), ("Major", 1), ("Extreme", 1))
            for h in ("No", "Yes") for _ in range(n)]
    data.write_text("Chickenpox,Hepatitis\n" + "\n".join(rows) + "\n")
    xyz = root / "xyz.txt"
    xyz.write_text("X = a | b | c\nY = u | v\nZ = p | q\nW = r | s\n")
    files = {"schema": str(schema), "data": str(data), "xyz": str(xyz), "missing": str(root / "missing.sys")}
    with contextlib.redirect_stdout(io.StringIO()):
        for name, estimator in (("orig", "freq"), ("copy", "laplace:1")):
            files[name] = str(root / f"{name}.sys")
            assert main(["learn", str(schema), str(data), "--target", "Chickenpox",
                         "--estimator", estimator, "-o", files[name]]) == 0
    plans = {
        "plan": "a = ATQUERY Chickenpox : Major\nb = ATQUERY Chickenpox : Extreme\nboth = OrIR a b\n",
        "neg_plan": "a = ATQUERY Chickenpox : Major\nn = NegIER a\n",
        "bad_plan": "a = ATQUERY Chickenpox : Major\nboth = OrIR a zz\n",
        "garbled_plan": "this is not a plan\n",
    }
    for name, text in plans.items():
        (root / name).write_text(text)
        files[name] = str(root / name)
    # malformed inputs: a byte that is not UTF-8, and a cell over the csv field limit
    malformed = {"not_utf8": b"Chickenpox,Hepatitis\nMajor,No\n\xff,Yes\n",
                 "huge_cell": b"Chickenpox,Hepatitis\nMajor,No\n" + b"Minor" * 28_000 + b",Yes\n"}
    for name, content in malformed.items():
        (root / name).write_bytes(content)
        files[name] = str(root / name)
    return files


KIND_TEXTS = ["jt", "et:1", "wt:3", "at:5", "ET:2"] * 2 + [
    "at:0", "et:-1", "wt:6", "jt:2", "et", "et:x", "xx:1", "at:1.5", "", "et:99999999999999999999"]
TOL_TEXTS = ["0", "1e-9", "0.05"] * 2 + ["-1", "nan", "inf", "abc", "1e400", ""]
# in-range numbers are listed three times, so that most chains get to run
INT_TEXTS = ["1", "2", "3", "4", "5"] * 3 + ["0", "-1", "7", "", "x", "2.5", "99999999999999999999"]
STEP_TEXTS = ["1", "3", "6"] * 3 + ["0", "-5", "x", ""]


@st.composite
def _argv(draw, files):
    pick = lambda options: draw(st.sampled_from(options))  # noqa: E731
    command = pick(["compare", "preserve", "chain", "learn"])
    system = lambda: files[pick(["orig", "copy", "missing", "not_utf8", "huge_cell"])]  # noqa: E731
    if command == "learn":
        table = files[pick(["data", "missing", "not_utf8", "huge_cell"])]
        argv = ["learn", files["schema"], table, "--target", pick(["Chickenpox", "Hepatitis", "Nope"])]
    elif command == "compare":
        argv = ["compare", files["schema"], system(), system(), "--kind", pick(KIND_TEXTS)]
    elif command == "preserve":
        argv = ["preserve", files["schema"], "--orig", system(), "--copy", system(),
                "--plan", files[pick(["plan", "neg_plan", "bad_plan", "garbled_plan", "missing", "not_utf8"])],
                "--kind", pick(["jt", "et", "at", "wt", "xt"]),
                "--mode", pick(["construct", "deconstruct", "both"])]
    else:
        argv = ["chain", files["schema"], system(), "--variant", pick(["at", "wt", "et", "xt"]),
                "--m", pick(INT_TEXTS), "--k", pick(INT_TEXTS)]
        if draw(st.booleans()):
            argv += ["--l", pick(INT_TEXTS)]
        argv += ["--steps", pick(STEP_TEXTS)]
    if command in ("compare", "preserve") and draw(st.booleans()):
        argv += ["--tol", pick(TOL_TEXTS)]
    if draw(st.integers(0, 5)) == 5:
        del argv[draw(st.integers(1, len(argv) - 1))]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_exit_contract_holds_for_random_arguments(contract_files, data):
    argv = data.draw(_argv(contract_files))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code in (0, 1) and argv[0] != "learn":
        verdict = out.getvalue().splitlines()[-1]
        assert verdict.startswith("VERDICT ") and verdict.endswith(("true", "false")[code])


# Terms over X, Y, Z and W, with pairs holding conditional components,
# projections of non-pairs and repeated variables among them; values mostly
# follow the term's shape, so that verdicts come as well as errors.
ATOMS = {"X": ["a", "b", "c"], "Y": ["u", "v"], "Z": ["p", "q"], "W": ["r", "s"], "V": ["t"]}
_X, _Y, _Z, _W = (("var", name) for name in "XYZW")
NAMED_TERMS = [
    ("pair", _X, ("cond", _Y, _Z)),
    ("pair", ("cond", _X, _Y), _Z),
    ("cond", ("pair", _X, ("cond", _Y, _Z)), _W),
    ("cond", _X, ("pair", _Y, ("cond", _Z, _W))),
    ("pair", _X, ("fst", _Y)),
    ("snd", ("cond", _X, _Y)),
    ("pair", _X, _X),
    ("cond", _X, ("pair", _Y, _X)),
]


@st.composite
def _term(draw, depth=2):
    """A term as a tree: ("var", name), or (kind, part, ...) for the rest."""
    if depth == 2 and draw(st.booleans()):
        return draw(st.sampled_from(NAMED_TERMS))
    kind = draw(st.sampled_from(["var"] * 3 + ["pair", "pair", "cond", "cond", "fst", "snd"] if depth else ["var"]))
    if kind == "var":
        return kind, draw(st.sampled_from(["X", "Y", "Z", "W"] * 4 + ["V"]))  # V is not in the schema
    if kind in ("fst", "snd"):
        return kind, draw(_term(depth - 1))
    return kind, draw(_term(depth - 1)), draw(_term(depth - 1))


def _text(term):
    kind, *parts = term
    if kind == "var":
        return parts[0]
    if kind in ("fst", "snd"):
        return f"{kind}({_text(parts[0])})"
    left, right = map(_text, parts)
    return f"<{left},{right}>" if kind == "pair" else f"[{left}]{right}"


@st.composite
def _value(draw, term, depth=3):
    kind, *parts = term
    if depth and draw(st.integers(0, 5)) == 0:
        if draw(st.booleans()):
            return f"~({draw(_value(term, depth - 1))})"
        return f"({draw(_value(term, depth - 1))})+({draw(_value(term, depth - 1))})"
    if kind in ("pair", "cond") and draw(st.integers(0, 19)):
        left, right = (draw(_value(part, depth)) for part in parts)
        return f"({left}){'*' if kind == 'pair' else '->'}({right})"
    if kind in ("fst", "snd") and parts[0][0] == "pair":
        return draw(_value(parts[0][1 if kind == "fst" else 2], depth))
    if kind == "var" and draw(st.integers(0, 19)):
        return draw(st.sampled_from(ATOMS[parts[0]]))
    return draw(st.sampled_from(["a", "u", "p", "w", "zz", "a*u", "a->u", "a+", ""]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_exclusive_exit_contract_holds_for_random_terms(contract_files, data):
    term = data.draw(_term())
    argv = ["exclusive", contract_files["xyz"], _text(term), data.draw(_value(term)), data.draw(_value(term))]
    if data.draw(st.booleans()):
        argv.append("--explain")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code in (0, 1):
        # `exclusive` ends with its verdict word, not a VERDICT line
        assert out.getvalue().splitlines()[-1] == ("exclusive", "not-exclusive")[code], argv
