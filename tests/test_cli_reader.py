"""The CLI's plain-form reader against the argparse parser built from the same command table.

Argument lists are drawn from the table: plain ones, which the reader must
read as argparse does, and mutated ones, which it must either read as
argparse does or leave to argparse; whenever argparse exits (help or a
usage error) the reader must have left the list to it.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from tndpq.cli import _COMMANDS, _build_parser, _positive_int, _read, _tolerance

# texts no type refuses, none of them starting with `-`
PLAIN_TEXTS = ["schema.txt", "a b", "", "X", "|> X : a @ 0.5", "x-y", "V0 : a, V1 : b+c", "laplace:1"]
TYPE_TEXTS = {
    int: ["0", "1", "3", "25", " 7 ", "1_0"],
    _positive_int: ["1", "2", "10", "25"],
    _tolerance: ["0", "0.0", "1e-9", "0.0137", "2"],
}
# tokens a mutation inserts or puts in another's place
STRAY = ["-h", "--help", "--", "-", "-x", "--tar", "--ste", "--kind=jt", "--m=1", "-o", "extra", "parse", "--check",
         "--tol", "--orig"]
# values some option's type or choices refuse
BAD = ["-1", "0", "abc", "nan", "inf", "1.5", "xt", "both", ""]


@st.composite
def _plain(draw):
    """A plain argument list of one command: its positionals, then some of its options in any order."""
    name = draw(st.sampled_from(sorted(_COMMANDS)))
    _, positionals, options, _ = _COMMANDS[name]
    argv = [name] + [draw(st.sampled_from(PLAIN_TEXTS)) for _ in positionals]
    chosen = [option for option in options if option.required or draw(st.booleans())]
    for option in draw(st.permutations(chosen)):
        argv.append(draw(st.sampled_from(option.flags)))
        if option.nargs == 0:
            continue
        pool = list(option.choices or TYPE_TEXTS.get(option.type, PLAIN_TEXTS))
        argv += [draw(st.sampled_from(pool)) for _ in range(draw(st.integers(1, 3)) if option.nargs == "+" else 1)]
    return argv


@st.composite
def _mutated(draw):
    """A plain list with one or two mutations: a token inserted, replaced, deleted or moved, or an option
    given a bad value, dropped, repeated, joined to its value by `=` or abbreviated."""
    argv = draw(_plain())
    for _ in range(draw(st.integers(1, 2))):
        how = draw(st.sampled_from(["insert", "replace", "delete", "swap", "bad", "drop", "repeat", "join", "abbreviate"]))
        flags = [at for at, text in enumerate(argv) if text.startswith("--") and at + 1 < len(argv)]
        if how in ("bad", "drop", "repeat", "join", "abbreviate") and flags:
            at = draw(st.sampled_from(flags))
            if how == "bad":
                argv[at + 1] = draw(st.sampled_from(BAD))
            elif how == "drop":
                del argv[at : at + 2]
            elif how == "repeat":
                argv += argv[at : at + 2]
            elif how == "join":
                argv[at : at + 2] = [f"{argv[at]}={argv[at + 1]}"]
            else:
                argv[at] = argv[at][:-1]
            continue
        at = draw(st.integers(0, len(argv) - 1))
        if how == "replace":
            argv[at] = draw(st.sampled_from(STRAY + BAD))
        elif how == "delete":
            del argv[at]
        elif how == "swap":
            other = draw(st.integers(0, len(argv) - 1))
            argv[at], argv[other] = argv[other], argv[at]
        else:
            argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(STRAY + BAD)))
    return argv


def _argparse(argv):
    """vars() of argparse's namespace for `argv`, or None when it exits (help or a usage error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_build_parser().parse_args(argv))
        except SystemExit:
            return None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=_plain())
def test_reader_reads_a_plain_argument_list_as_argparse_does(argv):
    read = _read(argv)
    assert read is not None, argv
    assert vars(read) == _argparse(argv), argv


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(argv=_mutated())
def test_reader_reads_as_argparse_or_defers_to_it(argv):
    read = _read(argv)
    expected = _argparse(argv)
    if expected is None:
        assert read is None, argv
    elif read is not None:
        assert vars(read) == expected, argv


def test_reader_defers_each_form_argparse_reads_differently():
    learn = ["learn", "s.txt", "t.csv", "--target", "X"]
    for argv in (
        ["-h"],
        ["learn", "-h"],
        ["nope", "s.txt"],
        ["learn", "s.txt", "t.csv"],
        ["learn", "s.txt", "t.csv", "--tar", "X"],
        ["learn", "s.txt", "t.csv", "--target=X"],
        [*learn, "--target", "Y"],
        [*learn, "-o"],
        [*learn, "--", "x"],
        ["learn", "--target", "X", "s.txt", "t.csv"],
        ["compare", "s.txt", "o.sys", "c.sys", "--kind", "jt", "--tol", "-1"],
        ["compare", "s.txt", "o.sys", "c.sys", "--kind", "jt", "--tol", "nan"],
        ["chain", "s.txt", "c.sys", "--m", "1", "--k", "2", "--steps", "0"],
        ["chain", "s.txt", "c.sys", "--m", "-1", "--k", "2"],
        ["chain", "s.txt", "c.sys", "--m", "1", "--k", "2", "--variant", "xt"],
        ["preserve", "s.txt", "--orig", "o", "--copy", "c", "--plan", "p", "--kind=jt", "--mode", "construct"],
    ):
        assert _read(argv) is None, argv
