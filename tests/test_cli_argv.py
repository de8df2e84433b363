"""The option-table walker of the command line against argparse.

`argparse_reference.build_parser` is the parser the command line used
before; on every generated command line both must accept with the same
attributes (the handler compared by name), or both must reject.
"""

import contextlib
import io
import shlex
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from argparse_reference import build_parser
from wpptoric import cli

ENV = {"WPPTORIC_ORDER": 6, "WPPTORIC_MAX": 10}
REFERENCE = build_parser(ENV["WPPTORIC_ORDER"], ENV["WPPTORIC_MAX"])
README = Path(__file__).resolve().parent.parent / "README.md"


def _named(attrs):
    attrs["func"] = attrs["func"].__name__
    return attrs


def reference(argv):
    """The reference parser's attributes, or None when it rejects argv."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return _named(vars(REFERENCE.parse_args(argv)))
        except SystemExit:
            return None


def walker(argv):
    try:
        return _named(vars(cli._parse_argv(argv, ENV)))
    except cli._UsageError:
        return None


INTS = st.integers(min_value=-10**6, max_value=10**6).map(str)
# strings argparse takes as values: no leading dash
TEXTS = st.text(alphabet="0123456789,;:/ x", max_size=10)


def _values(kind):
    if kind == "flag":
        return st.just([])
    if kind == "int3":
        return st.lists(INTS, min_size=3, max_size=3)
    if kind == "int":
        return INTS.map(lambda v: [v])
    if kind == "str":
        return TEXTS.map(lambda v: [v])
    return st.sampled_from(kind).map(lambda v: [v])


@st.composite
def _group(draw, flags, flag):
    """One flag with its values, as separate tokens or as --flag=value."""
    kind = flags[flag][1]
    values = draw(_values(kind))
    if len(values) == 1 and draw(st.booleans()):
        return [f"{flag}={values[0]}"]
    return [flag, *values]


@st.composite
def command_lines(draw):
    """(command, flag groups): every required flag, others in any order, some repeated."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    flags = cli.COMMANDS[command][2]
    chosen = [flag for flag, spec in flags.items() if spec[3]]
    chosen += draw(st.lists(st.sampled_from(sorted(flags)), max_size=6))
    chosen = draw(st.permutations(chosen))
    return command, [draw(_group(flags, flag)) for flag in chosen]


def _join(command, groups):
    return ([command] if command else []) + [token for group in groups for token in group]


@given(command_lines())
@settings(max_examples=400, deadline=None)
def test_walker_agrees_with_argparse(line):
    argv = _join(*line)
    expected = reference(argv)
    assert expected is not None, argv
    assert walker(argv) == expected


NOT_INTS = ["x", "1.5", "", "0x10", "1e3", "1_0_", "+-1"]
NOT_FLAGS = ["--ab", "--rr", "--Abc", "--lam", "--bogus", "-abc", "--check-all", "--spec"]


@st.composite
def malformed_command_lines(draw):
    command, groups = draw(command_lines())
    flags = cli.COMMANDS[command][2]
    faults = ["no command", "unknown flag", "missing required", "non-int", "short int3"]
    if any(isinstance(spec[1], tuple) for spec in flags.values()):
        faults.append("bad choice")
    fault = draw(st.sampled_from(faults))
    if fault == "no command":
        return _join(None, groups)
    if fault == "missing required":
        gone = draw(st.sampled_from([f for f, spec in flags.items() if spec[3]]))
        return _join(command, [g for g in groups if g[0].partition("=")[0] != gone])
    if fault == "unknown flag":
        bad = [draw(st.sampled_from([f for f in NOT_FLAGS if f not in flags]))]
    elif fault == "non-int":
        flag = draw(st.sampled_from([f for f, spec in flags.items()
                                     if spec[1] in ("int", "int3")]))
        value = draw(st.sampled_from(NOT_INTS))
        if flags[flag][1] == "int3":
            bad = [flag, *draw(st.permutations(["1", "2", value]))]
        else:
            bad = draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
    elif fault == "short int3":
        flag = draw(st.sampled_from([f for f, spec in flags.items() if spec[1] == "int3"]))
        bad = [flag, *draw(st.lists(INTS, max_size=2))]
    else:
        flag = next(f for f, spec in flags.items() if isinstance(spec[1], tuple))
        bad = [flag, draw(st.sampled_from(["foo", "None", "", "rank", "color"]))]
    # every group starts with a flag, so a short int3 group runs into
    # the next flag or the end of the line
    where = draw(st.integers(min_value=0, max_value=len(groups)))
    return _join(command, groups[:where] + [bad] + groups[where:])


@given(malformed_command_lines())
@settings(max_examples=300, deadline=None)
def test_walker_rejects_what_argparse_rejects(argv):
    assert reference(argv) is None, argv
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code == 1
    assert out.getvalue() == ""
    assert len(err.getvalue().splitlines()) == 1
    assert err.getvalue().startswith("usage error: ")


TOKENS = sorted({flag for _, _, flags in cli.COMMANDS.values() for flag in flags}) + [
    "-1", "0", "7", "x", "", "1 2", "-1 2", "-.5", "none", "color0", "rank2", "1:0;0:1;1:1",
    "2,1;;1", "--r=3", "--r=", "--abc=1", "--pretty=1", "-x", "-", "--specialize=total",
    "--E=-2", "--ab", "hilb",
]


@given(st.sampled_from(sorted(cli.COMMANDS)), st.lists(st.sampled_from(TOKENS), max_size=12))
@settings(max_examples=600, deadline=None)
def test_walker_and_argparse_accept_the_same_lines(command, tokens):
    argv = [command, *tokens]
    assert walker(argv) == reference(argv)


def test_readme_examples_parse_alike():
    lines = [line.split(" ", 1)[1] for line in README.read_text().splitlines()
             if line.startswith("wpptoric ")]
    assert len(lines) >= 8
    for line in lines:
        argv = shlex.split(line)
        assert walker(argv) is not None
        assert walker(argv) == reference(argv)
