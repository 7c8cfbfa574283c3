"""``cli``'s command-line parser against the argparse parser it replaced."""

import argparse
import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirror_teleport import cli
from mirror_teleport.cli import main


def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser ``cli`` used before, as it was defined there."""
    parser = argparse.ArgumentParser(
        prog="mirror-teleport",
        description="Radiation-pressure teleportation onto a vibrating mirror: "
        "couplings, fidelity curves, self-verification and readout analysis.",
    )
    parser.add_argument(
        "--config",
        default=None,
        help="path to a JSON run config (default: bundled fig2.json)",
    )
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--grid", type=int, default=None, help="override grid_points")
    parser.add_argument(
        "--periods", type=float, default=None, help="override sweep length in periods"
    )
    parser.add_argument(
        "--no-heterodyne",
        action="store_true",
        help="curve: use the variant without the anti-Stokes heterodyne",
    )
    parser.add_argument(
        "command", choices=["couplings", "curve", "verify", "readout"]
    )
    return parser


_ORACLE = _build_parser()


def _argparse(argv):
    """The oracle's reading of ``argv``: its values, "help" or "error"."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_ORACLE.parse_args(argv))
        except SystemExit as exc:
            return "error" if exc.code else "help"


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


_LONG = ("--config", "--out", "--grid", "--periods", "--no-heterodyne", "--help")
#: Every long option cut to each of its unique prefixes, and whole.
_PREFIXES = sorted({flag[:n] for flag in _LONG for n in range(3, len(flag) + 1)})
_SWITCHES = [p for p in _PREFIXES if p.startswith(("--n", "--h"))]
_VALUED = [p for p in _PREFIXES if p not in _SWITCHES]
_VALUES = ("5", "-5", "0", "2.5", "-.5", "1e3", "inf", "abc", "", "a b", "-x y")
_COMMANDS = ("couplings", "curve", "verify", "readout")
_ODD = ("bogus", "-x", "--bogus", "-", "---", "-h", "-hh", *_VALUES, *_COMMANDS)

# Flags with their values, flags alone and odd tokens on either side of a
# command.  They leave out what argparse reads differently from one Python
# release to another (the suite runs on 3.10 and 3.12): "--" and an
# option's "=--"; "-h" followed by anything but more h's ("-hx", "-h=");
# an ambiguous prefix ("--=x"), which newer releases reject only when they
# reach it, after an -h before it; and a lone "-1e3", an unknown option to
# older releases and a negative number to newer ones.
_ITEMS = st.one_of(
    st.tuples(st.sampled_from(_VALUED), st.sampled_from(_VALUES + ("--out", "-h", "curve"))),
    st.builds("{}={}".format, st.sampled_from(_PREFIXES), st.sampled_from(_VALUES + ("-1e3",))),
    st.sampled_from(_SWITCHES),
    st.sampled_from(_ODD),
).map(lambda item: list(item) if isinstance(item, tuple) else [item])
_ARGV = st.builds(
    lambda before, command, after: sum(before, []) + command + sum(after, []),
    st.lists(_ITEMS, max_size=4),
    st.one_of(st.just([]), st.sampled_from(_COMMANDS).map(lambda c: [c])),
    st.lists(_ITEMS, max_size=4),
)


@settings(max_examples=500, deadline=None)
@given(argv=_ARGV)
def test_parser_reads_command_lines_as_argparse_did(argv):
    expected = _argparse(argv)
    if isinstance(expected, dict):
        assert cli._parse_args(argv) == expected
        return
    code, out, err = _main(argv)
    if expected == "help":
        assert (code, err) == (0, "")
        assert out.startswith("usage: mirror-teleport")
        assert all(flag in out for flag in [*cli._OPTIONS, *_COMMANDS])
    else:
        assert (code, out) == (1, "")
        assert err.startswith("usage: mirror-teleport") and "\nmirror-teleport: error: " in err


@pytest.mark.parametrize(
    "argv, values",
    [
        (["--", "curve"], {"command": "curve"}),
        (["curve", "--"], {"command": "curve"}),
        (["--grid", "5", "--", "verify"], {"grid": 5, "command": "verify"}),
        # The value after "=" is taken as written.  argparse on Python 3.11
        # dropped a "--" there and left an empty list: --config=-- took the
        # bundled config, and --grid=-- ended main in a TypeError.
        (["--config=--", "couplings"], {"config": "--", "command": "couplings"}),
    ],
)
def test_parser_reads_double_dashes(argv, values):
    # "--", which the differential test leaves out: everything after it is
    # an argument, and the command drops the first "--" next to it.
    defaults = dict(config=None, out=None, grid=None, periods=None, no_heterodyne=False)
    assert cli._parse_args(argv) == {**defaults, **values}


def test_help_is_argparses_at_80_columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _main(["-h"]) == (0, _ORACLE.format_help(), "")
    assert cli._USAGE == _ORACLE.format_usage()
