"""The command-line grammar: the commands and options, and their parser.

The command line is read by ``_parse_args``, not argparse, whose messages
go through gettext and so load ``locale`` in every process.  It reads a
command line as argparse did, unique prefixes of the flags and
``--flag=value`` included, and rejects what argparse rejected with
argparse's usage line and message; ``-h`` prints argparse's help as
formatted for 80 columns.  A value after ``=`` is taken as written,
``--`` included.

This module imports the standard library only, so it compiles as a unit
of its own: without a bytecode cache a numpy-free command's peak is set
while the compiler holds its largest unit, and ``cli`` without the
grammar is a smaller one.
"""

from __future__ import annotations

import re

#: The options: each option string's destination and its value's type,
#: None for one that takes no value.
_OPTIONS = {
    "-h": ("help", None),
    "--help": ("help", None),
    "--config": ("config", str),
    "--out": ("out", str),
    "--grid": ("grid", int),
    "--periods": ("periods", float),
    "--no-heterodyne": ("no_heterodyne", None),
}
#: The commands, each with the files it writes in --out.
_OUTPUTS = {
    "couplings": ("couplings.json",),
    "curve": ("curve.csv", "summary.json"),
    "verify": ("verify.txt",),
    "readout": (),
}
_USAGE = """\
usage: mirror-teleport [-h] [--config CONFIG] [--out OUT] [--grid GRID]
                       [--periods PERIODS] [--no-heterodyne]
                       {couplings,curve,verify,readout}
"""
_HELP = _USAGE + """
Radiation-pressure teleportation onto a vibrating mirror: couplings, fidelity
curves, self-verification and readout analysis.

positional arguments:
  {couplings,curve,verify,readout}

options:
  -h, --help            show this help message and exit
  --config CONFIG       path to a JSON run config (default: bundled fig2.json)
  --out OUT             output directory
  --grid GRID           override grid_points
  --periods PERIODS     override sweep length in periods
  --no-heterodyne       curve: use the variant without the anti-Stokes
                        heterodyne
"""


class _UsageError(Exception):
    """A command line that ``_parse_args`` rejects."""


def _option(token: str):
    """None if ``token`` is an argument, else (option string, the value
    after it in the token or None); the option string is "" for an unknown
    option.  A long option may be cut to a unique prefix, and ``-h`` may be
    followed by more letters."""
    if token in _OPTIONS:
        return token, None
    if token[:1] != "-" or token == "-":
        return None
    name, eq, value = token.partition("=")
    if eq and name in _OPTIONS:
        return name, value
    if token[1] == "-":
        matches = [option for option in _OPTIONS if option.startswith(name)]
        value = value if eq else None
    else:
        matches, value = ["-h"] if token.startswith("-h") else [], token[2:]
    if len(matches) > 1:
        raise _UsageError(f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return matches[0], value
    if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token:
        return None  # a negative number, or an argument with a space
    return "", None


def _parse_args(argv: list[str]):
    """The command line ``argv`` as a dict of the options' values and the
    command, or None for ``-h``/``--help``.

    Every command line is read as argparse reads it: flags before or after
    the command, ``--flag value`` or ``--flag=value``, the last of a
    repeated flag winning, and everything after ``--`` an argument.  One
    that it rejects raises ``_UsageError`` with argparse's message.
    """
    kinds = []  # per token: what _option makes of it, or "--"
    for i, token in enumerate(argv):
        if token == "--":
            kinds += ["--"] + [None] * (len(argv) - i - 1)
            break
        kinds.append(_option(token))
    args = dict(config=None, out=None, grid=None, periods=None, no_heterodyne=False, command=None)
    extras, i = [], 0
    while i < len(argv):
        kind, token = kinds[i], argv[i]
        i += 1
        if kind is None or kind == "--":
            if args["command"] is not None or (kind == "--" and i == len(argv)):
                extras.append(token)
                continue
            # The command drops the first "--", just before or after it.
            if kind == "--":
                token, i = argv[i], i + 1
            elif i < len(argv) and kinds[i] == "--":
                i += 1
            if token not in _OUTPUTS:
                choices = ", ".join(map(repr, _OUTPUTS))
                raise _UsageError(
                    f"argument command: invalid choice: {token!r} (choose from {choices})"
                )
            args["command"] = token
            continue
        option, value = kind
        if not option:
            extras.append(token)
            continue
        dest, convert = _OPTIONS[option]
        name = "-h/--help" if dest == "help" else option
        if convert is None:
            if option == "-h" and value:  # -hh... is -h -h ...
                value = value.lstrip("h") or None
            if value is not None:
                raise _UsageError(f"argument {name}: ignored explicit argument {value!r}")
            if dest == "help":
                return None
            args[dest] = True
            continue
        if value is None:
            if i == len(argv) or kinds[i] is not None:
                raise _UsageError(f"argument {name}: expected one argument")
            value, i = argv[i], i + 1
        try:
            args[dest] = convert(value)
        except ValueError:
            raise _UsageError(
                f"argument {name}: invalid {convert.__name__} value: {value!r}"
            ) from None
    if args["command"] is None:
        raise _UsageError("the following arguments are required: command")
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return args
