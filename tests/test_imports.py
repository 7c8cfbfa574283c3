import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mirror_teleport

SRC = Path(__file__).resolve().parent.parent / "src"

#: Runs the CLI as `python -m mirror_teleport.cli` would with arguments
#: ``argv``.
_CLI = (
    "import runpy; sys.argv = ['mirror-teleport', *{argv!r}]; "
    "runpy.run_module('mirror_teleport.cli', run_name='__main__')"
)


def _loaded_at_exit(code, modules):
    """Which of ``modules`` a ``python -c code`` process has imported when it
    exits, the normal way or, as the CLI does, by ``os._exit``, which runs
    no ``atexit`` hook: the probe wraps it to report first."""
    probe = (
        "import atexit, os, sys; "
        f"report = lambda: print([m for m in {modules!r} if m in sys.modules], flush=True); "
        "atexit.register(report); "
        "os._exit = lambda code, _exit=os._exit: (report(), _exit(code)); "
        + code
    )
    return _python(probe).splitlines()[-1]


#: Modules no command loads: argparse, whose messages go through gettext
#: and locale, and, run as __main__, the CLI module under its own name,
#: which would compile and run a second copy of it.
_NEVER = ("argparse", "gettext", "locale", "mirror_teleport.cli")


@pytest.mark.parametrize(
    "code, uses_readout",
    [
        ("import mirror_teleport", False),
        (_CLI.format(argv=["couplings"]), False),
        (_CLI.format(argv=["readout"]), True),
    ],
    ids=["import", "couplings", "readout"],
)
def test_numpy_free_paths_never_import_numpy(code, uses_readout):
    # Nor dataclasses and the inspect it imports: no path needs them, and
    # without a bytecode cache they take longer to import than the package.
    # The readout analysis loads only for the command that uses it, and the
    # gates only for verify.
    modules = ("numpy", "dataclasses", "inspect", "mirror_teleport.readout",
               "mirror_teleport.gates", *_NEVER)
    loaded = ["mirror_teleport.readout"] if uses_readout else []
    assert _loaded_at_exit(code, modules) == str(loaded)


#: The oracle modules, which only the gates and library callers need.
_ORACLES = ("mirror_teleport.dynamics", "mirror_teleport.gaussian_core")


@pytest.mark.parametrize("command", ["curve", "verify"])
def test_numpy_commands_never_import_dataclasses(tmp_path, command):
    # Only curve imports numpy, and it loads no oracle module: the factored
    # forms it evaluates own their trig and checks in ``protocol``.  verify
    # runs its gates on Python floats through the same closed forms, in
    # ``protocol``, ``dynamics`` and ``gaussian_core``, and loads no numpy.
    code = _CLI.format(argv=["--out", str(tmp_path), command])
    package = ("mirror_teleport.gates", "mirror_teleport.protocol", *_ORACLES)
    modules = ("numpy", "dataclasses", *package, *_NEVER)
    if command == "curve":
        loaded = ["numpy", "mirror_teleport.protocol"]
    else:
        loaded = list(package)
    assert _loaded_at_exit(code, modules) == str(loaded)


def test_curve_compiles_its_own_modules_before_numpy(tmp_path):
    # Without a bytecode cache, protocol and _csvtext compile before numpy
    # loads, so numpy's import reuses the memory the compiler freed: about
    # 0.5 MB of curve's peak.  _csvtext imports numpy, so protocol comes
    # first.  A finder first on sys.meta_path records each lookup.
    modules = ("mirror_teleport.protocol", "mirror_teleport._csvtext", "numpy")
    probe = (
        "import os, sys; looked = []; "
        "sys.meta_path.insert(0, type('Spy', (), {'find_spec': staticmethod("
        "lambda name, *rest: looked.append(name))})); "
        f"report = lambda: print([m for m in dict.fromkeys(looked) if m in {modules!r}], flush=True); "
        "os._exit = lambda code, _exit=os._exit: (report(), _exit(code)); "
        + _CLI.format(argv=["--out", str(tmp_path), "curve"])
    )
    assert _python(probe).splitlines()[-1] == str(list(modules))


def test_the_grammar_is_a_module_of_its_own():
    # Without a bytecode cache a numpy-free command's peak is set while the
    # compiler holds its largest unit, so the command-line grammar compiles
    # apart from cli: it imports the standard library only, and cli binds
    # its names.
    import ast

    from mirror_teleport import _argv, cli

    tree = ast.parse(Path(_argv.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, ast.dump(node)
            imported.add(node.module.partition(".")[0])
        elif isinstance(node, ast.Import):
            imported.update(alias.name.partition(".")[0] for alias in node.names)
    assert imported <= set(sys.stdlib_module_names) | {"__future__"}
    code = (
        "import sys, mirror_teleport; before = set(sys.modules); "
        "import mirror_teleport._argv; "
        "print(sorted(m for m in set(sys.modules) - before if m.startswith('mirror_teleport')))"
    )
    assert _python(code).strip() == "['mirror_teleport._argv']"
    for name in ("_OPTIONS", "_OUTPUTS", "_USAGE", "_HELP", "_UsageError", "_parse_args"):
        assert getattr(cli, name) is getattr(_argv, name), name


def test_config_validation_is_a_module_of_its_own():
    # For the same reason the validation of a decoded config compiles apart
    # from cli, in _config.  cli reads and decodes the file in load_config,
    # which stays its own function: the benchmark's tracer wraps it by name.
    from mirror_teleport import _config, cli

    assert cli.load_config.__module__ == "mirror_teleport.cli"
    assert cli.RunConfig is _config.RunConfig
    for name in ("_number", "_get", "_KNOWN_FIELDS"):
        assert not hasattr(cli, name) and hasattr(_config, name), name


def test_protocol_alone_loads_no_oracle_module():
    assert _loaded_at_exit("import mirror_teleport.protocol", _ORACLES) == "[]"


def test_gates_alone_load_no_numpy():
    # Nor does any module the gates load import numpy when it is imported.
    code = "import mirror_teleport.gates"
    assert _loaded_at_exit(code, ("numpy", *_ORACLES)) == str(list(_ORACLES))


def test_float_library_calls_load_no_numpy():
    # The library's float functions, the optimiser included, compute with
    # Python floats only: a process that makes each call loads no numpy,
    # at an int time too, which they take as its float.
    code = (
        "import mirror_teleport as mt; "
        "c = mt.Couplings.from_rates(2.0, 3.0); "
        "mt.optimal_time(c, 1.0); mt.fidelity_curves(c, (1.0,), 0.3, heterodyne=False); "
        "mt.peak_fidelity(c); "
        "chan = mt.conditional_correlation(c, 1.0, 0.3); "
        "mt.teleport_covariance(chan, mt.CovMatrix2.vacuum()); "
        "mt.physicality_defect(chan); "
        "mt.symplectic_defect(mt.propagator(c, 0.3)); "
        "mt.coeffs_from_propagator(c, 1.0, 0.3); "
        "mt.coeffs_analytic(c, 1.0, 1); mt.coeffs_from_propagator(c, 1.0, 1); "
        "mt.propagator(c, 1); mt.conditional_correlation(c, 1.0, 1); "
        "mt.effective_occupation(c, 1.0, 1); mt.fidelity_curves(c, (1.0,), 1)"
    )
    assert _loaded_at_exit(code, ("numpy",)) == "[]"


@pytest.mark.parametrize("given", [None, "2"], ids=["default", "explicit"])
def test_cli_runs_openblas_single_threaded_unless_told_otherwise(given):
    env = {"OPENBLAS_NUM_THREADS": given} if given else {}
    out = _python(
        "import os, mirror_teleport.cli; print(os.environ['OPENBLAS_NUM_THREADS'])", **env
    )
    assert out.strip() == (given or "1")


def _python(code, **extra):
    """Stdout of ``python -c code`` on this checkout's package, which must exit 0."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


def _module(name):
    return importlib.import_module(f"mirror_teleport.{name}")


def test_lazy_namespace_resolves_every_public_name():
    for name in mirror_teleport.__all__:
        module = mirror_teleport._LAZY.get(name) or next(
            m for m in ("errors", "optomech", "_record") if hasattr(_module(m), name)
        )
        assert getattr(mirror_teleport, name) is getattr(_module(module), name), name
    assert set(mirror_teleport.__all__) <= set(dir(mirror_teleport))
    assert len(set(mirror_teleport.__all__)) == len(mirror_teleport.__all__)
    assert set(mirror_teleport._LAZY) <= set(mirror_teleport.__all__)
    assert "__all__" in dir(mirror_teleport)
    with pytest.raises(AttributeError, match="no_such_name"):
        mirror_teleport.no_such_name
    namespace = {}
    exec("from mirror_teleport import *", namespace)
    for name in mirror_teleport.__all__:
        assert namespace[name] is getattr(mirror_teleport, name), name
    assert mirror_teleport.period is _module("optomech").period
