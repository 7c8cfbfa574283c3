import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mirror_teleport

SRC = Path(__file__).resolve().parent.parent / "src"

#: Runs the CLI as `python -m mirror_teleport.cli` would, then reports at
#: exit whether numpy was ever imported.
_CLI = (
    "import runpy; sys.argv = ['mirror-teleport', {command!r}]; "
    "runpy.run_module('mirror_teleport.cli', run_name='__main__')"
)


@pytest.mark.parametrize(
    "code",
    [
        "import mirror_teleport",
        _CLI.format(command="couplings"),
        _CLI.format(command="readout"),
    ],
    ids=["import", "couplings", "readout"],
)
def test_numpy_free_paths_never_import_numpy(code):
    probe = (
        "import atexit, sys; "
        "atexit.register(lambda: print('numpy loaded:', 'numpy' in sys.modules)); "
        + code
    )
    assert _python(probe).splitlines()[-1] == "numpy loaded: False"


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
            m for m in ("errors", "optomech", "readout") if hasattr(_module(m), name)
        )
        assert getattr(mirror_teleport, name) is getattr(_module(module), name), name
    assert set(mirror_teleport.__all__) <= set(dir(mirror_teleport))
    assert "__all__" in dir(mirror_teleport)
    with pytest.raises(AttributeError, match="no_such_name"):
        mirror_teleport.no_such_name
    namespace = {}
    exec("from mirror_teleport import *", namespace)
    for name in mirror_teleport.__all__:
        assert namespace[name] is getattr(mirror_teleport, name), name
    assert mirror_teleport.period is _module("dynamics").period is _module("optomech").period
