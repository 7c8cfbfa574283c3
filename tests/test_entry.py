"""The process entry, ``cli.run``, against ``cli.main`` in-process."""

import errno
import gc
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mirror_teleport import cli

SRC = Path(cli.__file__).resolve().parent.parent
ROOT = SRC.parent


def _run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE):
    """Run ``cmd`` on this checkout's package, its stdout buffered as by
    default; stdout and stderr are captured unless given."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(cmd, env=env, stdout=stdout, stderr=stderr, timeout=60)


def _python(code, *argv):
    return _run([sys.executable, "-c", code, *argv])


def _entry(argv, stdout=subprocess.PIPE):
    """``python -m mirror_teleport.cli argv``."""
    return _run([sys.executable, "-m", "mirror_teleport.cli", *argv], stdout)


@pytest.mark.parametrize("command", ["couplings", "readout", "verify"])
def test_entry_prints_what_main_prints(capsys, command):
    assert cli.main([command]) == 0
    captured = capsys.readouterr()
    run = _entry([command])
    assert run.returncode == 0, run.stderr
    assert run.stdout.decode() == captured.out
    assert run.stderr.decode() == captured.err == ""


@pytest.mark.parametrize("flags", [[], ["--no-heterodyne"]])
def test_entry_writes_what_main_writes(tmp_path, flags):
    # --grid 9000's 9,001 rows are three chunks, the last a partial one.
    argv = ["--grid", "9000", *flags, "curve"]
    assert cli.main(["--out", str(tmp_path / "main"), *argv]) == 0
    run = _entry(["--out", str(tmp_path / "entry"), *argv])
    assert run.returncode == 0, run.stderr
    for name in ("curve.csv", "summary.json"):
        assert (tmp_path / "entry" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()


@pytest.mark.parametrize(
    "argv, code",
    [(["--help"], 0), (["--grid", "abc", "curve"], 1), (["bogus"], 1), (["curve"], 3)],
)
def test_entry_exits_with_mains_code(argv, code):
    assert _entry(argv).returncode == code == cli.main(argv)


def test_main_flushes_neither_stream(monkeypatch):
    # An in-process caller that runs many commands pays no write per call:
    # run() flushes, once, before the process exits.
    flushed = []

    class Stream(io.StringIO):
        def flush(self):
            flushed.append(self)

    monkeypatch.setattr(sys, "stdout", Stream())
    monkeypatch.setattr(sys, "stderr", Stream())
    assert cli.main(["couplings"]) == 0
    assert cli.main(["bogus"]) == 1
    assert sys.stdout.getvalue() and sys.stderr.getvalue()
    assert flushed == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_final_flush_exits_3():
    with open("/dev/full", "wb") as full:
        run = _entry(["couplings"], stdout=full)
    assert run.returncode == 3
    assert run.stderr.decode().startswith("i/o error:")


#: The files each command writes in --out.
_FILES = {
    "couplings": {"couplings.json"},
    "curve": {"curve.csv", "summary.json"},
    "verify": {"verify.txt"},
}
#: Every command, with the files it writes: readout writes none.
_OUTPUTS = {**_FILES, "readout": set()}


@pytest.mark.parametrize("command", sorted(_FILES))
def test_failed_write_leaves_none_of_the_commands_files(tmp_path, command):
    # A write that fails part way, here at a 200-byte limit on the size of
    # the files the process writes, exits 3 and leaves none of the
    # command's files in --out, not even those an earlier run left.  Other
    # files there stay.
    resource = pytest.importorskip("resource")
    out = tmp_path / "out"
    assert cli.main(["--out", str(out), command]) == 0
    (out / "notes.txt").write_text("kept\n")
    assert set(os.listdir(out)) == _FILES[command] | {"notes.txt"}
    hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
    run = _python(
        f"import resource; resource.setrlimit(resource.RLIMIT_FSIZE, (200, {hard})); "
        "from mirror_teleport.cli import run; run()",
        "--out", str(out), command,
    )
    assert run.returncode == 3, run.stderr
    assert run.stderr.decode().startswith("i/o error:")
    assert os.listdir(out) == ["notes.txt"]


@pytest.mark.parametrize("command", sorted(_FILES))
def test_unwritable_error_message_still_exits_3(tmp_path, command):
    # Under a zero-byte limit on the size of the files the process writes,
    # with stderr a regular file, neither the command's file nor the
    # "i/o error" message can be written (Python ignores SIGXFSZ, so each
    # write fails with EFBIG).  The message is best effort: the process
    # still exits 3, and leaves none of the command's files in --out.
    resource = pytest.importorskip("resource")
    out, err = tmp_path / "out", tmp_path / "stderr.txt"
    hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
    code = (
        f"import resource; resource.setrlimit(resource.RLIMIT_FSIZE, (0, {hard})); "
        "from mirror_teleport.cli import run; run()"
    )
    with open(err, "wb") as stderr:
        run = _run([sys.executable, "-c", code, "--out", str(out), command], stderr=stderr)
    assert run.returncode == 3, err.read_text()
    assert err.read_bytes() == b""
    assert os.listdir(out) == []


def _closing(fd, cmd):
    """``cmd`` started by a shell with descriptor ``fd`` closed."""
    return ["sh", "-c", f'exec "$0" "$@" {fd}>&-', *cmd]


@pytest.mark.parametrize("command", sorted(_OUTPUTS))
def test_closed_stdout_exits_3(tmp_path, command):
    # Started with descriptor 1 closed, sys.stdout is None and print would
    # write nothing: the command's output cannot be written, so it fails
    # before it runs, and leaves none of its files, an earlier run's too.
    out = tmp_path / "out"
    assert cli.main(["--out", str(out), command]) == 0
    cmd = [sys.executable, "-m", "mirror_teleport.cli", "--out", str(out), command]
    run = _run(_closing(1, cmd))
    assert run.returncode == 3, run.stderr
    assert run.stderr == b"i/o error: cannot write the output: stdout is closed\n"
    assert os.listdir(out) == []


#: What a child runs: an interrupt raised from a patched function at one
#: point, a limit on the size of the files it writes, then the process
#: entry.
_CHILD = """\
import sys
from mirror_teleport import cli
limit, point = {limit!r}, {point!r}

def interrupt(*args, **kwargs):
    raise KeyboardInterrupt

if point == "config":
    from mirror_teleport import _config
    _config._number = interrupt
elif point == "table":  # the third of --grid 20000's five chunks
    from mirror_teleport import protocol
    kernel, chunks = protocol.fidelity_curves, []
    def fidelity_curves(*args, **kwargs):
        chunks.append(None)
        return interrupt() if len(chunks) == 3 else kernel(*args, **kwargs)
    protocol.fidelity_curves = fidelity_curves
elif point == "gates":  # after the first four
    from mirror_teleport import gates
    every = gates.run
    def run(*args):
        for i, gate in enumerate(every(*args)):
            if i == 4:
                interrupt()
            yield gate
    gates.run = run
if limit is not None:
    import resource
    hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
    resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))
sys.argv[0] = "mirror-teleport"
cli.run()
"""

#: Limits on the size of the files a child writes, its stderr among them,
#: in bytes: below and above the length of its one error line.
_LIMITS = (0, 1, 40, 200)


def _io_error(errnum):
    return f"i/o error: [Errno {errnum}] {os.strerror(errnum)}"


def _stream_cases():
    """(command, stdout, stderr, limit) for each child with a failing
    stream: stdout on /dev/full or closed, stderr closed, or stderr a file
    under a size limit, two of ``_LIMITS`` for each command."""
    for i, command in enumerate(sorted(_OUTPUTS)):
        yield command, "full", "pipe", None
        yield command, "closed", "pipe", None
        yield command, "pipe", "closed", None
        yield command, "full", "closed", None
        for limit in (_LIMITS[i % 4], _LIMITS[(i + 1) % 4]):
            yield command, "pipe", "file", limit


def _expected(command, stdout, limit):
    """The exit code and the one stderr line, or None, of a stream case."""
    if stdout == "closed":
        return 3, "i/o error: cannot write the output: stdout is closed"
    if stdout == "full":
        return 3, _io_error(errno.ENOSPC)
    if limit is not None and _OUTPUTS[command]:
        return 3, _io_error(errno.EFBIG)
    return 0, None


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failing_streams_and_interrupts_keep_the_exit_code_contract(tmp_path):
    # Each command runs through run() in a child, one child at a time (28
    # in all), with a stream that fails or an interrupt at one point.  A
    # child that fails exits with its code and leaves none of the
    # command's files in --out, not even those an earlier run left; other
    # files there stay.  A writable stderr holds one line, or what of it
    # fits under the limit.  An interrupt takes the exit that Python gives
    # an uncaught one.
    pytest.importorskip("resource")
    interrupted = _python("raise KeyboardInterrupt").returncode
    assert interrupted != 0
    cases = [(*case, None) for case in _stream_cases()] + [
        ("couplings", "pipe", "pipe", None, "config"),
        ("curve", "pipe", "pipe", None, "table"),
        ("verify", "pipe", "pipe", None, "gates"),
    ]
    for n, (command, stdout, stderr, limit, point) in enumerate(cases):
        out, err = tmp_path / f"out{n}", tmp_path / f"err{n}"
        out.mkdir()
        for name in _OUTPUTS[command] | {"notes.txt"}:
            (out / name).write_text("earlier\n")
        argv = ["--out", str(out), *(["--grid", "20000"] if point else []), command]
        cmd = [sys.executable, "-c", _CHILD.format(limit=limit, point=point), *argv]
        for fd, state in ((1, stdout), (2, stderr)):
            if state == "closed":
                cmd = _closing(fd, cmd)
        with open("/dev/full", "wb") as full, open(err, "wb") as errfile:
            run = _run(
                cmd,
                stdout=full if stdout == "full" else subprocess.PIPE,
                stderr=errfile if stderr == "file" else subprocess.PIPE,
            )
        case = (command, stdout, stderr, limit, point)
        if point:
            assert run.returncode == interrupted, (case, run.stderr)
            assert run.stderr.endswith(b"KeyboardInterrupt\n"), case
            left = set()
        else:
            code, line = _expected(command, stdout, limit)
            assert run.returncode == code, (case, run.stderr)
            written = b"" if line is None else (line + "\n").encode()
            if stderr == "file":
                assert err.read_bytes() == written[:limit], case
            elif stderr == "pipe":
                assert run.stderr == written, case
            left = _OUTPUTS[command] if code == 0 else set()
        assert set(os.listdir(out)) == left | {"notes.txt"}, case
        if left:
            assert all((out / name).read_text() != "earlier\n" for name in left), case


_HOOKED = (
    "import atexit, runpy, sys; atexit.register(print, 'teardown'); "
    "sys.argv = ['mirror-teleport', 'couplings']; "
)


def test_entry_skips_teardown():
    run = _python(_HOOKED + "runpy.run_module('mirror_teleport.cli', run_name='__main__')")
    assert run.returncode == 0, run.stderr
    assert run.stdout.decode().endswith("regime: all assumptions hold\n")


def test_escaping_exception_takes_the_normal_exit():
    code = _HOOKED + "from mirror_teleport import cli; cli.main = lambda: 1 / 0; cli.run()"
    run = _python(code)
    assert run.returncode == 1
    assert run.stdout == b"teardown\n"
    assert "ZeroDivisionError" in run.stderr.decode()


def test_main_leaves_the_process_to_its_caller(tmp_path, monkeypatch):
    # main returns, twice over, and leaves the garbage collector as it was.
    def refuse(code):
        raise AssertionError(f"main called os._exit({code})")

    monkeypatch.setattr(os, "_exit", refuse)
    state = gc.isenabled(), gc.get_freeze_count()
    for run in ("first", "second"):
        assert cli.main(["--out", str(tmp_path / run), "--grid", "100", "curve"]) == 0
        assert cli.main(["verify"]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == state
    for name in ("curve.csv", "summary.json"):
        assert (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes()


def test_console_script_is_the_process_entry():
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]")[1]
    assert re.match(r'\s*mirror-teleport = "mirror_teleport\.cli:run"\n', scripts)
