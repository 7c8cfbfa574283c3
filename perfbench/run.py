"""End-to-end benchmark of the mirror-teleport CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is taken from the
checkout's ``src/`` and nowhere else.  Closed loop, one client: one
operation at a time from one process.  The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
A run record with the environment and every sample goes to
``.perfbench_runs/``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import checks
import scan_configs

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
BUNDLED = SRC / "mirror_teleport" / "data" / "fig2.json"
RUNS = ROOT / ".perfbench_runs"
DEFAULT_SEED = 0
SETUP_REPS = 7
OP_TIMEOUT_S = 60.0
SWEEP_GRID = 200_000


class GuardError(RuntimeError):
    """The checkout under test cannot be measured."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_package():
    """Import mirror_teleport from this checkout, or raise GuardError.

    A copy installed elsewhere would otherwise be measured silently, so the
    child interpreters' import path is checked as well as this process's.
    """
    expected = (SRC / "mirror_teleport").resolve()
    probe = subprocess.run(
        [sys.executable, "-c", "import mirror_teleport; print(mirror_teleport.__file__)"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    found = Path(probe.stdout.strip()).resolve().parent if probe.returncode == 0 else None
    if found != expected:
        raise GuardError(
            f"mirror_teleport must import from {expected}, but child interpreters "
            f"import it from {found or 'nowhere'} ({probe.stderr.strip()[-200:]})"
        )
    sys.path.insert(0, str(SRC))
    import mirror_teleport

    if Path(mirror_teleport.__file__).resolve().parent != expected:
        raise GuardError(f"mirror_teleport imported from {mirror_teleport.__file__}")
    return mirror_teleport


def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def environment() -> dict:
    """Interpreter, numpy, CPU, cache, BLAS threading and source identity."""
    import numpy

    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        caches[f"L{level}-{kind}"] = size
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception as exc:  # show_config's layout differs between numpy versions
        blas = f"unknown ({type(exc).__name__})"
    commit = None
    if (ROOT / ".git").exists():  # a benchmark checkout is usually not a git repository
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "blas": blas,
        "blas_threads_env": {v: os.environ.get(v) for v in thread_vars},
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def spawn(cmd: list[str], log: Path) -> dict:
    """Run one child to completion: wall seconds, peak RSS (MB), exit code.

    The child is started and timed by spawn.py, which keeps this process's
    memory out of the child's peak RSS.
    """
    out, err = log.with_suffix(".out"), log.with_suffix(".err")
    helper = subprocess.run(
        [sys.executable, str(HERE / "spawn.py"), str(OP_TIMEOUT_S), str(out), str(err), *cmd],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=OP_TIMEOUT_S + 60,
    )
    try:
        run = json.loads(helper.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        run = {"seconds": 0.0, "rss_mb": 0.0, "rc": None,
               "error": f"spawn.py failed: {helper.stderr[-300:]}"}
    run["stderr"] = _read(err)[-500:]
    return run


def cli_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "mirror_teleport.cli", *argv]


def child_cmd(jobs: list[list[str]], jobs_path: Path, result: Path, *flags: str):
    jobs_path.write_text(json.dumps(jobs))
    return [sys.executable, str(HERE / "child.py"), str(jobs_path), str(result), *flags]


def _load_ref(name: str):
    path = HERE / "refs" / name
    return json.loads(path.read_text()) if path.exists() else None


class Workload:
    """One workload: its jobs (CLI argument lists), how a pass runs, its checks."""

    name = ""
    in_process = False  # untraced passes run all jobs in child.py, not one CLI call
    nominal_pass_s = 2.0  # one pass plus its checks on the reference host

    def __init__(self, mt, work: Path, seed: int):
        self.mt, self.work, self.seed = mt, work, seed
        self.out = work / "out"
        self.setup_config = BUNDLED

    def jobs(self) -> list[list[str]]:
        raise NotImplementedError

    def check(self, index: int) -> list[str]:
        raise NotImplementedError

    def csv_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.out.rglob("curve.csv"))

    def run_pass(self, host: "HostSpeed") -> dict:
        """One untraced pass: wall, peak RSS and one sample per operation.

        Times are scaled to the reference host (see calibrate.py): a single
        CLI call by the calibration points around it, each job of a child
        pass by the kernel runs the child makes around that job and next to
        them.
        """
        shutil.rmtree(self.out, ignore_errors=True)
        jobs = self.jobs()
        ref = calibrate.REFERENCE_S
        if self.in_process:
            result = self.work / "result.json"
            run = spawn(child_cmd(jobs, self.work / "jobs.json", result, "--calibrate"),
                        self.work / "pass")
            ops, cal = _child_results(result, len(jobs), run)
            if len(cal) == len(ops) + 1:
                # One kernel run is a noisy point, so each job is scaled by the
                # two points around it and one more on either side.
                scales = [ref / statistics.mean(cal[max(0, i - 1):i + 3])
                          for i in range(len(ops))]
                rest = run["seconds"] - sum(op["seconds"] for op in ops) - sum(cal)
                start_up = rest * ref / cal[0]
            else:  # the child died early; the pass has failed anyway
                scales, start_up = [1.0] * len(ops), run["seconds"]
        else:
            run = spawn(cli_cmd(jobs[0]), self.work / "pass")
            ops = [{"seconds": run["seconds"], "rc": run["rc"], "error": run["error"]}]
            scales, start_up, cal = [host.factor()], 0.0, []
        for i, (op, scale) in enumerate(zip(ops, scales)):
            op["raw_s"] = op["seconds"]
            op["seconds"] *= scale
            op["problems"] = _op_problems(op, run) or self.check(i)
        wall = start_up + sum(op["seconds"] for op in ops)
        return {"wall": wall, "raw_wall": run["seconds"], "rss_mb": run["rss_mb"], "ops": ops,
                "calibration": cal}

    def run_child(self, traced: bool) -> dict:
        """One pass in child.py behind one setup call, traced or not."""
        shutil.rmtree(self.out, ignore_errors=True)
        jobs = [["--config", str(self.setup_config), "couplings"], *self.jobs()]
        result, spans = self.work / "result.json", self.work / "spans.json"
        flags = ("--spans", str(spans)) if traced else ()
        run = spawn(child_cmd(jobs, self.work / "jobs.json", result, *flags), self.work / "child")
        ops, _ = _child_results(result, len(jobs), run)
        for i, op in enumerate(ops):
            op["problems"] = _op_problems(op, run) or (self.check(i - 1) if i else [])
        out = {"total": sum(op["seconds"] for op in ops), "ops": ops}
        if traced:
            try:
                out.update(json.loads(spans.read_text()))
            except (OSError, ValueError) as exc:
                ops[0]["problems"].append(f"no spans written: {exc}")
                out.update(spans=[], missing={})
            out["csv_bytes"] = self.csv_bytes()
        return out


def _child_results(result: Path, n: int, run: dict) -> tuple[list[dict], list[float]]:
    """The child's per-job results, padded with failures for jobs it never
    reported, and its calibration points."""
    try:
        data = json.loads(result.read_text())
        result.unlink()
    except (OSError, ValueError):
        data = {"jobs": [], "calibration": []}
    lost = {"seconds": 0.0, "rc": run["rc"],
            "error": run["error"] or f"child exited {run['rc']}: {run['stderr']}"}
    ops = data["jobs"] + [dict(lost) for _ in range(n - len(data["jobs"]))]
    return ops, data["calibration"]


def _op_problems(op: dict, run: dict) -> list[str]:
    if op.get("error"):
        return [op["error"]]
    if op["rc"] != 0 or run["rc"] != 0:
        return [f"exit code {op['rc']} (child {run['rc']}): {run['stderr']}"]
    return []


class SweepLarge(Workload):
    """curve --grid 200000 on the bundled config, as a fresh CLI process."""

    name = "sweep-large"

    def __init__(self, mt, work, seed):
        super().__init__(mt, work, seed)
        self.ref = _load_ref("sweep-large.json")
        self.nbars = [float(v) for v in json.loads(BUNDLED.read_text())["nbar_values"]]

    def jobs(self):
        return [["--config", str(BUNDLED), "--out", str(self.out),
                 "--grid", str(SWEEP_GRID), "curve"]]

    def check(self, index):
        if self.ref is None:
            return ["reference refs/sweep-large.json missing; run make_refs.py"]
        problems = []
        try:
            if checks.sha256(self.out / "curve.csv") != self.ref["curve_sha256"]:
                problems.append("curve.csv differs from the reference bytes")
        except OSError as exc:
            problems.append(f"curve.csv unreadable: {exc}")
        return problems + checks.summary(self.out / "summary.json", self.nbars, self.mt, self.ref)


class Verify(Workload):
    """verify on the bundled config, as a fresh CLI process."""

    name = "verify"

    def __init__(self, mt, work, seed):
        super().__init__(mt, work, seed)
        self.ref = _load_ref("verify.json")

    def jobs(self):
        return [["--config", str(BUNDLED), "--out", str(self.out), "verify"]]

    def check(self, index):
        if self.ref is None:
            return ["reference refs/verify.json missing; run make_refs.py"]
        return checks.verify_report(self.out / "verify.txt", self.ref)


class ParamScan(Workload):
    """Seeded generated configs, all run by cli.main in one child per pass."""

    name = "param-scan"
    in_process = True
    nominal_pass_s = 10.0

    def __init__(self, mt, work, seed):
        super().__init__(mt, work, seed)
        self.scan = scan_configs.generate(seed)
        self.paths = scan_configs.write(self.scan, work / "configs")
        self.setup_config = self.paths[0]
        self.refs = None
        if seed == DEFAULT_SEED:
            self.refs = _load_ref(f"param-scan-seed{DEFAULT_SEED}.json") or {}

    def jobs(self):
        return [
            ["--config", str(path), "--out", str(self.out / job["name"]), "curve"]
            + (["--no-heterodyne"] if job["no_heterodyne"] else [])
            for job, path in zip(self.scan, self.paths)
        ]

    def nbars(self, index: int) -> list[float]:
        cfg = self.scan[index]["config"]
        if "nbar_values" in cfg:
            return [float(v) for v in cfg["nbar_values"]]
        mirror = cfg["mirror_freq_rad_per_s"]
        return [self.mt.thermal_occupation(float(t), mirror) for t in cfg["temperatures_k"]]

    def check(self, index):
        job, out = self.scan[index], self.out / self.scan[index]["name"]
        nbars = self.nbars(index)
        problems, maxima = checks.curve_maxima(
            out / "curve.csv", nbars, job["config"]["grid_points"] + 1
        )
        ref = None
        if self.refs is not None:
            ref = self.refs.get(job["name"])
            if ref is None or ref["config_sha256"] != checks.sha256(self.paths[index]):
                return problems + [f"{job['name']}: no reference for this config; run make_refs.py"]
            if not problems and checks.sha256(out / "curve.csv") != ref["curve_sha256"]:
                problems.append(f"{job['name']}: curve.csv differs from the reference bytes")
        field = "F_max_no_heterodyne" if job["no_heterodyne"] else "F_max"
        return problems + checks.summary(out / "summary.json", nbars, self.mt, ref, maxima, field)


WORKLOADS = {w.name: w for w in (SweepLarge, Verify, ParamScan)}


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with >= 10 samples above it."""
    xs = sorted(samples)
    n = len(xs)
    if n > 10:
        return xs[n - 11], 100.0 * (n - 10) / n, n
    return xs[-1], 100.0, n


class HostSpeed:
    """Calibration points around each operation (see calibrate.py)."""

    def __init__(self):
        self.points = [calibrate.point_seconds()]

    def factor(self) -> float:
        """Scale for the operation that just ended; call right after it."""
        self.points.append(calibrate.point_seconds())
        return calibrate.REFERENCE_S / (0.5 * (self.points[-2] + self.points[-1]))


def run_setup(workload: Workload, reps: int, host: HostSpeed | None = None) -> list[dict]:
    """Fresh `couplings` processes on the workload's first config."""
    samples = []
    for _ in range(reps):
        run = spawn(cli_cmd(["--config", str(workload.setup_config), "couplings"]),
                    workload.work / "setup")
        run["factor"] = host.factor() if host else 1.0
        run["problems"] = _op_problems(run, run) or checks.couplings_stdout(
            _read(workload.work / "setup.out"))
        samples.append(run)
    return samples


def pass_count(workload: Workload, seconds: float) -> int:
    """Passes in one untraced run: as many as fill ``seconds`` on the
    reference host.

    The count is fixed for a given --seconds, so the parent and a change
    report wall_tail_s at the same percentile over the same number of
    operations, whichever is faster.
    """
    return max(1, round(seconds / workload.nominal_pass_s))


def measure(workload: Workload, seconds: float) -> tuple[dict, dict]:
    """Untraced run: setup samples, then a fixed number of passes, cut short
    only if they take more than twice ``seconds``."""
    run_setup(workload, 1)  # warm the bytecode and page caches, unmeasured
    host = HostSpeed()
    setup = run_setup(workload, SETUP_REPS, host)
    passes = []
    start = time.perf_counter()
    for _ in range(pass_count(workload, seconds)):
        if passes and time.perf_counter() - start > 2 * seconds:
            break
        passes.append(workload.run_pass(host))
    ops = [op for p in passes for op in p["ops"]]
    ok = [op for op in ops if not op["problems"]]
    tail_s, pct, n = tail([op["seconds"] for op in ops])
    metrics = {
        "setup_s": (statistics.median(s["seconds"] * s["factor"] for s in setup), "s"),
        "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
        "wall_tail_s": (tail_s, "s"),
        "ops_per_s": (len(ok) / sum(p["wall"] for p in passes), "1/s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
    }
    failures = [p for op in setup + ops for p in op["problems"][:1]]
    record = {
        "raw": {
            "setup_s": statistics.median(s["seconds"] for s in setup),
            "wall_s": statistics.median(p["raw_wall"] for p in passes),
        },
        "calibration_points_s": host.points,
        "setup_samples_s": [s["seconds"] for s in setup],
        "setup_scales": [s["factor"] for s in setup],
        "passes": [{"wall_s": p["wall"], "raw_wall_s": p["raw_wall"], "rss_mb": p["rss_mb"],
                    "op_s": [op["seconds"] for op in p["ops"]],
                    "raw_op_s": [op["raw_s"] for op in p["ops"]],
                    "calibration_s": p["calibration"]} for p in passes],
        "wall_tail": {"percentile": pct, "samples": n},
        "fail_frac": len(failures) / (len(setup) + len(ops)),
        "attempted": len(setup) + len(ops),
    }
    return metrics, dict(record, failures=failures)


def trace(workload: Workload, seconds: float) -> tuple[dict, dict]:
    """Traced run: traced and untraced child passes, alternating, at least
    two of each.  The program is deterministic, so every count a traced pass
    reports must repeat exactly in the others; a count that does not is a
    failure."""
    import tracer

    run_setup(workload, 1)
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for on in order:
            (traced if on else plain).append(workload.run_child(on))
    per_pass = []
    for t in traced:
        m = tracer.layer_metrics(t["spans"])
        m["cli.csv_bytes"] = t["csv_bytes"]
        m["trace.unattributed_frac"] = tracer.unattributed_frac(t["spans"])
        per_pass.append(m)
    metrics = {}
    mismatched = []
    for name, unit in tracer.UNITS.items():
        if name == "trace.overhead_frac":  # pairs ran back to back, so share host speed
            value = statistics.median(t["total"] / p["total"] for t, p in zip(traced, plain)) - 1.0
        elif name in tracer.COUNTS:
            value = per_pass[0][name]
            if any(p[name] != value for p in per_pass):
                mismatched.append(name)
        else:
            value = statistics.median(p[name] for p in per_pass)
        metrics[name] = (value, unit)
    ops = [op for run in plain + traced for op in run["ops"]]
    failures = [p for op in ops for p in op["problems"][:1]]
    failures += [f"traced count {name} differs between passes: "
                 f"{[p[name] for p in per_pass]}" for name in mismatched]
    record = {
        "traced_totals_s": [t["total"] for t in traced],
        "untraced_totals_s": [p["total"] for p in plain],
        "missing": tracer.missing_metrics(traced[-1]["missing"]),
        "missing_functions": traced[-1]["missing"],
        "counts_not_repeated": mismatched,
        "fail_frac": len(failures) / (len(ops) + len(mismatched)),
        "attempted": len(ops) + len(mismatched),
        "failures": failures,
    }
    (RUNS / f"{workload.name}-seed{workload.seed}-spans.json").write_text(
        json.dumps({"names": ["name", "start", "end", "parent", "attrs"],
                    "spans": traced[-1]["spans"]})
    )
    return metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        mt = import_package()
    except (GuardError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)
    work = RUNS / f"work-{os.getpid()}"
    work.mkdir()
    try:
        workload = WORKLOADS[args.workload](mt, work, args.seed)
        run = trace if args.trace else measure
        metrics, record = run(workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "metrics": {k: v for k, (v, _) in metrics.items()}, **record}
    record_path = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))
    for failure in record["failures"][:5]:
        print(f"perfbench: failed: {failure}", file=sys.stderr)
    note = (f"wall_tail_s is p{record['wall_tail']['percentile']:.1f} of "
            f"{record['wall_tail']['samples']} samples" if "wall_tail" in record
            else f"missing: {sorted(record['missing']) or 'none'}")
    print(f"perfbench {args.workload} seed {args.seed}: {record['attempted']} ops, "
          f"{len(record['failures'])} failed; {note}; record {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
