"""Fast check that every workload runs and passes its output checks.

    python3 perfbench/smoke.py

Runs one pass of each workload untraced (default seed, so the frozen
references are checked) and traced (another seed, so the invariants alone
are), and checks each result line against BENCHMARK.json.  Then checks that
the benchmark exits non-zero, printing no result, in a directory that holds
only BENCHMARK.json and the benchmark's own files.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(proc: subprocess.CompletedProcess, expected: list[dict]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"correct={result['correct']} failed={result['failed']}: {proc.stderr[-500:]}")
    units = {m["name"]: m["unit"] for m in expected}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != units:
        problems.append(f"metrics {got} != {units}")
    if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
        problems.append("a metric value is not a number")
    return problems


def main() -> int:
    failed = False
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, seed, expected in ((0, "0", SPEC["end_to_end"]), (1, "1", SPEC["per_layer"])):
            proc = bench(ROOT, "--workload", workload, "--seed", seed,
                         "--seconds", "0.1", "--trace", str(trace))
            problems = check_result(proc, expected)
            failed = failed or bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} trace={trace} seed={seed}"
                  + "".join(f"\n     {p}" for p in problems))

    bare = ROOT / ".perfbench_runs" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "--workload", SPEC["workloads"][0]["name"], "--seed", "0",
                     "--seconds", "1", "--trace", "0")
        refused = proc.returncode != 0 and '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    failed = failed or not refused
    print(f"{'ok  ' if refused else 'FAIL'} refuses to run without the package source")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
