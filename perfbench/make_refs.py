"""Freeze the output references that run.py checks against.

    python3 perfbench/make_refs.py

Run this only on a commit whose outputs are trusted (references are meant
to change rarely: a change here must be argued in its own right).  It runs
each workload's operation once on this checkout and writes refs/*.json:
the curve.csv SHA-256 and summary values of sweep-large and of the
default seed's param-scan configs, and the verify.txt verdict lines.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run


def _summary_ref(path) -> dict:
    data = json.loads(path.read_text())
    return {
        "couplings": data["couplings"],
        "period_s": data["period_s"],
        "per_nbar": {
            key: {f: entry[f] for f in ("F_max", "F_max_no_heterodyne")}
            for key, entry in data["per_nbar"].items()
        },
    }


def _write(name: str, payload: dict) -> None:
    (run.HERE / "refs" / name).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote refs/{name}")


def main() -> int:
    mt = run.import_package()
    run.RUNS.mkdir(exist_ok=True)
    work = run.RUNS / "make-refs"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        sweep = run.SweepLarge(mt, work, run.DEFAULT_SEED)
        result = run.spawn(run.cli_cmd(sweep.jobs()[0]), work / "sweep")
        if result["rc"] != 0:
            raise SystemExit(f"sweep-large failed: {result['stderr']}")
        _write("sweep-large.json", {
            "curve_sha256": checks.sha256(sweep.out / "curve.csv"),
            **_summary_ref(sweep.out / "summary.json"),
        })

        verify = run.Verify(mt, work, run.DEFAULT_SEED)
        result = run.spawn(run.cli_cmd(verify.jobs()[0]), work / "verify")
        if result["rc"] != 0:
            raise SystemExit(f"verify failed: {result['stderr']}")
        lines = (verify.out / "verify.txt").read_text().splitlines()
        gates = [list(checks.VERIFY_LINE.match(line).group(1, 2, 4)) for line in lines[:-1]]
        _write("verify.json", {"gates": gates, "final": lines[-1]})

        scan = run.ParamScan(mt, work, run.DEFAULT_SEED)
        jobs = scan.jobs()
        result = run.spawn(
            run.child_cmd(jobs, work / "jobs.json", work / "result.json"), work / "scan"
        )
        ops = json.loads((work / "result.json").read_text())["jobs"]
        if result["rc"] != 0 or any(op["rc"] != 0 for op in ops):
            raise SystemExit(f"param-scan failed: {result['stderr']} {ops}")
        _write(f"param-scan-seed{run.DEFAULT_SEED}.json", {
            job["name"]: {
                "config_sha256": checks.sha256(path),
                "curve_sha256": checks.sha256(scan.out / job["name"] / "curve.csv"),
                **_summary_ref(scan.out / job["name"] / "summary.json"),
            }
            for job, path in zip(scan.scan, scan.paths)
        })
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
