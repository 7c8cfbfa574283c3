"""Run a list of CLI invocations in one interpreter, timing each.

    python3 perfbench/child.py JOBS.json RESULT.json [--spans SPANS.json | --calibrate]

JOBS.json is a JSON list of argument lists for ``mirror_teleport.cli.main``.
The package is imported once, before the first job, so import time is left
out of the per-job seconds.  With --spans the package's functions are
traced (see tracer.py) and the spans are written there at the end.  With
--calibrate a calibration kernel (see calibrate.py) is timed before the
first job and after each job.  RESULT.json gets {"jobs": [{seconds, rc,
error}, ...], "calibration": [seconds, ...]}.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    jobs = json.loads(Path(argv[0]).read_text())
    from mirror_teleport import cli

    tracer = kernel = None
    if argv[2:3] == ["--spans"]:
        import tracer as tracing

        tracer = tracing.install()
    elif argv[2:3] == ["--calibrate"]:
        from calibrate import kernel_seconds as kernel
    calibration = [kernel()] if kernel else []
    results = []
    for job in jobs:
        start = time.perf_counter()
        try:
            rc, error = cli.main(job), None
        except Exception as exc:  # one failing job must not end the pass
            rc, error = None, f"{type(exc).__name__}: {exc}"
        results.append({"seconds": time.perf_counter() - start, "rc": rc, "error": error})
        if kernel:
            calibration.append(kernel())
    Path(argv[1]).write_text(json.dumps({"jobs": results, "calibration": calibration}))
    if tracer is not None:
        Path(argv[3]).write_text(
            json.dumps({"spans": tracer.spans, "missing": tracer.missing})
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
