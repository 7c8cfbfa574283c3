"""Run one command; print its wall seconds, peak RSS and exit status as JSON.

    python3 perfbench/spawn.py TIMEOUT_S STDOUT_PATH STDERR_PATH CMD...

Linux charges a freshly exec'd child with its parent's peak resident set,
so a benchmark process holding numpy arrays would inflate every child's
peak_rss_mb.  The benchmark starts measured programs from this small
process instead; it imports only the standard library.  A child still
running after TIMEOUT_S is killed, and always reaped before this exits.
"""

import json
import os
import select
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    timeout, out_path, err_path, cmd = float(argv[0]), argv[1], argv[2], argv[3:]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited = bool(select.select([pidfd], [], [], timeout)[0])
        finally:
            os.close(pidfd)
        if not exited:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "seconds": seconds,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "rc": proc.returncode,
        "error": None if exited else f"killed after {timeout:g} s",
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
