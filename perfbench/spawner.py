"""Start and time commands from a small process of its own.

    python spawner.py        # then one JSON request per line on stdin

A child started by ``vfork``/``fork`` inherits its parent's peak RSS in
``ru_maxrss``, so commands started straight from the benchmark (which
holds numpy and parsed outputs) would all report at least its peak.
This process imports only the standard library and stays small.

Request: ``{"argv": [...], "stdout": path, "stderr": path, "timeout": s}``.
Reply:   ``{"returncode", "wall_s", "cpu_s", "rss_mb", "minflt"}``.
The process exits at end of input; it waits for every child it starts.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def run(argv, stdout_path: str, stderr_path: str, timeout: int) -> dict:
    """Run ``argv`` to completion; its wall time and rusage."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
    signal.alarm(timeout)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    except _Timeout:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        with open(stderr_path, "a", encoding="utf-8") as err:
            err.write(f"timed out after {timeout} s\n")
        return {"returncode": proc.returncode, "wall_s": float(timeout), "cpu_s": 0.0,
                "rss_mb": 0.0, "minflt": 0}
    finally:
        signal.alarm(0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"returncode": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "minflt": usage.ru_minflt}


def main() -> int:
    signal.signal(signal.SIGALRM, _on_alarm)
    for line in sys.stdin:
        req = json.loads(line)
        reply = run(req["argv"], req["stdout"], req["stderr"], req["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
