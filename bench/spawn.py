"""Process launcher of the benchmark.

    python3 bench/spawn.py

Reads one JSON request per line on stdin ({"argv", "timeout", "stdout",
"stderr"}), runs the command to its end with its output sent to the two
files, and answers with one JSON line: exit code, wall time, peak RSS and
whether it was killed at the timeout. It ends when stdin closes.

Linux counts the memory of the spawning process in a child's peak RSS as
wait4 reports it, so children are spawned from this small process and not
from the benchmark driver, whose memory grows during a run.
"""

import json
import os
import select
import signal
import subprocess
import sys
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            timed_out = not select.select([pidfd], [], [], request["timeout"])[0]
            if timed_out:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            # wait4 reaps this child alone, so the RSS is not a running maximum
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall, "rss_kb": usage.ru_maxrss, "timed_out": timed_out}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
