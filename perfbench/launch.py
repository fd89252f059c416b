"""Start one command; report its wall time, exit code and its own peak RSS.

Usage: ``python3 perfbench/launch.py REPORT_JSON COMMAND...``

Linux carries a process's resident high-water mark across fork and exec,
so a command started straight from the benchmark runner would report at
least the runner's own peak in ``ru_maxrss``.  Started from this small
interpreter, the command's ``ru_maxrss`` is its own.  The exit code is the
command's.
"""

import json
import os
import sys
import time


def main() -> int:
    report, cmd = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, os.environ)
    _, status, usage = os.wait4(pid, 0)
    end = time.perf_counter()
    code = os.waitstatus_to_exitcode(status)
    with open(report, "w") as fh:
        json.dump({"start": start, "end": end, "exit_code": code,
                   "maxrss_kb": usage.ru_maxrss}, fh)
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main())
