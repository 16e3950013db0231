"""Run one command; write its wall and steal time, peak RSS and status as JSON.

    python3 -I perfbench/spawn.py RESULT_JSON TIMEOUT_S -- COMMAND...

On Linux a process's peak RSS starts from its parent's peak at the moment
it was spawned, so the benchmark's own process, which holds the instance and
the oracle, must not be the parent of a measured pass: this small
interpreter is. The token ``{spawned}`` in COMMAND becomes
``time.perf_counter()`` read just before the spawn; the clock is
system-wide, so the child can measure its own start-up.

The benchmark runs on one CPU (see run.py). ``steal_s`` is the time the
hypervisor held that CPU away from the guest while the command ran, read
from the CPU's ``steal`` column in /proc/stat (0 where it cannot be read).
"""

import json
import os
import subprocess
import sys
import threading
import time


def stolen_s() -> float:
    """Cumulative steal time, in seconds, of the CPU this process runs on.

    The process must be allowed on exactly one CPU; otherwise, or when
    /proc/stat cannot be read, this returns 0.0.
    """
    cpus = os.sched_getaffinity(0)
    if len(cpus) != 1:
        return 0.0
    label = f"cpu{next(iter(cpus))}"
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                fields = line.split()
                if fields and fields[0] == label and len(fields) > 8:
                    return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except OSError:
        pass
    return 0.0


def main() -> int:
    result_path, timeout = sys.argv[1], float(sys.argv[2])
    if sys.argv[3] != "--":
        raise SystemExit("usage: spawn.py RESULT_JSON TIMEOUT_S -- COMMAND...")
    steal_before = stolen_s()
    start = time.perf_counter()
    argv = [arg.replace("{spawned}", repr(start)) for arg in sys.argv[4:]]
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    steal = stolen_s() - steal_before
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall, "steal_s": steal, "maxrss_kib": usage.ru_maxrss,
                   "status": proc.returncode, "spawned": start}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
