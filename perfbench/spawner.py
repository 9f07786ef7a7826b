"""Start and time child processes from a process that stays small.

A child's peak RSS as `wait4` reports it also counts the memory high-water
mark of the process that started it, because the address space replaced at
exec is the starter's. The benchmark itself grows while it checks outputs,
so every timed child is started from this small process instead.

Protocol: one JSON request per line on stdin, {"argv", "env", "cwd", "log",
"timeout"}; one JSON reply per line on stdout, {"code", "wall_s", "rss_mb"}.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    """Run one child to completion, killing it after request["timeout"] s."""
    start = time.perf_counter()
    with open(request["log"], "ab") as err:
        proc = subprocess.Popen(
            request["argv"], cwd=request["cwd"], env=request["env"],
            stdout=subprocess.DEVNULL, stderr=err,
        )
    timer = threading.Timer(request["timeout"], proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0}


def main():
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
