"""Traced launcher for one cold gkmflag command.

    python3 perfbench/launch.py SPAWN_TIME TRACE_OUT JOB_ID -- ARGS...

SPAWN_TIME is the wall-clock time (time.time()) at which the caller started
this process.  The launcher imports gkmflag.cli, records how long the start
took, wraps gkmflag's public functions (tracer.install), runs
``gkmflag.cli.main(ARGS)`` and writes the spans and counters to TRACE_OUT.
The exit code is the command's.
"""

import os
import sys
import time


def main():
    spawn, out, job = float(sys.argv[1]), sys.argv[2], int(sys.argv[3])
    if sys.argv[4] != "--":
        sys.stderr.write(__doc__)
        return 2
    import gkmflag.cli

    start_s = time.time() - spawn
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracer

    tr = tracer.Tracer()
    tracer.install(tr)
    tr.job = job
    tr.enabled = True
    try:
        return gkmflag.cli.main(sys.argv[5:])
    finally:
        tr.enabled = False
        tr.dump(out, {"job": job, "start_s": start_s})


if __name__ == "__main__":
    sys.exit(main())
