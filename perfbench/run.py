#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/perfbench.exe with dune
from the sources in this checkout (dune's shared cache disabled, so
nothing is written outside it), then runs it with the same arguments.  The
benchmark's last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it print each metric by
name with its unit.  Run artifacts (traces, layer tables, snapshots) go to
.perfbench/ in the checkout.

Exits non-zero without printing a result if the build fails (e.g. in a
directory that holds only the benchmark) or the run does not finish.
"""

import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kw):
    """Run cmd to completion; on timeout or SIGTERM kill it and wait for it."""
    proc = subprocess.Popen(cmd, **kw)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/perfbench.exe"]
    try:
        code = run(build, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return 1
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    code = run([EXE] + sys.argv[1:], RUN_TIMEOUT_S)
    if code is None:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
