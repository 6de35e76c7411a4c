#!/usr/bin/env python3
"""Self-test of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py

Run from the repository root (about a minute).  Checks, for every workload
in BENCHMARK.json and for sink-dense-warm (which perfbench runs by name
but BENCHMARK.json does not list):

  * the end-to-end run prints every end-to-end metric by name with its
    unit, both on a "metric" line and in the JSON result, and is correct;
  * the traced run prints every per-layer metric with its unit;
  * a deliberately wrong expected output (--break-oracle) is caught, so the
    correctness oracle is not vacuous;

and on cold-oneshot and sink-dense-warm that span self-times cover at
least 95% of op wall time.  Exits non-zero on the first failed check.
"""

import json
import re
import subprocess
import sys

UNLISTED_WORKLOADS = ("sink-dense-warm",)
COVERAGE_WORKLOADS = ("cold-oneshot", "sink-dense-warm")
MIN_COVERAGE_PCT = 95.0


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def run(bench, workload, trace, *extra):
    cmd = bench["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                              "--trace", str(trace), "--tiny", *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        fail(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_metrics(workload, specs, lines, result):
    printed = {}
    for line in lines:
        m = re.match(r"metric (\S+)\s+(\S+) (\S+)$", line)
        if m:
            printed[m.group(1)] = m.group(3)
    got = result["metrics"]
    if set(got) != {s["name"] for s in specs}:
        fail(f"{workload}: JSON metrics {sorted(got)} != {sorted(s['name'] for s in specs)}")
    for s in specs:
        if got[s["name"]]["unit"] != s["unit"]:
            fail(f"{workload}: {s['name']} unit {got[s['name']]['unit']} != {s['unit']}")
        if printed.get(s["name"]) != s["unit"]:
            fail(f"{workload}: no 'metric {s['name']} ... {s['unit']}' line")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for name in [w["name"] for w in bench["workloads"]] + list(UNLISTED_WORKLOADS):
        lines, res = run(bench, name, 0)
        check_metrics(name, bench["end_to_end"], lines, res)
        if not any(l.startswith("metric failed_frac ") for l in lines):
            fail(f"{name}: failed_frac not printed")
        if not res["correct"] or res["failed"] != 0:
            fail(f"{name}: end-to-end run not correct: {res['failed']} failed")
        print(f"selftest: {name}: end-to-end metrics ok ({res['attempted']} ops)")

        lines, res = run(bench, name, 1)
        check_metrics(name, bench["per_layer"], lines, res)
        if not res["correct"]:
            fail(f"{name}: traced run not correct")
        coverage = 100.0 - res["metrics"]["share.unattributed_pct"]["value"]
        if name in COVERAGE_WORKLOADS and coverage < MIN_COVERAGE_PCT:
            fail(f"{name}: spans cover only {coverage:.2f}% of op wall time")
        print(f"selftest: {name}: per-layer metrics ok, span coverage {coverage:.2f}%")

        _, res = run(bench, name, 0, "--break-oracle")
        if res["correct"] or res["failed"] < 1:
            fail(f"{name}: a wrong expected output went unnoticed")
        print(f"selftest: {name}: broken expectation caught ({res['failed']} failed)")
    print("selftest: ok")


if __name__ == "__main__":
    main()
