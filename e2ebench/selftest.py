#!/usr/bin/env python3
"""Smoke self-test of the end-to-end benchmark.

Run from the root of the repository:

    python3 e2ebench/selftest.py

Checks that
  - both correctness checks fire: the engine quality band rejects runs
    that committed unmatched speculative states, and the served-result
    check rejects a corrupted result blob (e2ebench --selftest);
  - every workload, untraced and traced, prints a result line whose
    metrics are exactly the end-to-end or per-layer metrics that
    BENCHMARK.json declares, each with its declared unit.
Exits non-zero on the first failed check.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def fail(message):
    print("selftest: FAIL: " + message)
    sys.exit(1)


def run(args):
    result = subprocess.run([sys.executable, RUN] + args,
                            stdout=subprocess.PIPE, text=True, timeout=900)
    if result.returncode != 0:
        fail("run.py %s exited with %d" % (" ".join(args), result.returncode))
    return result.stdout


def check_result(line, declared, label):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: unexpected keys %s" % (label, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0:
        fail("%s: outputs reported incorrect" % label)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("%s: attempted must be a positive whole number" % label)
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        fail("%s: metrics differ from BENCHMARK.json: %s" %
             (label, sorted(set(metrics) ^ set(declared))))
    for name, entry in metrics.items():
        if entry.get("unit") != declared[name]:
            fail("%s: %s has unit %r, declared %r" %
                 (label, name, entry.get("unit"), declared[name]))
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("%s: %s is not a finite number" % (label, name))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    print(run(["--selftest"]).strip())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in (("0", end_to_end), ("1", per_layer)):
            label = "%s --trace %s" % (workload, trace)
            out = run(["--workload", workload, "--seed", "7",
                       "--seconds", "1", "--trace", trace])
            check_result(out.strip().splitlines()[-1], declared, label)
            print("%s: %d metrics, all declared, with units" %
                  (label, len(declared)))
    print("selftest: ok")


if __name__ == "__main__":
    main()
