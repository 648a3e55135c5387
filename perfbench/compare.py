#!/usr/bin/env python3
"""Compares two sets of saved benchmark runs, refusing across host contexts.

    python3 perfbench/compare.py BEFORE.txt AFTER.txt

Each file holds the concatenated standard output of one or more runs of
perfbench/run.py (each run prints a `context {...}` line and ends with its
JSON result). Runs are comparable only when everything that sets the speed
of the host and the build matches; otherwise this exits with status 2.
For each metric it prints both medians and the relative change.
"""
import json
import statistics
import sys

# Context keys that must match; seed, source_rev and the VS_LOG the
# environment asked for may differ.
COMPARABLE = ("workload", "trace", "seconds", "nproc", "cpu_model", "compiler",
              "build_type", "sweep_workers", "vs_log")


def load(path):
    contexts, results = [], []
    with open(path) as f:
        for line in f:
            if line.startswith("context "):
                contexts.append(json.loads(line[len("context "):]))
            elif line.startswith("{"):
                results.append(json.loads(line))
    if not contexts or len(contexts) != len(results):
        sys.exit("compare: %s holds %d contexts and %d results"
                 % (path, len(contexts), len(results)))
    return contexts, results


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    (ctx_a, res_a), (ctx_b, res_b) = load(sys.argv[1]), load(sys.argv[2])
    reference = ctx_a[0]
    for ctx in ctx_a + ctx_b:
        for key in COMPARABLE:
            if ctx.get(key) != reference.get(key):
                print("refusing to compare: %s differs (%r vs %r)"
                      % (key, reference.get(key), ctx.get(key)))
                return 2
    print("%-32s %14s %14s %9s" % ("metric", "before", "after", "change"))
    for name, first in res_a[0]["metrics"].items():
        a = statistics.median(r["metrics"][name]["value"] for r in res_a)
        b = statistics.median(r["metrics"][name]["value"] for r in res_b)
        change = "%+8.2f%%" % (100 * (b - a) / a) if a else "      n/a"
        print("%-32s %14.6g %14.6g %s %s" % (name, a, b, change, first["unit"]))
    for label, results in (("before", res_a), ("after", res_b)):
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        correct = all(r["correct"] for r in results)
        print("%s: %d runs, correct=%s, failed %d of %d"
              % (label, len(results), correct, failed, attempted))
    return 0


if __name__ == "__main__":
    sys.exit(main())
