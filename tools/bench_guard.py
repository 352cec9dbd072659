#!/usr/bin/env python3
"""Work-counter regression guard for the benchmark suite.

Runs a Google-Benchmark binary in JSON mode and fails if any counter
leaves its budget from a budgets file. Budgets are keyed by benchmark
name (exact match against the JSON "name" field, i.e. including any
"/arg" suffix) and map counter names to either an inclusive upper bound
(a bare number) or a {"min": x, "max": y} object (each side optional) —
min bounds guard features that must keep *working* (e.g. the FO-leaf
memo must keep hitting), max bounds guard against doing more work:

    {
      "BM_Property4_PayBeforeShip": {"obs_products_built": 4},
      "BM_ScaleClosureArity/2": {"obs_leaf_memo_hits": {"min": 1}},
      ...
    }

The special "__compare__" key holds cross-benchmark ratio rules, each
asserting numerator-counter / denominator-counter <= max_ratio:

    "__compare__": [
      {"label": "cone slicing shrinks the HOLDS sweep (Property 4)",
       "numerator": ["BM_Property4_PayBeforeShip", "obs_otf_states_created"],
       "denominator": ["BM_Property4_PayBeforeShip_NoSlice",
                       "obs_otf_states_created"],
       "max_ratio": 0.6}
    ]

The budgeted counters are *work* counters (products built, nodes
expanded), not timings, so the guard is immune to machine noise: a
budget trips only when a code change makes the verifier do more work —
e.g. a regression in the valuation-class collapse would send
obs_products_built from 2 back to 9 on the pay-before-ship sweep, and a
regression in the on-the-fly early exit would push Property 1's
obs_product_states past its budget.

Usage: bench_guard.py BENCH_BINARY BUDGETS_JSON [--min-time SECS]
       bench_guard.py REPORT_JSON BUDGETS_JSON --json-report
Exit status: 0 = all budgets hold, 1 = violation or missing benchmark.

With --json-report the first argument is a pre-produced report in the
same JSON schema (e.g. BENCH_replay.json from `wsvcli replay
--bench-json`) and nothing is executed — the budgets are checked
against the file as-is.
"""

import argparse
import json
import subprocess
import sys


def parse_budget(budget):
    """Normalize a budget spec to a (min, max) pair (either side None)."""
    if isinstance(budget, dict):
        return budget.get("min"), budget.get("max")
    return None, budget


def describe_bounds(lo, hi):
    if lo is not None and hi is not None:
        return "in [%g, %g]" % (lo, hi)
    if lo is not None:
        return ">= %g" % lo
    return "<= %g" % hi


def lookup(by_name, name, counter, failures):
    entry = by_name.get(name)
    if entry is None:
        failures.append("benchmark %r not found in the report" % name)
        return None
    if counter not in entry:
        failures.append("%s: counter %r missing from the report"
                        % (name, counter))
        return None
    return entry[counter]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("binary", help="benchmark executable")
    ap.add_argument("budgets", help="budgets JSON file")
    ap.add_argument("--min-time", default="0.01",
                    help="--benchmark_min_time value (default 0.01)")
    ap.add_argument("--json-report", action="store_true",
                    help="treat BENCH_BINARY as a pre-produced JSON "
                         "report instead of an executable to run")
    args = ap.parse_args()

    with open(args.budgets) as f:
        budgets = json.load(f)
    if not budgets:
        print("bench_guard: empty budgets file, nothing to check")
        return 0

    compares = budgets.pop("__compare__", [])

    if args.json_report:
        bench_filter = "(pre-produced report %s)" % args.binary
        with open(args.binary) as f:
            report = json.load(f)
    else:
        # Only run the budgeted benchmarks: anchored alternation on the
        # base names (the part before any "/arg" suffix).
        names = set(budgets)
        for rule in compares:
            names.add(rule["numerator"][0])
            names.add(rule["denominator"][0])
        bases = sorted({name.split("/")[0] for name in names})
        bench_filter = "^(" + "|".join(bases) + ")(/.*)?$"
        cmd = [
            args.binary,
            "--benchmark_format=json",
            "--benchmark_min_time=" + args.min_time,
            "--benchmark_filter=" + bench_filter,
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print("bench_guard: %s exited with %d"
                  % (cmd[0], proc.returncode))
            return 1
        report = json.loads(proc.stdout)

    by_name = {}
    for entry in report.get("benchmarks", []):
        if entry.get("run_type") == "aggregate":
            continue
        by_name[entry["name"]] = entry

    failures = []
    for name, counters in sorted(budgets.items()):
        entry = by_name.get(name)
        if entry is None:
            failures.append("benchmark %r not found in the report "
                            "(ran filter %s)" % (name, bench_filter))
            continue
        for counter, budget in sorted(counters.items()):
            if counter not in entry:
                failures.append("%s: counter %r missing from the report"
                                % (name, counter))
                continue
            value = entry[counter]
            lo, hi = parse_budget(budget)
            ok = ((lo is None or value >= lo) and
                  (hi is None or value <= hi))
            bounds = describe_bounds(lo, hi)
            print("%-40s %-24s %10.1f %-18s %s"
                  % (name, counter, value, bounds,
                     "OK" if ok else "OUT OF BUDGET"))
            if not ok:
                failures.append("%s: %s = %.1f violates budget %s"
                                % (name, counter, value, bounds))

    for rule in compares:
        num_name, num_counter = rule["numerator"]
        den_name, den_counter = rule["denominator"]
        num = lookup(by_name, num_name, num_counter, failures)
        den = lookup(by_name, den_name, den_counter, failures)
        if num is None or den is None:
            continue
        label = rule.get("label", "%s/%s vs %s/%s" %
                         (num_name, num_counter, den_name, den_counter))
        if den == 0:
            failures.append("compare %r: denominator %s[%s] is zero"
                            % (label, den_name, den_counter))
            continue
        ratio = float(num) / float(den)
        ok = ratio <= rule["max_ratio"]
        print("compare: %-48s %10.4f <= %-10g %s"
              % (label, ratio, rule["max_ratio"],
                 "OK" if ok else "OUT OF BUDGET"))
        if not ok:
            failures.append(
                "compare %r: %s[%s]=%.1f / %s[%s]=%.1f = %.4f exceeds "
                "max ratio %g" % (label, num_name, num_counter, num,
                                  den_name, den_counter, den, ratio,
                                  rule["max_ratio"]))

    if failures:
        print("\nbench_guard: FAILED")
        for f in failures:
            print("  " + f)
        return 1
    print("\nbench_guard: all budgets hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
