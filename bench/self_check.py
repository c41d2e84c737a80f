"""Quick self-check of the benchmark: every workload at N = 8, one repeat.

Runs each workload untraced and traced at the smallest scale, one item
each (verify on cycle:8 with three corpus vectors, the fewest
``lemma_ratios`` accepts; a random_psd:8 profile with one vector; one
sweep at N = 8), requires every correctness gate to pass and
checks that the metric names match ``BENCHMARK.json`` and that the
benchmark's check and flavor lists match the library's.  It makes no
timing assertions.  Run from the root of a checkout::

    python3 bench/self_check.py
"""

import json
import sys

import run_bench as rb


def main():
    problems = []
    spec = json.loads((rb.ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared_e2e != dict(rb.END_TO_END):
        problems.append("end_to_end metrics differ from BENCHMARK.json")
    if declared_layer != dict(rb.per_layer_names()):
        problems.append("per_layer metrics differ from BENCHMARK.json")
    if [w["name"] for w in spec["workloads"]] != list(rb.WORKLOADS):
        problems.append("workloads differ from BENCHMARK.json")

    for workload in rb.WORKLOADS:
        for trace in (False, True):
            result, record = rb.run(workload, seed=1, seconds=0, trace=trace,
                                    scale=rb.SMALL, setup_repeats=1,
                                    out_dir=rb.OUT_DIR / "self-check")
            expected = declared_layer if trace else declared_e2e
            if set(result["metrics"]) != set(expected):
                problems.append(f"{workload} trace={trace}: metric names differ")
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: {record['failures']}")
            print(f"{workload} trace={int(trace)}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")

    lib = rb.Library()
    if tuple(lib.harness.CHECK_NAMES) != rb.CHECK_NAMES:
        problems.append("harness.CHECK_NAMES changed")
    if tuple(lib.sm.BESOV_FLAVORS) != rb.BESOV_FLAVORS:
        problems.append("smoothness.BESOV_FLAVORS changed")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("self-check", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
