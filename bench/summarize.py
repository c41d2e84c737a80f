"""Collect benchmark result files into one committed baseline.

Reads ``bench/out/<workload>-seed<N>-trace0.json`` for every given seed
and ``<workload>-seed<T>-trace1.json`` for the trace seed, and writes the
medians and quartiles of each end-to-end metric, every nonzero per-layer
metric, the attribution the traced runs show and the raw eigensolve time
by N across workloads.  Run from the root of a
checkout after the runs::

    python3 bench/summarize.py --seeds 101,102,... --trace-seed 101 \\
        --out bench/baseline/BENCH_baseline.json
"""

import argparse
import gzip
import json
import statistics
import sys
from collections import Counter

import run_bench as rb


def load(workload, seed, trace):
    return json.loads((rb.OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def end_to_end(workload, seeds):
    runs = [load(workload, seed, 0) for seed in seeds]
    summary = {"seeds": seeds, "correct_runs": sum(r["result"]["correct"] for r in runs),
               "fail_ratio_max": max(r["fail_ratio"] for r in runs),
               "items_per_run": [r["details"]["items"] for r in runs],
               "tail_percentile_per_run": [round(r["details"]["tail_percentile"], 2)
                                           for r in runs],
               "metrics": {}}
    for name, unit in rb.END_TO_END:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary["metrics"][name] = {"unit": unit, "median": statistics.median(values),
                                    "q1": q1, "q3": q3,
                                    "spread": (q3 - q1) / statistics.median(values),
                                    "min": min(values), "max": max(values), "values": values}
    return summary, runs[0]["provenance"]


def item_self_s(workload, seed):
    """Self time by function over the spans of the traced items (set-up excluded)."""
    path = rb.OUT_DIR / f"spans-{workload}-seed{seed}-trace1.jsonl.gz"
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] >= 0:
            own[span["parent"]] -= span["end"] - span["start"]
    totals = Counter()
    for span, seconds in zip(spans, own):
        if span["item"] is not None:
            totals[span["name"]] += seconds
    return totals


def attribution(workload, record, seed):
    """The per-layer facts the benchmark's predictions are checked against."""
    metrics = {k: v["value"] for k, v in record["result"]["metrics"].items()}
    details = record["details"]
    checks = {name: metrics[f"harness.check.{name}.busy_s"] for name in rb.CHECK_NAMES}
    self_times = {k[:-len(".self_s")]: v for k, v in metrics.items() if k.endswith(".self_s")}
    facts = {"top_self_s": sorted(self_times.items(), key=lambda kv: -kv[1])[:6],
             "eigh_s_by_n": details["eigh_s_by_n"],
             "tracing_overhead_s": metrics["tracing_overhead_s"],
             "traced_items": details["items"]}
    if workload == "verify-cycle":
        verify_s = metrics["cli.main.busy_s"]
        facts["checks_by_busy_s"] = sorted(checks.items(), key=lambda kv: -kv[1])
        facts["check_share_of_verify"] = sum(checks.values()) / verify_s
        facts["report_sha256"] = details["report_sha256"]
    if workload == "profile-256":
        facts["setup_s"] = details["setup_s"]
        facts["eigh_share_of_setup"] = details["eigh_share_of_setup"]
        per_vector = item_self_s(workload, seed)
        facts["item_self_s_per_vector"] = {name: seconds / details["items"] for name, seconds
                                           in per_vector.most_common(6)}
    if workload == "sweep-small":
        facts["eigh_share_of_operator_by_n"] = details["eigh_share_of_operator_by_n"]
    return facts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--trace-seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    baseline = {"schema_version": rb.SCHEMA_VERSION, "workloads": {}, "eigh_s_by_n": {}}
    for workload in rb.WORKLOADS:
        summary, provenance = end_to_end(workload, seeds)
        traced = load(workload, args.trace_seed, 1)
        summary["traced_correct"] = traced["result"]["correct"]
        summary["per_layer_nonzero"] = {k: v["value"]
                                        for k, v in traced["result"]["metrics"].items()
                                        if v["value"]}
        summary["attribution"] = attribution(workload, traced, args.trace_seed)
        for n, seconds in traced["details"]["eigh_s_by_n"].items():
            baseline["eigh_s_by_n"].setdefault(n, {})[workload] = seconds
        baseline["workloads"][workload] = summary
        baseline["provenance"] = {k: v for k, v in provenance.items()
                                  if k not in ("workload", "seed", "trace")}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
