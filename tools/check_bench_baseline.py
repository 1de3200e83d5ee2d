#!/usr/bin/env python3
"""Compare fresh quick-mode bench JSON against bench/baseline.json.

Usage:
  check_bench_baseline.py <log_backends.json> <checker_hotpath.json>
      [backpressure.json] [multiobject_epochs.json]
      [--baseline bench/baseline.json] [--factor 2.0] [--write]

Fails (exit 1) when any metric regressed by more than the factor:
  * throughput metrics (app-side appends/s) below baseline / factor,
  * latency metrics (checker ns/record, allocs/record) above
    baseline * factor.

The wide default factor absorbs host-to-host variance (CI runners are
noisy and slower than the reference machine); it is meant to catch
order-of-magnitude regressions like losing the sharded append fast path,
not single-digit drift. Metrics present in only
one side are reported but do not fail the check, so adding or renaming
bench configs does not break CI before the baseline is regenerated.

--write regenerates the baseline file from the fresh results instead of
checking (run it on the reference host after intentional perf changes).
"""

import argparse
import json
import sys


def load_metrics(log_backends_path, hotpath_path, backpressure_path=None,
                 epochs_path=None):
    metrics = {}
    with open(log_backends_path) as f:
        for row in json.load(f):
            key = "log_backends/%s/t%d/append_per_s" % (
                row["config"], row["threads"])
            metrics[key] = {"kind": "throughput", "value": row["throughput"]}
    with open(hotpath_path) as f:
        for row in json.load(f):
            key = "checker_hotpath/%s/ns_per_record" % row["config"]
            metrics[key] = {"kind": "latency", "value": row["ns_per_op"]}
            if row["config"] == "alloc-pipeline":
                metrics["checker_hotpath/allocs_per_record"] = {
                    "kind": "latency",
                    "value": row["extra"]["allocs_per_record"],
                }
    if backpressure_path:
        # Every row bench_backpressure emits, named explicitly: a row the
        # bench gains later is gated (and recorded by --write) only once
        # it is added here.
        with open(backpressure_path) as f:
            for row in json.load(f):
                if row["config"] not in ("unbounded", "block", "fixed-256"):
                    continue
                key = "backpressure/%s/append_per_s" % row["config"]
                metrics[key] = {
                    "kind": "throughput",
                    "value": row["throughput"],
                }
                if row["config"] == "fixed-256":
                    # The producer's p99 append under the bounded-block
                    # soak. Gated as a latency-kind metric (above
                    # baseline * factor fails).
                    metrics["backpressure/%s/blocked_p99_ns" %
                            row["config"]] = {
                        "kind": "latency",
                        "value": row["extra"]["blocked_p99_ns"],
                    }
    if epochs_path:
        # Checked records/s per epoch config. The x2/x4 speedup over
        # from-zero is informational (it collapses to ~1x on single-core
        # CI runners) and is tracked in EXPERIMENTS.md, not gated here.
        with open(epochs_path) as f:
            for row in json.load(f):
                key = "multiobject_epochs/%s/records_per_s" % (
                    row["config"].replace(" ", "-"))
                metrics[key] = {
                    "kind": "throughput",
                    "value": row["throughput"],
                }
    return metrics


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("log_backends_json")
    ap.add_argument("checker_hotpath_json")
    ap.add_argument("backpressure_json", nargs="?", default=None)
    ap.add_argument("multiobject_epochs_json", nargs="?", default=None)
    ap.add_argument("--baseline", default="bench/baseline.json")
    ap.add_argument("--factor", type=float, default=2.0)
    ap.add_argument("--write", action="store_true",
                    help="rewrite the baseline from the fresh results")
    args = ap.parse_args()

    fresh = load_metrics(args.log_backends_json, args.checker_hotpath_json,
                         args.backpressure_json,
                         args.multiobject_epochs_json)

    if args.write:
        out = {
            "comment": "Quick-mode reference numbers for "
                       "tools/check_bench_baseline.py. Regenerate with: "
                       "bench_log_backends, bench_checker_hotpath, "
                       "bench_backpressure and bench_multiobject --epochs, "
                       "each with --quick --json, on the reference host, "
                       "then tools/check_bench_baseline.py --write.",
            "metrics": fresh,
        }
        with open(args.baseline, "w") as f:
            json.dump(out, f, indent=2)
            f.write("\n")
        print("wrote %s (%d metrics)" % (args.baseline, len(fresh)))
        return 0

    with open(args.baseline) as f:
        baseline = json.load(f)["metrics"]

    failures = []
    for key in sorted(set(baseline) | set(fresh)):
        if key not in baseline:
            print("NEW      %-55s %12.1f (not in baseline)"
                  % (key, fresh[key]["value"]))
            continue
        if key not in fresh:
            print("MISSING  %-55s (in baseline only)" % key)
            continue
        base, now = baseline[key]["value"], fresh[key]["value"]
        kind = baseline[key]["kind"]
        if kind == "throughput":
            ok = now >= base / args.factor
            ratio = now / base if base else float("inf")
        else:
            ok = now <= base * args.factor
            ratio = base / now if now else float("inf")
        status = "ok      " if ok else "REGRESSED"
        print("%s %-55s %12.1f -> %12.1f (%.2fx)"
              % (status, key, base, now, ratio))
        if not ok:
            failures.append(key)

    if failures:
        print("\n%d metric(s) regressed by more than %.1fx:" %
              (len(failures), args.factor))
        for key in failures:
            print("  " + key)
        return 1
    print("\nall metrics within %.1fx of baseline" % args.factor)
    return 0


if __name__ == "__main__":
    sys.exit(main())
