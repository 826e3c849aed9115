#!/usr/bin/env python3
"""xducer benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload {optimize,analyze,run,equiv} \\
        --seed N --seconds S --trace {0,1}

It builds the workload's inputs from the seed, times a fixed number of passes
over the batch of CLI operations (S seconds at most), checks every operation
against its reference and prints a table followed, as the last line, by one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones, as ``BENCHMARK.json`` at the repository root lists them.
Scratch files go to ``.perfbench_work/`` under the current directory and are
removed at the end, except the run's record (with the per-op output digests
and latencies) and the span dump of its last traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load_catalogue() -> dict:
    """``BENCHMARK.json``: the workloads and the metrics, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _fail(message: str) -> int:
    print("perfbench: %s" % message, file=sys.stderr)
    return 2


def _layer_value(name: str, summary: dict) -> float:
    """A per-layer metric: a span aggregate, the trace overhead or a workload figure."""
    if name == "trace.overhead_s":
        return summary["extra"]["trace_overhead_s"]
    if name.startswith("workload."):
        return summary["extra"][name[len("workload."):]]
    return summary["layers"].get(name, 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        catalogue = load_catalogue()
    except OSError as exc:
        return _fail("cannot read BENCHMARK.json: %s" % exc)
    if args.workload not in [w["name"] for w in catalogue["workloads"]]:
        return _fail("unknown workload %r" % args.workload)

    if not os.path.isfile(os.path.join(ROOT, "src", "xducer", "cli.py")):
        return _fail("no xducer sources under %s; run from a repository checkout"
                     % os.path.join(ROOT, "src"))
    if not os.path.isdir(os.path.join(ROOT, "corpus")):
        return _fail("no corpus/ directory under %s" % ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, BENCH_DIR)
    from harness import run_workload, summarize
    from workloads import SetupError

    work_root = os.path.join(os.getcwd(), ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    try:
        record = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), BENCH_DIR, work_root)
    except SetupError as exc:
        return _fail(str(exc))
    summary = summarize(record)

    if args.trace:
        metrics = {m["name"]: {"value": _layer_value(m["name"], summary),
                               "unit": m["unit"]} for m in catalogue["per_layer"]}
    else:
        metrics = {m["name"]: {"value": summary["e2e"][m["name"]], "unit": m["unit"]}
                   for m in catalogue["end_to_end"]}

    correct = summary["correct"] and summary.get("layer_counts_repeat", True)
    _print_table(args, summary, metrics)
    record_path = os.path.join(work_root, "record-%s-%d-trace%d.json"
                               % (args.workload, args.seed, args.trace))
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


def _print_table(args, summary: dict, metrics: dict) -> None:
    print("workload %s  seed %d  trace %d" % (args.workload, args.seed, args.trace))
    print("ops %d per pass, %d untraced passes, %d traced passes, %d latency samples"
          % (summary["ops"], summary["passes"], summary["traced_passes"],
             summary["samples"]))
    print("attempted %d  failed %d  failed_frac %.4f  correct %s"
          % (summary["attempted"], summary["failed"],
             summary["extra"]["failed_frac"], summary["correct"]))
    for kind, (count, total) in sorted(summary["kinds"].items()):
        print("  %-8s %4d ops  %.4f s per pass" % (kind, count, total))
    for name, status, reason in summary["failures"]:
        print("  %-8s %s: %s" % (status, name, reason))
    for name, m in metrics.items():
        print("  %-48s %14.6g %s" % (name, m["value"], m["unit"]))
    for kind, top in summary.get("top_layer", {}).items():
        verdict = "holds" if top["holds"] else "DOES NOT HOLD"
        print("%s ops: largest self time in %s (%.3f s); expected one of %s: %s"
              % (kind, top["module"], top["self_s"], "/".join(top["expected"]), verdict))
    if "layer_counts_repeat" in summary:
        if not summary["layer_counts_repeat"]:
            print("per-layer counts differ between traced passes")


if __name__ == "__main__":
    raise SystemExit(main())
