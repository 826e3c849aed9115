#!/usr/bin/env python3
"""Every workload, every metric, one table.  Run from the repository root:

    python3 perfbench/report.py [--seed N] [--seconds S]

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.

For each workload in ``BENCHMARK.json`` it runs ``run.py`` three times with
the same seed, one after another, each in its own process: once untraced and
twice traced.  It prints one row per workload with the end-to-end metrics and
the ``workload.*`` figures of ``BENCHMARK.json`` (a figure that does not apply
to a workload shows ``-``), then the per-layer metrics of the first
traced run, the tracing overhead and which module has the largest self time.
It checks that the per-op output digests, ``out_bytes``, ``out_states`` and
every per-layer ``calls``/``out_*``/count metric repeat exactly across the
runs, and exits 1 if any run was not correct or a count did not repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from run import load_catalogue  # noqa: E402

# Workload figures that only one command produces.
ONLY_FOR = {"out_bytes": "optimize", "out_states": "optimize",
            "out_letters_per_s": "run", "words_per_s": "equiv"}
COUNT_SUFFIXES = (".calls", ".steps", ".words", ".bytes", ".max_stack_depth")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("run.py failed on %s (trace %d)" % (workload, trace))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = os.path.join(os.getcwd(), ".perfbench_work",
                               "record-%s-%d-trace%d.json" % (workload, seed, trace))
    with open(record_path, encoding="utf-8") as fh:
        record = json.load(fh)
    return result, record


def _is_count(name: str) -> bool:
    return ".out_" in name or name.endswith(COUNT_SUFFIXES)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    catalogue = load_catalogue()
    if args.seconds is None:
        args.seconds = catalogue["run_seconds"]
    # (name, unit, better) of every figure in the end-to-end table.
    columns = [(m["name"], m["unit"], m["better"]) for m in catalogue["end_to_end"]] + [
        (m["name"][len("workload."):], m["unit"], m["better"])
        for m in catalogue["per_layer"] if m["name"].startswith("workload.")]
    rows, problems = [], []
    for workload in [w["name"] for w in catalogue["workloads"]]:
        plain, plain_rec = run_once(workload, args.seed, args.seconds, 0)
        traced, traced_rec = run_once(workload, args.seed, args.seconds, 1)
        again, again_rec = run_once(workload, args.seed, args.seconds, 1)
        for res, rec in ((plain, plain_rec), (traced, traced_rec), (again, again_rec)):
            if not res["correct"]:
                problems.append("%s: a run was not correct: %s"
                                % (workload, rec["failures"]))
        if not plain_rec["digests"] == traced_rec["digests"] == again_rec["digests"]:
            problems.append("%s: per-op output digests differ between runs" % workload)
        for key in ("out_bytes", "out_states"):
            values = {r["extra"][key] for r in (plain_rec, traced_rec, again_rec)}
            if len(values) != 1:
                problems.append("%s: %s differs between runs: %s" % (workload, key, values))
        counts = [{n: v for n, v in r["layers"].items() if _is_count(n)}
                  for r in (traced_rec, again_rec)]
        if counts[0] != counts[1]:
            diff = sorted(n for n in set(counts[0]) | set(counts[1])
                          if counts[0].get(n) != counts[1].get(n))
            problems.append("%s: per-layer counts differ between runs: %s"
                            % (workload, diff))
        rows.append((workload, plain_rec, traced_rec))

    print("End-to-end metrics, seed %d, %g s per run (untraced run)" % (args.seed, args.seconds))
    header = ["workload", "ops", "samples", "attempted", "failed"] + [
        "%s [%s, %s]" % column for column in columns]
    print(" | ".join(header))
    for workload, rec, _traced in rows:
        cells = [workload, str(rec["ops"]), str(rec["samples"]),
                 str(rec["attempted"]), str(rec["failed"])]
        for name, _unit, _better in columns:
            if name in ONLY_FOR and ONLY_FOR[name] not in rec["kinds"]:
                cells.append("-")
                continue
            value = rec["e2e"].get(name, rec["extra"].get(name))
            cells.append("%.6g" % value)
        print(" | ".join(cells))

    print()
    print("Per-layer metrics (first traced run; self time in s)")
    names = sorted({n for _w, _r, t in rows for n in t["layers"]})
    print(" | ".join(["metric"] + [w for w, _r, _t in rows]))
    for name in names:
        print(" | ".join([name] + ["%.6g" % t["layers"].get(name, 0) for _w, _r, t in rows]))
    print(" | ".join(["trace.overhead_s"]
                     + ["%.6g" % t["extra"]["trace_overhead_s"] for _w, _r, t in rows]))
    print()
    for workload, _rec, traced in rows:
        for kind, top in traced["top_layer"].items():
            print("%s, %s ops: largest self time in %s (%.3f s); expected %s: %s" % (
                workload, kind, top["module"], top["self_s"], "/".join(top["expected"]),
                "holds" if top["holds"] else "DOES NOT HOLD"))
        for kind, (count, total) in sorted(_rec["kinds"].items()):
            print("%s, %s ops: %d per pass, %.4f s per pass (untraced)"
                  % (workload, kind, count, total))
    for workload, rec, _t in rows:
        for name, status, reason in rec["failures"]:
            print("failed on %s: %s %s: %s" % (workload, status, name, reason))
    for problem in problems:
        print("PROBLEM: " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
