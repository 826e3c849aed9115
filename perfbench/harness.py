"""Measuring loop: set-up, timed passes over the batch, checks and metrics.

Load model: one process, one thread, a closed loop.  Each operation is one
in-process ``xducer.cli.main([...])`` call and starts after the previous one
returns.  A pass runs the whole fixed batch once.  An untraced run makes
``PASSES`` passes; ``--seconds`` is only a ceiling (a pass that would end
after it is not started), so two commits are compared over the same number
of samples.

Each pass runs in a child forked after set-up, so every pass starts from the
same interpreter state: heap growth and fragmentation left by one pass do
not slow the next, and the tracer's rebinding never outlives its pass.

Set-up and op times are CPU time of the measuring process
(``time.process_time``: user plus system time) at reference speed
(``speed.scale``).  The operations are single-threaded and CPU-bound, so on
an idle machine CPU time is their wall time; on a virtual machine whose host
takes the CPU away for part of each slice (steal time), wall time of the same
op varied by up to 2x.  Span self times are plain CPU time.

With ``trace`` off no pass records spans.  ``op_p50_s`` and ``op_p90_s`` are
quantiles of every op latency of every untraced pass, and ``wall_s`` is the
median pass.  With ``trace`` on, untraced and traced passes alternate,
``TRACED_PASSES`` of each; per-layer metrics come from the traced passes and
the tracing overhead is the difference of the two kinds' median pass time.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field

import spans as spans_mod
from speed import at_reference, probe, scale
from workloads import EXPECTED_TOP_LAYER, OK, SETUPS, WRONG, Result, call_cli

# Set-up repeats at least SETUP_REPEATS times and, while it is cheap, until
# SETUP_MIN_S of set-up time has been measured (at most SETUP_MAX_REPEATS).
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 25
SETUP_PROBES = 9   # speed probes before and after each set-up
# Untraced passes of a --trace 0 run, and passes of each kind in a --trace 1 run.
PASSES = 5
TRACED_PASSES = 2


@dataclass
class Pass:
    traced: bool
    latencies: list
    digests: list
    wall: float
    layer_stats: dict = field(default_factory=dict)
    kind_modules: dict = field(default_factory=dict)  # command -> module -> self s


def load_pools(bench_dir: str) -> dict:
    with open(os.path.join(bench_dir, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _digest(op, res) -> str:
    h = hashlib.sha256()
    h.update(repr((res.rc, res.error, res.stdout)).encode("utf-8"))
    if op.out_path and os.path.exists(op.out_path):
        with open(op.out_path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_pass(ops: list, tracer=None) -> tuple:
    """Execute the batch once; returns the Pass and each op's Result."""
    cpu, probes, digests, results = [], [probe()], [], []
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for op in ops:
            t0 = time.process_time()
            res = call_cli(op.argv)
            cpu.append(time.process_time() - t0)
            probes.append(probe())
            results.append(res)
            digests.append(_digest(op, res))
    finally:
        if tracer is not None:
            tracer.uninstall()
    latencies = scale(cpu, probes)
    p = Pass(tracer is not None, latencies, digests, sum(latencies))
    if tracer is not None:
        p.layer_stats = spans_mod.aggregate(tracer.spans)
        p.kind_modules = spans_mod.module_self_times_by_root(
            tracer.spans, [op.argv[0] for op in ops])
    return p, results


def run_pass_forked(ops: list, tracer=None, dump_path=None) -> tuple:
    """``run_pass`` in a forked child; the parent gets its results back."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: run the pass, send it back as JSON, never return
        code = 1
        try:
            os.close(read_fd)
            p, results = run_pass(ops, tracer)
            if tracer is not None and dump_path:
                tracer.dump(dump_path)
            doc = {"pass": p.__dict__, "results": [r.__dict__ for r in results]}
            with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "r", encoding="utf-8") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError("measuring pass failed (status %d)" % status)
    doc = json.loads(data)
    return Pass(**doc["pass"]), [Result(**r) for r in doc["results"]]


def quantile(values: list, q: float) -> float:
    """Linear-interpolation quantile of a non-empty list."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 bench_dir: str, work_root: str, setups=SETUPS) -> dict:
    """One benchmark run; returns the raw record the report is built from."""
    pools = load_pools(bench_dir)
    base = os.path.join(work_root, "%s-%d-%d" % (workload, seed, os.getpid()))
    setup_times, ops = [], None
    try:
        while not setup_times or not trace and len(setup_times) < SETUP_MAX_REPEATS and (
                len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S):
            i = len(setup_times)
            workdir = os.path.join(base, "setup%d" % i)
            os.makedirs(workdir)
            before = [probe() for _ in range(SETUP_PROBES)]
            t0 = time.process_time()
            ops = setups[workload](workdir, seed, pools)
            cpu = time.process_time() - t0
            after = [probe() for _ in range(SETUP_PROBES)]
            setup_times.append(at_reference(cpu, before + after))
            if i > 0:
                shutil.rmtree(os.path.join(base, "setup%d" % (i - 1)))

        plan = [False, True] * TRACED_PASSES if trace else [False] * PASSES
        passes, first_results = [], None
        tracer = spans_mod.Tracer() if trace else None
        dump_path = os.path.join(work_root, "spans-%s-%d.jsonl" % (workload, seed))
        elapsed = []
        for traced in plan:
            # The ceiling: stop before a pass that would end after --seconds,
            # once every kind of pass in the plan has run.
            if len(passes) >= len(set(plan)) and sum(elapsed) + max(elapsed) > seconds:
                break
            t0 = time.perf_counter()
            p, results = run_pass_forked(ops, tracer if traced else None, dump_path)
            elapsed.append(time.perf_counter() - t0)
            passes.append(p)
            if first_results is None:
                first_results = results

        verdicts = []
        for op, res in zip(ops, first_results):
            try:
                status, reason = op.check(res, op)
            except Exception as exc:  # a malformed answer is a wrong answer
                status, reason = WRONG, "check raised %s: %s" % (type(exc).__name__, exc)
            verdicts.append((status, reason))
        for p in passes[1:]:
            for i, (d0, d) in enumerate(zip(passes[0].digests, p.digests)):
                if d0 != d and verdicts[i][0] != WRONG:
                    verdicts[i] = (WRONG, "output differs between passes")
    finally:
        shutil.rmtree(base, ignore_errors=True)

    return {
        "workload": workload, "seed": seed, "trace": trace,
        "ops": ops, "verdicts": verdicts, "passes": passes,
        "setup_times": setup_times,
        "peak_rss_mb": max(resource.getrusage(who).ru_maxrss for who in (
            resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0,
    }


def summarize(record: dict) -> dict:
    """Counts, end-to-end metrics and per-layer metrics of a run record."""
    ops, verdicts, passes = record["ops"], record["verdicts"], record["passes"]
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    failed_ops = sum(1 for s, _ in verdicts if s != OK)
    # One latency per op: its median over the untraced passes.
    latencies = [statistics.median(lat) for lat in zip(*(p.latencies for p in plain))]
    samples = [lat for p in plain for lat in p.latencies]
    wall = statistics.median(p.wall for p in plain)
    letters = sum(op.letters for op, (s, _) in zip(ops, verdicts) if s == OK)
    words = sum(op.words for op, (s, _) in zip(ops, verdicts) if s == OK)
    out_bytes = sum(op.stats.get("out_bytes", 0) for op in ops)
    out_states = sum(op.stats.get("out_states", 0) for op in ops)
    summary = {
        "attempted": len(ops) * len(passes),
        "failed": failed_ops * len(passes),
        "correct": all(s != WRONG for s, _ in verdicts),
        "ops": len(ops), "passes": len(plain), "traced_passes": len(traced),
        "samples": len(samples),
        "pass_s": [[p.traced, p.wall] for p in passes],
        "e2e": {
            "setup_s": statistics.median(record["setup_times"]),
            "wall_s": wall,
            "op_p50_s": quantile(samples, 0.5),
            "op_p90_s": quantile(samples, 0.9),
            "peak_rss_mb": record["peak_rss_mb"],
        },
        "extra": {
            "failed_frac": failed_ops / len(ops),
            "out_bytes": out_bytes, "out_states": out_states,
            "out_letters_per_s": letters / wall,
            "words_per_s": words / wall,
        },
        "failures": [(op.name, s, r) for op, (s, r) in zip(ops, verdicts) if s != OK],
        "kinds": _by_kind(ops, latencies),
        "digests": [[op.name, d] for op, d in zip(ops, passes[0].digests)],
        "latencies": [[op.name, lat] for op, lat in zip(ops, latencies)],
    }
    if traced:
        summary["layers"] = layer_metrics(traced)
        summary["extra"]["trace_overhead_s"] = (
            statistics.median(p.wall for p in traced)
            - statistics.median(p.wall for p in plain))
        summary["top_layer"] = {}
        for kind, modules in sorted(traced[0].kind_modules.items()):
            top = max(modules, key=modules.get)
            want = EXPECTED_TOP_LAYER.get(kind, ())
            summary["top_layer"][kind] = {
                "module": top, "self_s": modules[top], "expected": list(want),
                "holds": top in want, "modules": modules}
        summary["layer_counts_repeat"] = all(
            _counts(p.layer_stats) == _counts(traced[0].layer_stats) for p in traced)
    return summary


def _by_kind(ops: list, latencies: list) -> dict:
    """Ops and summed latency per CLI command (optimize, analyze, run, equiv)."""
    kinds: dict = {}
    for op, lat in zip(ops, latencies):
        count, total = kinds.get(op.argv[0], (0, 0.0))
        kinds[op.argv[0]] = (count + 1, total + lat)
    return kinds


def _counts(layer_stats: dict) -> dict:
    return {(name, key): value for name, values in layer_stats.items()
            for key, value in values.items() if key != "self_s"}


def layer_metrics(traced: list) -> dict:
    """Per-function metrics: median self time over traced passes, counts of the first."""
    names = sorted({n for p in traced for n in p.layer_stats})
    out = {}
    for name in names:
        keys = sorted({k for p in traced for k in p.layer_stats.get(name, {})})
        for key in keys:
            if key == "self_s":
                value = statistics.median(p.layer_stats.get(name, {}).get(key, 0.0)
                                          for p in traced)
            else:
                value = traced[0].layer_stats.get(name, {}).get(key, 0)
            out["%s.%s" % (name, key)] = value
    return out

