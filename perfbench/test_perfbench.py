"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import xducer.cli  # noqa: E402
import xducer.growth  # noqa: E402
import xducer.layering  # noqa: E402

import gen  # noqa: E402
import refs  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from harness import load_pools, run_workload, summarize  # noqa: E402


def _snapshot(workdir, ops):
    """Op argv with the work directory stripped, plus every file's bytes."""
    files = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            files[name] = fh.read()
    argv = [[a.replace(workdir, "<w>") for a in op.argv] for op in ops]
    return argv, files


def test_pool_members_are_reproducible():
    for pool in ("opt_sst", "ana_sst", "opt_marble"):
        assert gen.pool_machine(pool, 7) == gen.pool_machine(pool, 7)
    assert gen.pool_machine("opt_sst", 7) != gen.pool_machine("opt_sst", 8)


def test_setups_are_reproducible_from_the_seed(tmp_path):
    pools = load_pools(HERE)
    for workload in workloads.SETUPS:
        snaps = []
        for i, seed in enumerate((5, 5, 6)):
            workdir = str(tmp_path / ("%s%d" % (workload, i)))
            os.makedirs(workdir)
            ops = workloads.SETUPS[workload](workdir, seed, pools)
            snaps.append(_snapshot(workdir, ops))
        assert snaps[0] == snaps[1], workload
        assert snaps[0] != snaps[2], workload


def test_stratified_draw_takes_the_same_share_of_each_group():
    members = list(range(10))
    drawn = gen.stratified_draw(random.Random(1), members, 2, 3)
    assert len(drawn) == 7
    for start in (0, 3, 6):
        assert len([m for m in drawn if start <= m < start + 3]) == 2


def test_self_time_of_a_toy_nested_call():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 6.0])
    tracer = spans.Tracer(layers={}, clock=lambda: next(ticks))

    inner = tracer.wrap("toy.inner", lambda: None)

    def outer_body():
        inner()   # 1.0 .. 3.0
        inner()   # 4.0 .. 4.5

    outer = tracer.wrap("toy.outer", outer_body)
    outer()      # 0.0 .. 6.0
    assert [s[0] for s in tracer.spans] == ["toy.outer", "toy.inner", "toy.inner"]
    assert [s[3] for s in tracer.spans] == [None, 0, 0]
    assert spans.self_times(tracer.spans) == [3.5, 2.0, 0.5]
    agg = spans.aggregate(tracer.spans)
    assert agg["toy.outer"] == {"self_s": 3.5, "calls": 1}
    assert agg["toy.inner"] == {"self_s": 2.5, "calls": 2}


def test_speed_scaling_uses_the_probes_around_each_time():
    ref = speed.REFERENCE_S
    # Probes twice the reference: the machine ran at half speed.
    assert speed.scale([0.4, 0.2], [2 * ref] * 3) == pytest.approx([0.2, 0.1])
    # The first time sees only probes up to WINDOW after it, so a slow spell
    # further on leaves it alone.
    w = speed.WINDOW
    probes = [ref] * (w + 1) + [4 * ref] * (3 * w)
    scaled = speed.scale([1.0] * (len(probes) - 1), probes)
    assert scaled[0] == 1.0 and scaled[-1] == 0.25


def test_tracer_rebinds_every_importer_and_restores_them():
    original = xducer.growth.classify
    assert xducer.cli.classify is original and xducer.layering.classify is original
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert xducer.cli.classify is not original
        assert xducer.layering.classify is xducer.growth.classify
        res = workloads.call_cli(
            ["analyze", os.path.join(ROOT, "corpus", "mul_sst.json")])
    finally:
        tracer.uninstall()
    assert res.rc == 0
    assert xducer.cli.classify is original and xducer.growth.classify is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0][3] is None
    # classify_function imports make_total lazily; the span is still seen.
    assert "layering.make_total" in names and "growth.find_barbell" in names
    by_index = {i: s for i, s in enumerate(tracer.spans)}
    barbell = next(s for s in tracer.spans if s[0] == "growth.barbell_graph")
    assert by_index[barbell[3]][0] == "growth.classify"


def _toy_setup(workdir, seed, pools):
    src = os.path.join(workdir, "identity_sst.json")
    with open(os.path.join(ROOT, "corpus", "identity_sst.json"), "rb") as fh, \
            open(src, "wb") as out:
        out.write(fh.read())

    def raising_check(res, op):
        raise KeyError("no such field")

    return [
        workloads._run_op("identity_sst", src, "abba", refs.identity),
        # A deliberately wrong reference: identity checked against reverse.
        workloads._run_op("identity_sst", src, "aab", refs.reverse),
        workloads.Op("broken-check", ["run", src, "ab"], raising_check),
        # A refusal: the word is outside the machine's alphabet.
        workloads._run_op("identity_sst", src, "abc", refs.identity),
    ]


def test_wrong_reference_counts_as_failure_without_aborting(tmp_path):
    record = run_workload("run", 1, 0.0, False, HERE, str(tmp_path),
                          setups={"run": _toy_setup})
    summary = summarize(record)
    statuses = [s for s, _ in record["verdicts"]]
    assert statuses == [workloads.OK, workloads.WRONG, workloads.WRONG,
                        workloads.REFUSED]
    assert summary["correct"] is False
    assert summary["attempted"] == 4 * summary["passes"]
    assert summary["failed"] == 3 * summary["passes"]
    assert summary["extra"]["failed_frac"] == 0.75
    assert summary["extra"]["out_letters_per_s"] > 0


def test_traced_run_reports_layers_and_overhead(tmp_path):
    record = run_workload("run", 1, 0.0, True, HERE, str(tmp_path),
                          setups={"run": _toy_setup})
    summary = summarize(record)
    assert summary["passes"] == 1 and summary["traced_passes"] == 1
    assert summary["layers"]["semantics.run_sst.calls"] == 3
    assert summary["layers"]["cli.main.calls"] == 4
    assert "trace_overhead_s" in summary["extra"]
    assert summary["layer_counts_repeat"]
