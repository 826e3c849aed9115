"""Smoke runs of the experiment scripts under scripts/, and the names the
benchmark's tracer looks up."""

import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys

from conftest import CORPUS_NAMES, load

ROOT = os.path.join(os.path.dirname(__file__), "..")
SCRIPTS = os.path.join(ROOT, "scripts")


def run_script(name: str, *args: str) -> str:
    res = subprocess.run([sys.executable, os.path.join(SCRIPTS, name), *args],
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_pipeline_demo_rebuilds_every_corpus_machine():
    lines = [line for line in run_script("pipeline_demo.py").splitlines()
             if not line.startswith("==")]
    assert len(lines) == 10
    for line in lines:
        assert "equiv<=4:equivalent" in line or "exponential growth" in line, line
    # the rebuilt marble machines report their size
    assert sum(" k_min=" in line and " states=" in line for line in lines) == 3


def test_growth_sweep_agrees_with_brute_force():
    out = run_script("growth_sweep.py")
    assert "disagreements with brute force (|v| <= 6): 0" in out


def test_pool_census_reports_each_member():
    rows = [json.loads(line) for line in
            run_script("pool_census.py", "0", "1").splitlines()]
    assert [row["member"] for row in rows] == [0, 1]
    for row in rows:
        assert row["outcome"] == "layered", row
        assert row["size"] == row["states"] * row["registers"]
        assert sum(row["layers"]) == row["registers"]
        assert row["nsstf"] == row["det"] == row["det_s"] == [] and row["cpu_s"] >= 0
        assert row["out_degree"] == row["degree"] and row["classify_s"] >= 0
    # the layered outputs of members 0 and 1, byte for byte
    assert [row["sha256"][:16] for row in rows] == ["d7e3a7d2731baa88",
                                                     "b1cc9abdbcea6a84"]


def test_pool_census_reports_an_exponential_member():
    # member 8 grows exponentially: its row has an outcome and no output sizes
    rows = [json.loads(line) for line in run_script("pool_census.py", "8").splitlines()]
    assert [(row["member"], row["outcome"]) for row in rows] == [(8, "exponential")]
    assert "out_degree" not in rows[0] and rows[0]["cpu_s"] >= 0


def test_pool_census_keeps_the_sizes_of_a_row_whose_checks_are_killed():
    # the child prints the construction's row before the checks run, then
    # again after each; a kill after the first line keeps the sizes
    lines = run_script("pool_census.py", "--child", '["member", 0]').splitlines()
    rows = [json.loads(line) for line in lines]
    assert [[check in row for check in ("equiv", "out_degree")] for row in rows] == [
        [False, False], [True, False], [True, True]]
    assert rows[0]["size"] == 18 and rows[0]["sha256"] == rows[-1]["sha256"]
    assert rows[0]["build_s"] >= 0
    census = load_file("pool_census", os.path.join(SCRIPTS, "pool_census.py"))
    cut = lines[1][:20]  # a line the kill cut short is skipped
    row = census.row_of(["member", 0], -9, "\n".join(lines[:1] + [cut]), "")
    assert row == dict(rows[0], equiv="killed (SIGKILL)", out_degree="killed (SIGKILL)")
    row = census.row_of(["member", 0], 1, "\n".join(lines[:2]), "Traceback\nMemoryError\n")
    assert row == dict(rows[1], out_degree="killed (MemoryError)")
    assert census.row_of(["member", 0], -24, "", "") == {
        "member": 0, "outcome": "killed (SIGXCPU)"}
    assert census.row_of(["member", 0], 0, "\n".join(lines), "") == rows[-1]


def test_pool_census_reports_a_marble_member():
    # member 2 of the marble pool: the crossing SST, byte for byte, and the
    # least mark count and walker that optimize rebuilds from it
    rows = [json.loads(line) for line in
            run_script("pool_census.py", "--marble", "2").splitlines()]
    assert [(row["member"], row["outcome"]) for row in rows] == [(2, "marble")]
    row = rows[0]
    assert (row["states"], row["registers"], row["size"]) == (2, 2, 4)
    assert row["sha256"][:16] == "3ab8b0ae300e27e5"
    assert (row["k_min"], row["walker_states"]) == (0, 4)
    assert row["convert_s"] >= 0 and row["cpu_s"] >= 0
    # a kill after the conversion's line keeps its sizes
    lines = run_script("pool_census.py", "--child", '["marble", 2]').splitlines()
    census = load_file("pool_census", os.path.join(SCRIPTS, "pool_census.py"))
    assert census.row_of(["marble", 2], -9, lines[0], "") == dict(
        json.loads(lines[0]), outcome="killed (SIGKILL)")


def test_pool_census_climbs_the_size_ladder():
    rows = [json.loads(line) for line in
            run_script("pool_census.py", "--shape", "2", "4", "2", "--seeds", "2").splitlines()]
    assert [(row["shape"], row["seed"]) for row in rows] == [([2, 4, 2], 1), ([2, 4, 2], 2)]
    # seed 1's top layer copies, so its run determinizes
    assert rows[0]["det"]
    for row in rows:
        assert row["outcome"] in ("layered", "exponential"), row
        assert row["cpu_s"] >= 0
        # the CPU seconds of each determinization, in call order
        assert len(row["det_s"]) == len(row["det"])
        assert all(t >= 0 for t in row["det_s"])
        if row["outcome"] == "layered":
            assert row["equiv"] == "equivalent" and row["k"] == max(row["degree"] - 1, 0)
            assert row["size"] == row["states"] * row["registers"]
            assert sum(row["layers"]) == row["registers"]


def test_interp_rate_reports_each_machine():
    lines = run_script("interp_rate.py", "1000").splitlines()
    rows = [json.loads(line) for line in lines
            if '"maxlen"' not in line and '"load_cpu_s"' not in line]
    assert [row["machine"] for row in rows] == [
        "reverse_two_way", "copy_two_way", "mul_marble", "pow2_marble",
        "identity_sst", "reverse_sst", "mul_sst", "exp_sst"]
    for row in rows:
        assert row["size"] == 1000 and 900 <= row["letters"] <= 1100, row
        assert row["steps"] >= row["input"] and row["cpu_s"] > 0, row
        assert row["steps_per_s"] > 0 and row["letters_per_s"] > 0, row
        assert row["cpu_ref_s"] > 0 and row["steps_per_ref_s"] > 0, row
        assert row["letters_per_ref_s"] > 0, row
        assert row["cli_cpu_s"] > 0 and row["cli_cpu_ref_s"] > 0, row
    # reverse_two_way: a pass right, a pass back and a pass right again
    assert rows[0]["steps"] == 3 * 1000 + 3
    # one equiv row per corpus transducer, at the longest length of at most
    # 1000 words (and at most 16 letters)
    rows = [json.loads(line) for line in lines if '"maxlen"' in line]
    assert [row["machine"] for row in rows] == [
        name for name in CORPUS_NAMES if not name.endswith("_flow")]
    maxlen = {1: 16, 2: 8, 3: 5, 4: 4}
    for row in rows:
        k = len(load(row["machine"]).input_alphabet)
        assert row["size"] == 1000 and row["maxlen"] == maxlen[k], row
        assert row["words"] == sum(k ** n for n in range(maxlen[k] + 1)), row
        assert row["cpu_s"] > 0 and row["words_per_s"] > 0, row
        assert row["cpu_ref_s"] > 0 and row["words_per_ref_s"] > 0, row
    # the two-way files are read through their crossing SSTs, and the marble
    # files, which have colours, walk
    route = {row["machine"]: row["route"] for row in rows}
    for name in ("copy_two_way", "reverse_two_way"):
        assert route[name] == ["crossing-sst"] * 2, name
    for name in ("mul_marble", "pow2_marble", "exp_marble"):
        assert route[name] == ["walk"] * 2, name
    assert route["identity_sst"] == ["sst"] * 2
    # one load row per corpus file: parse_machine against json.load of it
    rows = [json.loads(line) for line in lines if '"load_cpu_s"' in line]
    assert [row["machine"] for row in rows] == CORPUS_NAMES
    for row in rows:
        assert row["load_cpu_s"] > 0 and row["json_cpu_s"] > 0, row
        assert abs(row["ratio"] - row["load_cpu_s"] / row["json_cpu_s"]) <= 1e-3, row
        assert row["load_ref_s"] > 0 and row["json_ref_s"] > 0, row


def load_file(name: str, path: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve():
    # perfbench/run.py --trace 1 wraps each listed function, found by name
    spans = load_file("perfbench_spans", os.path.join(ROOT, "perfbench", "spans.py"))
    for module, names in spans.LAYERS.items():
        mod = importlib.import_module("xducer.%s" % module)
        for name in names:
            assert callable(getattr(mod, name, None)), "%s.%s" % (module, name)


def test_line_coverage_lists_statements_a_run_missed():
    out = run_script("line_coverage.py", "-q", "-p", "no:cacheprovider",
                     os.path.join(ROOT, "tests", "test_machines.py"))
    summary = dict(re.findall(r"^(\w+\.py): (\d+ of \d+) statements", out, re.M))
    assert sorted(summary) == sorted(
        name for name in os.listdir(os.path.join(ROOT, "src", "xducer"))
        if name.endswith(".py"))
    # these tests never classify growth, and they reach every validate fault
    missed, total = map(int, summary["growth.py"].split(" of "))
    assert missed == total > 0
    missed, total = map(int, summary["machines.py"].split(" of "))
    assert 0 < missed < total
    assert "  machines.py:" in out and "unknown machine type" not in out
