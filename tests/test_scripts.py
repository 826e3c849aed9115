"""Smoke runs of the experiment scripts under scripts/."""

import os
import subprocess
import sys

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def run_script(name: str) -> str:
    res = subprocess.run([sys.executable, os.path.join(SCRIPTS, name)],
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_pipeline_demo_rebuilds_every_corpus_machine():
    lines = [line for line in run_script("pipeline_demo.py").splitlines()
             if not line.startswith("==")]
    assert len(lines) == 10
    for line in lines:
        assert "equiv<=4:equivalent" in line or "exponential growth" in line, line


def test_growth_sweep_agrees_with_brute_force():
    out = run_script("growth_sweep.py")
    assert "disagreements with brute force (|v| <= 6): 0" in out
