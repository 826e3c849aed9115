#!/usr/bin/env python3
"""Drive the minimization pipeline across the machines in corpus/ and report.

For each register machine: growth class, minimal layer count, and a bounded
equivalence check of the rewritten machine.  For each marble machine: the
minimal mark count, and the state count and measured stack depth of the
rebuilt machine.
"""

import glob
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from xducer.layering import minimize_marbles, to_k_layered  # noqa: E402
from xducer.machine_io import parse_machine  # noqa: E402
from xducer.oracle import equiv_check, words_up_to  # noqa: E402
from xducer.semantics import run_marble  # noqa: E402


def measure_depth(machine, maxlen=5, cap=4000):
    worst = 0
    for w in words_up_to(machine.input_alphabet, maxlen, cap=cap):
        r = run_marble(machine, w)
        if r.accepted:
            worst = max(worst, r.max_stack_depth)
    return worst


def main() -> None:
    ssts = ["exp_sst", "reverse_sst", "reverse_sst_copyful", "mul_sst",
            "mul_sst_copyful", "bounded_pair_sst"]
    marbles = ["exp_marble", "mul_marble", "pow2_marble",
               "pow2_marble_wasteful"]
    corpus = os.path.join(os.path.dirname(__file__), "..", "corpus")
    machines = {os.path.basename(path)[:-5]: parse_machine(path)[0]
                for path in sorted(glob.glob(os.path.join(corpus, "*.json")))}

    print("== register machines ==")
    for name in ssts:
        m = machines[name]
        start = time.monotonic()
        res = to_k_layered(m)
        took = time.monotonic() - start
        if res.kind == "exponential":
            print("%-22s exponential growth (%.2fs)" % (name, took))
            continue
        verdict = equiv_check(res.machine, m, 4)
        print("%-22s k=%d  states=%-4d regs=%-4d equiv<=4:%s (%.2fs)"
              % (name, res.k, len(res.machine.states),
                 len(res.machine.registers), verdict.status, took))

    print("== marble machines ==")
    for name in marbles:
        m = machines[name]
        start = time.monotonic()
        res = minimize_marbles(m)
        took = time.monotonic() - start
        if res.kind == "exponential":
            print("%-22s exponential growth (%.2fs)" % (name, took))
            continue
        verdict = equiv_check(res.machine, m, 4)
        print("%-22s k_min=%d  states=%-4d depth<=4:%d equiv<=4:%s (%.2fs)"
              % (name, res.k, len(res.machine.states),
                 measure_depth(res.machine, 4), verdict.status, took))


if __name__ == "__main__":
    main()
