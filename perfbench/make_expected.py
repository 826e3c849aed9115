#!/usr/bin/env python3
"""Build ``expected.json``: the pools of seeded machines and their answers.

Run from the repository root:  python3 perfbench/make_expected.py

For each pool, candidates ``0, 1, 2, ...`` are generated by
``gen.pool_machine`` and kept when the operation they feed finishes without
a resource-limit error and within the pool's CPU-time cap (the caps keep a
batch of at least 100 operations inside a few seconds), until the pool has
its size; the workloads draw from every member.  A pool with fewer degree-3
members than its quota is an error.  Each kept member stores:

* ``degree``: the growth degree from ``oracle.brute_degree`` (exhaustive
  word-matrix search up to ``BRUTE_MAXLEN``), ``null`` when exponential.
  The classifier's own answer is compared once here; disagreements are
  listed in the file and the member keeps the brute-force answer.
* ``cost_s``: the CPU time of the member's CLI operation (``optimize -o``
  or ``analyze``) on the machine that built the file; the benchmark sorts
  members by it for its stratified draw.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, HERE)

from xducer.growth import flow_automaton, trim  # noqa: E402
from xducer.layering import make_total, to_simple  # noqa: E402
from xducer.machine_io import dumps_machine  # noqa: E402
from xducer.machines import validate  # noqa: E402
from xducer.mt2sst import marble_to_sst  # noqa: E402
from xducer.oracle import brute_degree  # noqa: E402

from gen import pool_machine  # noqa: E402
from workloads import call_cli  # noqa: E402

BRUTE_MAXLEN = 6

# pool -> (members kept, CPU-time cap in seconds, largest simplified register
# count, least number of degree-3 members).  Degree 3 is the only degree that
# makes ``optimize`` recurse into ``to_k_layered`` at k >= 2; 15 of the 176
# opt_sst members have it.
POOLS = {
    "opt_sst": (176, 0.25, None, 6),
    "ana_sst": (120, 0.2, 21, 0),
    "opt_marble": (40, 0.4, None, 0),
}


class OverCap(BaseException):
    """Raised by the CPU-time interval timer; not an Exception, so the CLI
    wrapper that counts crashing operations lets it through."""


def _over_cap(_signum, _frame):
    raise OverCap()


def brute(sst) -> int | None:
    simple = to_simple(make_total(sst)[0])
    return brute_degree(trim(flow_automaton(simple)), BRUTE_MAXLEN)


def flow_registers(sst) -> int:
    return len(to_simple(make_total(sst)[0]).registers)


def build_pool(pool: str, size: int, cap: float, max_regs, degree3: int,
               workdir: str) -> dict:
    members, skipped, disagreements = [], {}, []
    src = os.path.join(workdir, "member.json")
    out = os.path.join(workdir, "member.out.json")
    index = 0
    while len(members) < size:
        m = pool_machine(pool, index)
        index += 1
        if pool == "opt_marble" and validate(m):
            skipped["invalid"] = skipped.get("invalid", 0) + 1
            continue
        sst = marble_to_sst(m) if pool == "opt_marble" else m
        if max_regs is not None and flow_registers(sst) > max_regs:
            skipped["too_many_registers"] = skipped.get("too_many_registers", 0) + 1
            continue
        with open(src, "w", encoding="utf-8") as fh:
            fh.write(dumps_machine(m))
        argv = ["analyze", src] if pool == "ana_sst" else ["optimize", src, "-o", out]
        t0 = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, cap * 2)
        try:
            res = call_cli(argv)
        except OverCap:
            skipped["over_time_cap"] = skipped.get("over_time_cap", 0) + 1
            continue
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
        cost = time.process_time() - t0
        if res.rc not in (0, 4):
            key = "exit %s: %s" % (res.rc, res.error or res.stderr.strip())
            skipped[key] = skipped.get(key, 0) + 1
            continue
        doc = json.loads(res.stdout.splitlines()[0])
        if pool == "ana_sst":
            mine = doc.get("degree")
        elif res.rc == 4:
            mine = None
        else:
            mine = doc["k" if pool == "opt_sst" else "k_min"] + 1
        if cost > cap:
            skipped["over_time_cap"] = skipped.get("over_time_cap", 0) + 1
            continue
        degree = brute(sst)
        # optimize reports k = max(degree - 1, 0), so degrees 0 and 1 agree.
        if pool != "ana_sst" and mine is not None and degree is not None:
            agree = mine == max(degree, 1)
        else:
            agree = mine == degree
        if not agree:
            disagreements.append({"index": index - 1, "classify": mine,
                                  "brute": degree})
        members.append({"index": index - 1, "degree": degree,
                        "cost_s": round(cost, 4)})
        print("%s %d/%d index=%d degree=%s cost=%.3f"
              % (pool, len(members), size, index - 1, degree, cost), flush=True)
    if sum(1 for e in members if e["degree"] == 3) < degree3:
        raise SystemExit("%s: fewer than %d degree-3 members" % (pool, degree3))
    members.sort(key=lambda e: (e["cost_s"], e["index"]))
    return {"candidates_tried": index, "skipped": skipped,
            "disagreements": disagreements, "members": members}


def main() -> int:
    signal.signal(signal.SIGPROF, _over_cap)
    doc = {"brute_maxlen": BRUTE_MAXLEN, "pools": {}}
    workdir = os.path.join(os.getcwd(), ".perfbench_work", "make_expected")
    os.makedirs(workdir, exist_ok=True)
    for pool, (size, cap, max_regs, degree3) in POOLS.items():
        doc["pools"][pool] = build_pool(pool, size, cap, max_regs, degree3, workdir)
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
