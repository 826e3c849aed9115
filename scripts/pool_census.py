#!/usr/bin/env python3
"""Census of ``to_k_layered`` on the benchmark's random layered SST pool.

Runs ``to_k_layered(perfbench.gen.pool_machine("opt_sst", i))`` for each
member i, each in its own child process under a CPU-time and an address-space
limit, and prints one JSON line per member:

- ``outcome``: "layered", "exponential", the MachineError message of a
  refusal, or "killed" (with the signal or error) when a limit ended it;
- ``cpu_s``: the child's CPU seconds;
- ``states``, ``registers``, ``size`` (states x registers) and ``sha256`` of
  ``dumps_machine`` for a layered output;
- ``nsstf`` and ``det``: [states, registers] of every occurrence-profile
  machine and every determinization the run built, in call order.

Usage: pool_census.py [FIRST [LAST]]   (members FIRST..LAST, default 0..39)
"""

import hashlib
import json
import os
import resource
import signal
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

CPU_LIMIT_S = 60
ADDRESS_SPACE_LIMIT = 3 * 2 ** 30


def census(index: int) -> dict:
    """Run one member in this process and describe what it built."""
    from perfbench.gen import pool_machine
    from xducer import layering
    from xducer.machine_io import dumps_machine
    from xducer.machines import MachineError

    row = {"member": index, "nsstf": [], "det": []}
    for name, key in (("bounded_sstf_to_unambiguous", "nsstf"),
                      ("determinize_nsstf", "det")):
        def sized(m, _original=getattr(layering, name), _key=key):
            out = _original(m)
            row[_key].append([len(out.states), len(out.registers)])
            return out
        setattr(layering, name, sized)
    try:
        res = layering.to_k_layered(pool_machine("opt_sst", index))
    except MachineError as err:
        row["outcome"] = str(err)
    except MemoryError:
        row["outcome"] = "killed (MemoryError)"
    else:
        row["outcome"] = res.kind
        if res.kind == "layered":
            m = res.machine
            row.update(states=len(m.states), registers=len(m.registers),
                       size=len(m.states) * len(m.registers),
                       sha256=hashlib.sha256(
                           dumps_machine(m, res.layers).encode()).hexdigest())
    return row


def limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_LIMIT_S, CPU_LIMIT_S))
    resource.setrlimit(resource.RLIMIT_AS,
                       (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def main(argv) -> int:
    if argv and argv[0] == "--member":
        print(json.dumps(census(int(argv[1]))))
        return 0
    first = int(argv[0]) if argv else 0
    last = int(argv[1]) if len(argv) > 1 else (first if argv else 39)
    for index in range(first, last + 1):
        before = child_cpu_s()
        res = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--member", str(index)],
            capture_output=True, text=True, preexec_fn=limit_child)
        cpu = round(child_cpu_s() - before, 2)
        lines = res.stdout.splitlines()
        if res.returncode == 0 and lines:
            row = json.loads(lines[-1])
        elif res.returncode < 0:
            row = {"member": index, "outcome": "killed (%s)"
                   % signal.Signals(-res.returncode).name}
        else:
            tail = res.stderr.strip().splitlines()
            row = {"member": index, "outcome": "killed (%s)"
                   % (tail[-1] if tail else "exit %d" % res.returncode)}
        row["cpu_s"] = cpu
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
