#!/usr/bin/env python3
"""Census of ``to_k_layered`` on random layered SSTs.

Runs ``to_k_layered`` on each source machine, each in its own child process
under a CPU-time and an address-space limit, and prints one JSON line per
machine:

- ``outcome``: "layered", "exponential", the MachineError message of a
  refusal, or "killed" (with the signal or error) when a limit ended it;
- ``cpu_s``: the child's CPU seconds;
- ``states``, ``registers``, ``layers`` (the register count of each layer,
  bottom first), ``size`` (states x registers) and ``sha256`` of
  ``dumps_machine`` for a layered output, with its ``k``, the growth
  ``degree`` and ``build_s``, the CPU seconds ``to_k_layered`` took;
- ``equiv`` for a layered output: the ``equiv_check`` status of the output
  against its source on every word of at most ``EQUIV_LENGTH`` letters;
- ``out_degree`` and ``classify_s`` for a layered output: the growth degree
  ``classify_function`` reports on the output, and the CPU seconds it took;
- ``nsstf`` and ``det``: [states, registers] of every occurrence-profile
  machine and every determinization the run built, in call order, and
  ``det_s``: the CPU seconds of each determinization, in the same order.

The child prints its row as soon as ``to_k_layered`` returns and again after
each check, so a limit that ends one of the checks keeps the sizes: the row
is the child's last complete line, and each check it did not reach reads
"killed" with the reason.

A marble row (``--marble``) is of ``marble_to_sst`` and ``minimize_marbles``
instead: ``states``, ``registers``, ``size`` and ``sha256`` of the SST that
``marble_to_sst`` writes, with ``convert_s``, the CPU seconds it took; then
``outcome`` ("marble", "exponential", a refusal, or "killed" when a limit
ended ``minimize_marbles``) and, for a marble outcome, ``k_min`` and
``walker_states``, the state count of the rebuilt marble machine.

Usage:
  pool_census.py [FIRST [LAST]]
      the benchmark pool, ``perfbench.gen.pool_machine("opt_sst", i)`` for
      members i = FIRST..LAST (default 0..39); rows carry ``member``
  pool_census.py --shape S R L [--seeds N]
      the size ladder, ``perfbench.gen.layered_sst(
      random.Random("ladder:S:R:L:seed"), S, R, L)`` for seeds 1..N
      (default 6); rows carry ``shape`` [S, R, L] and ``seed``
  pool_census.py --marble [FIRST [LAST]]
      the marble pool, ``perfbench.gen.pool_machine("opt_marble", i)`` for
      members i = FIRST..LAST (default 0..39); rows carry ``member``
"""

import hashlib
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

CPU_LIMIT_S = 60
ADDRESS_SPACE_LIMIT = 3 * 2 ** 30
EQUIV_LENGTH = 6


def source(spec: list):
    """The machine of ``spec``: ["member", i], ["marble", i] or
    ["ladder", S, R, L, seed]."""
    from perfbench.gen import layered_sst, pool_machine

    if spec[0] != "ladder":
        return pool_machine("opt_sst" if spec[0] == "member" else "opt_marble", spec[1])
    s, r, l, seed = spec[1:]
    return layered_sst(random.Random("ladder:%d:%d:%d:%d" % (s, r, l, seed)),
                       s, r, l)


def label(spec: list) -> dict:
    if spec[0] != "ladder":
        return {"member": spec[1]}
    return {"shape": spec[1:4], "seed": spec[4]}


CHECKS = ("equiv", "out_degree")   # keys of the checks run on a layered output


def marble_census(spec: list, emit) -> None:
    """Convert one marble machine in this process and ``emit`` its row: once
    when ``marble_to_sst`` returns and again when ``minimize_marbles`` does."""
    from xducer.layering import minimize_marbles
    from xducer.machine_io import dumps_machine
    from xducer.machines import MachineError
    from xducer.mt2sst import marble_to_sst

    row = label(spec)
    m = source(spec)
    try:
        start = time.process_time()
        sst = marble_to_sst(m)
        row.update(states=len(sst.states), registers=len(sst.registers),
                   size=len(sst.states) * len(sst.registers),
                   sha256=hashlib.sha256(dumps_machine(sst).encode()).hexdigest(),
                   convert_s=round(time.process_time() - start, 4))
        emit(row)
        res = minimize_marbles(m)
    except MachineError as err:
        row["outcome"] = str(err)
    else:
        row["outcome"] = res.kind
        if res.kind == "marble":
            row.update(k_min=res.k, walker_states=len(res.machine.states))
    emit(row)


def census(spec: list, emit) -> None:
    """Run one machine in this process and ``emit`` its row: once when the
    construction returns and again after each check on a layered output."""
    from xducer import layering
    from xducer.growth import classify_function
    from xducer.machine_io import dumps_machine
    from xducer.machines import MachineError
    from xducer.oracle import equiv_check

    row = dict(label(spec), nsstf=[], det=[], det_s=[])
    for name, key in (("bounded_sstf_to_unambiguous", "nsstf"),
                      ("determinize_nsstf", "det")):
        def sized(m, _original=getattr(layering, name), _key=key):
            start = time.process_time()
            out = _original(m)
            row[_key].append([len(out.states), len(out.registers)])
            if _key == "det":
                row["det_s"].append(round(time.process_time() - start, 3))
            return out
        setattr(layering, name, sized)
    m = source(spec)
    start = time.process_time()
    try:
        res = layering.to_k_layered(m)
    except MachineError as err:
        row["outcome"] = str(err)
    except MemoryError:
        row["outcome"] = "killed (MemoryError)"
    else:
        row["outcome"] = res.kind
        if res.kind == "layered":
            out = res.machine
            row.update(states=len(out.states), registers=len(out.registers),
                       layers=[len(layer) for layer in res.layers],
                       size=len(out.states) * len(out.registers),
                       sha256=hashlib.sha256(
                           dumps_machine(out, res.layers).encode()).hexdigest(),
                       k=res.k, degree=res.report.degree,
                       build_s=round(time.process_time() - start, 3))
            emit(row)
            row["equiv"] = equiv_check(out, m, EQUIV_LENGTH).status
            emit(row)
            start = time.process_time()
            row["out_degree"] = classify_function(out).degree
            row["classify_s"] = round(time.process_time() - start, 3)
    emit(row)


def limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_LIMIT_S, CPU_LIMIT_S))
    resource.setrlimit(resource.RLIMIT_AS,
                       (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def specs(argv) -> list:
    kind = "member"
    if argv and argv[0] == "--marble":
        kind, argv = "marble", argv[1:]
    elif argv and argv[0] == "--shape":
        shape = [int(v) for v in argv[1:4]]
        seeds = int(argv[5]) if argv[4:5] == ["--seeds"] else 6
        return [["ladder"] + shape + [seed] for seed in range(1, seeds + 1)]
    first = int(argv[0]) if argv else 0
    last = int(argv[1]) if len(argv) > 1 else (first if argv else 39)
    return [[kind, index] for index in range(first, last + 1)]


def row_of(spec: list, returncode: int, stdout: str, stderr: str) -> dict:
    """The row of a finished child: its last complete line, with each check
    it did not reach marked killed; or a killed outcome if it printed none."""
    row = None
    for line in stdout.splitlines():
        try:
            row = json.loads(line)
        except ValueError:  # a line cut short by the kill
            pass
    if returncode == 0 and row is not None:
        return row
    if returncode < 0:
        reason = "killed (%s)" % signal.Signals(-returncode).name
    else:
        tail = stderr.strip().splitlines()
        reason = "killed (%s)" % (tail[-1] if tail else "exit %d" % returncode)
    if row is None:
        return dict(label(spec), outcome=reason)
    for check in ("outcome",) if spec[0] == "marble" else CHECKS:
        row.setdefault(check, reason)
    return row


def main(argv) -> int:
    if argv and argv[0] == "--child":
        spec = json.loads(argv[1])
        (marble_census if spec[0] == "marble" else census)(
            spec, lambda row: print(json.dumps(row), flush=True))
        return 0
    for spec in specs(argv):
        before = child_cpu_s()
        res = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", json.dumps(spec)],
            capture_output=True, text=True, preexec_fn=limit_child)
        cpu = round(child_cpu_s() - before, 2)
        row = row_of(spec, res.returncode, res.stdout, res.stderr)
        row["cpu_s"] = cpu
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
