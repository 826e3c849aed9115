#!/usr/bin/env python3
"""Interpreter throughput: steps and output letters per CPU second, and
``equiv`` words per CPU second.

Runs eight corpus machines on one word per size and prints one JSON line per
run: ``machine``, ``size``, ``input`` (letters read), ``steps`` (of the run,
as ``RunResult.steps`` counts them), ``letters`` (of output), ``cpu_s``,
``steps_per_s`` and ``letters_per_s``.  ``cpu_s`` is the least
``time.process_time`` of one run, over as many runs as it takes to spend
``MIN_CPU_S`` (0.2 s; ``least_cpu``), so a run of 0.1 ms is repeated about
2,000 times and one of 30 ms about 7.  The host's speed drifts between
invocations, so each row also gives ``cpu_ref_s``, ``steps_per_ref_s`` and
``letters_per_ref_s``: the same figures at ``perfbench/speed.py``'s
``REFERENCE_S``, scaled by the median of ``PROBES`` speed probes taken
before the row and as many after it.

A size is the output length, as in the benchmark's ``run`` ladder: the
one-way and two-way machines read words of about that many letters, while
``mul_marble`` and ``mul_sst`` read u#0^n with |u| = 31, ``pow2_marble`` a^n
and ``exp_sst`` a^n, each with n chosen so that the output has about that
many letters.  ``mul_sst`` crosses each block of its input in one register
sweep, and ``exp_sst``, whose ``x := x·x`` has none, steps every letter.

Then it prints one ``equiv`` row per corpus transducer and size:
``machine``, ``size``, ``maxlen``, ``words`` (up to ``maxlen``), ``cpu_s``,
``words_per_s``, ``cpu_ref_s`` and ``words_per_ref_s``, measured as above.
A row runs ``equiv_check(m, m, L)``, where L is the largest length whose
words number at most ``size``, so the rows show how the check scales in
its length, which the benchmark's fixed lengths (6-8) cannot.
L is at most ``MAX_WORD_LEN`` (16), which only a one-letter alphabet
reaches: past it, a check mostly writes long outputs (``pow2_marble``'s
grow as n², ``exp_sst``'s as 2^n) and measures that, not the walk.

Last it prints one ``load`` row per corpus file: ``machine``,
``load_cpu_s`` (``parse_machine``: reading, building and checking the
machine, and for an SST compiling its register programs), ``json_cpu_s``
(``json.load`` of the same file), their ``ratio``, and ``load_ref_s`` and
``json_ref_s`` at reference speed, each measured as above.

Usage: interp_rate.py [SIZE ...]   (default 1000 4000 16000)
"""

import json
import math
import os
import random
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from speed import at_reference, probe  # noqa: E402
from xducer.machine_io import parse_machine  # noqa: E402
from xducer.oracle import equiv_check  # noqa: E402
from xducer.semantics import run_machine  # noqa: E402

MIN_CPU_S = 0.2
PROBES = 9
MAX_WORD_LEN = 16


def word(name: str, size: int, rng) -> str:
    """The word of about ``size`` output letters that ``name`` reads."""
    if name in ("mul_marble", "mul_sst"):
        return "".join(rng.choice("ab") for _ in range(31)) + "#" + "0" * (size // 32)
    if name == "pow2_marble":
        return "a" * round(size ** 0.5)
    if name == "exp_sst":
        return "a" * round(math.log2(size))
    if name == "copy_two_way":
        return "".join(rng.choice("ab") for _ in range(size // 2))
    return "".join(rng.choice("abc" if name.startswith("reverse") else "ab")
                   for _ in range(size))


def least_cpu(run) -> tuple:
    """(least ``time.process_time`` of one ``run()``, its result), over as
    many runs as it takes to spend ``MIN_CPU_S``."""
    best, spent = None, 0.0
    while spent < MIN_CPU_S:
        start = time.process_time()
        result = run()
        cpu = time.process_time() - start
        spent += cpu
        best = cpu if best is None else min(best, cpu)
    return max(best, 1e-9), result


def rate(name: str, size: int) -> dict:
    machine, _layers = parse_machine(os.path.join(ROOT, "corpus", "%s.json" % name))
    w = word(name, size, random.Random("%s:%d" % (name, size)))
    probes = [probe() for _ in range(PROBES)]
    best, res = least_cpu(lambda: run_machine(machine, w))
    if not res.accepted:
        raise SystemExit("%s rejects its %d-letter word" % (name, len(w)))
    probes += [probe() for _ in range(PROBES)]
    ref = at_reference(best, probes)
    return {"machine": name, "size": size, "input": len(w), "steps": res.steps,
            "letters": len(res.output), "cpu_s": round(best, 6),
            "steps_per_s": round(res.steps / best),
            "letters_per_s": round(len(res.output) / best),
            "cpu_ref_s": round(ref, 6),
            "steps_per_ref_s": round(res.steps / ref),
            "letters_per_ref_s": round(len(res.output) / ref)}


def equiv_rate(name: str, size: int) -> dict:
    machine, _layers = parse_machine(os.path.join(ROOT, "corpus", "%s.json" % name))
    k = len(machine.input_alphabet)
    maxlen, words = 0, 1
    while maxlen < MAX_WORD_LEN and words + k ** (maxlen + 1) <= size:
        maxlen += 1
        words += k ** maxlen
    probes = [probe() for _ in range(PROBES)]
    best, verdict = least_cpu(lambda: equiv_check(machine, machine, maxlen))
    if not verdict.equivalent:
        raise SystemExit("%s is %s to itself up to length %d" % (name, verdict.status, maxlen))
    probes += [probe() for _ in range(PROBES)]
    ref = at_reference(best, probes)
    return {"machine": name, "size": size, "maxlen": maxlen, "words": words,
            "cpu_s": round(best, 6), "words_per_s": round(words / best),
            "cpu_ref_s": round(ref, 6), "words_per_ref_s": round(words / ref)}


def load_rate(name: str) -> dict:
    path = os.path.join(ROOT, "corpus", "%s.json" % name)

    def json_load():
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    probes = [probe() for _ in range(PROBES)]
    load, _machine = least_cpu(lambda: parse_machine(path))
    plain, _doc = least_cpu(json_load)
    probes += [probe() for _ in range(PROBES)]
    return {"machine": name, "load_cpu_s": round(load, 9), "json_cpu_s": round(plain, 9),
            "ratio": round(load / plain, 3),
            "load_ref_s": round(at_reference(load, probes), 9),
            "json_ref_s": round(at_reference(plain, probes), 9)}


MACHINES = ("reverse_two_way", "copy_two_way", "mul_marble", "pow2_marble",
            "identity_sst", "reverse_sst", "mul_sst", "exp_sst")


# every corpus file but the two flow automata, which have no outputs to compare
EQUIV_MACHINES = ("bounded_pair_sst", "copy_two_way", "exp_marble", "exp_sst", "identity_sst",
                  "mul_marble", "mul_sst", "mul_sst_copyful", "pow2_marble",
                  "pow2_marble_wasteful", "reverse_sst", "reverse_sst_copyful",
                  "reverse_two_way")


def main(argv) -> None:
    sizes = [int(a) for a in argv] or [1000, 4000, 16000]
    for name in MACHINES:
        for size in sizes:
            print(json.dumps(rate(name, size)), flush=True)
    for name in EQUIV_MACHINES:
        for size in sizes:
            print(json.dumps(equiv_rate(name, size)), flush=True)
    corpus = os.path.join(ROOT, "corpus")
    for name in sorted(f[:-5] for f in os.listdir(corpus) if f.endswith(".json")):
        print(json.dumps(load_rate(name)), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
