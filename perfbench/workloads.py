"""The four workloads: what set-up writes, which CLI calls run, and their checks.

Each workload is the batch of one CLI command.  ``batch_<command>(workdir,
seed, pools)`` writes the machine files its operations read (and, for ``run``
and ``equiv``, builds the pipeline outputs they consume through the CLI) and
returns the batch as a list of ``Op``.  An op's ``check`` judges the first
execution of that op against an independent reference and returns
``(status, reason)``:

* ``ok``: the result matches the reference;
* ``refused``: the program gave no answer (non-zero exit, reject, budget,
  exception) where the reference has one.  Counted as a failure;
* ``wrong``: the program answered and the answer contradicts the reference.
  Counted as a failure and makes the run's ``correct`` false.
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable, Optional

from xducer import cli
from xducer.machine_io import dumps_machine, parse_machine
from xducer.machines import SST, check_layered
from xducer.oracle import equiv_check, words_up_to
from xducer.semantics import ACCEPT, eval_nautomaton

import refs
from gen import pool_machine, random_word, stratified_draw

OK, REFUSED, WRONG = "ok", "refused", "wrong"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS_DIR = os.path.join(ROOT, "corpus")


@dataclass
class Result:
    rc: Optional[int]
    stdout: str
    stderr: str
    error: Optional[str] = None   # text of an exception raised by main


@dataclass
class Op:
    name: str
    argv: list
    check: Callable            # (Result, Op) -> (status, reason)
    out_path: Optional[str] = None
    letters: int = 0           # output letters a passing ``run`` op verifies
    words: int = 0             # input words a passing ``equiv`` op compares
    stats: dict = field(default_factory=dict)  # filled by the check


class SetupError(RuntimeError):
    pass


def call_cli(argv: list) -> Result:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # an op that crashes is counted, not fatal
            return Result(None, out.getvalue(), err.getvalue(),
                          "%s: %s" % (type(exc).__name__, exc))
    return Result(rc, out.getvalue(), err.getvalue())


def _no_answer(res: Result, want: str):
    if res.error is not None:
        return REFUSED, res.error
    return REFUSED, "exit %s (%s), expected %s" % (
        res.rc, res.stderr.strip()[:120], want)


def _copy_corpus(workdir: str, name: str) -> str:
    path = os.path.join(workdir, name + ".json")
    shutil.copyfile(os.path.join(CORPUS_DIR, name + ".json"), path)
    return path


def _write(workdir: str, name: str, machine) -> str:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_machine(machine))
    return path


def _build(argv: list) -> None:
    """A set-up step through the CLI; set-up must not fail."""
    res = call_cli(argv)
    if res.rc != 0:
        raise SetupError("set-up step %s failed: exit %s %s %s"
                         % (" ".join(argv), res.rc, res.error or "",
                            res.stderr.strip()[:200]))


def _members(pools: dict, pool: str) -> list:
    return pools["pools"][pool]["members"]


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------

CHECK_MAXLEN = {1: 8, 2: 5, 3: 4}   # alphabet size -> exhaustive check length

# Optimizing mul_marble builds a 47,257-state walker (~5 s, ~500 MB); on the
# 2-core machine the benchmark was sized on, that one op varied by +-15 %
# between processes and made optimize's wall_s spread 20-30 % across seeds.
OPTIMIZE_LEFT_OUT = ("mul_marble",)


def _check_optimize(src: str, out: str, degree, is_flow: bool, rng_words):
    def check(res: Result, op: Op):
        if is_flow:
            if res.rc == 1:
                return OK, ""
            return _no_answer(res, "exit 1")
        if res.error is not None or res.rc not in (0, 4):
            return _no_answer(res, "exit %d" % (4 if degree is None else 0))
        doc = refs.first_json_line(res.stdout)
        if degree is None:
            if res.rc != 4:
                return WRONG, "optimized an exponential machine"
            why = refs.growth_matches(doc, None)
            return (WRONG, why) if why else (OK, "")
        if res.rc != 0:
            return WRONG, "reported exponential growth for degree %d" % degree
        why = refs.growth_matches(doc["growth"], degree)
        if why:
            return WRONG, why
        source, _ = parse_machine(src, check=False)
        emitted, layers = parse_machine(out, check=False)
        op.stats = {"out_bytes": os.path.getsize(out),
                    "out_states": len(emitted.states)}
        want_k = max(degree - 1, 0)
        depth = None
        if isinstance(source, SST):
            if doc.get("k") != want_k:
                return WRONG, "k=%r, expected %d" % (doc.get("k"), want_k)
            if layers is None or len(layers) - 1 != want_k:
                return WRONG, "emitted %r layers for k=%d" % (layers, want_k)
            problems = check_layered(emitted, layers)
            if problems:
                return WRONG, "not layered: %s" % "; ".join(problems[:3])
        else:
            if doc.get("k_min") != want_k:
                return WRONG, "k_min=%r, expected %d" % (doc.get("k_min"), want_k)
            depth = want_k
        alphabet = sorted(source.input_alphabet)
        maxlen = CHECK_MAXLEN.get(len(alphabet), 3)
        verdict = equiv_check(emitted, source, maxlen, budget=refs.CHECK_BUDGET)
        if verdict.status == "counterexample":
            return WRONG, "differs from source on %r" % ("".join(verdict.counterexample[0]),)
        words = list(words_up_to(alphabet, maxlen if verdict.status != "equivalent"
                                 else min(maxlen, 3)))
        words += [tuple(random_word(rng_words, alphabet, rng_words.randint(8, 12)))
                  for _ in range(4)]
        diff = refs.same_function_on(words, emitted, source, max_depth=depth)
        if diff is not None:
            return WRONG, "on %r: %s" % ("".join(diff[0]), diff[1])
        return OK, ""
    return check


def _optimize_op(workdir: str, name: str, src: str, degree, is_flow: bool,
                 rng) -> Op:
    out = os.path.join(workdir, name + ".opt.json")
    words_rng = random.Random(rng.random())
    return Op("optimize:" + name, ["optimize", src, "-o", out],
              _check_optimize(src, out, degree, is_flow, words_rng), out_path=out)


def batch_optimize(workdir: str, seed: int, pools: dict) -> list:
    rng = random.Random("optimize:%d" % seed)
    ops = []
    # (pool, members taken from every group of consecutive members)
    for pool, take, group in (("opt_sst", 1, 2), ("opt_marble", 3, 4)):
        for entry in stratified_draw(rng, _members(pools, pool), take, group):
            name = "%s_%d" % (pool, entry["index"])
            src = _write(workdir, name, pool_machine(pool, entry["index"]))
            ops.append(_optimize_op(workdir, name, src, entry["degree"], False, rng))
    for name in sorted(refs.CORPUS):
        if name in OPTIMIZE_LEFT_OUT:
            continue
        degree, _fn = refs.CORPUS[name]
        ops.append(_optimize_op(workdir, name, _copy_corpus(workdir, name),
                                degree, name in refs.FLOW_FILES, rng))
    return ops


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

PUMPS = (1, 2, 3)


def _check_analyze(src: str, degree, is_flow: bool):
    def check(res: Result, op: Op):
        if res.error is not None or res.rc != 0:
            return _no_answer(res, "exit 0")
        doc = refs.first_json_line(res.stdout)
        why = refs.growth_matches(doc, degree)
        if why:
            return WRONG, why
        if degree == 0:
            return OK, ""
        source, _ = parse_machine(src, check=False)
        for p in PUMPS:
            word = refs.pump(doc["witness"], doc["class"], degree, p)
            floor = 2 ** p if degree is None else p ** degree
            if is_flow:
                size = eval_nautomaton(source, word)
            else:
                r = refs.interpret(source, word)
                if r.verdict != ACCEPT:
                    return WRONG, "witness %r leaves the domain (%s)" % (
                        "".join(word), r.verdict)
                size = len(r.output)
            if size < floor:
                return WRONG, "witness with %d pumps gives %d < %d letters" % (
                    p, size, floor)
        return OK, ""
    return check


def batch_analyze(workdir: str, seed: int, pools: dict) -> list:
    rng = random.Random("analyze:%d" % seed)
    ops = []
    for name in sorted(refs.CORPUS):
        degree, _fn = refs.CORPUS[name]
        src = _copy_corpus(workdir, name)
        ops.append(Op("analyze:" + name, ["analyze", src],
                      _check_analyze(src, degree, name in refs.FLOW_FILES)))
    for entry in stratified_draw(rng, _members(pools, "ana_sst"), 3, 4):
        name = "ana_sst_%d" % entry["index"]
        src = _write(workdir, name, pool_machine("ana_sst", entry["index"]))
        ops.append(Op("analyze:" + name, ["analyze", src],
                      _check_analyze(src, entry["degree"], False)))
    return ops


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

RUNGS = (1000, 2000, 4000, 8000, 16000)   # output letters, before jitter
# run_sst is quadratic in |w|, and mul_marble in the number of 0s.
QUADRATIC_RUNGS = RUNGS[:4]
EXP_LENGTHS = tuple(range(10, 19))        # exp_sst: a^n -> a^(2^n)
WALKER_LENGTHS = (40, 70)                 # pow2 walker: a^n -> a^(n^2)


def _check_run(word: str, fn):
    expected = fn(word) + "\n"

    def check(res: Result, op: Op):
        if res.error is not None or res.rc != 0:
            return _no_answer(res, "exit 0 with %d letters" % (len(expected) - 1))
        if res.stdout != expected:
            return WRONG, "output differs from the reference (%d vs %d letters)" % (
                len(res.stdout) - 1, len(expected) - 1)
        return OK, ""
    return check


def _run_op(name: str, path: str, word: str, fn) -> Op:
    return Op("run:%s:%d" % (name, len(word)), ["run", path, word],
              _check_run(word, fn), letters=len(fn(word)))


def _jitter(rng, n: int) -> int:
    return max(1, int(n * rng.uniform(0.98, 1.02)))


MUL_PREFIX = 31   # |u| in u#0^n; mul_marble's time grows with n^2, so n = letters / 32


def _mul_word(rng, letters: int) -> str:
    u = random_word(rng, "ab", MUL_PREFIX)
    return u + "#" + "0" * max(1, letters // (MUL_PREFIX + 1))


def batch_run(workdir: str, seed: int, pools: dict) -> list:
    rng = random.Random("run:%d" % seed)
    files = {name: _copy_corpus(workdir, name) for name in (
        "identity_sst", "reverse_sst", "mul_sst", "mul_sst_copyful", "exp_sst",
        "reverse_two_way", "copy_two_way", "mul_marble", "pow2_marble")}
    walker = os.path.join(workdir, "pow2_marble.walker.json")
    _build(["optimize", files["pow2_marble"], "-o", walker])
    layered = os.path.join(workdir, "mul_sst_copyful.layered.json")
    _build(["optimize", files["mul_sst_copyful"], "-o", layered])
    ops = []
    # (machine, path, rungs, words per rung, word maker, reference)
    ladders = (
        ("identity_sst", files["identity_sst"], QUADRATIC_RUNGS, 2,
         lambda n: random_word(rng, "ab", n), refs.identity),
        ("reverse_sst", files["reverse_sst"], QUADRATIC_RUNGS, 2,
         lambda n: random_word(rng, "abc", n), refs.reverse),
        ("reverse_two_way", files["reverse_two_way"], RUNGS, 3,
         lambda n: random_word(rng, "abc", n), refs.reverse),
        ("copy_two_way", files["copy_two_way"], RUNGS, 3,
         lambda n: random_word(rng, "ab", n // 2), refs.double),
        ("mul_sst", files["mul_sst"], RUNGS, 3,
         lambda n: _mul_word(rng, n), refs.mul),
        ("mul_sst_copyful.layered", layered, RUNGS, 3,
         lambda n: _mul_word(rng, n), refs.mul),
        ("mul_marble", files["mul_marble"], QUADRATIC_RUNGS, 2,
         lambda n: _mul_word(rng, n), refs.mul),
        ("pow2_marble", files["pow2_marble"], RUNGS, 3,
         lambda n: "a" * round(n ** 0.5), refs.square),
    )
    for name, path, rungs, per_rung, make, fn in ladders:
        for rung in rungs:
            for _ in range(per_rung):
                ops.append(_run_op(name, path, make(_jitter(rng, rung)), fn))
    for n in EXP_LENGTHS:
        ops.append(_run_op("exp_sst", files["exp_sst"], "a" * n, refs.power2))
    # The minimized pow2_marble walker recovers its one-way state with a
    # counter that only reaches 64, so a^n with n >= 64 is rejected although
    # the source accepts it: the second word fails at the seed commit, and
    # stays in the batch so that the defect shows.
    for n in WALKER_LENGTHS:
        ops.append(_run_op("pow2_marble.walker", walker,
                           "a" * (n + rng.randint(0, 1)), refs.square))
    return ops


# ---------------------------------------------------------------------------
# equiv
# ---------------------------------------------------------------------------

# (source, how its partner is built, maxlen).  Every pair is equivalent.
# pow2_marble_wasteful is only paired with its convert output: an equiv on
# its 6,370-state optimize output spends ~0.8 s in validate alone.
CORPUS_PAIRS = (
    ("identity_sst", "optimize", 8),
    ("reverse_sst", "optimize", 6),
    ("reverse_sst_copyful", "optimize", 6),
    ("mul_sst", "optimize", 6),
    ("mul_sst_copyful", "optimize", 6),
    ("bounded_pair_sst", "optimize", 8),
    ("pow2_marble", "optimize", 8),
    ("copy_two_way", "optimize", 7),
    ("reverse_two_way", "optimize", 6),
    ("exp_marble", "convert", 8),
    ("mul_marble", "convert", 6),
    ("pow2_marble", "convert", 8),
    ("pow2_marble_wasteful", "convert", 8),
    ("copy_two_way", "convert", 7),
    ("reverse_two_way", "convert", 6),
)
RANDOM_MAXLEN = 6


def _word_count(alphabet_size: int, maxlen: int) -> int:
    return sum(alphabet_size ** i for i in range(maxlen + 1))


def _check_equiv(maxlen: int):
    def check(res: Result, op: Op):
        if res.error is not None or res.rc not in (0, 2):
            return _no_answer(res, "exit 0")
        doc = refs.first_json_line(res.stdout)
        if res.rc != 0 or doc != {"maxlen": maxlen, "status": "equivalent"}:
            return WRONG, "reported %s for an equivalent pair" % json.dumps(doc)[:200]
        return OK, ""
    return check


def _equiv_op(rng, name: str, a: str, b: str, maxlen: int, letters: int) -> Op:
    if rng.random() < 0.5:
        a, b = b, a
    return Op("equiv:%s:%d" % (name, maxlen),
              ["equiv", a, b, "--maxlen", str(maxlen)], _check_equiv(maxlen),
              words=_word_count(letters, maxlen))


def batch_equiv(workdir: str, seed: int, pools: dict) -> list:
    rng = random.Random("equiv:%d" % seed)
    ops = []
    for name, how, maxlen in CORPUS_PAIRS:
        src = _copy_corpus(workdir, name)
        partner = os.path.join(workdir, "%s.%s.json" % (name, how))
        if how == "optimize":
            _build(["optimize", src, "-o", partner])
        else:
            _build(["convert", "--to", "sst", src, "-o", partner])
        with open(src, encoding="utf-8") as fh:
            letters = len(json.load(fh)["input_alphabet"])
        ops.append(_equiv_op(rng, "%s.%s" % (name, how), src, partner, maxlen, letters))
    # Exponential members have no optimized partner to compare with.
    polynomial = [e for e in _members(pools, "opt_sst") if e["degree"] is not None]
    for entry in stratified_draw(rng, polynomial, 4, 5):
        name = "opt_sst_%d" % entry["index"]
        machine = pool_machine("opt_sst", entry["index"])
        src = _write(workdir, name, machine)
        partner = os.path.join(workdir, name + ".optimize.json")
        _build(["optimize", src, "-o", partner])
        ops.append(_equiv_op(rng, name + ".optimize", src, partner, RANDOM_MAXLEN,
                             len(machine.input_alphabet)))
    return ops


SETUPS = {
    "optimize": batch_optimize,
    "analyze": batch_analyze,
    "run": batch_run,
    "equiv": batch_equiv,
}

# Per CLI command, the modules one of which should have the largest self
# time over that command's operations in a traced pass.
EXPECTED_TOP_LAYER = {
    "optimize": ("layering", "sst2mt"),
    "analyze": ("growth",),
    "run": ("semantics",),
    "equiv": ("semantics", "oracle"),
}
