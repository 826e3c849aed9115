"""References the benchmark checks outputs against.

The word functions are written out by hand from the corpus docstrings; the
corpus degrees are the documented ones.  The interpreter helpers below are
used only by the checks of ``optimize`` and ``analyze`` (run outside the
timed region), where the reference is the source machine itself.
"""

from __future__ import annotations

import json

from xducer.machines import MarbleTransducer
from xducer.semantics import ACCEPT, BUDGET, run_machine, run_marble

CHECK_BUDGET = 200000


def identity(w: str) -> str:
    return w


def reverse(w: str) -> str:
    return w[::-1]


def double(w: str) -> str:
    return w + w


def mul(w: str) -> str:
    """``u#0^n -> (u#)^n`` for ``u`` over ``{a, b}``."""
    u, zeros = w.split("#")
    if not (set(zeros) <= {"0"} and set(u) <= {"a", "b"}):
        raise ValueError("not of the form u#0^n: %r" % w)
    return (u + "#") * len(zeros)


def square(w: str) -> str:
    """``a^n -> a^(n^2)``."""
    return "a" * (len(w) ** 2)


def power2(w: str) -> str:
    """``a^n -> a^(2^n)``."""
    return "a" * (2 ** len(w))


# Corpus file -> (documented growth degree, None when exponential, and the
# word function for machines that are run).  Degrees come from the corpus
# docstrings: identity, reverse and copy are linear; mul and pow2 quadratic;
# exp exponential.  The two flow automata are NAutomaton files.
CORPUS = {
    "identity_sst": (1, identity),
    "reverse_sst": (1, reverse),
    "reverse_sst_copyful": (1, reverse),
    "reverse_two_way": (1, reverse),
    "copy_two_way": (1, double),
    "bounded_pair_sst": (1, None),
    "mul_sst": (2, mul),
    "mul_sst_copyful": (2, mul),
    "mul_marble": (2, mul),
    "pow2_marble": (2, square),
    "pow2_marble_wasteful": (2, square),
    "exp_sst": (None, power2),
    "exp_marble": (None, power2),
    "chain_flow": (1, None),
    "exp_flow": (None, None),
}
FLOW_FILES = ("chain_flow", "exp_flow")


def interpret(m, word):
    """Run ``m`` on ``word`` for a check; marble runs detect loops."""
    if isinstance(m, MarbleTransducer):
        return run_marble(m, word, budget=CHECK_BUDGET, detect_loops=True)
    return run_machine(m, word, budget=CHECK_BUDGET)


def same_function_on(words, m1, m2, max_depth=None):
    """First word on which ``m1`` and ``m2`` differ, or None.

    A looping or rejecting run counts as undefined.  A run that exhausts its
    budget cannot be judged and is reported as a difference.  When
    ``max_depth`` is given, accepted runs of ``m1`` must stay within it.
    """
    for w in words:
        r1, r2 = interpret(m1, w), interpret(m2, w)
        if BUDGET in (r1.verdict, r2.verdict):
            return w, "budget exhausted"
        o1 = r1.output if r1.verdict == ACCEPT else None
        o2 = r2.output if r2.verdict == ACCEPT else None
        if o1 != o2:
            return w, "outputs differ"
        if max_depth is not None and r1.verdict == ACCEPT \
                and r1.max_stack_depth > max_depth:
            return w, "stack depth %d > %d" % (r1.max_stack_depth, max_depth)
    return None


def pump(witness: dict, kind: str, degree, pumps: int) -> tuple:
    """The witness word of an ``analyze`` report with ``pumps`` repetitions."""
    if kind == "exponential":
        return tuple(witness["u"]) + tuple(witness["v"]) * pumps + tuple(witness["z"])
    if not degree:
        return ()
    word = list(witness["left"])
    for i, loop in enumerate(witness["loops"]):
        word += list(loop) * pumps
        if i < len(witness["links"]):
            word += list(witness["links"][i])
    word += list(witness["right"])
    return tuple(word)


def growth_matches(doc: dict, degree) -> str | None:
    """Why an analyze report disagrees with the expected degree, or None."""
    want = "exponential" if degree is None else "polynomial"
    if doc.get("class") != want:
        return "class %r, expected %s" % (doc.get("class"), want)
    if degree is not None and doc.get("degree") != degree:
        return "degree %r, expected %d" % (doc.get("degree"), degree)
    return None


def first_json_line(text: str) -> dict:
    return json.loads(text.splitlines()[0])
