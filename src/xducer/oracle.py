"""Brute-force ground truth: bounded equivalence and pattern search."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, islice, product
from operator import ne
from typing import Optional

from .machines import (
    FunctionRegistry, MachineError, MarbleTransducer, NAutomaton, SST, TwoWayTransducer,
    explore, require_valid)
from .semantics import (
    ACCEPT, BUDGET, marble_outputs, run_machine, sst_outputs)

EQUIVALENT = "equivalent"
COUNTEREXAMPLE = "counterexample"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class EquivalenceVerdict:
    status: str
    max_length: int
    counterexample: Optional[tuple] = None  # (word, output1, output2)
    inconclusive_word: Optional[tuple] = None

    @property
    def equivalent(self) -> bool:
        return self.status == EQUIVALENT


WORD_CAP = 100000   # words an enumeration or an equivalence check may visit


def words_up_to(alphabet, maxlen: int, cap: int = WORD_CAP):
    """Length-lexicographic enumeration with a total-word cap."""
    letters = sorted(alphabet)
    count = 0
    for n in range(maxlen + 1):
        for tup in product(letters, repeat=n):
            count += 1
            if count > cap:
                raise MachineError("word enumeration cap exceeded (%d)" % cap)
            yield tup


def _word_at(letters: list, index: int) -> tuple:
    """The word at position ``index`` (from 0) of ``words_up_to(letters, ...)``."""
    n = 0
    while index >= len(letters) ** n:
        index -= len(letters) ** n
        n += 1
    word = []
    for _ in range(n):
        index, r = divmod(index, len(letters))
        word.append(letters[r])
    return tuple(reversed(word))


# The item of a word whose run hit its step budget: NaN is unequal to
# everything, itself included, so the comparison stops there.
_BUDGET_WORD = float("nan")


def _outputs(m, maxlen: int, registry: Optional[FunctionRegistry],
             budget: Optional[int]):
    """One side's item for every word of ``words_up_to``, in its order: the
    output of an accepting run, None for any other run, ``_BUDGET_WORD`` for
    one that hit its budget.  An SST gives these itself (``sst_outputs``),
    and so does an NSST-F's run of each word, which only accepts with an
    output or rejects with none; a marble or two-way machine's pairs
    (``marble_outputs``) are mapped to them."""
    if isinstance(m, SST):
        return sst_outputs(m, maxlen, registry)
    if isinstance(m, (MarbleTransducer, TwoWayTransducer)):
        return (o if v == ACCEPT else _BUDGET_WORD if v == BUDGET else None
                for v, o in marble_outputs(m, maxlen, budget))
    return (run_machine(m, w, registry=registry, budget=budget).output
            for w in words_up_to(m.input_alphabet, maxlen))


def equiv_check(m1, m2, maxlen: int,
                registry1: Optional[FunctionRegistry] = None,
                registry2: Optional[FunctionRegistry] = None,
                budget: Optional[int] = None) -> EquivalenceVerdict:
    """Compare domains and outputs on every word of length up to ``maxlen``.

    Words come in the order of ``words_up_to``: by length, then
    lexicographically.  Each side gives one item per word in that order
    (``_outputs``): the output if its run accepts, None if it does not,
    and a marker unequal to everything if it hit its step budget.  The
    check finds the position of the first pair of unequal items in C
    (``map``, ``compress`` and ``count``: the comparison runs no Python code
    per word), over at most ``WORD_CAP`` words; if more are left, it raises the cap error
    of ``words_up_to`` at the same word, before either side runs it.  Only
    the word at that position is rebuilt (``_word_at``) and run again on
    each side (``run_machine``, with the same registry and budget), which
    tells an inconclusive word, whose run on either side hit its budget,
    from a counterexample, reported with both runs' outputs.

    An SST side walks one length at a time (``sst_outputs``): each word of
    length n extends the kept state and valuation of its prefix by one
    update, and the words of length ``maxlen`` read their outputs through
    their last step without building a valuation, so one length of
    valuations is kept, bounded by the word cap.  A marble or two-way side
    also walks one length at a time (``marble_outputs``): a word's run is
    composed from crossing summaries, each simulated once per prefix and
    entry state and shared by every extension, so a word costs a constant
    amount of work on top of its prefix, plus its output; the extensions of
    a word whose run ended before its head stood on ⊣ take its verdict with
    no work.  An NSST-F side runs each word on the programs its machine
    compiled once.  So the first difference in length-lexicographic order
    is reported, no word past the cap is run, and each function of an SST-F
    side is called once per word of its stream (and again on the one word
    reported, when it is run again).
    """
    if tuple(sorted(m1.input_alphabet)) != tuple(sorted(m2.input_alphabet)):
        raise MachineError("machines have different input alphabets")
    letters = sorted(m1.input_alphabet)
    total = 0  # words up to maxlen, counted until they pass the cap
    for n in range(maxlen + 1):
        total += len(letters) ** n
        if total > WORD_CAP:
            break
    differ = map(ne, _outputs(m1, maxlen, registry1, budget),
                 _outputs(m2, maxlen, registry2, budget))
    i = next(compress(count(), islice(differ, min(total, WORD_CAP))), None)
    if i is not None:
        word = _word_at(letters, i)
        r1 = run_machine(m1, word, registry=registry1, budget=budget)
        r2 = run_machine(m2, word, registry=registry2, budget=budget)
        if BUDGET in (r1.verdict, r2.verdict):
            return EquivalenceVerdict(INCONCLUSIVE, maxlen, inconclusive_word=word)
        return EquivalenceVerdict(COUNTEREXAMPLE, maxlen,
                                  counterexample=(word, r1.output, r2.output))
    if total > WORD_CAP:
        raise MachineError("word enumeration cap exceeded (%d)" % WORD_CAP)
    return EquivalenceVerdict(EQUIVALENT, maxlen)


# ---------------------------------------------------------------------------
# Weighted-automaton pattern search
# ---------------------------------------------------------------------------


def _mat_mul(states, A: dict, B: dict) -> dict:
    rows: dict = {}
    for (p, q), w in A.items():
        if w:
            rows.setdefault(p, []).append((q, w))
    cols: dict = {}
    for (q, r), w in B.items():
        if w:
            cols.setdefault(q, []).append((r, w))
    out: dict = {}
    for p, row in rows.items():
        acc: dict = {}
        for q, w1 in row:
            for r, w2 in cols.get(q, ()):
                acc[r] = acc.get(r, 0) + w1 * w2
        for r, w in acc.items():
            out[(p, r)] = w
    return out


@dataclass(frozen=True)
class PatternSearch:
    heavy_cycles: tuple  # (state, word) pairs
    barbells: tuple      # (state, state, word) triples


def brute_pattern_search(m: NAutomaton, maxlen: int) -> PatternSearch:
    """All heavy cycles and barbells witnessed by words up to ``maxlen``.

    Computes the weight matrix of every word explicitly, so this is the
    independent oracle the pattern detectors are validated against.  A
    machine that ``validate`` refuses raises first (``require_valid``).
    """
    require_valid(m)
    letters = sorted(m.input_alphabet)
    heavy, barbells = [], []
    mats = {(): {(q, q): 1 for q in m.states}}
    frontier = [()]
    for _ in range(maxlen):
        nxt = []
        for v in frontier:
            for a in letters:
                v2 = v + (a,)
                mats[v2] = _mat_mul(m.states, mats[v], m.mats[a])
                nxt.append(v2)
        frontier = nxt
    for v in sorted(mats):
        if not v:
            continue
        mat = mats[v]
        for q in m.states:
            if mat.get((q, q), 0) >= 2:
                heavy.append((q, v))
        for q in m.states:
            for q2 in m.states:
                if q == q2:
                    continue
                if (mat.get((q, q), 0) >= 1 and mat.get((q, q2), 0) >= 1
                        and mat.get((q2, q2), 0) >= 1):
                    barbells.append((q, q2, v))
    return PatternSearch(tuple(heavy), tuple(barbells))


def brute_degree(m: NAutomaton, maxlen: int) -> Optional[int]:
    """Growth degree derived from brute-force patterns (None = exponential).

    Builds the barbell graph from the barbells found up to ``maxlen`` and
    takes the longest chain, mirroring the classifier but with exhaustively
    verified patterns.
    """
    found = brute_pattern_search(m, maxlen)
    if found.heavy_cycles:
        return None
    succ = {q: set() for q in m.states}
    for mat in m.mats.values():
        for (p, q), w in mat.items():
            if w > 0:
                succ[p].add(q)

    reach_map = {q: set(explore([q], succ.__getitem__, len(succ), "reachability"))
                 for q in m.states}
    edges = set()
    for (q, q2, _v) in found.barbells:
        for q1 in m.states:
            if q not in reach_map[q1]:
                continue
            for q3 in m.states:
                if q3 in reach_map[q2]:
                    edges.add((q1, q3))
    heights = {q: 0 for q in m.states}
    for _ in range(len(m.states) + 1):
        for (q1, q2) in sorted(edges):
            heights[q2] = max(heights[q2], heights[q1] + 1)
    if any(h > len(m.states) for h in heights.values()):
        return None  # cyclic barbell graph; cannot happen without heavy cycles
    return max(heights.values(), default=0)
