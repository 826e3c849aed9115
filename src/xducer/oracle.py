"""Brute-force ground truth: bounded equivalence and pattern search."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, islice, product
from operator import ne
from typing import Optional

from .machines import (
    FunctionRegistry, MachineError, MarbleTransducer, NAutomaton, NSSTF, SST,
    TwoWayTransducer, explore, require_valid)
from .mt2sst import marble_to_sst
from .semantics import (
    ACCEPT, BUDGET, _decoded, _marble_texts, _nsstf_output, _spell, _sst_texts,
    default_budget, run_machine)

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


def _crossing_sst(m, maxlen: int, words: int, budget: Optional[int]) -> Optional[SST]:
    """The crossing SST (``marble_to_sst``) through which ``_outputs`` reads
    marble or two-way side ``m`` in place of its word tree, or None.

    Only a side with no marble colours qualifies, and only with no step
    budget given and ``default_budget(|Q|, maxlen) >= |Q|·(maxlen + 2)``.
    Then both routes give the same items:

    - with no marble, a configuration is a state and a head position, so a
      run on a word of length n that does not loop takes fewer than
      |Q|·(n + 2) steps, and one that loops repeats a configuration within
      that many; the default budget of every length n up to ``maxlen`` is
      at least |Q|·(n + 2) (ten times it below ``BUDGET_CAP``, and the cap
      covers the bound at ``maxlen``), so the walk never reports BUDGET;
    - a loop and a reject both give None;
    - crossing summaries decide loops exactly, so the SST has no output
      where the run loops or rejects, and the run's output where it
      accepts.

    The construction summarizes every entry state of a cell per crossing
    state and letter, the walk about one cell per word, so it is tried only
    while |Q| times the crossing states stays below the words: with a limit
    of ``words // (2·|Q|)`` crossing states, ``words`` being the words the
    check reads (at most ``WORD_CAP``), and only if that is at least 1.  A
    side whose construction passes the limit, or raises for any other
    reason, walks (``_marble_texts`` raises again for an invalid machine).
    """
    if budget is not None or isinstance(m, MarbleTransducer) and m.colors:
        return None
    n = len(m.states)
    limit = words // (2 * n)
    if limit < 1 or default_budget(n, maxlen) < n * (maxlen + 2):
        return None
    try:
        return marble_to_sst(m, limit)
    except MachineError:
        return None


def _outputs(m, maxlen: int, words: int, registry: Optional[FunctionRegistry],
             budget: Optional[int]) -> tuple:
    """(items, code): one side's item for every word of ``words_up_to``, in
    its order, and how its texts write its output symbols
    (``semantics._spell``).  An item is the output of an accepting run as
    text, None for any other run, ``_BUDGET_WORD`` for one that hit its
    budget.  An SST gives these itself (``_sst_texts``), and so does an
    NSST-F's run of each word (``_nsstf_output``), which only accepts with
    an output or rejects with none.  A marble or two-way side is read
    through its crossing SST when ``_crossing_sst`` builds one within its
    limit, whose items are the same; else its pairs (``_marble_texts``) are
    mapped to them.  For any other machine, ``run_machine`` raises at the
    first word.  ``words`` is the number of words the check reads."""
    if isinstance(m, SST):
        items = _sst_texts(m, maxlen, registry)
    elif isinstance(m, (MarbleTransducer, TwoWayTransducer)):
        crossing = _crossing_sst(m, maxlen, words, budget)
        if crossing is not None:
            items = _sst_texts(crossing, maxlen, None)
        else:
            items = (o if v == ACCEPT else _BUDGET_WORD if v == BUDGET else None
                     for v, o in _marble_texts(m, maxlen, budget))
    elif isinstance(m, NSSTF):
        items = (_nsstf_output(m, w, registry) for w in words_up_to(m.input_alphabet, maxlen))
    else:
        return (run_machine(m, w, registry=registry, budget=budget).output
                for w in words_up_to(m.input_alphabet, maxlen)), None
    return items, _spell(m.output_alphabet)


def _symbols(items, code: Optional[dict]):
    """``_outputs``' items with each text decoded under ``code``."""
    return (_decoded(o, code) if type(o) is str else o for o in items)


def equiv_check(m1, m2, maxlen: int,
                registry1: Optional[FunctionRegistry] = None,
                registry2: Optional[FunctionRegistry] = None,
                budget: Optional[int] = None) -> EquivalenceVerdict:
    """Compare domains and outputs on every word of length up to ``maxlen``.

    Words come in the order of ``words_up_to``: by length, then
    lexicographically.  Each side gives one item per word in that order
    (``_outputs``): the output if its run accepts, None if it does not,
    and a marker unequal to everything if it hit its step budget.  The
    outputs are compared as the interpreters' texts, with no conversion,
    when both sides write their output symbols alike (``semantics._spell``:
    always, when every symbol of both is one character), and else as
    tuples of symbols.  The check finds the position of the first pair of
    unequal items in C (``map``, ``compress`` and ``count``: the comparison
    runs no Python code per word), over at most ``WORD_CAP`` words; if more
    are left, it raises the cap error of ``words_up_to`` at the same word,
    before either side runs it.  Only
    the word at that position is rebuilt (``_word_at``) and run again on
    each side (``run_machine``, with the same registry and budget), which
    tells an inconclusive word, whose run on either side hit its budget,
    from a counterexample, reported with both runs' outputs.

    An SST side walks one length at a time (``_sst_texts``): each word of
    length n extends the kept state and valuation of its prefix by one
    update, and the words of length ``maxlen`` read their outputs through
    their last step without building a valuation, so one length of
    valuations is kept, bounded by the word cap.  A marble or two-way side
    also walks one length at a time (``_marble_texts``): a word's run is
    composed from crossing summaries, each simulated once per prefix and
    entry state and shared by every extension, so a word costs a constant
    amount of work on top of its prefix, plus its output; the extensions of
    a word whose run ended before its head stood on ⊣ take its verdict with
    no work.  A side with no marble colours, checked with no step budget,
    is read through its crossing SST instead, as an SST side, when
    ``marble_to_sst`` builds one within a limit that keeps it cheaper than
    the word tree (``_crossing_sst``, which says why the items are the
    same); then each cell is summarized once per crossing state, not once
    per prefix.  An NSST-F side runs each word on the programs its machine
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
    words = min(total, WORD_CAP)
    items1, code1 = _outputs(m1, maxlen, words, registry1, budget)
    items2, code2 = _outputs(m2, maxlen, words, registry2, budget)
    if code1 != code2:
        items1, items2 = _symbols(items1, code1), _symbols(items2, code2)
    differ = map(ne, items1, items2)
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
