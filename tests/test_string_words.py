"""A ``str`` word against the tuple of its characters.

The interpreters read a ``str`` word as it is, one symbol per character,
and make its string of symbol codes with ``str.translate``; a tuple word's
codes are joined symbol by symbol (``semantics._code_string``).  The runs
here check that the two give one ``RunResult``, or one error, on every
corpus machine and on seeded random machines, on short and on long words.
"""

import random
import string
from dataclasses import replace

import pytest

from xducer.cli import main
from xducer.machines import (
    ACT_LEFT,
    ACT_LIFT,
    ACT_RIGHT,
    LEFT_END,
    Lit,
    MOVE_RIGHT,
    MachineError,
    MarbleTransducer,
    NAutomaton,
    RIGHT_END,
    SST,
    Reg,
    TwoWayTransducer,
    act_drop,
)
from xducer.oracle import words_up_to
from xducer.semantics import ACCEPT, run_machine

from conftest import CORPUS_NAMES, corpus_path, load, reference_run
from test_pipeline_fuzz import random_marble, random_sst

# Steps a tape machine's run of a long word may take, untraced and traced:
# a quadratic or exponential machine ends in the budget, which both word
# forms must reach at the same step.  A traced step costs the stack depth,
# which exp_marble raises by one a letter.
LONG_BUDGET = 20000
LONG_TRACE_BUDGET = 1000
LONG = 5000


def outcome(m, w, **kw):
    """``run_machine(m, w, **kw)``, or the text of the error it raises."""
    try:
        return run_machine(m, w, **kw)
    except MachineError as err:
        return "error: %s" % err


def assert_same_runs(m, w, budget=None, trace_budget=None) -> None:
    """``m`` runs the ``str`` word ``w`` as the tuple of its characters,
    untraced under ``budget`` and traced under ``trace_budget`` (a tape
    machine's; None for the default)."""
    for trace, limit in ((False, budget), (True, trace_budget)):
        kw = {} if isinstance(m, SST) else {"budget": limit}
        got = outcome(m, w, trace=trace, **kw)
        assert got == outcome(m, tuple(w), trace=trace, **kw), (w[:40], len(w), trace)


def long_words(m, rng) -> list:
    """A random 5k-letter word over ``m``'s alphabet, and, over an
    alphabet with ``#``, a u#0^n of ``mul_*`` with |u| = 31 and 5k output
    letters, which such a machine accepts."""
    letters = sorted(m.input_alphabet)
    words = ["".join(rng.choice(letters) for _ in range(LONG))]
    if "#" in letters:
        words.append("".join(rng.choice("ab") for _ in range(31)) + "#" + "0" * (LONG // 31))
    return words


def test_corpus_machines_run_a_str_word_as_its_tuple():
    rng = random.Random("corpus")
    for name in CORPUS_NAMES:
        m = load(name)
        if isinstance(m, NAutomaton):
            continue
        for w in words_up_to(m.input_alphabet, 3):
            assert_same_runs(m, "".join(w))
        for w in long_words(m, rng):
            assert_same_runs(m, w, LONG_BUDGET, LONG_TRACE_BUDGET)


def test_long_words_sweep_and_accept_in_both_forms():
    # the long words above reach the sweeps and the accepts they test
    rng = random.Random("sweeps")
    for name in ("reverse_two_way", "copy_two_way", "identity_sst", "reverse_sst",
                 "mul_sst", "mul_marble"):
        m = load(name)
        w = long_words(m, rng)[-1]
        r = run_machine(m, w, **({} if isinstance(m, SST) else {"budget": 10 ** 6}))
        assert r.verdict == ACCEPT and len(r.output) >= LONG, name
        assert r == run_machine(m, tuple(w), **({} if isinstance(m, SST) else
                                                {"budget": 10 ** 6}))


def test_random_machines_run_a_str_word_as_its_tuple():
    rng = random.Random(39)
    for _ in range(40):
        for m in (random_marble(rng), random_sst(rng)):
            for w in words_up_to(m.input_alphabet, 4):
                assert_same_runs(m, "".join(w))
            for _ in range(2):
                w = "".join(rng.choice(m.input_alphabet) for _ in range(LONG))
                assert_same_runs(m, w, LONG_BUDGET, LONG_TRACE_BUDGET)


def symbol_machines(alphabet) -> list:
    """Identity machines over ``alphabet``: a two-way one, a marble one that
    drops and lifts a marble on each cell, and an SST."""
    two_way = TwoWayTransducer(
        alphabet, alphabet, ("q",), "q", frozenset({"q"}),
        {("q", s): ("q", MOVE_RIGHT) for s in (LEFT_END, *alphabet)},
        {("q", s): () if s == LEFT_END else (s,) for s in (LEFT_END, *alphabet)})
    delta = {("q", LEFT_END, None): ("q", ACT_RIGHT)}
    for a in alphabet:
        delta["q", a, None] = ("p", act_drop("c"))
        delta["p", a, "c"] = ("r", ACT_LIFT)
        delta["r", a, None] = ("q", ACT_RIGHT)
    marble = MarbleTransducer(alphabet, alphabet, ("q", "p", "r"), "q", frozenset({"q"}),
                              ("c",), delta,
                              {k: (k[1],) if k[0] == "r" else () for k in delta})
    x = Reg("x")
    sst = SST(alphabet, alphabet, ("q",), ("x",), "q", {"x": ()},
              {("q", a): "q" for a in alphabet},
              {("q", a): {"x": (x, Lit(a))} for a in alphabet}, {"q": (x,)})
    return [two_way, marble, sst]


def test_a_str_word_is_read_one_symbol_per_character():
    for m in symbol_machines(("a", "b", "ab")):
        assert run_machine(m, "ab").output == ("a", "b")
        assert run_machine(m, ("ab",)).output == ("ab",)
        assert run_machine(m, "abab") == run_machine(m, ("a", "b", "a", "b"))
    for m in symbol_machines(("ab", "c")):
        assert run_machine(m, ("ab", "c")).output == ("ab", "c")
        for w in ("ab", ("a", "b")):
            with pytest.raises(MachineError,
                               match="^input symbol 'a' not in the machine alphabet$"):
                run_machine(m, w)


def test_a_foreign_character_is_named_by_the_run_and_the_cli(capsys):
    for name in ("reverse_two_way", "mul_marble", "identity_sst"):
        m = load(name)
        for w, bad in (("abzab", "z"), ("yab", "y"), ("a" * 300 + "é" + "ab", "é"),
                       ("ab⊢", "⊢")):
            for word in (w, tuple(w)):
                with pytest.raises(MachineError, match="^input symbol %r not in the "
                                   "machine alphabet$" % bad):
                    run_machine(m, word)
            assert main(["run", corpus_path(name), w]) == 1
            captured = capsys.readouterr()
            assert captured.err == "symbol %r is not in the machine alphabet\n" % bad
            assert captured.out == ""
    # the alphabet is checked before the tables refuse an invalid machine
    m = symbol_machines(("a",))[1]
    invalid = replace(m, delta={**m.delta, ("r", "a", None): ("q", ("right", "c"))})
    for word in ("az", ("a", "z")):
        with pytest.raises(MachineError, match="^input symbol 'z' not in the machine alphabet$"):
            run_machine(invalid, word)
    with pytest.raises(MachineError, match="^invalid marble transducer: "):
        run_machine(invalid, "a")


def test_symbol_codes_past_255_run_correctly():
    # 120 letters under three colour slots: the letters' codes reach 363,
    # and the tape's code characters are not Latin-1
    letters = tuple(string.ascii_letters) + tuple(chr(0x100 + i) for i in range(68))
    t = symbol_machines(letters)[1]
    delta, out = dict(t.delta), dict(t.out)
    for a in letters:  # at ⊣, sweep back to ⊢ writing the word reversed
        delta["s", a, None] = ("s", ACT_LEFT)
        out["s", a, None] = (a,)
        delta["f", a, None] = ("f", ACT_RIGHT)
        out["f", a, None] = ()
    delta["q", RIGHT_END, None], out["q", RIGHT_END, None] = ("s", ACT_LEFT), ()
    delta["s", LEFT_END, None], out["s", LEFT_END, None] = ("f", ACT_RIGHT), ()
    t = MarbleTransducer(letters, letters, ("q", "p", "r", "s", "f"), "q", frozenset({"f"}),
                         ("c", "d"), delta, out)
    rng = random.Random(255)
    for n in (0, 1, 2, 7, 40, LONG):
        w = "".join(rng.choice(letters) for _ in range(n))
        r = run_machine(t, w)
        assert r.verdict == ACCEPT and "".join(r.output) == w + w[::-1]
        assert r == run_machine(t, tuple(w))
        if n <= 40:
            assert r == reference_run(t, w)
            assert_same_runs(t, w)
