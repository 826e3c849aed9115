"""Run outputs as text, from register values and marble emissions to stdout.

The interpreters keep a word as a ``str``, one character per output symbol
(``semantics._spell``): the symbol itself when every symbol of the output
alphabet is one character, else a code character, decoded where the word
leaves them.  ``RunResult.output`` stays a tuple of symbols, built on first
access from the text a result holds, and ``output_text`` is that text.  The
tests here hold runs to the one-configuration and one-letter references on
the corpus and on seeded random machines, on short words and on words of
about 5,000 letters or with about 5,000 output letters, and on machines
whose symbols have several characters.
"""

import random
import re
from dataclasses import replace

import pytest

from xducer import semantics
from xducer.cli import main
from xducer.machine_io import dumps_machine, parse_machine
from xducer.machines import (
    LEFT_END, Lit, MachineError, MOVE_LEFT, MOVE_RIGHT, Reg, RIGHT_END, SST,
    TwoWayTransducer)
from xducer.oracle import equiv_check, words_up_to
from xducer.semantics import (
    ACCEPT, REJECT, RunResult, marble_of, run_machine, sst_outputs)

from conftest import (
    CORPUS_NAMES, corpus_path, load, reference_run, reference_sst_run)
from test_oracle import random_marble
from test_shared_values import affordable, flat_run, random_sst, random_word

# A word per corpus transducer whose run reads about 5,000 letters or, for
# the machines whose outputs grow faster than their input, writes about
# 5,000; ``u`` is a fixed 31-letter prefix for the mul machines.
U = "abbab" * 6 + "a"
LONG_WORDS = {
    "bounded_pair_sst": "a" * 5000,
    "copy_two_way": "ab" * 1250 + "ba" * 1250,
    "exp_marble": "a" * 12,
    "exp_sst": "a" * 12,
    "identity_sst": "ab" * 1250 + "ba" * 1250,
    "mul_marble": U + "#" + "0" * 150,
    "mul_sst": U + "#" + "0" * 150,
    "mul_sst_copyful": U + "#" + "0" * 150,
    "pow2_marble": "a" * 70,
    "pow2_marble_wasteful": "a" * 70,
    "reverse_sst": "abc" * 1000 + "cab" * 666,
    "reverse_sst_copyful": "abc" * 1000 + "cab" * 666,
    "reverse_two_way": "abc" * 1000 + "cab" * 666,
}


def assert_text_form(m, w, want_output) -> RunResult:
    """``run_machine(m, w)`` outputs ``want_output``: a tuple of symbols,
    whose join is ``output_text``, and the run of ``w`` as a tuple gives an
    equal result."""
    got = run_machine(m, w)
    assert got.output == want_output
    assert got == run_machine(m, tuple(w)) and got.output == run_machine(m, tuple(w)).output
    if got.output is not None:
        assert type(got.output) is tuple and got.output_text == "".join(got.output)
    return got


def test_long_words_cover_every_corpus_transducer():
    assert sorted(LONG_WORDS) == [n for n in CORPUS_NAMES if not n.endswith("_flow")]


@pytest.mark.parametrize("name", sorted(LONG_WORDS))
def test_corpus_outputs_match_the_references(name):
    """Marble and two-way machines against ``reference_run``, whole results
    and all; SSTs against ``reference_sst_run`` on short words and, on the
    long word, against the flat evaluator of ``test_shared_values``."""
    m = load(name)
    rng = random.Random(name)
    short = list(words_up_to(m.input_alphabet, 3))
    short += ["".join(rng.choices(m.input_alphabet, k=n))
              for n in ((8,) if name.startswith("exp") else (8, 33, 70))]
    accepted = 0
    for w in short:
        if isinstance(m, SST):
            want = reference_sst_run(m, w)
            assert run_machine(m, w) == want, w
        else:
            want = reference_run(marble_of(m) if isinstance(m, TwoWayTransducer) else m, w)
            assert run_machine(m, w) == want, w
        accepted += assert_text_form(m, w, want.output).accepted
    w = LONG_WORDS[name]
    if isinstance(m, SST):
        want = flat_run(m, w)
    else:
        want = reference_run(marble_of(m) if isinstance(m, TwoWayTransducer) else m, w).output
    got = assert_text_form(m, w, want)
    assert got.accepted and 4000 <= len(got.output_text) <= 10000, len(got.output_text)
    assert accepted


def test_random_ssts_match_the_references():
    """Seeded SSTs, copyless and copyful, with long initial values: short
    words against ``reference_sst_run``, words of up to 5,000 letters (cut
    where the registers would pass the flat evaluator's cap) against
    ``flat_run``."""
    rng = random.Random(4401)
    long_runs = 0
    for trial in range(24):
        m = random_sst(rng, copyful=trial % 2 == 1)
        for w in ["", "a", random_word(rng, 5), random_word(rng, 40)]:
            want = reference_sst_run(m, w)
            assert run_machine(m, w) == want, (trial, w)
            assert_text_form(m, w, want.output)
        w = affordable(m, random_word(rng, 5000))
        assert_text_form(m, w, flat_run(m, w))
        long_runs += len(w) >= 1000
    assert long_runs >= 8


def test_random_marbles_match_the_reference():
    """Seeded marble machines that may reject or loop, with colours: every
    word of up to 4 letters under the default budget and one of 30 steps,
    and a 5,000-letter word under a budget of 30,000 steps."""
    from perfbench.gen import random_marble as generated_marble

    rng = random.Random(4402)
    verdicts = set()
    for trial in range(60):
        t = (random_marble if trial % 2 else generated_marble)(rng)
        runs = [(w, budget) for w in words_up_to(t.input_alphabet, 4) for budget in (None, 30)]
        runs.append(("".join(rng.choices(t.input_alphabet, k=5000)), 30000))
        for w, budget in runs:
            want = reference_run(t, w, budget)
            got = run_machine(t, w, budget=budget)
            assert got == want and got == run_machine(t, tuple(w), budget=budget), (trial, w)
            if got.accepted:
                assert got.output_text == "".join(got.output) == "".join(want.output)
            verdicts.add((want.verdict, len(w) == 5000))
    assert {(ACCEPT, False), (REJECT, False), (ACCEPT, True)} <= verdicts, verdicts


def test_run_results_keep_their_api():
    """A result made from text equals, and hashes as, one made from the
    tuple; ``replace`` keeps the output; ``output_text`` joins a tuple of
    symbols and gives None with no output."""
    text = RunResult(ACCEPT, "ab", 2, 0)
    word = RunResult(ACCEPT, ("a", "b"), 2, 0)
    assert text == word and word == text and hash(text) == hash(word)
    assert text.output == ("a", "b") and text.output_text == "ab"
    assert replace(text, steps=3) == RunResult(ACCEPT, ("a", "b"), 3, 0)
    assert replace(text, steps=3).output == ("a", "b")
    assert text != RunResult(ACCEPT, "ba", 2, 0) and text != replace(word, steps=3)
    assert RunResult(ACCEPT, ("xy", "z"), 2, 0).output_text == "xyz"
    assert RunResult(REJECT, None, 1, 0).output_text is None
    assert RunResult(ACCEPT, "", 0, 0).output == ()
    assert repr(text) == repr(word) and len({text, word}) == 1
    with pytest.raises(AttributeError):
        text.no_such_field


def test_cli_run_prints_the_text_without_building_the_tuple(monkeypatch, capsys):
    built = []
    getattr_ = RunResult.__getattr__
    monkeypatch.setattr(RunResult, "__getattr__",
                        lambda self, name: built.append(name) or getattr_(self, name))
    for name, w, out in (("identity_sst", "ab" * 50, "ab" * 50),
                         ("copy_two_way", "ab" * 50, "ab" * 100),
                         ("exp_sst", "a" * 10, "a" * 1024)):
        assert main(["run", corpus_path(name), w]) == 0
        assert capsys.readouterr().out == out + "\n"
    assert built == []
    r = run_machine(load("identity_sst"), "ab" * 10)
    assert "output" not in r.__dict__ and r.output == tuple("ab" * 10)


# ---------------------------------------------------------------------------
# Symbols of several characters
# ---------------------------------------------------------------------------

# The word function of the machines below: a -> xy, b -> z.
SPELLING = {"a": ("xy",), "b": ("z",)}


def spelled(w) -> tuple:
    return tuple(s for a in w for s in SPELLING[a])


def several_sst(output_alphabet=("xy", "z")) -> SST:
    """x := x·u with u the letter's symbols; the output x·xy."""
    x = Reg("x")
    return SST(("a", "b"), output_alphabet, ("q",), ("x",), "q", {"x": ()},
               {("q", "a"): "q", ("q", "b"): "q"},
               {("q", a): {"x": (x, *map(Lit, SPELLING[a]))} for a in "ab"},
               {"q": (Lit("z"), x, Lit("xy"))})


def several_two_way(first=("z", "z"), last=()) -> TwoWayTransducer:
    """``first``, the input spelled out and ``last``, over the output
    alphabet ``xy``, ``z``, ``w``: a pass to the right, a step back from
    ⊣ and one onto it again."""
    delta = {("q", s): ("q", MOVE_RIGHT) for s in (LEFT_END, "a", "b")}
    delta.update({("r", s): ("f", MOVE_RIGHT) for s in (LEFT_END, "a", "b")})
    delta[("q", RIGHT_END)] = ("r", MOVE_LEFT)
    out = {key: () for key in delta}
    out.update({("q", LEFT_END): first, ("q", "a"): ("xy",), ("q", "b"): ("z",),
                ("q", RIGHT_END): last})
    return TwoWayTransducer(("a", "b"), ("xy", "z", "w"), ("q", "r", "f"), "q",
                            frozenset({"f"}), delta, out)


def test_outputs_of_several_characters_match_the_references(tmp_path, capsys):
    """Runs of an SST and of a two-way machine with symbols of two
    characters give tuples of symbols, as the references do, and the CLI
    prints them comma-separated."""
    sst, two_way = several_sst(), several_two_way()
    rng = random.Random(4403)
    for w in list(words_up_to(("a", "b"), 3)) + ["".join(rng.choices("ab", k=n))
                                                 for n in (40, 5000)]:
        want = ("z",) + spelled(w) + ("xy",)
        assert reference_sst_run(sst, w).output == want
        assert_text_form(sst, w, want)
        assert reference_run(marble_of(two_way), w).output == ("z", "z") + spelled(w)
        assert_text_form(two_way, w, ("z", "z") + spelled(w))
    assert assert_text_form(sst, "ab", ("z", "xy", "z", "xy")).output_text == "zxyzxy"
    for m, out in ((sst, "z,xy,z,z,xy"), (two_way, "z,z,xy,z,z")):
        path = str(tmp_path / "m.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps_machine(m))
        loaded, _layers = parse_machine(path)
        assert run_machine(loaded, "abb").output == run_machine(m, "abb").output
        assert main(["run", path, "abb"]) == 0
        assert capsys.readouterr().out == out + "\n"


def test_equiv_compares_sides_that_write_their_symbols_differently():
    """``several_sst`` with its two symbols and the two-way machine with an
    unused third one number their symbols differently (``_spell``), so
    ``equiv`` compares them as symbols; the outputs of a counterexample are
    tuples of symbols."""
    sst = several_sst()
    assert semantics._spell(sst.output_alphabet) != semantics._spell(("xy", "z", "w"))
    two_way, padded = several_two_way(("z",)), several_two_way(("z",), ("xy",))
    assert equiv_check(sst, padded, 6).equivalent
    assert equiv_check(padded, sst, 6).equivalent
    assert equiv_check(sst, several_sst(("z", "xy", "w")), 6).equivalent
    verdict = equiv_check(sst, two_way, 6)
    assert verdict.counterexample == ((), ("z", "xy"), ("z",))
    assert list(sst_outputs(sst, 1)) == [("z", "xy"), ("z", "xy", "xy"), ("z", "z", "xy")]


def test_function_outputs_must_be_written_in_the_output_alphabet():
    """A function's word joins the register values as text, so a symbol the
    text cannot write is refused: one of two characters where every symbol
    has one, and one outside the alphabet where they are numbered."""
    from xducer.machines import Fun, FunctionRegistry

    x = Reg("x")
    for alphabet, good, bad in ((("a", "b"), ("b",), ("bb",)),
                                (("a", "xy"), ("xy",), ("b",))):
        m = SST(("a",), alphabet, ("q",), ("x",), "q", {"x": ()}, {("q", "a"): "q"},
                {("q", "a"): {"x": (x, Fun("f"))}}, {"q": (x,)}, funs=("f",))
        ok = FunctionRegistry({"f": lambda u, good=good: good})
        assert run_machine(m, "aa", registry=ok).output == good * 2
        wrong = FunctionRegistry({"f": lambda u, bad=bad: bad})
        with pytest.raises(MachineError, match="^output symbol %r is not in the output alphabet$"
                           % bad[0]):
            run_machine(m, "aa", registry=wrong)


# ---------------------------------------------------------------------------
# The output letter limit, on nodes over text pieces
# ---------------------------------------------------------------------------


def test_output_limit_names_the_letters_of_text_pieces(monkeypatch):
    """x starts as ``ab`` and doubles on each letter, so from 5 letters on
    it is a node over two texts of 64 letters, then over such nodes; and y
    gains a 40-letter constant per letter, a text piece of its own.  The
    refusal names the exact letter count, which counts each piece by its
    letters, and the limit itself passes."""
    x, y = Reg("x"), Reg("y")
    m = SST(("a",), ("a", "b"), ("q",), ("x", "y"), "q", {"x": ("a", "b"), "y": ()},
            {("q", "a"): "q"},
            {("q", "a"): {"x": (x, x), "y": (y, *[Lit("b")] * 40)}},
            {"q": (x, y, x)})
    for n in (6, 9, 12):
        letters = 2 * 2 ** (n + 1) + 40 * n
        monkeypatch.setattr(semantics, "OUTPUT_LETTER_LIMIT", letters)
        assert len(run_machine(m, "a" * n).output_text) == letters
        assert list(sst_outputs(m, n))[-1] == reference_sst_run(m, "a" * n).output
        monkeypatch.setattr(semantics, "OUTPUT_LETTER_LIMIT", letters - 1)
        message = "^%s$" % re.escape("register output exceeded %d letters (it has %d)"
                                     % (letters - 1, letters))
        with pytest.raises(MachineError, match=message):
            run_machine(m, "a" * n)
        with pytest.raises(MachineError, match=message):
            list(sst_outputs(m, n))


def test_str_words_sweep_over_an_alphabet_with_longer_input_symbols():
    """A ``str`` word reads one symbol per character, so a sweep chunk of
    one is written by ``str.translate`` although the class also holds a
    letter of two characters, which a tuple word sweeps by a join."""
    x = Reg("x")
    m = SST(("a", "bc"), ("a", "b"), ("q",), ("x",), "q", {"x": ()},
            {("q", "a"): "q", ("q", "bc"): "q"},
            {("q", "a"): {"x": (x, Lit("a"))}, ("q", "bc"): {"x": (x, Lit("b"), Lit("b"))}},
            {"q": (x,)})
    assert semantics._sweeps(m)[1]["q"][0] == {"a", "bc"}
    for w in ("a" * 50, ("a", "bc", "bc", "a") * 20):
        want = reference_sst_run(m, w)
        assert run_machine(m, w) == want and run_machine(m, tuple(w)) == want
