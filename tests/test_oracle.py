import random
import re
from dataclasses import replace

import pytest

from xducer import oracle, semantics
from xducer.cli import main
from xducer.layering import (
    bounded_sstf_to_unambiguous, make_total, minimize_marbles, to_k_layered)
from xducer.machines import (
    ACT_LEFT,
    ACT_LIFT,
    ACT_RIGHT,
    Fun,
    FunctionRegistry,
    LEFT_END,
    Lit,
    MOVE_LEFT,
    MOVE_RIGHT,
    MachineError,
    MarbleTransducer,
    RIGHT_END,
    Reg,
    SST,
    TwoWayTransducer,
    act_drop,
    validate,
)
from xducer.oracle import (
    brute_pattern_search,
    equiv_check,
    words_up_to,
)
from xducer.semantics import (
    ACCEPT, BUDGET, LOOP, REJECT, SHARE_MIN, RunResult, marble_of, marble_outputs,
    run_machine, run_marble, run_sst, run_sstf, run_two_way, sst_outputs)
from xducer.mt2sst import marble_to_sst, two_way_to_marble
from xducer.sst2mt import layered_to_marble

from conftest import (
    CORPUS_NAMES, assert_refused, corpus_path, load, reference_run, refusal)


def test_words_up_to_order_and_cap():
    words = list(words_up_to(("b", "a"), 2))
    assert words == [(), ("a",), ("b",), ("a", "a"), ("a", "b"),
                     ("b", "a"), ("b", "b")]
    with pytest.raises(MachineError):
        list(words_up_to(("a", "b"), 20, cap=100))


def test_equiv_exp_sst_vs_marble():
    assert equiv_check(load("exp_sst"), load("exp_marble"), 5).equivalent


def test_equiv_counterexample_is_length_lex_least():
    verdict = equiv_check(load("reverse_sst", ("a", "b")),
                          load("identity_sst", ("a", "b")), 2)
    assert verdict.status == "counterexample"
    word, first, second = verdict.counterexample
    assert word == ("a", "b")
    assert first == ("b", "a") and second == ("a", "b")


def test_equiv_reflexive():
    m = load("mul_marble")
    assert equiv_check(m, m, 4).equivalent


def test_equiv_symmetric_up_to_orientation():
    a = load("reverse_sst", ("a", "b"))
    b = load("identity_sst", ("a", "b"))
    v1 = equiv_check(a, b, 3)
    v2 = equiv_check(b, a, 3)
    assert v1.counterexample[0] == v2.counterexample[0]
    assert v1.counterexample[1:] == v2.counterexample[:0:-1]


@pytest.mark.parametrize("sides,builds", [
    (("mul_marble", "mul_sst"), 1),
    (("reverse_sst", "reverse_two_way"), 1),
    (("pow2_marble", "pow2_marble_wasteful"), 2),
    (("copy_two_way", "copy_two_way"), 2),
])
def test_equiv_builds_step_tables_once_per_side(monkeypatch, sides, builds):
    """Every word of a marble or two-way side runs on one set of tables."""
    compile_tables = semantics._compile_tables
    built = []

    def counting(t):
        built.append(t)
        return compile_tables(t)

    monkeypatch.setattr(semantics, "_compile_tables", counting)
    verdict = equiv_check(load(sides[0]), load(sides[1]), 4)
    assert verdict.equivalent and len(built) == builds


@pytest.mark.parametrize("sides", [
    ("mul_sst", "mul_sst_copyful"),
    ("mul_sst", "mul_marble"),
    ("reverse_sst_copyful", "reverse_two_way"),
])
def test_equiv_compiles_register_programs_once_per_side(monkeypatch, sides):
    """Each right-hand side of an SST side is compiled once, when its file
    is loaded, so no check compiles one; and the last steps are composed
    on the first check only.  A two-way side read through its crossing SST
    compiles that SST's programs, and composes its last steps, on each
    check."""
    compile_rhs, program = semantics._compile_rhs, semantics._program
    compiled, composed, crossing = [], [], []

    def counting(*args):
        compiled.append(args[0])
        return compile_rhs(*args)

    def composing(pieces):
        composed.append(pieces)
        return program(pieces)

    def converting(t, limit):
        crossing.append(marble_to_sst(t, limit))
        return crossing[-1]

    monkeypatch.setattr(semantics, "_compile_rhs", counting)
    monkeypatch.setattr(oracle, "marble_to_sst", converting)
    m1, m2 = load(sides[0]), load(sides[1])
    ssts = [m for m in (m1, m2) if isinstance(m, SST)]
    stored = [m.__dict__["_programs"] for m in ssts]
    assert [sum(len(prog) for _q2, prog in steps.values()) + len(outputs)
            for steps, outputs in stored] == [
        len(m.delta) * len(m.registers) + len(m.output) for m in ssts]
    monkeypatch.setattr(semantics, "_program", composing)
    assert equiv_check(m1, m2, 5).equivalent
    assert [m.__dict__["_programs"] for m in ssts] == stored
    assert len(compiled) == sum(len(c.delta) * len(c.registers) + len(c.output)
                                for c in crossing)
    assert len(crossing) == (sides[1] == "reverse_two_way")
    # each compiled right-hand side is composed once too
    first = len(composed)
    assert first - len(compiled) == sum(
        len(semantics._last_steps(m)) for m in ssts + crossing) > 0
    del compiled[:], crossing[:]
    assert equiv_check(m1, m2, 5).equivalent
    assert len(compiled) == sum(len(c.delta) * len(c.registers) + len(c.output)
                                for c in crossing)
    assert len(composed) - first - len(compiled) == sum(
        len(semantics._last_steps(c)) for c in crossing)


def test_equiv_alphabet_mismatch():
    with pytest.raises(MachineError):
        equiv_check(load("exp_sst"), load("mul_sst"), 3)


def test_equiv_inconclusive_on_budget():
    verdict = equiv_check(load("exp_marble"), load("exp_marble"), 4, budget=5)
    assert verdict.status == "inconclusive"
    assert verdict.inconclusive_word is not None


def reference_equiv(m1, m2, maxlen, registry1=None, registry2=None, budget=None):
    """``equiv_check`` as a loop that runs both machines on every word."""
    for w in words_up_to(m1.input_alphabet, maxlen):
        r1 = run_machine(m1, w, registry=registry1, budget=budget)
        r2 = run_machine(m2, w, registry=registry2, budget=budget)
        if BUDGET in (r1.verdict, r2.verdict):
            return "inconclusive", w
        o1 = r1.output if r1.verdict == ACCEPT else None
        o2 = r2.output if r2.verdict == ACCEPT else None
        if (r1.verdict == ACCEPT) != (r2.verdict == ACCEPT) or o1 != o2:
            return "counterexample", (w, o1, o2)
    return "equivalent", None


def verdict_of(m1, m2, maxlen, **kwargs):
    v = equiv_check(m1, m2, maxlen, **kwargs)
    return v.status, v.counterexample or v.inconclusive_word


def random_sst(rng, funs=(), letters=("a", "b")):
    """A partial, possibly copyful SST over ``letters``."""
    states = tuple("q%d" % i for i in range(rng.randint(1, 3)))
    regs = tuple("r%d" % i for i in range(rng.randint(1, 2)))
    pick = [Lit(a) for a in letters] + [Reg(x) for x in regs] + [Fun(f) for f in funs]
    delta, update = {}, {}
    for q in states:
        for a in letters:
            if rng.random() < 0.9:
                delta[(q, a)] = rng.choice(states)
                update[(q, a)] = {x: tuple(rng.choices(pick, k=rng.randint(0, 3)))
                                  for x in regs}
    output = {q: tuple(rng.choices(pick[:len(letters) + len(regs)], k=rng.randint(0, 3)))
              for q in states if rng.random() < 0.8}
    init = {x: tuple(rng.choices(letters, k=rng.randint(0, 2))) for x in regs}
    return SST(letters, letters, states, regs, states[0], init,
               delta, update, output, funs=funs)


def mutated(rng, m):
    """``m`` with one right-hand side, transition or output changed."""
    key = rng.choice(sorted(m.delta))
    kind = rng.randrange(3)
    if kind == 0:
        update = dict(m.update)
        x = rng.choice(m.registers)
        update[key] = dict(update[key], **{x: update[key][x] + (Lit(m.output_alphabet[-1]),)})
        return replace(m, update=update)
    if kind == 1:
        delta, update = dict(m.delta), dict(m.update)
        del delta[key], update[key]
        return replace(m, delta=delta, update=update)
    output = dict(m.output)
    output[key[0]] = output.get(key[0], ()) + (Lit("a"),)
    return replace(m, output=output)


def random_marble(rng):
    """A marble machine over ``ab`` that may reject or loop."""
    states = tuple("q%d" % i for i in range(rng.randint(1, 3)))
    colors = ("c",)[: rng.randint(0, 1)]
    delta, out = {}, {}
    for q in states:
        for s in ("a", "b", LEFT_END, RIGHT_END):
            if rng.random() < 0.85:
                actions = [ACT_LEFT, ACT_RIGHT, ACT_RIGHT] + [act_drop(c) for c in colors]
                delta[(q, s, None)] = (rng.choice(states), rng.choice(actions))
                out[(q, s, None)] = tuple(rng.choices("ab", k=rng.randint(0, 2)))
            for c in colors:
                delta[(q, s, c)] = (rng.choice(states), rng.choice([ACT_LEFT, ACT_LIFT]))
                out[(q, s, c)] = tuple(rng.choices("ab", k=rng.randint(0, 1)))
    finals = frozenset(q for q in states if rng.random() < 0.6)
    return MarbleTransducer(("a", "b"), ("a", "b"), states, states[0], finals,
                            colors, delta, out)


def assert_outputs_only(runs):
    """An SST run accepts with an output or rejects with none, so its output
    alone, as ``sst_outputs`` gives it, tells its verdict."""
    for r in runs:
        assert r.verdict in (ACCEPT, REJECT) and (r.output is None) == (r.verdict == REJECT)


def test_sst_outputs_match_word_by_word_runs():
    """The walk against one run per word, on partial SSTs whose runs die
    on prefixes of every length."""
    rng = random.Random(79)
    rejected = 0
    for _ in range(80):
        m = random_sst(rng)
        if m.delta:
            m = mutated(rng, m)
        got = list(sst_outputs(m, 5))
        runs = [run_sst(m, w) for w in words_up_to(("a", "b"), 5)]
        assert_outputs_only(runs)
        assert got == [r.output for r in runs]
        rejected += sum(r.verdict != ACCEPT for r in runs)
    assert rejected >= 1000


def with_long_constants(rng, m):
    """``m`` with some right-hand sides and outputs made constants longer
    than ``SHARE_MIN``, alone or after what they were, and some outputs a
    single register."""
    def vary(rhs):
        k = SHARE_MIN + rng.randint(1, 8)
        long = tuple(Lit(a) for a in rng.choices(m.input_alphabet, k=k))
        pick = rng.random()
        return long if pick < 0.2 else rhs + long if pick < 0.3 else rhs

    update = {key: {x: vary(rhs) for x, rhs in sub.items()} for key, sub in m.update.items()}
    output = {q: (Reg(rng.choice(m.registers)),) if rng.random() < 0.3 else vary(rhs)
              for q, rhs in m.output.items()}
    return replace(m, update=update, output=output)


def test_sst_outputs_match_runs_over_alphabets_lengths_and_shapes():
    """The walk against one run per word over one to three letters and
    ``maxlen`` 0 to 6, on SSTs with and without a function, with constants
    longer than ``SHARE_MIN`` and outputs that move one register."""
    rng = random.Random(83)
    registry = FunctionRegistry({"f": lambda u: u[-2:] + ("a",) * (len(u) % 3)})
    long_outputs = with_funs = moves = 0
    for letters in (("a",), ("a", "b"), ("a", "b", "c")):
        for maxlen in range(7):
            for _ in range(8):
                funs = ("f",) if rng.random() < 0.5 else ()
                m = with_long_constants(rng, random_sst(rng, funs, letters))
                got = list(sst_outputs(m, maxlen, registry))
                runs = [run_sstf(m, w, registry) for w in words_up_to(letters, maxlen)]
                assert_outputs_only(runs)
                assert got == [r.output for r in runs]
                long_outputs += sum(o is not None and len(o) > SHARE_MIN for o in got)
                with_funs += bool(funs) and any(r.verdict == ACCEPT for r in runs)
                moves += any(len(rhs) == 1 and type(rhs[0]) is Reg for rhs in m.output.values())
    assert long_outputs >= 1000 and with_funs >= 30 and moves >= 30


def test_last_step_functions_see_the_whole_word_once():
    """A function in the last step's update, on a register the output reads
    twice, is called once per word and on the whole word; so is one on a
    register the output does not read, and both on a step into a state
    without output."""
    calls = {"f": [], "g": []}

    def counted(name):
        def call(u):
            calls[name].append(tuple(u))
            return u[-1:] * 2
        return call

    registry = FunctionRegistry({"f": counted("f"), "g": counted("g")})
    delta = {("q", "a"): "q", ("q", "b"): "p", ("p", "a"): "q", ("p", "b"): "p"}
    update = {key: {"x": (Fun("f"),), "y": (Reg("y"), Lit(key[1])), "z": (Fun("g"), Lit("a"))}
              for key in delta}
    m = SST(("a", "b"), ("a", "b"), ("q", "p"), ("x", "y", "z"), "q",
            {"x": (), "y": (), "z": ()}, delta, update,
            {"q": (Reg("x"), Reg("y"), Reg("x"))}, funs=("f", "g"))
    for maxlen in range(6):
        for seen in calls.values():
            seen.clear()
        got = list(sst_outputs(m, maxlen, registry))
        words = list(words_up_to(("a", "b"), maxlen))
        assert calls == {"f": words[1:], "g": words[1:]}
        runs = [run_sstf(m, w, registry) for w in words]
        assert_outputs_only(runs)
        assert got == [r.output for r in runs]
    assert runs[-2].verdict == ACCEPT
    assert got[-2] == ("a", "a") + tuple("bbbba") + ("a", "a")  # word bbbba


def test_prefix_sharing_keeps_sst_verdicts():
    rng = random.Random(80)
    statuses = []
    for _ in range(60):
        m1 = random_sst(rng)
        m2 = mutated(rng, m1)
        for pair in ((m1, m2), (m2, m1), (m1, m1)):
            expected = reference_equiv(*pair, 6)
            assert verdict_of(*pair, 6) == expected
            statuses.append(expected[0])
    assert statuses.count("counterexample") >= 50
    assert statuses.count("equivalent") >= 60


def looping_mul_marble():
    """mul_marble with a ping-pong between ``a`` and ``#`` in state m1."""
    m = load("mul_marble")
    delta = dict(m.delta)
    delta[("m1", "#", None)] = ("m1", ACT_LEFT)
    delta[("m1", "a", None)] = ("m1", ACT_RIGHT)
    return replace(m, delta=delta)


def test_prefix_sharing_keeps_verdicts_against_marbles():
    rng = random.Random(81)
    statuses = []
    for trial in range(40):
        sst, marble = random_sst(rng), random_marble(rng)
        for pair in ((sst, marble), (marble, sst)):
            expected = reference_equiv(*pair, 5)
            assert verdict_of(*pair, 5) == expected
            statuses.append(expected[0])
    # equivalent pairs, a looping one, and budgets that run out on the way
    pairs = ((load("exp_sst"), load("exp_marble"), 6),
             (load("mul_sst"), load("mul_marble"), 4),
             (load("mul_sst"), looping_mul_marble(), 4),
             (load("reverse_sst", ("a", "b")), load("reverse_two_way", ("a", "b")), 5))
    for sst, marble, maxlen in pairs:
        for trial in range(8):
            m = mutated(rng, sst) if trial % 2 else sst
            budget = rng.choice((None, 30, 60, 120, 400))
            for pair in ((m, marble), (marble, m)):
                expected = reference_equiv(*pair, maxlen, budget=budget)
                assert verdict_of(*pair, maxlen, budget=budget) == expected
                statuses.append(expected[0])
    assert statuses.count("inconclusive") >= 6
    assert statuses.count("counterexample") >= 100
    assert statuses.count("equivalent") >= 16


def test_prefix_sharing_keeps_sstf_verdicts():
    rng = random.Random(82)
    registry = FunctionRegistry({"f": load("reverse_sst", ("a", "b")),
                                 "g": lambda u: u[-2:]})
    for _ in range(30):
        m1 = random_sst(rng, funs=("f", "g"))
        m2 = mutated(rng, m1)
        expected = reference_equiv(m1, m2, 5, registry, registry)
        assert verdict_of(m1, m2, 5, registry1=registry, registry2=registry) == expected
        expected = reference_equiv(load("reverse_sst", ("a", "b")), m1, 5, None, registry)
        assert verdict_of(load("reverse_sst", ("a", "b")), m1, 5,
                          registry2=registry) == expected
    # a registry function defined only on words without "bb" raises on the
    # same prefix in both
    partial = replace(load("identity_sst"), delta={("q", "a"): "q", ("q", "b"): "p",
                                                    ("p", "a"): "q"},
                      states=("q", "p"), output={"q": (Reg("x"),), "p": (Reg("x"),)},
                      update={key: {"x": (Reg("x"), Lit(key[1]))}
                              for key in (("q", "a"), ("q", "b"), ("p", "a"))})
    sstf = replace(load("identity_sst"), funs=("f",),
                   update={("q", a): {"x": (Fun("f"),)} for a in "ab"})
    registry = FunctionRegistry({"f": partial})
    errors = []
    for check in (reference_equiv, equiv_check):
        with pytest.raises(MachineError) as err:
            check(load("identity_sst"), sstf, 4, None, registry)
        errors.append(str(err.value))
    assert errors[0] == errors[1] and "prefix 'bb'" in errors[0]


# ---------------------------------------------------------------------------
# Marble sides: one walk over the word tree
# ---------------------------------------------------------------------------


def reference_outputs(t, maxlen, budget=None):
    """``(verdict, output)`` of ``reference_run`` on every word up to
    ``maxlen``, or (the list so far, the error) once a run raises.  A
    callable ``budget`` gives the budget of a word from its length."""
    got = []
    for w in words_up_to(t.input_alphabet, maxlen):
        try:
            res = reference_run(t, w, budget=budget(len(w)) if callable(budget) else budget)
        except MachineError as err:
            return got, str(err)
        got.append((res.verdict, res.output))
    return got, None


def walked_outputs(t, maxlen, budget=None):
    """``marble_outputs`` in the shape of ``reference_outputs``."""
    got = []
    try:
        for pair in marble_outputs(t, maxlen, budget):
            got.append(pair)
    except MachineError as err:
        return got, str(err)
    return got, None


def corpus_marbles():
    """Every corpus marble machine, and every two-way one as a marble machine."""
    for name in CORPUS_NAMES:
        m = load(name)
        if isinstance(m, TwoWayTransducer):
            yield name, marble_of(m)
        elif isinstance(m, MarbleTransducer):
            yield name, m


def test_marble_outputs_match_the_reference_on_random_machines():
    """Each word's run is composed from crossing summaries, or takes its
    dead parent's verdict, and gets what a run from the left end gives;
    budgets of 5, 7 and 30 steps run out before, on and after the right
    end.  Each generator gives 200 machines with colours, and the ones
    without that come on the way."""
    from perfbench.gen import random_marble as generated_marble

    rng = random.Random(84)
    verdicts, trial = set(), 0
    for generate in (random_marble, generated_marble):
        coloured = 0
        while coloured < 200:
            t = generate(rng)
            coloured += bool(t.colors)
            maxlen, trial = trial % 7, trial + 1
            for budget in (None, 5, 7, 30):
                want = reference_outputs(t, maxlen, budget)
                assert walked_outputs(t, maxlen, budget) == want, (trial, budget)
                verdicts.update(v for v, _o in want[0])
    assert verdicts == {ACCEPT, REJECT, LOOP, BUDGET}


@pytest.mark.parametrize("name,t", list(corpus_marbles()))
def test_marble_outputs_match_the_reference_on_the_corpus(name, t):
    maxlen = 4 if len(t.input_alphabet) > 2 else 6
    for budget in (None, 30):
        assert walked_outputs(t, maxlen, budget) == reference_outputs(t, maxlen, budget)


def test_sweeps_after_a_kept_configuration_stay_out_of_it():
    """r scans right; on an a, y walks back over the b's before it and t
    sweeps them again; at ⊣, z walks back over the c's before it and t
    sweeps them.  On bbacc, t's sweep over cc lands on ⊣ after the head
    first stood there, and on bbacca t steps onto that cell again, for the
    first time in that run, which accepts.  What the run on a prefix does
    after its head first stood on ⊣ must not carry into the runs of its
    extensions."""
    moves = {"s0": {LEFT_END: ("r", ACT_RIGHT)},
             "r": {"b": ("r", ACT_RIGHT), "c": ("r", ACT_RIGHT), "a": ("y", ACT_LEFT),
                   RIGHT_END: ("z", ACT_LEFT)},
             "y": {"b": ("y", ACT_LEFT), "a": ("t", ACT_RIGHT), "c": ("t", ACT_RIGHT),
                   LEFT_END: ("t", ACT_RIGHT)},
             "t": {"b": ("t", ACT_RIGHT), "c": ("t", ACT_RIGHT), "a": ("r", ACT_RIGHT)},
             "z": {"c": ("z", ACT_LEFT), "a": ("t", ACT_RIGHT), "b": ("t", ACT_RIGHT),
                   LEFT_END: ("t", ACT_RIGHT)}}
    rules = {(q, a, None): move for q, row in moves.items() for a, move in row.items()}
    t = MarbleTransducer(("a", "b", "c"), ("a",), tuple(moves), "s0", frozenset({"t"}),
                         (), rules, {key: () for key in rules})
    got = walked_outputs(t, 6)
    assert got == reference_outputs(t, 6)
    words = list(words_up_to("abc", 6))
    assert got[0][words.index(tuple("bbacca"))] == (ACCEPT, ())


def count_summaries(monkeypatch):
    """Patch ``marble_outputs``' word-tree nodes to ones that fail if one
    entry state's summary is stored twice; returns the list of nodes made
    and the list of summaries stored."""
    nodes, stored = [], []

    class Counted(semantics._Prefix):
        __slots__ = ()

        def __init__(self, parent, code):
            super().__init__(parent, code)
            nodes.append(self)

        def __setitem__(self, q, summary):
            assert q not in self, "summary of state %r simulated twice" % q
            stored.append(summary)
            super().__setitem__(q, summary)

    monkeypatch.setattr(semantics, "_Prefix", Counted)
    return nodes, stored


def test_words_below_a_dead_prefix_start_no_run(monkeypatch):
    """mul_marble rejects most words on a prefix; their extensions take the
    verdict with no summary and no run."""
    nodes, stored = count_summaries(monkeypatch)
    walk, runs = semantics._marble_walk, []
    monkeypatch.setattr(semantics, "_marble_walk",
                        lambda *args: runs.append(args[1]) or walk(*args))
    got = list(marble_outputs(load("mul_marble"), 6))
    assert len(got) == 5461 and sum(v == REJECT for v, _o in got) == 5341
    assert got == reference_outputs(load("mul_marble"), 6)[0]
    # a node for each word whose parent's run stood on ⊣, and no run at all
    assert len(nodes) < 600 and len(stored) < 1200 and not runs


def test_no_crossing_summary_is_simulated_twice(monkeypatch):
    """Each (prefix, state) summary is simulated once and shared by every
    extension of the prefix: a second store of one state in a node fails, on every corpus marble and two-way machine and on the random
    machines of the reference test."""
    nodes, stored = count_summaries(monkeypatch)
    rng = random.Random(88)
    cases = [(t, 6 if len(t.input_alphabet) < 3 else 4) for _name, t in corpus_marbles()]
    cases += [(random_marble(rng), 6) for _ in range(40)]
    for t, maxlen in cases:
        for budget in (None, 7):
            assert walked_outputs(t, maxlen, budget) == reference_outputs(t, maxlen, budget)
    assert len(nodes) > 1000 and len(stored) > len(nodes)


def zigzag():
    """A marble machine over ``ab`` that, on each new cell, drops a marble,
    walks back to ⊢ and returns to lift it, writing its letter: about
    |u|² steps before its head first stands on ⊣ (accepting there)."""
    rules = {("r", LEFT_END, None): ("r", ACT_RIGHT), ("l", LEFT_END, None): ("g", ACT_RIGHT)}
    for a in "ab":
        rules.update({("r", a, None): ("l", act_drop("m")), ("l", a, "m"): ("l", ACT_LEFT),
                      ("l", a, None): ("l", ACT_LEFT), ("g", a, None): ("g", ACT_RIGHT),
                      ("g", a, "m"): ("s", ACT_LIFT), ("s", a, None): ("r", ACT_RIGHT)})
    out = {key: (key[1],) if key[0] == "g" and key[2] else () for key in rules}
    return MarbleTransducer(("a", "b"), ("a", "b"), ("r", "l", "g", "s"), "r",
                            frozenset({"r"}), ("m",), rules, out)


def test_a_loop_found_past_the_budget_is_run_again_from_the_left_end(monkeypatch):
    """The walk sums a word's steps, so an accept, a reject or a budget
    verdict comes out with no run; only a word whose loop the summaries find
    past its budget is run again from ⊢, where the loop may come sooner.
    Under a budget that grows with the length, as ``default_budget`` does,
    and under fixed ones."""
    walk, reruns = semantics._marble_walk, []

    def counting(tables, tape, budget, tr):
        res = walk(tables, tape, budget, tr)
        reruns.append(res[0])
        return res

    monkeypatch.setattr(semantics, "_marble_walk", counting)
    rng = random.Random(87)
    machines = [zigzag()] + [random_marble(rng) for _ in range(60)]
    counts = []
    for grow in (lambda n: n * n + 2, lambda n: 6 * n + 4):
        monkeypatch.setattr(semantics, "default_budget", lambda states, n: grow(n))
        reruns.clear()
        for t in machines:
            assert walked_outputs(t, 6) == reference_outputs(t, 6, grow)
        counts.append(len(reruns))
        assert set(reruns) <= {LOOP, BUDGET}
    got = walked_outputs(machines[0], 6)[0]
    assert got[:3] == [(ACCEPT, ()), (ACCEPT, ("a",)), (ACCEPT, ("b",))]
    assert got[-1] == (BUDGET, None)
    for budget in (5, 7, 30):
        reruns.clear()
        for t in machines:
            assert walked_outputs(t, 6, budget) == reference_outputs(t, 6, budget)
        counts.append(len(reruns))
        assert set(reruns) <= {LOOP, BUDGET}
    assert counts[0] >= 5 and counts[2] >= 50 and counts[4] == 0
    # the zigzag machine never loops: its budget verdicts need no run
    reruns.clear()
    monkeypatch.setattr(semantics, "default_budget", lambda states, n: n * n + 2)
    assert walked_outputs(machines[0], 8) == reference_outputs(machines[0], 8, lambda n: n * n + 2)
    assert not reruns


def test_marble_outputs_are_not_bounded_by_the_register_output_limit(monkeypatch):
    """``OUTPUT_LETTER_LIMIT`` bounds register outputs only: a marble run
    writes as many letters as its steps allow, so a word whose shared output
    ``_flat`` refuses is run again from ⊢ for it."""
    monkeypatch.setattr(semantics, "OUTPUT_LETTER_LIMIT", 5)
    t = marble_of(load("copy_two_way"))
    got = walked_outputs(t, 4)
    assert got == reference_outputs(t, 4) and len(got[0][-1][1]) == 8


def test_marble_outputs_join_long_outputs_before_and_after_the_right_end():
    """A machine that writes each letter six times on its way right and
    again on its way back from ⊣: from three letters on, what it wrote
    before its head first stood on ⊣ and what it wrote after are joined as
    a node (``_joined``)."""
    moves = {("r", LEFT_END): ("r", ACT_RIGHT), ("r", RIGHT_END): ("l", ACT_LEFT),
             ("l", LEFT_END): ("f", ACT_RIGHT)}
    for a in "ab":
        moves.update({("r", a): ("r", ACT_RIGHT), ("l", a): ("l", ACT_LEFT),
                      ("f", a): ("f", ACT_RIGHT)})
    rules = {(q, a, None): move for (q, a), move in moves.items()}
    out = {key: (key[1],) * 6 if key[0] != "f" and key[1] in "ab" else () for key in rules}
    t = MarbleTransducer(("a", "b"), ("a", "b"), ("r", "l", "f"), "r", frozenset({"f"}),
                         (), rules, out)
    got = walked_outputs(t, 4)
    assert got == reference_outputs(t, 4)
    assert got[0][-1] == (ACCEPT, ("b",) * 48) and 48 > SHARE_MIN


def optimized_two_way(name):
    """The ``optimize`` output of a two-way corpus machine."""
    return minimize_marbles(marble_of(load(name))).machine


@pytest.mark.parametrize("name,maxlen", [("copy_two_way", 10), ("reverse_two_way", 8)])
def test_marble_outputs_match_the_reference_on_optimized_two_way_machines(name, maxlen):
    """Word by word at longer lengths, with the default budget and with one
    that some words spend after their head first stood on ⊣."""
    t = optimized_two_way(name)
    for budget in (None, 4 * maxlen):
        want = reference_outputs(t, maxlen, budget)
        assert walked_outputs(t, maxlen, budget) == want
    verdicts = [v for v, _o in want[0]]
    assert ACCEPT in verdicts and BUDGET in verdicts
    past_the_end = [w for w, v in zip(words_up_to(t.input_alphabet, maxlen), verdicts)
                    if v == BUDGET and any(pos == len(w) + 1 for _s, _q, pos, _st, _o in
                                           reference_run(t, w, 4 * maxlen, trace=True).trace)]
    assert past_the_end


def test_an_invalid_move_raises_at_the_same_word():
    """A move right over a marble, a drop on one, a lift where there is
    none and an unknown action: a run from the left end raises at the first
    word that takes it, while ``marble_outputs``, ``run_marble`` and
    ``equiv_check`` raise one refusal at the first word of all."""
    m = load("mul_marble")
    faults = [(("m3", "0", "m"), ("m4", ACT_RIGHT), "invalid machine: move right over a marble"),
              (("m3", "0", "m"), ("m4", act_drop("m")), "invalid machine: drop on a marbled position"),
              (("m7", "0", None), ("m2", ACT_LIFT), "invalid machine: lift without a marble"),
              (("m3", "0", "m"), ("m4", ("jump", None)), "invalid action ('jump', None)")]
    for key, move, expected in faults:
        broken = replace(m, delta={**m.delta, key: move}, out={**m.out, key: ()})
        got, error = reference_outputs(broken, 4)
        assert error == expected and len(got) > 5
        assert walked_outputs(broken, 4) == ([], refusal(broken))
        first = list(words_up_to(m.input_alphabet, 4))[len(got)]
        assert_refused(broken, ["", first])
        for pair in ((broken, m), (m, broken), (load("mul_sst"), broken)):
            errors = []
            for check in (reference_equiv, equiv_check):
                with pytest.raises(MachineError) as err:
                    check(*pair, 4)
                errors.append(str(err.value))
            assert errors[0] == errors[1] == refusal(broken)


@pytest.mark.parametrize("letter,error", [
    ("a", "marble None below the reading head"),
    ("b", "marble stack positions not strictly increasing"),
    ("c", None)])
def test_a_marble_of_no_colour_acts_as_in_a_run(letter, error):
    """A machine that ``validate`` refuses, built in code, drops a marble of
    colour None.  In a run from ⊢ the head reads the cell as unmarked and
    cannot lift it, moving right off it or dropping again raises, and on ⊣
    it keeps f, a final state, from accepting.  Every marble run refuses the
    machine before its first step."""
    rules = {("q", LEFT_END, None): ("q", ACT_RIGHT), ("q", "a", None): ("d", act_drop(None)),
             ("d", "a", None): ("q", ACT_RIGHT), ("q", "b", None): ("d", act_drop(None)),
             ("d", "b", None): ("q", act_drop(None)), ("q", "c", None): ("q", ACT_RIGHT),
             ("q", RIGHT_END, None): ("f", act_drop(None)), ("f", RIGHT_END, None): ("g", ACT_LEFT),
             ("g", "c", None): ("h", ACT_RIGHT)}
    rules = {k: v for k, v in rules.items() if k[1] in (letter, LEFT_END, RIGHT_END)}
    t = MarbleTransducer(("a", "b", "c"), ("a",), ("q", "d", "f", "g", "h"), "q",
                         frozenset({"f"}), (), rules, {k: () for k in rules})
    got = reference_outputs(t, 3)
    assert got[1] == error and {v for v, _o in got[0]} == {REJECT}
    assert walked_outputs(t, 3) == ([], refusal(t))
    assert_refused(t, ["", letter, letter * 3])


# s steps off ⊢ into p, which rejects on ⊣ and steps right over the first
# a into q, which walks to ⊣; there d stands on a marble or on none.
ENDMARKER_PRECEDENCE = [
    # a marble dropped on ⊣, then a right move: a run from ⊢ raises for the
    # move over the marble, although it would also step off the tape
    ({("q", RIGHT_END, None): ("d", act_drop("m")), ("d", RIGHT_END, "m"): ("e", ACT_RIGHT)},
     1, "invalid machine: move right over a marble"),
    # a marble dropped on ⊢, then a left move: a reject, the move uncounted
    ({("s", LEFT_END, None): ("d", act_drop("m")), ("d", LEFT_END, "m"): ("e", ACT_LEFT)},
     0, None),
    # a marble of no colour on ⊣ reads as no marble in a run from ⊢: the
    # right move steps off the tape and rejects before it could leave the
    # marble behind
    ({("q", RIGHT_END, None): ("d", act_drop(None)), ("d", RIGHT_END, None): ("e", ACT_RIGHT)},
     1, None),
]


@pytest.mark.parametrize("rules,rejects_before,error", ENDMARKER_PRECEDENCE)
def test_endmarker_steps_keep_their_precedence(rules, rejects_before, error):
    """What the step table decides on the endmarkers: ``run_marble``,
    traced and not, and ``marble_outputs`` give what a run from ⊢ gives.
    The machines with a move over a marble or a marble of no colour are
    refused on every word."""
    rules = {("s", LEFT_END, None): ("p", ACT_RIGHT), ("p", "a", None): ("q", ACT_RIGHT),
             ("q", "a", None): ("q", ACT_RIGHT), **rules}
    states = ("s", "p", "q", "d", "e", "f")  # each move emits the state it leaves
    t = MarbleTransducer(("a",), states, states, "s", frozenset({"f"}), ("m",), rules,
                         {k: (k[0],) for k in rules})
    got = reference_outputs(t, 3)
    assert got == ([(REJECT, None)] * (rejects_before if error else 4), error)
    if validate(t):
        assert walked_outputs(t, 3) == ([], refusal(t))
        assert_refused(t, list(words_up_to(t.input_alphabet, 3)))
        return
    assert walked_outputs(t, 3) == got
    for w in words_up_to(t.input_alphabet, 3):
        for trace in (False, True):
            assert run_marble(t, w, trace=trace) == reference_run(t, w, trace=trace), w
    if ("d", LEFT_END, "m") in rules:
        assert run_marble(t, "aa") == RunResult(REJECT, None, 1, 1)  # the drop alone


def test_an_endmarker_in_the_input_alphabet_is_refused():
    for end in (LEFT_END, RIGHT_END):
        t = MarbleTransducer(("a", end), ("a",), ("q",), "q", frozenset({"q"}), (),
                             {("q", "a", None): ("q", ACT_RIGHT)}, {("q", "a", None): ()})
        message = "^invalid marble transducer: input alphabet contains reserved endmarker %r$" % end
        with pytest.raises(MachineError, match=message):
            run_marble(t, "a")
        with pytest.raises(MachineError, match=message):
            list(marble_outputs(t, 2))


def test_a_colourless_marble_is_refused_on_every_word():
    """s drops a marble of no colour on ⊢ after an aa prefix sends the head
    back; b alone never reaches that drop, and its run accepts in f.  A run
    of b and the crossing summaries of ⊢, which ab shares, must agree: both
    refuse the machine."""
    rules = {("p", LEFT_END, None): ("p", ACT_RIGHT), ("s", LEFT_END, None): ("q1", act_drop(None)),
             ("q1", LEFT_END, None): ("q1", ACT_RIGHT),
             ("p", "a", None): ("pa", ACT_RIGHT), ("pa", "a", None): ("s1", ACT_LEFT),
             ("s1", "a", None): ("s", ACT_LEFT),
             ("p", "b", None): ("pb", ACT_RIGHT), ("t", "b", None): ("q1", ACT_LEFT),
             ("q1", "b", None): ("f", ACT_RIGHT), ("pb", RIGHT_END, None): ("t", ACT_LEFT)}
    t = MarbleTransducer(("a", "b"), ("a",), ("p", "pa", "pb", "s", "s1", "q1", "t", "f"),
                         "p", frozenset({"f"}), (), rules, {k: () for k in rules})
    assert refusal(t) == "invalid marble transducer: delta[s,⊢,None]: drops undeclared color None"
    assert reference_run(t, "b").accepted
    assert_refused(t, ["b", "aa", "ab", ""])


def test_a_two_way_move_that_is_neither_left_nor_right_is_refused():
    """``two_way_to_marble`` keeps a two-way move as the marble action, so
    a move ``validate`` calls bad is refused, not run as a right move."""
    t = TwoWayTransducer(("a",), ("a",), ("q",), "q", frozenset({"q"}),
                         {("q", LEFT_END): ("q", MOVE_RIGHT), ("q", "a"): ("q", "up")},
                         {("q", LEFT_END): (), ("q", "a"): ()})
    assert validate(t) == ["delta[q,a]: bad move 'up'"]
    message = "invalid marble transducer: delta[q,a,None]: bad action ('up', None)"
    assert refusal(marble_of(t)) == message
    for w in ("", "a", "aa"):
        with pytest.raises(MachineError, match="^%s$" % re.escape(message)):
            run_two_way(t, w)
    for pair in ((t, t), (load("identity_sst", "a"), t)):
        with pytest.raises(MachineError, match="^%s$" % re.escape(message)):
            equiv_check(*pair, 2)
    assert_refused(marble_of(t), ["", "a", "aa"])


def test_a_mutant_is_refused_exactly_when_validate_refuses_it():
    """Generated marble machines with one transition given another action
    (an undeclared or absent colour, a right move or a drop on a marble, a
    lift on none, an unknown kind) or an undeclared target: every consumer
    refuses the mutant if ``validate`` reports a problem, and runs it
    otherwise."""
    from perfbench.gen import random_marble as generated_marble

    rng = random.Random(38)
    refused = 0
    for trial in range(300):
        t = generated_marble(rng)
        key = rng.choice(sorted(t.delta, key=repr))
        q2, action = t.delta[key]
        if rng.random() < 0.1:
            q2 = "undeclared"
        else:
            action = rng.choice([ACT_LEFT, ACT_RIGHT, ACT_LIFT, ("jump", None), act_drop(None),
                                 act_drop("z"), *map(act_drop, t.colors)])
        t = replace(t, delta={**t.delta, key: (q2, action)})
        if validate(t):
            refused += 1
            assert_refused(t, list(words_up_to(t.input_alphabet, 2)))
            continue
        runs = [run_marble(t, w) for w in words_up_to(t.input_alphabet, 3)]
        assert list(marble_outputs(t, 3)) == [(r.verdict, r.output) for r in runs], trial
        assert equiv_check(t, t, 3).status != oracle.COUNTEREXAMPLE
        marble_to_sst(t)
    assert 50 < refused < 250


def mutated_marble(rng, t):
    """``t`` with one transition sent to another state, its output changed,
    or removed."""
    key = rng.choice(sorted(t.delta, key=repr))
    delta, out = dict(t.delta), dict(t.out)
    kind = rng.randrange(3)
    if kind == 0:
        delta[key] = (rng.choice(t.states), delta[key][1])
    elif kind == 1:
        out[key] = out[key] + (t.output_alphabet[0],)
    else:
        del delta[key], out[key]
    return replace(t, delta=delta, out=out)


def test_marble_pairs_keep_the_word_by_word_verdicts():
    """Marble against marble, mutated or not, and SST sources against their
    walkers, with budgets that run out before ⊣ and after it."""
    rng = random.Random(85)
    statuses = []
    for trial in range(120):
        t1 = random_marble(rng)
        t2 = mutated_marble(rng, t1) if t1.delta and trial % 3 else random_marble(rng)
        budget = rng.choice((None, None, 5, 7, 30))
        for pair in ((t1, t2), (t2, t1), (t1, t1)):
            expected = reference_equiv(*pair, 5, budget=budget)
            assert verdict_of(*pair, 5, budget=budget) == expected
            statuses.append(expected[0])
    for name in ("mul_sst", "reverse_sst", "bounded_pair_sst"):
        source = load(name, ("a", "b", "#", "0"))
        res = to_k_layered(source)
        walker = layered_to_marble(res.machine, res.layers)
        for trial in range(6):
            side = mutated(rng, source) if trial % 2 else source
            budget = rng.choice((None, 50, 400, 3000))
            for pair in ((side, walker), (walker, side), (walker, walker)):
                expected = reference_equiv(*pair, 4, budget=budget)
                assert verdict_of(*pair, 4, budget=budget) == expected
                statuses.append(expected[0])
    assert statuses.count("inconclusive") >= 20
    assert statuses.count("counterexample") >= 60
    assert statuses.count("equivalent") >= 120


def spy_runs(monkeypatch) -> list:
    """Record each (machine, word) that ``equiv_check`` runs through
    ``run_machine``."""
    runs, run = [], oracle.run_machine
    monkeypatch.setattr(oracle, "run_machine",
                        lambda m, w, **kw: runs.append((m, tuple(w))) or run(m, w, **kw))
    return runs


@pytest.mark.parametrize("a,b,maxlen", [
    ("mul_sst", "mul_sst_copyful", 5), ("reverse_sst", "reverse_two_way", 6),
    ("mul_marble", "mul_sst", 5), ("pow2_marble", "pow2_marble_wasteful", 6)])
def test_equivalent_pairs_run_no_word_again(monkeypatch, a, b, maxlen):
    """An SST/SST, SST/marble, marble/SST or marble/marble pair that is
    equivalent runs no word through ``run_machine``."""
    runs = spy_runs(monkeypatch)
    assert equiv_check(load(a), load(b), maxlen).equivalent
    assert runs == []


def test_a_counterexample_or_inconclusive_word_is_run_once_per_side(monkeypatch):
    """Only the word reported is run again, once on each side, whether it is
    a counterexample of two SSTs or of an SST and a two-way machine, or a
    word that hits the budget on a marble side; the verdict is that of the
    word-by-word reference."""
    cases = [(load("identity_sst"), _differs_on(tuple("abb")), {}),
             (_differs_on(tuple("abb")), load("identity_sst"), {}),
             (load("identity_sst"), load("reverse_two_way", ("a", "b")), {}),
             (load("exp_marble"), load("exp_marble"), {"budget": 5}),
             (load("exp_sst"), load("exp_marble"), {"budget": 5})]
    statuses = []
    for m1, m2, kwargs in cases:
        runs = spy_runs(monkeypatch)
        verdict = equiv_check(m1, m2, 5, **kwargs)
        monkeypatch.undo()
        word = verdict.inconclusive_word or verdict.counterexample[0]
        assert runs == [(m1, word), (m2, word)]
        assert (verdict.status, word if verdict.inconclusive_word else
                verdict.counterexample) == reference_equiv(m1, m2, 5, **kwargs)
        statuses.append(verdict.status)
    assert statuses == ["counterexample"] * 3 + ["inconclusive"] * 2


def test_no_stream_gives_a_word_past_the_cap(monkeypatch):
    """With ``WORD_CAP`` below the words up to ``maxlen``, each side's stream
    (an SST's, a marble machine's or an NSST-F's runs) gives exactly the
    capped words before the cap error, and no word is run again."""
    given = []

    def counted(stream):
        def walk(*args):
            for item in stream(*args):
                given.append(args[0])
                yield item
        return walk

    nsstf_output = oracle._nsstf_output
    monkeypatch.setattr(oracle, "_sst_texts", counted(oracle._sst_texts))
    monkeypatch.setattr(oracle, "_marble_texts", counted(oracle._marble_texts))
    monkeypatch.setattr(oracle, "_nsstf_output",
                        lambda m, *args: given.append(m) or nsstf_output(m, *args))
    runs = spy_runs(monkeypatch)
    monkeypatch.setattr(oracle, "WORD_CAP", 20)
    total, _ = make_total(load("bounded_pair_sst"))
    nsst = bounded_sstf_to_unambiguous(total)
    for m1, m2, maxlen in ((load("mul_sst"), load("mul_marble"), 5), (nsst, total, 30)):
        del given[:], runs[:]
        with pytest.raises(MachineError, match=r"^word enumeration cap exceeded \(20\)$"):
            equiv_check(m1, m2, maxlen)
        streams = given + [m for m, _w in runs]
        assert [streams.count(m1), streams.count(m2)] == [20, 20]


def test_nsstf_sides_keep_the_word_by_word_verdicts():
    rng = random.Random(86)
    total, _ = make_total(load("bounded_pair_sst"))
    nsst = bounded_sstf_to_unambiguous(total)
    walker = marble_of(load("reverse_two_way", nsst.input_alphabet))
    statuses = []
    for trial in range(8):
        other = mutated(rng, total) if trial % 2 else total
        for pair in ((nsst, other), (other, nsst), (nsst, walker), (nsst, nsst)):
            expected = reference_equiv(*pair, 4)
            assert verdict_of(*pair, 4) == expected
            statuses.append(expected[0])
    assert statuses.count("equivalent") >= 8 and statuses.count("counterexample") >= 8


def _differs_on(target):
    """identity_sst over ``ab`` whose output gains an ``a`` on ``target``."""
    n = len(target)
    states = tuple("p%d" % i for i in range(n + 1)) + ("off",)
    delta, update = {}, {}
    for q in states:
        for a in "ab":
            i = int(q[1:]) if q != "off" else None
            on = i is not None and i < n and target[i] == a
            delta[(q, a)] = "p%d" % (i + 1) if on else "off"
            update[(q, a)] = {"x": (Reg("x"), Lit(a))}
    output = {q: (Reg("x"),) for q in states}
    output["p%d" % n] = (Reg("x"), Lit("a"))
    return SST(("a", "b"), ("a", "b"), states, ("x",), "p0", {"x": ()},
               delta, update, output)


def test_equiv_word_cap_is_reached_at_the_same_word():
    # words of length below 16 number 2^16 - 1, so the 100,000th word of
    # the enumeration is the length-16 word with binary index 34,464
    def word(index):
        return tuple("ab"[int(bit)] for bit in format(index, "016b"))

    last = word(100000 - 2 ** 16)
    verdict = equiv_check(load("identity_sst"), _differs_on(last), 16)
    assert verdict.counterexample == (last, last, last + ("a",))
    with pytest.raises(MachineError, match=r"^word enumeration cap exceeded \(100000\)$"):
        equiv_check(load("identity_sst"), _differs_on(word(100001 - 2 ** 16)), 16)


@pytest.mark.parametrize("a,b,maxlen", [
    ("mul_sst", "mul_sst", 4), ("mul_marble", "mul_marble", 4),
    ("reverse_two_way", "reverse_sst", 4)])
def test_word_cap_boundary(monkeypatch, capsys, a, b, maxlen):
    """With ``WORD_CAP`` at the number of words up to ``maxlen`` the check
    answers; one less raises the cap error, and the CLI exits 1."""
    m1, m2 = load(a), load(b)
    words = sum(len(m1.input_alphabet) ** n for n in range(maxlen + 1))
    args = ["equiv", corpus_path(a), corpus_path(b), "--maxlen", str(maxlen)]
    monkeypatch.setattr(oracle, "WORD_CAP", words)
    assert equiv_check(m1, m2, maxlen).equivalent
    assert main(args) == 0
    monkeypatch.setattr(oracle, "WORD_CAP", words - 1)
    with pytest.raises(MachineError, match=r"^word enumeration cap exceeded \(%d\)$"
                       % (words - 1)):
        equiv_check(m1, m2, maxlen)
    capsys.readouterr()
    assert main(args) == 1
    assert "word enumeration cap exceeded (%d)" % (words - 1) in capsys.readouterr().err


def test_budget_cap_boundary(monkeypatch, capsys):
    """With ``BUDGET_CAP`` at the steps of exp_marble's run on a^5, the
    default budget of every word up to that length is the cap, and the run
    accepts, directly and in the summary walk of ``equiv``; one less gives
    the budget verdict: ``run`` exits 3 and ``equiv`` is inconclusive on
    a^5, with exit 3."""
    t = load("exp_marble")
    steps = run_marble(t, "aaaaa").steps
    assert steps == 256 and steps < semantics.default_budget(len(t.states), 0)
    run_args = ["run", corpus_path("exp_marble"), "aaaaa"]
    equiv_args = ["equiv", corpus_path("exp_marble"), corpus_path("exp_sst"), "--maxlen", "5"]
    monkeypatch.setattr(semantics, "BUDGET_CAP", steps)
    assert run_marble(t, "aaaaa").accepted
    assert list(marble_outputs(t, 5)) == [
        (ACCEPT, run_marble(t, w).output) for w in words_up_to(("a",), 5)]
    assert equiv_check(t, load("exp_sst"), 5).equivalent
    assert main(run_args) == 0 and main(equiv_args) == 0
    monkeypatch.setattr(semantics, "BUDGET_CAP", steps - 1)
    assert run_marble(t, "aaaaa").verdict == BUDGET
    assert list(marble_outputs(t, 5))[-1] == (BUDGET, None)
    verdict = equiv_check(t, load("exp_sst"), 5)
    assert verdict.status == "inconclusive" and verdict.inconclusive_word == tuple("aaaaa")
    capsys.readouterr()
    assert main(run_args) == 3
    assert "step budget exhausted" in capsys.readouterr().err
    assert main(equiv_args) == 3
    assert '"inconclusive"' in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Colourless sides read through their crossing SSTs
# ---------------------------------------------------------------------------


def random_two_way(rng):
    """A two-way machine over ``ab`` of 1-4 states that may reject or loop."""
    states = tuple("q%d" % i for i in range(rng.randint(1, 4)))
    delta, out = {}, {}
    for q in states:
        for s in ("a", "b", LEFT_END, RIGHT_END):
            if rng.random() < 0.85:
                delta[q, s] = rng.choice(states), rng.choice((MOVE_LEFT, MOVE_RIGHT, MOVE_RIGHT))
                out[q, s] = tuple(rng.choices("ab", k=rng.randint(0, 2)))
    finals = frozenset(q for q in states if rng.random() < 0.6)
    return TwoWayTransducer(("a", "b"), ("a", "b"), states, states[0], finals, delta, out)


def colourless_corpus_sides():
    """Per colourless corpus file (the two-way ones), the machine, its
    marble form and its ``optimize`` walker."""
    groups = []
    for name in CORPUS_NAMES:
        m = load(name)
        if isinstance(m, TwoWayTransducer):
            walker = minimize_marbles(m).machine
            assert walker.colors == ()
            groups.append([m, two_way_to_marble(m), walker])
    assert len(groups) == 2
    return groups


def spy_crossing(monkeypatch, walk=False) -> list:
    """Record each side ``equiv_check`` asks ``marble_to_sst`` for, as
    (machine, limit, SST or the MachineError raised).  With ``walk`` every
    side walks (``_marble_texts``), as before the crossing route, and none
    is converted."""
    calls = []

    def converting(t, limit):
        try:
            calls.append((t, limit, marble_to_sst(t, limit)))
        except MachineError as err:
            calls.append((t, limit, err))
            raise
        return calls[-1][2]

    monkeypatch.setattr(oracle, "marble_to_sst", converting)
    if walk:
        monkeypatch.setattr(oracle, "_crossing_sst", lambda *args: None)
    return calls


def expected_limit(t, maxlen, budget):
    """The crossing-state limit with which ``equiv_check`` converts
    colourless side ``t``, or None if the side walks."""
    n = len(t.states)
    words = min(sum(len(t.input_alphabet) ** i for i in range(maxlen + 1)), oracle.WORD_CAP)
    if budget is not None or words // (2 * n) < 1 \
            or semantics.default_budget(n, maxlen) < n * (maxlen + 2):
        return None
    return words // (2 * n)


def assert_route_keeps_the_walk(monkeypatch, pairs, maxlens, budgets) -> list:
    """``equiv_check`` of each pair, both ways, at each length and budget
    gives the verdict that walking both sides gives, and converts exactly
    the sides the rule picks, with the rule's limit.  Returns the
    verdicts."""
    verdicts = []
    for m1, m2 in pairs:
        for maxlen in maxlens:
            for budget in budgets:
                for a, b in ((m1, m2), (m2, m1)):
                    with monkeypatch.context() as patch:
                        spy_crossing(patch, walk=True)
                        walked = equiv_check(a, b, maxlen, budget=budget)
                    with monkeypatch.context() as patch:
                        calls = spy_crossing(patch)
                        got = equiv_check(a, b, maxlen, budget=budget)
                    assert got == walked, (maxlen, budget)
                    want = [(t, expected_limit(t, maxlen, budget)) for t in (a, b)]
                    assert [(t, limit) for t, limit, _ in calls] == [
                        (t, limit) for t, limit in want if limit is not None]
                    verdicts.append((got, [r for _t, _l, r in calls]))
    return verdicts


def assert_some_built(verdicts, least: int) -> None:
    """More than ``least`` constructions answered, and some passed their
    limit, each with the limit error."""
    results = [r for _got, rs in verdicts for r in rs]
    assert sum(isinstance(r, SST) for r in results) > least
    refused = [r for r in results if not isinstance(r, SST)]
    assert refused and all(re.fullmatch(r"crossing-state space exceeded \d+ states", str(r))
                           for r in refused)


def test_corpus_sides_through_crossing_ssts_keep_the_walk_verdicts(monkeypatch):
    """The colourless corpus machines, in their three forms, against one
    another and against random two-way machines over their alphabet."""
    rng = random.Random(4501)
    pairs = []
    for group in colourless_corpus_sides():
        pairs += [(a, b) for i, a in enumerate(group) for b in group[i:]]
        if group[0].input_alphabet == ("a", "b"):
            pairs += [(t, random_two_way(rng)) for t in group]
    verdicts = assert_route_keeps_the_walk(monkeypatch, pairs, range(8), (None, 3, 10 ** 6))
    statuses = {got.status for got, _results in verdicts}
    assert statuses == {"equivalent", "counterexample", "inconclusive"}
    assert_some_built(verdicts, 100)


def test_random_two_way_sides_through_crossing_ssts_keep_the_walk_verdicts(monkeypatch):
    """Seeded random two-way machines, which reject and loop, against
    mutants of themselves, other random machines and their marble forms; a
    few constructions pass their limit and walk."""
    rng = random.Random(4502)
    pairs = []
    for trial in range(60):
        t = random_two_way(rng)
        other = random_two_way(rng)
        pairs += [(t, two_way_to_marble(t)), (t, other)]
    verdicts = assert_route_keeps_the_walk(monkeypatch, pairs, (0, 1, 3, 5, 7), (None, 4, 10 ** 6))
    statuses = [got.status for got, _results in verdicts]
    for status in ("equivalent", "counterexample", "inconclusive"):
        assert statuses.count(status) >= 20, status
    assert_some_built(verdicts, 500)


def test_coloured_sides_and_budgeted_checks_never_convert(monkeypatch):
    """A side with marble colours walks, and so does every side of a check
    given a step budget, by argument or by ``XDUCER_BUDGET``."""
    from perfbench.gen import random_marble as generated_marble

    calls = spy_crossing(monkeypatch)
    coloured = [load(name) for name in ("mul_marble", "pow2_marble",
                                        "pow2_marble_wasteful", "exp_marble")]
    coloured += [minimize_marbles(t).machine for t in coloured[:3]]
    rng = random.Random(4503)
    while len(coloured) < 60:
        t = random_marble(rng) if len(coloured) % 2 else generated_marble(rng)
        if t.colors:
            coloured.append(t)
    assert all(t.colors for t in coloured)
    for t in coloured:
        for maxlen in (2, 5):
            equiv_check(t, t, maxlen)
    assert calls == []
    for group in colourless_corpus_sides():
        for t in group:
            for budget in (1, 40, 10 ** 6):
                equiv_check(t, t, 6, budget=budget)
    assert calls == []
    args = ["equiv", corpus_path("copy_two_way"), corpus_path("copy_two_way"),
            "--maxlen", "6"]
    assert main(args + ["--budget", "40"]) == 0 and calls == []
    monkeypatch.setenv("XDUCER_BUDGET", "40")
    assert main(args) == 0 and calls == []
    monkeypatch.delenv("XDUCER_BUDGET")
    assert main(args) == 0 and len(calls) == 2


@pytest.mark.parametrize("member", [57, 94, 140, 142])
def test_large_walkers_never_convert(monkeypatch, member):
    """A walker of many states walks: its limit, |words| // (2·|Q|), is 0."""
    from perfbench.gen import pool_machine

    res = to_k_layered(pool_machine("opt_sst", member))
    walker = layered_to_marble(res.machine, res.layers)
    assert res.k == 0 and walker.colors == () and len(walker.states) > 127
    calls = spy_crossing(monkeypatch)
    assert equiv_check(walker, walker, 6).equivalent
    assert calls == []


def test_crossing_state_limit_boundary_of_the_route(monkeypatch):
    """At its exact crossing-state count a side's construction answers;
    one less raises the named limit error, and the side walks."""
    for group in colourless_corpus_sides():
        for t in group:
            m = marble_to_sst(t)
            size = len(m.states)
            assert marble_to_sst(t, size) == m
            with pytest.raises(MachineError, match=r"^crossing-state space exceeded "
                               r"%d states$" % (size - 1)):
                marble_to_sst(t, size - 1)
            # the word cap sets the limit once it is below the word count
            need, maxlen = 2 * len(t.states) * size, 0
            while sum(len(t.input_alphabet) ** n for n in range(maxlen + 1)) < need:
                maxlen += 1
            for cap, built in ((need, True), (need - 1, False)):
                with monkeypatch.context() as patch:
                    patch.setattr(oracle, "WORD_CAP", cap)
                    calls = spy_crossing(patch)
                    with pytest.raises(MachineError, match="word enumeration cap"):
                        equiv_check(t, t, maxlen)
                limits = [limit for _t, limit, _r in calls]
                assert limits == [cap // (2 * len(t.states))] * 2
                assert all(isinstance(r, SST) == built for _t, _l, r in calls)


def test_default_budget_boundary_of_the_route(monkeypatch):
    """A side converts only while the default budget of its longest words
    covers |Q|·(maxlen + 2) steps, which no run that does not loop takes."""
    t = load("copy_two_way")
    maxlen = 4
    bound = len(t.states) * (maxlen + 2)
    for cap, converts in ((bound, True), (bound - 1, False)):
        with monkeypatch.context() as patch:
            patch.setattr(semantics, "BUDGET_CAP", cap)
            calls = spy_crossing(patch)
            assert equiv_check(t, marble_of(t), maxlen).equivalent
            assert len(calls) == 2 * converts


def test_brute_pattern_search_exp():
    found = brute_pattern_search(load("exp_flow"), 1)
    assert found.heavy_cycles == (("x", ("a",)),)


def test_brute_pattern_search_chain():
    found = brute_pattern_search(load("chain_flow"), 3)
    assert found.heavy_cycles == ()
    assert [(q, q2, "".join(v)) for q, q2, v in found.barbells] == [
        ("x", "y", "a"), ("x", "y", "aa"), ("x", "y", "aaa")]


def test_brute_pattern_search_identity():
    from xducer.machines import NAutomaton

    ident = NAutomaton(("a",), ("x",), {"x": 1}, {"x": 1},
                       {"a": {("x", "x"): 1}})
    found = brute_pattern_search(ident, 4)
    assert found.heavy_cycles == () and found.barbells == ()
