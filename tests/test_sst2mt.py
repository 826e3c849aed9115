import random

import pytest

from xducer import sst2mt
from xducer.cli import main
from xducer.layering import minimize_marbles
from xducer.machine_io import parse_machine
from xducer.machines import (
    ACT_LEFT,
    ACT_RIGHT,
    DFA,
    LEFT_END,
    Lit,
    MachineError,
    Reg,
    SST,
    check_layered,
    validate,
)
from xducer.oracle import equiv_check, words_up_to
from xducer.semantics import run_marble, run_sst
from xducer.sst2mt import (
    layered_to_marble,
    lookbehind_step,
    sst_to_marble,
)

from conftest import corpus_path, load


def test_marked_colors_exp():
    # one color per register occurrence of an update: x -> x x marks both
    assert sst_to_marble(load("exp_sst")).colors == ("mk|q|a|x|0", "mk|q|a|x|1")


CORPUS_SST = [
    ("exp", "exp_sst", 6),
    ("reverse", "reverse_sst", 6),
    ("mul", "mul_sst", 5),
    ("pair", "bounded_pair_sst", 6),
    ("reverse_copyful", "reverse_sst_copyful", 6),
]


@pytest.mark.parametrize("name,file,maxlen", CORPUS_SST)
def test_sst_to_marble_equivalence(name, file, maxlen):
    source = load(file)
    converted = sst_to_marble(source)
    assert validate(converted) == []
    verdict = equiv_check(converted, source, maxlen)
    assert verdict.equivalent, (name, verdict.counterexample)


def test_value_at_left_end_is_initial():
    m = load("exp_sst")
    walker = sst_to_marble(m)
    assert run_marble(walker, "").output_text == "a"


def test_exp_walker_outputs():
    walker = sst_to_marble(load("exp_sst"))
    for n in range(6):
        assert len(run_marble(walker, "a" * n).output) == 2 ** n


def max_depth(machine, maxlen, cap=4000):
    worst = 0
    for w in words_up_to(machine.input_alphabet, maxlen, cap=cap):
        r = run_marble(machine, w)
        if r.accepted:
            worst = max(worst, r.max_stack_depth)
    return worst


def test_layered_exact_mul():
    mul, layers = parse_machine(corpus_path("mul_sst"))
    mm = layered_to_marble(mul, layers)
    assert equiv_check(mm, mul, 5).equivalent
    assert max_depth(mm, 5) <= 1


def test_walker_state_limit(monkeypatch, capsys):
    mul, layers = parse_machine(corpus_path("mul_sst"))
    mm = layered_to_marble(mul, layers)
    # the build explores one node per walker state
    size = len(mm.states)
    assert size == 15
    monkeypatch.setattr(sst2mt, "WALKER_STATE_LIMIT", size)
    assert layered_to_marble(mul, layers) == mm
    monkeypatch.setattr(sst2mt, "WALKER_STATE_LIMIT", size - 1)
    with pytest.raises(MachineError, match=r"^walker build exceeded %d states$"
                       % (size - 1)):
        layered_to_marble(mul, layers)
    assert main(["convert", "--to", "marble", corpus_path("mul_sst")]) == 1
    assert "walker build exceeded 14 states" in capsys.readouterr().err


def test_layered_exact_copyless_reverse_is_two_way():
    rev = load("reverse_sst")
    mm = layered_to_marble(rev, (rev.registers,))
    assert equiv_check(mm, rev, 4).equivalent
    assert max_depth(mm, 4) == 0
    assert not any(action[0] == "drop" for _t, action in mm.delta.values())
    assert mm.colors == ()
    assert run_marble(mm, "abac").output_text == "caba"


def test_layered_exact_long_inputs_until_counter_bound():
    """Minimized walkers match their sources far beyond any fixed length,
    within the minimal mark count."""
    cases = [
        (load("mul_marble"), ["ab#" + "0" * n for n in
                               list(range(13)) + list(range(60, 67)) + [100, 200]]),
        (load("pow2_marble"), ["a" * n for n in (63, 64, 65, 70, 100)]),
    ]
    for source, words in cases:
        res = minimize_marbles(source)
        for w in words:
            want = run_marble(source, w, budget=10 ** 7)
            got = run_marble(res.machine, w, budget=10 ** 7)
            assert want.accepted and got.accepted, len(w)
            assert got.output == want.output, len(w)
            assert got.max_stack_depth <= res.k, len(w)


def repeated_output_sst() -> SST:
    """Two layers, x below y, whose output in p names x three times."""
    x, y, a, b = Reg("x"), Reg("y"), Lit("a"), Lit("b")
    return SST(
        input_alphabet=("a", "b"), output_alphabet=("a", "b", "#"),
        states=("p", "q"), registers=("x", "y"), initial="p",
        init_valuation={"x": ("a",), "y": ()},
        delta={("p", "a"): "q", ("q", "a"): "p", ("p", "b"): "p", ("q", "b"): "p"},
        update={("p", "a"): {"x": (a, x), "y": (y, x, b)},
                ("q", "a"): {"x": (x, b), "y": (x, y)},
                ("p", "b"): {"x": (x,), "y": (b, y, x)},
                ("q", "b"): {"x": (b, x), "y": (y,)}},
        output={"p": (x, Lit("#"), y, x, Lit("#"), x), "q": (y, x)},
    )


def test_walkers_resume_after_repeated_output_registers():
    """An evaluation started from the output resumes after its own
    occurrence of the register, also where the output names it again."""
    m = repeated_output_sst()
    layers = (("x",), ("y",))
    assert validate(m) == [] and check_layered(m, layers) == []
    rng = random.Random(5)
    for walker, depth in ((layered_to_marble(m, layers), 1), (sst_to_marble(m), None)):
        verdict = equiv_check(walker, m, 6)
        assert verdict.equivalent, verdict.counterexample
        for _ in range(3):
            w = [rng.choice("ab") for _ in range(rng.randint(50, 90))]
            want = run_sst(m, w)
            got = run_marble(walker, w, budget=10 ** 8)
            assert want.accepted and got.output == want.output, len(w)
            assert depth is None or got.max_stack_depth <= depth, len(w)


def test_layered_requires_valid_partition():
    with pytest.raises(MachineError):
        layered_to_marble(load("exp_sst"), (("x",),))


def test_lookbehind_trivial_cases():
    only = DFA(("a",), ("o",), "o", {("o", "a"): "o"}, frozenset({"o"}))
    # a single state is its own only pre-image: resolved without moving
    assert lookbehind_step(only, ("land", "o"), "a") == (None, "o")
    assert lookbehind_step(only, ("land", "o"), LEFT_END) is None
    # a swaps e and o, b sends both to e: landing on the b of "aab" leaves two
    # candidates, and the a's never narrow them, so the walk reaches the start
    flip = DFA(("a", "b"), ("e", "o"), "e",
               {("e", "a"): "o", ("o", "a"): "e", ("e", "b"): "e", ("o", "b"): "e"},
               frozenset({"e"}))
    state = ("land", "e")
    steps = [(ACT_LEFT, "b"), (ACT_LEFT, "a"), (ACT_LEFT, "a"),
             (ACT_RIGHT, LEFT_END), (ACT_RIGHT, "a"), (ACT_RIGHT, "a")]
    for move, symbol in steps:
        got, state = lookbehind_step(flip, state, symbol)
        assert got == move, (symbol, state)
    assert state[0] == "fwd"
    assert lookbehind_step(flip, state, "b") == (None, flip.run("aa"))
