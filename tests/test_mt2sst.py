import pytest

from xducer import mt2sst
from xducer.cli import main
from xducer.machines import (
    ACT_LEFT,
    ACT_LIFT,
    ACT_RIGHT,
    LEFT_END,
    MachineError,
    MarbleTransducer,
    act_drop,
    check_copyless,
    validate,
)
from xducer.mt2sst import (
    CALL,
    CONST,
    crossing_fixpoint,
    exit_fixpoint,
    marble_to_sst,
    two_way_to_marble,
)
from xducer.oracle import equiv_check, words_up_to
from xducer.semantics import run_sst

from conftest import corpus_path, load, marble_step


def fragment(transitions, states, colors=("c",), finals=()):
    delta, out = {}, {}
    for (q, sym, col), (q2, action, emitted) in transitions.items():
        delta[(q, sym, col)] = (q2, action)
        out[(q, sym, col)] = tuple(emitted)
    return MarbleTransducer(
        input_alphabet=("a",), output_alphabet=("o1", "o2", "o3", "o4", "o5"),
        states=tuple(states), initial=states[0], finals=frozenset(finals),
        colors=tuple(colors), delta=delta, out=out,
    )


def test_crossing_trivial_right_move():
    t = fragment({("q", "a", None): ("q2", ACT_RIGHT, ("o1",))},
                 states=("q", "q2"))
    deriv = crossing_fixpoint(t, {"q": None, "q2": None}, "a")
    assert deriv["q", None][0] == "q2"
    assert deriv["q", None][1] == ((CONST, ("o1",)),)


def test_crossing_stitched_run_uses_two_calls():
    # drop, walk left, cross, lift, walk left again, cross, exit right
    states = ("q", "q1", "q2", "q3", "fq2", "qq")
    trans = {
        ("q", "a", None): ("q1", act_drop("c"), ("o1",)),
        ("q1", "a", "c"): ("q2", ACT_LEFT, ("o2",)),
        ("fq2", "a", "c"): ("q3", ACT_LIFT, ("o3",)),
        ("q3", "a", None): ("q2", ACT_LEFT, ("o4",)),
        ("fq2", "a", None): ("qq", ACT_RIGHT, ("o5",)),
    }
    t = fragment(trans, states)
    f = {s: None for s in states}
    f["q2"] = "fq2"
    deriv = crossing_fixpoint(t, f, "a")
    assert deriv["q", None][0] == "qq"
    assert deriv["q", None][1] == (
        (CONST, ("o1",)), (CONST, ("o2",)), (CALL, "q2"),
        (CONST, ("o3",)), (CONST, ("o4",)), (CALL, "q2"),
        (CONST, ("o5",)),
    )


def test_crossing_dead_continuation_is_bottom():
    t = fragment({("q", "a", None): ("q", ACT_LEFT, ())}, states=("q",))
    deriv = crossing_fixpoint(t, {"q": None}, "a")
    assert deriv["q", None][0] is None
    assert deriv["q", None][1] == ()


def test_crossing_follows_long_chains():
    # 3,000 drop/lift steps on one letter: chains this long are followed
    # without recursion, to their crossing or around their cycle
    n = 3000
    states = tuple("q%d" % i for i in range(n + 2))
    trans = {}
    for i in range(0, n, 2):
        trans[(states[i], "a", None)] = (states[i + 1], act_drop("c"), ("o1",))
        trans[(states[i + 1], "a", "c")] = (states[i + 2], ACT_LIFT, ())
    trans[(states[n], "a", None)] = (states[n + 1], ACT_RIGHT, ("o2",))
    f = {q: None for q in states}
    deriv = crossing_fixpoint(fragment(trans, states), f, "a")
    assert deriv["q0", None][0] == states[n + 1]
    assert deriv["q0", None][1] == ((CONST, ("o1",)),) * (n // 2) + (
        (CONST, ("o2",)),)
    trans[(states[n], "a", None)] = (states[1], act_drop("c"), ())
    deriv = crossing_fixpoint(fragment(trans, states), f, "a")
    assert deriv["q0", None][0] is None
    assert deriv[states[n], None][0] is None


def test_crossing_cycle_is_bottom():
    # left move whose continuation loops back to the same entry
    t = fragment({("q", "a", None): ("q", ACT_LEFT, ())}, states=("q",))
    deriv = crossing_fixpoint(t, {"q": "q"}, "a")
    assert deriv["q", None][0] is None


def test_exit_fixpoint_accepts_finals_immediately():
    t = fragment({}, states=("q",), finals=("q",))
    deriv = exit_fixpoint(t, {"q": None})
    assert deriv["q", None] == ("q", ())


def boundary(t):
    """The first crossing from ⊢ to position 1 of every entry state."""
    return crossing_fixpoint(t, {q: None for q in t.states}, LEFT_END)


def test_boundary_summary():
    t = load("exp_marble")
    assert boundary(t)["s0", None] == ("s1", ())
    looper = fragment({("q", LEFT_END, None): ("q2", act_drop("c"), ()),
                       ("q2", LEFT_END, "c"): ("q", ACT_LIFT, ())},
                      states=("q", "q2"))
    assert boundary(looper)["q", None] == (None, ())
    blocked = fragment({("q", LEFT_END, None): ("q", ACT_LEFT, ())}, states=("q",))
    assert boundary(blocked)["q", None] == (None, ())


CORPUS_MARBLE = [
    ("reverse", lambda: two_way_to_marble(load("reverse_two_way")), 6),
    ("copy", lambda: two_way_to_marble(load("copy_two_way")), 6),
    ("exp", "exp_marble", 6),
    ("mul", "mul_marble", 5),
    ("pow2", "pow2_marble", 6),
]


@pytest.mark.parametrize("name,build,maxlen", CORPUS_MARBLE)
def test_marble_to_sst_equivalence(name, build, maxlen):
    source = build() if callable(build) else load(build)
    converted = marble_to_sst(source)
    assert validate(converted) == []
    verdict = equiv_check(converted, source, maxlen)
    assert verdict.equivalent, (name, verdict.counterexample)


def test_crossing_sst_of_a_two_way_machine_is_copyless():
    for name in ("reverse_two_way", "copy_two_way"):
        assert check_copyless(marble_to_sst(two_way_to_marble(load(name)))) == []
    # machines that drop marbles copy: mul_marble in two updates
    assert len(check_copyless(marble_to_sst(load("mul_marble")))) == 2


def test_crossing_state_limit(monkeypatch, capsys):
    t = load("mul_marble")
    m = marble_to_sst(t)
    # the search explores one node per crossing state
    size = len(m.states)
    assert size == 7
    monkeypatch.setattr(mt2sst, "CROSSING_STATE_LIMIT", size)
    assert marble_to_sst(t) == m
    monkeypatch.setattr(mt2sst, "CROSSING_STATE_LIMIT", size - 1)
    with pytest.raises(MachineError, match=r"^crossing-state space exceeded "
                       r"%d states$" % (size - 1)):
        marble_to_sst(t)
    assert main(["convert", "--to", "sst", corpus_path("mul_marble")]) == 1
    assert "crossing-state space exceeded 6 states" in capsys.readouterr().err


def test_exp_output_lengths():
    m = marble_to_sst(load("exp_marble"))
    for n in range(6):
        assert len(run_sst(m, "a" * n).output) == 2 ** n


def test_empty_domain_machine():
    t = load("mul_marble")
    dead = MarbleTransducer(
        input_alphabet=t.input_alphabet, output_alphabet=t.output_alphabet,
        states=t.states, initial=t.initial, finals=frozenset(),
        colors=t.colors, delta=t.delta, out=t.out,
    )
    m = marble_to_sst(dead)
    assert m.output == {}
    for w in ("", "ab#0"):
        assert not run_sst(m, w).accepted


def test_invalid_machine_rejected():
    t = load("mul_marble")
    delta = dict(t.delta)
    delta[("m3", "0", "m")] = ("m4", ACT_RIGHT)
    bad = MarbleTransducer(
        input_alphabet=t.input_alphabet, output_alphabet=t.output_alphabet,
        states=t.states, initial=t.initial, finals=t.finals, colors=t.colors,
        delta=delta, out=t.out,
    )
    with pytest.raises(MachineError):
        marble_to_sst(bad)


def first_crossing(t, w, cfg, target, budget=20000):
    """Run until the head first reaches ``target``; (state, output) or None."""
    emitted = []
    steps = 0
    while steps < budget:
        state, pos, _stack = cfg
        if pos == target:
            return state, tuple(emitted)
        res = marble_step(t, w, cfg)
        if res is None:
            return None
        cfg, out = res
        emitted.extend(out)
        steps += 1
    return None


@pytest.mark.parametrize("name,file", [
    ("exp", "exp_marble"), ("mul", "mul_marble"), ("pow2", "pow2_marble"),
])
def test_crossing_summaries_match_interpreter(name, file):
    """Each derivation entry predicts the first crossing of the next cell."""
    t = load(file)
    words = [w for w in words_up_to(t.input_alphabet, 3, cap=200)]
    start = boundary(t)
    for w in words:
        for m in range(len(w)):
            f = {}
            outputs = {}
            for q in t.states:
                got = first_crossing(t, w, (q, m, ()), m + 1)
                f[q], outputs[q] = got if got else (None, ())
                if m == 0:
                    res, toks = start[q, None]
                    assert (res, tuple(b for _k, p in toks for b in p)) \
                        == (f[q], outputs[q]), (name, q)
            deriv = crossing_fixpoint(t, f, w[m])
            for q in t.states:
                for c in (None,) + tuple(t.colors):
                    stack = ((c, m + 1),) if c else ()
                    got = first_crossing(t, w, (q, m + 1, stack), m + 2)
                    res, toks = deriv[q, c]
                    if res is None:
                        assert got is None, (name, w, m, q, c)
                        continue
                    assert got is not None, (name, w, m, q, c)
                    expected = []
                    for kind, payload in toks:
                        if kind == CONST:
                            expected.extend(payload)
                        else:
                            expected.extend(outputs[payload])
                    assert got == (res, tuple(expected)), (name, w, m, q, c)
