import random

import pytest

from xducer import mt2sst
from xducer.cli import main
from xducer.layering import minimize_marbles
from xducer.machine_io import dumps_machine
from xducer.machines import (
    ACT_LEFT,
    ACT_LIFT,
    ACT_RIGHT,
    LEFT_END,
    MachineError,
    MarbleTransducer,
    RIGHT_END,
    Reg,
    TwoWayTransducer,
    act_drop,
    check_copyless,
    validate,
)
from xducer.mt2sst import marble_to_sst, two_way_to_marble
from xducer.oracle import equiv_check, words_up_to
from xducer.semantics import (
    LOOP, REJECT, _flat, _summaries, _tables, marble_outputs, run_marble, run_sst)

from conftest import CORPUS_NAMES, assert_runs_agree, corpus_path, load, marble_step
from test_oracle import random_marble as random_looping_marble
from test_pipeline_fuzz import random_marble


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


def nx(q):
    return Reg("nx_%s" % q)


def summaries(t, sym, f=None, entries=None):
    """The crossing summary of each entry state (all, or ``entries``) of a
    cell holding ``sym``, right of a prefix whose summary ``f`` maps each
    entry state to its exit state or None (no prefix left of ⊢): the exit
    state and the output on the way, letters and a register nx_p for each
    left move into p, or the verdict and None where the head never steps
    right off the cell (an accept on ⊣ keeps its output).  The prefix is
    given to ``_crossing`` as ``marble_to_sst`` gives it."""
    tables = _tables(t)
    number = {q: i for i, q in enumerate(t.states)}
    left = None if f is None else {
        number[q]: (REJECT, 0, None) if e is None else (number[e], 0, (nx(q),))
        for q, e in f.items()}
    entries = t.states if entries is None else entries
    got = _summaries(tables, left, tables[1][sym], [number[q] for q in entries])
    return {q: (t.states[e] if type(e) is int else e, out if out is None else _flat(out))
            for q, (e, _steps, out) in zip(entries, got)}


def test_crossing_trivial_right_move():
    t = fragment({("q", "a", None): ("q2", ACT_RIGHT, ("o1",))},
                 states=("q", "q2"))
    assert summaries(t, "a", {"q": None, "q2": None})["q"] == ("q2", ("o1",))


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
    deriv = summaries(t, "a", f)
    assert deriv["q"] == ("qq", ("o1", "o2", nx("q2"), "o3", "o4", nx("q2"), "o5"))
    # the states met on the way with no marble share the rest of the chain
    assert deriv["q3"] == ("qq", ("o4", nx("q2"), "o5"))
    assert deriv["fq2"] == ("qq", ("o5",))


def test_crossing_dead_continuation_is_bottom():
    t = fragment({("q", "a", None): ("q", ACT_LEFT, ())}, states=("q",))
    assert summaries(t, "a", {"q": None})["q"] == (REJECT, None)


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
    deriv = summaries(fragment(trans, states), "a", f, entries=("q0", states[n - 2]))
    assert deriv == {"q0": (states[n + 1], ("o1",) * (n // 2) + ("o2",)),
                     states[n - 2]: (states[n + 1], ("o1", "o2"))}
    trans[(states[n], "a", None)] = (states[1], act_drop("c"), ())
    deriv = summaries(fragment(trans, states), "a", f, entries=("q0", states[n]))
    assert deriv == {"q0": (LOOP, None), states[n]: (LOOP, None)}


def test_crossing_cycle_is_bottom():
    # left move whose continuation loops back to the same entry
    t = fragment({("q", "a", None): ("q", ACT_LEFT, ())}, states=("q",))
    assert summaries(t, "a", {"q": "q"})["q"] == (LOOP, None)


def test_exit_summary_accepts_finals_immediately():
    t = fragment({}, states=("q",), finals=("q",))
    assert summaries(t, RIGHT_END, {"q": None})["q"] == ("accept", ())


def test_boundary_summary():
    t = load("exp_marble")
    assert summaries(t, LEFT_END)["s0"] == ("s1", ())
    looper = fragment({("q", LEFT_END, None): ("q2", act_drop("c"), ()),
                       ("q2", LEFT_END, "c"): ("q", ACT_LIFT, ())},
                      states=("q", "q2"))
    assert summaries(looper, LEFT_END)["q"] == (LOOP, None)
    blocked = fragment({("q", LEFT_END, None): ("q", ACT_LEFT, ())}, states=("q",))
    assert summaries(blocked, LEFT_END)["q"] == (REJECT, None)


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
    assert_runs_agree(converted, source, maxlen)


def test_crossing_sst_of_a_two_way_machine_is_copyless():
    for name in ("reverse_two_way", "copy_two_way"):
        assert check_copyless(marble_to_sst(two_way_to_marble(load(name)))) == []
    # machines that drop marbles copy: mul_marble in two updates
    assert len(check_copyless(marble_to_sst(load("mul_marble")))) == 2


def test_marble_routes_take_a_two_way_machine():
    """A two-way machine is taken as its marble form by ``marble_to_sst``,
    ``minimize_marbles``, ``run_marble`` and ``marble_outputs``: each gives
    what it gives for the explicit conversion."""
    for name in ("reverse_two_way", "copy_two_way"):
        t = load(name)
        marble = two_way_to_marble(t)
        sst = marble_to_sst(t)
        assert sst == marble_to_sst(marble)
        assert equiv_check(sst, t, 5).equivalent
        res, ref = minimize_marbles(t), minimize_marbles(marble)
        assert (res.kind, res.k, res.report) == (ref.kind, ref.k, ref.report) == (
            "marble", 0, ref.report)
        assert dumps_machine(res.machine) == dumps_machine(ref.machine)
        assert list(marble_outputs(t, 4)) == list(marble_outputs(marble, 4))
        for w in words_up_to(t.input_alphabet, 3):
            assert run_marble(t, w, trace=True) == run_marble(marble, w, trace=True)


def test_crossing_ssts_are_well_formed():
    """``validate`` accepts the crossing SST of every corpus marble and
    two-way machine and of seeded random marble machines, those of both
    test generators, so ``marble_to_sst`` claims nothing ``validate`` would
    refuse when it marks its result valid as its source is."""
    rng = random.Random(42)
    machines = [t for t in map(load, CORPUS_NAMES)
                if isinstance(t, (MarbleTransducer, TwoWayTransducer))]
    assert len(machines) == 6
    machines += [make(rng) for make in (random_marble, random_looping_marble) for _ in range(150)]
    built = 0
    for t in machines:
        if validate(t):
            continue
        sst = marble_to_sst(t)
        assert validate(sst) == [] and "_valid" in sst.__dict__
        built += 1
    assert built >= 250
    fresh = load("reverse_two_way")
    fresh.__dict__.pop("_valid")
    assert "_valid" not in marble_to_sst(fresh).__dict__


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
    """Each summary of an entry with no marble predicts the first crossing
    of the next cell."""
    t = load(file)
    words = [w for w in words_up_to(t.input_alphabet, 3, cap=200)]
    start = summaries(t, LEFT_END)
    for w in words:
        for m in range(len(w)):
            f = {}
            outputs = {}
            for q in t.states:
                got = first_crossing(t, w, (q, m, ()), m + 1)
                f[q], outputs[q] = got if got else (None, ())
                if m == 0:
                    expected = (f[q], outputs[q]) if got else (start[q][0], None)
                    assert start[q] == expected, (name, q)
            deriv = summaries(t, w[m], f)
            for q in t.states:
                got = first_crossing(t, w, (q, m + 1, ()), m + 2)
                res, out = deriv[q]
                if out is None:
                    assert got is None, (name, w, m, q)
                    continue
                assert got is not None, (name, w, m, q)
                expected = []
                for x in out:
                    expected.extend(outputs[x.name[3:]] if type(x) is Reg else (x,))
                assert got == (res, tuple(expected)), (name, w, m, q)
