"""Seeded random-machine sweeps over the whole conversion pipeline.

These are the heaviest regression guards: every randomly generated machine
must survive layer minimization (equivalent, layered, with the degree-derived
layer count), and a sample is walked back to marble machines with their depth
bounds checked on short words and their outputs on long ones.
"""

import hashlib
import random
from collections import Counter
from dataclasses import replace

from xducer.growth import classify_function, flow_automaton
from xducer.layering import make_total, to_k_layered, to_simple
from xducer.machine_io import dumps_machine
from xducer.machines import (
    ACT_LEFT,
    ACT_LIFT,
    ACT_RIGHT,
    LEFT_END,
    Lit,
    MarbleTransducer,
    Reg,
    RIGHT_END,
    SST,
    act_drop,
    check_copyless,
    check_layered,
    validate,
)
from xducer.mt2sst import marble_to_sst
from xducer.oracle import equiv_check, words_up_to
from xducer.semantics import (
    ACCEPT,
    LOOP,
    REJECT,
    eval_nautomaton,
    run_marble,
    run_sst,
)
from xducer.sst2mt import layered_to_marble

from conftest import assert_allocated, assert_runs_agree, check_stack, marble_step, reference_run


def random_sst(rng) -> SST:
    states = tuple("q%d" % i for i in range(rng.randint(1, 3)))
    regs = tuple("r%d" % i for i in range(rng.randint(1, 3)))
    letters = ("a", "b")[: rng.randint(1, 2)]
    delta, update = {}, {}
    for q in states:
        for a in letters:
            if rng.random() < 0.1:
                continue
            delta[(q, a)] = rng.choice(states)
            sub = {}
            for x in regs:
                rhs = []
                for _ in range(rng.randint(0, 3)):
                    rhs.append(Lit(rng.choice("ab")) if rng.random() < 0.5
                               else Reg(rng.choice(regs)))
                sub[x] = tuple(rhs)
            update[(q, a)] = sub
    output = {}
    for q in states:
        if rng.random() < 0.8:
            toks = []
            for _ in range(rng.randint(0, 3)):
                toks.append(Lit(rng.choice("ab")) if rng.random() < 0.4
                            else Reg(rng.choice(regs)))
            output[q] = tuple(toks)
    init = {x: tuple(rng.choice("ab") for _ in range(rng.randint(0, 2)))
            for x in regs}
    return SST(letters, ("a", "b"), states, regs, states[0], init,
               delta, update, output)


def check_exponential_witness(m: SST, report) -> None:
    """The heavy-cycle witness of an exponential report holds on the flow
    automaton of ``m``: v weighs at least 2 from the state back to itself,
    u leads from alpha to the state and z from the state to beta."""
    flow = flow_automaton(to_simple(make_total(m)[0]))
    w = report.witness
    unit = {w["state"]: 1}
    assert eval_nautomaton(replace(flow, alpha=unit, beta=unit), w["v"]) >= 2
    assert eval_nautomaton(replace(flow, beta=unit), w["u"]) > 0
    assert eval_nautomaton(replace(flow, alpha=unit), w["z"]) > 0


# sha256 over the emitted machines of all polynomial trials below, in order
RANDOM_LAYERED_DIGEST = \
    "7f6cafa1f9757cc40fdefa09fc94a87dec46a271b650732eab73077c6729d878"


def test_random_ssts_through_layer_minimization():
    rng = random.Random(20250808)
    polynomial = exponential = 0
    digest = hashlib.sha256()
    for trial in range(120):
        m = random_sst(rng)
        res = to_k_layered(m)
        if res.kind == "exponential":
            check_exponential_witness(m, res.report)
            exponential += 1
            continue
        polynomial += 1
        assert check_layered(res.machine, res.layers) == [], trial
        assert_allocated(res.machine, res.layers)
        verdict = equiv_check(res.machine, m, 4)
        assert verdict.equivalent, (trial, verdict.counterexample)
        assert res.k == max(res.report.degree - 1, 0), trial
        # the layered output has the growth degree of its source
        assert classify_function(res.machine).degree == res.report.degree, trial
        digest.update(dumps_machine(res.machine, res.layers).encode("utf-8"))
    assert polynomial >= 60 and exponential == 18
    assert digest.hexdigest() == RANDOM_LAYERED_DIGEST


# States of the largest walker built below (the 21st, from a layered
# machine of 16 states, 10 registers and one layer)
LARGEST_WALKER_STATES = 774


def test_random_layered_machines_walk_back_to_marbles():
    rng = random.Random(777)
    walked = exponential = 0
    trial = 0
    largest = 0
    while walked < 24 and trial < 200:
        trial += 1
        m = random_sst(rng)
        res = to_k_layered(m)
        if res.kind == "exponential":
            check_exponential_witness(m, res.report)
            exponential += 1
            continue
        walked += 1
        assert_allocated(res.machine, res.layers)
        k = len(res.layers) - 1
        machine = layered_to_marble(res.machine, res.layers)
        largest = max(largest, len(machine.states))
        verdict = equiv_check(machine, m, 3)
        assert verdict.equivalent, (trial, verdict.counterexample)
        for w in words_up_to(m.input_alphabet, 3, cap=100):
            r = run_marble(machine, w)
            if r.accepted:
                assert r.max_stack_depth <= k, (trial, w)
        # long words, against the layered machine: the source may carry
        # exponentially growing dead registers
        for _ in range(2):
            w = [rng.choice(m.input_alphabet) for _ in range(rng.randint(70, 120))]
            want = run_sst(res.machine, w)
            got = run_marble(machine, w, budget=10 ** 8)
            assert got.verdict == want.verdict, (trial, len(w))
            assert got.output == want.output, (trial, len(w))
            assert got.max_stack_depth <= k, (trial, len(w))
    assert walked == 24 and exponential == 6
    assert largest <= LARGEST_WALKER_STATES


def random_marble(rng) -> MarbleTransducer:
    states = tuple("q%d" % i for i in range(rng.randint(1, 3)))
    colors = ("c", "d")[: rng.randint(0, 2)]
    letters = ("a", "b")[: rng.randint(1, 2)]
    delta, out = {}, {}
    for q in states:
        for s in letters + (LEFT_END, RIGHT_END):
            if rng.random() < 0.8:
                actions = [ACT_LEFT, ACT_RIGHT] + [act_drop(c) for c in colors]
                delta[(q, s, None)] = (rng.choice(states), rng.choice(actions))
                out[(q, s, None)] = tuple(
                    rng.choice("xy") for _ in range(rng.randint(0, 2)))
            for c in colors:
                if rng.random() < 0.7:
                    delta[(q, s, c)] = (rng.choice(states),
                                        rng.choice([ACT_LEFT, ACT_LIFT]))
                    out[(q, s, c)] = tuple(
                        rng.choice("xy") for _ in range(rng.randint(0, 2)))
    finals = frozenset(q for q in states if rng.random() < 0.5)
    return MarbleTransducer(letters, ("x", "y"), states, states[0], finals,
                            colors, delta, out)


def run_hashing_configurations(t, w):
    """Reference run that stops at the first repeat of a whole configuration,
    checking the stack invariant on every step."""
    cfg = (t.initial, 0, ())
    seen = {cfg}
    emitted = []
    while True:
        state, pos, stack = cfg
        check_stack(stack, pos)
        if pos == len(w) + 1 and not stack and state in t.finals:
            return ACCEPT, tuple(emitted)
        res = marble_step(t, w, cfg)
        if res is None:
            return REJECT, None
        cfg, out = res
        emitted.extend(out)
        if cfg in seen:
            return LOOP, None
        seen.add(cfg)


LONG_WORD_BUDGET = 20000


def test_frame_loop_detection_matches_configuration_hashing():
    """Every word of length <= 4 against whole-configuration hashing, and
    seeded words of 20-40 and of 100-300 letters, where runs can sweep tens of
    cells and look up their intervals, against the reference run (verdict,
    output, steps and stack depth, within a step budget)."""
    rng, words, longer = random.Random(4242), random.Random(4243), random.Random(4244)
    verdicts, long_verdicts = Counter(), Counter()
    checked = 0
    while checked < 400:
        m = random_marble(rng)
        if validate(m):
            continue
        checked += 1
        for w in words_up_to(m.input_alphabet, 4):
            want = run_hashing_configurations(m, w)
            got = run_marble(m, w)
            assert (got.verdict, got.output) == want, (checked, w)
            verdicts[got.verdict, bool(got.max_stack_depth)] += 1
        long_words = [tuple(words.choice(m.input_alphabet) for _ in range(words.randint(20, 40)))
                      for _ in range(2)]
        long_words.append(tuple(longer.choice(m.input_alphabet)
                                for _ in range(longer.randint(100, 300))))
        for w in long_words:
            got = run_marble(m, w, budget=LONG_WORD_BUDGET)
            assert got == reference_run(m, w, budget=LONG_WORD_BUDGET), (checked, w)
            long_verdicts[got.verdict, bool(got.max_stack_depth)] += 1
    # loops with and without marbles on the tape, and accepting runs
    assert verdicts[LOOP, True] and verdicts[LOOP, False] and verdicts[ACCEPT, True]
    assert long_verdicts[LOOP, True] and long_verdicts[LOOP, False]
    assert long_verdicts[ACCEPT, False]


def test_random_marble_machines_convert_to_ssts():
    rng = random.Random(31337)
    converted = colourless = 0
    trial = 0
    while converted < 60 and trial < 400:
        trial += 1
        m = random_marble(rng)
        if validate(m):
            continue
        converted += 1
        sst = marble_to_sst(m)
        assert_allocated(sst, (sst.registers,))
        if not m.colors:
            # a machine with no colours is a two-way machine; its crossing
            # SST never copies a register
            colourless += 1
            assert check_copyless(sst) == [], trial
        verdict = equiv_check(sst, m, 4, budget=200000)
        assert verdict.equivalent, (trial, verdict)
        assert_runs_agree(sst, m, 4, budget=200000)
    assert (converted, colourless) == (60, 17)


def test_random_marble_machines_through_minimization():
    from xducer.layering import minimize_marbles

    rng = random.Random(11)
    minimized = 0
    trial = 0
    while minimized < 25 and trial < 200:
        trial += 1
        m = random_marble(rng)
        if validate(m):
            continue
        res = minimize_marbles(m)
        # a marble machine's output grows polynomially, so it has a degree
        assert res.kind != "exponential", (trial, res.report.witness)
        minimized += 1
        verdict = equiv_check(res.machine, m, 3, budget=200000)
        assert verdict.equivalent, (trial, verdict)
        for w in words_up_to(m.input_alphabet, 3, cap=50):
            r = run_marble(res.machine, w, budget=200000)
            if r.accepted:
                assert r.max_stack_depth <= res.k, (trial, w)
    assert minimized == 25
