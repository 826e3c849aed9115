"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance and horizon is pinned here.
"""

import random
import time

from xducer.growth import classify, flow_automaton, has_heavy_cycle, trim, witness_word
from xducer.layering import (
    bounded_sstf_to_unambiguous,
    decompose_copyless,
    determinize_nsstf,
    make_total,
    to_k_layered,
    to_simple,
)
from xducer.machine_io import parse_machine
from xducer.machines import (
    ACT_LEFT,
    ACT_RIGHT,
    DFA,
    LEFT_END,
    Lit,
    NAutomaton,
    Reg,
    check_copyless,
    check_layered,
    compose_substitutions,
)
from xducer.mt2sst import marble_to_sst, two_way_to_marble
from xducer.oracle import brute_degree, equiv_check, words_up_to
from xducer.semantics import (
    enumerate_nsstf_runs,
    eval_nautomaton,
    eval_nautomaton_vector,
    run_machine,
    run_marble,
    run_sst,
    run_two_way,
)
from xducer.sst2mt import layered_to_marble, lookbehind_step, sst_to_marble

from conftest import assert_runs_agree, corpus_path, load


def report(number, text):
    print("ACCEPT %02d PASS  %s" % (number, text))


def timed(fn, limit):
    start = time.monotonic()
    value = fn()
    elapsed = time.monotonic() - start
    assert elapsed < limit, "took %.2fs, limit %ss" % (elapsed, limit)
    return value


def test_criterion_01_example_reproduction():
    checks = [
        ("reverse", lambda: run_two_way(load("reverse_two_way"), "abac").output_text,
         "caba"),
        ("mul", lambda: run_marble(load("mul_marble"), "ab#00").output_text,
         "ab#ab#"),
    ]
    for name, fn, expected in checks:
        assert timed(fn, 1.0) == expected, name

    exp_sst = load("exp_sst")
    exp_marble = load("exp_marble")
    exp_as_sst = timed(lambda: marble_to_sst(exp_marble), 1.0)
    exp_as_marble = timed(lambda: sst_to_marble(exp_sst), 1.0)
    for n in range(6):
        word = "a" * n
        expected = "a" * (2 ** n)
        for label, machine in [("sst", exp_sst), ("marble", exp_marble),
                               ("marble->sst", exp_as_sst),
                               ("sst->marble", exp_as_marble)]:
            got = timed(lambda m=machine: run_machine(m, word).output_text, 1.0)
            assert got == expected, (label, n)

    pow2 = load("pow2_marble")
    for n in range(6):
        r = timed(lambda: run_marble(pow2, "a" * n), 1.0)
        assert r.output_text == "a" * (n * n)
        assert r.max_stack_depth <= 1
    report(1, "worked examples reproduce exactly, each under 1s")


def test_criterion_02_conversion_round_trips():
    start = time.monotonic()
    marble_sources = [
        ("reverse", two_way_to_marble(load("reverse_two_way"))),
        ("copy", two_way_to_marble(load("copy_two_way"))),
        ("exp", load("exp_marble")),
        ("mul", load("mul_marble")),
        ("pow2", load("pow2_marble")),
    ]
    for name, machine in marble_sources:
        converted = marble_to_sst(machine)
        verdict = equiv_check(converted, machine, 5)
        assert verdict.equivalent, (name, verdict.counterexample)
        assert_runs_agree(converted, machine, 5)
    sst_sources = [
        ("exp", load("exp_sst")),
        ("reverse", load("reverse_sst")),
        ("mul", load("mul_sst")),
        ("pair", load("bounded_pair_sst")),
        ("reverse_copyful", load("reverse_sst_copyful")),
    ]
    for name, machine in sst_sources:
        verdict = equiv_check(sst_to_marble(machine), machine, 5)
        assert verdict.equivalent, (name, verdict.counterexample)
    elapsed = time.monotonic() - start
    assert elapsed < 300, "round-trip sweep took %.1fs" % elapsed
    report(2, "10 conversions oracle-equivalent at maxlen 5 in %.1fs" % elapsed)


def test_criterion_03_layered_conversion_depths():
    mul, layers = parse_machine(corpus_path("mul_sst"))
    machine = layered_to_marble(mul, layers)
    assert equiv_check(machine, mul, 5).equivalent
    depth = 0
    for w in words_up_to(mul.input_alphabet, 5, cap=3000):
        r = run_marble(machine, w)
        if r.accepted:
            depth = max(depth, r.max_stack_depth)
    assert depth <= 1

    rev = load("reverse_sst")
    flat = layered_to_marble(rev, (rev.registers,))
    assert equiv_check(flat, rev, 5).equivalent
    for w in words_up_to(rev.input_alphabet, 5, cap=3000):
        r = run_marble(flat, w)
        assert r.accepted and r.max_stack_depth == 0
    report(3, "layered conversions meet depth bounds 1 (mul) and 0 (reverse)")


def test_criterion_04_substitution_algebra():
    s1 = {"x": (Lit("b"),), "y": (Lit("b"), Reg("x"), Reg("y"), Lit("b"))}
    s2 = {"x": (Reg("x"), Lit("b")), "y": (Reg("x"), Reg("y"))}
    composed = compose_substitutions(s1, s2)
    assert composed["y"] == (Lit("b"), Lit("b"), Reg("x"), Reg("y"), Lit("b"))

    t1 = {"x": (Lit("a"),), "y": (Lit("b"), Reg("x"), Reg("y"), Lit("c"))}
    t2 = {"x": (Reg("y"), Lit("d")), "y": (Reg("x"),)}
    d1 = decompose_copyless(t1)
    assert d1.ske == {"x": (), "y": ("x", "y")}
    assert d1.beg == {"x": (Lit("a"),), "y": (Lit("b"),)}
    assert d1.fol == {"x": (), "y": (Lit("c"),)}
    comp = decompose_copyless(compose_substitutions(t1, t2))
    assert comp.beg["x"] == (Lit("b"),)
    assert comp.beg["y"] == (Lit("a"),)
    assert comp.fol["y"] == (Lit("c"), Lit("d"))
    assert comp.ske["x"] == ("x", "y")
    report(4, "substitution and decomposition worked values hold exactly")


def _random_trim_automata(count, seed):
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        n = rng.randint(1, 3)
        states = tuple("q%d" % i for i in range(n))
        letters = ("a", "b")[: rng.randint(1, 2)]
        mats = {}
        for a in letters:
            mats[a] = {(p, q): w for p in states for q in states
                       for w in (rng.choice([0, 0, 0, 1, 1, 2]),) if w}
        auto = NAutomaton(letters, states,
                          {q: rng.choice([0, 1]) for q in states},
                          {q: rng.choice([0, 1]) for q in states}, mats)
        t = trim(auto)
        if not t.states:
            continue
        produced += 1
        yield t


def test_criterion_05_growth_classification():
    exp_flow = load("exp_flow")
    rep = classify(exp_flow)
    assert rep.kind == "exponential"
    for pumps in range(1, 6):
        assert eval_nautomaton(exp_flow, witness_word(rep, pumps)) >= 2 ** pumps

    chain = load("chain_flow")
    rep = classify(chain)
    assert rep.kind == "polynomial" and rep.degree == 1
    assert rep.partition == (("x",), ("y",))

    disagreements = 0
    count = 0
    for t in _random_trim_automata(120, seed=424242):
        count += 1
        mine = classify(t)
        mine_deg = None if mine.kind == "exponential" else mine.degree
        if mine_deg != brute_degree(t, 6):
            disagreements += 1
    assert count >= 100 and disagreements == 0
    report(5, "growth witnesses verified; %d random automata, 0 disagreements"
           % count)


def test_criterion_06_register_lengths_match_flow():
    machines = [load("exp_sst"), load("reverse_sst"), load("mul_sst"),
                load("mul_sst_copyful"), load("bounded_pair_sst"),
                load("reverse_sst_copyful")]
    checked = 0
    for source in machines:
        total, _dfa = make_total(source)
        simple = to_simple(total)
        flow = flow_automaton(simple)
        q = simple.states[0]

        def walk(prefix, val):
            nonlocal checked
            vec = eval_nautomaton_vector(flow, prefix)
            for x in simple.registers:
                assert len(val[x]) == vec.get(x, 0), (prefix, x)
                checked += 1
            if len(prefix) == 6:
                return
            for a in simple.input_alphabet:
                sub = simple.update[(q, a)]
                val2 = {x: tuple(s for tok in sub[x] for s in val[tok.name])
                        for x in simple.registers}
                walk(prefix + (a,), val2)

        walk((), {x: tuple(simple.init_valuation[x]) for x in simple.registers})
    report(6, "register lengths equal flow evaluations (%d checks)" % checked)


def test_criterion_07_partition_properties():
    automata = 0
    for t in _random_trim_automata(120, seed=424242):
        if has_heavy_cycle(t) is not None:
            continue
        automata += 1
        rep = classify(t)
        level = {q: i for i, part in enumerate(rep.partition) for q in part}
        mats = {(): {(q, q): 1 for q in t.states}}
        frontier = [()]
        for _ in range(6):
            new = []
            for v in frontier:
                for a in sorted(t.input_alphabet):
                    prod = {}
                    for (p, q1), w1 in mats[v].items():
                        for (q2, r), w2 in t.mats[a].items():
                            if q1 == q2:
                                prod[(p, r)] = prod.get((p, r), 0) + w1 * w2
                    mats[v + (a,)] = prod
                    new.append(v + (a,))
            frontier = new
        observed = {5: {}, 6: {}}
        for v, mat in mats.items():
            for (p, q), w in mat.items():
                if w < 1:
                    continue
                if len(v) <= 5:
                    assert level[p] <= level[q], (v, p, q)
                if level[p] == level[q]:
                    for horizon in (5, 6):
                        if len(v) <= horizon:
                            observed[horizon][(p, q)] = max(
                                observed[horizon].get((p, q), 0), w)
        assert observed[5] == observed[6], "intra-class weights still growing"
    assert automata >= 40
    report(7, "flow order and weight stabilization on %d automata" % automata)


def test_criterion_08_membership_end_to_end():
    start = time.monotonic()
    res = to_k_layered(load("mul_sst_copyful"))
    assert res.kind == "layered" and res.k == 1
    assert check_layered(res.machine, res.layers) == []
    assert equiv_check(res.machine, load("mul_sst_copyful"), 5).equivalent
    marble = layered_to_marble(res.machine, res.layers)
    assert equiv_check(marble, load("mul_sst_copyful"), 5).equivalent
    for w in words_up_to(("a", "b", "#", "0"), 5, cap=3000):
        r = run_marble(marble, w)
        if r.accepted:
            assert r.max_stack_depth <= 1
    assert time.monotonic() - start < 120

    start = time.monotonic()
    res = to_k_layered(load("reverse_sst_copyful"))
    assert res.kind == "layered" and res.k == 0
    assert check_copyless(res.machine) == []
    assert equiv_check(res.machine, load("reverse_sst_copyful"), 5).equivalent
    marble = layered_to_marble(res.machine, res.layers)
    assert equiv_check(marble, load("reverse_sst_copyful"), 5).equivalent
    assert not any(action[0] == "drop" for _t, action in marble.delta.values())
    assert time.monotonic() - start < 120

    start = time.monotonic()
    res = to_k_layered(load("exp_sst"))
    assert res.kind == "exponential"
    from xducer.cli import main
    import os
    assert main(["optimize", os.path.join(os.path.dirname(__file__), "..",
                                          "corpus", "exp_sst.json")]) == 4
    assert time.monotonic() - start < 120
    report(8, "copyful mul -> 1 layer/1 marble, copyful reverse -> copyless/"
              "two-way, exp -> exit 4")


def test_criterion_09_external_function_chain():
    source = load("bounded_pair_sst")
    total, _dfa = make_total(source)
    nsst = bounded_sstf_to_unambiguous(total)
    assert check_copyless(nsst) == []
    for n in range(5):
        runs = enumerate_nsstf_runs(nsst, "a" * n)
        assert len(runs) == 1
        assert runs[0][1] == run_sst(total, "a" * n).output
    det = determinize_nsstf(nsst)
    assert check_copyless(det) == []
    assert equiv_check(det, total, 6).equivalent
    for n in range(1, 6):
        expected = "a" * n + "a" * (n - 1) + "b"
        assert run_sst(det, "a" * n).output_text == expected
    report(9, "bounded pair machine through the unambiguous chain, outputs "
              "a^n a^(n-1) b")


def test_criterion_10_prefix_gadget_contract():
    """The walker's lookbehind recovers the one-way state at every landing
    position of every word, never moving right of it."""
    rng = random.Random(1013)
    dfas = []
    while len(dfas) < 6:
        n = rng.randint(1, 4)
        states = tuple("s%d" % i for i in range(n))
        delta = {(q, a): rng.choice(states)
                 for q in states for a in ("a", "b")}
        dfas.append(DFA(("a", "b"), states, states[0], delta,
                        frozenset({states[-1]})))
    long_words = ["".join(rng.choice("ab") for _ in range(rng.randint(200, 300)))
                  for _ in range(2)]
    pairs = starts = 0
    for d in dfas:
        for w in list(words_up_to(("a", "b"), 8, cap=10 ** 6)) + long_words:
            for pos in range(1, len(w) + 1):
                state = ("land", d.run(w[:pos]))
                head = pos
                while True:
                    move, state = lookbehind_step(
                        d, state, w[head - 1] if head else LEFT_END)
                    if move is None:
                        break
                    head += 1 if move == ACT_RIGHT else -1
                    starts += head == 0
                    assert move in (ACT_LEFT, ACT_RIGHT) and 0 <= head <= pos, (w, pos)
                assert head == pos and state == d.run(w[:pos - 1]), (w, pos)
                pairs += 1
    assert starts > 0, "no walk went back to the left endmarker"
    report(10, "lookbehind contract verified on %d (word, position) pairs, "
               "%d walks back to the tape start" % (pairs, starts))
