import random
import re
from collections import Counter
from dataclasses import replace

import pytest

from xducer import semantics
from xducer.growth import classify, classify_function, flow_automaton
from xducer.layering import bounded_sstf_to_unambiguous, make_total, to_k_layered, to_simple
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
    NAutomaton,
    NSSTF,
    RIGHT_END,
    Reg,
    SST,
    TwoWayTransducer,
    act_drop,
    validate,
)
from xducer.mt2sst import marble_to_sst, two_way_to_marble
from xducer.oracle import brute_pattern_search, words_up_to
from xducer.semantics import (
    LOOP,
    REJECT,
    SHARE_MIN,
    enumerate_nsstf_runs,
    eval_nautomaton,
    format_trace,
    run_machine,
    run_marble,
    run_sst,
    run_sstf,
    run_two_way,
)
from xducer.sst2mt import layered_to_marble, sst_to_marble

from conftest import (
    assert_refused, assert_register_refused, load, reference_run, reference_update,
    register_refusal)


def test_reverse_two_way():
    r = run_two_way(load("reverse_two_way"), "abac")
    assert r.accepted and r.output_text == "caba"
    assert run_two_way(load("reverse_two_way"), "").output_text == ""


def test_two_way_loop_detected():
    t = TwoWayTransducer(
        input_alphabet=("a",), output_alphabet=("a",), states=("q",),
        initial="q", finals=frozenset({"q"}),
        delta={("q", LEFT_END): ("q", MOVE_RIGHT), ("q", "a"): ("q", MOVE_LEFT)},
        out={("q", LEFT_END): (), ("q", "a"): ()},
    )
    assert run_two_way(t, "a").verdict == LOOP


def test_two_way_reject_on_undefined():
    t = load("reverse_two_way", ("a",))
    with pytest.raises(MachineError):
        run_two_way(t, "z")


def test_exp_marble_counts_in_binary():
    m = load("exp_marble")
    r = run_marble(m, "aaa")
    assert r.accepted and r.output_text == "a" * 8
    assert r.max_stack_depth == 3


def test_mul_marble():
    r = run_marble(load("mul_marble"), "ab#00")
    assert r.accepted and r.output_text == "ab#ab#"
    assert r.max_stack_depth == 1
    assert run_marble(load("mul_marble"), "ab").verdict == REJECT


def test_pow2_marble():
    for n in range(6):
        r = run_marble(load("pow2_marble"), "a" * n)
        assert r.accepted and len(r.output) == n * n
        assert r.max_stack_depth <= 1


def test_declared_marble_bounds_hold():
    for m in (load("mul_marble"), load("pow2_marble"),
              load("pow2_marble_wasteful")):
        for w in words_up_to(m.input_alphabet, 6, cap=8000):
            r = run_marble(m, w)
            if r.accepted:
                assert r.max_stack_depth <= m.marble_bound


def test_marble_budget():
    r = run_marble(load("exp_marble"), "aaaa", budget=10)
    assert r.verdict == "budget"


def test_marble_invalid_drop_on_marble_raises():
    m = load("exp_marble")
    delta = dict(m.delta)
    delta[("inc", "a", "1")] = ("inc", ("drop", "0"))
    broken = type(m)(
        input_alphabet=m.input_alphabet, output_alphabet=m.output_alphabet,
        states=m.states, initial=m.initial, finals=m.finals, colors=m.colors,
        delta=delta, out=m.out,
    )
    with pytest.raises(MachineError):
        run_marble(broken, "aa")


def _with_transitions(m, transitions):
    """``m`` with extra or replaced transitions, each emitting nothing."""
    return replace(m, delta={**m.delta, **transitions},
                   out={**m.out, **{key: () for key in transitions}})


# mul_marble drops its marble in m2 on a 0 and stands on it in m3.  Each
# message is what a run from the left end raises when it takes the change.
@pytest.mark.parametrize("transitions,message", [
    ({("m3", "0", "m"): ("m4", ACT_RIGHT)},
     "invalid machine: move right over a marble"),
    ({("m2", "0", None): ("m3", ACT_LIFT)},
     "invalid machine: lift without a marble"),
    ({("m3", "0", "m"): ("m4", act_drop("m"))},
     "invalid machine: drop on a marbled position"),
    ({("m2", "0", None): ("m3", ("jump", None))},
     "invalid action ('jump', None)"),
    # a marble without a colour reads as no marble, so the machine may try
    # to step over it or drop another on it
    ({("m2", "0", None): ("m3", ("drop", None)),
      ("m3", "0", None): ("m4", ACT_RIGHT)},
     "marble None below the reading head"),
    ({("m2", "0", None): ("m3", ("drop", None)),
      ("m3", "0", None): ("m4", act_drop("m"))},
     "marble stack positions not strictly increasing"),
])
def test_marble_runtime_errors_raise_when_taken(transitions, message):
    """The reference run meets the bad transition on ab#00; every run
    refuses the machine before its first step, on ab too, which never
    reaches a 0."""
    broken = _with_transitions(load("mul_marble"), transitions)
    with pytest.raises(MachineError, match="^%s$" % re.escape(message)):
        reference_run(broken, "ab#00")
    assert reference_run(broken, "ab").verdict == REJECT
    assert_refused(broken, ["ab#00", "ab", ""])


def test_marble_invalid_transitions_never_taken_are_harmless():
    # m0 only reads the left end, m3 always stands on the one marble and m7
    # follows its lift
    m = _with_transitions(load("mul_marble"), {
        ("m0", "a", None): ("m0", ("jump", None)),
        ("m3", "0", None): ("m3", ACT_LIFT),
        ("m7", "0", "m"): ("m7", ACT_RIGHT),
    })
    # a run from the left end takes none of them, but the machine is refused
    r = reference_run(m, "ab#00")
    assert r.accepted and r.output_text == "ab#ab#"
    assert r == run_marble(load("mul_marble"), "ab#00")
    assert_refused(m, ["ab#00", "ab"])


@pytest.mark.parametrize("name", ["exp_marble", "pow2_marble_wasteful",
                                  "mul_marble", "copy_two_way"])
def test_traces_match_the_reference(name):
    """Traced runs, stacks of several marbles included, agree entry by entry."""
    m = load(name)
    marble = two_way_to_marble(m) if isinstance(m, TwoWayTransducer) else m
    for w in words_up_to(m.input_alphabet, 4):
        assert run_machine(m, w, trace=True) == reference_run(marble, w, trace=True), w


def _ladder_words(rng, n):
    u = tuple(rng.choice("ab") for _ in range(rng.randint(1, 3)))
    return [
        (load("mul_marble"), u + ("#",) + ("0",) * (n - len(u) - 1)),
        (load("pow2_marble"), ("a",) * n),
        (load("reverse_two_way"), tuple(rng.choice("abc") for _ in range(n))),
        (load("copy_two_way"), tuple(rng.choice("ab") for _ in range(n))),
    ]


@pytest.mark.parametrize("n,budget,trace", [(200, None, True), (2000, 200000, False)])
def test_long_words_match_the_reference(n, budget, trace):
    """Runs on 200 and 2000 letters, whole or up to a step budget, agree
    with the one-configuration-at-a-time reference."""
    for m, w in _ladder_words(random.Random(n), n):
        got = run_machine(m, w, budget=budget, trace=trace)
        marble = two_way_to_marble(m) if isinstance(m, TwoWayTransducer) else m
        assert got == reference_run(marble, w, budget=budget, trace=trace)
        assert got.steps > n and got.verdict in ("accept", "budget")


def test_marble_loop_detected_by_default():
    m = load("mul_marble")
    delta = dict(m.delta)
    delta[("m1", "#", None)] = ("m1", ("left", None))  # ping-pong forever
    delta[("m1", "a", None)] = ("m1", ("right", None))
    looping = type(m)(
        input_alphabet=m.input_alphabet, output_alphabet=m.output_alphabet,
        states=m.states, initial=m.initial, finals=m.finals, colors=m.colors,
        delta=delta, out=m.out,
    )
    assert run_marble(looping, "a#0").verdict == LOOP
    assert run_marble(looping, "a#0", detect_loops=False).verdict == LOOP
    # a drop and a lift on the same cell, forever: the configuration repeats
    # in the frame below the dropped marble
    juggler = type(m)(
        input_alphabet=("a",), output_alphabet=("a",), states=("q", "p"),
        initial="q", finals=frozenset({"q"}), colors=("c",),
        delta={("q", LEFT_END, None): ("q", ("right", None)),
               ("q", "a", None): ("p", ("drop", "c")),
               ("p", "a", "c"): ("q", ("lift", None))},
        out={("q", LEFT_END, None): (), ("q", "a", None): ("a",),
             ("p", "a", "c"): ()},
    )
    r = run_marble(juggler, "a")
    assert r.verdict == LOOP and r.max_stack_depth == 1


def test_sst_runs():
    assert run_sst(load("exp_sst"), "aa").output_text == "aaaa"
    assert run_sst(load("reverse_sst"), "abac").output_text == "caba"


def test_sst_empty_word_applies_initial_valuation():
    m = load("exp_sst")
    assert run_sst(m, "").output_text == "a"


def test_register_values_prefixes(register_values):
    m = load("bounded_pair_sst")
    val = register_values(m, "aaa")
    assert "".join(val["x"]) == "aaa"
    assert "".join(val["y"]) == "aab"


def test_eval_nautomaton():
    assert eval_nautomaton(load("exp_flow"), "aaa") == 8
    assert eval_nautomaton(load("chain_flow"), "aaaa") == 4
    a = load("chain_flow")
    assert eval_nautomaton(a, "") == sum(
        a.alpha.get(q, 0) * a.beta.get(q, 0) for q in a.states)


def _const_fun(word):
    return lambda prefix: tuple(word)


def test_sstf_worked_update(register_values):
    m = SST(
        input_alphabet=("a",), output_alphabet=("a", "b", "c"),
        states=("q",), registers=("x",), initial="q",
        init_valuation={"x": ("a", "b")},
        delta={("q", "a"): "q"},
        update={("q", "a"): {"x": (Reg("x"), Fun("f"), Lit("b"))}},
        output={"q": (Reg("x"),)}, funs=("f",),
    )
    reg = FunctionRegistry({"f": _const_fun("cc")})
    val = register_values(m, "a", registry=reg)
    assert "".join(val["x"]) == "abccb"


def test_sstf_with_no_functions_is_plain():
    m = load("exp_sst")
    reg = FunctionRegistry({})
    assert run_sstf(m, "aa", reg).output == run_sst(m, "aa").output


def test_sstf_overwrite_uses_latest_prefix():
    double = lambda prefix: prefix + prefix
    m = SST(
        input_alphabet=("a",), output_alphabet=("a",),
        states=("q",), registers=("x",), initial="q",
        init_valuation={"x": ()},
        delta={("q", "a"): "q"},
        update={("q", "a"): {"x": (Fun("f"),)}},
        output={"q": (Reg("x"),)}, funs=("f",),
    )
    reg = FunctionRegistry({"f": double})
    assert run_sstf(m, "aa", reg).output_text == "aaaa"


def test_sstf_registry_machine_entries():
    m = SST(
        input_alphabet=("a",), output_alphabet=("a",),
        states=("q",), registers=("x",), initial="q",
        init_valuation={"x": ()},
        delta={("q", "a"): "q"},
        update={("q", "a"): {"x": (Fun("f"),)}},
        output={"q": (Reg("x"),)}, funs=("f",),
    )
    reg = FunctionRegistry({"f": load("identity_sst", ("a",))})
    assert run_sstf(m, "aaa", reg).output_text == "aaa"
    with pytest.raises(MachineError):
        run_sstf(m, "a", FunctionRegistry({}))


def _tiny_nsstf(ambiguous: bool) -> NSSTF:
    initial = {"p": {"x": ()}}
    if ambiguous:
        initial["p2"] = {"x": ()}
    transitions = [("p", "a", "q")]
    update = {("p", "a", "q"): {"x": (Lit("a"),)}}
    if ambiguous:
        transitions.append(("p2", "a", "q2"))
        update[("p2", "a", "q2")] = {"x": (Lit("a"),)}
    return NSSTF(
        input_alphabet=("a",), output_alphabet=("a",),
        states=("p", "p2", "q", "q2"), registers=("x",), funs=(),
        initial=initial, transitions=tuple(sorted(transitions)), update=update,
        output={"q": (Reg("x"),), "q2": (Reg("x"),)},
    )


def test_enumerate_nsstf_runs():
    assert len(enumerate_nsstf_runs(_tiny_nsstf(False), "a")) == 1
    assert len(enumerate_nsstf_runs(_tiny_nsstf(True), "a")) == 2
    assert enumerate_nsstf_runs(_tiny_nsstf(False), "aa") == []


def test_run_machine_on_an_nsstf_needs_one_output():
    # no run reads aa; a is read by two runs with different outputs
    assert run_machine(_tiny_nsstf(False), "aa").verdict == REJECT
    two = replace(_tiny_nsstf(True), output={"q": (Reg("x"),), "q2": (Reg("x"), Reg("x"))})
    with pytest.raises(MachineError, match="several outputs for one word"):
        run_machine(two, "a")


def test_enumerate_nsstf_branch_guard(monkeypatch):
    monkeypatch.setattr(semantics, "NSSTF_BRANCH_LIMIT", 1)
    with pytest.raises(MachineError):
        enumerate_nsstf_runs(_tiny_nsstf(True), "a")


def test_nsstf_runs_on_long_words(monkeypatch):
    total, _ = make_total(load("bounded_pair_sst"))
    nsst = bounded_sstf_to_unambiguous(total)
    w = "a" * 2000
    expected = run_sst(total, w).output
    assert len(expected) == 4000
    runs = enumerate_nsstf_runs(nsst, w)
    assert len(runs) == 1 and len(runs[0][0]) == 2001 and runs[0][1] == expected
    assert run_machine(nsst, w).output == expected
    # two partial runs per letter (one dies at once) and the two initial states
    monkeypatch.setattr(semantics, "NSSTF_BRANCH_LIMIT", 4002)
    assert enumerate_nsstf_runs(nsst, w) == runs
    monkeypatch.setattr(semantics, "NSSTF_BRANCH_LIMIT", 4001)
    with pytest.raises(MachineError,
                       match=r"^NSST-F run enumeration exceeded 4001 partial runs$"):
        enumerate_nsstf_runs(nsst, w)


def _copier(kind: str):
    """A machine over a and b with registers x and y that writes x·y: x
    gains an a on each a and y one on each b (an SST-F or NSST-F: the word
    of its function f).  ``kind`` is "sst", "sstf" or "nsstf"."""
    x, y = Reg("x"), Reg("y")
    funs = () if kind == "sst" else ("f",)
    updates = {"a": {"x": (x, Lit("a")), "y": (y,)},
               "b": {"x": (x,), "y": (Fun("f") if funs else Lit("a"), y)}}
    if kind == "nsstf":
        return NSSTF(("a", "b"), ("a",), ("q",), ("x", "y"), funs, {"q": {"x": (), "y": ()}},
                     (("q", "a", "q"), ("q", "b", "q")),
                     {("q", a, "q"): s for a, s in updates.items()}, {"q": (x, y)})
    return SST(("a", "b"), ("a",), ("q",), ("x", "y"), "q", {"x": (), "y": ()},
               {("q", "a"): "q", ("q", "b"): "q"},
               {("q", a): s for a, s in updates.items()}, {"q": (x, y)}, funs)


def _broken_on_b(m, defect: str):
    """``m``, a ``_copier``, with one defect on its transition on b."""
    nondeterministic = isinstance(m, NSSTF)
    key = ("q", "b", "q") if nondeterministic else ("q", "b")
    update = dict(m.update)
    s = update[key] = dict(update[key])
    if defect == "unknown register":
        s["x"] = (Reg("z"),)
    elif defect == "foreign letter":
        s["x"] = (Reg("x"), Lit("b"))
    elif defect == "update missing a register":
        del s["y"]
    elif nondeterministic:  # an undeclared target
        update[("q", "b", "p")] = update.pop(key)
        return replace(m, transitions=tuple(sorted(update)), update=update)
    else:
        return replace(m, delta={**m.delta, key: "p"})
    return replace(m, update=update)


@pytest.mark.parametrize("kind", ["sst", "sstf", "nsstf"])
@pytest.mark.parametrize("defect, sst_problem, nsstf_problem", [
    ("unknown register", "update[q,b](x): unknown register 'z'",
     "update[q,b,q](x): unknown register 'z'"),
    ("foreign letter", "update[q,b](x): unknown output letter 'b'",
     "update[q,b,q](x): unknown output letter 'b'"),
    ("update missing a register", "update[q,b]: not total on the register set",
     "update[q,b,q]: not total on the register set"),
    ("undeclared target", "delta[q,b]: undeclared state",
     "transition (q,b,p): undeclared state"),
])
def test_register_runs_refuse_what_validate_refuses(kind, defect, sst_problem,
                                                    nsstf_problem):
    """A defect on the transition on b: every register run refuses the
    machine with ``validate``'s first problem, before any step and on every
    word, words with no b included; without it the machine runs."""
    m = _copier(kind)
    registry = FunctionRegistry({"f": lambda prefix: ("a",)})
    assert run_machine(m, "aab", registry=registry).output_text == "aaa"
    broken = _broken_on_b(m, defect)
    assert validate(broken)[0] == (nsstf_problem if kind == "nsstf" else sst_problem)
    assert_register_refused(broken, ["", "a", "aa", "ab", "ba"])


def test_eval_nautomaton_refuses_what_validate_refuses():
    """Before the first letter, on every word: a letter with no matrix is
    refused on words that do not read it too."""
    good = NAutomaton(("a", "b"), ("p",), {"p": 1}, {"p": 1},
                      {"a": {("p", "p"): 2}, "b": {("p", "p"): 1}})
    assert eval_nautomaton(good, "aba") == 4
    for broken, problem in [
            (replace(good, mats={"a": good.mats["a"]}), "letter 'b' has no matrix"),
            (replace(good, mats=dict(good.mats, b={("p", "r"): 1})),
             "matrix 'b': undeclared state in entry (p,r)")]:
        assert validate(broken)[0] == problem
        for w in ("", "a", "ab"):
            with pytest.raises(MachineError,
                               match="^%s$" % re.escape("invalid N-automaton: " + problem)):
                eval_nautomaton(broken, w)
        assert "_valid" not in broken.__dict__


def test_pipeline_entry_points_refuse_what_validate_refuses():
    """``to_k_layered``, ``classify_function``, ``sst_to_marble`` and
    ``layered_to_marble`` refuse an SST whose update reads an undeclared
    register, ``classify`` an N-automaton with an entry into an undeclared
    state and ``brute_pattern_search`` one with no matrix for b, each with
    ``validate``'s first problem and without marking it; without the
    defect each of them runs."""
    good = _copier("sst")
    broken = _broken_on_b(good, "unknown register")
    message = "^%s$" % re.escape(register_refusal(broken))
    for use in (to_k_layered, classify_function, sst_to_marble,
                lambda m: layered_to_marble(m, (m.registers,))):
        use(good)
        with pytest.raises(MachineError, match=message):
            use(broken)
    assert "_valid" not in broken.__dict__
    automaton = NAutomaton(("a", "b"), ("p",), {"p": 1}, {"p": 1},
                           {"a": {("p", "p"): 2}, "b": {("p", "p"): 1}})
    for use, broken, problem in [
            (classify, replace(automaton, mats=dict(automaton.mats, b={("p", "r"): 1})),
             "matrix 'b': undeclared state in entry (p,r)"),
            (lambda m: brute_pattern_search(m, 2), replace(automaton, mats={"a": automaton.mats["a"]}),
             "letter 'b' has no matrix")]:
        use(replace(automaton))
        assert validate(broken)[0] == problem
        with pytest.raises(MachineError,
                           match="^%s$" % re.escape("invalid N-automaton: " + problem)):
            use(broken)
        assert "_valid" not in broken.__dict__


def test_run_determinism():
    m = load("exp_marble")
    first = run_marble(m, "aaa", trace=True)
    second = run_marble(m, "aaa", trace=True)
    assert first == second


def test_trace_format():
    r = run_marble(load("mul_marble"), "a#0", trace=True)
    lines = format_trace(r).splitlines()
    assert lines[0].split("\t") == ["0", "m0", "0", "", ""]
    assert all(len(line.split("\t")) == 5 for line in lines)
    marked = [line for line in lines if "m@" in line]
    assert marked, "stack rendering should show color@position"


def test_original_register_lengths_project_onto_flow(register_values):
    """Original machine valuations match the simplified flow evaluation by
    summing over the per-state register copies."""
    from xducer.semantics import eval_nautomaton_vector

    for name in ("exp_sst", "reverse_sst", "mul_sst"):
        m = load(name)
        total, _ = make_total(m)
        simple = to_simple(total)
        flow = flow_automaton(simple)
        copies = {x: [r for r in simple.registers if r.endswith(".%s" % x)]
                  for x in m.registers}
        for w in words_up_to(m.input_alphabet, 4, cap=400):
            try:
                val = register_values(m, w)
            except MachineError:
                continue  # outside the original domain
            vec = eval_nautomaton_vector(flow, w)
            for x in m.registers:
                assert len(val[x]) == sum(vec.get(r, 0) for r in copies[x]), (w, x)


def test_register_length_matches_flow_evaluation():
    for name in ("exp_sst", "reverse_sst", "mul_sst", "bounded_pair_sst"):
        m = load(name)
        total, _ = make_total(m)
        simple = to_simple(total)
        flow = flow_automaton(simple)

        def check(prefix, val, vec):
            for x in simple.registers:
                assert len(val[x]) == vec.get(x, 0), (prefix, x)
            if len(prefix) == 6:
                return
            for a in simple.input_alphabet:
                val2 = {}
                sub = simple.update[(simple.states[0], a)]
                for x in simple.registers:
                    parts = []
                    for tok in sub[x]:
                        parts.extend(val[tok.name])
                    val2[x] = tuple(parts)
                vec2 = {}
                mat = flow.mats[a]
                for (p, q), wgt in mat.items():
                    vec2[q] = vec2.get(q, 0) + vec.get(p, 0) * wgt
                check(prefix + (a,), val2, vec2)

        start_val = {x: tuple(simple.init_valuation[x]) for x in simple.registers}
        start_vec = {q: flow.alpha.get(q, 0) for q in flow.states}
        check((), start_val, start_vec)


def test_two_way_runs_convert_once_per_machine(monkeypatch):
    conversions, builds = [], []
    convert, compile_tables = semantics.two_way_to_marble, semantics._compile_tables
    monkeypatch.setattr(semantics, "two_way_to_marble",
                        lambda t: conversions.append(t) or convert(t))
    monkeypatch.setattr(semantics, "_compile_tables",
                        lambda t: builds.append(t) or compile_tables(t))
    m = load("copy_two_way")
    for _ in range(2000):
        assert run_machine(m, "ab").output_text == "abab"
    assert len(conversions) == 1 and len(builds) == 1


# ---------------------------------------------------------------------------
# Sweeps: runs of same-state moves crossed in one scan
# ---------------------------------------------------------------------------


def scan_lengths(t):
    """Recompile marble machine ``t``'s tables so that every sweep scan of a
    run appends (action code, cells matched) to the returned list."""
    table, *rest = semantics._compile_tables(t)
    scans, wrapped = [], {}
    for key, (q, base, act, c, out) in table.items():
        if act in (semantics._LEFT, semantics._RIGHT) and c:
            if id(c) not in wrapped:
                semantics._compile_sweep(c)

                def match(s, i, j, _match=c[0], _act=act):
                    found = _match(s, i, j)
                    scans.append((_act, found.end() - i))
                    return found
                wrapped[id(c)] = (match, c[1])
            table[key] = (q, base, act, wrapped[id(c)], out)
    t.__dict__["_tables"] = (table, *rest)
    return scans


def swept_both_ways(scans) -> bool:
    return all(any(a == act and n > 1 for a, n in scans)
               for act in (semantics._LEFT, semantics._RIGHT))


def assert_matches_reference(t, w, budget=None):
    """Untraced and traced runs of marble machine ``t`` give the reference's
    result, or raise its error."""
    try:
        want = reference_run(t, w, budget=budget)
    except MachineError as err:
        for trace in (False, True):
            with pytest.raises(MachineError, match="^%s$" % re.escape(str(err))):
                run_marble(t, w, budget=budget, trace=trace)
        return None
    assert run_marble(t, w, budget=budget) == want, (w, budget)
    traced = run_marble(t, w, budget=budget, trace=True)
    assert replace(traced, trace=None) == want, (w, budget)
    return want


SWEEPER = {
    ("s0", LEFT_END, None): ("s0", ACT_RIGHT, ()),
    ("s0", "a", None): ("s0", ACT_RIGHT, ()),
    ("s0", "b", None): ("s1", act_drop("c"), ()),
    ("s1", "b", "c"): ("s2", ACT_LEFT, ()),
    ("s2", "a", None): ("s2", ACT_LEFT, ("x",)),
    ("s2", LEFT_END, None): ("s3", ACT_RIGHT, ()),
    ("s3", "a", None): ("s3", ACT_RIGHT, ("a",)),
    ("s3", "b", "c"): ("s4", ACT_LIFT, ()),
    ("s4", "b", None): ("s4", ACT_LEFT, ()),
    ("s4", "a", None): ("s4", ACT_LEFT, ()),
    ("s4", LEFT_END, None): ("s5", ACT_RIGHT, ()),
    ("s5", "a", None): ("s5", ACT_RIGHT, ("y", "y")),
    ("s5", "b", None): ("s5", ACT_RIGHT, ()),
}


def sweeper(**changes) -> MarbleTransducer:
    """On a^n b: s0 sweeps right silently and drops c on the b, s2 sweeps
    left writing x per a, s3 sweeps right to the marble copying the a's, s4
    lifts it and sweeps left silently, s5 sweeps right writing yy per a and
    accepts at the right end.  ``changes`` maps "state symbol colour" (colour
    "-" for none) to a replacement transition, or None to drop one."""
    rules = dict(SWEEPER)
    for spec, rule in changes.items():
        q, a, c = spec.split()
        key = (q, {"L": LEFT_END, "R": RIGHT_END}.get(a, a), None if c == "-" else c)
        if rule is None:
            rules.pop(key)
        else:
            rules[key] = rule
    return MarbleTransducer(
        input_alphabet=("a", "b"), output_alphabet=("a", "x", "y"),
        states=("s0", "s1", "s2", "s3", "s4", "s5"), initial="s0",
        finals=frozenset({"s5"}), colors=("c",),
        delta={key: rule[:2] for key, rule in rules.items()},
        out={key: rule[2] for key, rule in rules.items()})


def test_marble_to_sst_compiles_no_sweep_matcher(monkeypatch):
    # the sweep matchers are made by the first walk that takes each sweep:
    # a machine that is only converted compiles none, and its runs still
    # sweep, with the single steps' results
    compiled, compile_regex = [], re.compile
    monkeypatch.setattr(re, "compile", lambda *a: compiled.append(a) or compile_regex(*a))
    t = sweeper()
    marble_to_sst(t)
    matchers = {id(e[3]): e[3] for e in semantics._tables(t)[0].values()
                if e[2] < semantics._LIFT and e[3]}
    assert matchers and compiled == []
    assert all(c[:2] == [None, None] for c in matchers.values())
    r = assert_matches_reference(t, "a" * 30 + "b")
    assert r.output_text == "x" * 30 + "a" * 30 + "y" * 60
    assert len(compiled) == len(matchers)
    assert all(c[0] is not None for c in matchers.values())


def test_sweeps_with_and_without_output_match_the_reference():
    t = sweeper()
    scans = scan_lengths(t)
    r = assert_matches_reference(t, "a" * 30 + "b")
    assert r.accepted and r.output_text == "x" * 30 + "a" * 30 + "y" * 60
    assert r.max_stack_depth == 1 and swept_both_ways(scans)
    for n in range(4):  # sweeps of 0-3 cells
        assert assert_matches_reference(sweeper(), "a" * n + "b").accepted


def test_budget_runs_out_inside_sweeps():
    t = sweeper()
    w = "a" * 12 + "b"
    total = run_marble(t, w).steps
    for budget in range(total + 2):
        assert_matches_reference(t, w, budget=budget)
    reverse = two_way_to_marble(load("reverse_two_way"))
    w = "abcab" * 4
    total = run_marble(reverse, w).steps
    for budget in range(total + 2):
        assert_matches_reference(reverse, w, budget=budget)


@pytest.mark.parametrize("changes,message", [
    # after the right sweep of s3 to the marble
    ({"s3 b c": ("s4", ACT_RIGHT, ())}, "invalid machine: move right over a marble"),
    ({"s3 b c": ("s4", act_drop("c"), ())}, "invalid machine: drop on a marbled position"),
    ({"s3 b c": ("s4", ("jump", None), ())}, "invalid action ('jump', None)"),
    # a colourless marble on the b reads as no marble in the reference run:
    # s3 sweeps up to it and then steps over it, drops on it or lifts nothing
    ({"s0 b -": ("s1", ("drop", None), ()), "s1 b -": ("s2", ACT_LEFT, ()),
      "s3 b -": ("s3", ACT_RIGHT, ())}, "marble None below the reading head"),
    ({"s0 b -": ("s1", ("drop", None), ()), "s1 b -": ("s2", ACT_LEFT, ()),
      "s3 b -": ("s4", act_drop("c"), ())}, "marble stack positions not strictly increasing"),
    ({"s0 b -": ("s1", ("drop", None), ()), "s1 b -": ("s2", ACT_LEFT, ()),
      "s3 b -": ("s4", ACT_LIFT, ())}, "invalid machine: lift without a marble"),
    # after the left sweep of s2 to the left end
    ({"s2 L -": ("s3", ACT_LIFT, ())}, "invalid machine: lift without a marble"),
])
def test_guards_raise_on_the_step_after_a_sweep(changes, message):
    """A run from the left end sweeps and then meets the change, raising
    ``message``; the machine is refused before any sweep is compiled."""
    t = sweeper(**changes)
    with pytest.raises(MachineError, match="^%s$" % re.escape(message)):
        reference_run(t, "a" * 20 + "b")
    assert_refused(t, ["a" * 20 + "b", "a", ""])
    with pytest.raises(MachineError):
        scan_lengths(t)


@pytest.mark.parametrize("changes", [
    {"s2 L -": ("s3", ACT_LEFT, ())},       # a left sweep that steps off ⊢
    {"s4 L -": ("s1", ACT_RIGHT, ()),      # a right sweep that steps off ⊣
     "s1 a -": ("s1", ACT_RIGHT, ()), "s1 b -": ("s1", ACT_RIGHT, ()),
     "s1 R -": ("s1", ACT_RIGHT, ())},
    {"s3 b c": None},                       # a right sweep that stops at a marble
])
def test_sweeps_that_end_in_a_reject(changes):
    t = sweeper(**changes)
    assert assert_matches_reference(t, "a" * 20 + "b").verdict == REJECT


def test_colourless_marble_ends_a_right_sweep():
    # in a run from the left end s3 sweeps over the a's to the colourless
    # marble and turns there; a marble must have a colour, so every run
    # refuses the machine
    t = sweeper(**{"s0 b -": ("s1", ("drop", None), ()),
                   "s1 b -": ("s2", ACT_LEFT, ()),
                   "s3 b -": ("s3", ACT_LEFT, ("b",))})
    r = reference_run(t, "a" * 20 + "b")
    assert r.verdict == LOOP and r.max_stack_depth == 1
    assert_refused(t, ["a" * 20 + "b", "a" * 20, ""])


def test_a_move_that_names_a_colour_is_refused():
    # only a drop names a colour: a left or right action naming one is
    # refused before any step, as a file could not write it (a coloured
    # action is written as a drop)
    rules = {("q", LEFT_END, None): ("q", ("right", "c")), ("q", "a", None): ("q", ("right", "c")),
             ("q", RIGHT_END, None): ("r", ("left", "c")), ("r", "a", None): ("r", ("left", "c")),
             ("r", LEFT_END, None): ("f", ACT_RIGHT), ("f", "a", None): ("f", ACT_RIGHT)}
    t = MarbleTransducer(("a",), ("a",), ("q", "r", "f"), "q", frozenset({"f"}), ("c",),
                         rules, {k: ("a",) if k[0] == "q" and k[1] == "a" else () for k in rules})
    assert validate(t) == ["delta[q,⊢,None]: right action names color 'c'",
                           "delta[q,a,None]: right action names color 'c'",
                           "delta[q,⊣,None]: left action names color 'c'",
                           "delta[r,a,None]: left action names color 'c'"]
    assert_refused(t, ["", "a", "a" * 21])


def test_loop_inside_a_sweep_is_reported_at_the_repeating_step():
    # r skips the a's, q sweeps right from the first b+1, p sweeps back to
    # ⊢, and q then sweeps right over cells it swept before
    delta = {("q", LEFT_END, None): ("r", ACT_RIGHT),
             ("r", "a", None): ("r", ACT_RIGHT), ("r", "b", None): ("q", ACT_RIGHT),
             ("q", "a", None): ("q", ACT_RIGHT), ("q", "b", None): ("q", ACT_RIGHT),
             ("q", RIGHT_END, None): ("p", ACT_LEFT),
             ("p", "a", None): ("p", ACT_LEFT), ("p", "b", None): ("p", ACT_LEFT),
             ("p", LEFT_END, None): ("q", ACT_RIGHT)}
    t = MarbleTransducer(
        input_alphabet=("a", "b"), output_alphabet=("a",), states=("q", "r", "p"),
        initial="q", finals=frozenset(), colors=(), delta=delta,
        out={key: ("a",) if key in [("q", "a", None), ("p", "b", None)] else ()
             for key in delta})
    scans = scan_lengths(t)
    for n, m in ((5, 5), (1, 3), (12, 1), (0, 4)):
        r = assert_matches_reference(t, "a" * n + "b" * m)
        assert r.verdict == LOOP
        # the first pass and the second, which repeats (q, n + 2)
        assert r.steps == 3 * n + 2 * m + 4, (n, m)
    assert swept_both_ways(scans)


def test_single_step_into_a_swept_cell_is_a_loop():
    # s0 sweeps right to the b, s2 sweeps back to ⊢, and s2's single step
    # on ⊢ lands on (s0, 1), a cell of s0's sweep
    t = sweeper(**{"s0 b -": ("s2", ACT_LEFT, ()), "s2 L -": ("s0", ACT_RIGHT, ())})
    scans = scan_lengths(t)
    for n in (1, 2, 3, 20):
        r = assert_matches_reference(t, "a" * n + "b")
        assert r.verdict == LOOP and r.steps == 2 * n + 3, n
    assert swept_both_ways(scans)


def test_left_sweep_over_the_cells_of_an_earlier_left_sweep():
    # on a^n b a^m: q sweeps right to the b, p sweeps left from the a before
    # it to ⊢, r sweeps right to ⊣, and p sweeps left again, landing on ⊢
    # inside its first sweep; the loop is at (p, n), where that one began
    delta = {("q", LEFT_END, None): ("q", ACT_RIGHT), ("q", "a", None): ("q", ACT_RIGHT),
             ("q", "b", None): ("p", ACT_LEFT),
             ("p", "a", None): ("p", ACT_LEFT), ("p", "b", None): ("p", ACT_LEFT),
             ("p", LEFT_END, None): ("r", ACT_RIGHT),
             ("r", "a", None): ("r", ACT_RIGHT), ("r", "b", None): ("r", ACT_RIGHT),
             ("r", RIGHT_END, None): ("p", ACT_LEFT)}
    t = MarbleTransducer(
        input_alphabet=("a", "b"), output_alphabet=("a",), states=("q", "p", "r"),
        initial="q", finals=frozenset(), colors=(), delta=delta,
        out={key: ("a",) if key[0] == "p" else () for key in delta})
    scans = scan_lengths(t)
    for n, m in ((2, 2), (5, 3), (1, 6), (12, 1)):
        r = assert_matches_reference(t, "a" * n + "b" + "a" * m)
        assert r.verdict == LOOP and r.steps == 3 * n + 2 * m + 6, (n, m)
    assert swept_both_ways(scans)


def test_sweeps_before_a_drop_hold_after_the_lift():
    # s4 lifts the marble, sweeps left and turns on ⊢ into (s0, 1), a cell
    # of s0's sweep before the drop
    t = sweeper(**{"s4 L -": ("s0", ACT_RIGHT, ())})
    scans = scan_lengths(t)
    for n in (2, 3, 20):
        r = assert_matches_reference(t, "a" * n + "b")
        assert r.verdict == LOOP and r.steps == 4 * n + 7, n
        assert r.max_stack_depth == 1
    assert swept_both_ways(scans)


def test_sweeps_before_a_drop_do_not_hold_inside_its_frame():
    # inside the frame of the drop, s2 turns on ⊢ into (s0, 1), a cell of
    # s0's sweep before the drop, and s0 sweeps to the marble and lifts it
    t = sweeper(**{"s2 L -": ("s0", ACT_RIGHT, ()), "s0 b c": ("s4", ACT_LIFT, ())})
    scans = scan_lengths(t)
    for n in (2, 3, 20):
        r = assert_matches_reference(t, "a" * n + "b")
        assert r.accepted and r.output_text == "x" * n + "y" * (2 * n), n
        assert r.max_stack_depth == 1
    assert swept_both_ways(scans)


def test_sweeps_over_regex_metacharacters():
    """Tape symbols that are regex metacharacters, and symbol codes whose
    characters are: 100 symbols number the codes past ``-`` and ``[``-``^``."""
    for alphabet in (("[", "]", "^", "-", "\\", "a"),
                     tuple(chr(0x4E00 + i) for i in range(100))):
        reverse = TwoWayTransducer(
            input_alphabet=alphabet, output_alphabet=alphabet,
            states=("go", "back", "done"), initial="go", finals=frozenset({"done"}),
            delta={("go", LEFT_END): ("go", MOVE_RIGHT),
                   ("go", RIGHT_END): ("back", MOVE_LEFT),
                   ("back", LEFT_END): ("done", MOVE_RIGHT),
                   ("done", RIGHT_END): ("done", MOVE_RIGHT),
                   **{(q, a): (q, MOVE_LEFT if q == "back" else MOVE_RIGHT)
                      for q in ("go", "back", "done") for a in alphabet}},
            out={**{(q, a): (a,) if q == "back" else ()
                    for q in ("go", "back", "done") for a in alphabet},
                 **{(q, e): () for q in ("go", "back", "done")
                    for e in (LEFT_END, RIGHT_END)}})
        marble = two_way_to_marble(reverse)
        scans = scan_lengths(marble)
        rng = random.Random(len(alphabet))
        for n in (2, 7, 60):
            w = tuple(rng.choice(alphabet) for _ in range(n))
            r = assert_matches_reference(marble, w)
            assert r.accepted and r.output == w[::-1]
        assert swept_both_ways(scans)
    codes = semantics._compile_tables(marble)[1].values()
    assert {ord(ch) for ch in "-[\\]^"} <= set(codes)


def test_outputs_of_several_characters_are_stepped_singly():
    # str.translate writes characters, so a sweep whose symbols are longer
    # than one character is not taken
    copier = two_way_to_marble(TwoWayTransducer(
        input_alphabet=("xy", "z"), output_alphabet=("xy", "z"), states=("q",),
        initial="q", finals=frozenset({"q"}),
        delta={("q", LEFT_END): ("q", MOVE_RIGHT), ("q", "xy"): ("q", MOVE_RIGHT),
               ("q", "z"): ("q", MOVE_RIGHT)},
        out={("q", LEFT_END): (), ("q", "xy"): ("xy",), ("q", "z"): ("z",)}))
    scans = scan_lengths(copier)
    w = ("xy", "z") * 10
    assert assert_matches_reference(copier, w).output == w and scans == []


# ---------------------------------------------------------------------------
# The update evaluator against its piece-by-piece reference
# ---------------------------------------------------------------------------

# Value lengths around SHARE_MIN, so that flat joins land on SHARE_MIN and
# SHARE_MIN + 1 letters; 40 stands for a long flat initial value.
VALUE_LENGTHS = (0, 1, 2, 15, 16, 17, SHARE_MIN - 1, SHARE_MIN, SHARE_MIN + 1, 40)


def random_value(rng, depth=0):
    """A register value: a flat word of a length from ``VALUE_LENGTHS`` or,
    now and then, a node over letters, flat words and nodes."""
    if depth < 2 and rng.random() < 0.2:
        items = [rng.choice("ab") if rng.random() < 0.3 else
                 random_value(rng, depth + 1) for _ in range(rng.randint(1, 4))]
        return semantics._Cat(items + [("a",) * (SHARE_MIN + 1)])
    return tuple(rng.choice("ab") for _ in range(rng.choice(VALUE_LENGTHS)))


def random_rhs(rng, registers):
    """A right-hand side of moves, letters, function calls and, now and
    then, a constant run longer than ``SHARE_MIN``."""
    rhs = []
    for _ in range(rng.randint(0, 5)):
        roll = rng.random()
        if roll < 0.55:
            rhs.append(Reg(rng.choice(registers)))
        elif roll < 0.85:
            rhs.append(Lit(rng.choice("ab")))
        elif roll < 0.95:
            rhs.append(Fun(rng.choice("fg")))
        else:
            rhs += [Lit("a")] * rng.randint(SHARE_MIN - 1, SHARE_MIN + 8)
    return rhs


def test_update_matches_the_piece_by_piece_reference():
    """``_update`` gives every register the value and the type (flat tuple
    or node) the piece-by-piece loop gives it, and ``_output_word`` the word
    of that value, on random programs over valuations of flat words around
    ``SHARE_MIN``, long flat words and nodes, with function calls."""
    registry = FunctionRegistry({"f": lambda w: ("a",) * len(w),
                                 "g": lambda w: ("b",) * (SHARE_MIN - len(w) % 3)})
    rng = random.Random(29)
    joins = Counter()
    for _ in range(4000):
        registers = tuple("r%d" % i for i in range(rng.randint(1, 4)))
        index = {x: i for i, x in enumerate(registers)}
        val = tuple(random_value(rng) for _ in registers)
        prog = tuple(semantics._compile_rhs(random_rhs(rng, registers), index)
                     for _ in registers)
        w = tuple(rng.choice("ab") for _ in range(rng.choice(VALUE_LENGTHS)))
        read = rng.randint(0, len(w))
        got = semantics._update(prog, val, w, read, registry)
        want = reference_update(prog, val, w, read, registry)
        assert got == want
        assert [type(v) for v in got] == [type(v) for v in want]
        for rhs, value in zip(prog, want):
            if type(rhs) is not list:
                joins[type(rhs).__name__] += 1
            elif any(type(p) is Fun for p in rhs):
                joins["fun"] += 1
            else:
                assert semantics._output_word(rhs, val) == semantics._flat(value)
                pieces = [val[p] if type(p) is int else p for p in rhs]
                if all(type(p) is tuple for p in pieces):
                    joins[min(len(value), SHARE_MIN + 1)] += 1
                else:
                    joins["node"] += 1
        for rhs in prog:
            if type(rhs) is not list:
                assert semantics._output_word(rhs, val) == semantics._flat(
                    reference_update((rhs,), val, (), 0, None)[0])
    # every kind of right-hand side, and flat joins on both sides of SHARE_MIN
    assert min(joins[k] for k in ("int", "tuple", "_Cat", "fun", "node",
                                  SHARE_MIN, SHARE_MIN + 1)) >= 20, joins
