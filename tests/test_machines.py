import random
from collections import Counter
from dataclasses import dataclass, replace

import pytest
from hypothesis import given, strategies as st

from xducer.layering import extract_sstf
from xducer.machine_io import parse_machine
from xducer.machines import (
    ACT_LIFT,
    ACT_RIGHT,
    COPY_BOUND_LIMIT,
    Fun,
    LEFT_END,
    Lit,
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
    check_bounded,
    check_copyless,
    check_layer_order,
    check_layered,
    compose_substitutions,
    explore,
    find_copy_bound,
    register_occurrences,
    validate,
)

from conftest import CORPUS_NAMES, corpus_path, load, reference_validate


def lits(word):
    return tuple(Lit(b) for b in word)


def identity_substitution(registers):
    return {x: (Reg(x),) for x in registers}


S1 = {"x": lits("b"), "y": (Lit("b"), Reg("x"), Reg("y"), Lit("b"))}
S2 = {"x": (Reg("x"), Lit("b")), "y": (Reg("x"), Reg("y"))}


def test_compose_worked_example():
    c = compose_substitutions(S1, S2)
    assert c["x"] == lits("bb")
    assert c["y"] == (Lit("b"), Lit("b"), Reg("x"), Reg("y"), Lit("b"))


def test_compose_identity_both_sides():
    ident = identity_substitution(["x", "y"])
    assert compose_substitutions(ident, S1) == S1
    assert compose_substitutions(S1, ident) == S1


def test_compose_register_mismatch():
    with pytest.raises(MachineError):
        compose_substitutions(S1, {"x": ()})


token = st.one_of(
    st.sampled_from([Lit("a"), Lit("b")]),
    st.sampled_from([Reg("x"), Reg("y")]),
)
substitution = st.fixed_dictionaries({
    "x": st.lists(token, max_size=4).map(tuple),
    "y": st.lists(token, max_size=4).map(tuple),
})


@given(substitution, substitution, substitution)
def test_compose_associative(s1, s2, s3):
    left = compose_substitutions(compose_substitutions(s1, s2), s3)
    right = compose_substitutions(s1, compose_substitutions(s2, s3))
    assert left == right


def test_copyless_worked_examples():
    one_state = load("reverse_sst")
    assert check_copyless(one_state) == []
    machine = SST(
        input_alphabet=("b",), output_alphabet=("b",), states=("q",),
        registers=("x", "y"), initial="q",
        init_valuation={"x": (), "y": ()},
        delta={("q", "b"): "q"}, update={("q", "b"): S2},
        output={"q": (Reg("y"),)},
    )
    violations = check_copyless(machine)
    assert len(violations) == 1 and "'x'" in violations[0]
    assert check_copyless(load("exp_sst")) != []


def test_layered_mul_and_exp():
    assert check_layered(*parse_machine(corpus_path("mul_sst"))) == []
    exp = load("exp_sst")
    assert check_layered(exp, (("x",),)) != []


def test_layered_vacuous_empty_partition():
    zero = SST(
        input_alphabet=("a",), output_alphabet=("a",), states=("q",),
        registers=(), initial="q", init_valuation={},
        delta={("q", "a"): "q"}, update={("q", "a"): {}},
        output={"q": ()},
    )
    assert check_layered(zero, ((),)) == []


def test_bounded_pair_machine():
    m = load("bounded_pair_sst")
    assert check_bounded(m, (m.registers,), 2).bounded
    res = check_bounded(m, (m.registers,), 1)
    assert not res.bounded and res.witness is not None


def test_copyless_implies_one_bounded():
    m = load("reverse_sst")
    assert check_bounded(m, (m.registers,), 1).bounded


def test_exp_not_bounded_with_predicted_witness():
    m = load("exp_sst")
    for bound in (1, 2, 3):
        res = check_bounded(m, (m.registers,), bound)
        assert not res.bounded
        expected_len = 1
        while 2 ** expected_len <= bound:
            expected_len += 1
        assert len(res.witness) == expected_len


def test_bounded_witness_is_sound():
    m = load("bounded_pair_sst")
    res = check_bounded(m, (m.registers,), 1)
    s = identity_substitution(m.registers)
    q = m.initial
    for a in res.witness:
        s = compose_substitutions(s, m.update[(q, a)])
        q = m.delta[(q, a)]
    counts = register_occurrences(s)
    assert any(c > 1 for c in counts.values())


EDGES = {0: (2, 1), 1: (3,), 2: (3, 4), 3: (0,), 4: ()}


def test_explore_returns_breadth_first_discovery_order():
    assert explore([0], EDGES.__getitem__, 5, "toy") == [0, 2, 1, 3, 4]
    assert explore([1, 1, 4], EDGES.__getitem__, 5, "toy") == [1, 4, 3, 0, 2]


def test_explore_stops_at_the_first_node_found_that_meets_stop():
    assert explore([0], EDGES.__getitem__, 5, "toy", (3).__eq__) == [0, 2, 1, 3]
    # the starts are not tested; the node that meets stop ends the search
    # before the limit is checked
    assert explore([3], EDGES.__getitem__, 5, "toy", (3).__eq__) == [3, 0, 2, 1, 4]
    assert explore([0], EDGES.__getitem__, 3, "toy", (3).__eq__) == [0, 2, 1, 3]


def test_explore_limit_names_stage_and_limit():
    with pytest.raises(MachineError) as exc:
        explore([0], EDGES.__getitem__, 3, "toy closure")
    assert "toy closure" in str(exc.value) and "3" in str(exc.value)


def test_random_layered_iff_one_bounded():
    rng = random.Random(20240)
    agree = 0
    for _trial in range(50):
        n_regs = rng.randint(1, 3)
        regs = tuple("r%d" % i for i in range(n_regs))
        cut = rng.randint(0, n_regs)
        layers = (regs[:cut], regs[cut:])
        level = {x: 0 for x in layers[0]}
        level.update({x: 1 for x in layers[1]})
        states = tuple("q%d" % i for i in range(rng.randint(1, 3)))
        delta, update = {}, {}
        for q in states:
            for a in ("a", "b"):
                delta[(q, a)] = rng.choice(states)
                sub = {}
                for x in regs:
                    allowed = [y for y in regs if level[y] <= level[x]]
                    rhs = [Reg(rng.choice(allowed))
                           for _ in range(rng.randint(0, 2))]
                    sub[x] = tuple(rhs)
                update[(q, a)] = sub
        m = SST(
            input_alphabet=("a", "b"), output_alphabet=("o",), states=states,
            registers=regs, initial=states[0],
            init_valuation={x: () for x in regs},
            delta=delta, update=update, output={states[0]: ()},
        )
        layered = check_layered(m, layers) == []
        bounded = check_bounded(m, layers, 1).bounded
        assert layered == bounded
        agree += 1
    assert agree == 50


def test_find_copy_bound():
    m = load("bounded_pair_sst")
    assert find_copy_bound(m, (m.registers,)) == 2


def probed_copy_bound(m, layers):
    """Reference: the first B = 1, 2, ... for which check_bounded passes.

    A machine that fails the largest bound fails every smaller one, so it
    is answered by one check instead of COPY_BOUND_LIMIT of them."""
    if not check_bounded(m, layers, COPY_BOUND_LIMIT).bounded:
        return None
    for b in range(1, COPY_BOUND_LIMIT + 1):
        if check_bounded(m, layers, b).bounded:
            return b
    return None


def test_find_copy_bound_matches_probing():
    rng = random.Random(9090)
    bounds = Counter()
    machines = [load("bounded_pair_sst"), load("reverse_sst_copyful"),
                load("exp_sst")]
    for _trial in range(150):
        regs = tuple("r%d" % i for i in range(rng.randint(1, 3)))
        states = tuple("q%d" % i for i in range(rng.randint(1, 3)))
        delta, update = {}, {}
        for q in states:
            for a in ("a", "b"):
                delta[(q, a)] = rng.choice(states)
                update[(q, a)] = {
                    x: tuple(Reg(rng.choice(regs))
                             for _ in range(rng.choice((0, 1, 1, 2))))
                    for x in regs}
        machines.append(SST(
            input_alphabet=("a", "b"), output_alphabet=("o",), states=states,
            registers=regs, initial=states[0],
            init_valuation={x: () for x in regs},
            delta=delta, update=update, output={states[0]: ()},
        ))
    for m in machines:
        want = probed_copy_bound(m, (m.registers,))
        bounds[want] += 1
        if want is None:
            with pytest.raises(MachineError, match="no copy bound found up to 64"):
                find_copy_bound(m, (m.registers,))
        else:
            assert find_copy_bound(m, (m.registers,)) == want
    # the sample spans copyless, bounded-copy and unbounded machines
    assert bounds[1] and bounds[None] and sum(
        n for b, n in bounds.items() if b is not None and b > 1) >= 5, bounds


def test_validate_corpus_machines():
    for name in CORPUS_NAMES:
        assert validate(load(name)) == [], name


def test_validate_marble_right_on_color():
    m = load("mul_marble")
    delta = dict(m.delta)
    delta[("m3", "0", "m")] = ("m4", ACT_RIGHT)
    bad = MarbleTransducer(
        input_alphabet=m.input_alphabet, output_alphabet=m.output_alphabet,
        states=m.states, initial=m.initial, finals=m.finals, colors=m.colors,
        delta=delta, out=m.out,
    )
    assert any("move right on marble" in v for v in validate(bad))


def test_validate_unknown_register_in_output():
    m = load("reverse_sst")
    bad = SST(
        input_alphabet=m.input_alphabet, output_alphabet=m.output_alphabet,
        states=m.states, registers=m.registers, initial=m.initial,
        init_valuation=m.init_valuation, delta=m.delta, update=m.update,
        output={"q": (Reg("ghost"),)},
    )
    assert any("unknown register" in v for v in validate(bad))


def test_composition_matches_interpreter_valuation(register_values):
    for m in (load("reverse_sst", ("a", "b")), load("exp_sst"),
              load("bounded_pair_sst")):
        words = ["", "a", "aa", "aaa", "aaaa", "aaaaa", "aaaaaa"]
        if "b" in m.input_alphabet:
            words += ["ab", "ba", "abab", "bbb", "abba", "ababab"]
        for w in words:
            s = identity_substitution(m.registers)
            q = m.initial
            ok = True
            for a in w:
                if (q, a) not in m.delta:
                    ok = False
                    break
                s = compose_substitutions(s, m.update[(q, a)])
                q = m.delta[(q, a)]
            if not ok:
                continue
            expected = {}
            for x in m.registers:
                parts = []
                for tok in s[x]:
                    if isinstance(tok, Lit):
                        parts.append(tok.sym)
                    else:
                        parts.extend(m.init_valuation[tok.name])
                expected[x] = tuple(parts)
            assert register_values(m, w) == expected


# One well-formed machine of each kind, over the letter a, with state q (p
# and q for the NSST-F, p for the automaton), register x and colour c.
TWO_WAY = TwoWayTransducer(("a",), ("a",), ("q",), "q", frozenset({"q"}),
                           {("q", "a"): ("q", MOVE_RIGHT)}, {("q", "a"): ("a",)})
MARBLE = MarbleTransducer(("a",), ("a",), ("q",), "q", frozenset({"q"}), ("c",),
                          {("q", "a", None): ("q", ACT_RIGHT)},
                          {("q", "a", None): ("a",)})
ONE_REG = SST(("a",), ("a",), ("q",), ("x",), "q", {"x": ()},
              {("q", "a"): "q"}, {("q", "a"): {"x": (Reg("x"), Lit("a"))}},
              {"q": (Reg("x"),)})
NONDET = NSSTF(("a",), ("a",), ("p", "q"), ("x",), (), {"p": {"x": ()}},
               (("p", "a", "q"),), {("p", "a", "q"): {"x": (Lit("a"),)}},
               {"q": (Reg("x"),)})
WEIGHTED = NAutomaton(("a",), ("p",), {"p": 1}, {"p": 1}, {"a": {("p", "p"): 1}})
# x in the lower layer reads y from the upper one
UPWARD = SST(("a",), ("a",), ("q",), ("x", "y"), "q", {"x": (), "y": ()},
             {("q", "a"): "q"}, {("q", "a"): {"x": (Reg("y"),), "y": (Reg("x"),)}},
             {"q": (Reg("y"),)})
UPWARD_LAYERS = (("x",), ("y",))


STRUCTURAL_FAULTS = [
    (validate, object(), "unknown machine type 'object'"),
    (validate, replace(ONE_REG, input_alphabet=()), "input alphabet is empty"),
    (validate, replace(ONE_REG, output_alphabet=("a", "a")),
     "output alphabet has duplicate symbols"),
    (validate, replace(ONE_REG, input_alphabet=("a", LEFT_END)),
     "input alphabet contains reserved endmarker %r" % LEFT_END),
    (validate, replace(ONE_REG, update={("q", "a"): {"x": ("x",)}}),
     "update[q,a](x): bad token 'x'"),
    # two-way and marble machines
    (validate, replace(TWO_WAY, initial="r"), "initial state 'r' not declared"),
    (validate, replace(TWO_WAY, finals=frozenset({"q", "r"})),
     "final state 'r' not declared"),
    (validate, replace(TWO_WAY, out={}),
     "transition and output maps have different domains"),
    (validate, replace(TWO_WAY, delta={("q", "a"): ("r", MOVE_RIGHT)}),
     "delta[q,a]: undeclared state"),
    (validate, replace(TWO_WAY, delta={("q", "b"): ("q", MOVE_RIGHT)},
                       out={("q", "b"): ()}),
     "delta[q,b]: undeclared symbol"),
    (validate, replace(TWO_WAY, delta={("q", "a"): ("q", "up")}),
     "delta[q,a]: bad move 'up'"),
    (validate, replace(TWO_WAY, out={("q", "a"): ("b",)}),
     "out[q,a]: unknown output letter 'b'"),
    (validate, replace(MARBLE, delta={("q", "a", None): ("r", ACT_RIGHT)}),
     "delta[q,a,None]: undeclared state"),
    (validate, replace(MARBLE, delta={("q", "b", None): ("q", ACT_RIGHT)},
                       out={("q", "b", None): ()}),
     "delta[q,b,None]: undeclared symbol"),
    (validate, replace(MARBLE, delta={("q", "a", "d"): ("q", ACT_LIFT)},
                       out={("q", "a", "d"): ()}),
     "delta[q,a,d]: undeclared color"),
    (validate, replace(MARBLE, delta={("q", "a", None): ("q", ("jump", None))}),
     "delta[q,a,None]: bad action ('jump', None)"),
    (validate, replace(MARBLE, delta={("q", "a", None): ("q", act_drop("d"))}),
     "delta[q,a,None]: drops undeclared color 'd'"),
    (validate, replace(MARBLE, delta={("q", "a", "c"): ("q", act_drop("c"))},
                       out={("q", "a", "c"): ()}),
     "delta[q,a,c]: drop on marble"),
    (validate, replace(MARBLE, delta={("q", "a", None): ("q", ACT_LIFT)}),
     "delta[q,a,None]: lift without marble"),
    (validate, replace(MARBLE, out={("q", "a", None): ("b",)}),
     "out[q,a,None]: unknown output letter 'b'"),
    # register transducers
    (validate, replace(ONE_REG, initial="r"), "initial state 'r' not declared"),
    (validate, replace(ONE_REG, update={}),
     "transition and update maps have different domains"),
    (validate, replace(ONE_REG, init_valuation={}),
     "initial valuation does not cover the register set"),
    (validate, replace(ONE_REG, init_valuation={"x": ("b",)}),
     "init[x]: unknown output letter 'b'"),
    (validate, replace(ONE_REG, delta={("q", "a"): "r"}),
     "delta[q,a]: undeclared state"),
    (validate, replace(ONE_REG, delta={("q", "b"): "q"},
                       update={("q", "b"): {"x": ()}}),
     "delta[q,b]: undeclared letter"),
    (validate, replace(ONE_REG, update={("q", "a"): {}}),
     "update[q,a]: not total on the register set"),
    (validate, replace(NONDET, update={}),
     "update map domain differs from the transition relation"),
    (validate, replace(NONDET, initial={"r": {"x": ()}}),
     "initial[r]: undeclared state"),
    (validate, replace(NONDET, initial={"p": {}}), "initial[p]: valuation not total"),
    (validate, replace(NONDET, transitions=(("p", "a", "r"),),
                       update={("p", "a", "r"): {"x": ()}}),
     "transition (p,a,r): undeclared state"),
    (validate, replace(NONDET, transitions=(("p", "b", "q"),),
                       update={("p", "b", "q"): {"x": ()}}),
     "transition (p,b,q): undeclared letter"),
    (validate, replace(NONDET, update={("p", "a", "q"): {}}),
     "update[p,a,q]: not total on the register set"),
    # weighted automata
    (validate, replace(WEIGHTED, mats={}), "letter 'a' has no matrix"),
    (validate, replace(WEIGHTED, alpha={"r": 1}),
     "vector entry for undeclared state 'r'"),
    (validate, replace(WEIGHTED, mats={"a": {("p", "r"): 1}}),
     "matrix 'a': undeclared state in entry (p,r)"),
    (validate, replace(WEIGHTED, mats={"a": {("p", "p"): -1}}),
     "matrix 'a': negative weight at (p,p)"),
    (validate, replace(WEIGHTED, beta={"p": -1}), "negative vector weight at 'p'"),
    # layer discipline
    (lambda m: check_layered(m, UPWARD_LAYERS), UPWARD,
     "update[q,a](x): register 'y' from layer 1 used in layer 0"),
    (lambda m: check_layer_order(m, UPWARD_LAYERS), UPWARD,
     "update[q,a](x): upward reference to 'y'"),
    (lambda m: extract_sstf(m, UPWARD_LAYERS), UPWARD, "layer order violated"),
    (lambda m: check_bounded(m, UPWARD_LAYERS, 1), UPWARD,
     "layer order violated: update[q,a](x): upward reference to 'y'"),
]


@pytest.mark.parametrize("check, machine, message", STRUCTURAL_FAULTS,
                         ids=[case[2] for case in STRUCTURAL_FAULTS])
def test_structural_checks_name_each_fault(check, machine, message):
    try:
        found = check(machine)
    except MachineError as exc:  # a check that raises names one fault
        found = [str(exc)]
    assert message in found


def test_fault_free_machines_pass_the_structural_checks():
    for m in (TWO_WAY, MARBLE, ONE_REG, NONDET, WEIGHTED, UPWARD):
        assert validate(m) == [], m
    assert check_layered(UPWARD, (("x", "y"),)) == []


# ---------------------------------------------------------------------------
# Register-machine validation against its token-by-token reference
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LitLike(Lit):
    """A ``Lit`` subclass: ``validate`` checks it as the letter it holds."""


def random_token(rng, regs, funs, fault):
    if rng.random() < fault:
        return rng.choice([Lit("z"), Reg("nope"), Fun("h"), "x", 5, None,
                           LitLike("a"), LitLike("z")])
    roll = rng.random()
    if roll < 0.15 and funs:
        return Fun(rng.choice(funs))
    return Lit(rng.choice("ab")) if roll < 0.5 else Reg(rng.choice(regs))


def random_register_machine(rng, nondeterministic: bool):
    """A random SST (with or without functions) or NSST-F in which every
    part is broken now and then: alphabets, declarations, initial values,
    transitions, update domains, right-hand sides, tokens and outputs."""
    fault = rng.choice((0.0, 0.03, 0.1, 0.3))

    def broken():
        return rng.random() < fault

    letters = ("a", "b")
    inputs = rng.choice([(), ("a", "a"), ("a", LEFT_END)]) if broken() else letters
    outputs = rng.choice([(), ("b", "b"), ("a", RIGHT_END)]) if broken() else letters
    states = tuple("q%d" % i for i in range(rng.randint(1, 3)))
    regs = tuple("r%d" % i for i in range(rng.randint(1, 3)))
    states += states[:1] if broken() else ()
    regs += regs[-1:] if broken() else ()
    funs = ("f", "g")[:rng.randint(0, 2)]

    def valuation():
        val = {x: tuple(rng.choice("abz" if broken() else "ab")
                        for _ in range(rng.randint(0, 2)))
               for x in regs if not broken()}
        if broken():
            val["extra"] = ()
        return val

    def substitution():
        sub = {x: tuple(random_token(rng, regs, funs, fault)
                        for _ in range(rng.randint(0, 3)))
               for x in regs if not broken()}
        if broken():
            sub["extra"] = (Reg(regs[0]),)
        return sub

    def state():
        return "nope" if broken() else rng.choice(states)

    keys = [(q, rng.choice(("a", "b", "z")) if broken() else a)
            for q in states for a in letters if rng.random() < 0.8]
    output = {("nope" if broken() else q): tuple(
                  random_token(rng, regs, ("f",) if broken() else (), fault)
                  for _ in range(rng.randint(0, 3)))
              for q in states if rng.random() < 0.8}
    if nondeterministic:
        transitions = sorted({(q, a, state()) for q, a in keys})
        update = {key: substitution() for key in transitions if not broken()}
        if broken():
            update[("q0", "a", "nope")] = {}
        return NSSTF(inputs, outputs, states, regs, funs,
                     {state(): valuation() for _ in range(rng.randint(1, 2))},
                     tuple(transitions), update, output)
    delta = {key: state() for key in keys}
    update = {key: substitution() for key in delta if not broken()}
    if broken():
        update[("q0", "z")] = {}
    return SST(inputs, outputs, states, regs, state(), valuation(), delta,
               update, output, funs)


def test_register_machine_reports_match_the_reference():
    """``validate`` reports, for SSTs and NSST-Fs broken at random, the
    faults the token-by-token reference reports, in the same order."""
    rng = random.Random(2029)
    faults = clean = 0
    for i in range(3000):
        m = random_register_machine(rng, nondeterministic=i % 3 == 0)
        report = validate(m)
        assert report == reference_validate(m), m
        faults += len(report)
        clean += not report
    assert faults > 10000 and clean > 300, (faults, clean)
