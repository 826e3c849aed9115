import math
import os
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from xducer import layering, machines
from xducer.growth import flow_automaton, is_simple
from xducer.layering import (
    bounded_sstf_to_unambiguous,
    compose_skebegfol,
    decompose_copyless,
    determinize_nsstf,
    extract_sstf,
    make_total,
    minimize_marbles,
    product_ssts,
    prune_dead_registers,
    prune_sst_registers,
    remove_bounded_layer,
    splice_layers,
    to_k_layered,
    to_simple,
    value_sst,
)
from xducer.machines import (
    Fun,
    FunctionRegistry,
    Lit,
    MachineError,
    MarbleTransducer,
    NSSTF,
    Reg,
    SST,
    TwoWayTransducer,
    check_copyless,
    check_layered,
    compose_substitutions,
    validate,
)
from xducer.mt2sst import marble_to_sst, two_way_to_marble
from xducer.oracle import equiv_check, words_up_to
from xducer.semantics import enumerate_nsstf_runs, run_marble, run_sst, run_sstf
from xducer.sst2mt import layered_to_marble

from conftest import load


# ---------------------------------------------------------------------------
# Totalization and simplification
# ---------------------------------------------------------------------------


def test_make_total_already_total():
    m = load("exp_sst")
    total, dfa = make_total(m)
    assert total is m
    assert all(dfa.accepts("a" * n) for n in range(5))


def test_make_total_domain_dfa():
    m = load("mul_sst")
    total, dfa = make_total(m)
    assert validate(total) == []
    for w in words_up_to(m.input_alphabet, 5, cap=3000):
        assert dfa.accepts(w) == run_sst(m, w).accepted
        assert run_sst(total, w).accepted


def test_make_total_empty_domain():
    m = load("exp_sst")
    dead = SST(
        input_alphabet=m.input_alphabet, output_alphabet=m.output_alphabet,
        states=m.states, registers=m.registers, initial=m.initial,
        init_valuation=m.init_valuation, delta=m.delta, update=m.update,
        output={},
    )
    total, dfa = make_total(dead)
    assert not any(dfa.accepts("a" * n) for n in range(4))
    assert run_sst(total, "aa").output == ()


@pytest.mark.parametrize("name,maxlen", [
    ("exp_sst", 5), ("mul_sst", 5), ("bounded_pair_sst", 6),
    ("reverse_sst_copyful", 4),
])
def test_to_simple_equivalence(name, maxlen):
    total, _dfa = make_total(load(name))
    simple = to_simple(total)
    assert is_simple(simple)
    assert equiv_check(simple, total, maxlen).equivalent


def test_to_simple_no_letters_single_state():
    m = SST(
        input_alphabet=("a",), output_alphabet=("b",), states=("q",),
        registers=("x",), initial="q", init_valuation={"x": ("b",)},
        delta={("q", "a"): "q"}, update={("q", "a"): {"x": (Reg("x"), Reg("x"))}},
        output={"q": (Reg("x"),)},
    )
    simple = to_simple(m)
    assert len(simple.registers) == 1 and is_simple(simple)


def test_prune_dead_registers():
    total, _ = make_total(load("mul_sst_copyful"))
    simple = prune_dead_registers(to_simple(total))
    assert not any(x.endswith(".z") for x in simple.registers)
    assert equiv_check(simple, total, 4).equivalent


# ---------------------------------------------------------------------------
# Bounded-layer removal
# ---------------------------------------------------------------------------


def _classified(m):
    from xducer.growth import classify

    total, _dfa = make_total(m)
    return total, classify(flow_automaton(to_simple(total)))


def test_remove_bounded_layer_constant_register():
    total, report = _classified(load("mul_sst"))
    machine, layers = remove_bounded_layer(total, report.partition)
    assert len(layers) == len(report.partition) - 1
    assert sorted(machine.registers) == sorted(x for layer in layers for x in layer)
    assert all(len(layer) <= len(total.registers) for layer in layers)
    assert check_layered(machine, layers) == []
    assert equiv_check(machine, total, 5).equivalent


def test_remove_bounded_layer_singleton_closure():
    # the bottom-class register holds the same one-letter word forever, so
    # the valuation closure has exactly one state
    m = SST(
        input_alphabet=("a",), output_alphabet=("b",), states=("q",),
        registers=("k", "y"), initial="q",
        init_valuation={"k": ("b",), "y": ()},
        delta={("q", "a"): "q"},
        update={("q", "a"): {"k": (Reg("k"),), "y": (Reg("k"), Reg("y"))}},
        output={"q": (Reg("y"),)},
    )
    total, report = _classified(m)
    assert report.degree == 1
    machine, layers = remove_bounded_layer(total, report.partition)
    assert len(machine.states) == 1
    assert machine.registers == ("y@1",) and layers == (("y@1",),)
    assert equiv_check(machine, total, 6).equivalent


def test_remove_bounded_layer_degree_zero():
    m = SST(
        input_alphabet=("a",), output_alphabet=("b",), states=("q",),
        registers=("x",), initial="q", init_valuation={"x": ("b",)},
        delta={("q", "a"): "q"}, update={("q", "a"): {"x": (Reg("x"),)}},
        output={"q": (Reg("x"),)},
    )
    total, report = _classified(m)
    assert report.degree == 0
    machine, layers = remove_bounded_layer(total, report.partition)
    assert machine.registers == () and layers == ((),)
    assert equiv_check(machine, total, 5).equivalent


@pytest.mark.parametrize("name,copyless_step", [("reverse_sst_copyful", True),
                                                 ("mul_sst_copyful", False)])
def test_pipeline_never_measures_a_copy_bound(name, copyless_step, monkeypatch):
    # the profile machine sizes its register copies from the profiles it
    # builds, so no copy-bound closure runs
    def refuse(*args):
        raise AssertionError("copy bound measured")

    built = []

    def profile_machine(m, _original=layering.bounded_sstf_to_unambiguous):
        built.append(m)
        return _original(m)

    monkeypatch.setattr(machines, "find_copy_bound", refuse)
    monkeypatch.setattr(machines, "check_bounded", refuse)
    monkeypatch.setattr(layering, "bounded_sstf_to_unambiguous", profile_machine)
    assert to_k_layered(load(name)).kind == "layered"
    assert bool(built) == copyless_step


# ---------------------------------------------------------------------------
# Skeleton / boundary decompositions
# ---------------------------------------------------------------------------


def reassemble(sbf):
    """The substitution a skeleton/boundary decomposition stands for."""
    s = {}
    for x, names in sbf.ske.items():
        rhs = list(sbf.beg[x])
        for y in names:
            rhs.append(Reg(y))
            rhs.extend(sbf.fol[y])
        s[x] = tuple(rhs)
    return s


S1 = {"x": (Lit("a"),), "y": (Lit("b"), Reg("x"), Reg("y"), Lit("c"))}
S2 = {"x": (Reg("y"), Lit("d")), "y": (Reg("x"),)}


def test_decompose_worked_example():
    d1 = decompose_copyless(S1)
    assert d1.ske == {"x": (), "y": ("x", "y")}
    assert d1.beg == {"x": (Lit("a"),), "y": (Lit("b"),)}
    assert d1.fol == {"x": (), "y": (Lit("c"),)}
    d2 = decompose_copyless(S2)
    assert d2.ske == {"x": ("y",), "y": ("x",)}
    assert d2.fol == {"x": (), "y": (Lit("d"),)}


def test_compose_worked_example():
    comp = compose_skebegfol(decompose_copyless(S1), decompose_copyless(S2))
    assert comp.beg["x"] == (Lit("b"),)
    assert comp.beg["y"] == (Lit("a"),)
    assert comp.fol["x"] == ()
    assert comp.fol["y"] == (Lit("c"), Lit("d"))
    assert comp.ske["x"] == ("x", "y") and comp.ske["y"] == ()
    assert reassemble(comp) == compose_substitutions(S1, S2)


def test_decompose_rejects_copyful():
    with pytest.raises(MachineError):
        decompose_copyless({"x": (Reg("x"), Reg("x"))})


REGS = ("r0", "r1", "r2", "r3")


@st.composite
def copyless_substitutions(draw):
    regs = list(REGS)
    available = list(regs)
    sub = {}
    for x in regs:
        rhs = []
        for _ in range(draw(st.integers(0, 3))):
            if available and draw(st.booleans()):
                pick = draw(st.sampled_from(sorted(available)))
                available.remove(pick)
                rhs.append(Reg(pick))
            else:
                rhs.append(Lit(draw(st.sampled_from("ab"))))
        sub[x] = tuple(rhs)
    return sub


@settings(max_examples=200, deadline=None)
@given(copyless_substitutions())
def test_decompose_reassemble_roundtrip(sub):
    assert reassemble(decompose_copyless(sub)) == sub


@settings(max_examples=200, deadline=None)
@given(copyless_substitutions(), copyless_substitutions())
def test_compose_agrees_with_direct_composition(s1, s2):
    composed = compose_skebegfol(decompose_copyless(s1), decompose_copyless(s2))
    assert reassemble(composed) == compose_substitutions(s1, s2)


# ---------------------------------------------------------------------------
# Extraction and the external-function chain
# ---------------------------------------------------------------------------


def prev_value_sst(m: SST, x: str, lower: tuple) -> SST:
    """Total machine computing the value x held before the last input letter:
    value_sst plus a shadow register copying x on every letter."""
    cur = value_sst(m, x, lower)
    shadow = layering._fresh("%s.prev" % x, set(lower))
    return replace(
        cur, registers=lower + (shadow,),
        init_valuation={**cur.init_valuation, shadow: tuple(m.init_valuation[x])},
        update={key: {**s, shadow: (Reg(x),)} for key, s in cur.update.items()},
        output={q: (Reg(shadow),) for q in m.states},
    )


def prev_value_registry(m: SST, layers, binding: dict) -> FunctionRegistry:
    """The functions an extracted top layer calls, as value machines."""
    lower = tuple(x for layer in layers[:-1] for x in layer)
    return FunctionRegistry({f: prev_value_sst(m, x, lower) for f, x in binding.items()})


def test_extract_single_layer_is_identity():
    m = load("bounded_pair_sst")
    top, binding = extract_sstf(m, (m.registers,))
    assert top is m and binding == {}


def _two_layer_machine():
    total, report = _classified(load("mul_sst"))
    return remove_bounded_layer(total, report.partition)


def test_extract_mul_layers():
    machine, layers = _two_layer_machine()
    top, binding = extract_sstf(machine, layers)
    assert set(top.funs) == set(binding)
    registry = prev_value_registry(machine, layers, binding)
    for w in words_up_to(machine.input_alphabet, 5, cap=2000):
        mine = run_sstf(top, w, registry)
        want = run_sst(machine, w)
        assert mine.output == want.output, w


def test_extract_routes_output_references():
    x, y = Reg("x"), Reg("y")
    m = SST(
        input_alphabet=("a",), output_alphabet=("a",), states=("q",),
        registers=("x", "y"), initial="q",
        init_valuation={"x": (), "y": ()},
        delta={("q", "a"): "q"},
        update={("q", "a"): {"x": (x, Lit("a")), "y": (x, y)}},
        output={"q": (x, y, x)},
    )
    top, binding = extract_sstf(m, (("x",), ("y",)))
    registry = prev_value_registry(m, (("x",), ("y",)), binding)
    assert any(r.endswith(".val") for r in top.registers)
    assert not any(isinstance(t, Fun) for rhs in top.output.values() for t in rhs)
    for n in range(6):
        assert run_sstf(top, "a" * n, registry).output == run_sst(m, "a" * n).output


def test_delayed_value_machines():
    m = load("bounded_pair_sst")
    top, binding = extract_sstf(m, (("x",), ("y",)))
    assert binding == {"f_x": "x"}
    f = prev_value_registry(m, (("x",), ("y",)), binding).entries["f_x"]
    # value of x before the last letter
    assert run_sst(f, "aaa").output_text == "aa"
    assert run_sst(f, "a").output_text == ""
    plain = value_sst(m, "x", ("x",))
    assert run_sst(plain, "aaa").output_text == "aaa"


# ---------------------------------------------------------------------------
# Unambiguous nondeterminism and determinization
# ---------------------------------------------------------------------------


def test_unambiguous_chain_on_pair_machine():
    total, _ = make_total(load("bounded_pair_sst"))
    n = bounded_sstf_to_unambiguous(total)
    assert validate(n) == []
    assert check_copyless(n) == []
    for k in range(5):
        runs = enumerate_nsstf_runs(n, "a" * k)
        assert len(runs) == 1
        assert runs[0][1] == run_sst(total, "a" * k).output


def test_unambiguous_copyless_input_has_binary_profiles():
    rev = load("reverse_sst", ("a", "b"))
    total, _ = make_total(rev)
    n = bounded_sstf_to_unambiguous(total)
    for w in words_up_to(("a", "b"), 4, cap=200):
        runs = enumerate_nsstf_runs(n, w)
        assert len(runs) == 1
        assert runs[0][1] == run_sst(total, w).output


def test_profile_machine_is_grown_from_the_output():
    # 2^18 candidate profiles, but only the 18 rotations of the output's
    # profile reach it
    regs = tuple("r%02d" % i for i in range(18))
    rotate = {x: (Reg(regs[(i + 1) % 18]),) for i, x in enumerate(regs)}
    rotate[regs[-1]] += (Lit("a"),)
    prepend = {x: (Reg(x),) for x in regs}
    prepend[regs[0]] = (Lit("b"), Reg(regs[0]))
    m = SST(
        input_alphabet=("a", "b"), output_alphabet=("a", "b"), states=("q",),
        registers=regs, initial="q",
        init_valuation={x: ("ab"[i % 2],) for i, x in enumerate(regs)},
        delta={("q", "a"): "q", ("q", "b"): "q"},
        update={("q", "a"): rotate, ("q", "b"): prepend},
        output={"q": tuple(Reg(x) for x in regs[:9])},
    )
    assert 2 ** len(regs) > layering.PROFILE_LIMIT
    n = bounded_sstf_to_unambiguous(m)
    assert len(n.states) == 18
    assert validate(n) == [] and check_copyless(n) == []
    for w in words_up_to(("a", "b"), 4):
        runs = enumerate_nsstf_runs(n, w)
        assert len(runs) == 1, w
        assert runs[0][1] == run_sst(m, w).output, w


def test_profile_machine_size_limit(monkeypatch):
    total, _ = make_total(load("bounded_pair_sst"))
    n = bounded_sstf_to_unambiguous(total)
    monkeypatch.setattr(layering, "PROFILE_LIMIT", len(n.states))
    assert bounded_sstf_to_unambiguous(total) == n
    monkeypatch.setattr(layering, "PROFILE_LIMIT", len(n.states) - 1)
    with pytest.raises(MachineError, match=r"^occurrence-profile machine exceeded "
                       r"%d states$" % (len(n.states) - 1)):
        bounded_sstf_to_unambiguous(total)


def test_determinize_pair_machine():
    total, _ = make_total(load("bounded_pair_sst"))
    det = determinize_nsstf(bounded_sstf_to_unambiguous(total))
    assert check_copyless(det) == []
    assert validate(det) == []
    assert equiv_check(det, total, 6).equivalent


def test_determinize_copyless_roundtrip():
    rev = load("reverse_sst", ("a", "b"))
    total, _ = make_total(rev)
    det = determinize_nsstf(bounded_sstf_to_unambiguous(total))
    assert check_copyless(det) == []
    assert equiv_check(det, total, 5).equivalent


def test_profile_machine_copies_each_register_to_its_largest_entry():
    total, _ = make_total(load("bounded_pair_sst"))
    n = bounded_sstf_to_unambiguous(total)
    largest = Counter()
    for q in n.states:
        for entry in q.split("|")[1].split(","):
            x, k = entry.split("=")
            largest[x] = max(largest[x], int(k))
    assert largest == {"x": 2, "y": 1}
    assert n.registers == tuple("%s@%d" % (x, i) for x in sorted(largest)
                                for i in range(1, largest[x] + 1))


def test_determinize_slot_budget_respected(monkeypatch):
    # slot registers are declared for the widest explored forest only
    total, _ = make_total(load("bounded_pair_sst"))
    n = bounded_sstf_to_unambiguous(total)
    # every explored forest is extended, which reads each of its slots once
    slots_read = []

    def slot_sbf(slot, ske_items, _original=layering._slot_sbf):
        slots_read.append(slot)
        return _original(slot, ske_items)

    monkeypatch.setattr(layering, "_slot_sbf", slot_sbf)
    det = determinize_nsstf(n)
    most = max(slots_read) + 1
    assert most <= 2 * len(n.states) - 1
    assert len(det.registers) == 2 * len(n.registers) * most
    assert all(set(s) == set(det.registers) for s in det.update.values())


def test_determinize_nsstf_without_states():
    m = NSSTF(input_alphabet=("a", "b"), output_alphabet=("a",), states=(),
              registers=(), funs=(), initial={}, transitions=(), update={},
              output={})
    det = determinize_nsstf(m)
    assert det.states == ("d0",) and det.registers == () and det.output == {}
    assert det.delta == {("d0", "a"): "d0", ("d0", "b"): "d0"}
    assert det.update == {("d0", "a"): {}, ("d0", "b"): {}}
    assert validate(det) == []


def test_determinization_size_limit(monkeypatch):
    total, _ = make_total(load("bounded_pair_sst"))
    n = bounded_sstf_to_unambiguous(total)
    det = determinize_nsstf(n)
    size = len(det.states) * len(det.registers)
    monkeypatch.setattr(layering, "DETERMINIZATION_SIZE_LIMIT", size)
    assert determinize_nsstf(n) == det
    monkeypatch.setattr(layering, "DETERMINIZATION_SIZE_LIMIT", size - 1)
    with pytest.raises(MachineError, match=r"^determinization exceeded %d states x "
                       r"slot registers \(%d states, %d slot registers\)$"
                       % (size - 1, len(det.states), len(det.registers))):
        determinize_nsstf(n)


# ---------------------------------------------------------------------------
# Splicing
# ---------------------------------------------------------------------------


def test_splice_timing_on_running_prefix():
    # top layer appends the lower register's value once per step
    x, y = Reg("x"), Reg("y")
    m = SST(
        input_alphabet=("a",), output_alphabet=("a",), states=("q",),
        registers=("x", "y"), initial="q",
        init_valuation={"x": (), "y": ()},
        delta={("q", "a"): "q"},
        update={("q", "a"): {"x": (x, Lit("a")), "y": (Fun("f_x"), y)}},
        output={"q": (y,)}, funs=("f_x",),
    )
    lower = value_sst(m, "x", ("x",))
    product, layers, expr = product_ssts({"f_x": (lower, (("x",),))})
    spliced, out_layers = splice_layers(m, product, layers, expr)
    assert check_layered(spliced, out_layers) == []
    registry = FunctionRegistry({"f_x": prev_value_sst(m, "x", ("x",))})
    for n in range(6):
        want = run_sstf(m, "a" * n, registry).output
        got = run_sst(spliced, "a" * n).output
        assert got == want, n


def test_splice_empty_registry_returns_top():
    m = load("bounded_pair_sst")
    out, layers = splice_layers(m, m, (), {})
    assert out is m and layers == (m.registers,)


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def test_to_k_layered_exponential():
    res = to_k_layered(load("exp_sst"))
    assert res.kind == "exponential"
    assert res.report.kind == "exponential"


def test_to_k_layered_mul_copyful():
    res = to_k_layered(load("mul_sst_copyful"))
    assert res.kind == "layered" and res.k == 1
    assert check_layered(res.machine, res.layers) == []
    assert equiv_check(res.machine, load("mul_sst_copyful"), 5).equivalent


def test_to_k_layered_reverse_copyful_becomes_copyless():
    res = to_k_layered(load("reverse_sst_copyful"))
    assert res.kind == "layered" and res.k == 0
    assert check_copyless(res.machine) == []
    assert equiv_check(res.machine, load("reverse_sst_copyful"), 4).equivalent


def test_to_k_layered_degree_zero():
    m = SST(
        input_alphabet=("a",), output_alphabet=("b",), states=("q", "r"),
        registers=("x",), initial="q", init_valuation={"x": ("b",)},
        delta={("q", "a"): "r", ("r", "a"): "q"},
        update={("q", "a"): {"x": (Reg("x"),)}, ("r", "a"): {"x": (Reg("x"),)}},
        output={"q": (Reg("x"),)},
    )
    res = to_k_layered(m)
    assert res.k == 0 and res.machine.registers == ()
    assert equiv_check(res.machine, m, 5).equivalent


def test_to_k_layered_respects_domain():
    res = to_k_layered(load("mul_sst"))
    assert equiv_check(res.machine, load("mul_sst"), 5).equivalent


def test_minimize_marbles_exponential():
    res = minimize_marbles(load("exp_marble"))
    assert res.kind == "exponential"


def test_minimize_marbles_pow2_wasteful():
    res = minimize_marbles(load("pow2_marble_wasteful"))
    assert res.kind == "marble" and res.k == 1
    for n in range(6):
        r = run_marble(res.machine, "a" * n)
        assert r.accepted and len(r.output) == n * n
        assert r.max_stack_depth <= 1
    assert equiv_check(res.machine, load("pow2_marble_wasteful"), 5).equivalent


def test_prune_sst_registers_keeps_function():
    m = load("mul_sst_copyful")
    total, _ = make_total(m)
    pruned, layers = prune_sst_registers(total, (total.registers,))
    assert "z" not in pruned.registers
    assert equiv_check(pruned, total, 4).equivalent


def _alternating(layers):
    """x is live at p only and y at q only: on even lengths the output is
    x = "a", on odd ones y = x.b read before x is emptied."""
    m = SST(input_alphabet=("a",), output_alphabet=("a", "b"), states=("p", "q"),
            registers=("x", "y"), initial="p", init_valuation={"x": ("a",), "y": ()},
            delta={("p", "a"): "q", ("q", "a"): "p"},
            update={("p", "a"): {"x": (), "y": (Reg("x"), Lit("b"))},
                    ("q", "a"): {"x": (Lit("a"),), "y": ()}},
            output={"p": (Reg("x"),), "q": (Reg("y"),)})
    allocated, out_layers = prune_sst_registers(m, layers)
    assert equiv_check(allocated, m, 6).equivalent
    assert check_layered(allocated, out_layers) == []
    return allocated, out_layers


def test_allocator_merges_registers_live_at_disjoint_states():
    allocated, layers = _alternating((("x", "y"),))
    assert allocated.registers == ("x",) and layers == (("x",),)
    assert allocated.update[("p", "a")] == {"x": (Reg("x"), Lit("b"))}
    assert allocated.output == {"p": (Reg("x"),), "q": (Reg("x"),)}


def test_allocator_keeps_layers_apart():
    allocated, layers = _alternating((("x",), ("y",)))
    assert allocated.registers == ("x", "y") and layers == (("x",), ("y",))


def test_allocator_drops_reads_of_registers_forced_empty():
    # x is emptied on every way into q, so y's read of x there reads nothing
    m = SST(input_alphabet=("a",), output_alphabet=("a", "b"), states=("p", "q"),
            registers=("x", "y"), initial="p", init_valuation={"x": ("a",), "y": ()},
            delta={("p", "a"): "q", ("q", "a"): "p"},
            update={("p", "a"): {"x": (), "y": (Reg("y"), Reg("x"))},
                    ("q", "a"): {"x": (Lit("a"),), "y": (Reg("y"), Reg("x"), Lit("b"))}},
            output={"p": (Reg("y"),), "q": (Reg("y"),)})
    allocated, layers = prune_sst_registers(m, (("x", "y"),))
    assert allocated.registers == ("x", "y")
    assert allocated.update[("q", "a")] == {"x": (Lit("a"),), "y": (Reg("y"), Lit("b"))}
    assert allocated.update[("p", "a")] == m.update[("p", "a")]
    assert equiv_check(allocated, m, 6).equivalent


# Growth degree of pool_machine("opt_sst", i) for i = 0..39; None: exponential
POOL_DEGREES = (2, 2, 2, 3, 2, 2, 2, 2, None, 2, 2, None, 2, 0, 2, 2, 3, 2, None, 2,
                2, 2, 2, 1, 2, 2, 2, 3, 1, 2, 2, 2, 2, 2, 1, 2, 3, 2, 2, 2)


def test_allocated_pool_members_keep_degree_and_function(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), ".."))
    from perfbench.gen import pool_machine

    for i, degree in enumerate(POOL_DEGREES):
        m = pool_machine("opt_sst", i)
        res = to_k_layered(m)
        if degree is None:
            assert res.kind == "exponential", i
            continue
        assert (res.report.degree, res.k) == (degree, max(degree - 1, 0)), i
        assert check_layered(res.machine, res.layers) == [], i
        assert equiv_check(res.machine, m, 6).equivalent, i
        rng = random.Random("allocated:%d" % i)
        for _ in range(20):
            w = rng.choices(m.input_alphabet, k=rng.randint(50, 120))
            want, got = run_sst(m, w), run_sst(res.machine, w)
            assert (got.verdict, got.output) == (want.verdict, want.output), (i, w)


# ---------------------------------------------------------------------------
# The copyless construction runs only where check_layered rejects a layer
# ---------------------------------------------------------------------------

# Corpus machines of polynomial growth: SSTs as they are, marble and two-way
# machines through their crossing SST.  The bounded form of the DETERMINIZED
# ones fails check_layered, so they need the copyless construction; the
# others leave remove_bounded_layer already layered.
POLYNOMIAL = ("bounded_pair_sst", "copy_two_way", "identity_sst", "mul_marble",
              "mul_sst", "mul_sst_copyful", "pow2_marble", "pow2_marble_wasteful",
              "reverse_sst", "reverse_sst_copyful", "reverse_two_way")
DETERMINIZED = ("bounded_pair_sst", "pow2_marble", "pow2_marble_wasteful",
                "reverse_sst_copyful")


def domain_word(m, rng, lo, hi):
    """A random word of at least ``lo`` letters in the domain of ``m``.

    Letters that keep the state are preferred, so that loops before a
    one-way exit (the ``ab`` part of ``ab#000``) are walked many times."""
    dist = {q: 0 for q in m.output}
    while True:
        grown = {q: dist[q2] + 1 for (q, _a), q2 in m.delta.items()
                 if q2 in dist and q not in dist}
        if not grown:
            break
        dist.update(grown)
    letters = sorted(m.input_alphabet)
    q, w = m.initial, []
    for _ in range(rng.randint(lo, hi)):
        live = [a for a in letters if m.delta.get((q, a)) in dist]
        stay = [a for a in live if m.delta[(q, a)] == q]
        a = rng.choice(stay if stay and rng.random() < 0.9 else live)
        q = m.delta[(q, a)]
        w.append(a)
    while dist[q]:
        a = min(letters, key=lambda a: dist.get(m.delta.get((q, a)), math.inf))
        q = m.delta[(q, a)]
        w.append(a)
    return w


@pytest.mark.parametrize("name", POLYNOMIAL)
def test_copyless_layers_are_built_only_where_needed(name, monkeypatch):
    source = load(name)
    if isinstance(source, TwoWayTransducer):
        source = two_way_to_marble(source)
    sst = marble_to_sst(source) if isinstance(source, MarbleTransducer) else source
    seen = {"bounded": [], "determinize_nsstf": 0}

    def bounded_layer(m, partition, _original=layering.remove_bounded_layer):
        bounded = _original(m, partition)
        seen["bounded"].append(bounded)
        return bounded

    def determinize(m, _original=layering.determinize_nsstf):
        seen["determinize_nsstf"] += 1
        return _original(m)

    monkeypatch.setattr(layering, "remove_bounded_layer", bounded_layer)
    monkeypatch.setattr(layering, "determinize_nsstf", determinize)
    res = to_k_layered(sst)
    assert res.kind == "layered"
    bounded, layers = seen["bounded"][0]
    needed = check_layered(bounded, layers) != []
    assert needed == (name in DETERMINIZED)
    assert (seen["determinize_nsstf"] > 0) == needed
    if not needed:
        assert len(seen["bounded"]) == 1
    assert check_layered(res.machine, res.layers) == []
    assert res.k == max(res.report.degree - 1, 0)

    walker = layered_to_marble(res.machine, res.layers)
    rng = random.Random(name)
    for _ in range(3):
        w = domain_word(res.machine, rng, 100, 150)
        want = (run_sst(source, w) if isinstance(source, SST)
                else run_marble(source, w, budget=10 ** 8))
        assert want.accepted, (name, len(w))
        assert run_sst(res.machine, w).output == want.output, (name, len(w))
        got = run_marble(walker, w, budget=10 ** 8)
        assert got.output == want.output, (name, len(w))
        assert got.max_stack_depth <= res.k, (name, len(w))


@pytest.mark.parametrize("name", POLYNOMIAL)
def test_bounded_layers_hold_one_register_per_source_register(name, monkeypatch):
    # register x at every state shares one register per layer, so no layer
    # of any bounded machine the pipeline builds, value machines included,
    # outgrows the register set of the total machine it came from
    source = load(name)
    if isinstance(source, TwoWayTransducer):
        source = two_way_to_marble(source)
    sst = marble_to_sst(source) if isinstance(source, MarbleTransducer) else source
    calls = []

    def bounded_layer(m, partition, _original=layering.remove_bounded_layer):
        machine, layers = _original(m, partition)
        calls.append((m, machine, layers))
        return machine, layers

    monkeypatch.setattr(layering, "remove_bounded_layer", bounded_layer)
    assert to_k_layered(sst).kind == "layered"
    assert calls
    for total, machine, layers in calls:
        assert all(len(layer) <= len(total.registers) for layer in layers), name
        assert sorted(machine.registers) == sorted(x for layer in layers for x in layer)


def test_pool_member_29_is_layered_and_correct(monkeypatch):
    # the parent's copy-per-state bounded machine made this member's
    # determinization exceed DETERMINIZATION_SIZE_LIMIT
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), ".."))
    from perfbench.gen import pool_machine

    m = pool_machine("opt_sst", 29)
    res = to_k_layered(m)
    assert res.kind == "layered"
    assert check_layered(res.machine, res.layers) == []
    assert res.k == res.report.degree - 1
    assert equiv_check(res.machine, m, 6).equivalent
    rng = random.Random(29)
    for _ in range(20):
        w = "".join(rng.choices(m.input_alphabet, k=rng.randint(20, 200)))
        assert run_sst(res.machine, w).output == run_sst(m, w).output, w
