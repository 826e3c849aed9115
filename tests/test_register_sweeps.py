"""Register sweeps against the one-letter-at-a-time reference.

An untraced ``run_sst`` applies a run of letters that loop on their state,
and only grow registers at one end, reset them or keep them, in one step
(``semantics._sweep``).  The runs here compare the whole untraced
``RunResult`` with ``conftest.reference_sst_run``, which applies each
substitution on its own letter with ``subst_apply``, and the traced run,
which steps singly, with both; two tests check which letters sweep and
when the sweeps are built.
"""

import random
from dataclasses import replace

import pytest

from xducer import semantics
from xducer.layering import to_k_layered
from xducer.machines import Fun, FunctionRegistry, Lit, Reg, SST
from xducer.semantics import ACCEPT, REJECT, SHARE_MIN, run_sst, run_sstf, sst_outputs

from conftest import load, reference_sst_run

LETTERS = ("a", "b", "c")
CONSTANTS = ((), ("a",), ("b", "a"))
# Longest total of the register lengths a random run may reach.
LENGTH_CAP = 3000


@pytest.fixture
def sweeps(monkeypatch):
    """The letters of every sweep taken, in order, each run as a tuple (the
    run of a ``str`` word is a slice of it)."""
    taken = []
    sweep = semantics._sweep

    def counted(entry, val, run):
        taken.append(tuple(run))
        return sweep(entry, val, run)
    monkeypatch.setattr(semantics, "_sweep", counted)
    return taken


def assert_matches_reference(m, w, registry=None):
    """The untraced run equals the reference, and so does the traced one
    but for its trace, which has one line per letter read."""
    want = reference_sst_run(m, w, registry)
    got = run_sst(m, w, registry)
    assert got == want, (w, got, want)
    traced = run_sst(m, w, registry, trace=True)
    assert traced.verdict == want.verdict and traced.output == want.output
    assert traced.steps == want.steps and len(traced.trace) == want.steps + 1
    return got


def random_rhs(rng, x, regs):
    """x's right-hand side: kept, grown at one end (possibly by another
    register), reset to one of ``CONSTANTS``, a copy of a register, doubled
    or grown in the middle."""
    u = [Lit(rng.choice("ab")) for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.3:
        u.insert(rng.randint(0, len(u)), Reg(rng.choice(regs)))
    kind = rng.choices(("keep", "append", "prepend", "reset", "copy", "double", "middle"),
                       weights=(4, 4, 3, 2, 1, 0.3, 0.5))[0]
    if kind == "keep":
        return (Reg(x),)
    if kind == "append":
        return (Reg(x), *u)
    if kind == "prepend":
        return (*u, Reg(x))
    if kind == "reset":
        return tuple(map(Lit, rng.choice(CONSTANTS)))
    if kind == "copy":
        return (Reg(rng.choice(regs)),)
    if kind == "double":
        return (Reg(x), Reg(x))
    return (*u[:1], Reg(x), *u[1:], Lit("b"))


def random_sweeper(rng) -> SST:
    """A partial SST over ``LETTERS`` whose transitions mostly loop."""
    states = tuple("q%d" % i for i in range(rng.randint(1, 3)))
    regs = tuple("r%d" % i for i in range(rng.randint(1, 4)))
    delta, update = {}, {}
    for q in states:
        for a in LETTERS:
            if rng.random() < 0.1:
                continue
            delta[(q, a)] = q if rng.random() < 0.75 else rng.choice(states)
            update[(q, a)] = {x: random_rhs(rng, x, regs) for x in regs}
    output = {q: tuple(Reg(rng.choice(regs)) if rng.random() < 0.8 else Lit("b")
                       for _ in range(rng.randint(1, 3)))
              for q in states if rng.random() < 0.85}
    init = {x: tuple(rng.choice("ab") for _ in range(rng.choice((0, 1, 2, 30))))
            for x in regs}
    return SST(LETTERS, ("a", "b"), states, regs, states[0], init,
               delta, update, output)


def blocky_word(rng, n):
    """n letters in blocks of 1-8 equal letters."""
    w = ""
    while len(w) < n:
        w += rng.choice(LETTERS) * rng.randint(1, 8)
    return w[:n]


def affordable(m, w):
    """The longest prefix of ``w`` whose run keeps the register lengths
    within ``LENGTH_CAP``."""
    lens = {x: len(m.init_valuation[x]) for x in m.registers}
    q = m.initial
    for i, a in enumerate(w):
        if (q, a) not in m.delta:
            return w
        lens = {x: sum(lens[t.name] if type(t) is Reg else 1 for t in rhs)
                for x, rhs in m.update[(q, a)].items()}
        if sum(lens.values()) > LENGTH_CAP:
            return w[:i]
        q = m.delta[(q, a)]
    return w


def test_random_register_sweeps_match_the_reference(sweeps):
    rng = random.Random(16)
    verdicts = set()
    # kinds of register in the sweeps built: frozen, reset, grown right or
    # left, and increments that read a frozen register
    kinds = set()
    for trial in range(300):
        m = random_sweeper(rng)
        for n in (0, 1, 2, 5, 12, 25, 40):
            w = affordable(m, blocky_word(rng, n))
            verdicts.add(assert_matches_reference(m, w).verdict)
        for entry in semantics._sweeps(m)[1].values():
            _cls, _match, prog, incs, lefts = entry
            kinds.update("frozen" if type(p) is int else "grown" if type(p) is list
                         else "reset" for p in prog)
            kinds.update("left" if left else "right" for left in lefts)
            if any(type(p) is int for progs in incs.values() for inc in progs for p in inc):
                kinds.add("reads a frozen register")
    assert verdicts == {ACCEPT, REJECT}
    assert kinds == {"frozen", "reset", "grown", "left", "right", "reads a frozen register"}
    assert len(sweeps) >= 1000 and max(map(len, sweeps)) >= 8


def test_class_letters_follow_the_kinds_of_their_registers():
    x, y = Reg("x"), Reg("y")
    cases = (
        # (updates of a, b, c, d on the state's self-loops, the class)
        ({"x": (x, Lit("a")), "y": (y,)}, {"x": (x, Lit("b")), "y": (x, y)},
         {"x": (x,), "y": ()}, {"x": (Lit("d"), x), "y": (y,)}, "a"),
        ({"x": (x,), "y": (x, y)}, {"x": (x,), "y": (y, Lit("b"))},
         {"x": (x,), "y": (y,)}, {"x": (x,), "y": (x, y, x)}, "ac"),
        ({"x": (), "y": (Lit("a"), y)}, {"x": (), "y": (y,)},
         {"x": (Lit("c"),), "y": (y,)}, {"x": (x,), "y": (y,)}, "ab"),
        ({"x": (y,), "y": (y,)}, {"x": (x, x), "y": (y,)},
         {"x": (Lit("c"), x, Lit("c")), "y": (y,)}, {"x": (x, Fun("f")), "y": (y,)}, ""),
    )
    for *updates, cls in cases:
        m = SST(("a", "b", "c", "d"), ("a", "b", "c", "d"), ("q",), ("x", "y"), "q",
                {"x": ("a",), "y": ()}, {("q", a): "q" for a in "abcd"},
                dict(zip((("q", a) for a in "abcd"), updates)), {"q": (x, y)},
                funs=("f",))
        entries = semantics._sweeps(m)[1]
        assert (entries["q"][0] if entries else frozenset()) == set(cls), cls


def test_reject_right_after_a_sweep_and_undefined_output(sweeps):
    x = Reg("x")
    # q appends on a and prepends on b, so its class is {a}; p sweeps a's
    # but has no output
    m = SST(("a", "b", "c"), ("a", "b"), ("q", "p"), ("x",), "q", {"x": ()},
            {("q", "a"): "q", ("q", "b"): "q", ("q", "c"): "p", ("p", "a"): "p"},
            {("q", "a"): {"x": (x, Lit("a"))}, ("q", "b"): {"x": (Lit("b"), x)},
             ("q", "c"): {"x": (x,)}, ("p", "a"): {"x": (x, Lit("b"))}},
            {"q": (x,)})
    r = assert_matches_reference(m, "aaaa" + "b" + "aa")
    assert r.output_text == "baaaaaa" and sweeps == [("a",) * 4, ("a",) * 2]
    r = assert_matches_reference(m, "aaa" + "c" + "aaaa")
    assert (r.verdict, r.steps) == (REJECT, 8) and len(sweeps) == 4
    # rejects on the letter right after a sweep: p has no move on b, and
    # neither has q once its only move is on a
    assert assert_matches_reference(m, "aaaa" + "c" + "aa" + "b").steps == 7
    r = assert_matches_reference(replace(m, delta={("q", "a"): "q"},
                                         update={("q", "a"): m.update[("q", "a")]}),
                                 "aaaa" + "b" + "aa")
    assert (r.verdict, r.steps) == (REJECT, 4) and sweeps[-1] == ("a",) * 4


def test_sweeps_of_one_and_two_letters(sweeps):
    # the class of q is {a}; b doubles x, so it steps singly
    x = Reg("x")
    m = SST(("a", "b"), ("a", "b"), ("q",), ("x",), "q", {"x": ("b",)},
            {("q", "a"): "q", ("q", "b"): "q"},
            {("q", "a"): {"x": (Lit("a"), x)}, ("q", "b"): {"x": (x, x)}},
            {"q": (x,)})
    assert_matches_reference(m, "ba" + "b" + "aa" + "b" + "a")
    assert sweeps == [("a", "a")]
    del sweeps[:]
    assert_matches_reference(m, "a")
    assert_matches_reference(m, "aa")
    assert_matches_reference(m, "")
    assert sweeps == [("a", "a")]


def test_values_cross_share_min_inside_a_sweep(sweeps):
    x, y, z = Reg("x"), Reg("y"), Reg("z")
    near = SHARE_MIN - 2
    # r: x grows right from two letters below SHARE_MIN; in c, y gains x·a
    # on its left and z gains x on its right per 0, x frozen
    m = SST(("a", "b", "#", "0"), ("a", "b"), ("r", "c"), ("x", "y", "z"), "r",
            {"x": ("a",) * near, "y": (), "z": ("b",)},
            {("r", "a"): "r", ("r", "b"): "r", ("r", "#"): "c", ("c", "0"): "c"},
            {("r", "a"): {"x": (x, Lit("a")), "y": (y,), "z": (z,)},
             ("r", "b"): {"x": (x, Lit("b")), "y": (y,), "z": (z,)},
             ("r", "#"): {"x": (x,), "y": (y,), "z": (z,)},
             ("c", "0"): {"x": (x,), "y": (x, Lit("a"), y), "z": (z, x)}},
            {"c": (y, z)})
    for k in (1, 2, 3, 20):
        for zeros in (2, 3, 40):
            w = "ab" * k + "#" + "0" * zeros
            r = assert_matches_reference(m, w)
            assert len(r.output) == zeros * (2 * (near + 2 * k) + 1) + 1
    assert ("a", "b", "a", "b") in sweeps and ("0",) * 40 in sweeps


def test_output_symbols_of_several_characters(sweeps):
    x = Reg("x")
    m = SST(("a", "b"), ("xy", "z", "a"), ("q",), ("x", "y"), "q",
            {"x": ("xy",), "y": ()}, {("q", "a"): "q", ("q", "b"): "q"},
            {("q", "a"): {"x": (x, Lit("xy")), "y": (Lit("z"), Lit("xy"), Reg("y"))},
             ("q", "b"): {"x": (x, Lit("z"), Lit("a")), "y": (Reg("y"),)}},
            {"q": (x, Lit("a"), Reg("y"))})
    r = assert_matches_reference(m, "aab" * 20)
    assert r.output.count("xy") == 1 + 40 + 40 and sweeps == [tuple("aab" * 20)]


def test_sstf_runs_step_singly(sweeps):
    x = Reg("x")
    m = SST(("a", "b"), ("a", "b"), ("q",), ("x",), "q", {"x": ()},
            {("q", "a"): "q", ("q", "b"): "q"},
            {("q", "a"): {"x": (x, Fun("f"))}, ("q", "b"): {"x": (Fun("f"), x, Lit("b"))}},
            {"q": (x,)}, funs=("f",))
    registry = FunctionRegistry({"f": lambda u: tuple(u[-3:])})
    for w in ("", "a", "ab" * 10, "a" * 30 + "b" * 10):
        want = reference_sst_run(m, w, registry)
        assert run_sstf(m, w, registry) == want
        assert_matches_reference(m, w, registry)
    assert sweeps == []


def blocks(rng, letters, n):
    """About n letters in blocks of 1-30 equal letters."""
    return "".join(a * rng.randint(1, 30) for a in rng.choices(letters, k=n // 15))


def test_corpus_and_optimized_machines_on_long_words(sweeps):
    rng = random.Random(2000)
    machines = [load(name) for name in (
        "identity_sst", "reverse_sst", "reverse_sst_copyful", "bounded_pair_sst")]
    mul = [load("mul_sst"), load("mul_sst_copyful"),
           to_k_layered(load("mul_sst_copyful")).machine]
    for m in machines:
        assert_matches_reference(m, blocks(rng, m.input_alphabet, 2000))
    for m in mul:
        for u in ("".join(rng.choices("ab", k=31)), blocks(rng, "ab", 200)):
            for n in (1, 2, 60):
                assert_matches_reference(m, u + "#" + "0" * n)
        assert_matches_reference(m, blocks(rng, m.input_alphabet, 2000))
    assert len(sweeps) >= 20
    exp = load("exp_sst")
    for n in range(12):
        assert_matches_reference(exp, "a" * n)


def test_sweeps_are_built_by_untraced_runs_only():
    m = load("identity_sst")
    list(sst_outputs(m, 4))
    run_sst(m, "abab", trace=True)
    assert "_programs" in m.__dict__ and "_sweeps" not in m.__dict__
    run_sst(m, "abab")
    assert "_sweeps" in m.__dict__


def test_runs_of_letters_in_a_word_sweep_as_they_come(sweeps):
    w = "abba" * 5 + "#" + "0" * 7
    assert_matches_reference(load("mul_sst"), w)
    assert sweeps == [tuple("abba" * 5), ("0",) * 7]
