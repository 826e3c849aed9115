"""Shared register values against a flat evaluator that copies every register.

``run_sst`` keeps a register value longer than ``SHARE_MIN`` as a node that
references the values it was built from.  These tests run seeded random SSTs
(copyless and copyful, with ``x := x·x``), SST-Fs and long words through it
and through the token loop below, which builds every value as a flat tuple.
"""

import random
import time
import tracemalloc
from dataclasses import replace

import pytest

from xducer import semantics
from xducer.cli import main
from xducer.layering import to_k_layered
from xducer.machines import Fun, FunctionRegistry, Lit, MachineError, Reg, SST
from xducer.semantics import ACCEPT, REJECT, SHARE_MIN, run_sst, run_sstf, sst_outputs

from conftest import corpus_path, load

LETTERS = ("a", "b", "c")
# Longest total of the register lengths a seeded run may reach; the flat
# evaluator copies that many letters per step.
LENGTH_CAP = 4000


def flat_rhs(rhs, val, prefix, registry):
    out = []
    for tok in rhs:
        if isinstance(tok, Lit):
            out.append(tok.sym)
        elif isinstance(tok, Reg):
            out.extend(val[tok.name])
        else:
            out.extend(registry[tok.name](prefix))
    return tuple(out)


def flat_valuation(m, w, registry=None):
    """Valuation after ``w`` with every value copied, or None off the domain."""
    val = {x: tuple(m.init_valuation[x]) for x in m.registers}
    q = m.initial
    for i, a in enumerate(w):
        if (q, a) not in m.delta:
            return None, None
        val = {x: flat_rhs(rhs, val, tuple(w[:i + 1]), registry)
               for x, rhs in m.update[(q, a)].items()}
        q = m.delta[(q, a)]
    return q, val


def flat_run(m, w, registry=None):
    q, val = flat_valuation(m, w, registry)
    if q is None or q not in m.output:
        return None
    return flat_rhs(m.output[q], val, None, None)


def random_sst(rng, copyful, funs=()):
    """A total SST over ``LETTERS``.  A copyless update moves each register
    into at most one right-hand side; a copyful one, on ``c`` only, draws
    its registers with repetition and doubles the first, ``x := x·x``.
    Fun tokens, if any, go anywhere."""
    states = tuple("q%d" % i for i in range(rng.randint(1, 3)))
    regs = tuple("r%d" % i for i in range(rng.randint(1, 4)))
    delta, update = {}, {}
    for q in states:
        for a in LETTERS:
            delta[(q, a)] = rng.choice(states)
            copy = copyful and a == "c"
            rhs = {x: [Lit(rng.choice("ab")) for _ in range(rng.randint(0, 2))]
                   for x in regs}
            if copy:
                sources = rng.choices(regs, k=rng.randint(1, 2 * len(regs)))
            else:
                sources = [y for y in regs if rng.random() < 0.97]
            tokens = [Reg(y) for y in sources]
            tokens += [Fun(rng.choice(funs)) for _ in funs if rng.random() < 0.3]
            for tok in tokens:
                target = rhs[rng.choice(regs)]
                target.insert(rng.randint(0, len(target)), tok)
            if copy:
                rhs[regs[0]] = [Reg(regs[0]), Reg(regs[0])]
            update[(q, a)] = {x: tuple(toks) for x, toks in rhs.items()}
    output = {q: tuple(Reg(rng.choice(regs)) if rng.random() < 0.8
                       else Lit("b") for _ in range(rng.randint(1, 3)))
              for q in states if rng.random() < 0.9}
    init = {x: tuple(rng.choice("ab") for _ in range(rng.choice((0, 1, 2, 40))))
            for x in regs}
    return SST(LETTERS, ("a", "b"), states, regs, states[0], init,
               delta, update, output, funs=funs)


def affordable(m, w, fun_len=0):
    """The longest prefix of ``w`` whose run keeps the register lengths in
    ``LENGTH_CAP`` (Fun values counted as ``fun_len`` letters)."""
    lens = {x: len(m.init_valuation[x]) for x in m.registers}
    q = m.initial
    for i, a in enumerate(w):
        lens = {x: sum(1 if isinstance(t, Lit) else
                       lens[t.name] if isinstance(t, Reg) else fun_len
                       for t in rhs)
                for x, rhs in m.update[(q, a)].items()}
        if sum(lens.values()) > LENGTH_CAP:
            return w[:i]
        q = m.delta[(q, a)]
    return w


def random_word(rng, n):
    return "".join(rng.choices(LETTERS, weights=(10, 10, 1), k=n))


def test_random_ssts_match_the_flat_evaluator():
    rng = random.Random(8)
    long_runs = shared = 0
    for trial in range(36):
        m = random_sst(rng, copyful=trial % 2 == 1)
        for n in (0, 1, SHARE_MIN + 1, rng.randint(100, 3000)):
            w = affordable(m, random_word(rng, n))
            res = run_sst(m, w)
            expected = flat_run(m, w)
            assert res.output == expected, (trial, len(w))
            assert res.verdict == (REJECT if expected is None else ACCEPT)
            if expected is not None:
                assert type(res.output) is tuple
                shared += len(expected) > SHARE_MIN
            long_runs += len(w) >= 1000
    assert long_runs >= 10 and shared >= 20


def test_doubling_shares_one_value():
    # x := x·x on every letter; the output is 2^14 letters long
    r = run_sst(load("exp_sst"), "a" * 14)
    assert r.output == ("a",) * 2 ** 14
    for m, w in ((load("mul_sst_copyful"), "ab" * 20 + "#" + "0" * 300),
                 (load("reverse_sst_copyful"), "abc" * 900)):
        assert run_sst(m, w).output == flat_run(m, w)


def test_output_length_is_limited_before_flattening(monkeypatch, capsys):
    # 2^40 letters would exhaust memory; the length is counted on the
    # shared value, so the run is refused at once
    start = time.process_time()
    with pytest.raises(MachineError, match=r"^register output exceeded %d letters "
                       r"\(it has %d\)$" % (semantics.OUTPUT_LETTER_LIMIT, 2 ** 40)):
        run_sst(load("exp_sst"), "a" * 40)
    assert time.process_time() - start < 1
    assert main(["run", corpus_path("exp_sst"), "a" * 40]) == 1
    assert "register output exceeded" in capsys.readouterr().err
    # the count is exact: doubled, swept and reversed values reach the
    # limit and pass, and one letter more is refused
    w = "ab" * 1000
    for m, word, n in ((load("exp_sst"), "a" * 10, 2 ** 10),
                       (load("identity_sst"), w, len(w)),
                       (load("reverse_sst", ("a", "b")), w, len(w))):
        monkeypatch.setattr(semantics, "OUTPUT_LETTER_LIMIT", n)
        assert len(run_sst(m, word).output) == n
        monkeypatch.setattr(semantics, "OUTPUT_LETTER_LIMIT", n - 1)
        with pytest.raises(MachineError):
            run_sst(m, word)


def test_flattening_holds_at_most_the_limit_before_the_refusal(monkeypatch):
    """The walk counts letters as it writes them and refuses before a span
    copy, an extend or a node would pass the limit, so a refused output of
    2^20 letters never holds more than the limit's pointers: 8 bytes each,
    and list growth."""
    limit = 100000
    monkeypatch.setattr(semantics, "OUTPUT_LETTER_LIMIT", limit)
    tracemalloc.start()
    try:
        with pytest.raises(MachineError, match=r"\(it has %d\)$" % 2 ** 20):
            run_sst(load("exp_sst"), "a" * 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * limit


def test_output_limit_is_exact_with_empty_pieces(monkeypatch):
    """An output y·x·y with y empty and x a node: the empty pieces write no
    letter and count for none, in a run and in the walk of ``equiv``, whose
    last step reads the output through the update."""
    m = load("identity_sst", ("a",))
    m = replace(m, registers=("x", "y"), init_valuation={"x": (), "y": ()},
                update={key: {**rhs, "y": (Reg("y"),)} for key, rhs in m.update.items()},
                output={"q": (Reg("y"), Reg("x"), Reg("y"))})
    w = "a" * 100
    monkeypatch.setattr(semantics, "OUTPUT_LETTER_LIMIT", len(w))
    assert run_sst(m, w).output == tuple(w)
    assert list(sst_outputs(m, 100))[-1] == tuple(w)
    monkeypatch.setattr(semantics, "OUTPUT_LETTER_LIMIT", len(w) - 1)
    for run in (lambda: run_sst(m, w), lambda: list(sst_outputs(m, 100))):
        with pytest.raises(MachineError, match=r"\(it has 100\)$"):
            run()


def test_random_sstfs_match_the_flat_evaluator():
    rng = random.Random(18)
    # "f" is longer than SHARE_MIN once the prefix is, "g" always shorter
    entries = {"f": lambda u: tuple(u[-40:]), "g": lambda u: tuple(reversed(u[-3:]))}
    registry = FunctionRegistry(dict(entries))
    for trial in range(12):
        m = random_sst(rng, copyful=trial % 2 == 1, funs=("f", "g"))
        w = affordable(m, random_word(rng, rng.randint(200, 3000)), fun_len=40)
        assert run_sstf(m, w, registry).output == flat_run(m, w, entries), trial


def test_register_values_match_the_flat_evaluator(register_values):
    rng = random.Random(28)
    for trial in range(10):
        m = random_sst(rng, copyful=trial % 2 == 1)
        w = affordable(m, random_word(rng, rng.randint(50, 1500)))
        assert register_values(m, w) == flat_valuation(m, w)[1], trial


def test_doubled_empty_value_returns_at_once():
    x, y = Reg("x"), Reg("y")
    m = SST(("a",), ("a",), ("q",), ("x", "y"), "q", {"x": (), "y": ()},
            {("q", "a"): "q"},
            {("q", "a"): {"x": (x, x), "y": (x, y, Lit("a"), x)}},
            {"q": (x, y, x)})
    assert run_sst(m, "a" * 400).output == ("a",) * 400
    assert run_sst(replace(m, output={"q": (x,)}), "a" * 400).output == ()


def test_long_runs_do_not_recurse():
    w = "ab" * 50000
    assert run_sst(load("identity_sst"), w).output_text == w
    assert run_sst(load("reverse_sst", ("a", "b")), w).output_text == w[::-1]


def test_random_layered_ssts_match_the_flat_evaluator():
    """The register programs of layered pipeline outputs (random copyless
    SSTs, and the copyful corpus machines with one copy layer), on words
    long enough that their values are shared nodes."""
    rng = random.Random(38)
    machines = [random_sst(rng, copyful=False) for _ in range(12)]
    machines += [load("mul_sst"), load("mul_sst_copyful"), load("bounded_pair_sst")]
    shared = 0
    for trial, source in enumerate(machines):
        res = to_k_layered(source)
        assert res.kind == "layered", trial
        m = res.machine
        for n in (0, 5, SHARE_MIN + 3, rng.randint(100, 1500)):
            w = affordable(m, "".join(rng.choices(m.input_alphabet, k=n)))
            got, expected = run_sst(m, w).output, flat_run(m, w)
            assert got == expected, (trial, len(w))
            shared += expected is not None and len(expected) > SHARE_MIN
    assert shared >= 12
