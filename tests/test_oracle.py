import pytest

from xducer import corpus
from xducer.machines import MachineError
from xducer.oracle import (
    brute_pattern_search,
    equiv_check,
    words_up_to,
)


def test_words_up_to_order_and_cap():
    words = list(words_up_to(("b", "a"), 2))
    assert words == [(), ("a",), ("b",), ("a", "a"), ("a", "b"),
                     ("b", "a"), ("b", "b")]
    with pytest.raises(MachineError):
        list(words_up_to(("a", "b"), 20, cap=100))


def test_equiv_exp_sst_vs_marble():
    assert equiv_check(corpus.exp_sst(), corpus.exp_marble(), 5).equivalent


def test_equiv_counterexample_is_length_lex_least():
    verdict = equiv_check(corpus.reverse_sst(("a", "b")),
                          corpus.identity_sst(("a", "b")), 2)
    assert verdict.status == "counterexample"
    word, first, second = verdict.counterexample
    assert word == ("a", "b")
    assert first == ("b", "a") and second == ("a", "b")


def test_equiv_reflexive():
    m = corpus.mul_marble()
    assert equiv_check(m, m, 4).equivalent


def test_equiv_symmetric_up_to_orientation():
    a = corpus.reverse_sst(("a", "b"))
    b = corpus.identity_sst(("a", "b"))
    v1 = equiv_check(a, b, 3)
    v2 = equiv_check(b, a, 3)
    assert v1.counterexample[0] == v2.counterexample[0]
    assert v1.counterexample[1:] == v2.counterexample[:0:-1]


def test_equiv_alphabet_mismatch():
    with pytest.raises(MachineError):
        equiv_check(corpus.exp_sst(), corpus.mul_sst(), 3)


def test_equiv_inconclusive_on_budget():
    verdict = equiv_check(corpus.exp_marble(), corpus.exp_marble(), 4, budget=5)
    assert verdict.status == "inconclusive"
    assert verdict.inconclusive_word is not None


def test_brute_pattern_search_exp():
    found = brute_pattern_search(corpus.exp_flow_nautomaton(), 1)
    assert found.heavy_cycles == (("x", ("a",)),)


def test_brute_pattern_search_chain():
    found = brute_pattern_search(corpus.chain_nautomaton(), 3)
    assert found.heavy_cycles == ()
    assert [(q, q2, "".join(v)) for q, q2, v in found.barbells] == [
        ("x", "y", "a"), ("x", "y", "aa"), ("x", "y", "aaa")]


def test_brute_pattern_search_identity():
    from xducer.machines import NAutomaton

    ident = NAutomaton(("a",), ("x",), {"x": 1}, {"x": 1},
                       {"a": {("x", "x"): 1}})
    found = brute_pattern_search(ident, 4)
    assert found.heavy_cycles == () and found.barbells == ()
