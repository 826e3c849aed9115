import random

import pytest

from xducer.growth import (
    GrowthReport,
    barbell_graph,
    classify,
    classify_function,
    find_barbell,
    flow_automaton,
    has_heavy_cycle,
    heights,
    trim,
    witness_word,
)
from xducer.layering import make_total, to_simple
from xducer.machines import (
    Lit,
    MachineError,
    MarbleTransducer,
    NAutomaton,
    Reg,
    SST,
    TwoWayTransducer,
)
from xducer.mt2sst import marble_to_sst, two_way_to_marble
from xducer.oracle import brute_degree, brute_pattern_search
from xducer.semantics import eval_nautomaton

from conftest import load


def nauto(states, alphabet, alpha, beta, mats):
    return NAutomaton(tuple(alphabet), tuple(states), alpha, beta, mats)


IDENTITY2 = nauto(
    ("x", "y"), ("a",), {"x": 1, "y": 1}, {"x": 1, "y": 1},
    {"a": {("x", "x"): 1, ("y", "y"): 1}},
)


def test_trim_removes_unreachable_state():
    a = nauto(
        ("x", "dead"), ("a",), {"x": 1}, {"x": 1},
        {"a": {("x", "x"): 1, ("dead", "dead"): 1}},
    )
    t = trim(a)
    assert t.states == ("x",)
    for w in ("", "a", "aa", "aaa", "aaaa", "aaaaa"):
        assert eval_nautomaton(t, w) == eval_nautomaton(a, w)


def test_trim_is_idempotent():
    t = trim(load("chain_flow"))
    assert t == trim(t)


def test_flow_automaton_of_never_output_register():
    m = load("mul_sst_copyful")
    total, _ = make_total(m)
    simple = to_simple(total)
    flow = flow_automaton(simple)
    t = trim(flow)
    junk = [q for q in flow.states if q.endswith(".z")]
    assert junk and all(q not in t.states for q in junk)


def test_flow_automaton_exp():
    flow = flow_automaton(load("exp_sst"))
    assert flow.alpha == {"x": 1}
    assert flow.beta == {"x": 1}
    assert flow.mats["a"] == {("x", "x"): 2}


def test_flow_requires_simple():
    with pytest.raises(MachineError):
        flow_automaton(load("mul_sst"))


def test_flow_zero_machine():
    m = load("reverse_sst")
    zero = type(m)(
        input_alphabet=m.input_alphabet, output_alphabet=m.output_alphabet,
        states=m.states, registers=m.registers, initial=m.initial,
        init_valuation={"x": ()},
        delta=m.delta,
        update={k: {"x": ()} for k in m.update},
        output={"q": ()},
    )
    flow = flow_automaton(zero)
    assert flow.alpha == {} and flow.beta == {}
    assert eval_nautomaton(flow, "aa") == 0


def test_heavy_cycle_witnesses():
    assert has_heavy_cycle(load("exp_flow")) == ("x", ("a",))
    assert has_heavy_cycle(load("chain_flow")) is None
    assert has_heavy_cycle(IDENTITY2) is None


def test_heavy_cycle_from_ambiguity_without_weights():
    # two distinct same-label loops through x, all weights 0/1
    a = nauto(
        ("x", "y"), ("a", "b"), {"x": 1}, {"x": 1},
        {"a": {("x", "x"): 1, ("x", "y"): 1},
         "b": {("x", "x"): 1, ("y", "x"): 1}},
    )
    hit = has_heavy_cycle(a)
    assert hit is not None
    q, v = hit
    mat = {("x", "x"): 1}
    mats = {"a": a.mats["a"], "b": a.mats["b"]}
    # verify the witness by brute multiplication
    cur = {(p, p): 1 for p in a.states}
    for letter in v:
        nxt = {}
        for (p, q1), w1 in cur.items():
            for (q2, r), w2 in mats[letter].items():
                if q1 == q2:
                    nxt[(p, r)] = nxt.get((p, r), 0) + w1 * w2
        cur = nxt
    assert cur.get((q, q), 0) >= 2


def test_find_barbell():
    assert find_barbell(load("chain_flow"), "x", "y") == ("a",)
    assert find_barbell(load("chain_flow"), "y", "x") is None
    assert find_barbell(IDENTITY2, "x", "y") is None
    with pytest.raises(MachineError):
        find_barbell(IDENTITY2, "x", "x")


def test_no_barbells_in_copyless_reverse_flow():
    total, _ = make_total(load("reverse_sst"))
    flow = trim(flow_automaton(to_simple(total)))
    found = brute_pattern_search(flow, 6)
    for q in flow.states:
        for q2 in flow.states:
            if q == q2:
                continue
            mine = find_barbell(flow, q, q2)
            brute = [(a, b) for a, b, _v in found.barbells]
            assert (mine is not None) == ((q, q2) in brute)
    # the mirror register is write-only from the constants: no barbell pair
    # between distinct non-constant registers
    assert all(find_barbell(flow, q, q2) is None
               for q in flow.states for q2 in flow.states
               if q != q2 and q.endswith(".x") and q2.endswith(".x"))


def test_barbell_graph_and_heights():
    g = barbell_graph(load("chain_flow"))
    assert set(g.edges) == {("x", "y")}
    assert heights(g) == {"x": 0, "y": 1}


def test_barbell_graph_chain_family():
    k = 3
    states = tuple("s%d" % i for i in range(k + 1))
    mat = {}
    for i in range(k + 1):
        mat[(states[i], states[i])] = 1
        if i < k:
            mat[(states[i], states[i + 1])] = 1
    a = nauto(states, ("a",), {states[0]: 1}, {states[-1]: 1}, {"a": mat})
    g = barbell_graph(a)
    h = heights(g)
    assert max(h.values()) == k


def test_barbell_graph_edgeless():
    g = barbell_graph(IDENTITY2)
    assert g.edges == {}


def test_classify_searches_heavy_cycles_once(monkeypatch):
    import xducer.growth as growth

    calls = []
    original = growth.has_heavy_cycle

    def counting(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(growth, "has_heavy_cycle", counting)
    for a in (load("chain_flow"), load("exp_flow")):
        calls.clear()
        classify(a)
        assert len(calls) == 1


def test_classify_exponential_with_pumping():
    rep = classify(load("exp_flow"))
    assert rep.kind == "exponential"
    for pumps in range(1, 6):
        w = witness_word(rep, pumps)
        assert eval_nautomaton(load("exp_flow"), w) >= 2 ** pumps


def test_classify_chain_degree_one():
    rep = classify(load("chain_flow"))
    assert rep.kind == "polynomial" and rep.degree == 1
    assert rep.partition == (("x",), ("y",))
    for pumps in range(1, 5):
        w = witness_word(rep, pumps)
        assert eval_nautomaton(load("chain_flow"), w) >= pumps


def test_classify_single_state_bounded():
    a = nauto(("x",), ("a",), {"x": 1}, {"x": 1}, {"a": {("x", "x"): 1}})
    rep = classify(a)
    assert rep.kind == "polynomial" and rep.degree == 0
    assert witness_word(rep, 3) == ()


def test_classify_empty_after_trim():
    a = nauto(("x",), ("a",), {}, {"x": 1}, {"a": {("x", "x"): 1}})
    rep = classify(a)
    assert rep.kind == "polynomial" and rep.degree == 0
    assert rep.partition == () and rep.trim_removed == ("x",)


def random_automata(count, seed=99):
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        n = rng.randint(1, 3)
        states = tuple("q%d" % i for i in range(n))
        letters = ("a", "b")[: rng.randint(1, 2)]
        mats = {}
        for a in letters:
            mat = {}
            for p in states:
                for q in states:
                    w = rng.choice([0, 0, 0, 1, 1, 2])
                    if w:
                        mat[(p, q)] = w
            mats[a] = mat
        alpha = {q: rng.choice([0, 1]) for q in states}
        beta = {q: rng.choice([0, 1]) for q in states}
        t = trim(NAutomaton(letters, states, alpha, beta, mats))
        if not t.states:
            continue
        produced += 1
        yield t


def test_pattern_detectors_agree_with_brute_force():
    for t in random_automata(120):
        found = brute_pattern_search(t, 6)
        assert (has_heavy_cycle(t) is not None) == bool(found.heavy_cycles)
        if not found.heavy_cycles:
            pairs = {(q, q2) for (q, q2, _v) in found.barbells}
            for q in t.states:
                for q2 in t.states:
                    if q == q2:
                        continue
                    assert (find_barbell(t, q, q2) is not None) == ((q, q2) in pairs)


def test_degree_agrees_with_brute_force():
    disagreements = 0
    for t in random_automata(120):
        rep = classify(t)
        mine = None if rep.kind == "exponential" else rep.degree
        if mine != brute_degree(t, 6):
            disagreements += 1
    assert disagreements == 0


def test_witness_families_pump_on_random_automata():
    pumped = 0
    for t in random_automata(150, seed=1234):
        rep = classify(t)
        if rep.kind == "exponential":
            for pumps in range(1, 5):
                assert eval_nautomaton(t, witness_word(rep, pumps)) >= 2 ** pumps
            pumped += 1
        elif rep.degree >= 1:
            for pumps in range(1, 5):
                got = eval_nautomaton(t, witness_word(rep, pumps))
                assert got >= pumps ** rep.degree, (t, pumps, got)
            pumped += 1
    assert pumped >= 60


def flow_of(m):
    """Flow automaton of an SST, or of a marble machine's crossing SST."""
    if isinstance(m, MarbleTransducer):
        m = marble_to_sst(m)
    return flow_automaton(to_simple(make_total(m)[0]))


def _chain3() -> SST:
    # x := x.a on a, y := y.x on b, z := z.y on c; the output is z
    regs = ("x", "y", "z")
    keep = {x: (Reg(x),) for x in regs}
    rows = {"a": {"x": (Reg("x"), Lit("a"))}, "b": {"y": (Reg("y"), Reg("x"))},
            "c": {"z": (Reg("z"), Reg("y"))}}
    return SST(input_alphabet=("a", "b", "c"), output_alphabet=("a",),
               states=("q",), registers=regs, initial="q",
               init_valuation={x: () for x in regs},
               delta={("q", a): "q" for a in rows},
               update={("q", a): {**keep, **row} for a, row in rows.items()},
               output={"q": (Reg("z"),)})


@pytest.mark.parametrize("name", ["mul_sst", "mul_sst_copyful", "mul_marble",
                                  "pow2_marble", "chain3"])
def test_witness_families_pump_at_degree_two_and_more(name):
    # chains of two or more barbells, joined by their links
    flow = flow_of(_chain3() if name == "chain3" else load(name))
    rep = classify(flow)
    assert rep.degree == (3 if name == "chain3" else 2)
    assert len(rep.witness["links"]) == rep.degree - 1
    got = [eval_nautomaton(flow, witness_word(rep, p)) for p in range(1, 7)]
    assert all(n >= p ** rep.degree for p, n in enumerate(got, 1)), got
    if name == "mul_sst":
        assert got == [2, 6, 12, 20, 30, 42]


def test_partition_flow_order_and_stabilization():
    for t in random_automata(120, seed=7):
        if has_heavy_cycle(t) is not None:
            continue
        rep = classify(t)
        level = {}
        for i, part in enumerate(rep.partition):
            for q in part:
                level[q] = i
        maxima = {5: {}, 6: {}}
        mats = {(): {(q, q): 1 for q in t.states}}
        frontier = [()]
        for depth in range(1, 7):
            nxt = []
            for v in frontier:
                for a in sorted(t.input_alphabet):
                    v2 = v + (a,)
                    prod = {}
                    for (p, q1), w1 in mats[v].items():
                        for (q2, r), w2 in t.mats[a].items():
                            if q1 == q2 and w1 and w2:
                                prod[(p, r)] = prod.get((p, r), 0) + w1 * w2
                    mats[v2] = prod
                    nxt.append(v2)
            frontier = nxt
        for v, mat in mats.items():
            for (p, q), w in mat.items():
                if w >= 1 and len(v) <= 5:
                    assert level[p] <= level[q], (v, p, q)
                if level.get(p) == level.get(q) and w:
                    for horizon in (5, 6):
                        if len(v) <= horizon:
                            key = (p, q)
                            maxima[horizon][key] = max(maxima[horizon].get(key, 0), w)
        assert maxima[5] == maxima[6], "intra-class weights kept growing"


def test_exponential_upper_bound_sanity():
    """eval(w) never exceeds (sum alpha)(sum beta) * M^|w| with M the max
    column sum over the letter matrices."""
    from xducer.semantics import eval_nautomaton as ev
    from xducer.oracle import words_up_to

    automata = [load("exp_flow"), load("chain_flow")]
    automata.extend(random_automata(20, seed=5))
    for t in automata:
        col_sums = [0]
        for mat in t.mats.values():
            per_col = {}
            for (_p, q), w in mat.items():
                per_col[q] = per_col.get(q, 0) + w
            col_sums.extend(per_col.values())
        m = max(col_sums)
        c = max(1, sum(t.alpha.values())) * max(1, sum(t.beta.values()))
        for w in words_up_to(t.input_alphabet, 8, cap=600):
            assert ev(t, w) <= c * (m ** len(w))


def test_classify_function_corpus():
    res = classify_function(load("exp_sst"))
    assert res.kind == "exponential"
    res = classify_function(load("mul_sst"))
    assert res.degree == 2
    res = classify_function(load("reverse_sst"))
    assert res.degree == 1


@pytest.mark.parametrize("name,marbles", [
    ("exp_flow", None), ("exp_sst", None), ("exp_marble", None),
    ("chain_flow", 0), ("identity_sst", 0), ("reverse_sst", 0),
    ("copy_two_way", 0), ("mul_sst", 1), ("mul_marble", 1),
])
def test_minimal_marbles(name, marbles):
    m = load(name)
    if isinstance(m, TwoWayTransducer):
        m = two_way_to_marble(m)
    if isinstance(m, MarbleTransducer):
        m = marble_to_sst(m)
    report = classify(m) if isinstance(m, NAutomaton) else classify_function(m)
    assert report.minimal_marbles == marbles


def test_minimal_marbles_of_degree_zero():
    # x keeps its one letter: every output is "a"
    m = SST(input_alphabet=("a",), output_alphabet=("a",), states=("q",),
            registers=("x",), initial="q", init_valuation={"x": ("a",)},
            delta={("q", "a"): "q"}, update={("q", "a"): {"x": (Reg("x"),)}},
            output={"q": (Reg("x"),)})
    report = classify_function(m)
    assert report.degree == 0 and report.minimal_marbles == 0


# ---------------------------------------------------------------------------
# Differential test against an unpruned reference
# ---------------------------------------------------------------------------


def _ref_search(letters, starts, step, is_target, min_steps):
    """Least (word, node) over the shortest words reaching a target.

    Each level sorts every (word, node) it generates, so the first word
    recorded for a node is its least one; no component pruning.
    """
    level = dict(starts)
    if min_steps == 0:
        hits = sorted((w, n) for n, w in level.items() if is_target(n))
        if hits:
            return hits[0]
    seen = set(level)
    while level:
        nxt = {}
        for w2, n2 in sorted((w + (a,), n2) for n, w in level.items()
                             for a in letters for n2 in step(n, a)):
            nxt.setdefault(n2, w2)
        hits = sorted((w, n) for n, w in nxt.items() if is_target(n))
        if hits:
            return hits[0]
        level = {n: w for n, w in nxt.items() if n not in seen}
        seen.update(level)
    return None


def _reach_sets(t):
    succ = {q: set() for q in t.states}
    for mat in t.mats.values():
        for (p, r), w in mat.items():
            if w > 0:
                succ[p].add(r)
    reach = {}
    for q in t.states:
        seen, todo = {q}, [q]
        while todo:
            for r in succ[todo.pop()] - seen:
                seen.add(r)
                todo.append(r)
        reach[q] = seen
    return reach


def _components(t):
    reach = _reach_sets(t)
    return {q: frozenset(p for p in reach[q] if q in reach[p])
            for q in t.states}


class _Reference:
    """Growth search without component pruning: every product is searched in
    full, and every ordered pair of states is tried for a barbell."""

    def __init__(self, t):
        self.t = t
        self.letters = sorted(t.input_alphabet)
        self.rows = {a: {p: [(r, w) for (p2, r), w in sorted(t.mats[a].items())
                             if p2 == p and w > 0]
                         for p in t.states}
                     for a in t.input_alphabet}
        self.reach = _reach_sets(t)
        self.barbells = {(q, q2): self.barbell(q, q2) for q in t.states
                         for q2 in t.states if q != q2}

    def heavy_cycle(self):
        rows = self.rows

        def step(node, a):
            p1, p2, f = node
            return [(r1, r2, f or r1 != r2 or (p1 == p2 and w1 >= 2))
                    for r1, w1 in rows[a][p1] for r2, _ in rows[a][p2]]

        for q in self.t.states:
            hit = _ref_search(self.letters, {(q, q, False): ()}, step,
                              lambda n, q=q: n == (q, q, True), 1)
            if hit is not None:
                return q, hit[0]
        return None

    def barbell(self, q, q2):
        rows = self.rows

        def step(node, a):
            return [(r1, r2, r3) for r1, _ in rows[a][node[0]]
                    for r2, _ in rows[a][node[1]] for r3, _ in rows[a][node[2]]]

        hit = _ref_search(self.letters, {(q, q, q2): ()}, step,
                          lambda n: n == (q, q2, q2), 1)
        return None if hit is None else hit[0]

    def connect(self, sources, targets):
        hit = _ref_search(self.letters, {q: () for q in sources},
                          lambda q, a: [r for r, _ in self.rows[a][q]],
                          lambda q: q in targets, 0)
        return None if hit is None else hit[0]

    def edges(self):
        """(q1, q2) -> the first barbell (q, q') with q1 ->* q, q' ->* q2."""
        states, reach = self.t.states, self.reach
        found = [pair for pair, v in self.barbells.items() if v is not None]
        edges = {}
        for q1 in states:
            for q2 in states:
                for q, q2b in found:
                    if q in reach[q1] and q2 in reach[q2b]:
                        edges[(q1, q2)] = (q, q2b)
                        break
        return edges

    def classify(self):
        """GrowthReport of the trim automaton, every word from here."""
        t = self.t
        sources = [p for p in t.states if t.alpha.get(p, 0) > 0]
        sinks = [p for p in t.states if t.beta.get(p, 0) > 0]
        hc = self.heavy_cycle()
        if hc is not None:
            q, v = hc
            return GrowthReport("exponential", None, (), {
                "state": q, "u": self.connect(sources, [q]), "v": v,
                "z": self.connect([q], sinks)}, ())
        edges = self.edges()
        h = {q: 0 for q in t.states}
        for _ in t.states:
            for (p, q) in edges:
                h[q] = max(h[q], h[p] + 1)
        k = max(h.values())
        partition = tuple(tuple(q for q in t.states if h[q] == i)
                          for i in range(k + 1))
        if k == 0:
            return GrowthReport("polynomial", 0, partition, {
                "left": (), "loops": [], "links": [], "right": ()}, ())
        path = [next(q for q in t.states if h[q] == k)]
        while h[path[0]] > 0:
            path.insert(0, min(p for (p, q) in edges
                               if q == path[0] and h[p] + 1 == h[q]))
        loops, lefts, rights = [], [], []
        for i in range(k):
            q, q2 = edges[(path[i], path[i + 1])]
            loops.append(self.barbells[(q, q2)])
            lefts.append(self.connect([path[i]], [q]))
            rights.append(self.connect([q2], [path[i + 1]]))
        return GrowthReport("polynomial", k, partition, {
            "left": self.connect(sources, [path[0]]) + lefts[0],
            "loops": loops,
            "links": [rights[i] + lefts[i + 1] for i in range(k - 1)],
            "right": rights[k - 1] + self.connect([path[k]], sinks),
        }, ())


def scc_automata(count, seed):
    """Trim automata of 4-10 states with at least two multi-state SCCs.

    States are dealt into blocks; the first letter rotates every block (so a
    block of two or more states is strongly connected), other letters map
    into the block at random, and edges between blocks only go forward.  A
    third of the machines get extra in-block edges or weights 2, which
    usually make heavy cycles.  State names are shuffled so declaration
    order is not the block order.
    """
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        n = rng.randint(4, 10)
        names = ["q%d" % i for i in range(n)]
        rng.shuffle(names)
        blocks, i = [], 0
        while i < n:
            size = min(n - i, rng.choice([1, 2, 2, 3, 4]))
            blocks.append(names[i:i + size])
            i += size
        letters = ("a", "b")[: rng.randint(1, 2)]
        noisy = rng.random() < 1 / 3
        mats = {a: {} for a in letters}
        for bi, block in enumerate(blocks):
            for j, p in enumerate(block):
                if len(block) > 1 or rng.random() < 0.7:
                    mats[letters[0]][(p, block[(j + 1) % len(block)])] = 1
                for a in letters[1:]:
                    if rng.random() < 0.8:
                        mats[a][(p, rng.choice(block))] = 1
                if noisy and rng.random() < 0.3:
                    key = (p, rng.choice(block))
                    a = rng.choice(letters)
                    mats[a][key] = mats[a].get(key, 0) + 1
                for later in blocks[bi + 1:]:
                    for q in later:
                        if rng.random() < 0.2:
                            mats[rng.choice(letters)][(p, q)] = 1
        states = tuple(sorted(names, key=lambda s: int(s[1:])))
        alpha = {q: 1 for q in blocks[0] if rng.random() < 0.7}
        alpha[blocks[0][0]] = 1
        beta = {q: 1 for q in blocks[-1] if rng.random() < 0.7}
        beta[blocks[-1][-1]] = 1
        t = trim(NAutomaton(letters, states, alpha, beta, mats))
        comps = set(_components(t).values()) if t.states else set()
        if len(t.states) < 4 or sum(1 for c in comps if len(c) > 1) < 2:
            continue
        produced += 1
        yield t


def test_component_pruned_search_matches_unpruned_reference():
    kinds = {"exponential": 0, "polynomial": 0, "degree>=2": 0}
    for t in scc_automata(100, seed=2024):
        ref = _Reference(t)
        assert has_heavy_cycle(t) == ref.heavy_cycle()
        for (q, q2), v in ref.barbells.items():
            assert find_barbell(t, q, q2) == v
        rep = classify(t)
        assert rep.to_json() == ref.classify().to_json(), t
        kinds[rep.kind] += 1
        if rep.kind == "exponential":
            continue
        kinds["degree>=2"] += rep.degree >= 2
        assert barbell_graph(t).edges == ref.edges()
        # without heavy cycles, no barbell joins two states of one SCC
        comp = _components(t)
        assert all(comp[q] != comp[q2]
                   for (q, q2), v in ref.barbells.items() if v is not None)
    assert kinds["exponential"] >= 15 and kinds["polynomial"] >= 40, kinds
    assert kinds["degree>=2"] >= 15, kinds
