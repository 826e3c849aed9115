"""Growth analysis of weighted automata and register transducers.

Builds flow automata from simple register machines and classifies the
asymptotic growth of the computed counting function as exponential or
k-polynomial, producing machine-checkable witnesses and the height
partition of the states.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .machines import (
    MachineError,
    NAutomaton,
    Reg,
    SST,
    explore,
)

Word = tuple


# ---------------------------------------------------------------------------
# Support-graph helpers
# ---------------------------------------------------------------------------


def _support_edges(m: NAutomaton) -> dict:
    """state -> sorted tuple of states reachable by one positive-weight step."""
    succ = {q: set() for q in m.states}
    for mat in m.mats.values():
        for (p, q), w in mat.items():
            if w > 0:
                succ[p].add(q)
    return {q: tuple(sorted(s)) for q, s in succ.items()}


def _reachable(succ: dict, sources) -> set:
    return set(explore(sources, succ.__getitem__, len(succ), "reachability"))


def _lex_bfs(m: NAutomaton, starts: dict, step, is_target,
             min_steps: int = 0) -> Optional[tuple]:
    """Shortest witness word by level-synchronized breadth-first search.

    ``starts`` maps nodes to initial words; ``step(node, letter)`` yields
    successor nodes; the first level at which a target appears wins and ties
    break lexicographically on the word.  Returns (node, word) or None.
    Targets are checked against every generated successor, so a cycle back
    to an already-visited node (e.g. the start) is still reported; only
    expansion of visited nodes is pruned.
    """
    letters = sorted(m.input_alphabet)
    frontier = dict(starts)
    if min_steps == 0:
        hits = [(w, n) for n, w in frontier.items() if is_target(n)]
        if hits:
            w, n = min(hits)
            return n, w
    visited = set(frontier)
    while frontier:
        new: dict = {}
        for node, w in frontier.items():
            for a in letters:
                w2 = w + (a,)
                for node2 in step(node, a):
                    if node2 not in new or w2 < new[node2]:
                        new[node2] = w2
        hits = [(w, n) for n, w in new.items() if is_target(n)]
        if hits:
            w, n = min(hits)
            return n, w
        frontier = {n: w for n, w in new.items() if n not in visited}
        visited.update(frontier)
    return None


def shortest_connecting_word(m: NAutomaton, sources, targets) -> Optional[Word]:
    """Lexicographically least shortest word v with mats(v) positive from
    some source to some target (the empty word counts when the sets meet)."""
    sources = set(sources)
    targets = set(targets)

    def step(q, a):
        mat = m.mats[a]
        return [r for (p, r), w in mat.items() if p == q and w > 0]

    res = _lex_bfs(m, {q: () for q in sorted(sources)}, step,
                   lambda q: q in targets, min_steps=0)
    return None if res is None else res[1]


# ---------------------------------------------------------------------------
# Trimming and flow automata
# ---------------------------------------------------------------------------


def trim(m: NAutomaton) -> NAutomaton:
    """Drop states not on any positive alpha-to-beta path.

    Evaluation is preserved; the empty automaton denotes the constant-zero
    function.
    """
    succ = _support_edges(m)
    pred = {q: set() for q in m.states}
    for p, ss in succ.items():
        for q in ss:
            pred[q].add(p)
    fwd = _reachable(succ, [q for q in m.states if m.alpha.get(q, 0) > 0])
    bwd = _reachable(pred, [q for q in m.states if m.beta.get(q, 0) > 0])
    keep = fwd & bwd
    states = tuple(q for q in m.states if q in keep)
    mats = {}
    for a, mat in m.mats.items():
        mats[a] = {(p, q): w for (p, q), w in mat.items()
                   if w > 0 and p in keep and q in keep}
    return NAutomaton(
        input_alphabet=m.input_alphabet, states=states,
        alpha={q: m.alpha[q] for q in states if m.alpha.get(q, 0) > 0},
        beta={q: m.beta[q] for q in states if m.beta.get(q, 0) > 0},
        mats=mats,
    )


def is_simple(m: SST) -> bool:
    """Single total state, no letters in updates, register-only output."""
    if len(m.states) != 1 or m.funs:
        return False
    q = m.states[0]
    if q not in m.output:
        return False
    if any(not isinstance(t, Reg) for t in m.output[q]):
        return False
    for a in m.input_alphabet:
        if (q, a) not in m.delta:
            return False
        for rhs in m.update[(q, a)].values():
            if any(not isinstance(t, Reg) for t in rhs):
                return False
    return True


def flow_automaton(m: SST) -> NAutomaton:
    """The register-flow automaton of a simple machine.

    States are the registers; entry (y, x) of a letter matrix counts the
    occurrences of y in that letter's update of x, so the evaluation of a
    word equals the stored length of each register after reading it.
    """
    if not is_simple(m):
        raise MachineError("flow automata require a simple machine")
    q = m.states[0]
    alpha = {x: len(m.init_valuation[x]) for x in m.registers
             if m.init_valuation[x]}
    beta: dict = {}
    for tok in m.output[q]:
        beta[tok.name] = beta.get(tok.name, 0) + 1
    mats = {}
    for a in m.input_alphabet:
        mat: dict = {}
        for x, rhs in m.update[(q, a)].items():
            for tok in rhs:
                key = (tok.name, x)
                mat[key] = mat.get(key, 0) + 1
        mats[a] = mat
    return NAutomaton(
        input_alphabet=m.input_alphabet, states=m.registers,
        alpha=alpha, beta=beta, mats=mats,
    )


# ---------------------------------------------------------------------------
# Pattern detection
# ---------------------------------------------------------------------------


def has_heavy_cycle(m: NAutomaton) -> Optional[tuple]:
    """Some (q, v) with mats(v)(q, q) >= 2, or None.

    A weight-2 return path exists iff the pair automaton admits two distinct
    parallel runs q -> q over the same word: track (run1 state, run2 state,
    diverged?) and ask for (q, q, diverged) reachable from (q, q, plain).
    States are scanned in declaration order; per state the breadth-first
    lexicographically least witness is produced.
    """
    for q in m.states:

        def step(node, a):
            p1, p2, f = node
            mat = m.mats[a]
            out = []
            row1 = [(r, w) for (p, r), w in mat.items() if p == p1 and w > 0]
            row2 = row1 if p2 == p1 else [
                (r, w) for (p, r), w in mat.items() if p == p2 and w > 0
            ]
            for r1, w1 in row1:
                for r2, _ in row2:
                    f2 = f or r1 != r2 or (p1 == p2 and r1 == r2 and w1 >= 2)
                    out.append((r1, r2, f2))
            return out

        res = _lex_bfs(m, {(q, q, False): ()}, step,
                       lambda n: n == (q, q, True), min_steps=1)
        if res is not None:
            return q, res[1]
    return None


def find_barbell(m: NAutomaton, q: str, q2: str) -> Optional[Word]:
    """Shortest v with positive weights on q->q, q->q2 and q2->q2 at once.

    Decided by reachability in the triple product over positive-support
    transitions from (q, q, q2) to (q, q2, q2), path length >= 1.
    """
    if q == q2:
        raise MachineError("a barbell needs two distinct states")

    succ_cache: dict = {}

    def succs(p, a):
        key = (p, a)
        if key not in succ_cache:
            mat = m.mats[a]
            succ_cache[key] = [r for (s, r), w in mat.items() if s == p and w > 0]
        return succ_cache[key]

    def step(node, a):
        n1, n2, n3 = node
        return [
            (r1, r2, r3)
            for r1 in succs(n1, a)
            for r2 in succs(n2, a)
            for r3 in succs(n3, a)
        ]

    res = _lex_bfs(m, {(q, q, q2): ()}, step,
                   lambda n: n == (q, q2, q2), min_steps=1)
    return None if res is None else res[1]


@dataclass(frozen=True)
class BarbellWitness:
    mid_from: str   # barbell source q
    mid_to: str     # barbell target q'
    loop_word: Word  # v with the three positive entries
    left_word: Word  # edge source reaches q over this word
    right_word: Word  # q' reaches the edge target over this word


@dataclass(frozen=True)
class BarbellGraph:
    vertices: tuple
    edges: dict  # (q1, q2) -> BarbellWitness


def barbell_graph(m: NAutomaton) -> BarbellGraph:
    """Edges (q1, q2) whenever q1 can reach a barbell whose far end reaches q2.

    Requires a trim automaton without heavy cycles; the result is acyclic
    (a cycle here would betray a missed heavy cycle and raises).
    """
    if has_heavy_cycle(m) is not None:
        raise MachineError("barbell graph requires a heavy-cycle-free automaton")
    succ = _support_edges(m)
    reach = {q: _reachable(succ, [q]) for q in m.states}
    barbells = []
    for q in m.states:
        for q2 in m.states:
            if q == q2:
                continue
            v = find_barbell(m, q, q2)
            if v is not None:
                barbells.append((q, q2, v))
    edges = {}
    for q1 in m.states:
        for q2 in m.states:
            for (q, q2b, v) in barbells:
                if q in reach[q1] and q2 in reach[q2b]:
                    edges[(q1, q2)] = BarbellWitness(
                        mid_from=q, mid_to=q2b, loop_word=v,
                        left_word=shortest_connecting_word(m, [q1], [q]),
                        right_word=shortest_connecting_word(m, [q2b], [q2]),
                    )
                    break
    graph = BarbellGraph(vertices=m.states, edges=edges)
    _topological_order(graph)  # raises on a cycle
    return graph


def _topological_order(g: BarbellGraph) -> list:
    succ: dict = {q: [] for q in g.vertices}
    indeg = {q: 0 for q in g.vertices}
    for (q1, q2) in g.edges:
        succ[q1].append(q2)
        indeg[q2] += 1
    order = [q for q in g.vertices if indeg[q] == 0]
    queue = deque(order)
    while queue:
        for q2 in succ[queue.popleft()]:
            indeg[q2] -= 1
            if indeg[q2] == 0:
                order.append(q2)
                queue.append(q2)
    if len(order) != len(g.vertices):
        raise MachineError("internal error: heavy cycle missed (barbell graph cyclic)")
    return order


def heights(g: BarbellGraph) -> dict:
    """Longest-path height of every vertex, minimal vertices at height 0."""
    order = _topological_order(g)
    preds: dict = {q: [] for q in g.vertices}
    for (q1, q2) in g.edges:
        preds[q2].append(q1)
    h = {}
    for q in order:
        h[q] = max((h[p] + 1 for p in preds[q]), default=0)
    return h


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthReport:
    kind: str                      # "exponential" | "polynomial"
    degree: Optional[int]          # polynomial degree, None when exponential
    partition: tuple               # height classes over the trimmed states
    witness: dict                  # machine-checkable witness words
    trim_removed: tuple

    def to_json(self) -> dict:
        def w(word):
            return list(word) if word is not None else None

        witness = {}
        for k, v in self.witness.items():
            if isinstance(v, tuple) and all(isinstance(s, str) for s in v):
                witness[k] = w(v)
            elif isinstance(v, (list, tuple)):
                witness[k] = [w(x) for x in v]
            else:
                witness[k] = v
        doc = {
            "class": self.kind,
            "partition": [list(part) for part in self.partition],
            "witness": witness,
            "trim_removed": list(self.trim_removed),
        }
        if self.degree is not None:
            doc["degree"] = self.degree
        return doc


def classify(m: NAutomaton) -> GrowthReport:
    """Exponential (with a pumpable heavy-cycle witness) or polynomial
    of the maximal barbell-chain length, with the height partition."""
    t = trim(m)
    removed = tuple(q for q in m.states if q not in t.states)
    if not t.states:
        return GrowthReport("polynomial", 0, (), {}, removed)
    hc = has_heavy_cycle(t)
    if hc is not None:
        q, v = hc
        u = shortest_connecting_word(
            t, [p for p in t.states if t.alpha.get(p, 0) > 0], [q])
        z = shortest_connecting_word(
            t, [q], [p for p in t.states if t.beta.get(p, 0) > 0])
        return GrowthReport(
            "exponential", None, (),
            {"state": q, "u": u, "v": v, "z": z}, removed,
        )
    g = barbell_graph(t)
    h = heights(g)
    k = max(h.values())
    partition = tuple(
        tuple(q for q in t.states if h[q] == i) for i in range(k + 1)
    )
    witness = _polynomial_witness(t, g, h, k)
    return GrowthReport("polynomial", k, partition, witness, removed)


def _polynomial_witness(t: NAutomaton, g: BarbellGraph, h: dict, k: int) -> dict:
    if k == 0:
        return {"left": (), "loops": [], "links": [], "right": ()}
    # walk down from a top vertex, each step to the least predecessor one lower
    path = [next(q for q in t.states if h[q] == k)]
    while h[path[0]] > 0:
        path.insert(0, min(p for (p, q) in g.edges
                           if q == path[0] and h[p] + 1 == h[q]))
    # path[0] .. path[k], one barbell per edge
    loops, links = [], []
    edge_wits = [g.edges[(path[i], path[i + 1])] for i in range(k)]
    for i, ew in enumerate(edge_wits):
        loops.append(ew.loop_word)
        if i + 1 < k:
            links.append(ew.right_word + edge_wits[i + 1].left_word)
    left = shortest_connecting_word(
        t, [p for p in t.states if t.alpha.get(p, 0) > 0], [path[0]])
    right = shortest_connecting_word(
        t, [path[k]], [p for p in t.states if t.beta.get(p, 0) > 0])
    return {
        "left": left + edge_wits[0].left_word,
        "loops": loops,
        "links": links,
        "right": edge_wits[k - 1].right_word + right,
    }


def witness_word(report: GrowthReport, pumps: int) -> Word:
    """Instantiate the report's witness family with ``pumps`` repetitions."""
    w = report.witness
    if report.kind == "exponential":
        return w["u"] + w["v"] * pumps + w["z"]
    if report.degree == 0:
        return ()
    parts = [w["left"]]
    for i, v in enumerate(w["loops"]):
        parts.append(v * pumps)
        if i < len(w["links"]):
            parts.append(w["links"][i])
    parts.append(w["right"])
    return tuple(s for part in parts for s in part)


@dataclass(frozen=True)
class FunctionGrowth:
    report: GrowthReport
    minimal_marbles: Optional[int]  # None when the growth is exponential


def classify_function(m: SST) -> FunctionGrowth:
    """Growth class of the length of a register transducer's output.

    The machine is totalized and simplified first; a polynomial degree d
    maps to a minimal marble count of max(d - 1, 0).
    """
    from .layering import make_total, to_simple

    total, _dfa = make_total(m)
    simple = to_simple(total)
    report = classify(flow_automaton(simple))
    if report.kind == "exponential":
        return FunctionGrowth(report, None)
    return FunctionGrowth(report, max(report.degree - 1, 0))
