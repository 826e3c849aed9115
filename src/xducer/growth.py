"""Growth analysis of weighted automata and register transducers.

Builds flow automata from simple register machines and classifies the
asymptotic growth of the computed counting function as exponential or
k-polynomial, producing machine-checkable witnesses and the height
partition of the states.

Every pattern question is asked of one search structure per automaton
(``_Support``): the per-letter successor rows of the support graph (the
positive-weight transitions) and its strongly connected components (SCCs),
after Weber & Seidl (1991, *On the degree of ambiguity of finite automata*),
who reduce such questions to the SCCs of that graph.  Three facts let the
searches skip most of the automaton without changing any answer.

* A heavy cycle at q (two distinct paths q -> q over one word) only visits
  SCC(q), so acyclic states have none and the pair-product search stays
  inside SCC(q) x SCC(q).  A heavy cycle at one state of an SCC gives one
  at every state of it, so one search per SCC decides all its states.
* In a heavy-cycle-free automaton a barbell (q, q') needs q and q' cyclic,
  in distinct SCCs, with q' reachable from q.  Were v the barbell word and
  q' -> q by some u, the word v.v.u would have two distinct paths q -> q
  (q -v-> q -v-> q' -u-> q and q -v-> q' -v-> q' -u-> q).  In the triple
  product the first run stays in SCC(q), the third in SCC(q') and the
  middle one in reach(q) & coreach(q'); the search is cut further to the
  pairs of the last two runs that can still end in (q', q').
* Reachability is the same from every state of an SCC, so the first barbell
  of each pair of SCCs stands for all of them, and a height is one number
  per SCC, found in one pass over the component DAG.

One search, ``find_barbell``, decides each barbell and gives its
lexicographically least witness word.
"""

from __future__ import annotations

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


def _components(states, succ: dict) -> list:
    """The SCCs as frozensets (Tarjan's algorithm, without recursion), in the
    order they finish: each after every SCC it reaches."""
    index: dict = {}
    low: dict = {}
    comp: dict = {}
    sccs: list = []
    stack: list = []
    for root in states:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if w not in comp:  # still on the stack
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    i = stack.index(v)
                    c = frozenset(stack[i:])
                    del stack[i:]
                    for w in c:
                        comp[w] = c
                    sccs.append(c)
    return sccs


class _Support:
    """The search structure of one automaton, shared by every pattern query.

    ``rows[a][p]`` lists the states p reaches by one positive step on a and
    ``back[a][r]`` the states that reach r so, ``pred[r]`` on any letter;
    ``heavy`` holds the (p, a, r) steps of weight at least 2; ``sccs`` lists
    the SCCs as ``_components`` orders them and ``comp`` maps a state to its
    SCC; ``cyclic`` marks states on some cycle.  Coreachable sets and the
    ``behind`` pair sets are computed on first use.
    """

    def __init__(self, m: NAutomaton):
        self.letters = tuple(sorted(m.input_alphabet))
        self.rows = {a: {p: [] for p in m.states} for a in self.letters}
        self.back = {a: {p: [] for p in m.states} for a in self.letters}
        self.heavy = set()
        self.pred = {p: set() for p in m.states}
        for a in self.letters:
            for (p, r), w in m.mats.get(a, {}).items():
                if w > 0:
                    self.rows[a][p].append(r)
                    self.back[a][r].append(p)
                    self.pred[r].add(p)
                    if w >= 2:
                        self.heavy.add((p, a, r))
        self.states = frozenset(m.states)
        self.succ = _support_edges(m)
        self.sccs = _components(m.states, self.succ)
        self.comp = {q: c for c in self.sccs for q in c}
        self.cyclic = {q: len(self.comp[q]) > 1 or q in self.succ[q]
                       for q in m.states}
        self._coreach: dict = {}
        self._behind: dict = {}

    def coreach(self, q) -> set:
        """The states that reach q."""
        if q not in self._coreach:
            self._coreach[q] = _reachable(self.pred, [q])
        return self._coreach[q]

    def pairs(self, start, rows, keep1, keep2) -> set:
        """Pairs reachable from ``start`` by two runs over ``rows`` reading
        the same letters, the first kept in ``keep1``, the second in ``keep2``."""
        def successors(node):
            p1, p2 = node
            return [(r1, r2) for a in self.letters
                    for r1 in rows[a][p1] if r1 in keep1
                    for r2 in rows[a][p2] if r2 in keep2]
        return set(explore([start], successors, len(self.states) ** 2,
                           "pair search"))

    def behind(self, q2) -> set:
        """Pairs (p, p') such that some word leads p to q2 and p' to q2
        inside SCC(q2): the last two runs of a barbell ending in q2."""
        if q2 not in self._behind:
            self._behind[q2] = self.pairs(
                (q2, q2), self.back, self.states, self.comp[q2])
        return self._behind[q2]


def _support(m: NAutomaton) -> _Support:
    """The search structure of ``m``, built on first use and kept on ``m``.

    Automata are immutable, so every question asked of one automaton shares
    one structure.  It is stored in the instance dictionary, as
    ``functools.cached_property`` does, so it is no dataclass field and
    takes no part in equality or printing.
    """
    s = m.__dict__.get("_support")
    if s is None:
        s = m.__dict__["_support"] = _Support(m)
    return s


def _lex_bfs(letters, starts, step, is_target) -> Optional[Word]:
    """Shortest, then lexicographically least, word that leads some start to
    a target, or None; the empty word when a start is a target.

    ``step(node, letter)`` returns the node's successors.  ``explore`` runs
    over words: each word stands for the nodes it reaches first, and its
    successor on a letter holds the nodes they reach on that letter that no
    earlier word reached.  Words are met by length and then in lexicographic
    order, so the first word reaching a target is the least one.  A node can
    be shared by several words, which is why the search is over words and
    not over nodes.  Pruning ``step`` to nodes that can still reach a target
    leaves the answer unchanged: a shortest path to such a node only passes
    through such nodes.
    """
    first = {(): list(starts)}
    if any(map(is_target, first[()])):
        return ()
    reached = set(starts)

    def successors(word):
        for a in letters:
            new = []
            for node in first[word]:
                for node2 in step(node, a):
                    if node2 not in reached:
                        reached.add(node2)
                        new.append(node2)
            if new:
                first[word + (a,)] = new
                yield word + (a,)

    def hit(word):
        return any(map(is_target, first[word]))

    # each word found reaches a node no earlier word reached: no limit needed
    last = explore([()], successors, float("inf"), "word search", hit)[-1]
    return last if hit(last) else None


def shortest_connecting_word(m: NAutomaton, sources, targets) -> Optional[Word]:
    """Lexicographically least shortest word v with mats(v) positive from
    some source to some target (the empty word counts when the sets meet)."""
    s = _support(m)
    targets = set(targets)
    return _lex_bfs(s.letters, sorted(set(sources)),
                    lambda q, a: s.rows[a].get(q, ()), targets.__contains__)


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
    Both runs stay in SCC(q), so the product is cut to SCC(q) x SCC(q), and
    a heavy cycle at one state of an SCC yields one at every state of it
    (go to q, take both loops, come back): one search per cyclic SCC
    decides all its states.  States are scanned in declaration order; for
    the first state with a heavy cycle the breadth-first lexicographically
    least witness is produced.
    """
    s = _support(m)
    light: set = set()  # SCCs already searched without a hit
    for q in m.states:
        comp = s.comp[q]
        if not s.cyclic[q] or comp in light:
            continue
        rows = {a: {p: [r for r in row[p] if r in comp] for p in comp}
                for a, row in s.rows.items()}

        def step(node, a, rows=rows):
            p1, p2, f = node
            out = []
            for r1 in rows[a][p1]:
                w2 = p1 == p2 and (p1, a, r1) in s.heavy
                for r2 in rows[a][p2]:
                    out.append((r1, r2, f or r1 != r2 or w2))
            return out

        v = _lex_bfs(s.letters, [(q, q, False)], step, (q, q, True).__eq__)
        if v is not None:
            return q, v
        light.add(comp)
    return None


def find_barbell(m: NAutomaton, q: str, q2: str) -> Optional[Word]:
    """Shortest v with positive weights on q->q, q->q2 and q2->q2 at once.

    Decided by reachability in the triple product over positive-support
    transitions from (q, q, q2) to (q, q2, q2), path length >= 1.  The first
    run stays in SCC(q); the last two only visit pairs from which they can
    still end in q2 together.
    """
    if q == q2:
        raise MachineError("a barbell needs two distinct states")
    s = _support(m)
    c1, behind = s.comp[q], s.behind(q2)
    if (q, q2) not in behind:
        return None

    def step(node, a):
        row = s.rows[a]
        n1, n2, n3 = node
        return [
            (r1, r2, r3)
            for r1 in row[n1] if r1 in c1
            for r2 in row[n2]
            for r3 in row[n3] if (r2, r3) in behind
        ]

    return _lex_bfs(s.letters, [(q, q, q2)], step, (q, q2, q2).__eq__)


@dataclass(frozen=True)
class BarbellGraph:
    """The barbells between SCCs and the height they give each state.

    A state's height is the length of the longest chain of barbells leading
    to it, each barbell's start reached from the previous one's end.
    """
    # (SCC, SCC') -> (q, q'): the first barbell in declaration order with q
    # in SCC and q' in SCC'
    barbells: dict
    heights: dict    # state -> height, minimal states at height 0


def barbell_graph(m: NAutomaton) -> BarbellGraph:
    """The first barbell of each pair of SCCs, and the height of each state.

    Requires a trim automaton without heavy cycles (``classify`` has already
    searched for one).  Barbells (q, q') are then only sought between cyclic
    states of distinct SCCs.  One pair pass per q (first run in SCC(q)) finds
    the q' that some word takes q to while returning to q, one backward pair
    pass per q' (``behind``) the q that can end in q' while q' returns to
    itself; for pairs passing both, ``find_barbell`` decides.

    Heights are monotone along reachability and the same across an SCC, so
    they are found per SCC in one pass over the component DAG in topological
    order: an SCC's height is the largest of its DAG predecessors' heights
    and one more than the height of the start of each barbell ending in it.
    Every barbell joins an SCC to a different SCC that it reaches, so the
    graph of barbells is acyclic by construction and needs no cycle check.
    """
    s = _support(m)
    pos = {q: i for i, q in enumerate(m.states)}
    barbells: dict = {}
    for q in m.states:
        if not s.cyclic[q]:
            continue
        ahead = s.pairs((q, q), s.rows, s.comp[q], s.states)
        for q2 in sorted((p2 for p1, p2 in ahead if p1 == q and s.cyclic[p2]),
                         key=pos.__getitem__):
            key = (s.comp[q], s.comp[q2])
            if (key not in barbells and key[0] is not key[1]
                    and find_barbell(m, q, q2) is not None):
                barbells[key] = (q, q2)
    starts: dict = {}
    for c, c2 in barbells:
        starts.setdefault(c2, []).append(c)
    height: dict = {}
    for c in reversed(s.sccs):  # each SCC after every SCC that reaches it
        height[c] = max([height[s.comp[p]] for q in c for p in s.pred[q]
                         if s.comp[p] is not c]
                        + [height[c1] + 1 for c1 in starts.get(c, ())],
                        default=0)
    return BarbellGraph(barbells, {q: height[s.comp[q]] for q in m.states})


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

    @property
    def minimal_marbles(self) -> Optional[int]:
        """Least marble count of a machine of this growth: max(degree - 1, 0),
        None when the growth is exponential."""
        return None if self.degree is None else max(self.degree - 1, 0)

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
    kept = set(t.states)
    removed = tuple(q for q in m.states if q not in kept)
    if not t.states:
        return GrowthReport("polynomial", 0, (), {}, removed)
    hc = has_heavy_cycle(t)  # the only heavy-cycle search of the run
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
    h = g.heights
    k = max(h.values())
    partition = tuple(
        tuple(q for q in t.states if h[q] == i) for i in range(k + 1)
    )
    witness = _polynomial_witness(t, g, k)
    return GrowthReport("polynomial", k, partition, witness, removed)


def _polynomial_witness(t: NAutomaton, g: BarbellGraph, k: int) -> dict:
    if k == 0:
        return {"left": (), "loops": [], "links": [], "right": ()}
    s, h = _support(t), g.heights
    # Walk down from the first top state.  Each step goes to the least state
    # p one height lower that reaches the start of a barbell whose end
    # reaches the current state, through the first such barbell.
    path = [next(q for q in t.states if h[q] == k)]
    used = []
    while h[path[0]] > 0:
        into = [b for b in g.barbells.values() if b[1] in s.coreach(path[0])]
        p = min(p for q, _ in into for p in s.coreach(q)
                if h[p] + 1 == h[path[0]])
        path.insert(0, p)
        used.insert(0, next(b for b in into if p in s.coreach(b[0])))
    # path[0] .. path[k], one barbell per step; words only for these k
    loops, lefts, rights = [], [], []
    for i, (q, q2) in enumerate(used):
        loops.append(find_barbell(t, q, q2))
        lefts.append(shortest_connecting_word(t, [path[i]], [q]))
        rights.append(shortest_connecting_word(t, [q2], [path[i + 1]]))
    links = [rights[i] + lefts[i + 1] for i in range(k - 1)]
    left = shortest_connecting_word(
        t, [p for p in t.states if t.alpha.get(p, 0) > 0], [path[0]])
    right = shortest_connecting_word(
        t, [path[k]], [p for p in t.states if t.beta.get(p, 0) > 0])
    return {
        "left": left + lefts[0],
        "loops": loops,
        "links": links,
        "right": rights[k - 1] + right,
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


def classify_function(m: SST) -> GrowthReport:
    """Growth class of the length of a register transducer's output.

    The machine is totalized and simplified first, and the report is that
    of its flow automaton.
    """
    from .layering import make_total, to_simple

    total, _dfa = make_total(m)
    return classify(flow_automaton(to_simple(total)))
