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
* A second run can follow the first along any path inside an SCC, so the
  pairs one run reaches beside another that stays in an SCC are the same
  from every diagonal pair of it: the pair searches run once per SCC.  For
  the same reason the first barbell of each pair of SCCs stands for all of
  them, and a height is one number per SCC, found in one pass over the
  component DAG.

These searches are closures (``_closure``) on bit masks local to one SCC.
Only the witness words a report prints are searched for word by word
(``_lex_bfs``), each the lexicographically least shortest one.
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


class _Image(dict):
    """Bit rows indexed by number (``rows``), and the map from a mask to the
    union of the rows of its bits, each image computed on first use and
    kept: the searches ask for the same masks again and again."""

    __slots__ = ("rows",)

    def __init__(self, size: int):
        self.rows = [0] * size

    def __missing__(self, bits: int) -> int:
        out, rest = 0, bits
        while rest:
            low = rest & -rest
            out |= self.rows[low.bit_length() - 1]
            rest ^= low
        self[bits] = out
        return out


def _closure(start: dict, step, goal=(None, 0)) -> dict:
    """The least map key -> bits holding ``start`` and closed under ``step``,
    or the part built when bit ``goal[1]`` first reaches key ``goal[0]``.

    ``step(key, bits)`` yields (key2, bits2) pairs and distributes over
    unions of bits, so only the bits new at a key are passed on.  A key is
    a state of the run that may leave an SCC (a pair of states in the triple
    search) and its bits are the other run's states inside one SCC, so the
    map has at most the automaton's states as keys (|SCC(q)| x states in the
    triple search), each with at most one SCC's bits: it needs no limit.
    """
    reach = dict(start)
    pending = dict(start)
    goal_key, goal_bit = goal
    while pending:
        key, bits = pending.popitem()
        for key2, bits2 in step(key, bits):
            old = reach.get(key2, 0)
            new = bits2 & ~old
            if new:
                reach[key2] = old | new
                pending[key2] = pending.get(key2, 0) | new
                if new & goal_bit and key2 == goal_key:
                    return reach
    return reach


class _Support:
    """The search structure of one automaton, shared by every pattern query.

    ``rows[a][p]`` lists the states p reaches by one positive step on a and
    ``back[a][r]`` the states that reach r so, ``pred[r]`` on any letter;
    ``heavy`` holds the (p, a, r) steps of weight at least 2; ``sccs``
    lists the SCCs, each after every SCC that reaches it, and ``comp`` maps
    a state to its SCC; ``cyclic`` marks states on some cycle.

    ``bit[q]`` is 1 << q's number inside its SCC, in declaration order.  For
    a cyclic SCC c, ``fwd[c][a]`` and ``bwd[c][a]`` are the images
    (``_Image``) of the successors and the predecessors on a inside c.
    ``heavy_sccs`` and ``branching`` hold the SCCs with, inside, a step of
    weight at least 2 and a state with two successors on one letter.
    Coreachable sets and ``behind`` maps are computed on first use.
    """

    def __init__(self, m: NAutomaton):
        self.letters = letters = tuple(sorted(m.input_alphabet))
        self.rows = {a: {p: [] for p in m.states} for a in letters}
        self.back = {a: {p: [] for p in m.states} for a in letters}
        self.heavy = set()
        self.pred = pred = {p: set() for p in m.states}
        for a in letters:
            rows, back = self.rows[a], self.back[a]
            for (p, r), w in m.mats.get(a, {}).items():
                if w > 0:
                    rows[p].append(r)
                    back[r].append(p)
                    pred[r].add(p)
                    if w >= 2:
                        self.heavy.add((p, a, r))
        self.sccs = _components(m.states, pred)
        self.comp = comp = {q: c for c in self.sccs for q in c}
        self.cyclic = {q: len(comp[q]) > 1 or q in pred[q] for q in m.states}
        num, size = {}, {}
        for q in m.states:
            num[q] = size.get(comp[q], 0)
            size[comp[q]] = num[q] + 1
        self.bit = bit = {q: 1 << n for q, n in num.items()}
        self.fwd, self.bwd, self.branching = {}, {}, set()
        for c in self.sccs:
            if not self.cyclic[next(iter(c))]:
                continue
            self.fwd[c] = {a: _Image(len(c)) for a in letters}
            self.bwd[c] = {a: _Image(len(c)) for a in letters}
            for a in letters:
                fwd, bwd = self.fwd[c][a].rows, self.bwd[c][a].rows
                for p in c:
                    for r in self.rows[a][p]:
                        if comp[r] is c:
                            if fwd[num[p]]:
                                self.branching.add(c)
                            fwd[num[p]] |= bit[r]
                            bwd[num[r]] |= bit[p]
        self.heavy_sccs = {comp[p] for p, _a, r in self.heavy
                           if comp[p] is comp[r]}
        self._coreach: dict = {}
        self._behind: dict = {}

    def coreach(self, q) -> set:
        """The states that reach q."""
        if q not in self._coreach:
            self._coreach[q] = _reachable(self.pred, [q])
        return self._coreach[q]

    def beside(self, rows, local):
        """The closure step of a key run over ``rows`` and a bit run over
        ``local``, one SCC's images, reading the same letter."""
        letters = self.letters

        def step(p, bits):
            for a in letters:
                img = local[a][bits]
                if img:
                    for r in rows[a][p]:
                        yield r, img
        return step

    def behind(self, c) -> dict:
        """State p -> the bits of the p' in cyclic SCC c such that some word
        leads p to q2 and p' to q2 inside c: the last two runs of a barbell
        ending in q2.  It is the same map for every q2 in c, as a word
        leading both runs to some (q', q') of c goes on to (q2, q2) inside
        c, so one closure from every diagonal pair of c serves them all.
        """
        if c not in self._behind:
            self._behind[c] = _closure({q: self.bit[q] for q in c},
                                       self.beside(self.back, self.bwd[c]))
        return self._behind[c]


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

    A weight-2 return path exists iff two distinct runs q -> q read the same
    word.  Both stay in SCC(q), and a heavy cycle at one state of an SCC
    gives one at every state of it (go to q, take both loops, come back), so
    each cyclic SCC is decided once: heavy if it holds a step of weight at
    least 2; else light if no state in it has two successors in it on one
    letter, as two runs from q then never part; else heavy iff the forward
    and the backward closure from (q, q) share a pair (p, p') with p != p'.
    A key of both reaches q and is reached from q, so it is in SCC(q), where
    the pairs reached from (q, q) are symmetric: a shared pair is read at
    one key.  SCCs are met in the declaration order of their states; the
    breadth-first lexicographically least witness is searched only for the
    first state of the first heavy SCC.
    """
    s = _support(m)
    seen: set = set()
    for q in m.states:
        c = s.comp[q]
        if not s.cyclic[q] or c in seen:
            continue
        seen.add(c)
        if c not in s.heavy_sccs:
            if c not in s.branching:
                continue
            ahead = _closure({q: s.bit[q]}, s.beside(s.rows, s.fwd[c]))
            behind = _closure({q: s.bit[q]}, s.beside(s.back, s.bwd[c]))
            if not any(bits & behind.get(p, 0) & ~s.bit[p]
                       for p, bits in ahead.items()):
                continue

        def step(node, a):
            p1, p2, f = node
            row, out = s.rows[a], []
            for r1 in row[p1]:
                if r1 in c:
                    w2 = p1 == p2 and (p1, a, r1) in s.heavy
                    out += [(r1, r2, f or r1 != r2 or w2)
                            for r2 in row[p2] if r2 in c]
            return out

        return q, _lex_bfs(s.letters, [(q, q, False)], step,
                           (q, q, True).__eq__)
    return None


def find_barbell(m: NAutomaton, q: str, q2: str) -> Optional[Word]:
    """Shortest v with positive weights on q->q, q->q2 and q2->q2 at once.

    Decided by reachability in the triple product over positive-support
    transitions from (q, q, q2) to (q, q2, q2), path length >= 1.  The first
    run stays in SCC(q); the last two only visit pairs from which they can
    still end in q2 together (``behind``).  This is a search over words, for
    a witness; ``barbell_graph`` decides barbells without one.
    """
    if q == q2:
        raise MachineError("a barbell needs two distinct states")
    s = _support(m)
    if not (s.cyclic[q] and s.cyclic[q2]):
        return None
    c1, c2, bit = s.comp[q], s.comp[q2], s.bit
    behind = s.behind(c2)
    if not behind.get(q, 0) & bit[q2]:
        return None

    def step(node, a):
        row = s.rows[a]
        n1, n2, n3 = node
        return [
            (r1, r2, r3)
            for r1 in row[n1] if r1 in c1
            for r2 in row[n2] if r2 in behind
            for r3 in row[n3] if r3 in c2 and behind[r2] & bit[r3]
        ]

    return _lex_bfs(s.letters, [(q, q, q2)], step, (q, q2, q2).__eq__)


def _has_barbell(s: _Support, q, q2, behind: dict) -> bool:
    """Whether ``find_barbell`` finds a word: a closure keyed by the first two
    runs (r1 in SCC(q), r2), the third run's states as bits over SCC(q2)
    kept to SCC(q2)'s ``behind``, stopping at (q, q2, q2)."""
    c1, rows, local = s.comp[q], s.rows, s.fwd[s.comp[q2]]

    def step(node, bits):
        n1, n2 = node
        for a in s.letters:
            img = local[a][bits]
            if img:
                for r1 in rows[a][n1]:
                    if r1 in c1:
                        for r2 in rows[a][n2]:
                            b = img & behind.get(r2, 0)
                            if b:
                                yield (r1, r2), b

    goal = (q, q2), s.bit[q2]
    reach = _closure({(q, q): s.bit[q2]}, step, goal)
    return bool(reach.get(goal[0], 0) & goal[1])


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
    states of distinct SCCs.  One forward closure per SCC of q gives the q'
    that some word takes q to while returning to q, one backward closure
    per SCC of q' the q that can end in q' while q' returns to itself
    (``behind``); for pairs passing both, a triple closure decides
    (``_has_barbell``), with no witness word.  One SCC's targets are held
    at a time; the barbells are put in declaration order at the end.

    Heights are monotone along reachability and the same across an SCC, so
    they are found per SCC in one pass over the component DAG in topological
    order: an SCC's height is the largest of its DAG predecessors' heights
    and one more than the height of the start of each barbell ending in it.
    Every barbell joins an SCC to a different SCC that it reaches, so the
    graph of barbells is acyclic by construction and needs no cycle check.
    """
    s = _support(m)
    pos = {q: i for i, q in enumerate(m.states)}
    found = []
    for c in s.fwd:  # the cyclic SCCs
        # by number of q in c, the cyclic q2 outside c with (q, q2) reached
        # from (q, q), one closure for every state of c
        targets = [[] for _ in c]
        ahead = _closure({q: s.bit[q] for q in c}, s.beside(s.rows, s.fwd[c]))
        for p2, bits in ahead.items():
            if not s.cyclic[p2] or s.comp[p2] is c:
                continue
            while bits:
                low = bits & -bits
                targets[low.bit_length() - 1].append(p2)
                bits ^= low
        first: set = set()
        for q in sorted(c, key=pos.__getitem__):
            for q2 in sorted(targets[s.bit[q].bit_length() - 1],
                             key=pos.__getitem__):
                c2 = s.comp[q2]
                if c2 in first:
                    continue
                behind = s.behind(c2)
                if behind.get(q, 0) & s.bit[q2] and _has_barbell(
                        s, q, q2, behind):
                    first.add(c2)
                    found.append((pos[q], pos[q2], (c, c2), (q, q2)))
    barbells = {key: pair for _i, _j, key, pair in sorted(found)}
    starts: dict = {}
    for c, c2 in barbells:
        starts.setdefault(c2, []).append(c)
    height: dict = {}
    for c in s.sccs:  # each SCC after every SCC that reaches it
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
