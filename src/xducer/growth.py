"""Growth analysis of weighted automata and register transducers.

Classifies the growth of an automaton weighted over the nonnegative
integers, or of a transducer's output length through its register flow
(``flow_graph``), as exponential or k-polynomial, with machine-checkable
witnesses and the height partition of the states (named only in reports).

Every pattern question is asked of one search structure per graph
(``_Support``): the per-letter successor rows of the support graph (the
positive-weight transitions) on the nodes of alpha-to-beta paths, and its
strongly connected components (SCCs), after Weber & Seidl (1991, *On the
degree of ambiguity of finite automata*), who reduce such questions to the
SCCs of that graph.  Three facts let the searches skip most of the graph
without changing any answer.

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

import functools
from dataclasses import dataclass
from typing import Optional

from .machines import MachineError, NAutomaton, Reg, SST, explore, require_valid

Word = tuple


# ---------------------------------------------------------------------------
# The search structure
# ---------------------------------------------------------------------------


def _components(nodes, succ: dict) -> tuple:
    """The SCCs as sorted lists in the order they finish, each after every SCC
    it reaches (Tarjan's, without recursion), and each node's SCC number."""
    index, low, comp, sccs, stack = {}, {}, {}, [], []
    for root in nodes:
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
                    c = sorted(stack[i:])
                    del stack[i:]
                    for w in c:
                        comp[w] = len(sccs)
                    sccs.append(c)
    return sccs, comp


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
    """The search structure of one flow graph, shared by every pattern query.

    Nodes are numbers, named by ``names`` in reports.  ``alpha`` and
    ``beta`` hold the nodes of positive initial and final weight, and
    ``mats`` each letter's positive weights {(p, r): w}.  Two searches keep
    the nodes of alpha-to-beta paths: ``keep``, in order ``states``;
    ``alpha`` and ``beta`` are cut to them.  ``rows[a][p]`` lists the kept nodes p reaches
    by one step on a and ``back[a][r]`` those that reach r so; ``heavy``
    holds the (p, a, r) steps of weight at least 2.  ``sccs`` lists the SCCs,
    each after every SCC that reaches it; ``comp`` maps a node to its SCC's
    number, ``up[c]`` holds the other SCCs with an edge into c and
    ``cyclic[c]`` whether c holds a cycle.  ``bit[q]`` is 1 << q's position
    in its SCC.  For a cyclic SCC c, ``fwd[c][a]`` and ``bwd[c][a]`` are the
    images (``_Image``) of the successors and the predecessors on a inside
    c.  ``heavy_sccs`` and ``branching`` hold the SCCs with, inside, a step
    of weight at least 2 and a state with two successors on one letter.
    ``coreach`` masks and ``behind`` maps are made on first use.
    """

    def __init__(self, names, alpha, beta, mats: dict):
        self.letters = letters = tuple(sorted(mats))
        self.names = names
        out, into = [[] for _ in names], [[] for _ in names]
        for mat in mats.values():
            for p, r in mat:
                out[p].append(r)
                into[r].append(p)
        keep = set(explore(alpha, out.__getitem__, len(names), "reachability"))
        self.keep = keep = keep.intersection(
            explore(beta, into.__getitem__, len(names), "reachability"))
        self.states = states = sorted(keep)
        self.alpha = [v for v in alpha if v in keep]
        self.beta = [v for v in beta if v in keep]
        pred = {r: {p for p in into[r] if p in keep} for r in states}
        del out, into  # every node's lists; the kept rows below replace them
        self.rows = {a: {p: [] for p in states} for a in letters}
        self.back = {a: {p: [] for p in states} for a in letters}
        self.heavy = set()
        for a in letters:
            rows, back = self.rows[a], self.back[a]
            for (p, r), w in mats[a].items():
                if p in keep and r in keep:
                    rows[p].append(r)
                    back[r].append(p)
                    if w >= 2:
                        self.heavy.add((p, a, r))
        self.sccs, self.comp = sccs, comp = _components(states, pred)
        self.cyclic = [len(c) > 1 or c[0] in pred[c[0]] for c in sccs]
        self.up = [{comp[p] for q in c for p in pred[q]} - {i}
                   for i, c in enumerate(sccs)]
        self.bit = bit = {q: 1 << j for c in sccs for j, q in enumerate(c)}
        self.fwd, self.bwd, self.branching = {}, {}, set()
        for i, c in enumerate(sccs):
            if not self.cyclic[i]:
                continue
            self.fwd[i] = {a: _Image(len(c)) for a in letters}
            self.bwd[i] = {a: _Image(len(c)) for a in letters}
            for a in letters:
                fwd, bwd, rows = self.fwd[i][a].rows, self.bwd[i][a].rows, self.rows[a]
                for j, p in enumerate(c):
                    for r in rows[p]:
                        if comp[r] == i:
                            if fwd[j]:
                                self.branching.add(i)
                            fwd[j] |= bit[r]
                            bwd[bit[r].bit_length() - 1] |= 1 << j
        self.heavy_sccs = {comp[p] for p, _a, r in self.heavy if comp[p] == comp[r]}
        self._coreach: list = []
        self._behind: dict = {}

    def coreach(self, q) -> int:
        """The SCCs that reach q, a mask over SCC numbers.  All are made at
        once, each the union of those of its ``up``, in the order of ``sccs``."""
        masks = self._coreach
        for c, up in enumerate(self.up if not masks else ()):
            masks.append(functools.reduce(int.__or__, map(masks.__getitem__, up), 1 << c))
        return masks[self.comp[q]]

    def word(self, sources, targets) -> Optional[Word]:
        """Lexicographically least shortest word v with mats(v) positive from
        some source to some target (the empty word counts when the sets meet)."""
        return _lex_bfs(self.letters, sources, lambda q, a: self.rows[a][q],
                        set(targets).__contains__)

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
            self._behind[c] = _closure({q: self.bit[q] for q in self.sccs[c]},
                                       self.beside(self.back, self.bwd[c]))
        return self._behind[c]


def _support(m) -> _Support:
    """``m`` if it is a search structure, else that of automaton ``m``, its
    states numbered by position, built on first use and kept on ``m`` (which
    is immutable) in the instance dictionary, as ``cached_property`` does,
    so it is no dataclass field and takes no part in equality or printing.
    An automaton that ``validate`` refuses raises first (``require_valid``),
    so ``classify`` and the searches refuse it before reading it.
    """
    if type(m) is _Support:
        return m
    if "_support" not in m.__dict__:
        require_valid(m)
        num = {q: i for i, q in enumerate(m.states)}
        m.__dict__["_support"] = _Support(
            m.states, [num[q] for q in m.states if m.alpha.get(q, 0) > 0],
            [num[q] for q in m.states if m.beta.get(q, 0) > 0],
            {a: {(num[p], num[r]): w for (p, r), w in m.mats.get(a, {}).items()
                 if w > 0} for a in m.input_alphabet})
    return m.__dict__["_support"]


def _flow(m: SST, consts=()) -> tuple:
    """(alpha, beta, letter matrices) of a machine's register flow: the
    weights of ``layering.to_simple(m)``, built without it.  Node
    i * width + j is the j-th of the i-th state's registers, ``m.registers``
    and then a constant for each letter of ``consts``, which keeps its
    letter and is read in place of it.  Entry (u, v) counts the occurrences
    of u in the update of v, so a word's evaluation is the stored length of
    each register at the state it reaches.
    """
    if m.funs:
        raise MachineError("cannot simplify a machine with external functions")
    reg = {x: j for j, x in enumerate(m.registers)}
    lit = {b: len(reg) + j for j, b in enumerate(consts)}
    at = {q: i * (len(reg) + len(lit)) for i, q in enumerate(m.states)}
    start = at[m.initial]
    alpha = {start + j: len(m.init_valuation[x])
             for x, j in reg.items() if m.init_valuation[x]}
    alpha.update((start + j, 1) for j in lit.values())
    beta: dict = {}
    for q in m.states:
        for t in m.output[q]:
            v = at[q] + (reg[t.name] if type(t) is Reg else lit[t.sym])
            beta[v] = beta.get(v, 0) + 1
    mats: dict = {a: {} for a in m.input_alphabet}
    for (p, a), q in m.delta.items():
        mat, src, dst = mats[a], at[p], at[q]
        for x, rhs in m.update[(p, a)].items():
            v = dst + reg[x]
            for t in rhs:
                key = src + (reg[t.name] if type(t) is Reg else lit[t.sym]), v
                mat[key] = mat.get(key, 0) + 1
        for j in lit.values():
            mat[src + j, dst + j] = 1
    return alpha, beta, mats


def flow_graph(m: SST) -> _Support:
    """The search structure of a total machine's flow, named by _simple_names."""
    from .layering import _simple_names

    names, const = _simple_names(m)
    return _Support(tuple(names.values()), *_flow(m, tuple(const)))


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


# ---------------------------------------------------------------------------
# Trimming and flow automata
# ---------------------------------------------------------------------------


def trim(m: NAutomaton) -> NAutomaton:
    """``m`` cut to its states on some positive alpha-to-beta path, those its
    search structure keeps: evaluation is preserved, and the empty automaton
    denotes the constant-zero function."""
    states = tuple(m.states[q] for q in _support(m).states)
    kept = set(states)
    return NAutomaton(m.input_alphabet, states,
                      {q: m.alpha[q] for q in states if m.alpha.get(q, 0) > 0},
                      {q: m.beta[q] for q in states if m.beta.get(q, 0) > 0},
                      {a: {(p, q): w for (p, q), w in mat.items()
                           if w > 0 and p in kept and q in kept}
                       for a, mat in m.mats.items()})


def is_simple(m: SST) -> bool:
    """Single total state, no letters in updates, register-only output."""
    if len(m.states) != 1 or m.funs:
        return False
    q = m.states[0]
    if q not in m.output or any((q, a) not in m.delta for a in m.input_alphabet):
        return False
    return all(type(t) is Reg for rhs in (m.output[q], *(
        r for a in m.input_alphabet for r in m.update[(q, a)].values())) for t in rhs)


def flow_automaton(m: SST) -> NAutomaton:
    """The register-flow automaton of a simple machine: ``_flow`` of its one
    state, with the registers as states, so the evaluation of a word equals
    the stored length of each register after reading it."""
    if not is_simple(m):
        raise MachineError("flow automata require a simple machine")
    alpha, beta, mats = _flow(m)
    x = m.registers
    return NAutomaton(m.input_alphabet, x, {x[v]: w for v, w in alpha.items()},
                      {x[v]: w for v, w in beta.items()},
                      {a: {(x[p], x[r]): w for (p, r), w in mat.items()}
                       for a, mat in mats.items()})


# ---------------------------------------------------------------------------
# Pattern detection: of an automaton's trimmed part in state names, or of a
# search structure in node numbers
# ---------------------------------------------------------------------------


def has_heavy_cycle(m) -> Optional[tuple]:
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
    for q in s.states:
        c = s.comp[q]
        if not s.cyclic[c] or c in seen:
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
                if s.comp[r1] == c:
                    w2 = p1 == p2 and (p1, a, r1) in s.heavy
                    out += [(r1, r2, f or r1 != r2 or w2)
                            for r2 in row[p2] if s.comp[r2] == c]
            return out

        v = _lex_bfs(s.letters, [(q, q, False)], step, (q, q, True).__eq__)
        return (q if s is m else s.names[q]), v
    return None


def find_barbell(m, q, q2) -> Optional[Word]:
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
    if s is not m:
        q, q2 = m.states.index(q), m.states.index(q2)
    if not ({q, q2} <= s.keep and s.cyclic[s.comp[q]] and s.cyclic[s.comp[q2]]):
        return None
    c1, c2, bit, comp = s.comp[q], s.comp[q2], s.bit, s.comp
    behind = s.behind(c2)
    if not behind.get(q, 0) & bit[q2]:
        return None

    def step(node, a):
        row = s.rows[a]
        n1, n2, n3 = node
        return [
            (r1, r2, r3)
            for r1 in row[n1] if comp[r1] == c1
            for r2 in row[n2] if r2 in behind
            for r3 in row[n3] if comp[r3] == c2 and behind[r2] & bit[r3]
        ]

    return _lex_bfs(s.letters, [(q, q, q2)], step, (q, q2, q2).__eq__)


def _has_barbell(s: _Support, q, q2, behind: dict) -> bool:
    """Whether ``find_barbell`` finds a word: a closure keyed by the first two
    runs (r1 in SCC(q), r2), the third run's states as bits over SCC(q2)
    kept to SCC(q2)'s ``behind``, stopping at (q, q2, q2)."""
    c1, comp, rows, local = s.comp[q], s.comp, s.rows, s.fwd[s.comp[q2]]

    def step(node, bits):
        n1, n2 = node
        for a in s.letters:
            img = local[a][bits]
            if img:
                for r1 in rows[a][n1]:
                    if comp[r1] == c1:
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
    barbells: dict   # (SCC, SCC') -> the first barbell (q in SCC, q' in SCC')
    heights: dict    # state -> height, minimal states at height 0


def barbell_graph(m) -> BarbellGraph:
    """The first barbell of each pair of SCCs, and the height of each state.

    Requires a graph without heavy cycles (``classify`` has already
    searched for one).  Barbells (q, q') are then only sought between cyclic
    states of distinct SCCs.  One forward closure per SCC of q gives the q'
    that some word takes q to while returning to q, one backward closure
    per SCC of q' the q that can end in q' while q' returns to itself
    (``behind``); for pairs passing both, a triple closure decides
    (``_has_barbell``), with no witness word.  One SCC's targets are held
    at a time; the barbells are put in declaration order at the end.  Of an
    automaton, SCCs are frozensets of state names; of a search structure,
    SCC numbers.

    Heights are monotone along reachability and the same across an SCC, so
    they are found per SCC in one pass over the component DAG in topological
    order: an SCC's height is the largest of its DAG predecessors' heights
    and one more than the height of the start of each barbell ending in it.
    Every barbell joins an SCC to a different SCC that it reaches, so the
    graph of barbells is acyclic by construction and needs no cycle check.
    """
    s = _support(m)
    found = []
    for c in s.fwd:  # the cyclic SCCs
        # by position of q in c, the cyclic q2 outside c with (q, q2)
        # reached from (q, q), one closure for every state of c
        members = s.sccs[c]
        targets = [[] for _ in members]
        ahead = _closure({q: s.bit[q] for q in members},
                         s.beside(s.rows, s.fwd[c]))
        for p2, bits in ahead.items():
            if not s.cyclic[s.comp[p2]] or s.comp[p2] == c:
                continue
            while bits:
                low = bits & -bits
                targets[low.bit_length() - 1].append(p2)
                bits ^= low
        first: set = set()
        for q in members:
            for q2 in sorted(targets[s.bit[q].bit_length() - 1]):
                c2 = s.comp[q2]
                if c2 in first:
                    continue
                behind = s.behind(c2)
                if behind.get(q, 0) & s.bit[q2] and _has_barbell(
                        s, q, q2, behind):
                    first.add(c2)
                    found.append((q, q2, c, c2))
    barbells = {(c, c2): (q, q2) for q, q2, c, c2 in sorted(found)}
    starts: dict = {}
    for c, c2 in barbells:
        starts.setdefault(c2, []).append(c)
    height: list = []
    for c, up in enumerate(s.up):  # each SCC after every SCC that reaches it
        height.append(max([height[u] for u in up]
                          + [height[c1] + 1 for c1 in starts.get(c, ())],
                          default=0))
    if s is m:
        return BarbellGraph(barbells, {q: height[s.comp[q]] for q in s.states})
    x, scc = s.names, [frozenset(s.names[q] for q in c) for c in s.sccs]
    return BarbellGraph({(scc[c], scc[c2]): (x[q], x[q2]) for (c, c2), (q, q2)
                         in barbells.items()}, {x[q]: height[s.comp[q]] for q in s.states})


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


def classify(m) -> GrowthReport:
    """Exponential (with a pumpable heavy-cycle witness) or polynomial
    of the maximal barbell-chain length, with the height partition, of an
    automaton or a search structure (``flow_graph``)."""
    s = _support(m)
    names = s.names
    removed = tuple(q for i, q in enumerate(names) if i not in s.keep)
    if not s.states:
        return GrowthReport("polynomial", 0, (), {}, removed)
    hc = has_heavy_cycle(s)  # the only heavy-cycle search of the run
    if hc is not None:
        q, v = hc
        u = s.word(s.alpha, [q])
        z = s.word([q], s.beta)
        return GrowthReport(
            "exponential", None, (),
            {"state": names[q], "u": u, "v": v, "z": z}, removed,
        )
    g = barbell_graph(s)
    h = g.heights
    k = max(h.values())
    partition = tuple(
        tuple(names[q] for q in s.states if h[q] == i) for i in range(k + 1)
    )
    witness = _polynomial_witness(s, g, k)
    return GrowthReport("polynomial", k, partition, witness, removed)


def _polynomial_witness(s: _Support, g: BarbellGraph, k: int) -> dict:
    if k == 0:
        return {"left": (), "loops": [], "links": [], "right": ()}
    h = g.heights
    # Walk down from the first top state.  Each step goes to the state p
    # one height lower, least by name, that reaches the start of a barbell
    # whose end reaches the current state, through the first such barbell;
    # reaching is read off the SCCs' ``coreach`` masks.
    path = [next(q for q in s.states if h[q] == k)]
    used = []
    while h[path[0]] > 0:
        here = s.coreach(path[0])
        into = [b for b in g.barbells.values() if here >> s.comp[b[1]] & 1]
        below = 0
        for q, _ in into:
            below |= s.coreach(q)
        p = min((p for c, members in enumerate(s.sccs) if below >> c & 1
                 for p in members if h[p] + 1 == h[path[0]]),
                key=s.names.__getitem__)
        path.insert(0, p)
        used.insert(0, next(b for b in into if s.coreach(b[0]) >> s.comp[p] & 1))
    # path[0] .. path[k], one barbell per step; words only for these k
    loops, lefts, rights = [], [], []
    for i, (q, q2) in enumerate(used):
        loops.append(find_barbell(s, q, q2))
        lefts.append(s.word([path[i]], [q]))
        rights.append(s.word([q2], [path[i + 1]]))
    links = [rights[i] + lefts[i + 1] for i in range(k - 1)]
    left = s.word(s.alpha, [path[0]])
    right = s.word([path[k]], s.beta)
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

    The machine is totalized first, and the report is that of its register
    flow (``flow_graph``).  A machine that ``validate`` refuses raises
    first (``require_valid``).
    """
    from .layering import make_total

    require_valid(m)
    total, _dfa = make_total(m)
    return classify(flow_graph(total))
