"""Copy-layer minimization pipeline for register transducers.

The chain runs: totalize; partition the nodes of the total machine's
register flow (growth.flow_graph: register x at state q is node q.x, and
each output letter b a constant k.b) by height; drop the bounded bottom
class into the states of the total machine, with one register per
register and higher class; and, only where check_layered rejects those
layers, convert the top layer from per-word-bounded copying to copyless
when its own updates copy (a copyless one is kept as it is) and splice the
recursively processed lower layers, each register's value machine under
the same rule, back in as a parallel product; every result leaves through
the register allocator, prune_sst_registers.  The copyless step guesses
occurrence profiles in an unambiguous nondeterministic machine, built
backward from the output, and determinizes it by tracking the alive forest
of its runs: one tree, its slots numbered in pre-order, its branches
composed with subst_apply and split into skeleton and boundary words by
decompose_copyless.  Both are sized by what they build: a register has as
many copies as its largest profile entry, and the slots are those of the
widest forest explored.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import count
from typing import Optional, Sequence

from .growth import GrowthReport, classify, flow_graph, is_simple
from .machines import (
    DFA, Fun, Lit, MachineError, NSSTF, Reg, SST, Substitution, check_layer_order,
    check_layered, compose_substitutions, explore, require_valid, subst_apply)

SINK = "__sink"

# Resource limits; each raises a MachineError naming its stage.
VALUATION_STATE_LIMIT = 20000      # remove_bounded_layer
# bounded_sstf_to_unambiguous: (state, profile) pairs that reach the output
PROFILE_LIMIT = 200000
# determinize_nsstf: states x slot registers built so far, since every state
# carries a substitution of all slot registers.
DETERMINIZATION_SIZE_LIMIT = 10 ** 6
# _lockstep (product_ssts, splice_layers, reimpose_domain): product states
PRODUCT_STATE_LIMIT = 100000


# ---------------------------------------------------------------------------
# Totalization and simplification
# ---------------------------------------------------------------------------


def is_total(m: SST) -> bool:
    return (all((q, a) in m.delta for q in m.states for a in m.input_alphabet)
            and all(q in m.output for q in m.states))


def make_total(m: SST) -> tuple:
    """Sink-complete the machine and return it with its domain automaton.

    The completed machine outputs the empty word where undefined; the domain
    automaton recognizes exactly the original domain, so the pair jointly
    determines the original function.
    """
    need_sink = any((q, a) not in m.delta
                    for q in m.states for a in m.input_alphabet)
    states = m.states + ((SINK,) if need_sink else ())
    dfa_delta = {}
    for q in states:
        for a in m.input_alphabet:
            dfa_delta[(q, a)] = m.delta.get((q, a), SINK)
    dfa = DFA(alphabet=m.input_alphabet, states=states, initial=m.initial,
              delta=dfa_delta, accepting=frozenset(m.output))
    if not need_sink and is_total(m):
        return m, dfa
    empty_sub = {x: () for x in m.registers}
    delta = dict(m.delta)
    update = {k: dict(v) for k, v in m.update.items()}
    for q in states:
        for a in m.input_alphabet:
            if (q, a) not in delta:
                delta[(q, a)] = SINK
                update[(q, a)] = dict(empty_sub)
    output = {q: m.output.get(q, ()) for q in states}
    total = SST(
        input_alphabet=m.input_alphabet, output_alphabet=m.output_alphabet,
        states=states, registers=m.registers, initial=m.initial,
        init_valuation=dict(m.init_valuation), delta=delta, update=update,
        output=output, funs=m.funs,
    )
    return total, dfa


def _fresh(base: str, taken) -> str:
    name = base
    while name in taken:
        name += "_"
    return name


def _simple_names(m: SST) -> tuple:
    """Names of the nodes of ``growth.flow_graph(m)``, which are the registers
    of ``to_simple(m)``; remove_bounded_layer reads a partition through them.

    Returns ``(names, const)``: ``const`` maps each letter b that ``m``
    writes to a fresh constant register, k.b unless a register took that
    name, and ``names`` maps (q, x) to "q.x" for each state q and register
    or constant x, or to a fresh name where an earlier pair took that one.
    Built on first use and kept on ``m``, like ``growth._support``.
    """
    if "_simple_names" in m.__dict__:
        return m.__dict__["_simple_names"]
    rhss = [rhs for s in m.update.values() for rhs in s.values()]
    used = {t.sym for rhs in rhss + list(m.output.values()) for t in rhs
            if isinstance(t, Lit)}
    taken, const = set(m.registers), {}
    for b in sorted(used):
        const[b] = _fresh("k.%s" % b, taken)
        taken.add(const[b])
    pairs = [(q, x) for q in m.states for x in m.registers + tuple(const.values())]
    plain = ["%s.%s" % pair for pair in pairs]
    taken, seen, names = set(plain), set(), {}
    for pair, name in zip(pairs, plain):
        if name in seen:
            name = _fresh(name, taken)
            taken.add(name)
        seen.add(name)
        names[pair] = name
    m.__dict__["_simple_names"] = names, const
    return names, const


def to_simple(m: SST) -> SST:
    """Equivalent single-state machine with letter-free updates and output.

    Built in one pass from the total machine: register (q, x) holds the
    value of x when q is the current state and the empty word otherwise,
    and constant (q, k.b) holds the letter b when q is.  The update of
    (q, x) on a concatenates x's update at (p, a) over the sorted
    predecessors p of q, with Reg(y) read as (p, y) and Lit(b) as (p, k.b);
    at most one term is nonempty along a run.  The output and the initial
    valuation are built the same way.  It is the reference for
    growth.flow_graph, which counts the same flow without building it.
    """
    if m.funs:
        raise MachineError("cannot simplify a machine with external functions")
    if not is_total(m):
        raise MachineError("simplification requires a total machine")
    names, const = _simple_names(m)
    reg = {pair: Reg(name) for pair, name in names.items()}

    def rename(p, rhs):
        return [reg[(p, t.name if type(t) is Reg else const[t.sym])] for t in rhs]

    keep = {k: (Reg(k),) for k in const.values()}    # a constant keeps its letter
    rows = {key: {**s, **keep} for key, s in m.update.items()}
    value = {**m.init_valuation, **{k: (b,) for b, k in const.items()}}
    update = {("s", a): dict.fromkeys(names.values(), ()) for a in m.input_alphabet}
    for (p, a), q in sorted(m.delta.items()):  # each q's predecessors p in order
        new = update[("s", a)]
        for x, rhs in rows[(p, a)].items():
            if rhs:
                new[names[(q, x)]] += tuple(rename(p, rhs))
    return SST(
        input_alphabet=m.input_alphabet, output_alphabet=m.output_alphabet,
        states=("s",), registers=tuple(names.values()), initial="s",
        init_valuation={name: tuple(value[x]) if q == m.initial else ()
                        for (q, x), name in names.items()},
        delta={("s", a): "s" for a in m.input_alphabet}, update=update,
        output={"s": tuple(tok for q in m.states for tok in rename(q, m.output[q]))},
        funs=m.funs,
    )


def prune_sst_registers(m: SST, layers: tuple) -> tuple:
    """Register allocation: each layer keeps as many registers as it has
    live at one state, the least for these states.

    Works in four steps over the reachable states, with register sets as
    bit masks.  (1) The registers that may be nonempty at each state, a
    least fixpoint forward from the initial valuation; the others are forced
    empty there.  (2) The registers live at each state: read by its output,
    or by the update of a register live at a successor, reads of
    forced-empty registers ignored.  (3) At each live set, each layer's live
    registers are numbered 0, 1, ... in register order; slot j of a layer is
    one register, named after the layer's j-th register live somewhere.
    (4) Every update, output and initial value is renamed through
    subst_apply, reads by the source state's numbering and writes by the
    target's (an update is a simultaneous substitution, so this costs
    nothing); a slot numbering nothing is emptied, and reads of registers
    dead at a state are dropped.  Unreachable states are dropped too; a
    machine with every register live at every state comes back as it is.
    Returns the machine and its layers, as many as before, so an emptied
    layer stays.
    """
    bit = {x: 1 << i for i, x in enumerate(m.registers)}
    full = (1 << len(m.registers)) - 1
    # each transition once: (target, registers given a letter, [(x, registers x reads)])
    edges: dict = {}
    for key, p in m.delta.items():
        lettered, reads = 0, []
        for x, rhs in m.update[key].items():
            if rhs:
                used = 0
                for t in rhs:
                    if type(t) is Reg:
                        used |= bit[t.name]
                    else:
                        lettered |= bit[x]
                if used:
                    reads.append((bit[x], used))
        edges.setdefault(key[0], []).append((p, lettered, reads))
    filled = {m.initial: sum(bit[x] for x, w in m.init_valuation.items() if w)}
    work = [m.initial]
    while work:
        q = work.pop()
        here = filled[q]
        for p, new, reads in edges.get(q, ()):
            for x, used in reads:
                if used & here:
                    new |= x
            there = filled.get(p)
            if there is None or new & ~there:
                filled[p] = new if there is None else there | new
                work.append(p)
    live, preds = {}, {}
    for q, here in filled.items():
        live[q] = here & sum({bit[t.name] for t in m.output.get(q, ()) if type(t) is Reg})
        for p, _lettered, reads in edges.get(q, ()):
            preds.setdefault(p, []).append((q, reads))
    work, waiting = list(filled), set(filled)
    while work:
        p = work.pop()
        waiting.discard(p)
        there = live[p]
        for q, reads in preds.get(p, ()):
            need = 0
            for x, used in reads:
                if x & there:
                    need |= used
            need &= filled[q] & ~live[q]
            if need:
                live[q] |= need
                if q not in waiting:
                    waiting.add(q)
                    work.append(q)
    if len(filled) == len(m.states) and all(v == full for v in live.values()):
        return m, tuple(tuple(layer) for layer in layers)   # nothing to change
    masks = set(live.values())
    level = {x: i for i, layer in enumerate(layers) for x in layer}
    somewhere = [[] for _ in layers]    # slot j of layer i is named somewhere[i][j]
    anywhere = 0
    for v in masks:
        anywhere |= v
    for x, b in bit.items():
        if anywhere & b:
            somewhere[level[x]].append(x)
    slot = {}    # live mask -> its live registers' slots, numbered in register order
    for v in masks:
        free = [iter(regs) for regs in somewhere]
        slot[v] = {x: next(free[level[x]]) for x, b in bit.items() if v & b}
    kept = {s for at in slot.values() for s in at.values()}
    registers = tuple(x for x in m.registers if x in kept)
    empty = dict.fromkeys(m.registers, ())
    renaming = {v: {**empty, **{x: (Reg(s),) for x, s in at.items()}}
                for v, at in slot.items()}

    def row(q, rename, values):
        out = dict.fromkeys(registers, ())
        for x, s in slot[live[q]].items():
            if values[x]:
                out[s] = subst_apply(rename, values[x])
        return out

    allocated = SST(
        input_alphabet=m.input_alphabet, output_alphabet=m.output_alphabet,
        states=tuple(q for q in m.states if q in filled), registers=registers,
        initial=m.initial,
        init_valuation=row(m.initial, empty, m.init_valuation),
        delta={key: p for key, p in m.delta.items() if key[0] in filled},
        update={key: row(p, renaming[live[key[0]]], m.update[key])
                for key, p in m.delta.items() if key[0] in filled},
        output={q: subst_apply(renaming[live[q]], rhs)
                for q, rhs in m.output.items() if q in filled},
        funs=m.funs,
    )
    return allocated, tuple(tuple(x for x in regs if x in kept) for regs in somewhere)


def prune_dead_registers(m: SST) -> SST:
    """prune_sst_registers for a simple machine.  Its one state numbers
    every live register after itself, so nothing is renamed, and the kept
    registers are exactly the states of its trimmed flow automaton.
    to_k_layered does not call it; the benchmark's tracer
    (perfbench/spans.py) names it."""
    if not is_simple(m):
        raise MachineError("register pruning expects a simple machine")
    return prune_sst_registers(m, (m.registers,))[0]


# ---------------------------------------------------------------------------
# Removing the bounded bottom layer
# ---------------------------------------------------------------------------


def remove_bounded_layer(m: SST, partition: Sequence[Sequence[str]]) -> tuple:
    """Hardcode the bottom height class of a total machine into its states.

    ``partition`` holds the height classes of the registers of
    ``to_simple(m)``, named by ``_simple_names``.  A new state pairs a state
    q with the values of the registers x whose (q, x) is in the bottom class
    (bounded, so the closure is finite); updates and output inline them as
    letters.  A register x whose (q, x) is in class i >= 1 lives in x@i, and
    one in no class (always empty, or never output) is dropped.  Returns the
    machine and its layers, classes 1, 2, ..., of at most |registers| each.
    """
    simple = _simple_names(m)[0]
    level = {x: i for i, cls in enumerate(partition) for x in cls}
    home = {q: {x: level.get(simple[(q, x)]) for x in m.registers}
            for q in m.states}
    cells = [(x, i) for i in range(1, len(partition)) for x in m.registers
             if any(home[q][x] == i for q in m.states)]
    layers = tuple(tuple(_copy_reg(x, i) for x, i in cells if i == j)
                   for j in range(1, len(partition))) or ((),)
    init = {x: tuple(m.init_valuation[x]) for x in m.registers}

    def inline(q, val) -> dict:
        # each register read at q: its bottom value as letters, its x@i, or
        # nothing when it is in no class
        return {x: tuple(map(Lit, val[x])) if i == 0
                else () if i is None else (Reg(_copy_reg(x, i)),)
                for x, i in home[q].items()}

    def layered(q, value_of) -> dict:
        # x@i holds x where (q, x) is in class i and is empty elsewhere
        return {_copy_reg(x, i): value_of(x) if home[q][x] == i else ()
                for x, i in cells}

    def key_of(q, value_of):
        # q with the (register, value) pairs of its bottom class
        return q, tuple((x, value_of(x)) for x in m.registers if home[q][x] == 0)

    init_key = key_of(m.initial, init.__getitem__)
    names = {init_key: "v0"}
    letters = sorted(m.input_alphabet)
    delta, update, output = {}, {}, {}

    def successors(key):
        q, here = key[0], names[key]
        sub = inline(q, dict(key[1]))
        output[here] = subst_apply(sub, m.output[q])
        for a in letters:
            q2, s = m.delta[(q, a)], m.update[(q, a)]
            # a bottom register reads only bottom ones: flow never descends
            nk = key_of(q2, lambda x: tuple(t.sym for t in subst_apply(sub, s[x])))
            delta[(here, a)] = names.setdefault(nk, "v%d" % len(names))
            update[(here, a)] = layered(q2, lambda x: subst_apply(sub, s[x]))
            yield nk

    order = explore([init_key], successors, VALUATION_STATE_LIMIT,
                    "bottom-layer valuation closure")
    return SST(
        input_alphabet=m.input_alphabet, output_alphabet=m.output_alphabet,
        states=tuple(names[k] for k in order),
        registers=tuple(x for layer in layers for x in layer), initial="v0",
        init_valuation=layered(m.initial, init.__getitem__),
        delta=delta, update=update, output=output,
    ), layers


# ---------------------------------------------------------------------------
# Copyless substitution decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SkeBegFol:
    """A copyless substitution split into skeleton plus boundary words.

    ``ske`` maps each register to the register word of its image (letters
    erased); ``beg`` holds the maximal letter prefix of each image; ``fol``
    holds, per source register, the letter block following its unique
    occurrence.  Reassembling beg/ske/fol reproduces the substitution.
    Boundary words are token tuples: letters, function calls and references
    to registers the substitution does not name, such as the slot registers
    of determinize_nsstf.
    """

    ske: dict  # register -> tuple of register names
    beg: dict  # register -> token tuple
    fol: dict  # register -> token tuple


def decompose_copyless(s: Substitution) -> SkeBegFol:
    """Split ``s`` at its references to registers it names; every other
    token is boundary material.  Raises if a register occurs twice."""
    ske, beg, fol = {}, {}, {}
    for x in sorted(s):
        rhs = s[x]
        names = []
        cut = 0   # where the boundary word after the last name starts
        for i, t in enumerate(rhs):
            if type(t) is Reg and t.name in s:
                if names:
                    fol[names[-1]] = tuple(rhs[cut:i])
                else:
                    beg[x] = tuple(rhs[:i])
                names.append(t.name)
                cut = i + 1
        if names:
            fol[names[-1]] = tuple(rhs[cut:])
        else:
            beg[x] = tuple(rhs)
        ske[x] = tuple(names)
    if len(fol) != sum(map(len, ske.values())):
        raise MachineError("substitution is not copyless")
    for y in ske:
        fol.setdefault(y, ())
    return SkeBegFol(ske, beg, fol)


# ---------------------------------------------------------------------------
# Extracting the top layer as a machine with external functions
# ---------------------------------------------------------------------------


def value_sst(m: SST, x: str, lower: tuple) -> SST:
    """Total machine computing the current value of a lower-layer register."""
    update = {key: {u: s[u] for u in lower} for key, s in m.update.items()}
    return SST(
        input_alphabet=m.input_alphabet, output_alphabet=m.output_alphabet,
        states=m.states, registers=lower, initial=m.initial,
        init_valuation={u: tuple(m.init_valuation[u]) for u in lower},
        delta=dict(m.delta), update=update,
        output={q: (Reg(x),) for q in m.states},
    )


def extract_sstf(m: SST, layers: Sequence[Sequence[str]]) -> tuple:
    """Split the top layer off as a machine calling the lower layers.

    Returns (top machine with external functions, binding of function
    names to source registers).  Each function f_x stands for the value x
    held *before* the last letter of its argument, which is exactly what a
    register reference inside an update denotes; output references to lower
    registers go through refresh registers holding the current value instead.
    """
    if check_layer_order(m, layers):
        raise MachineError("layer order violated")
    if len(layers) == 1:
        return m, {}
    lower = tuple(x for layer in layers[:-1] for x in layer)
    top = tuple(layers[-1])
    fun_of = {x: "f_%s" % x for x in lower}
    binding = {fun_of[x]: x for x in lower}
    # a lower register read in an update becomes a call, a top one stays
    calls = {x: (Fun(fun_of[x]),) if x in fun_of else (Reg(x),)
             for x in m.registers}

    hats = {}
    for q, rhs in m.output.items():
        for tok in rhs:
            if isinstance(tok, Reg) and tok.name in fun_of and tok.name not in hats:
                hats[tok.name] = _fresh("%s.val" % tok.name, set(m.registers))
    registers = top + tuple(hats[x] for x in sorted(hats))
    update = {}
    for key, s in m.update.items():
        sub = {y: subst_apply(calls, s[y]) for y in top}
        for x in sorted(hats):
            sub[hats[x]] = subst_apply(calls, s[x])
        update[key] = sub
    refresh = {x: (Reg(hats.get(x, x)),) for x in m.registers}
    output = {q: subst_apply(refresh, rhs) for q, rhs in m.output.items()}
    init = {y: tuple(m.init_valuation[y]) for y in top}
    for x in sorted(hats):
        init[hats[x]] = tuple(m.init_valuation[x])
    top_machine = SST(
        input_alphabet=m.input_alphabet, output_alphabet=m.output_alphabet,
        states=m.states, registers=registers, initial=m.initial,
        init_valuation=init, delta=dict(m.delta), update=update,
        output=output, funs=tuple(sorted(fun_of.values())),
    )
    return top_machine, binding


# ---------------------------------------------------------------------------
# Bounded copies -> unambiguous copyless nondeterminism
# ---------------------------------------------------------------------------


def _copy_reg(x: str, i: int) -> str:
    return "%s@%d" % (x, i)


def _number_copies(rhs, used: Counter) -> tuple:
    """``rhs`` with each register reference replaced by its next unused copy."""
    out = []
    for t in rhs:
        if isinstance(t, Reg):
            used[t.name] += 1
            t = Reg(_copy_reg(t.name, used[t.name]))
        out.append(t)
    return tuple(out)


def bounded_sstf_to_unambiguous(m: SST) -> NSSTF:
    """Guess, per step, how often each register still reaches the output.

    States pair the original state with an occurrence profile; registers are
    indexed copies.  The profiles obey the backward recurrence g1 = occ . g2,
    which forces a unique accepting run, so the machine is grown backward
    from the output: on a copy-bounded machine only finitely many profiles
    reach it, and a forward pass from the initial state keeps the reachable
    ones.  Each register gets as many copies as its largest entry among the
    profiles kept.  The updates distribute copy indices left-to-right across
    targets taken in register order, which keeps them copyless.
    """
    if not is_total(m):
        raise MachineError("the bounded machine must be total")
    regs = tuple(sorted(m.registers))
    index = {x: i for i, x in enumerate(regs)}
    # q2 -> (q, a, per register x the pairs (index of y, occurrences of x in s[y]))
    preds: dict = {}
    for (q, a), q2 in m.delta.items():
        occ = [Counter() for _ in regs]
        for j, y in enumerate(regs):
            for tok in m.update[(q, a)][y]:
                if isinstance(tok, Reg):
                    occ[index[tok.name]][j] += 1
        preds.setdefault(q2, []).append((q, a, [tuple(c.items()) for c in occ]))
    finals = {}
    for q, rhs in m.output.items():
        need = Counter(t.name for t in rhs if isinstance(t, Reg))
        finals[(q, tuple(need[x] for x in regs))] = rhs
    edges: dict = {}   # node -> [(letter, successor node)]

    def predecessors(node):
        g2 = node[1]
        for q, a, occ in preds.get(node[0], ()):
            g1 = tuple(sum(n * g2[j] for j, n in row) for row in occ)
            edges.setdefault((q, g1), []).append((a, node))
            yield q, g1

    stage = "occurrence-profile machine"
    coreach = explore(finals, predecessors, PROFILE_LIMIT, stage)
    nodes = explore([n for n in coreach if n[0] == m.initial],
                    lambda n: (n2 for _a, n2 in edges.get(n, ())), len(coreach), stage)
    names = {n: "%s|%s" % (n[0], ",".join("%s=%d" % xv for xv in zip(regs, n[1])))
             for n in nodes}
    copies = {x: range(1, max((n[1][i] for n in nodes), default=0) + 1)
              for i, x in enumerate(regs)}
    update = {}
    for n in nodes:
        for a, n2 in edges.get(n, ()):
            s = m.update[(n[0], a)]
            used: Counter = Counter()
            update[(names[n], a, names[n2])] = {
                _copy_reg(y, j): _number_copies(s[y], used) if j <= k else ()
                for y, k in zip(regs, n2[1]) for j in copies[y]}
    return NSSTF(
        input_alphabet=m.input_alphabet, output_alphabet=m.output_alphabet,
        states=tuple(names.values()),
        registers=tuple(_copy_reg(x, i) for x in regs for i in copies[x]),
        funs=m.funs,
        initial={names[n]: {_copy_reg(x, i): tuple(m.init_valuation[x])
                            if i <= k else ()
                            for x, k in zip(regs, n[1]) for i in copies[x]}
                 for n in nodes if n[0] == m.initial},
        transitions=tuple(sorted(update)), update=update,
        output={names[n]: _number_copies(rhs, Counter())
                for n, rhs in finals.items() if n in names},
    )


# ---------------------------------------------------------------------------
# Alive-forest determinization
# ---------------------------------------------------------------------------

# Forest encoding: a state is a tuple of (initial state, node) roots, where a
# node is (leaf nsstf state or None, ske items, children).  The ske items
# describe the skeleton of the substitution composed along the deterministic
# branch ending at the node; its boundary words live in the result registers
# addressed by the node's pre-order index (its slot), counted over the roots
# in order.  Children are sorted by least leaf, so the leftmost leaf of a
# subtree is its least one.


# Slot register names end in .beg or .fol, so they differ from the x@i
# registers of bounded_sstf_to_unambiguous: decompose_copyless tells them
# apart by whether the substitution names them.
def _slot_regs(slot: int, x: str):
    return "s%d.%s.beg" % (slot, x), "s%d.%s.fol" % (slot, x)


class _Keep(dict):
    """A substitution that maps each register it does not name to itself."""

    def __missing__(self, name):
        return (Reg(name),)


def _slot_sub(slot: int, ske_items) -> _Keep:
    """The node substitution whose boundary words are the slot's registers:
    x := s.x.beg y1 s.y1.fol y2 s.y2.fol ... for the skeleton y1 y2 ... of x."""
    sub = _Keep()
    for x, names in ske_items:
        rhs = [Reg(_slot_regs(slot, x)[0])]
        for y in names:
            rhs += (Reg(y), Reg(_slot_regs(slot, y)[1]))
        sub[x] = tuple(rhs)
    return sub


def _least_leaf(tree):
    while tree[0] is None:
        tree = tree[3][0]
    return tree[0]


def determinize_nsstf(m: NSSTF) -> SST:
    """Deterministic copyless machine tracking all surviving runs.

    The state stores the shape of the alive forest of initial runs with the
    skeletons of the substitutions along its deterministic branches; their
    boundary words live in per-slot registers.  Extending by a letter walks
    the forest once in pre-order: it adds the successor transitions, discards
    dead subtrees and composes unary chains with compose_substitutions
    (subst_apply on each right-hand side), a node's slot registers passing
    through as boundary material, into a tree of substitutions over the old
    slot registers; numbering that tree in pre-order gives the new slots,
    and decompose_copyless splits each composite into the skeleton kept in
    the state and the boundary words the slots receive.  Slot registers cover the widest explored forest;
    updates empty unfilled slots.  The substitution of a (slot, skeleton)
    pair and its decomposition, like those of each transition, are built
    once per call and shared, since neither is changed after it is built.
    to_k_layered calls this only on top layers whose own updates copy.
    """
    regs = tuple(sorted(m.registers))
    succ: dict = {}
    for (q, a, q2) in sorted(m.transitions):
        s = m.update[(q, a, q2)]
        succ.setdefault((q, a), []).append((q2, s, decompose_copyless(s), ()))
    init_forest = tuple(
        (q, (q, tuple((x, (x,)) for x in regs), ())) for q in sorted(m.initial))
    inits = {q: _Keep({x: tuple(map(Lit, w)) for x, w in val.items()})
             for q, val in m.initial.items()}
    regs_of: dict = {}   # slot -> {x: its (beg, fol) slot registers}
    nodes: dict = {}     # (slot, ske items) -> (_slot_sub, its decomposition)

    def slot_regs(slot):
        got = regs_of.get(slot)
        if got is None:
            got = regs_of[slot] = {x: _slot_regs(slot, x) for x in regs}
        return got

    def node_sub(key):
        got = nodes.get(key)
        if got is None:
            sub = _slot_sub(*key)
            got = nodes[key] = sub, decompose_copyless(sub)
        return got

    def extend(forest, a):
        """New forest plus the substitution of its slots."""
        old_slot = count()
        leaves: list = []

        def grow(node):
            """Tree (leaf, substitution, its decomposition or None, children)
            of the node's alive part after ``a``, or None; dead subtrees are
            still numbered."""
            leaf, ske, children = node
            here, sbf = node_sub((next(old_slot), ske))
            if leaf is None:
                kids = [k for k in map(grow, children) if k is not None]
            else:
                kids = succ.get((leaf, a), [])
                leaves.extend(k[0] for k in kids)
            if len(kids) == 1:
                leaf, below, _sbf, grand = kids[0]
                return leaf, compose_substitutions(here, below), None, grand
            if not kids:
                return None
            return None, here, sbf, tuple(sorted(kids, key=_least_leaf))

        grown = [(qi, t) for qi, t in ((qi, grow(node)) for qi, node in forest)
                 if t is not None]
        if len(set(leaves)) != len(leaves):
            raise MachineError(
                "determinization found two runs reaching one state "
                "(machine is ambiguous)")
        sub: dict = {}
        new_slot = count()

        def emit(tree):
            nonlocal most
            leaf, s, sbf, children = tree
            if sbf is None:
                sbf = decompose_copyless(s)
            slot = next(new_slot)
            most = max(most, slot + 1)
            for x, (b, f) in slot_regs(slot).items():
                sub[b], sub[f] = sbf.beg[x], sbf.fol[x]
            return (leaf, tuple((x, sbf.ske[x]) for x in regs),
                    tuple(map(emit, children)))

        return tuple((qi, emit(t)) for qi, t in grown), sub

    def output_of(forest):
        """The output expression of the one final leaf, or None: its output
        taken through each node substitution of its branch, last node first,
        then through the initial valuation of the branch's root."""
        finals = []
        slot = count()

        def walk(node, branch):
            branch = branch + (node_sub((next(slot), node[1]))[0],)
            if node[0] in m.output:
                finals.append((node[0], branch))
            for c in node[2]:
                walk(c, branch)

        for qi, node in forest:
            walk(node, (inits[qi],))
        if not finals:
            return None
        if len(finals) > 1:
            raise MachineError("two final leaves: machine is ambiguous")
        leaf, branch = finals[0]
        toks = m.output[leaf]
        for s in reversed(branch):
            toks = subst_apply(s, toks)
        return toks

    names = {init_forest: "d0"}
    most = len(init_forest)   # slots of the widest forest built so far
    letters = sorted(m.input_alphabet)
    delta = {}
    update = {}
    output = {}

    def successors(forest):
        here = names[forest]
        toks = output_of(forest)
        if toks is not None:
            output[here] = toks
        for a in letters:
            new_forest, sub = extend(forest, a)
            delta[(here, a)] = names.setdefault(new_forest, "d%d" % len(names))
            update[(here, a)] = sub
            width = 2 * len(regs) * most
            if len(names) * width > DETERMINIZATION_SIZE_LIMIT:
                raise MachineError(
                    "determinization exceeded %d states x slot registers "
                    "(%d states, %d slot registers)"
                    % (DETERMINIZATION_SIZE_LIMIT, len(names), width))
            yield new_forest

    order = explore([init_forest], successors, DETERMINIZATION_SIZE_LIMIT,
                    "determinization")
    registers = tuple(
        r for slot in range(most) for pair in slot_regs(slot).values() for r in pair)
    for sub in update.values():
        for r in registers:
            sub.setdefault(r, ())
    return SST(
        input_alphabet=m.input_alphabet, output_alphabet=m.output_alphabet,
        states=tuple(names[f] for f in order), registers=registers,
        initial="d0", init_valuation={r: () for r in registers},
        delta=delta, update=update, output=output, funs=m.funs,
    )


# ---------------------------------------------------------------------------
# Splicing layers back together
# ---------------------------------------------------------------------------


def _lockstep(parts: Sequence, name, update_of, output_of, **fields) -> SST:
    """Synchronized product of deterministic parts reading letters together.

    ``parts`` are an SST followed by SSTs or DFAs; a letter is skipped when
    some part has no transition on it.  ``name`` renders a tuple of part
    states, ``update_of(states, letter)`` gives the product update and
    ``output_of(states)`` its output (None where undefined); ``fields`` give
    the remaining SST fields.
    """
    letters = sorted(parts[0].input_alphabet)
    delta, update, output = {}, {}, {}

    def successors(combo):
        here = name(combo)
        out = output_of(combo)
        if out is not None:
            output[here] = out
        for a in letters:
            if all((q, a) in p.delta for p, q in zip(parts, combo)):
                nxt = tuple(p.delta[(q, a)] for p, q in zip(parts, combo))
                delta[(here, a)] = name(nxt)
                update[(here, a)] = update_of(combo, a)
                yield nxt

    order = explore([tuple(p.initial for p in parts)], successors,
                    PRODUCT_STATE_LIMIT, "synchronized product")
    states = tuple(name(c) for c in order)
    return SST(input_alphabet=parts[0].input_alphabet, states=states,
               initial=states[0], delta=delta, update=update, output=output,
               **fields)


def product_ssts(components: dict) -> tuple:
    """Parallel product of total machines computing all of them at once.

    ``components`` maps names to (machine, layers).  Returns the product,
    its aligned layer partition, and per-component output expressions
    indexed by product state (registers renamed into the product).
    """
    names = sorted(components)
    machines = {n: components[n][0] for n in names}
    layer_lists = {n: components[n][1] for n in names}

    def rereg(n, x):
        return "%s/%s" % (n, x)

    registers = tuple(rereg(n, x) for n in names for x in machines[n].registers)
    depth = max(len(layer_lists[n]) for n in names)
    layers = tuple(
        tuple(rereg(n, x)
              for n in names
              for x in (layer_lists[n][i] if i < len(layer_lists[n]) else ()))
        for i in range(depth)
    )
    state_name = "&".join
    renamed = {n: {x: (Reg(rereg(n, x)),) for x in machines[n].registers}
               for n in names}

    def update_of(combo, a):
        sub = {}
        for n, q in zip(names, combo):
            for x, rhs in machines[n].update[(q, a)].items():
                sub[rereg(n, x)] = subst_apply(renamed[n], rhs)
        return sub

    expr = {n: {} for n in names}

    def output_of(combo):
        for n, q in zip(names, combo):
            out = machines[n].output.get(q)
            if out is None:
                raise MachineError("component %r is not total at %r" % (n, q))
            expr[n][state_name(combo)] = subst_apply(renamed[n], out)
        return ()

    init_val = {}
    for n in names:
        for x in machines[n].registers:
            init_val[rereg(n, x)] = tuple(machines[n].init_valuation[x])
    product = _lockstep([machines[n] for n in names], state_name, update_of,
                        output_of, output_alphabet=machines[names[0]].output_alphabet,
                        registers=registers, init_valuation=init_val)
    return product, layers, expr


def splice_layers(top: SST, lower: SST, lower_layers: tuple,
                  fun_expr: dict) -> tuple:
    """Inline external function calls as lower-layer register expressions.

    ``fun_expr`` maps every function name of ``top`` to per-lower-state token
    expressions whose pre-step value equals the call's result at that step.
    Returns the product machine and its layer partition: the lower layers
    followed by the top registers, or these alone for a top without calls.
    """
    if not top.funs:
        return top, (top.registers,)
    for f in top.funs:
        if f not in fun_expr:
            raise MachineError("unbound function name %r" % f)

    def t_reg(x):
        return "T/%s" % x

    renamed = {x: (Reg(t_reg(x)),) for x in top.registers}
    registers = lower.registers + tuple(t_reg(x) for x in top.registers)
    layers = lower_layers + (tuple(t_reg(x) for x in top.registers),)
    init_val = {x: tuple(lower.init_valuation[x]) for x in lower.registers}
    for x in top.registers:
        init_val[t_reg(x)] = tuple(top.init_valuation[x])

    def update_of(pair, a):
        qt, ql = pair
        sub = dict(lower.update[(ql, a)])
        for y, rhs in top.update[(qt, a)].items():
            toks: list = []
            for t in rhs:
                if isinstance(t, Fun):
                    toks.extend(fun_expr[t.name][ql])
                elif isinstance(t, Reg):
                    toks.append(Reg(t_reg(t.name)))
                else:
                    toks.append(t)
            sub[t_reg(y)] = tuple(toks)
        return sub

    def output_of(pair):
        if pair[0] not in top.output:
            return None
        return subst_apply(renamed, top.output[pair[0]])

    machine = _lockstep((top, lower), lambda pair: "%s&&%s" % pair, update_of,
                        output_of, output_alphabet=top.output_alphabet,
                        registers=registers, init_valuation=init_val)
    return machine, layers


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayeredResult:
    """What to_k_layered and minimize_marbles build.

    ``kind`` is "exponential" (only ``report`` is set), "layered" (an SST
    with ``k`` + 1 layers) or "marble" (a marble machine with at most ``k``
    marbles, ``layers`` None).
    """

    kind: str
    report: GrowthReport
    k: Optional[int] = None
    machine: Optional[object] = None
    layers: Optional[tuple] = None


def reimpose_domain(m: SST, dfa: DFA) -> SST:
    """Restrict a total machine's domain to the automaton's language."""
    if set(dfa.accepting) == set(dfa.states):
        return m

    return _lockstep(
        (m, dfa), lambda pair: "%s##%s" % pair,
        lambda pair, a: m.update[(pair[0], a)],
        lambda pair: m.output.get(pair[0]) if pair[1] in dfa.accepting else None,
        output_alphabet=m.output_alphabet, registers=m.registers,
        init_valuation=dict(m.init_valuation), funs=m.funs)


def _bounded_to_layered(m: SST, layers: tuple, dump=None) -> tuple:
    """Per-word-bounded layers to copyless layers, bottom-up.

    The top layer, split off by extract_sstf, is converted to copyless only
    when its own updates copy, that is when check_layered rejects it read
    as one layer; otherwise it is spliced in as it is, function tokens and
    all.  Each lower register's value machine goes through to_k_layered,
    so the same rule holds at every level.  The spliced-in components
    compute the *current* lower-register values: a register reference
    inside a plain update is read before the step, which cancels the
    one-letter shift the external-function tokens carry.
    """
    top, binding = extract_sstf(m, layers)
    if check_layered(top, (top.registers,)):
        det = determinize_nsstf(bounded_sstf_to_unambiguous(top))
        _dump(dump, "det-layer0", det)
    else:
        det = top
    if len(layers) == 1:
        return det, (det.registers,)
    lower = tuple(x for layer in layers[:-1] for x in layer)
    components = {}
    for fname in sorted(binding):
        sub = _to_k_layered(value_sst(m, binding[fname], lower))
        if sub.kind != "layered":
            raise MachineError("lower-layer value machine classified exponential")
        components[fname] = (sub.machine, sub.layers)
    product, p_layers, expr = product_ssts(components)
    return splice_layers(det, product, p_layers, expr)


def _dump(dump, stage: str, machine, layers: Optional[tuple] = None) -> None:
    if dump is None:
        return
    from .machine_io import emit_machine
    import os

    emit_machine(machine, os.path.join(dump, "%s.json" % stage), layers)


def to_k_layered(m: SST, dump=None) -> LayeredResult:
    """Rewrite any register transducer into a minimal-layer layered one.

    Returns an exponential growth report when no bounded-layer form exists;
    otherwise a machine with growth-degree-minus-one layers, its partition,
    and the growth report.  The copyless construction runs only when
    check_layered rejects the bounded machine; otherwise, degree 0 included,
    that machine is the result.  At the end the original domain is re-imposed
    and the registers are allocated by prune_sst_registers.  A machine that
    ``validate`` refuses raises first (``require_valid``); the value machines
    of the lower layers, built here, go through ``_to_k_layered`` unchecked.
    """
    require_valid(m)
    return _to_k_layered(m, dump)


def _to_k_layered(m: SST, dump=None) -> LayeredResult:
    if m.funs:
        raise MachineError("layer minimization expects a plain machine")
    total, dfa = make_total(m)
    _dump(dump, "total", total)
    if dump is not None:
        _dump(dump, "simple", to_simple(total))
    report = classify(flow_graph(total))
    if report.kind == "exponential":
        return LayeredResult("exponential", report)
    machine, layers = remove_bounded_layer(total, report.partition)
    _dump(dump, "bounded", machine, layers)
    if check_layered(machine, layers):
        machine, layers = _bounded_to_layered(machine, layers, dump=dump)
    machine, layers = prune_sst_registers(reimpose_domain(machine, dfa), layers)
    _dump(dump, "layered", machine, layers)
    bad = check_layered(machine, layers)
    if bad:
        raise MachineError("internal error: result not layered: %s" % bad[0])
    return LayeredResult("layered", report, k=len(layers) - 1,
                         machine=machine, layers=layers)


def minimize_marbles(t, dump=None) -> LayeredResult:
    """Rebuild a marble transducer, or a two-way one (``marble_to_sst``
    takes it as its marble form), with the least possible mark count.

    Returns the exponential result of to_k_layered unchanged, or a "marble"
    result whose ``k`` is that least count.
    """
    from .mt2sst import marble_to_sst
    from .sst2mt import _layered_to_marble

    sst = marble_to_sst(t)
    _dump(dump, "crossing-sst", sst)
    res = to_k_layered(sst, dump=dump)
    if res.kind == "exponential":
        return res
    machine = _layered_to_marble(res.machine, res.layers)
    _dump(dump, "marble", machine)
    return LayeredResult("marble", res.report, k=res.k, machine=machine)
