"""Register transducers to marble transducers.

The marble machine materializes the recursive evaluation of register values:
to emit the value a register holds at a position, it scans that position's
update expression, emitting letters and recursing leftward on register
references, parking a mark to find its place again afterwards.  For layered
machines, recursion within one layer needs no mark (the layer discipline
makes the resume point unique) and marks are spent only when descending a
layer, which caps the stack depth at the layer count.  Scanning an update
needs the one-way state before the letter under the head: the walk carries
it across right moves and recovers it after left moves with a backtracking
lookbehind that stays left of its landing position, where no mark lies.
"""

from __future__ import annotations

from itertools import takewhile
from typing import Sequence

from .machines import (
    ACT_LEFT,
    ACT_LIFT,
    ACT_RIGHT,
    DFA,
    LEFT_END,
    Lit,
    MachineError,
    MarbleTransducer,
    Reg,
    RIGHT_END,
    SST,
    act_drop,
    check_layered,
    explore,
    require_valid,
)
from .layering import make_total

# Walker states _build_walker may create; the size depends on the machine
# only: 3,772 for a 17-state × 17-register layered machine, 5,711 for
# 26 × 22, 9,501 for 35 × 17 and 575,552 for 660 × 34 (benchmark pool
# members 15, 26, 29 and 7).
WALKER_STATE_LIMIT = 10 ** 6


# ---------------------------------------------------------------------------
# Backtracking lookbehind
# ---------------------------------------------------------------------------


def lookbehind_step(d: DFA, state: tuple, symbol: str):
    """One step of the backtracking lookbehind of Hopcroft & Ullman (1967).

    The routine recovers the state of the total automaton ``d`` at a landing
    position L, that is ``d.run(w[:L-1])``, from the state q it reaches
    after the landing letter.  It starts at L as ``("land", q)``; the
    candidates are the states the landing letter takes to q.  With several,
    it walks left keeping the nonempty pre-image sets of the candidates
    (``("back", sets)``) until one set is left or, at the left endmarker,
    the set holding the initial state wins.  It then walks right with a
    state u of the winning set and a state v of another
    (``("fwd", u, v)``): their runs first merge on reading the landing
    letter, which is how it finds L again, and u's run then stands on the
    winning candidate.  It never moves right of L and emits nothing.

    Returns ``(move, next_state)`` with move ACT_LEFT or ACT_RIGHT, or
    ``(None, p)`` once the state p at L is known, or None where no run of
    ``d`` reads ``symbol`` in this state.
    """
    kind = state[0]
    if symbol == LEFT_END and kind != "back":
        return None
    if kind == "land":
        cands = tuple(p for p in d.states if d.delta[(p, symbol)] == state[1])
        if len(cands) < 2:
            return (None, cands[0]) if cands else None
        return ACT_LEFT, ("back", tuple((c,) for c in cands))
    if kind == "back":
        sets = state[1]
        if symbol == LEFT_END:
            won = [i for i, ps in enumerate(sets) if d.initial in ps]
        else:
            refined = [tuple(p for p in d.states if d.delta[(p, symbol)] in ps)
                       for ps in sets]
            won = [i for i, pre in enumerate(refined) if pre]
            if len(won) > 1:
                return ACT_LEFT, ("back", tuple(refined[i] for i in won))
        if not won:
            return None
        return ACT_RIGHT, ("fwd", sets[won[0]][0], sets[1 if won[0] == 0 else 0][0])
    _, u, v = state
    if d.delta[(u, symbol)] == d.delta[(v, symbol)]:
        return None, u
    return ACT_RIGHT, ("fwd", d.delta[(u, symbol)], d.delta[(v, symbol)])


# ---------------------------------------------------------------------------
# The walking machine
# ---------------------------------------------------------------------------


def _render(state: tuple, sep: str = "|") -> str:
    return sep.join("(%s)" % _render(part, ",") if isinstance(part, tuple)
                    else str(part) for part in state)


def _build_walker(m: SST, dom: DFA, layer_of, bound) -> MarbleTransducer:
    """Construct the marble machine that replays register evaluations.

    ``layer_of`` None means every register reference recurses with a marker;
    otherwise references within the frame's own layer recurse bare and only
    strictly lower layers park a marker.  Every walker state standing on a
    letter carries the state q of ``m`` before that letter: right moves apply
    the transition function, the domain pass hands its state to the output
    scan at the right endmarker (``dom`` has the transitions of ``m``), and
    left moves land in ``lookbehind_step``, which recovers q without moving
    right of the landing position, so it meets no marble and emits nothing.
    """
    if m.funs:
        raise MachineError("cannot build a walker over external functions")
    letters = tuple(sorted(m.input_alphabet))

    # (q, a, x, j) -> the color that marks the j-th token of x's update at
    # (q, a); same-layer references need no marker
    colors = {
        (q, a, x, j): "mk|%s|%s|%s|%d" % (q, a, x, j)
        for (q, a), s in sorted(m.update.items())
        for x in sorted(s)
        for j, t in enumerate(s[x])
        if isinstance(t, Reg)
        and (layer_of is None or layer_of[t.name] != layer_of[x])
    }
    lifts: dict = {}   # (q, y) -> [(a, x, j, color id)] marking a y in q's updates
    for (q, a, x, j), cid in sorted(colors.items()):
        lifts.setdefault((q, m.update[(q, a)][x][j].name), []).append((a, x, j, cid))

    delta: dict = {}
    out: dict = {}
    targets: list = []

    def put(state, symbol, color, action, target, emit=()):
        key = (_render(state), symbol, color)
        delta[key] = (_render(target), action)
        out[key] = tuple(emit)
        targets.append(target)

    def act_step(q, a, x, i0, occ):
        """Emit pending letters and pick the move for the next token."""
        alpha = m.update[(q, a)][x]
        lits = tuple(t.sym for t in takewhile(lambda t: isinstance(t, Lit), alpha[i0:]))
        j = i0 + len(lits)
        if j == len(alpha):
            return lits, ACT_RIGHT, ("ret", x, occ, m.delta[(q, a)])
        y = alpha[j].name
        if layer_of is not None and layer_of[y] == layer_of[x]:
            return lits, ACT_LEFT, ("cmp", y, occ, "land", q)
        return lits, act_drop(colors[(q, a, x, j)]), ("dsc", y, occ, q, a, x, j)

    def scan_output(q, i0):
        """Scan q's output from token i0 at the right endmarker: (lits, target);
        ``occ`` counts the register's earlier occurrences in the output."""
        toks = m.output[q]
        lits = tuple(t.sym for t in takewhile(lambda t: isinstance(t, Lit), toks[i0:]))
        j = i0 + len(lits)
        if j == len(toks):
            return lits, ("preacc",)
        return lits, ("cmp", toks[j].name, toks[:j].count(toks[j]), "land", q)

    def resume_candidates(q, a, y):
        s = m.update[(q, a)]
        found = [(x, j) for x in sorted(s) if layer_of[x] == layer_of[y]
                 for j, t in enumerate(s[x]) if t == Reg(y)]
        if len(found) > 1:
            raise MachineError(
                "layer discipline violated: %r resumes ambiguously after %r" % (y, a))
        return found

    def process(state: tuple) -> None:
        kind = state[0]
        if kind == "dom":
            d = state[1]
            if d == dom.initial:
                put(state, LEFT_END, None, ACT_RIGHT, state)
            for a in letters:
                put(state, a, None, ACT_RIGHT, ("dom", dom.delta[(d, a)]))
            if d in dom.accepting:
                lits, target = scan_output(d, 0)
                put(state, RIGHT_END, None, ACT_LEFT, target, lits)
        elif kind == "cmp":
            x, occ, look = state[1], state[2], state[3:]
            if look[0] == "land":
                put(state, LEFT_END, None, ACT_RIGHT, ("ret", x, occ, m.initial),
                    emit=m.init_valuation[x])
            for s in (LEFT_END,) + letters:
                step = lookbehind_step(dom, look, s)
                if step is None:
                    continue
                move, found = step
                if move is None:
                    emit, action, target = act_step(found, s, x, 0, occ)
                    put(state, s, None, action, target, emit)
                else:
                    put(state, s, None, move, ("cmp", x, occ) + found)
        elif kind == "dsc":
            _, y, occ, q, a, x, j = state
            put(state, a, colors[(q, a, x, j)], ACT_LEFT, ("cmp", y, occ, "land", q))
        elif kind == "ret":
            _, y, occ, q = state
            for a, x, j, cid in lifts.get((q, y), ()):
                put(state, a, cid, ACT_LIFT, ("act", q, a, x, j + 1, occ))
            if layer_of is not None:
                for a in letters:
                    found = resume_candidates(q, a, y)
                    if found:
                        x, j = found[0]
                        emit, action, target = act_step(q, a, x, j + 1, occ)
                        put(state, a, None, action, target, emit)
            # only the outermost evaluation, of q's occ-th Reg(y), reaches ⊣
            ends = [j for j, t in enumerate(m.output.get(q, ())) if t == Reg(y)]
            if occ < len(ends):
                lits, target = scan_output(q, ends[occ] + 1)
                put(state, RIGHT_END, None, ACT_LEFT, target, emit=lits)
        elif kind == "act":
            _, q, a, x, i0, occ = state
            emit, action, target = act_step(q, a, x, i0, occ)
            put(state, a, None, action, target, emit)
        elif kind == "preacc":
            for a in (LEFT_END,) + letters:
                put(state, a, None, ACT_RIGHT, ("acc",))
        elif kind == "acc":
            pass
        else:
            raise MachineError("unknown walker state kind %r" % kind)

    def successors(state: tuple) -> list:
        targets.clear()
        process(state)
        return list(targets)

    init = ("dom", dom.initial)
    found = explore([init], successors, WALKER_STATE_LIMIT, "walker build")
    states = tuple(sorted({_render(s) for s in found} | {_render(("acc",))}))
    return MarbleTransducer(
        input_alphabet=m.input_alphabet, output_alphabet=m.output_alphabet,
        states=states, initial=_render(init),
        finals=frozenset({_render(("acc",))}),
        colors=tuple(sorted(set(colors.values()))), delta=delta, out=out,
        marble_bound=bound,
    )


def sst_to_marble(m: SST) -> MarbleTransducer:
    """General conversion: every register reference recurses with a marker.

    The input's domain is checked by a leading one-way pass over its domain
    automaton before the evaluation walk starts from the right endmarker.
    A machine that ``validate`` refuses raises first (``require_valid``).
    """
    require_valid(m)
    total, dom = make_total(m)
    return _build_walker(total, dom, layer_of=None, bound=None)


def layered_to_marble(m: SST, layers: Sequence[Sequence[str]]) -> MarbleTransducer:
    """Layered machine to a marble machine with depth bounded by the layers.

    Only references that descend to a lower layer park a mark, so the stack
    never holds more than ``len(layers) - 1`` marks, at every input length.
    A machine that ``validate`` refuses raises first (``require_valid``);
    the layered results the pipeline builds go through
    ``_layered_to_marble`` unchecked.
    """
    require_valid(m)
    return _layered_to_marble(m, layers)


def _layered_to_marble(m: SST, layers: Sequence[Sequence[str]]) -> MarbleTransducer:
    bad = check_layered(m, layers)
    if bad:
        raise MachineError("not layered: %s" % bad[0])
    total, dom = make_total(m)
    level = {x: i for i, layer in enumerate(layers) for x in layer}
    return _build_walker(total, dom, layer_of=level, bound=len(layers) - 1)

