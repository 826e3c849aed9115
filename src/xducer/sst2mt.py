"""Register transducers to marble transducers.

The marble machine materializes the recursive evaluation of register values:
to emit the value a register holds at a position, it scans that position's
update expression, emitting letters and recursing leftward on register
references, parking a mark to find its place again afterwards.  For layered
machines, recursion within one layer needs no mark (the layer discipline
makes the resume point unique) and marks are spent only when descending a
layer, which caps the stack depth at the layer count.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    TwoWayTransducer,
    act_drop,
    check_layered,
    explore,
)
from .layering import make_total

DOT = "dot"
# Walker states _build_walker may create.
WALKER_STATE_LIMIT = 10 ** 6


# ---------------------------------------------------------------------------
# Marked substitution colors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarkedSubstitutionColor:
    """One register occurrence of one update, used as a resume marker."""

    state: str
    letter: str
    register: str   # the register being rewritten
    index: int      # 0-based position of the marked occurrence
    body: tuple     # the full token sequence of the update

    @property
    def color_id(self) -> str:
        return "mk|%s|%s|%s|%d" % (self.state, self.letter, self.register, self.index)


def marked_variants(tokens) -> tuple:
    """All copies of a token sequence with one register occurrence marked."""
    return tuple(
        (tuple(tokens), i) for i, t in enumerate(tokens) if isinstance(t, Reg)
    )


def marked_colors(m: SST) -> tuple:
    """Every per-occurrence marker color of the machine's updates."""
    out = []
    for (q, a) in sorted(m.update):
        s = m.update[(q, a)]
        for x in sorted(s):
            for i, t in enumerate(s[x]):
                if isinstance(t, Reg):
                    out.append(MarkedSubstitutionColor(q, a, x, i, tuple(s[x])))
    return tuple(out)


# ---------------------------------------------------------------------------
# The walking machine
# ---------------------------------------------------------------------------


def _render(state: tuple) -> str:
    return "|".join(str(part) for part in state)


def _build_walker(m: SST, dom: DFA, layer_of, bound, prefix_mode: str,
                  gadget_len: int = 64) -> MarbleTransducer:
    """Construct the marble machine that replays register evaluations.

    ``layer_of`` None means every register reference recurses with a marker;
    otherwise references within the frame's own layer recurse bare and only
    strictly lower layers park a marker.  ``prefix_mode`` picks how the
    one-way state left of the current position is recovered when an update
    must be scanned:

    * ``known``: the machine has a single state, nothing to recover;
    * ``dot``: park an auxiliary mark, rewind to the tape start and replay
      (one extra simultaneous mark, any input length);
    * ``count``: rewind while counting steps and replay the counted number
      of letters (no mark, but inputs longer than ``gadget_len`` fall off
      the counter and are rejected rather than answered wrongly).
    """
    if m.funs:
        raise MachineError("cannot build a walker over external functions")
    if prefix_mode == "known" and len(m.states) != 1:
        raise MachineError("prefix mode 'known' needs a single state")
    letters = tuple(sorted(m.input_alphabet))

    # (q, a, x, j) -> color id; same-layer references need no marker
    colors = {
        (c.state, c.letter, c.register, c.index): c.color_id
        for c in marked_colors(m)
        if layer_of is None
        or layer_of[c.body[c.index].name] != layer_of[c.register]
    }

    delta: dict = {}
    out: dict = {}
    targets: list = []

    def put(state, symbol, color, action, target, emit=()):
        key = (_render(state), symbol, color)
        delta[key] = (_render(target), action)
        out[key] = tuple(emit)
        targets.append(target)

    def act_step(q, a, x, i0, fctx):
        """Emit pending letters and pick the move for the next token."""
        alpha = m.update[(q, a)][x]
        lits = []
        j = i0
        while j < len(alpha) and isinstance(alpha[j], Lit):
            lits.append(alpha[j].sym)
            j += 1
        if j == len(alpha):
            return tuple(lits), ACT_RIGHT, ("ret", x, fctx)
        y = alpha[j].name
        if layer_of is not None and layer_of[y] == layer_of[x]:
            return tuple(lits), ACT_LEFT, ("cmp", y, fctx)
        return tuple(lits), act_drop(colors[(q, a, x, j)]), ("dsc", y, fctx, q, a, x, j)

    suffixes = {}   # interned output continuations: id -> token tuple
    suffix_ids = {}

    def intern_suffix(toks):
        toks = tuple(toks)
        if toks not in suffix_ids:
            suffix_ids[toks] = "F%d" % len(suffix_ids)
            suffixes[suffix_ids[toks]] = toks
        return suffix_ids[toks]

    def scan_output(toks):
        """Next step of an output scan: (lits, move-left target)."""
        lits = []
        j = 0
        while j < len(toks) and isinstance(toks[j], Lit):
            lits.append(toks[j].sym)
            j += 1
        if j == len(toks):
            return tuple(lits), ("preacc",)
        return tuple(lits), ("cmp", toks[j].name, intern_suffix(toks[j + 1:]))

    def fscan_step(qf):
        lits, target = scan_output(m.output[qf])
        return lits, ACT_LEFT, target

    def resume_candidates(q, a, y):
        found = []
        s = m.update[(q, a)]
        for x in sorted(s):
            if layer_of[x] != layer_of[y]:
                continue
            for j, t in enumerate(s[x]):
                if isinstance(t, Reg) and t.name == y:
                    found.append((x, j))
        if len(found) > 1:
            raise MachineError(
                "layer discipline violated: %r resumes ambiguously after %r" % (y, a))
        return found

    def recover(state, symbol, cont):
        """Start the prefix-state recovery routine from this position."""
        if prefix_mode == "dot":
            put(state, symbol, None, act_drop(DOT), ("dseek", cont))
        else:
            put(state, symbol, None, ACT_LEFT, ("gout", cont, 1))

    def dispatch(q, cont):
        """Continuation state once the prefix state q has been recovered."""
        if cont[0] == "f":
            return ("fscan", q)
        if cont[0] == "c":
            return ("gcmp", q, cont[1], cont[2])
        return ("grsm", q, cont[1], cont[2])

    def process(state: tuple) -> None:
        kind = state[0]
        if kind == "dom":
            d = state[1]
            if d == dom.initial:
                put(state, LEFT_END, None, ACT_RIGHT, state)
            for a in letters:
                if (d, a) in dom.delta:
                    put(state, a, None, ACT_RIGHT, ("dom", dom.delta[(d, a)]))
            if d in dom.accepting:
                if prefix_mode == "known":
                    emit, action, target = fscan_step(m.states[0])
                    put(state, RIGHT_END, None, action, target, emit)
                else:
                    recover(state, RIGHT_END, ("f",))
        elif kind == "fscan":
            qf = state[1]
            emit, action, target = fscan_step(qf)
            put(state, RIGHT_END, None, action, target, emit)
        elif kind == "cmp":
            _, x, fctx = state
            put(state, LEFT_END, None, ACT_RIGHT, ("ret", x, fctx),
                emit=m.init_valuation[x])
            for a in letters:
                if prefix_mode == "known":
                    q = m.states[0]
                    emit, action, target = act_step(q, a, x, 0, fctx)
                    put(state, a, None, action, target, emit)
                else:
                    recover(state, a, ("c", x, fctx))
        elif kind == "gcmp":
            _, q, x, fctx = state
            for a in letters:
                emit, action, target = act_step(q, a, x, 0, fctx)
                put(state, a, None, action, target, emit)
        elif kind == "dsc":
            _, y, fctx, q, a, x, j = state
            put(state, a, colors[(q, a, x, j)], ACT_LEFT, ("cmp", y, fctx))
        elif kind == "ret":
            _, y, fctx = state
            for (q, a, x, j), cid in sorted(colors.items()):
                tok = m.update[(q, a)][x][j]
                if tok.name == y:
                    put(state, a, cid, ACT_LIFT, ("act", q, a, x, j + 1, fctx))
            if layer_of is not None:
                for a in letters:
                    if prefix_mode == "known":
                        q = m.states[0]
                        found = resume_candidates(q, a, y)
                        if found:
                            x, j = found[0]
                            emit, action, target = act_step(q, a, x, j + 1, fctx)
                            put(state, a, None, action, target, emit)
                    else:
                        recover(state, a, ("r", y, fctx))
            lits, target = scan_output(suffixes[fctx])
            put(state, RIGHT_END, None, ACT_LEFT, target, emit=lits)
        elif kind == "act":
            _, q, a, x, i0, fctx = state
            emit, action, target = act_step(q, a, x, i0, fctx)
            put(state, a, None, action, target, emit)
        elif kind == "grsm":
            _, q, y, fctx = state
            for a in letters:
                found = resume_candidates(q, a, y)
                if found:
                    x, j = found[0]
                    emit, action, target = act_step(q, a, x, j + 1, fctx)
                    put(state, a, None, action, target, emit)
        elif kind == "dseek":
            cont = state[1]
            if cont[0] == "f":
                put(state, RIGHT_END, DOT, ACT_LEFT, ("dswp", cont))
            else:
                for a in letters:
                    put(state, a, DOT, ACT_LEFT, ("dswp", cont))
        elif kind == "dswp":
            cont = state[1]
            for a in letters:
                put(state, a, None, ACT_LEFT, state)
            put(state, LEFT_END, None, ACT_RIGHT, ("drpl", m.initial, cont))
        elif kind == "drpl":
            _, d, cont = state
            for a in letters:
                put(state, a, None, ACT_RIGHT, ("drpl", m.delta[(d, a)], cont))
            if cont[0] == "f":
                put(state, RIGHT_END, DOT, ACT_LIFT, ("fscan", d))
            else:
                for a in letters:
                    put(state, a, DOT, ACT_LIFT, dispatch(d, cont))
        elif kind == "gout":
            _, cont, c = state
            if c + 1 <= gadget_len:
                for a in letters:
                    put(state, a, None, ACT_LEFT, ("gout", cont, c + 1))
            put(state, LEFT_END, None, ACT_RIGHT,
                dispatch(m.initial, cont) if c == 1
                else ("gback", m.initial, cont, c - 1))
        elif kind == "gback":
            _, q, cont, c = state
            for a in letters:
                target = dispatch(m.delta[(q, a)], cont) if c == 1 \
                    else ("gback", m.delta[(q, a)], cont, c - 1)
                put(state, a, None, ACT_RIGHT, target)
        elif kind == "preacc":
            put(state, LEFT_END, None, ACT_RIGHT, ("acc",))
            for a in letters:
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
    use_dot = any(k[0] == "dseek" for k in found)
    color_list = tuple(sorted(set(colors.values()))) + ((DOT,) if use_dot else ())
    states = tuple(sorted({_render(s) for s in found} | {_render(("acc",))}))
    return MarbleTransducer(
        input_alphabet=m.input_alphabet, output_alphabet=m.output_alphabet,
        states=states, initial=_render(init),
        finals=frozenset({_render(("acc",))}),
        colors=color_list, delta=delta, out=out, marble_bound=bound,
    )


def sst_to_marble(m: SST) -> MarbleTransducer:
    """General conversion: every register reference recurses with a marker.

    The input's domain is checked by a leading one-way pass over its domain
    automaton before the evaluation walk starts from the right endmarker.
    """
    total, dom = make_total(m)
    mode = "known" if len(total.states) == 1 else "dot"
    return _build_walker(total, dom, layer_of=None, bound=None, prefix_mode=mode)


EXACT = "exact"
AUX_MARBLE = "aux"


def layered_to_marble(m: SST, layers: Sequence[Sequence[str]],
                      strategy: str = EXACT,
                      gadget_len: int = 64) -> MarbleTransducer:
    """Layered machine to a marble machine with depth bounded by the layers.

    The exact strategy recovers one-way states with the counting rewind of
    the prefix gadget, so the stack never exceeds the number of layer
    descents; inputs longer than ``gadget_len`` overflow the counter and are
    rejected.  The marker-based fallback works at every length but parks an
    auxiliary mark during recoveries, costing one extra simultaneous mark.
    Single-state machines need no recovery at all under either strategy.
    """
    bad = check_layered(m, layers)
    if bad:
        raise MachineError("not layered: %s" % bad[0])
    k = len(layers) - 1
    total, dom = make_total(m)
    level = {x: i for i, layer in enumerate(layers) for x in layer}
    single = len(total.states) == 1
    if strategy == EXACT:
        mode = "known" if single else "count"
        return _build_walker(total, dom, layer_of=level, bound=k,
                             prefix_mode=mode, gadget_len=gadget_len)
    if strategy == AUX_MARBLE:
        mode = "known" if single else "dot"
        return _build_walker(total, dom, layer_of=level,
                             bound=k if single else k + 1, prefix_mode=mode)
    raise MachineError("unknown strategy %r" % strategy)


def as_two_way(t: MarbleTransducer) -> TwoWayTransducer:
    """Forget the marble machinery of a machine that never uses it."""
    delta = {}
    out = {}
    for (q, s, c), (q2, (akind, _payload)) in t.delta.items():
        if c is not None or akind in ("lift", "drop"):
            raise MachineError("machine really uses marbles")
        delta[(q, s)] = (q2, akind)
        out[(q, s)] = t.out[(q, s, c)]
    return TwoWayTransducer(
        input_alphabet=t.input_alphabet, output_alphabet=t.output_alphabet,
        states=t.states, initial=t.initial, finals=t.finals,
        delta=delta, out=out,
    )


# ---------------------------------------------------------------------------
# Prefix-state gadget
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrefixStateGadget:
    """Two-way fragment recovering the one-way state left of the entry point.

    Entered at position m it counts its way to the tape start, replays the
    automaton forward for the counted number of steps and exits back at m
    carrying the state reached on the strict prefix.  It never moves right
    of m and emits nothing.  The explicit step counter bounds the supported
    entry positions by ``max_len``; positions beyond it leave the fragment
    undefined rather than wrong.
    """

    dfa: DFA
    entry: str
    delta: dict    # (state, symbol) -> (state, move)
    exits: dict    # exit state name -> dfa state
    max_len: int


def prefix_state_gadget(d: DFA, max_len: int = 64) -> PrefixStateGadget:
    if not all((q, a) in d.delta for q in d.states for a in d.alphabet):
        raise MachineError("the gadget needs a total automaton")
    delta = {}
    exits = {}
    symbols = tuple(sorted(d.alphabet)) + (RIGHT_END,)

    def back(s, c):
        if c == 0:
            name = "exit|%s" % s
            exits[name] = s
            return name
        return "back|%s|%d" % (s, c)

    for c in range(max_len + 1):
        cur = "out|%d" % c
        if c + 1 <= max_len:
            for s in symbols:
                delta[(cur, s)] = ("out|%d" % (c + 1), "left")
        delta[(cur, LEFT_END)] = (back(d.initial, c - 1) if c >= 1 else None, "right")
    # entry at m=0 cannot happen: position m >= 1 always reads a symbol first
    delta = {k: v for k, v in delta.items() if v[0] is not None}
    for c in range(1, max_len + 1):
        for s in d.states:
            cur = "back|%s|%d" % (s, c)
            for a in d.alphabet:
                delta[(cur, a)] = (back(d.delta[(s, a)], c - 1), "right")
    return PrefixStateGadget(dfa=d, entry="out|0", delta=delta, exits=exits,
                             max_len=max_len)


def run_gadget(g: PrefixStateGadget, w, m: int) -> tuple:
    """Drive the fragment from position m; returns (prefix state, min and max
    positions visited, steps)."""
    from .machines import as_word

    w = as_word(w)
    if not 1 <= m <= len(w) + 1:
        raise MachineError("entry position out of range")
    pos = m
    state = g.entry
    lo = hi = pos
    steps = 0
    while state not in g.exits:
        sym = LEFT_END if pos == 0 else (RIGHT_END if pos == len(w) + 1 else w[pos - 1])
        if (state, sym) not in g.delta:
            raise MachineError("gadget undefined (entry beyond its length bound?)")
        state, move = g.delta[(state, sym)]
        pos += 1 if move == "right" else -1
        lo, hi = min(lo, pos), max(hi, pos)
        steps += 1
        if steps > 10 * (len(w) + 2) * (g.max_len + 2):
            raise MachineError("gadget runaway")
    if pos != m:
        raise MachineError("gadget exited at %d, entered at %d" % (pos, m))
    return g.exits[state], lo, hi, steps
