"""Marble transducer to register transducer via crossing-sequence summaries.

For each input prefix the one-way machine tracks, per entry state, where the
marble machine first crosses back to the right of the prefix, together with
the output produced along that excursion.  The summaries are stitched letter
by letter through a least fixpoint over a flat order (bottom = "never crosses").
"""

from __future__ import annotations

from .machines import (
    LEFT_END,
    Lit,
    MachineError,
    MarbleTransducer,
    Reg,
    RIGHT_END,
    SST,
    TwoWayTransducer,
    explore,
    validate,
)

# Summary token kinds: ("const", word) emits a hardcoded word,
# ("call", q) splices the stored excursion output register of entry state q.
CONST = "const"
CALL = "call"


def _local_equation(t: MarbleTransducer, f: dict, symbol: str,
                    node: tuple, accepting_exit: bool):
    """One unfolding step of the stitching equations at ``symbol``.

    Returns ("done", state, tokens), ("bot",) or ("cont", tokens, next node).
    ``f`` is the previous crossing summary (entry state -> state or None).
    With ``accepting_exit`` the move-right case is replaced by halting
    acceptance on final states with no marble present (the right endmarker).
    """
    q, c = node
    if accepting_exit and c is None and q in t.finals:
        return ("done", q, ())
    key = (q, symbol, c)
    if key not in t.delta:
        return ("bot",)
    q2, (akind, acolor) = t.delta[key]
    out = ((CONST, t.out[key]),) if t.out[key] else ()
    if c is None:
        if akind == "right":
            if accepting_exit:
                return ("bot",)  # cannot move beyond the right endmarker
            return ("done", q2, out)
        if akind == "left":
            cont = f[q2]
            if cont is None:
                return ("bot",)
            return ("cont", out + ((CALL, q2),), (cont, None))
        if akind == "drop":
            return ("cont", out, (q2, acolor))
        raise MachineError("invalid machine: %r on empty position" % akind)
    else:
        if akind == "lift":
            return ("cont", out, (q2, None))
        if akind == "left":
            cont = f[q2]
            if cont is None:
                return ("bot",)
            return ("cont", out + ((CALL, q2),), (cont, c))
        raise MachineError("invalid machine: %r on a marble" % akind)


class _Chains(dict):
    """Least fixpoint of the stitching equations, resolved entry by entry.

    Maps (entry state, color-or-None) to (result state or None, token
    tuple); a None result means the excursion never crosses and then
    carries no tokens.  Every node has at most one successor, so each chain
    either terminates (crossing found), dies (undefined transition or bottom
    continuation), or cycles; cycles resolve to bottom for every node on
    them.  An entry is resolved when it is first read, together with the
    nodes on its chain.
    """

    def __init__(self, t: MarbleTransducer, f: dict, symbol: str,
                 accepting_exit: bool):
        super().__init__()
        self.equation = (t, f, symbol, accepting_exit)

    def __missing__(self, node):
        t, f, symbol, accepting_exit = self.equation
        first, chain = node, {}  # unresolved node -> tokens before its successor
        while node not in self and node not in chain:
            step = _local_equation(t, f, symbol, node, accepting_exit)
            if step[0] == "cont":
                chain[node] = step[1]
                node = step[2]
            else:
                self[node] = (step[1], step[2]) if step[0] == "done" else (None, ())
        # a chain that closes a cycle stays at bottom: the least fixpoint
        res = self.get(node, (None, ()))
        for n, toks in reversed(chain.items()):
            res = (None, ()) if res[0] is None else (res[0], toks + res[1])
            self[n] = res
        return self[first]


def crossing_fixpoint(t: MarbleTransducer, f: dict, symbol: str) -> _Chains:
    """Crossing summary after one more letter, given the previous summary."""
    return _Chains(t, f, symbol, accepting_exit=False)


def exit_fixpoint(t: MarbleTransducer, f: dict) -> _Chains:
    """Acceptance stitching at the right endmarker.

    The move-right exit is replaced by halting acceptance: an entry with no
    marble present succeeds exactly when it reaches a final state standing on
    the endmarker with an empty stack.
    """
    return _Chains(t, f, RIGHT_END, accepting_exit=True)


FIRST_REG = "first"
# Reachable crossing summaries marble_to_sst may build.
CROSSING_STATE_LIMIT = 50000


def _next_reg(q: str) -> str:
    return "nx_%s" % q


def _transcribe(tokens) -> tuple:
    out = []
    for kind, payload in tokens:
        if kind == CONST:
            out.extend(Lit(b) for b in payload)
        else:
            out.append(Reg(_next_reg(payload)))
    return tuple(out)


def marble_to_sst(t: MarbleTransducer) -> SST:
    """Equivalent one-way register transducer for a marble transducer.

    States are the reachable crossing summaries (first-crossing state plus
    the per-entry next-crossing map); registers hold the outputs produced
    along those excursions.  Dead excursions keep empty registers.  The
    output map stitches the run at the right endmarker.
    """
    problems = validate(t)
    if problems:
        raise MachineError("invalid marble transducer: %s" % problems[0])

    registers = (FIRST_REG,) + tuple(_next_reg(q) for q in t.states)

    # The summary before any letter: first crossings from ⊢ to position 1,
    # with nothing left of ⊢ to call into, so every token is a constant.
    base = crossing_fixpoint(t, {q: None for q in t.states}, LEFT_END)
    first0 = base[t.initial, None][0]
    next0 = tuple((q, base[q, None][0]) for q in t.states)
    init_state = (first0, next0)
    init_valuation = {
        r: tuple(b for _const, word in base[q, None][1] for b in word)
        for r, q in zip(registers, (t.initial,) + t.states)}

    names = {init_state: "cs0"}
    letters = sorted(t.input_alphabet)
    delta: dict = {}
    update: dict = {}
    output: dict = {}
    summaries: dict = {}

    def successors(state):
        first, next_items = state
        f = dict(next_items)
        here = names[state]
        if first is not None:
            res, toks = exit_fixpoint(t, f)[first, None]
            if res is not None:
                output[here] = (Reg(FIRST_REG),) + _transcribe(toks)
        for a in letters:
            key = (next_items, a)
            if key not in summaries:
                summaries[key] = crossing_fixpoint(t, f, a)
            summary = summaries[key]
            new_next = tuple((q, summary[q, None][0]) for q in t.states)
            new_first = summary[first, None][0] if first is not None else None
            target = (new_first, new_next)
            sub = {}
            if first is not None and new_first is not None:
                sub[FIRST_REG] = (Reg(FIRST_REG),) + _transcribe(summary[first, None][1])
            else:
                sub[FIRST_REG] = ()
            for q in t.states:  # an excursion that never crosses has no tokens
                sub[_next_reg(q)] = _transcribe(summary[q, None][1])
            delta[(here, a)] = names.setdefault(target, "cs%d" % len(names))
            update[(here, a)] = sub
            yield target

    order = explore([init_state], successors, CROSSING_STATE_LIMIT,
                    "crossing-state space")
    return SST(
        input_alphabet=t.input_alphabet, output_alphabet=t.output_alphabet,
        states=tuple(names[s] for s in order), registers=registers,
        initial="cs0", init_valuation=init_valuation,
        delta=delta, update=update, output=output,
    )


def two_way_to_marble(t) -> MarbleTransducer:
    """Embed a two-way transducer as a marble transducer with no colors."""
    if not isinstance(t, TwoWayTransducer):
        raise MachineError("expected a two-way transducer")
    delta = {(q, a, None): (q2, ("left", None) if move == "left" else ("right", None))
             for (q, a), (q2, move) in t.delta.items()}
    out = {(q, a, None): t.out[q, a] for q, a in t.delta}
    return MarbleTransducer(
        input_alphabet=t.input_alphabet, output_alphabet=t.output_alphabet,
        states=t.states, initial=t.initial, finals=t.finals,
        colors=(), delta=delta, out=out, marble_bound=0,
    )
