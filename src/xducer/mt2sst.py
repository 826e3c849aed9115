"""Marble transducer to register transducer via crossing-sequence summaries.

The one-way machine reads the input left to right and keeps the crossing
summary (Shepherdson 1959) of the prefix it has read: for each entry state,
the state in which the marble machine, entering the prefix's last cell from
the right, next steps right off it, or that it never does.  A register per
entry state holds the output of that excursion.  Each cell, ⊢ and ⊣
included, is summarized by ``semantics._crossing``, with the prefix to its
left given as that map: a left move from the cell into a state returns in
the state's exit, having written the state's register.
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
    mark_valid,
)
from .layering import prune_sst_registers

FIRST_REG = "first"
# Reachable crossing summaries marble_to_sst may build.
CROSSING_STATE_LIMIT = 50000


def _next_reg(q: str) -> str:
    return "nx_%s" % q


def marble_to_sst(t) -> SST:
    """Equivalent one-way register transducer for a marble transducer, or
    for a two-way one as its marble form (``semantics._tables``).

    States are the reachable crossing summaries (first-crossing state plus
    the per-entry next-crossing map); registers hold the outputs produced
    along those excursions, one per marble state and one for the first
    crossing.  The output map stitches the run at the right endmarker.  The
    machine is returned through the register allocator, as one layer: an
    excursion register is dead wherever no later crossing calls it, so few
    registers remain.  A machine ``validate`` refuses raises (``_tables``);
    the result is marked valid if ``t`` is (``machines.mark_valid``), as the
    crossing construction only builds well-formed machines (a test checks
    ``validate`` on it for the corpus and for random marble machines).
    """
    from .semantics import ACCEPT, REJECT, _flat, _summaries, _tables

    tables = _tables(t)
    codes = tables[1]
    entries = range(len(t.states))  # the state numbers of the tables
    calls = [(Reg(_next_reg(q)),) for q in t.states]
    registers = (FIRST_REG,) + tuple(call[0].name for call in calls)
    first_reg = Reg(FIRST_REG)
    lits = {b: Lit(b) for b in t.output_alphabet}
    never = (REJECT, 0, None)

    def tokens(word) -> tuple:
        return tuple([lits[x] if type(x) is str else x for x in word])

    def prefix(exits) -> dict:
        """``_crossing``'s parent from a crossing summary: a left move into
        p returns in ``exits[p]`` having written p's register, if not None."""
        return {p: never if e is None else (e, 0, calls[p]) for p, e in enumerate(exits)}

    def cell(left, sym) -> tuple:
        """The exit (a state number, or None) and the output (a flat word of
        letters and registers) of each entry state of the cell ``sym``."""
        found = _summaries(tables, left, sym, entries)
        return (tuple([e if type(e) is int else None for e, _steps, _out in found]),
                [() if out is None else out if type(out) is tuple else _flat(out)
                 for _e, _steps, out in found])

    # The summary before any letter: first crossings from ⊢ to position 1,
    # with nothing left of ⊢ to call into, so every output is a word.
    exits0, outs0 = cell(None, codes[LEFT_END])
    q0 = tables[5]
    init_state = (exits0[q0], exits0)
    init_valuation = dict(zip(registers, [outs0[q0], *outs0]))

    names = {init_state: "cs0"}
    letters = sorted(t.input_alphabet)
    delta: dict = {}
    update: dict = {}
    output: dict = {}
    summaries: dict = {}

    def successors(state):
        first, exits = state
        left = prefix(exits)
        here = names[state]
        if first is not None:
            [(verdict, _steps, out)] = _summaries(tables, left, codes[RIGHT_END], (first,))
            if verdict == ACCEPT:
                output[here] = (first_reg,) + tokens(_flat(out))
        for a in letters:
            key = (exits, a)
            if key not in summaries:
                new_exits, outs = cell(left, codes[a])
                toks = tuple([tokens(out) if out else () for out in outs])
                summaries[key] = new_exits, toks, dict(zip(registers[1:], toks))
            new_exits, toks, moves = summaries[key]
            new_first = None if first is None else new_exits[first]
            target = (new_first, new_exits)
            sub = {FIRST_REG: () if new_first is None else (first_reg,) + toks[first]}
            sub.update(moves)  # an excursion that never crosses has no tokens
            delta[(here, a)] = names.setdefault(target, "cs%d" % len(names))
            update[(here, a)] = sub
            yield target

    order = explore([init_state], successors, CROSSING_STATE_LIMIT,
                    "crossing-state space")
    crossing = SST(
        input_alphabet=t.input_alphabet, output_alphabet=t.output_alphabet,
        states=tuple(names[s] for s in order), registers=registers,
        initial="cs0", init_valuation=init_valuation,
        delta=delta, update=update, output=output,
    )
    return mark_valid(t, prune_sst_registers(crossing, (registers,))[0])


def two_way_to_marble(t) -> MarbleTransducer:
    """Embed a two-way transducer as a marble transducer with no colors,
    marked valid if ``t`` is (``machines.mark_valid``): every move of a
    well-formed two-way machine is a legal marble move."""
    if not isinstance(t, TwoWayTransducer):
        raise MachineError("expected a two-way transducer")
    delta = {(q, a, None): (q2, (move, None)) for (q, a), (q2, move) in t.delta.items()}
    out = {(q, a, None): t.out[q, a] for q, a in t.delta}
    return mark_valid(t, MarbleTransducer(
        input_alphabet=t.input_alphabet, output_alphabet=t.output_alphabet,
        states=t.states, initial=t.initial, finals=t.finals,
        colors=(), delta=delta, out=out, marble_bound=0,
    ))
