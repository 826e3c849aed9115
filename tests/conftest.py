import os
import sys
from dataclasses import replace
from itertools import chain

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from xducer.machine_io import parse_machine  # noqa: E402
from xducer.machines import (  # noqa: E402
    Fun, LEFT_END, Lit, MachineError, Reg, RIGHT_END, subst_apply)
from xducer.semantics import (  # noqa: E402
    ACCEPT,
    BUDGET,
    LOOP,
    REJECT,
    RunResult,
    default_budget,
    run_sst,
)


CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "corpus")
CORPUS_NAMES = sorted(f[:-5] for f in os.listdir(CORPUS_DIR) if f.endswith(".json"))


def corpus_path(name: str) -> str:
    return os.path.join(CORPUS_DIR, "%s.json" % name)


def load(name: str, letters=None):
    """The machine in ``corpus/<name>.json``.

    ``letters`` narrows both alphabets to those letters and drops the
    transitions that read any other input letter (endmarker moves stay).
    """
    machine, _layers = parse_machine(corpus_path(name))
    if letters is None:
        return machine
    dropped = set(machine.input_alphabet) - set(letters)
    return replace(
        machine,
        input_alphabet=tuple(a for a in machine.input_alphabet if a in letters),
        output_alphabet=tuple(a for a in machine.output_alphabet if a in letters),
        **{field: {key: v for key, v in getattr(machine, field).items()
                   if key[1] not in dropped}
           for field in ("delta", "out", "update") if hasattr(machine, field)})


@pytest.fixture
def register_values():
    """Register valuation after the one-way run on a prefix, read off
    ``run_sst`` with each register in turn as the output of every state.

    Raises if the run is undefined (the valuation only exists along runs).
    """
    def values(m, prefix, registry=None):
        val = {}
        for x in m.registers:
            probe = replace(m, output={q: (Reg(x),) for q in m.states})
            res = run_sst(probe, prefix, registry=registry)
            if res.verdict != ACCEPT:
                raise MachineError("one-way run undefined on %r" % (prefix,))
            val[x] = res.output
        return val
    return values


# ---------------------------------------------------------------------------
# Reference marble semantics, one configuration at a time
# ---------------------------------------------------------------------------


def check_stack(stack: tuple, head: int) -> None:
    """Raise unless the marbles (top first) lie at strictly increasing
    positions, none below the head."""
    prev = None
    for c, p in stack:
        if p < head:
            raise MachineError("marble %r below the reading head" % c)
        if prev is not None and p <= prev:
            raise MachineError("marble stack positions not strictly increasing")
        prev = p


def marble_step(t, w, cfg: tuple):
    """One transition from configuration (state, head, stack), read off
    ``t.delta`` and ``t.out`` directly; the stack is a tuple, top first.

    Returns (new configuration, emitted word) or None when no transition is
    enabled.  Raises MachineError for actions a well-formed machine cannot
    take (move right or drop while standing on a marble).
    """
    state, pos, stack = cfg
    color = stack[0][0] if stack and stack[0][1] == pos else None
    if 0 < pos <= len(w):
        symbol = w[pos - 1]
    else:
        symbol = LEFT_END if pos == 0 else RIGHT_END
    key = (state, symbol, color)
    move = t.delta.get(key)
    if move is None:
        return None
    state2, (akind, acolor) = move
    out = t.out[key]
    if akind == "left":
        if pos - 1 < 0:
            return None
        return (state2, pos - 1, stack), out
    if akind == "right":
        if color is not None:
            raise MachineError("invalid machine: move right over a marble")
        if pos + 1 > len(w) + 1:
            return None
        return (state2, pos + 1, stack), out
    if akind == "lift":
        if color is None:
            raise MachineError("invalid machine: lift without a marble")
        return (state2, pos, stack[1:]), out
    if akind == "drop":
        if color is not None:
            raise MachineError("invalid machine: drop on a marbled position")
        return (state2, pos, ((acolor, pos),) + stack), out
    raise MachineError("invalid action %r" % ((akind, acolor),))


def reference_run(t, w, budget=None, trace: bool = False) -> RunResult:
    """``run_marble``'s result by ``marble_step``, checking the stack with
    ``check_stack`` before every step and keeping one seen set of (state,
    head) pairs per stack frame."""
    w = tuple(w)
    if budget is None:
        budget = default_budget(len(t.states), len(w))
    state, pos, stack = t.initial, 0, ()
    steps = depth = 0
    emitted: list = []
    seen, below = {(state, pos)}, []
    tr = [(0, state, pos, (), ())] if trace else None

    def result(verdict, output=None):
        return RunResult(verdict, output, steps, depth, tuple(tr) if trace else None)

    while True:
        check_stack(stack, pos)
        if pos == len(w) + 1 and not stack and state in t.finals:
            return result(ACCEPT, tuple(emitted))
        if steps >= budget:
            return result(BUDGET)
        res = marble_step(t, w, (state, pos, stack))
        if res is None:
            return result(REJECT)
        (state, pos, stack2), out = res
        emitted.extend(out)
        steps += 1
        if len(stack2) > len(stack):
            below.append(seen)
            seen = set()
            depth = max(depth, len(stack2))
        elif len(stack2) < len(stack):
            seen = below.pop()
        stack = stack2
        if trace:
            tr.append((steps, state, pos, stack, tuple(out)))
        if (state, pos) in seen:
            return result(LOOP)
        seen.add((state, pos))


# ---------------------------------------------------------------------------
# Reference register semantics, one letter at a time
# ---------------------------------------------------------------------------


def reference_sst_run(m, w, registry=None) -> RunResult:
    """``run_sst``'s untraced result by ``subst_apply``: the valuation is a
    map from registers to flat tuples of ``Lit`` tokens, every update is
    applied to it on its own letter, and a ``Fun`` token becomes the word
    its registry callable gives on the prefix read so far."""
    w = tuple(w)
    q = m.initial
    val = {x: tuple(map(Lit, m.init_valuation[x])) for x in m.registers}
    for i, a in enumerate(w):
        if (q, a) not in m.delta:
            return RunResult(REJECT, None, i, 0)
        prefix = w[:i + 1]
        val = {x: tuple(chain.from_iterable(
                   map(Lit, registry.get(t.name)(prefix)) if type(t) is Fun else (t,)
                   for t in subst_apply(val, rhs)))
               for x, rhs in m.update[(q, a)].items()}
        q = m.delta[(q, a)]
    if q not in m.output:
        return RunResult(REJECT, None, len(w), 0)
    return RunResult(ACCEPT, tuple(t.sym for t in subst_apply(val, m.output[q])), len(w), 0)
