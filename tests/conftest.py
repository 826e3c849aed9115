import os
import re
import sys
from dataclasses import replace
from itertools import chain

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from xducer.machine_io import parse_machine  # noqa: E402
from xducer.machines import (  # noqa: E402
    Fun, FunctionRegistry, LEFT_END, Lit, MachineError, NSSTF, Reg, RIGHT_END, SST,
    subst_apply, validate, _check_alphabet, _check_distinct, _check_tokens)
from xducer.mt2sst import marble_to_sst  # noqa: E402
from xducer.semantics import (  # noqa: E402
    ACCEPT,
    BUDGET,
    LOOP,
    REJECT,
    SHARE_MIN,
    RunResult,
    _Cat,
    default_budget,
    enumerate_nsstf_runs,
    eval_fun,
    marble_outputs,
    run_machine,
    run_marble,
    run_sst,
    run_sstf,
    sst_outputs,
)
from xducer.oracle import equiv_check, words_up_to  # noqa: E402


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


def refusal(t) -> str:
    """The message with which every marble run refuses ``t``, a marble
    machine that ``validate`` refuses."""
    problems = validate(t)
    assert problems, "a valid machine"
    return "invalid marble transducer: %s" % problems[0]


def assert_refused(t, words) -> None:
    """Marble machine ``t`` is refused with ``refusal(t)`` before any step:
    by ``run_marble`` on each of ``words``, traced and not, and by
    ``marble_outputs``, ``equiv_check`` and ``marble_to_sst``.  No tables
    are kept on it, so the next use refuses it again."""
    message = "^%s$" % re.escape(refusal(t))
    for w in words:
        for trace in (False, True):
            with pytest.raises(MachineError, match=message):
                run_marble(t, w, trace=trace)
    for use in (lambda: next(marble_outputs(t, 2)), lambda: equiv_check(t, t, 2),
                lambda: marble_to_sst(t)):
        with pytest.raises(MachineError, match=message):
            use()
    assert "_tables" not in t.__dict__


def register_refusal(m) -> str:
    """The message with which every register run refuses ``m``, an SST,
    SST-F or NSST-F that ``validate`` refuses."""
    problems = validate(m)
    assert problems, "a valid machine"
    return "invalid register transducer: %s" % problems[0]


def assert_register_refused(m, words) -> None:
    """Register machine ``m`` is refused with ``register_refusal(m)`` before
    any step: on each of ``words`` by ``run_machine`` and, for an SST or
    SST-F, by ``run_sst``, traced and not, and ``run_sstf``, or, for an
    NSST-F, by ``enumerate_nsstf_runs``; and by ``equiv_check`` and, for an
    SST or SST-F, ``sst_outputs``.  Each of its functions is registered as
    a callable that records its calls, and none is called.  No programs are
    kept on it, so the next use refuses it again."""
    message = "^%s$" % re.escape(register_refusal(m))
    calls: list = []
    registry = FunctionRegistry({f: lambda w: calls.append(w) or () for f in m.funs})
    uses = [lambda: equiv_check(m, m, 2, registry, registry)]
    for w in words:
        uses.append(lambda w=w: run_machine(m, w, registry=registry))
        if isinstance(m, SST):
            uses += [lambda w=w: run_sst(m, w, registry),
                     lambda w=w: run_sst(m, w, registry, trace=True),
                     lambda w=w: run_sstf(m, w, registry)]
        else:
            uses.append(lambda w=w: enumerate_nsstf_runs(m, w, registry))
    if isinstance(m, SST):
        uses.append(lambda: next(sst_outputs(m, 2, registry)))
    for use in uses:
        with pytest.raises(MachineError, match=message):
            use()
    assert calls == []
    assert not {"_valid", "_programs", "_sweeps", "_last_steps"} & set(m.__dict__)


def assert_runs_agree(sst, t, maxlen: int, budget=None) -> None:
    """``run_sst(sst, w)`` against ``reference_run(t, w, budget)`` on every
    word of at most ``maxlen`` letters: the same output where ``t``
    accepts, a reject where it rejects or loops, and no run of ``t`` cut by
    its budget.  A check of ``marble_to_sst(t)`` apart from ``equiv_check``,
    whose marble side reads the crossing summaries the conversion is built
    from (``semantics._crossing``)."""
    for w in words_up_to(t.input_alphabet, maxlen):
        ref = reference_run(t, w, budget)
        assert ref.verdict != BUDGET, w
        got = run_sst(sst, w)
        assert (got.verdict, got.output) == (
            (ACCEPT, ref.output) if ref.accepted else (REJECT, None)), w


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


def reference_update(prog: tuple, val: tuple, w, read: int, registry) -> tuple:
    """``semantics._update``'s valuation, built piece by piece for every
    list right-hand side: a value of at most ``SHARE_MIN`` letters is
    copied, and adjacent copies make one text piece; a longer one or a node
    is referenced.  The result is the text if nothing is referenced, the
    one piece if there is one, and else a node over the pieces.  Fun tokens
    are evaluated once per update on ``w[:read]``, their words joined."""
    new, funs = [], {}
    for rhs in prog:
        if type(rhs) is not list:
            new.append(val[rhs] if type(rhs) is int else rhs)
            continue
        parts: list = []
        for p in rhs:
            kind = type(p)
            if kind is int:
                v = val[p]
            elif kind is str:
                v = p
            else:
                if p.name not in funs:
                    funs[p.name] = "".join(eval_fun(registry, p.name, tuple(w[:read])))
                v = funs[p.name]
            if len(v) > SHARE_MIN or type(v) is _Cat:
                parts.append(v)
            elif v:
                if parts and type(parts[-1]) is list:
                    parts[-1].append(v)
                else:
                    parts.append([v])
        parts = ["".join(p) if type(p) is list else p for p in parts]
        new.append(_Cat(parts) if len(parts) > 1 else parts[0] if parts else "")
    return tuple(new)


# ---------------------------------------------------------------------------
# Reference register-machine validation, one token at a time
# ---------------------------------------------------------------------------


def reference_validate(m) -> list:
    """``validate``'s report for an SST or NSST-F, with every check made on
    the declared tuples, ``where`` formatted for every update and every
    token checked by ``_check_tokens``."""
    report: list = []
    _check_alphabet("input alphabet", m.input_alphabet, report)
    _check_alphabet("output alphabet", m.output_alphabet, report)
    _check_distinct("state", m.states, report)
    _check_distinct("register", m.registers, report)
    if isinstance(m, SST):
        _reference_sst(m, report)
    else:
        _reference_nsstf(m, report)
    for q, rhs in m.output.items():
        if q not in m.states:
            report.append("output[%s]: undeclared state" % q)
        for tok in rhs:
            if isinstance(tok, Fun):
                report.append("output[%s]: function tokens not allowed in output" % q)
        _check_tokens("output[%s]" % q, [t for t in rhs if not isinstance(t, Fun)],
                      m, report)
    return report


def _reference_sst(m, report: list) -> None:
    if m.initial not in m.states:
        report.append("initial state %r not declared" % m.initial)
    if set(m.delta) != set(m.update):
        report.append("transition and update maps have different domains")
    if set(m.init_valuation) != set(m.registers):
        report.append("initial valuation does not cover the register set")
    for x, w in m.init_valuation.items():
        for b in w:
            if b not in m.output_alphabet:
                report.append("init[%s]: unknown output letter %r" % (x, b))
    for (q, a), q2 in m.delta.items():
        if q not in m.states or q2 not in m.states:
            report.append("delta[%s,%s]: undeclared state" % (q, a))
        if a not in m.input_alphabet:
            report.append("delta[%s,%s]: undeclared letter" % (q, a))
    for (q, a), s in m.update.items():
        where = "update[%s,%s]" % (q, a)
        if set(s) != set(m.registers):
            report.append("%s: not total on the register set" % where)
        for x, rhs in s.items():
            _check_tokens("%s(%s)" % (where, x), rhs, m, report)


def _reference_nsstf(m, report: list) -> None:
    assert isinstance(m, NSSTF)
    if set(m.update) != set(m.transitions):
        report.append("update map domain differs from the transition relation")
    for q, val in m.initial.items():
        if q not in m.states:
            report.append("initial[%s]: undeclared state" % q)
        if set(val) != set(m.registers):
            report.append("initial[%s]: valuation not total" % q)
        for x, w in val.items():
            for b in w:
                if b not in m.output_alphabet:
                    report.append("initial[%s][%s]: unknown output letter %r" % (q, x, b))
    for (q, a, q2) in m.transitions:
        if q not in m.states or q2 not in m.states:
            report.append("transition (%s,%s,%s): undeclared state" % (q, a, q2))
        if a not in m.input_alphabet:
            report.append("transition (%s,%s,%s): undeclared letter" % (q, a, q2))
    for key, s in m.update.items():
        where = "update[%s,%s,%s]" % key
        if set(s) != set(m.registers):
            report.append("%s: not total on the register set" % where)
        for x, rhs in s.items():
            _check_tokens("%s(%s)" % (where, x), rhs, m, report)


# ---------------------------------------------------------------------------
# Reference register liveness, one (state, register) pair at a time
# ---------------------------------------------------------------------------


def _reach(starts, step) -> set:
    seen, stack = set(starts), list(starts)
    while stack:
        for nxt in step(stack.pop()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def reference_liveness(m) -> dict:
    """The registers live at each reachable state of an SST, as a graph
    search over (state, register) pairs.  A pair may be nonempty when it is
    reached forward from an initial value or a letter; it is live when it
    may be nonempty and reaches, backward through the updates of pairs that
    are live, a state's output."""
    states = _reach([m.initial], lambda q: [p for (q2, _a), p in m.delta.items() if q2 == q])
    flows = [((q, t.name), (p, x), True) if isinstance(t, Reg) else (None, (p, x), False)
             for (q, a), p in m.delta.items() if q in states
             for x, rhs in m.update[(q, a)].items() for t in rhs]
    forward, backward = {}, {}
    for src, dst, is_reg in flows:
        if is_reg:
            forward.setdefault(src, []).append(dst)
            backward.setdefault(dst, []).append(src)
    seeds = {(m.initial, x) for x, w in m.init_valuation.items() if w}
    seeds |= {dst for src, dst, is_reg in flows if not is_reg}
    nonempty = _reach(seeds, lambda pair: forward.get(pair, ()))
    read = {(q, t.name) for q, rhs in m.output.items() if q in states
            for t in rhs if isinstance(t, Reg)}
    live = _reach(read & nonempty,
                  lambda pair: [src for src in backward.get(pair, ()) if src in nonempty])
    return {q: {x for x in m.registers if (q, x) in live} for q in states}


def assert_allocated(m, layers) -> None:
    """What numbering each state's live registers leaves: every register is
    live at some state, and each layer has exactly as many registers as the
    most of them live at one reachable state, the least any machine on
    these states can have."""
    live = reference_liveness(m)
    assert set(m.registers) == set().union(*live.values())
    for layer in layers:
        assert len(layer) == max(len(here & set(layer)) for here in live.values()), layer
