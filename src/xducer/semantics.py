"""Interpreters for every machine model, with budgets, traces and run stats."""

from __future__ import annotations

import re
import sys
from bisect import bisect
from dataclasses import dataclass
from itertools import chain, product
from typing import Optional

from .machines import (
    Fun,
    FunctionRegistry,
    LEFT_END,
    Lit,
    MachineError,
    MarbleTransducer,
    NAutomaton,
    NSSTF,
    Reg,
    RIGHT_END,
    SST,
    TwoWayTransducer,
    Word,
    as_word,
    foreign_symbol,
    require_valid,
)
from .mt2sst import two_way_to_marble

ACCEPT = "accept"
REJECT = "reject"
BUDGET = "budget"
LOOP = "loop"

BUDGET_CAP = 10 ** 7
NSSTF_BRANCH_LIMIT = 100000   # partial runs enumerate_nsstf_runs may explore


@dataclass(frozen=True)
class RunResult:
    verdict: str
    output: Optional[Word]
    steps: int
    max_stack_depth: int
    trace: Optional[tuple] = None

    @property
    def accepted(self) -> bool:
        return self.verdict == ACCEPT

    @property
    def output_text(self) -> Optional[str]:
        if self.output is None:
            return None
        return "".join(self.output)


def default_budget(n_states: int, word_len: int) -> int:
    # Marble configuration spaces are exponential in the input length, so the
    # budget must dominate two-way bounds while staying desk-safe.
    raw = 10 * (word_len + 2) * max(n_states, 1) * (2 ** min(word_len + 2, 20))
    return min(raw, BUDGET_CAP)


def _check_alphabet(m, w) -> None:
    bad = foreign_symbol(w, m.input_alphabet)
    if bad is not None:
        raise MachineError("input symbol %r not in the machine alphabet" % bad)


def _coder(codes: dict) -> tuple:
    """What ``_code_string`` reads: the character ``chr(code)`` of each
    symbol of ``codes``, and the ``str.translate`` table of those of one
    character (``str.maketrans`` takes no longer key)."""
    chars = {a: chr(code) for a, code in codes.items()}
    return chars, str.maketrans({a: c for a, c in chars.items() if len(a) == 1})


def _code_string(w, coder: tuple) -> str:
    """Word ``w`` as the string of its symbols' code characters (``_coder``),
    built in C: by ``str.translate`` of a ``str`` word, one symbol per
    character, and by a join of a tuple.  Every symbol is in the alphabet
    (``_check_alphabet``)."""
    chars, table = coder
    if isinstance(w, str):
        return w.translate(table)
    return "".join(map(chars.__getitem__, w))


def _result(verdict, output, steps, depth, tr) -> RunResult:
    return RunResult(verdict, output, steps, depth, None if tr is None else tuple(tr))


def format_trace(result: RunResult, sep: str = "") -> str:
    """One line per step: ``step  state  head  stack  emitted`` (tab separated).

    The stack renders top first as ``color@pos,color@pos``; the emitted
    symbols are joined by ``sep``.
    """
    if result.trace is None:
        raise MachineError("run was not traced")
    lines = []
    for step, state, head, stack, emitted in result.trace:
        rendered = ",".join("%s@%d" % (c, p) for c, p in stack)
        lines.append("%d\t%s\t%d\t%s\t%s" % (step, state, head, rendered, sep.join(emitted)))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Two-way and marble transducers
# ---------------------------------------------------------------------------


def marble_of(t: TwoWayTransducer) -> MarbleTransducer:
    """``t`` as the marble machine that drops no marbles, converted once per
    machine object and kept on it."""
    if "_marble" not in t.__dict__:
        t.__dict__["_marble"] = two_way_to_marble(t)
    return t.__dict__["_marble"]


def run_two_way(t: TwoWayTransducer, w, budget: Optional[int] = None,
                trace: bool = False) -> RunResult:
    """Run a two-way transducer as the marble machine that drops no marbles
    (``marble_of``), as ``run_marble`` runs it."""
    return run_marble(t, w, budget=budget, trace=trace)


# Action codes of the step tables.
_LEFT, _RIGHT, _LIFT, _DROP = range(4)
_ACTIONS = {"left": _LEFT, "right": _RIGHT, "lift": _LIFT, "drop": _DROP}

# ``top`` of the bottom frame, which holds no marble: above every cell of
# every tape.
_NO_MARBLE = 1 << 62

# The codec whose bytes are a code string's characters as native 32-bit
# unsigned ints, the items of a memoryview cast to "I".
_UTF32 = "utf-32-le" if sys.byteorder == "little" else "utf-32-be"


def _compile_tables(t: MarbleTransducer) -> tuple:
    """(table, symbol codes, state names, colours, finals, initial, stride,
    coder).

    Raises for a machine that ``validate`` refuses (``require_valid``), so
    every entry is a step the stack discipline allows: no right move or drop
    on a marble, no lift without one, every dropped marble of a declared
    colour and no colour on any other action.  States are numbered as
    ``t.states`` and colours as ``(None, *t.colors)`` (colour 0: no marble);
    a symbol's code is its number times the number of colours, and
    ``coder`` is ``_coder`` of the codes.
    ``table`` maps ``state * stride + symbol code + colour`` to (next state,
    next state * stride, action code, dropped colour, output).  A left move
    on ⊢ and a right move on ⊣ with no marble have no entry: they reject as
    a missing move does, with no step counted.

    A left or right move back into its own state, keyed with no marble under
    the head, is a sweep entry when every such move of that (state,
    direction) outputs one-character symbols only.  In place of the dropped
    colour it holds the matcher they share, [match, outputs, cells]: the
    ``match`` of a regex ``[...]*`` over the characters ``chr(code)`` of the
    symbols that continue the sweep and a ``str.translate`` table from each
    code to its output joined (None if none outputs), both made from
    ``cells``, each code's output, by the first walk that takes the sweep.
    """
    require_valid(t)
    colours = {c: i for i, c in enumerate(dict.fromkeys((None, *t.colors)))}
    codes = {a: i * len(colours)
             for i, a in enumerate((LEFT_END, *t.input_alphabet, RIGHT_END))}
    stride = (len(t.input_alphabet) + 2) * len(colours)
    states = {q: i for i, q in enumerate(t.states)}
    table, sweeps = {}, {}
    for (q, a, c), (q2, (kind, c2)) in t.delta.items():
        act = _ACTIONS[kind]
        if act == _LEFT and a == LEFT_END or act == _RIGHT and a == RIGHT_END and c is None:
            continue
        key = states[q] * stride + codes[a] + colours[c]
        table[key] = (states[q2], states[q2] * stride, act,
                      colours[c2], tuple(t.out[q, a, c]))
        if act < _LIFT and q2 == q and c is None:
            sweeps.setdefault((q, act), {})[codes[a]] = key
    for cells in sweeps.values():
        if any(len(sym) != 1 for key in cells.values() for sym in table[key][4]):
            continue  # outputs str.translate cannot write symbol by symbol
        matcher = [None, None, {code: table[key][4] for code, key in cells.items()}]
        for key in cells.values():
            table[key] = (*table[key][:3], matcher, table[key][4])
    return (table, codes, tuple(states), tuple(colours),
            {states[q] for q in t.finals}, states[t.initial], stride, _coder(codes))


def _compile_sweep(c: list) -> None:
    """Fill in the match and the outputs of sweep matcher ``c``, shared by
    all its entries, from its cells."""
    outs = {code: "".join(out) for code, out in c[2].items()}
    c[:2] = (re.compile("[%s]*" % re.escape("".join(map(chr, sorted(outs))))).match,
             outs if any(outs.values()) else None)


def _tables(t) -> tuple:
    """``_compile_tables(t)``, built on the first run and kept on ``t``; a
    two-way ``t`` is taken as its marble form (``marble_of``), which keeps
    them."""
    if isinstance(t, TwoWayTransducer):
        t = marble_of(t)
    if "_tables" not in t.__dict__:  # kept off the fields, like growth._support
        t.__dict__["_tables"] = _compile_tables(t)
    return t.__dict__["_tables"]


def run_marble(t: MarbleTransducer, w, budget: Optional[int] = None,
               trace: bool = False, detect_loops: bool = True) -> RunResult:
    """Simulate the stack-disciplined transition relation of a marble
    machine, or of a two-way one as its marble form (``_tables``).

    Accepts on the first configuration (q, |w|+1, empty stack) with q final.
    Every run ends in accept, reject, loop or budget.  A ``str`` word is read
    as it is, one symbol per character; any other is made a tuple.  Once
    the word is checked against the alphabet, and before any step, the
    tables of ``_compile_tables`` are built and the tape made, in C, as one
    string: the code characters of ⊢, of the word (``_code_string``) and of
    ⊣.  The run is ``_marble_walk`` of that string, which crosses long
    sweeps with one regex scan of it, so a single long word costs its sweeps
    and not their cells.  ``marble_outputs`` gives the same verdicts and
    outputs for every word up to a length from crossing summaries.
    ``detect_loops`` is accepted for compatibility and has no effect.
    """
    if not isinstance(w, str):
        w = as_word(w)
    _check_alphabet(t, w)
    if budget is None:
        budget = default_budget(len(t.states), len(w))
    tables = _tables(t)
    chars = tables[7][0]
    tape = chars[LEFT_END] + _code_string(w, tables[7]) + chars[RIGHT_END]
    tr = [(0, t.initial, 0, (), ())] if trace else None
    verdict, output, steps, depth = _marble_walk(tables, tape, budget, tr)
    return _result(verdict, output, steps, depth, tr)


def _marble_walk(tables: tuple, fwd: str, budget: int, tr) -> tuple:
    """The one marble loop: run ``fwd``, the tape as the string of its
    cells' code characters from ⊢ to ⊣, from the initial state on ⊢,
    appending trace entries to ``tr`` unless it is None.  Returns (verdict,
    output, steps, max stack depth).  Single steps index the list of the
    codes, read from ``fwd`` in one call.

    Each stack frame keeps a seen set of (state, head) pairs, as ints
    ``head * |states| + state``, and the intervals its sweeps crossed: a
    drop opens a frame with neither, a lift resumes the one below.  A
    looping run repeats the configuration of least height on its cycle
    within one open frame, so every loop is found.  ``stack`` keeps, top
    last, the (top marble position, colour, seen set, swept) each drop
    saved; the bottom frame's ``top`` is ``_NO_MARBLE``.  A missing entry
    rejects, and every entry is a step the stack discipline allows
    (``_compile_tables``), so the loop checks nothing of the stack.

    An untraced run that takes a sweep entry crosses the whole run of cells
    its matcher accepts with one regex scan of ``fwd`` (of its reverse for
    a left sweep, made on the first one), and writes their outputs with one
    ``str.translate``.  A right sweep reads
    no cell at or past the top marble, none goes past the budget, and none
    crosses an endmarker, as a move off the tape has no entry; so the step
    that ends it is a single step, with its own entry.  A sweep of
    fewer than 2 cells is stepped singly, and so is every step of a traced
    run.

    A sweep in state q over the cells [lo, hi] adds no keys to the seen set:
    it records the interval in its frame's ``swept``, which maps q to the
    sorted bounds ``[lo, hi + 1, ...]`` of disjoint intervals, so a cell is
    in one when ``bisect`` of it is odd.  The sweep tests only its landing
    cell, hi for a right sweep and lo for a left one.  The marbles are fixed
    within a frame, so an earlier visit to any cell of the range in state q
    made the same moves up to the landing cell: if that is new, so is every
    cell of the range, and if not, the repeated cells are a suffix of the
    range in the sweep's direction, whose first cell a binary search finds,
    so the loop is reported at the step that repeats, as single steps would.
    A single step adds its key to the seen set, and tests the intervals only
    when its frame holds some for its state.  A frame's memory is thus its
    single-step keys plus one interval per sweep.
    """
    table, _codes, names, colours, finals, q, stride, _coding = tables
    get = table.get
    n = len(names)
    tape = memoryview(fwd.encode(_UTF32, "surrogatepass")).cast("I").tolist()
    end = len(tape) - 1
    pos = steps = depth = 0
    seen, swept, emitted = {q}, {}, []
    base, top, topc, stack = q * stride, _NO_MARBLE, 0, []
    rev = None
    while True:
        if pos == end and not stack and q in finals:
            return ACCEPT, tuple(emitted), steps, depth
        if steps >= budget:
            return BUDGET, None, steps, depth
        move = get(base + tape[pos] + (topc if top == pos else 0))
        if move is None:
            return REJECT, None, steps, depth
        q, base, act, c, out = move
        if c and act < _LIFT and tr is None:  # a sweep entry: c is its matcher
            if c[0] is None:
                _compile_sweep(c)
            if act == _RIGHT:
                cells, start = fwd, pos
                k = c[0](fwd, pos, top).end() - pos
            else:
                if rev is None:
                    rev = fwd[::-1]
                cells, start = rev, end - pos
                k = c[0](rev, start, end).end() - start
            if k > budget - steps:
                k = budget - steps
            if k > 1:
                lo, hi = (pos + 1, pos + k) if act == _RIGHT else (pos - k, pos - 1)
                bounds = swept.setdefault(q, [])
                land = hi if act == _RIGHT else lo
                if land * n + q in seen or bounds and bisect(bounds, land) & 1:
                    # the loop, at the step that repeats: the cells after
                    # ``new`` are new up to a first seen one, then all seen
                    new = pos
                    while abs(land - new) > 1:
                        mid = (land + new) // 2
                        if mid * n + q in seen or bounds and bisect(bounds, mid) & 1:
                            land = mid
                        else:
                            new = mid
                    steps += abs(land - pos)
                    return LOOP, None, steps, depth
                i = bisect(bounds, lo)
                bounds[i:i] = lo, hi + 1
                if c[1] is not None:
                    emitted += cells[start:start + k].translate(c[1])
                steps += k
                pos = land
                continue
        if act == _LEFT:
            pos -= 1
        elif act == _RIGHT:
            pos += 1
        elif act == _DROP:
            stack.append((top, topc, seen, swept))
            top, topc, seen, swept = pos, c, set(), {}
            depth = max(depth, len(stack))
        else:
            top, topc, seen, swept = stack.pop()
        steps += 1
        if out:
            emitted += out
        if tr is not None:
            marbles = [(top, topc)] + [f[:2] for f in stack[:0:-1]] if stack else []
            tr.append((steps, names[q], pos, tuple((colours[i], p) for p, i in marbles), out))
        key = pos * n + q
        if key in seen or q in swept and bisect(swept[q], pos) & 1:
            return LOOP, None, steps, depth
        seen.add(key)


# ---------------------------------------------------------------------------
# Register transducers
# ---------------------------------------------------------------------------


def eval_fun(registry: Optional[FunctionRegistry], name: str, prefix: Word) -> Word:
    if registry is None:
        raise MachineError("function %r used without a registry" % name)
    entry = registry.get(name)
    if callable(entry) and not isinstance(entry, (SST, TwoWayTransducer, MarbleTransducer)):
        return as_word(entry(prefix))
    res = run_machine(entry, prefix, registry=None)
    if not res.accepted:
        raise MachineError(
            "registry function %r rejects prefix %r (oracle not total)"
            % (name, "".join(prefix))
        )
    return res.output


# Register values up to this length are flat tuples; longer ones are _Cat
# nodes that share the values they were built from instead of copying them.
SHARE_MIN = 32


class _Cat(tuple):
    """A register value longer than ``SHARE_MIN``: the concatenation of its
    items, each a letter, a flat word or another node."""

    __slots__ = ()


def _program(pieces):
    """The register program of a sequence of pieces (register numbers,
    letter tuples, ``Fun`` tokens): a register number (a move), a constant
    value, or a list of pieces with adjacent letter tuples merged."""
    merged: list = []
    for p in pieces:
        if type(p) is tuple and merged and type(merged[-1]) is tuple:
            merged[-1] += p
        else:
            merged.append(p)
    if len(merged) > 1 or merged and type(merged[0]) is Fun:
        return merged
    word = merged[0] if merged else ()
    if type(word) is int:
        return word
    return _Cat(word) if len(word) > SHARE_MIN else word


def _compile_rhs(rhs, index: dict):
    """The register program (``_program``) of a right-hand side."""
    return _program([(tok.sym,) if type(tok) is Lit else index[tok.name] if type(tok) is Reg
                     else tok for tok in rhs])


def _programs(m) -> tuple:
    """(steps, outputs) of an SST or NSST-F, kept on the machine object:
    stored there by the loader for a well-formed SST, SST-F or NSST-F read
    from a file (``machine_io``, which builds them from its pooled tokens),
    and otherwise compiled here on the machine's first run.  Every register run
    and summary reads them here, so each refuses a machine that ``validate``
    refuses (``require_valid``) before its first step, on every word, with
    that machine's first problem: no programs are kept for it.

    Registers are numbered in ``m.registers`` order and a valuation is a
    tuple.  An update program is a tuple of ``_compile_rhs`` programs, one
    per register.  ``steps`` maps an SST's (state, letter) to (next state,
    update program) and an NSST-F transition to its update program;
    ``outputs`` maps a state to its output program.  Untraced ``run_sst``
    derives its sweeps from these programs in ``_sweeps``, not here, so
    ``sst_outputs`` and NSST-F runs never build them.
    """
    if "_programs" not in m.__dict__:  # kept off the fields, like _tables
        require_valid(m)
        index = {x: i for i, x in enumerate(m.registers)}
        steps = {key: tuple(_compile_rhs(s[x], index) for x in m.registers)
                 for key, s in m.update.items()}
        if isinstance(m, SST):
            steps = {key: (q2, steps[key]) for key, q2 in m.delta.items()}
        m.__dict__["_programs"] = steps, {
            q: _compile_rhs(rhs, index) for q, rhs in m.output.items()}
    return m.__dict__["_programs"]


def _valuation(init: dict, registers: tuple) -> tuple:
    return tuple(tuple(init[x]) for x in registers)


def _update(prog: tuple, val: tuple, w, read: int,
            registry: Optional[FunctionRegistry]) -> tuple:
    """Valuation after update program ``prog``.

    Values of at most ``SHARE_MIN`` letters are copied into the new value;
    a longer value or a node is referenced, so ``x := y·a·z`` costs the
    length of its right-hand side and not of its result, and a run takes
    time linear in the input (``_flat`` pays for the output once).  Fun
    tokens are evaluated once per update, in register order, on
    ``w[:read]``, the input read so far including the current letter.

    A list right-hand side is first joined by tuple concatenation while
    every piece is a flat tuple; a join of at most ``SHARE_MIN`` letters is
    the value, as the piece-by-piece loop below would build it.  Any other
    list (a node, a ``Fun``, a longer join) goes through that loop.
    """
    new, funs = [], {}
    append = new.append
    for rhs in prog:
        if type(rhs) is not list:
            append(val[rhs] if type(rhs) is int else rhs)
            continue
        value = ()
        for p in rhs:
            v = val[p] if type(p) is int else p
            if type(v) is not tuple:
                break
            value += v
        else:
            if len(value) <= SHARE_MIN:
                append(value)
                continue
        parts: list = []
        shared = False
        for p in rhs:
            kind = type(p)
            if kind is int:
                v = val[p]
            elif kind is tuple:
                parts += p
                continue
            else:
                if p.name not in funs:
                    funs[p.name] = eval_fun(registry, p.name, tuple(w[:read]))
                v = funs[p.name]
            if len(v) > SHARE_MIN or type(v) is _Cat:
                parts.append(v)
                shared = True
            else:
                parts += v
        append(parts[0] if shared and len(parts) == 1 else
               _Cat(parts) if shared or len(parts) > SHARE_MIN else tuple(parts))
    return tuple(new)


# Longest word _flat writes out; a longer output raises instead of
# exhausting memory.
OUTPUT_LETTER_LIMIT = 10 ** 7


def _too_long(length: int):
    raise MachineError("register output exceeded %d letters (it has %d)"
                       % (OUTPUT_LETTER_LIMIT, length))


def _length(value: _Cat) -> int:
    """Letters of a node, counted once per node of its DAG."""
    sizes: dict = {}
    stack = [value]
    while stack:
        node = stack[-1]
        if id(node) in sizes:
            stack.pop()
            continue
        todo = [item for item in node if type(item) is _Cat and id(item) not in sizes]
        if todo:
            stack += todo
            continue
        stack.pop()
        sizes[id(node)] = sum(sizes[id(item)] if type(item) is _Cat else
                              len(item) if type(item) is tuple else 1 for item in node)
    return sizes[id(value)]


def _flat(value) -> Word:
    """The word a register value stands for.

    An iterative walk: a node met again is copied from the span of the output
    that its first visit wrote, so a shared DAG costs what its output costs.
    Raises if the word is longer than ``OUTPUT_LETTER_LIMIT``, before the
    walk holds more letters than that.  Every item of a node writes at least
    one letter, so ``need``, the letters written plus one for each item not
    yet written, never exceeds the word's length; it is checked before each
    span copy, extend and node entered, and a letter leaves it as it is.
    Only on refusal is the length counted (``_length``), for the message.
    """
    if type(value) is not _Cat:
        if len(value) > OUTPUT_LETTER_LIMIT:
            _too_long(len(value))
        return value
    need = len(value)
    if need > OUTPUT_LETTER_LIMIT:
        _too_long(_length(value))
    out: list = []
    spans: dict = {}
    stack = [(value, 0, iter(value))]
    while stack:
        node, start, items = stack[-1]
        for item in items:
            kind = type(item)
            if kind is _Cat:
                span = spans.get(id(item))
                need += (len(item) if span is None else span[1] - span[0]) - 1
                if need > OUTPUT_LETTER_LIMIT:
                    _too_long(_length(value))
                if span is None:
                    stack.append((item, len(out), iter(item)))
                    break
                out += out[span[0]:span[1]]
            elif kind is tuple:
                need += len(item) - 1
                if need > OUTPUT_LETTER_LIMIT:
                    _too_long(_length(value))
                out += item
            else:
                out.append(item)
        else:
            stack.pop()
            spans[id(node)] = (start, len(out))
    return tuple(out)


def _output_word(prog, val: tuple) -> Word:
    """Value of an output program, flattened.  The pieces of a list program
    are joined by tuple concatenation while all of them are flat, whatever
    their total length, and the join is checked against
    ``OUTPUT_LETTER_LIMIT`` once; a list with a node among its pieces is
    flattened whole by ``_flat``, as one node over its nonempty pieces.
    Outputs hold no function tokens (``validate`` refuses them), so no word
    or registry is passed; ``sst_outputs`` also reads here the composed
    last steps of a machine without functions (``_last_steps``)."""
    if type(prog) is not list:
        return _flat(val[prog] if type(prog) is int else prog)
    word = ()
    for p in prog:
        v = val[p] if type(p) is int else p
        if type(v) is not tuple:
            return _flat(_Cat([v for v in (val[p] if type(p) is int else p for p in prog) if v]))
        word += v
    if len(word) > OUTPUT_LETTER_LIMIT:
        _too_long(len(word))
    return word


def _sweep_kind(r: int, rhs):
    """How register ``r``'s program ``rhs`` acts in a sweep: (None, []) if
    it keeps ``r``, ("reset", value) for a constant, ("right", u) for
    ``r := r·u`` or ("left", u) for ``r := u·r``, with ``u`` a list of pieces
    and no ``Fun``; None for anything else.  A ``u`` that reads ``r`` keeps
    the letter out of the class, as ``r`` is not frozen."""
    if type(rhs) is int:
        return (None, []) if rhs == r else None
    if type(rhs) is not list:
        return "reset", rhs
    if any(type(p) is Fun for p in rhs):
        return None
    if rhs[0] == r:
        return "right", rhs[1:]
    return ("left", rhs[:-1]) if rhs[-1] == r else None


def _sweep_entry(loops: list, n: int, code: dict):
    """The sweep of one state from its self-loops ``loops``, (letter, update
    program) pairs, over ``n`` registers, or None if no letter sweeps.

    Letters join the class greedily, in sorted order, while every register
    stays one kind on all of them: frozen (itself on every letter), reset
    (one constant on every letter), or grown on one side (itself, which
    grows it by ε, or ``_sweep_kind``'s "right" or "left" on each letter),
    and every register an increment reads stays frozen.  The entry is (the
    class, the ``match`` of a regex ``[...]*`` over the ``code`` of its
    letters, the update program of a whole sweep, the increment programs of
    the grown registers per letter, which of them grow left).  The sweep
    program reads register ``n + k`` as the chunk the k-th grown register
    gains.
    """
    cls, modes, reads, kinds_of = [], [None] * n, set(), {}
    for a, prog in sorted(loops):
        kinds = [_sweep_kind(r, rhs) for r, rhs in enumerate(prog)]
        if None in kinds:
            continue
        new = list(modes)
        for r, (tag, body) in enumerate(kinds):
            if tag == "reset":
                if cls and new[r] != (tag, body):
                    break
                new[r] = tag, body
            elif type(new[r]) is tuple:  # a reset register must reset on every letter
                break
            elif tag is not None:
                if new[r] not in (None, tag):
                    break
                new[r] = tag
        else:
            read = reads.union(p for tag, body in kinds if tag in ("right", "left")
                               for p in body if type(p) is int)
            if all(new[x] is None for x in read):
                cls.append(a)
                modes, reads, kinds_of[a] = new, read, kinds
    if not cls:
        return None
    grown = [r for r, mode in enumerate(modes) if mode in ("right", "left")]
    prog = []
    for r, mode in enumerate(modes):
        if mode is None or type(mode) is tuple:
            prog.append(r if mode is None else mode[1])
        else:
            chunk = n + grown.index(r)
            prog.append([r, chunk] if mode == "right" else [chunk, r])
    incs = {a: tuple(kinds[r][1] for r in grown) for a, kinds in kinds_of.items()}
    chars = re.escape("".join(code[a] for a in cls))
    return (frozenset(cls), re.compile("[%s]*" % chars).match, tuple(prog), incs,
            tuple(modes[r] == "left" for r in grown))


def _sweeps(m: SST) -> tuple:
    """(letter coder, sweep entry per state) of an SST, built on its first
    untraced run and kept on the machine object next to ``_programs``.

    A letter's code is its index in the input alphabet, and the coder is
    ``_coder`` of those codes; a state's entry is ``_sweep_entry`` of its
    self-loops.  ``_programs`` does not build this, so the ``equiv`` walk
    (``sst_outputs``) never pays for it.
    """
    if "_sweeps" not in m.__dict__:
        coder = _coder({a: i for i, a in enumerate(m.input_alphabet)})
        loops: dict = {}
        for (q, a), (q2, prog) in _programs(m)[0].items():
            if q2 == q:
                loops.setdefault(q, []).append((a, prog))
        entries = {q: _sweep_entry(progs, len(m.registers), coder[0])
                   for q, progs in loops.items()}
        m.__dict__["_sweeps"] = coder, {q: e for q, e in entries.items() if e}
    return m.__dict__["_sweeps"]


def _sweep(entry: tuple, val: tuple, run: tuple) -> tuple:
    """Valuation after the letters ``run`` of ``entry``'s class.

    Each grown register gains one chunk: the increments of the letters of
    ``run`` (reversed for a left grower), evaluated once per class letter on
    ``val``, since every register they read is frozen.  An increment of at
    most ``SHARE_MIN`` letters is spliced in and a longer one referenced, as
    ``_update`` does; a chunk that references one is a node, any other a flat
    tuple.  The sweep program then joins each chunk to its register.
    """
    _cls, _match, prog, incs, lefts = entry
    incs = {a: _update(p, val, (), 0, None) for a, p in incs.items()}
    chunks = []
    for k, left in enumerate(lefts):
        pieces, shared = {}, set()
        for a, vals in incs.items():
            v = vals[k]
            if type(v) is _Cat or len(v) > SHARE_MIN:
                pieces[a] = (v,)
                shared.add(a)
            else:
                pieces[a] = v
        items = tuple(chain.from_iterable(map(pieces.__getitem__, run[::-1] if left else run)))
        chunks.append(_Cat(items) if shared and not shared.isdisjoint(run) else items)
    return _update(prog, val + tuple(chunks), (), 0, None)


def run_sst(m: SST, w, registry: Optional[FunctionRegistry] = None,
            trace: bool = False) -> RunResult:
    """One-way run; accepts iff defined everywhere and final state has output.

    Register values are shared (``_update``), so the run takes time linear
    in ``w`` plus the output length; ``RunResult.output`` is flat.

    A ``str`` word is read as it is, one symbol per character; any other is
    made a tuple.  An untraced run standing in a state with a sweep
    (``_sweeps``) on a letter of its class, followed by another, finds the
    whole run of class letters with one regex scan of the word's string of
    letter codes, made in C on the first sweep (``_code_string``), and
    applies them at once (``_sweep``).  A sweep loops on its state, so the
    result is that of single steps; runs of one letter and every step of a
    traced run step singly.
    """
    if not isinstance(w, str):
        w = as_word(w)
    _check_alphabet(m, w)
    if m.funs and registry is None:
        raise MachineError("machine uses external functions; a registry is required")
    steps, outputs = _programs(m)
    coder, sweeps = (None, {}) if trace else _sweeps(m)
    q, val = m.initial, _valuation(m.init_valuation, m.registers)
    tr = [(0, q, 0, (), ())] if trace else None
    i, n, text = 0, len(w), None
    while i < n:
        a = w[i]
        step = steps.get((q, a))
        if step is None:
            return _result(REJECT, None, i, 0, tr)
        entry = sweeps.get(q)
        if entry is not None and a in entry[0] and i + 1 < n and w[i + 1] in entry[0]:
            if text is None:
                text = _code_string(w, coder)
            j = entry[1](text, i).end()
            val = _sweep(entry, val, w[i:j])
            i = j
            continue
        q, prog = step
        i += 1
        val = _update(prog, val, w, i, registry)
        if trace:
            tr.append((i, q, i, (), ()))
    if q not in outputs:
        return _result(REJECT, None, n, 0, tr)
    return _result(ACCEPT, _output_word(outputs[q], val), n, 0, tr)


def sst_outputs(m: SST, maxlen: int, registry: Optional[FunctionRegistry] = None):
    """The output of ``run_sst(m, w, registry)`` if it accepts, else None (an
    SST run only accepts or rejects), for every word ``w`` of length at most
    ``maxlen``: by length, then lexicographically over the sorted input
    alphabet.

    The walk goes one length at a time.  It keeps, in lex order, an entry
    (state, valuation, word) for each word of length n - 1, with state None
    once the run has died; the word itself is carried only for a machine
    with functions, as ``Fun`` tokens read it.  Each entry is extended by
    each letter through its state's row, built once per call: per letter in
    sorted order, None or (next state, update program, the next state's
    output program or None, the letter as a word), so each update is
    applied once per word and a step looks up no (state, letter) key.  A
    word's valuation is built for the next length and its output read from
    it.  At ``maxlen``, for a machine without functions, no valuation is
    built: the output is read from the parent's valuation by the composed
    program of the last step (``_last_steps``), also read by row.  So
    valuations are kept for one length (and the next while it is built),
    at most |alphabet|^(maxlen-1) of them without functions and
    |alphabet|^maxlen with, a number ``equiv``'s word cap bounds.  The
    registry check runs once.
    """
    letters = sorted(m.input_alphabet)
    if m.funs and registry is None:
        raise MachineError("machine uses external functions; a registry is required")
    steps, outputs = _programs(m)
    funs = bool(m.funs)
    rows = {None: [None] * len(letters)}  # the dead entries' row
    for q in m.states:
        rows[q] = [(s[0], s[1], outputs.get(s[0]), (a,))
                   if (s := steps.get((q, a))) else None for a in letters]
    dead = (None, None, ())
    val = _valuation(m.init_valuation, m.registers)
    out = outputs.get(m.initial)
    yield None if out is None else _output_word(out, val)
    level = [(m.initial, val, ())]
    for n in range(1, maxlen + 1 if funs else maxlen):
        children = []
        append = children.append
        for q, val, w in level:
            for step in rows[q]:
                if step is None:
                    append(dead)
                    yield None
                    continue
                q2, prog, out, a = step
                wa = w + a if funs else w
                child = _update(prog, val, wa, n, registry)
                append((q2, child, wa))
                yield None if out is None else _output_word(out, child)
        level = children
    if funs or maxlen < 1:
        return
    last = _last_steps(m)
    rows = {q: [last.get((q, a)) for a in letters] for q in rows}
    for q, val, _w in level:
        for out in rows[q]:
            yield None if out is None else _output_word(out, val)


def _last_steps(m: SST) -> dict:
    """The output program of the last letter of a word, per (state, letter)
    of a machine without functions whose step enters a state with output:
    that state's output program, with each register it reads replaced by
    the register's program in the step's update (a constant ``_Cat``
    spliced in as its letters).  Composed from ``_programs(m)`` on the
    first call and kept on the machine object next to them.
    """
    if "_last_steps" in m.__dict__:
        return m.__dict__["_last_steps"]
    steps, outputs = _programs(m)
    last = {}
    for key, (q2, prog) in steps.items():
        out = outputs.get(q2)
        if out is None:
            continue
        pieces: list = []
        for p in out if type(out) is list else (out,):
            rhs = prog[p] if type(p) is int else p
            pieces += [tuple(x) if type(x) is _Cat else x
                       for x in (rhs if type(rhs) is list else (rhs,))]
        last[key] = _program(pieces)
    m.__dict__["_last_steps"] = last
    return last


def marble_outputs(t: MarbleTransducer, maxlen: int, budget: Optional[int] = None):
    """``(verdict, output)``, as ``run_marble(t, w, budget)`` gives them, for
    every word ``w`` of length at most ``maxlen``: by length, then
    lexicographically over the sorted input alphabet.  ``t`` is a marble or
    a two-way machine (``_tables``).

    A marble machine, like a two-way one, keeps a stack discipline: a marble
    is dropped under the head and the head never moves right past it.  So
    what a run does on the cells of a prefix u, from the moment the head
    enters u's last cell from the right until it next steps right off it,
    depends only on u and the state it entered in, and no marble of u's
    cells outlives it.  That is u's crossing summary for the state
    (``_crossing``), computed once per (prefix, state), when first asked
    for, and kept on u's node of the word tree (``_Prefix``), so every
    extension of u shares it.  The tree is kept whole, as a summary asked
    for later may lie at any depth.  The walk goes one length at a time, as
    ``sst_outputs`` does, and keeps each word's node and its first arrival
    on ⊣: the state, steps and output when the head first stood there, or
    how and after how many steps the run ended before.  A word u·a arrives
    where u arrived, extended by the summary of its last cell; where the
    step table enters that cell with a right move, the summary is that one
    step, read straight from the table and stored in u·a's node as
    ``_crossing`` would store it.  An ended run passes to every extension
    with no work.  On ⊣ the word's run goes on by ``_crossing`` of ⊣, whose
    every left move is answered by a summary of the word
    (``_marble_verdict``).

    The steps of a run are summed, so its verdict under the budget comes out
    exactly: an accept after at most ``budget`` steps, a reject after fewer,
    and otherwise the budget.  Summaries find a loop no earlier than a run
    from ⊢ (``_crossing``): a loop found within the budget is a loop of that
    run, and a word whose loop is found past its budget is run again from ⊢
    by ``_marble_walk``, which alone tells that loop from the budget.  So is
    a word whose output is too long for ``_flat``.  Outputs are shared as
    ``_Cat`` nodes, as register values are, and flattened only when a word
    is yielded.  A machine that ``validate`` refuses raises before the first
    word, as ``run_marble`` raises before the first step
    (``_compile_tables``).
    """
    tables = _tables(t)
    get, codes, stride = tables[0].get, tables[1], tables[6]
    letters = [codes[a] for a in sorted(t.input_alphabet)]
    n_states = len(t.states)
    root = _Prefix(None, codes[LEFT_END])
    # An entry: a word's node, its arrival on ⊣ (state, steps, output), and
    # 1.  Once the run has ended, the arrival is (verdict, steps, None), the
    # node is that of the word on which it ended, and the count is that of
    # the words of the level that extend it, which follow one another.
    level = [(root, *_crossing(tables, None, root.code, root, tables[5]), 1)]
    for n in range(maxlen + 1):
        word_budget = default_budget(n_states, n) if budget is None else budget
        children = []
        for node, q, steps, out, count in level:
            if type(q) is not int:
                pair = _marble_verdict(tables, node, q, steps, out, word_budget)
                for _ in range(count):
                    yield pair
                if n < maxlen:
                    children.append((node, q, steps, out, count * len(letters)))
                continue
            yield _marble_verdict(tables, node, q, steps, out, word_budget)
            if n < maxlen:
                for a in letters:
                    child = _Prefix(node, a)
                    move = get(q * stride + a)
                    if move is not None and move[2] == _RIGHT:  # the summary is this step
                        emitted = move[4]
                        child[q] = q2, more, tail = (
                            move[0], 1, _Cat(emitted) if len(emitted) > SHARE_MIN else emitted)
                    else:
                        q2, more, tail = _crossing(tables, node, a, child, q)
                    children.append((child, q2, steps + more,
                                     tail if tail is None else _joined(out, tail), 1))
        level = children


class _Prefix(dict):
    """A node of ``marble_outputs``' word tree: a prefix, as its parent's
    node and the code of its last cell's symbol (⊢ for the empty prefix,
    whose parent is None), mapping an entry state to its crossing summary
    (``_crossing``)."""

    __slots__ = ("parent", "code")

    def __init__(self, parent, code: int):
        self.parent, self.code = parent, code

    def tape(self, right: int) -> str:
        """The prefix's cells from ⊢, then ``right`` (⊣), as the string of
        their code characters that ``_marble_walk`` runs."""
        cells, node = [right], self
        while node is not None:
            cells.append(node.code)
            node = node.parent
        return "".join(map(chr, reversed(cells)))


def _marble_verdict(tables: tuple, node: _Prefix, q, steps: int, out, budget: int) -> tuple:
    """``(verdict, output)`` of ``run_marble`` under ``budget`` on the word
    of ``node``, whose run first stood on ⊣ in state ``q`` after ``steps``
    steps and output ``out``, or on any extension of it, if its run ended
    before with verdict ``q`` (``marble_outputs``).  A run ends in ACCEPT,
    REJECT or LOOP; no summary ends in an error."""
    right = tables[1][RIGHT_END]
    if type(q) is int:  # the head first stands on ⊣ in state q
        q, more, tail = _crossing(tables, node, right, None, q)
        steps += more
        out = tail if tail is None else _joined(out, tail)
    if q == LOOP and steps > budget:
        return _marble_walk(tables, node.tape(right), budget, None)[:2]
    if steps > budget or steps == budget and q != ACCEPT and q != LOOP:
        return BUDGET, None
    if q == ACCEPT:
        try:
            return ACCEPT, _flat(out)
        except MachineError:  # longer than _flat writes; a run has no such limit
            return ACCEPT, _marble_walk(tables, node.tape(right), budget, None)[1]
    return q, None


def _joined(u, v):
    """The word u·v of two outputs, flat while it has at most ``SHARE_MIN``
    letters, else a node."""
    if not u or not v:
        return u or v
    if type(u) is tuple and type(v) is tuple and len(u) + len(v) <= SHARE_MIN:
        return u + v
    return _Cat((u, v))


def _crossing(tables: tuple, parent, sym: int, memo, q: int) -> tuple:
    """The crossing summary of a cell holding symbol code ``sym``, entered
    in state ``q`` with no marble on it: (state, steps, output) for the
    state in which the head next steps right off the cell, with the steps
    and output on the way, or (verdict, steps, None) if the run ends first:
    ACCEPT, REJECT or LOOP.

    Only the head's moves on this cell are simulated.  A left move is
    answered by ``parent``, which maps a state to the summary of the cell to
    the left entered in it (None left of ⊢, where no left move has an
    entry).
    ``marble_outputs`` passes a ``_Prefix``, whose missing summaries are
    computed when asked for, on an explicit stack of suspended cells;
    ``mt2sst.marble_to_sst`` a dict over every state, whose outputs are
    registers.  On ⊣ the run accepts in a final state with no marble, as
    ``_marble_walk`` does.

    ``memo`` (None, or the cell's summaries by entry state) shares chain
    suffixes.  The rest of a run that stands on the cell with no marble in
    state p depends on p alone, so at each such p not seen before, a
    summary stored under p ends the simulation.  At the end the summary is
    stored under its entry and, unless it is LOOP, under each such p, with
    what is left from p.  A stored summary other than LOOP is exact: the run
    from p repeated no state, and a run entered in p, which remembers less,
    makes the same moves.  A LOOP is found no earlier than a run from ⊢
    finds it, as the summaries' seen sets hold only configurations which
    that run holds at the same step; this is what ``marble_outputs``'
    budget rule needs.

    The cell's seen sets are of states: one for the frame the summary starts
    in, and a fresh one for each marble dropped on the cell, the only marble
    the head can meet there.  The outcomes a step's key fixes come from
    ``_marble_walk``'s table: a missing entry rejects.  Every entry is a
    legal step (``_compile_tables``), so no summary ends in an error.
    Outputs are joined under the ``SHARE_MIN`` rule of ``_update``: a piece
    of at most ``SHARE_MIN`` letters is copied, a longer one or a node
    referenced.
    """
    table, codes, _names, _colours, finals, _q0, stride, _coding = tables
    get = table.get
    right = codes[RIGHT_END]
    # ``marks``: (state, steps, len(parts)) at each state met after the
    # entry with no marble on the cell; ``shared``: the index in ``parts``
    # of the last piece kept by reference, or -1.
    entry, steps, parts, shared, col, seen, below, marks = q, 0, [], -1, 0, {q}, None, []
    sub = hit = None
    frames = []
    while True:
        if sub is not None:  # back from the cells left of this one, or, with
            done, more, value = sub  # ``hit``, at a stored summary that ends this one
            steps += more
            if type(value) is _Cat or value is not None and len(value) > SHARE_MIN:
                shared = len(parts)
                parts.append(value)
            elif value:
                parts += value
            if type(done) is int and not hit:
                q, done = done, None
            sub = hit = None
        elif sym == right and below is None and q in finals:
            done = ACCEPT
        else:
            done = None
            move = get(q * stride + sym + col)
            if move is None:
                done = REJECT
            else:
                q, _base, act, c, out = move
                steps += 1
                parts += out
                if act == _RIGHT:
                    done = q
                elif act == _DROP:
                    below, seen, col = seen, set(), c
                elif act == _LIFT:
                    seen, below, col = below, None, 0
                else:  # a left move, answered by the cell on the left
                    sub = parent.get(q)
                    if sub is None:  # suspend this cell, and summarize the parent's
                        frames.append((parent, sym, memo, entry, steps, parts, shared,
                                       col, seen, below, marks))
                        parent, sym, memo, entry = parent.parent, parent.code, parent, q
                        steps, parts, shared, col, seen, below, marks = (
                            0, [], -1, 0, {q}, None, [])
                    continue
        if done is None:
            if q in seen:
                done = LOOP
            elif col or memo is None or q not in memo:
                seen.add(q)
                if not col and memo is not None:
                    marks.append((q, steps, len(parts)))
                continue
            else:
                sub, hit = memo[q], True
                continue
        # the summary, stored under the entry and, unless it is LOOP, with
        # what is left of it under each mark
        keep = type(done) is int or done == ACCEPT
        if memo is not None and done != LOOP:
            for p, at, start in marks:
                piece = parts[start:]
                memo[p] = done, steps - at, None if not keep else (
                    _Cat(piece) if shared >= start or len(piece) > SHARE_MIN else tuple(piece))
        done = done, steps, None if not keep else (
            _Cat(parts) if shared >= 0 or len(parts) > SHARE_MIN else tuple(parts))
        if memo is not None:
            memo[entry] = done
        if not frames:
            return done
        sub = done
        parent, sym, memo, entry, steps, parts, shared, col, seen, below, marks = frames.pop()


def _summaries(tables: tuple, parent, sym: int, entries) -> list:
    """``_crossing``'s summary of the cell ``sym`` for each state number of
    ``entries``, sharing one memo."""
    memo: dict = {}
    for q in entries:
        if q not in memo:
            _crossing(tables, parent, sym, memo, q)
    return [memo[q] for q in entries]


def run_sstf(m: SST, w, registry: FunctionRegistry, trace: bool = False) -> RunResult:
    """Run an SST with external functions against a registry."""
    for f in m.funs:
        if f not in registry:
            raise MachineError("unresolved function name %r" % f)
    return run_sst(m, w, registry=registry, trace=trace)


def enumerate_nsstf_runs(m: NSSTF, w, registry: Optional[FunctionRegistry] = None) -> list:
    """All accepting runs with their outputs, by exhaustive branching.

    Returns a list of (state sequence, output word) pairs, ordered by the
    lexicographic state sequence.  Partial runs are explored depth first
    from an explicit stack, so words of any length are safe; raises once the
    number of explored partial runs exceeds ``NSSTF_BRANCH_LIMIT``.
    """
    w = as_word(w)
    _check_alphabet(m, w)
    steps, outputs = _programs(m)
    succ: dict = {}
    for (q, a, q2) in m.transitions:
        succ.setdefault((q, a), []).append(q2)
    for key in succ:
        succ[key].sort()
    results = []
    explored = 0
    # A partial run is (state, letters read, its states as a (last, rest)
    # chain, the valuation it extends, the transition still to apply or None).
    stack = [(q0, 0, (q0, None), _valuation(m.initial[q0], m.registers), None)
             for q0 in sorted(m.initial)]
    stack.reverse()
    while stack:
        q, i, trail, val, step = stack.pop()
        if step is not None:
            val = _update(steps[step], val, w, i, registry)
        explored += 1
        if explored > NSSTF_BRANCH_LIMIT:
            raise MachineError("NSST-F run enumeration exceeded %d partial runs"
                               % NSSTF_BRANCH_LIMIT)
        if i == len(w):
            if q in outputs:
                states = []
                while trail is not None:
                    states.append(trail[0])
                    trail = trail[1]
                results.append((tuple(reversed(states)), _output_word(outputs[q], val)))
            continue
        a = w[i]
        for q2 in reversed(succ.get((q, a), ())):
            stack.append((q2, i + 1, (q2, trail), val, (q, a, q2)))
    results.sort(key=lambda rv: rv[0])
    return results


# ---------------------------------------------------------------------------
# N-automata
# ---------------------------------------------------------------------------


def eval_nautomaton_vector(m: NAutomaton, w) -> dict:
    """Row vector alpha . mats(w), with exact integer arithmetic.  A machine
    that ``validate`` refuses is refused before the first letter."""
    w = as_word(w)
    _check_alphabet(m, w)
    require_valid(m)
    vec = {q: m.alpha.get(q, 0) for q in m.states}
    for a in w:
        mat = m.mats[a]
        new = {q: 0 for q in m.states}
        for (p, q), weight in mat.items():
            vp = vec[p]
            if vp:
                new[q] += vp * weight
        vec = new
    return vec


def eval_nautomaton(m: NAutomaton, w) -> int:
    vec = eval_nautomaton_vector(m, w)
    return sum(vec[q] * m.beta.get(q, 0) for q in m.states)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def run_machine(m, w, registry: Optional[FunctionRegistry] = None,
                budget: Optional[int] = None, trace: bool = False) -> RunResult:
    """Run any word-to-word machine description on a word.

    An NSST-F has no single run, so asking to trace one raises."""
    if isinstance(m, (TwoWayTransducer, MarbleTransducer)):
        return run_marble(m, w, budget=budget, trace=trace)
    if isinstance(m, SST):
        return run_sst(m, w, registry=registry, trace=trace)
    if isinstance(m, NSSTF):
        if trace:
            raise MachineError("an NSST-F has no single run to trace")
        runs = enumerate_nsstf_runs(m, w, registry=registry)
        if not runs:
            return RunResult(REJECT, None, len(as_word(w)), 0, None)
        if len({out for _, out in runs}) > 1:
            raise MachineError("ambiguous machine: several outputs for one word")
        return RunResult(ACCEPT, runs[0][1], len(as_word(w)), 0, None)
    raise MachineError("cannot run machine of type %s" % type(m).__name__)
