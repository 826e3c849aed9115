"""Machine models: alphabets, substitutions, transducers and structural checks.

All machines are plain frozen dataclasses over interned string identifiers
(states, registers, marble colors, function names).  Maps are ordinary dicts;
construction code keeps insertion order deterministic so that serialized
machines are byte-stable.  Machine values are treated as immutable after
construction.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional, Sequence, Union

LEFT_END = "⊢"   # left endmarker, position 0
RIGHT_END = "⊣"  # right endmarker, position |w|+1

MOVE_LEFT = "left"
MOVE_RIGHT = "right"

# Marble head actions: (kind, color-or-None).
ACT_LEFT = ("left", None)
ACT_RIGHT = ("right", None)
ACT_LIFT = ("lift", None)


def act_drop(color: str) -> tuple:
    return ("drop", color)


class MachineError(Exception):
    """Raised on malformed machines or violated preconditions."""


def explore(starts, successors, limit: int, stage: str, stop=None) -> list:
    """Every node reachable from ``starts``, in breadth-first discovery order.

    ``successors(node)`` returns an iterable of the node's successors; it is
    fully consumed before the next node is expanded, so callers may record
    edges and labels while yielding.  With ``stop``, the search ends at the
    first node found after the starts for which ``stop`` holds, and the list
    ends with that node.  Raises a MachineError naming ``stage`` once more
    than ``limit`` nodes have been found.
    """
    order = list(dict.fromkeys(starts))
    seen = set(order)
    queue = deque(order)
    while queue:
        for node in successors(queue.popleft()):
            if node not in seen:
                seen.add(node)
                order.append(node)
                if stop is not None and stop(node):
                    return order
                if len(order) > limit:
                    raise MachineError("%s exceeded %d states" % (stage, limit))
                queue.append(node)
    return order


# ---------------------------------------------------------------------------
# Words and tokens
# ---------------------------------------------------------------------------

Word = tuple  # tuple[str, ...]


def as_word(w) -> Word:
    """Coerce a str (one symbol per character) or iterable of symbols."""
    return tuple(w)


def foreign_symbol(w, alphabet):
    """The first symbol of word ``w`` that is not in ``alphabet``, or None.

    A ``str`` word is read one symbol per character, by one ``str.translate``
    that deletes the alphabet's one-character symbols: what is left starts
    with the first foreign character."""
    if isinstance(w, str):
        rest = w.translate(dict.fromkeys([ord(a) for a in alphabet if len(a) == 1]))
        return rest[0] if rest else None
    if set(w).issubset(alphabet):
        return None
    return next(a for a in w if a not in alphabet)


@dataclass(frozen=True)
class Lit:
    """An output letter inside a substitution or output expression."""

    sym: str


@dataclass(frozen=True)
class Reg:
    """A register reference."""

    name: str


@dataclass(frozen=True)
class Fun:
    """An external function name reference (evaluated on the input prefix)."""

    name: str


Token = Union[Lit, Reg, Fun]

# A substitution maps each register to a sequence of tokens.
Substitution = dict  # dict[str, tuple[Token, ...]]


def compose_substitutions(s1: Substitution, s2: Substitution) -> Substitution:
    """Apply s1 homomorphically to every right-hand side of s2.

    The result r satisfies r(x) = s1(s2(x)); letters and function tokens are
    fixed points.  Both substitutions must be over the same register set.
    """
    if set(s1) != set(s2):
        raise MachineError(
            "register mismatch: %s vs %s" % (sorted(s1), sorted(s2))
        )
    return {x: subst_apply(s1, rhs) for x, rhs in s2.items()}


def subst_apply(s: Substitution, tokens: Sequence[Token]) -> tuple:
    """Homomorphic extension of s to a token sequence."""
    out = []
    for tok in tokens:
        if isinstance(tok, Reg):
            try:
                out.extend(s[tok.name])
            except KeyError:
                raise MachineError("unknown register %r" % tok.name) from None
        else:
            out.append(tok)
    return tuple(out)


def register_occurrences(s: Substitution) -> Counter:
    """Count how often each register occurs across all right-hand sides."""
    counts: Counter = Counter()
    for rhs in s.values():
        for tok in rhs:
            if isinstance(tok, Reg):
                counts[tok.name] += 1
    return counts


# ---------------------------------------------------------------------------
# Machine descriptions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoWayTransducer:
    """Deterministic two-way transducer over an endmarked tape.

    ``delta`` maps (state, symbol) to (state, move) where symbol ranges over
    the input alphabet plus the endmarkers, and move is MOVE_LEFT/MOVE_RIGHT.
    ``out`` has the same domain and gives the word emitted by the transition.
    """

    input_alphabet: tuple
    output_alphabet: tuple
    states: tuple
    initial: str
    finals: frozenset
    delta: dict  # (state, symbol) -> (state, move)
    out: dict    # (state, symbol) -> Word


@dataclass(frozen=True)
class MarbleTransducer:
    """Two-way transducer that may drop colored marks under a stack discipline.

    ``delta`` maps (state, symbol, color-or-None) to (state, action); the
    color component is the mark sitting at the head position, None if there is
    none.  On a color the action must be ACT_LEFT or ACT_LIFT, on none it is
    not ACT_LIFT, every dropped marble has a declared color (never None), and
    no other action names a color: runs refuse, before any step, a machine
    that ``validate`` refuses.
    """

    input_alphabet: tuple
    output_alphabet: tuple
    states: tuple
    initial: str
    finals: frozenset
    colors: tuple
    delta: dict  # (state, symbol, color|None) -> (state, action)
    out: dict    # same keys -> Word
    marble_bound: Optional[int] = None


@dataclass(frozen=True)
class SST:
    """Streaming string transducer, optionally with external function calls.

    With ``funs`` empty this is a plain register transducer; a nonempty
    ``funs`` tuple allows Fun tokens in update right-hand sides (but never in
    the output map).  ``update`` has the same domain as ``delta``.
    """

    input_alphabet: tuple
    output_alphabet: tuple
    states: tuple
    registers: tuple
    initial: str
    init_valuation: dict  # register -> Word
    delta: dict           # (state, letter) -> state
    update: dict          # (state, letter) -> Substitution
    output: dict          # state -> tuple[Token, ...]   (partial)
    funs: tuple = ()

    @property
    def is_sstf(self) -> bool:
        return bool(self.funs)


@dataclass(frozen=True)
class NSSTF:
    """Nondeterministic streaming string transducer with external functions."""

    input_alphabet: tuple
    output_alphabet: tuple
    states: tuple
    registers: tuple
    funs: tuple
    initial: dict      # state -> {register -> Word}   (partial)
    transitions: tuple  # sorted tuple of (state, letter, state)
    update: dict       # (state, letter, state) -> Substitution
    output: dict       # state -> tuple[Token, ...]   (partial)


@dataclass(frozen=True)
class NAutomaton:
    """Automaton weighted over the nonnegative integers.

    ``mats`` maps each letter to a sparse matrix {(p, q): weight}; absent
    entries are zero.  Evaluation of a word w is alpha . mats(w) . beta.
    """

    input_alphabet: tuple
    states: tuple
    alpha: dict  # state -> int
    beta: dict   # state -> int
    mats: dict   # letter -> {(state, state): int}


@dataclass(frozen=True)
class DFA:
    """Total-or-partial deterministic automaton used for domains."""

    alphabet: tuple
    states: tuple
    initial: str
    delta: dict  # (state, letter) -> state
    accepting: frozenset

    def run(self, w) -> Optional[str]:
        q = self.initial
        for a in as_word(w):
            q = self.delta.get((q, a))
            if q is None:
                return None
        return q

    def accepts(self, w) -> bool:
        q = self.run(w)
        return q is not None and q in self.accepting


@dataclass
class FunctionRegistry:
    """Named total functions A* -> B* backing Fun tokens.

    Entries are either machine descriptions (run through the interpreters) or
    plain Python callables taking a word and returning a word; every function
    name used by an SST with externals must resolve here.
    """

    entries: dict = field(default_factory=dict)

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def get(self, name: str):
        try:
            return self.entries[name]
        except KeyError:
            raise MachineError("unresolved function name %r" % name) from None


MachineDescription = Union[
    TwoWayTransducer, MarbleTransducer, SST, NSSTF, NAutomaton
]


def kind_of(m: MachineDescription) -> str:
    if isinstance(m, TwoWayTransducer):
        return "two-way"
    if isinstance(m, MarbleTransducer):
        return "marble"
    if isinstance(m, SST):
        return "sstf" if m.is_sstf else "sst"
    if isinstance(m, NSSTF):
        return "nsstf"
    if isinstance(m, NAutomaton):
        return "nautomaton"
    raise MachineError("not a machine description: %r" % (m,))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _check_alphabet(name: str, symbols: tuple, report: list) -> set:
    """Report an empty alphabet, a duplicate or an endmarker in ``symbols``;
    returns their set."""
    distinct = set(symbols)
    if not symbols:
        report.append("%s is empty" % name)
    if len(distinct) != len(symbols):
        report.append("%s has duplicate symbols" % name)
    for s in (LEFT_END, RIGHT_END):
        if s in distinct:
            report.append("%s contains reserved endmarker %r" % (name, s))
    return distinct


def _check_distinct(kind: str, names: tuple, report: list) -> set:
    """Report each name declared more than once; returns their set."""
    distinct = set(names)
    if len(distinct) != len(names):
        for x, n in Counter(names).items():
            if n > 1:
                report.append("%s %r declared %d times" % (kind, x, n))
    return distinct


def _check_tokens(where: str, tokens, m, report: list) -> None:
    """Check tokens against the alphabet, registers and functions of an SST
    or NSST-F."""
    for tok in tokens:
        if isinstance(tok, Lit):
            if tok.sym not in m.output_alphabet:
                report.append("%s: unknown output letter %r" % (where, tok.sym))
        elif isinstance(tok, Reg):
            if tok.name not in m.registers:
                report.append("%s: unknown register %r" % (where, tok.name))
        elif isinstance(tok, Fun):
            if tok.name not in m.funs:
                report.append("%s: unknown function %r" % (where, tok.name))
        else:
            report.append("%s: bad token %r" % (where, tok))


def validate(m: MachineDescription) -> list:
    """Return the list of violated structural invariants (empty iff well formed)."""
    report: list = []
    if isinstance(m, TwoWayTransducer):
        _validate_two_way(m, report)
    elif isinstance(m, MarbleTransducer):
        _validate_marble(m, report)
    elif isinstance(m, SST):
        _validate_sst(m, report)
    elif isinstance(m, NSSTF):
        _validate_nsstf(m, report)
    elif isinstance(m, NAutomaton):
        _validate_nautomaton(m, report)
    else:
        report.append("unknown machine type %r" % type(m).__name__)
    return report


def validate_once(m: MachineDescription) -> list:
    """``validate(m)``, which a machine it found well formed does not run
    again: such a machine is marked (kept off the fields, as the
    interpreters keep their tables), and ``mark_valid`` passes the mark on
    to a machine built from it that is well formed by construction.  It is
    the one gate of every run: the marble and register interpreters and
    ``eval_nautomaton`` refuse, before any step, a machine it refuses, and
    the register-machine loader (``machine_io``) keeps the register
    programs it compiled only for a machine it marks."""
    if "_valid" in m.__dict__:
        return []
    problems = validate(m)
    if not problems:
        m.__dict__["_valid"] = True
    return problems


def require_valid(m: MachineDescription) -> None:
    """Raise ``MachineError("invalid <kind>: <first problem>")`` if
    ``validate_once`` refuses ``m``: the refusal of every run and of every
    pipeline entry point, before the machine is read."""
    problems = validate_once(m)
    if problems:
        kind = {TwoWayTransducer: "two-way transducer", MarbleTransducer: "marble transducer",
                NAutomaton: "N-automaton"}.get(type(m), "register transducer")
        raise MachineError("invalid %s: %s" % (kind, problems[0]))


def mark_valid(source, m):
    """``m``, marked as ``validate_once`` marks it if ``source`` is marked."""
    if "_valid" in source.__dict__:
        m.__dict__["_valid"] = True
    return m


def _validate_tape_machine(m, report: list) -> tuple:
    """Checks shared by two-way and marble machines; returns the declared
    states, the tape symbols and the output alphabet, as sets."""
    symbols = _check_alphabet("input alphabet", m.input_alphabet, report)
    letters = _check_alphabet("output alphabet", m.output_alphabet, report)
    states = _check_distinct("state", m.states, report)
    if m.initial not in states:
        report.append("initial state %r not declared" % m.initial)
    for q in m.finals:
        if q not in states:
            report.append("final state %r not declared" % q)
    if set(m.delta) != set(m.out):
        report.append("transition and output maps have different domains")
    return states, symbols | {LEFT_END, RIGHT_END}, letters


def _validate_two_way(m: TwoWayTransducer, report: list) -> None:
    states, symbols, letters = _validate_tape_machine(m, report)
    for key, (q2, move) in m.delta.items():
        q, a = key
        faults = []
        if q not in states or q2 not in states:
            faults.append("undeclared state")
        if a not in symbols:
            faults.append("undeclared symbol")
        if move not in (MOVE_LEFT, MOVE_RIGHT):
            faults.append("bad move %r" % (move,))
        if faults:  # formatted only on a fault
            where = "delta[%s,%s]" % key
            report.extend("%s: %s" % (where, fault) for fault in faults)
    for key, w in m.out.items():
        if not letters.issuperset(w):
            report.extend("out[%s,%s]: unknown output letter %r" % (key[0], key[1], b)
                          for b in w if b not in letters)


def _validate_marble(m: MarbleTransducer, report: list) -> None:
    states, symbols, letters = _validate_tape_machine(m, report)
    colors = _check_distinct("color", m.colors, report)
    if m.marble_bound is not None and m.marble_bound < 0:
        report.append("declared marble bound %d is negative" % m.marble_bound)
    for key, (q2, action) in m.delta.items():
        q, a, c = key
        faults = []
        if q not in states or q2 not in states:
            faults.append("undeclared state")
        if a not in symbols:
            faults.append("undeclared symbol")
        if c is not None and c not in colors:
            faults.append("undeclared color")
        akind, acolor = action
        if akind not in ("left", "right", "lift", "drop"):
            faults.append("bad action %r" % (action,))
        else:
            if akind == "drop" and (acolor is None or acolor not in colors):
                faults.append("drops undeclared color %r" % (acolor,))
            if akind != "drop" and acolor is not None:
                faults.append("%s action names color %r" % (akind, acolor))
            if c is not None and akind == "right":
                faults.append("move right on marble")
            if c is not None and akind == "drop":
                faults.append("drop on marble")
            if c is None and akind == "lift":
                faults.append("lift without marble")
        if faults:  # formatted only on a fault
            where = "delta[%s,%s,%s]" % key
            report.extend("%s: %s" % (where, fault) for fault in faults)
    for key, w in m.out.items():
        if not letters.issuperset(w):
            report.extend("out[%s,%s,%s]: unknown output letter %r" % (key + (b,))
                          for b in w if b not in letters)


def _known(rhs, letters: set, registers: set, funs) -> bool:
    """Whether every token of ``rhs`` is a ``Lit`` of ``letters``, a ``Reg``
    of ``registers`` or a ``Fun`` of ``funs``; a right-hand side for which
    this fails goes through ``_check_tokens``, which words the report."""
    for tok in rhs:
        kind = type(tok)
        if kind is Reg:
            if tok.name not in registers:
                return False
        elif kind is Lit:
            if tok.sym not in letters:
                return False
        elif kind is not Fun or tok.name not in funs:
            return False
    return True


def _check_updates(m, where: str, report: list, registers: set, letters: set) -> None:
    """Report each update of an SST or NSST-F that is not total on the
    registers, and each right-hand side with a token ``_known`` refuses;
    ``where % key`` names the update of transition ``key``.  One ``_known``
    call reads all the right-hand sides of an update, and only an update it
    refuses is read again, one right-hand side at a time, and worded."""
    funs = set(m.funs)
    for key, s in m.update.items():
        if s.keys() != registers:
            report.append("%s: not total on the register set" % (where % key))
        if _known(chain.from_iterable(s.values()), letters, registers, funs):
            continue
        for x, rhs in s.items():
            if not _known(rhs, letters, registers, funs):
                _check_tokens("%s(%s)" % (where % key, x), rhs, m, report)


def _validate_sst(m: SST, report: list) -> None:
    symbols = _check_alphabet("input alphabet", m.input_alphabet, report)
    letters = _check_alphabet("output alphabet", m.output_alphabet, report)
    states = _check_distinct("state", m.states, report)
    registers = _check_distinct("register", m.registers, report)
    if m.initial not in states:
        report.append("initial state %r not declared" % m.initial)
    if m.delta.keys() != m.update.keys():
        report.append("transition and update maps have different domains")
    if m.init_valuation.keys() != registers:
        report.append("initial valuation does not cover the register set")
    for x, w in m.init_valuation.items():
        if not letters.issuperset(w):
            report.extend("init[%s]: unknown output letter %r" % (x, b)
                          for b in w if b not in letters)
    for (q, a), q2 in m.delta.items():
        if q not in states or q2 not in states:
            report.append("delta[%s,%s]: undeclared state" % (q, a))
        if a not in symbols:
            report.append("delta[%s,%s]: undeclared letter" % (q, a))
    _check_updates(m, "update[%s,%s]", report, registers, letters)
    _check_outputs(m, report, states, registers, letters)


def _check_outputs(m, report: list, states: set, registers: set, letters: set) -> None:
    for q, rhs in m.output.items():
        if q not in states:
            report.append("output[%s]: undeclared state" % q)
        if _known(rhs, letters, registers, ()):
            continue
        for tok in rhs:
            if isinstance(tok, Fun):
                report.append("output[%s]: function tokens not allowed in output" % q)
        _check_tokens("output[%s]" % q, [t for t in rhs if not isinstance(t, Fun)],
                      m, report)


def _validate_nsstf(m: NSSTF, report: list) -> None:
    symbols = _check_alphabet("input alphabet", m.input_alphabet, report)
    letters = _check_alphabet("output alphabet", m.output_alphabet, report)
    states = _check_distinct("state", m.states, report)
    registers = _check_distinct("register", m.registers, report)
    if m.update.keys() != set(m.transitions):
        report.append("update map domain differs from the transition relation")
    for q, val in m.initial.items():
        if q not in states:
            report.append("initial[%s]: undeclared state" % q)
        if set(val) != registers:
            report.append("initial[%s]: valuation not total" % q)
        for x, w in val.items():
            if not letters.issuperset(w):
                report.extend("initial[%s][%s]: unknown output letter %r" % (q, x, b)
                              for b in w if b not in letters)
    for (q, a, q2) in m.transitions:
        if q not in states or q2 not in states:
            report.append("transition (%s,%s,%s): undeclared state" % (q, a, q2))
        if a not in symbols:
            report.append("transition (%s,%s,%s): undeclared letter" % (q, a, q2))
    _check_updates(m, "update[%s,%s,%s]", report, registers, letters)
    _check_outputs(m, report, states, registers, letters)


def _validate_nautomaton(m: NAutomaton, report: list) -> None:
    _check_alphabet("input alphabet", m.input_alphabet, report)
    states = _check_distinct("state", m.states, report)
    for a in m.input_alphabet:
        if a not in m.mats:
            report.append("letter %r has no matrix" % a)
    for q in list(m.alpha) + list(m.beta):
        if q not in states:
            report.append("vector entry for undeclared state %r" % q)
    for a, mat in m.mats.items():
        for (p, q), v in mat.items():
            if p not in states or q not in states:
                report.append("matrix %r: undeclared state in entry (%s,%s)" % (a, p, q))
            if v < 0:
                report.append("matrix %r: negative weight at (%s,%s)" % (a, p, q))
    for q, v in list(m.alpha.items()) + list(m.beta.items()):
        if v < 0:
            report.append("negative vector weight at %r" % q)


# ---------------------------------------------------------------------------
# Copy-shape checks
# ---------------------------------------------------------------------------


def _update_items(m) -> list:
    if isinstance(m, (SST, NSSTF)):
        return sorted(m.update.items(), key=lambda kv: kv[0])
    raise MachineError("expected an SST or NSSTF, got %s" % type(m).__name__)


def check_copyless(m) -> list:
    """List every (key, register) pair where an update uses a register twice.

    Function tokens are unrestricted; only register duplication counts.
    """
    violations = []
    for key, s in _update_items(m):
        counts = register_occurrences(s)
        for x in sorted(counts):
            if counts[x] > 1:
                violations.append(
                    "update[%s]: register %r used %d times" % (key, x, counts[x])
                )
    return violations


def _layer_index(layers: Sequence[Sequence[str]], registers: tuple) -> dict:
    seen: dict = {}
    for i, layer in enumerate(layers):
        for x in layer:
            if x in seen:
                raise MachineError("layers overlap on register %r" % x)
            seen[x] = i
    if set(seen) != set(registers):
        raise MachineError("layers do not partition the register set")
    return seen


def check_layered(m: SST, layers: Sequence[Sequence[str]]) -> list:
    """Check the layered-update discipline for a register partition.

    A substitution is layered when (i) the update of a layer-i register only
    mentions registers of layers <= i, and (ii) within each layer every
    register is used at most once across that layer's right-hand sides.
    """
    level = _layer_index(layers, m.registers)
    violations = []
    for (q, a), s in sorted(m.update.items()):
        for i, layer in enumerate(layers):
            counts: Counter = Counter()
            for x in layer:
                for tok in s.get(x, ()):
                    if isinstance(tok, Reg):
                        if level[tok.name] > i:
                            violations.append(
                                "update[%s,%s](%s): register %r from layer %d used in layer %d"
                                % (q, a, x, tok.name, level[tok.name], i)
                            )
                        elif level[tok.name] == i:
                            counts[tok.name] += 1
            for y in sorted(counts):
                if counts[y] > 1:
                    violations.append(
                        "update[%s,%s]: register %r used %d times within layer %d"
                        % (q, a, y, counts[y], i)
                    )
    return violations


def check_layer_order(m: SST, layers: Sequence[Sequence[str]]) -> list:
    """Only condition (i) of check_layered: no upward references."""
    level = _layer_index(layers, m.registers)
    violations = []
    for (q, a), s in sorted(m.update.items()):
        for x in sorted(s):
            for tok in s[x]:
                if isinstance(tok, Reg) and level[tok.name] > level[x]:
                    violations.append(
                        "update[%s,%s](%s): upward reference to %r" % (q, a, x, tok.name)
                    )
    return violations


@dataclass(frozen=True)
class BoundedCheck:
    bounded: bool
    witness: Optional[Word]  # word whose composed update exceeds the bound
    largest: int             # largest row sum the closure reached


# Reachable (state, occurrence matrices) nodes check_bounded may explore.
BOUNDED_CHECK_STATE_LIMIT = 200000
# Largest per-word copy bound find_copy_bound measures.
COPY_BOUND_LIMIT = 64


def check_bounded(m: SST, layers: Sequence[Sequence[str]], bound: int) -> BoundedCheck:
    """Decide whether every layer is per-word copy-bounded by ``bound``.

    Explores the reachable per-layer occurrence matrices of composed updates;
    a matrix with a row sum over the bound stops the closure, so it is finite.
    The check runs from every machine state.  On failure the breadth-first
    witness word is returned.
    """
    order_violations = check_layer_order(m, layers)
    if order_violations:
        raise MachineError("layer order violated: %s" % order_violations[0])

    layer_regs = [tuple(sorted(layer)) for layer in layers]
    # (q, a) -> per layer, per register x of it, the (index, count) of each
    # register of the layer that occurs in x's right-hand side; built once
    # per check
    columns: dict = {}

    def cols_of(q, a):
        if (q, a) not in columns:
            s = m.update[(q, a)]
            columns[(q, a)] = [
                [tuple((zi, s[x].count(Reg(z))) for zi, z in enumerate(regs)
                       if Reg(z) in s[x])
                 for x in regs]
                for regs in layer_regs]
        return columns[(q, a)]

    def step(mats, q, a):
        return tuple(
            tuple(tuple(sum(row[zi] * k for zi, k in col) for col in cols)
                  for row in cur)
            for cur, cols in zip(mats, cols_of(q, a)))

    def max_row_sum(mats):
        return max((sum(row) for cur in mats for row in cur), default=0)

    identity = tuple(
        tuple(tuple(1 if i == j else 0 for j in range(len(regs)))
              for i in range(len(regs)))
        for regs in layer_regs
    )
    words = {(q, identity): () for q in m.states}
    letters = sorted(m.input_alphabet)

    def successors(node):
        q, mats = node
        for a in letters:
            if (q, a) not in m.delta:
                continue
            node2 = (m.delta[(q, a)], step(mats, q, a))
            words.setdefault(node2, words[node] + (a,))
            yield node2

    def exceeds(node):
        return max_row_sum(node[1]) > bound

    nodes = explore(list(words), successors, BOUNDED_CHECK_STATE_LIMIT,
                    "bounded-copy closure", exceeds)
    if exceeds(nodes[-1]):
        return BoundedCheck(False, words[nodes[-1]], max_row_sum(nodes[-1][1]))
    return BoundedCheck(True, None, max(max_row_sum(mats) for _q, mats in nodes))


def find_copy_bound(m: SST, layers: Sequence[Sequence[str]]) -> int:
    """Smallest B >= 1 such that check_bounded passes, from one closure."""
    check = check_bounded(m, layers, COPY_BOUND_LIMIT)
    if not check.bounded:
        raise MachineError("find_copy_bound: no copy bound found up to %d"
                           % COPY_BOUND_LIMIT)
    return max(1, check.largest)
