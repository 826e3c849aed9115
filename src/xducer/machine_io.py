"""JSON machine files: parsing, schema checks, byte-stable emission.

One emitter, ``pretty_json``, writes the bytes of ``json.dumps(doc,
sort_keys=True, indent=2, ensure_ascii=False)``.  On CPython 3.11 any
``indent`` makes ``json.dumps`` fall back to its pure-Python encoder;
``pretty_json`` quotes strings with the C ``encode_basestring`` and writes
each one-key token object (``{"lit": ...}`` and the like) from one format
string.  ``dumps_machine`` writes an SST's transitions, the bulk of its
file, itself (``_transitions_text``): each distinct token's text is made
once per call.

One loader, ``machine_from_json``, keeps each path into the document as a
tuple and writes it out only when a malformed entry raises (``_err``), and
builds one token object per distinct (kind, payload) of a file: tokens are
frozen, so the machine may share them.  An SST or SST-F is read in one walk
over its document (``_register_machine``), which builds the machine and
the register programs ``semantics._programs`` keeps, reading each distinct
token once.  Whether the machine is well formed is ``validate``'s to say,
as for every kind: the walk keeps the programs only for a machine that
``validate_once`` marks.  Its type tests are inline, and the helpers that
word a fault (``_need``, ``_word``, ``_tokens``, ``_err``) run only once a
test has failed, so every message and the order of the checks are those of
the helpers alone.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring as _quote
from typing import Optional

from . import semantics
from .machines import (
    Fun,
    Lit,
    MachineError,
    MarbleTransducer,
    NAutomaton,
    NSSTF,
    Reg,
    SST,
    TwoWayTransducer,
    kind_of,
    validate_once,
)

KINDS = ("two-way", "marble", "sst", "sstf", "nsstf", "nautomaton")


class MachineFileError(MachineError):
    """Malformed machine file; the message names the offending field."""


def _path(path) -> str:
    """A path as text: a string itself, or a tuple ``(format, parent path,
    *args)`` written out as ``format % (parent as text, *args)``."""
    if type(path) is str:
        return path
    return path[0] % ((_path(path[1]),) + path[2:])


def _err(path, msg: str):
    raise MachineFileError("%s: %s" % (_path(path), msg))


def _need(doc: dict, field: str, kind, path):
    if not isinstance(doc, dict):
        _err(path, "expected an object")
    if field not in doc:
        _err(path, "missing field %r" % field)
    value = doc[field]
    if kind is not None and not isinstance(value, kind):
        _err(("%s.%s", path, field), "expected %s" % kind.__name__)
    return value


def _word(value, path) -> tuple:
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        _err(path, "expected a list of symbols")
    return tuple(value)


def _integer(value, path) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        _err(path, "expected an integer")
    return value


def _put(table: dict, key, value, path) -> None:
    """``table[key] = value``, refusing a second entry for one key."""
    if key in table:
        _err(path, "expected one entry per key, found a second for %r" % (key,))
    table[key] = value


def _weights(value: dict, path) -> dict:
    return {q: _integer(v, ("%s.%s", path, q)) for q, v in value.items()}


_TOKENS = {"lit": Lit, "reg": Reg, "fun": Fun}


def _tokens(value, path, pool: dict) -> tuple:
    """The tokens of a token list.  ``pool`` maps each (kind, payload) item
    met so far in the file to its token, so a file holds one object per
    distinct token (tokens are frozen)."""
    if not isinstance(value, list):
        _err(path, "expected a token list")
    out = []
    for tok in value:
        if isinstance(tok, dict) and len(tok) == 1:
            (item,) = tok.items()
            if isinstance(item[1], str):
                t = pool.get(item)
                if t is None and item[0] in _TOKENS:
                    t = pool[item] = _TOKENS[item[0]](item[1])
                if t is not None:
                    out.append(t)
                    continue
        where = ("%s[%d]", path, len(out))
        if not isinstance(tok, dict) or len(tok) != 1:
            _err(where, "expected an object with one of lit/reg/fun")
        (key, payload), = tok.items()
        _err(where, "token payload must be a string" if not isinstance(payload, str)
             else "unknown token kind %r" % key)
    return tuple(out)


def _token_json(tok) -> dict:
    if isinstance(tok, Lit):
        return {"lit": tok.sym}
    if isinstance(tok, Reg):
        return {"reg": tok.name}
    return {"fun": tok.name}


def _substitution(value: dict, path, pool: dict) -> dict:
    return {x: _tokens(rhs, ("%s.%s", path, x), pool) for x, rhs in value.items()}


def _action(value, path) -> tuple:
    if value in ("left", "right", "lift"):
        return (value, None)
    if isinstance(value, dict) and list(value) == ["drop"] \
            and isinstance(value["drop"], str):
        return ("drop", value["drop"])
    _err(path, "bad action %r" % (value,))


def _strings(value) -> bool:
    """Whether ``value`` is a list of strings, as ``_word`` takes it."""
    if type(value) is not list:
        return False
    try:
        "".join(value)  # a TypeError: some item is not a string
    except TypeError:
        return False
    return True


def _symbols(doc: dict, field: str, path) -> tuple:
    """``doc[field]``, a list of symbols, as a tuple; ``_need`` and ``_word``
    name a fault."""
    value = doc.get(field)
    if _strings(value):
        return tuple(value)
    return _word(_need(doc, field, list, path), ("%s.%s", path, field))


def _transition(ent, where, delta: dict) -> tuple:
    """State, letter, target and update of an SST transition ``ent``, read
    by the helpers, which name the first fault."""
    q = _need(ent, "state", str, where)
    a = _need(ent, "symbol", str, where)
    _put(delta, (q, a), _need(ent, "to", str, where), where)
    return q, a, delta[(q, a)], _need(ent, "update", dict, where)


def _token_entry(kind: str, payload, pools: dict, index: dict):
    """The entry of a token met for the first time, kept in ``pools[kind]``
    under its payload: (token, program piece, the token as a token list,
    that list's program).  A register's piece is its number, or None if it
    is undeclared, which ``validate`` refuses.  None if the payload is no
    string."""
    if not isinstance(payload, str):
        return None
    tok = _TOKENS[kind](payload)
    piece = (payload,) if kind == "lit" else index.get(payload) if kind == "reg" else tok
    # the one-token list's program, as ``semantics._program([piece])`` makes it
    pools[kind][payload] = entry = tok, piece, (tok,), [tok] if kind == "fun" else piece
    return entry


def _token_lists(value: dict, pools: dict, index: dict):
    """(tokens, programs) of ``value``, a map of token lists (an update or
    the output map): the token tuples by key, and their programs in the
    order of the keys.  None at a fault, which ``_substitution`` names.

    A token object is read as its one key and that key's payload, and each
    distinct token once, into ``pools`` (``_token_entry``).  A program is
    ``semantics._program`` of the pieces, as ``_compile_rhs`` makes it
    from the tokens: a list of one token takes its entry's program, and
    pieces are merged as they are read, so that ``_program`` is left only
    a list of at most one piece to finish."""
    toks, progs = {}, []
    # A KeyError is an unknown token kind; a TypeError or a ValueError, no
    # object of one key or a payload that is no string.
    try:
        for x, rhs in value.items():
            if not isinstance(rhs, list):
                return None
            if len(rhs) == 1:
                (tok,) = rhs
                (kind,) = tok
                entry = pools[kind].get(tok[kind]) or _token_entry(kind, tok[kind], pools, index)
                toks[x] = entry[2]
                progs.append(entry[3])
            elif rhs:
                row, prog, last = [], [], None
                for tok in rhs:
                    (kind,) = tok
                    entry = pools[kind].get(tok[kind]) \
                        or _token_entry(kind, tok[kind], pools, index)
                    row.append(entry[0])
                    piece = entry[1]
                    if type(piece) is tuple is type(last):  # letters merge
                        last = prog[-1] = last + piece
                    else:
                        prog.append(piece)
                        last = piece
                toks[x] = tuple(row)
                progs.append(prog if len(prog) > 1 or type(last) is Fun
                             else semantics._program(prog))
            else:
                toks[x] = ()
                progs.append(())
    except (KeyError, TypeError, ValueError):
        return None
    return toks, progs


def _register_machine(doc: dict, path, kind: str, input_alphabet: tuple,
                      states: tuple, output_alphabet: tuple) -> SST:
    """The SST (or SST-F) of ``doc``, read in one walk that also compiles
    its register programs.  Each distinct token is read once
    (``_token_lists``).  The machine keeps its programs, as
    ``semantics._programs`` keeps them, only if ``validate_once`` finds it
    well formed, which marks it; any other is built without them, and a
    run refuses it.
    """
    registers = _symbols(doc, "registers", path)
    index = {x: i for i, x in enumerate(registers)}
    raw = doc.get("initial_valuation")
    if type(raw) is not dict:
        raw = _need(doc, "initial_valuation", dict, path)
    init_val = {x: tuple(w) if _strings(w) else
                _word(w, ("%s.initial_valuation.%s", path, x)) for x, w in raw.items()}
    pools: dict = {"lit": {}, "reg": {}, "fun": {}}  # kind -> payload -> entry
    delta, update, steps = {}, {}, {}
    entries = doc.get("transitions")
    if type(entries) is not list:
        entries = _need(doc, "transitions", list, path)
    for i, ent in enumerate(entries):
        try:
            q, a, q2, upd = ent["state"], ent["symbol"], ent["to"], ent["update"]
            fast = type(q) is str and type(a) is str and type(q2) is str \
                and (q, a) not in delta and type(upd) is dict
        except (KeyError, TypeError):  # a missing field, or no object
            fast = False
        if not fast:
            q, a, q2, upd = _transition(ent, ("%s.transitions[%d]", path, i), delta)
        key = q, a
        delta[key] = q2
        read = _token_lists(upd, pools, index)
        if read is None:
            _substitution(upd, ("%s.update", ("%s.transitions[%d]", path, i)), {})
        update[key], progs = read
        if tuple(upd) != registers:  # keys out of order, or a fault validate refuses
            progs = map(dict(zip(upd, progs)).get, registers)
        steps[key] = q2, tuple(progs)
    raw = doc.get("output")
    if type(raw) is not dict:
        raw = _need(doc, "output", dict, path)
    read = _token_lists(raw, pools, index)
    if read is None:
        _substitution(raw, ("%s.output", path), {})
    output, progs = read
    funs = ()
    if kind == "sstf":
        funs = doc.get("functions", [])
        funs = tuple(funs) if _strings(funs) else _word(funs, ("%s.functions", path))
    initial = doc.get("initial")
    if type(initial) is not str:
        initial = _need(doc, "initial", str, path)
    m = SST(input_alphabet, output_alphabet, states, registers, initial, init_val,
            delta, update, output, funs)
    if not validate_once(m):
        m.__dict__["_programs"] = steps, dict(zip(output, progs))
    return m


def _register_json(m: SST) -> dict:
    """The document of SST ``m`` but its transitions."""
    doc = {"kind": kind_of(m), "input_alphabet": list(m.input_alphabet),
           "output_alphabet": list(m.output_alphabet), "states": list(m.states),
           "initial": m.initial, "registers": list(m.registers),
           "initial_valuation": {x: list(w) for x, w in sorted(m.init_valuation.items())},
           "output": {q: [_token_json(t) for t in rhs] for q, rhs in sorted(m.output.items())}}
    if m.funs:
        doc["functions"] = list(m.funs)
    return doc


def _transitions_text(m: SST) -> str:
    """``pretty_json(machine_to_json(m)["transitions"], "  ")`` for SST
    ``m``: its transitions as they stand in its document, each token
    written once per call and its text reused (``texts``)."""
    texts: dict = {}
    rows = []
    for key in sorted(m.delta):
        sub = m.update[key]
        lines = []
        for x in sorted(sub):
            items = []
            for tok in sub[x]:
                text = texts.get(tok)
                if text is None:
                    (kind, payload), = _token_json(tok).items()
                    text = texts[tok] = '{\n            "%s": %s\n          }' % (
                        kind, _quote(payload))
                items.append(text)
            lines.append("%s: %s" % (_quote(x), "[\n          %s\n        ]" % (
                ",\n          ".join(items)) if items else "[]"))
        rows.append('{\n      "state": %s,\n      "symbol": %s,\n      "to": %s,'
                    '\n      "update": %s\n    }' % (
                        _quote(key[0]), _quote(key[1]), _quote(m.delta[key]),
                        "{\n        %s\n      }" % ",\n        ".join(lines) if lines else "{}"))
    return "[\n    %s\n  ]" % ",\n    ".join(rows) if rows else "[]"


def machine_to_json(m) -> dict:
    if isinstance(m, SST):
        doc = _register_json(m)
        doc["transitions"] = [
            {"state": q, "symbol": a, "to": m.delta[(q, a)],
             "update": {x: [_token_json(t) for t in rhs]
                        for x, rhs in sorted(m.update[(q, a)].items())}}
            for (q, a) in sorted(m.delta)
        ]
        return doc
    kind = kind_of(m)
    doc = {"kind": kind}
    if kind == "nautomaton":
        doc["input_alphabet"] = list(m.input_alphabet)
        doc["states"] = list(m.states)
        doc["alpha"] = {q: v for q, v in sorted(m.alpha.items()) if v}
        doc["beta"] = {q: v for q, v in sorted(m.beta.items()) if v}
        doc["matrices"] = {
            a: [{"from": p, "to": q, "weight": wgt}
                for (p, q), wgt in sorted(mat.items()) if wgt]
            for a, mat in sorted(m.mats.items())
        }
        return doc
    doc["input_alphabet"] = list(m.input_alphabet)
    doc["output_alphabet"] = list(m.output_alphabet)
    doc["states"] = list(m.states)
    if kind == "two-way":
        doc["initial"] = m.initial
        doc["finals"] = sorted(m.finals)
        doc["transitions"] = [
            {"state": q, "symbol": s, "to": q2, "move": move,
             "output": list(m.out[(q, s)])}
            for (q, s), (q2, move) in sorted(m.delta.items())
        ]
    elif kind == "marble":
        doc["initial"] = m.initial
        doc["finals"] = sorted(m.finals)
        doc["colors"] = list(m.colors)
        if m.marble_bound is not None:
            doc["declared_marble_bound"] = m.marble_bound
        doc["transitions"] = [
            {"state": q, "symbol": s, "color": c, "to": q2,
             "action": akind if pay is None else {"drop": pay},
             "output": list(m.out[(q, s, c)])}
            for (q, s, c), (q2, (akind, pay)) in sorted(
                m.delta.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2] or ""))
        ]
    elif kind == "nsstf":
        doc["registers"] = list(m.registers)
        doc["functions"] = list(m.funs)
        doc["initial"] = {q: {x: list(w) for x, w in sorted(val.items())}
                          for q, val in sorted(m.initial.items())}
        doc["transitions"] = [
            {"from": q, "symbol": a, "to": q2,
             "update": {x: [_token_json(t) for t in rhs]
                        for x, rhs in sorted(m.update[(q, a, q2)].items())}}
            for (q, a, q2) in sorted(m.transitions)
        ]
        doc["output"] = {q: [_token_json(t) for t in rhs]
                         for q, rhs in sorted(m.output.items())}
    return doc


def machine_from_json(doc, path: str = "$"):
    """The machine a parsed JSON document describes; a malformed entry
    raises a MachineFileError that names its path, from ``path`` down."""
    kind = _need(doc, "kind", str, path)
    if kind not in KINDS:
        _err(("%s.kind", path), "unknown machine kind %r" % kind)
    input_alphabet = _symbols(doc, "input_alphabet", path)
    states = _symbols(doc, "states", path)
    if kind == "nautomaton":
        alpha = _weights(_need(doc, "alpha", dict, path), ("%s.alpha", path))
        beta = _weights(_need(doc, "beta", dict, path), ("%s.beta", path))
        mats = {}
        raw = _need(doc, "matrices", dict, path)
        for a in raw:
            if a not in input_alphabet:
                _err(("%s.matrices.%s", path, a), "expected a letter of the input alphabet")
        for a in input_alphabet:
            entries = raw.get(a, [])
            where = ("%s.matrices.%s", path, a)
            if not isinstance(entries, list):
                _err(where, "expected a list of entries")
            mat = {}
            for i, ent in enumerate(entries):
                at = ("%s[%d]", where, i)
                key = (_need(ent, "from", str, at), _need(ent, "to", str, at))
                _put(mat, key, _integer(_need(ent, "weight", None, at),
                                        ("%s.weight", at)), at)
            mats[a] = mat
        return NAutomaton(input_alphabet, states, alpha, beta, mats)
    output_alphabet = _symbols(doc, "output_alphabet", path)
    pool: dict = {}  # (kind, payload) -> token, for _tokens
    if kind == "two-way":
        delta, out = {}, {}
        for i, ent in enumerate(_need(doc, "transitions", list, path)):
            where = ("%s.transitions[%d]", path, i)
            q = _need(ent, "state", str, where)
            s = _need(ent, "symbol", str, where)
            move = _need(ent, "move", str, where)
            if move not in ("left", "right"):
                _err(("%s.move", where), "bad move %r" % move)
            _put(delta, (q, s), (_need(ent, "to", str, where), move), where)
            out[(q, s)] = _word(ent.get("output", []), ("%s.output", where))
        return TwoWayTransducer(
            input_alphabet, output_alphabet, states,
            _need(doc, "initial", str, path),
            frozenset(_word(_need(doc, "finals", list, path), ("%s.finals", path))),
            delta, out)
    if kind == "marble":
        delta, out = {}, {}
        for i, ent in enumerate(_need(doc, "transitions", list, path)):
            where = ("%s.transitions[%d]", path, i)
            q = _need(ent, "state", str, where)
            s = _need(ent, "symbol", str, where)
            c = ent.get("color")
            if c is not None and not isinstance(c, str):
                _err(("%s.color", where), "expected a string or null")
            action = _action(_need(ent, "action", None, where), ("%s.action", where))
            _put(delta, (q, s, c), (_need(ent, "to", str, where), action), where)
            out[(q, s, c)] = _word(ent.get("output", []), ("%s.output", where))
        bound = doc.get("declared_marble_bound")
        return MarbleTransducer(
            input_alphabet, output_alphabet, states,
            _need(doc, "initial", str, path),
            frozenset(_word(_need(doc, "finals", list, path), ("%s.finals", path))),
            tuple(_word(_need(doc, "colors", list, path), ("%s.colors", path))),
            delta, out, None if bound is None else _integer(
                bound, ("%s.declared_marble_bound", path)))
    if kind in ("sst", "sstf"):
        return _register_machine(doc, path, kind, input_alphabet, states,
                                 output_alphabet)
    # nsstf
    registers = tuple(_word(_need(doc, "registers", list, path),
                            ("%s.registers", path)))
    initial = {}
    for q, val in _need(doc, "initial", dict, path).items():
        where = ("%s.initial.%s", path, q)
        if not isinstance(val, dict):
            _err(where, "expected an object")
        initial[q] = {x: _word(w, ("%s.%s", where, x)) for x, w in val.items()}
    update = {}
    for i, ent in enumerate(_need(doc, "transitions", list, path)):
        where = ("%s.transitions[%d]", path, i)
        key = (_need(ent, "from", str, where), _need(ent, "symbol", str, where),
               _need(ent, "to", str, where))
        _put(update, key, _substitution(_need(ent, "update", dict, where),
                                        ("%s.update", where), pool), where)
    output = {q: _tokens(rhs, ("%s.output.%s", path, q), pool)
              for q, rhs in _need(doc, "output", dict, path).items()}
    return NSSTF(input_alphabet, output_alphabet, states, registers,
                 _word(doc.get("functions", []), ("%s.functions", path)), initial,
                 tuple(sorted(update)), update, output)


def pretty_json(v, pad: str = "") -> str:
    """``v`` as ``json.dumps(v, sort_keys=True, indent=2, ensure_ascii=False)``
    writes it, nested ``pad`` deep.  Plain dicts (with string keys), lists,
    tuples and strings are written here, any other value by ``json.dumps``."""
    t = type(v)
    if t is str:
        return _quote(v)
    inner = pad + "  "
    if t is dict:
        if len(v) == 1:
            (k, x), = v.items()
            if type(x) is str:
                return '{\n%s%s: %s\n%s}' % (inner, _quote(k), _quote(x), pad)
        if not v:
            return "{}"
        return "{\n%s%s\n%s}" % (inner, (",\n" + inner).join([
            "%s: %s" % (_quote(k), pretty_json(x, inner))
            for k, x in sorted(v.items())]), pad)
    if t is list or t is tuple:
        if not v:
            return "[]"
        return "[\n%s%s\n%s]" % (inner, (",\n" + inner).join(
            [pretty_json(x, inner) for x in v]), pad)
    return json.dumps(v)


def dumps_machine(m, layers: Optional[tuple] = None) -> str:
    """The file of machine ``m`` (with ``layers``): ``pretty_json`` of its
    document, but for an SST's transitions, which ``_transitions_text``
    writes.  Their key sorts after every other of the document, so their
    text ends it."""
    sst = isinstance(m, SST)
    doc = _register_json(m) if sst else machine_to_json(m)
    if layers is not None:
        doc["layers"] = [list(layer) for layer in layers]
    if not sst:
        return pretty_json(doc) + "\n"
    return '%s,\n  "transitions": %s\n}\n' % (pretty_json(doc)[:-2], _transitions_text(m))


def emit_machine(m, path: str, layers: Optional[tuple] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_machine(m, layers))


def parse_machine(path: str, check: bool = True):
    """Load a machine file; returns (machine, layers-or-None).

    Structural invariants are verified after parsing unless ``check`` is
    disabled (the validate subcommand reports them itself), by
    ``validate_once``: a machine that passes is not validated again when it
    is run.  An SST or SST-F was validated by its loading walk
    (``_register_machine``) already.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MachineFileError("%s: malformed JSON: %s" % (path, exc)) from None
    machine = machine_from_json(doc)
    layers = None
    if doc.get("layers") is not None:
        layers = tuple(tuple(layer) if _strings(layer) else
                       _word(layer, ("%s.layers[%d]", "$", i))
                       for i, layer in enumerate(_need(doc, "layers", list, "$")))
    if check:
        problems = validate_once(machine)
        if problems:
            raise MachineFileError("%s: %s" % (path, "; ".join(problems)))
    return machine, layers
