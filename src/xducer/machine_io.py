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
frozen, so the machine may share them.  Every field is read by the helpers
that word its fault (``_need``, ``_word``, ``_put``).  An SST, SST-F or
NSST-F is read in one walk over its document (``_register_machine``), and
its token lists by one reader (``_token_lists``), which builds the tokens
and the register programs ``semantics._programs`` keeps, reading each
distinct token once, and names a fault through ``_tokens``.  Whether the
machine is well formed is ``validate``'s to say, as for every kind: the
walk keeps the programs only for a machine that ``validate_once`` marks.
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
    """``value``, a list of symbols (strings), as a tuple."""
    if isinstance(value, list):
        try:
            "".join(value)  # a TypeError: some item is not a string
        except TypeError:
            pass
        else:
            return tuple(value)
    _err(path, "expected a list of symbols")


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


def _tokens(value, path) -> None:
    """Name the first fault of token list ``value``, if it has one."""
    if not isinstance(value, list):
        _err(path, "expected a token list")
    for j, tok in enumerate(value):
        where = ("%s[%d]", path, j)
        if not isinstance(tok, dict) or len(tok) != 1:
            _err(where, "expected an object with one of lit/reg/fun")
        (key, payload), = tok.items()
        if not isinstance(payload, str):
            _err(where, "token payload must be a string")
        if key not in _TOKENS:
            _err(where, "unknown token kind %r" % key)


def _token_json(tok) -> dict:
    if isinstance(tok, Lit):
        return {"lit": tok.sym}
    if isinstance(tok, Reg):
        return {"reg": tok.name}
    return {"fun": tok.name}


def _action(value, path) -> tuple:
    if value in ("left", "right", "lift"):
        return (value, None)
    if isinstance(value, dict) and list(value) == ["drop"] \
            and isinstance(value["drop"], str):
        return ("drop", value["drop"])
    _err(path, "bad action %r" % (value,))


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


def _token_lists(value: dict, path, pools: dict, index: dict) -> tuple:
    """(tokens, programs) of ``value``, a map of token lists (an update or
    the output map) at ``path``: the token tuples by key, and their
    programs in the order of the keys.  A fault raises the message
    ``_tokens`` gives it.

    A token object is read as its one key and that key's payload, and each
    distinct token once, into ``pools`` (``_token_entry``).  A program is
    ``semantics._program`` of the pieces, as ``_compile_rhs`` makes it
    from the tokens: a list of one token takes its entry's program, and
    pieces are merged as they are read, so that ``_program`` is left only
    a list of at most one piece to finish."""
    toks, progs = {}, []
    # A KeyError is an unknown token kind; a TypeError or a ValueError, no
    # token list, no object of one key or a payload that is no string.
    try:
        for x, rhs in value.items():
            if not isinstance(rhs, list):
                raise TypeError
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
        for x, rhs in value.items():
            _tokens(rhs, ("%s.%s", path, x))
    return toks, progs


def _register_machine(doc: dict, path, kind: str, input_alphabet: tuple,
                      states: tuple, output_alphabet: tuple):
    """The SST, SST-F or NSST-F of ``doc``, read in one walk that also
    compiles its register programs.  Each distinct token is read once
    (``_token_lists``).  The machine keeps its programs, as
    ``semantics._programs`` keeps them, only if ``validate_once`` finds it
    well formed, which marks it; any other is built without them, and a
    run refuses it.
    """
    nsstf = kind == "nsstf"
    registers = _word(_need(doc, "registers", list, path), ("%s.registers", path))
    index = {x: i for i, x in enumerate(registers)}
    if nsstf:  # an initial valuation per initial state
        init = {}
        for q, val in _need(doc, "initial", dict, path).items():
            where = ("%s.initial.%s", path, q)
            if not isinstance(val, dict):
                _err(where, "expected an object")
            init[q] = {x: _word(w, ("%s.%s", where, x)) for x, w in val.items()}
    else:
        init = {x: _word(w, ("%s.initial_valuation.%s", path, x))
                for x, w in _need(doc, "initial_valuation", dict, path).items()}
    pools: dict = {"lit": {}, "reg": {}, "fun": {}}  # kind -> payload -> entry
    delta, update, steps = {}, {}, {}
    for i, ent in enumerate(_need(doc, "transitions", list, path)):
        where = ("%s.transitions[%d]", path, i)
        q = _need(ent, "from" if nsstf else "state", str, where)
        a = _need(ent, "symbol", str, where)
        q2 = _need(ent, "to", str, where)
        if nsstf:
            key = q, a, q2
        else:  # an SST's second entry for a key is named before its update is read
            key = q, a
            _put(delta, key, q2, where)
        upd = _need(ent, "update", dict, where)
        toks, progs = _token_lists(upd, ("%s.update", where), pools, index)
        _put(update, key, toks, where)
        if tuple(upd) != registers:  # keys out of order, or a fault validate refuses
            progs = map(dict(zip(upd, progs)).get, registers)
        steps[key] = tuple(progs) if nsstf else (q2, tuple(progs))
    output, progs = _token_lists(_need(doc, "output", dict, path), ("%s.output", path),
                                 pools, index)
    funs = () if kind == "sst" else _word(doc.get("functions", []), ("%s.functions", path))
    if nsstf:
        m = NSSTF(input_alphabet, output_alphabet, states, registers, funs, init,
                  tuple(sorted(update)), update, output)
    else:
        m = SST(input_alphabet, output_alphabet, states, registers,
                _need(doc, "initial", str, path), init, delta, update, output, funs)
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
    input_alphabet = _word(_need(doc, "input_alphabet", list, path),
                           ("%s.input_alphabet", path))
    states = _word(_need(doc, "states", list, path), ("%s.states", path))
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
    output_alphabet = _word(_need(doc, "output_alphabet", list, path),
                            ("%s.output_alphabet", path))
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
            _word(_need(doc, "colors", list, path), ("%s.colors", path)),
            delta, out, None if bound is None else _integer(
                bound, ("%s.declared_marble_bound", path)))
    return _register_machine(doc, path, kind, input_alphabet, states, output_alphabet)


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
    is run.  An SST, SST-F or NSST-F was validated by its loading walk
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
        layers = tuple(_word(layer, ("%s.layers[%d]", "$", i))
                       for i, layer in enumerate(_need(doc, "layers", list, "$")))
    if check:
        problems = validate_once(machine)
        if problems:
            raise MachineFileError("%s: %s" % (path, "; ".join(problems)))
    return machine, layers
