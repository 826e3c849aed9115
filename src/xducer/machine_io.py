"""JSON machine files: parsing, schema checks, byte-stable emission.

One emitter, ``pretty_json``, writes the bytes of ``json.dumps(doc,
sort_keys=True, indent=2, ensure_ascii=False)``.  On CPython 3.11 any
``indent`` makes ``json.dumps`` fall back to its pure-Python encoder;
``pretty_json`` quotes strings with the C ``encode_basestring`` and writes
each one-key token object (``{"lit": ...}`` and the like) from one format
string.

One loader, ``machine_from_json``, keeps each path into the document as a
tuple and writes it out only when a malformed entry raises (``_err``), and
builds one token object per distinct (kind, payload) of a file: tokens are
frozen, so the machine may share them.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring as _quote
from typing import Optional

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


def machine_to_json(m) -> dict:
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
    elif kind in ("sst", "sstf"):
        doc["initial"] = m.initial
        doc["registers"] = list(m.registers)
        doc["initial_valuation"] = {x: list(w) for x, w in sorted(m.init_valuation.items())}
        doc["transitions"] = [
            {"state": q, "symbol": a, "to": m.delta[(q, a)],
             "update": {x: [_token_json(t) for t in rhs]
                        for x, rhs in sorted(m.update[(q, a)].items())}}
            for (q, a) in sorted(m.delta)
        ]
        doc["output"] = {q: [_token_json(t) for t in rhs]
                         for q, rhs in sorted(m.output.items())}
        if kind == "sstf":
            doc["functions"] = list(m.funs)
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
    input_alphabet = tuple(_word(_need(doc, "input_alphabet", list, path),
                                 ("%s.input_alphabet", path)))
    states = tuple(_word(_need(doc, "states", list, path), ("%s.states", path)))
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
    output_alphabet = tuple(_word(_need(doc, "output_alphabet", list, path),
                                  ("%s.output_alphabet", path)))
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
        registers = tuple(_word(_need(doc, "registers", list, path),
                                ("%s.registers", path)))
        init_val = {x: _word(w, ("%s.initial_valuation.%s", path, x))
                    for x, w in _need(doc, "initial_valuation", dict, path).items()}
        delta, update = {}, {}
        for i, ent in enumerate(_need(doc, "transitions", list, path)):
            where = ("%s.transitions[%d]", path, i)
            q = _need(ent, "state", str, where)
            a = _need(ent, "symbol", str, where)
            _put(delta, (q, a), _need(ent, "to", str, where), where)
            update[(q, a)] = _substitution(_need(ent, "update", dict, where),
                                           ("%s.update", where), pool)
        output = {q: _tokens(rhs, ("%s.output.%s", path, q), pool)
                  for q, rhs in _need(doc, "output", dict, path).items()}
        funs = _word(doc.get("functions", []), ("%s.functions", path)) \
            if kind == "sstf" else ()
        return SST(input_alphabet, output_alphabet, states, registers,
                   _need(doc, "initial", str, path), init_val, delta, update,
                   output, funs)
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
    doc = machine_to_json(m)
    if layers is not None:
        doc["layers"] = [list(layer) for layer in layers]
    return pretty_json(doc) + "\n"


def emit_machine(m, path: str, layers: Optional[tuple] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_machine(m, layers))


def parse_machine(path: str, check: bool = True):
    """Load a machine file; returns (machine, layers-or-None).

    Structural invariants are verified after parsing unless ``check`` is
    disabled (the validate subcommand reports them itself), by
    ``validate_once``: a machine that passes is not validated again when it
    is run.
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
