"""The register-machine loader and writer of ``machine_io``.

An SST, SST-F or NSST-F file is read in one walk that builds the machine
and compiles its register programs, and keeps them only for a machine that
``validate`` accepts.  These tests hold that walk to a plain reading of the
document, to ``semantics._programs`` and to ``validate``, and the writer to
``json.dumps``.
"""

import json
import random
import re
from dataclasses import fields, replace

import pytest

from xducer import semantics
from xducer.layering import bounded_sstf_to_unambiguous, make_total
from xducer.machine_io import MachineFileError, dumps_machine, machine_from_json, parse_machine
from xducer.machines import (
    Fun, LEFT_END, Lit, MachineError, NSSTF, Reg, RIGHT_END, SST, check_bounded, validate,
)
from xducer.semantics import run_machine

from conftest import CORPUS_NAMES, corpus_path
from test_oracle import random_sst as random_register_sst, with_long_constants
from test_pipeline_fuzz import random_sst

TOKENS = {"lit": Lit, "reg": Reg, "fun": Fun}


def plain_tokens(rhs) -> tuple:
    return tuple(TOKENS[kind](payload) for tok in rhs for kind, payload in tok.items())


def plain_build(doc: dict) -> SST:
    """The SST a well-formed document describes, read field by field with
    no checks and no pooling."""
    steps = doc["transitions"]
    return SST(tuple(doc["input_alphabet"]), tuple(doc["output_alphabet"]),
               tuple(doc["states"]), tuple(doc["registers"]), doc["initial"],
               {x: tuple(w) for x, w in doc["initial_valuation"].items()},
               {(t["state"], t["symbol"]): t["to"] for t in steps},
               {(t["state"], t["symbol"]): {x: plain_tokens(rhs)
                                            for x, rhs in t["update"].items()}
                for t in steps},
               {q: plain_tokens(rhs) for q, rhs in doc["output"].items()},
               tuple(doc.get("functions", [])) if doc["kind"] == "sstf" else ())


def plain_nsstf(doc: dict) -> NSSTF:
    """The NSST-F a well-formed document describes, read as ``plain_build``
    reads an SST."""
    update = {(t["from"], t["symbol"], t["to"]): {x: plain_tokens(rhs)
                                                  for x, rhs in t["update"].items()}
              for t in doc["transitions"]}
    return NSSTF(tuple(doc["input_alphabet"]), tuple(doc["output_alphabet"]),
                 tuple(doc["states"]), tuple(doc["registers"]),
                 tuple(doc.get("functions", [])),
                 {q: {x: tuple(w) for x, w in val.items()}
                  for q, val in doc["initial"].items()},
                 tuple(sorted(update)), update,
                 {q: plain_tokens(rhs) for q, rhs in doc["output"].items()})


def pinned(m) -> tuple:
    """``m``'s fields with every map, nested ones too, as its list of items,
    so that key order counts as well."""
    def items(v):
        return [(k, items(x)) for k, x in v.items()] if type(v) is dict else v
    return tuple(items(getattr(m, f.name)) for f in fields(m))


def shape(v):
    """A program with the type of each part: a list, a tuple, a ``_Cat``
    and a register number read differently."""
    if type(v) is dict:
        return {k: shape(x) for k, x in v.items()}
    if type(v) in (list, tuple, semantics._Cat):
        return type(v).__name__, [shape(x) for x in v]
    return type(v).__name__, v


def _variants(rng, name: str, m):
    """(name, document) of ``m`` and, if it has two registers or more, of
    ``m`` with its registers declared in a random order."""
    yield name, json.loads(dumps_machine(m))
    if len(m.registers) > 1:
        shuffled = replace(m, registers=tuple(rng.sample(m.registers, len(m.registers))))
        yield name + " shuffled", json.loads(dumps_machine(shuffled))


def documents(nsstf: bool = False):
    """(name, document) of every corpus SST and SST-F, and of seeded random
    and pool machines, some with registers declared out of sorted order so
    that an update's keys are not in register order.  With ``nsstf``, also
    NSST-F documents: ``bounded_sstf_to_unambiguous(make_total(m))`` of
    each of these machines m whose copies are bounded (at most 4)."""
    from perfbench.gen import pool_machine
    sources = []
    for name in CORPUS_NAMES:
        with open(corpus_path(name), encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["kind"] in ("sst", "sstf"):
            sources.append((name, machine_from_json(doc)))
            yield name, doc
    rng = random.Random(4040)
    machines = [("fuzz %d" % i, random_sst(rng)) for i in range(40)]
    machines += [("oracle %d" % i, with_long_constants(rng, random_register_sst(
        rng, funs=("f", "g")[:i % 3], letters=("a", "b", "c")[:2 + i % 2])))
                 for i in range(40)]
    machines += [("member %d" % i, pool_machine("opt_sst", i)) for i in range(0, 60, 3)]
    for name, m in machines:
        yield from _variants(rng, name, m)
    if nsstf:
        rng = random.Random(4042)
        for name, m in sources + machines:
            total, _ = make_total(m)
            if check_bounded(total, (total.registers,), 4).bounded:
                yield from _variants(rng, name + " nsstf", bounded_sstf_to_unambiguous(total))


def test_loaded_registers_machines_match_a_plain_reading():
    count = 0
    for name, doc in documents():
        m = machine_from_json(doc)
        assert pinned(m) == pinned(plain_build(doc)), name
        count += 1
    assert count > 100


def test_loaded_nsstf_machines_match_a_plain_reading():
    count = 0
    for name, doc in documents(nsstf=True):
        if doc["kind"] == "nsstf":
            m = machine_from_json(doc)
            assert pinned(m) == pinned(plain_nsstf(doc)), name
            count += 1
    assert count > 60


def test_loaded_programs_are_those_compiled_on_a_first_run():
    kinds = set()
    for name, doc in documents(nsstf=True):
        m = machine_from_json(doc)
        assert validate(m) == [], name
        assert "_valid" in m.__dict__ and "_programs" in m.__dict__, name
        fresh = replace(m)  # the same fields, with nothing kept on the object
        assert "_programs" not in fresh.__dict__
        assert shape(m.__dict__["_programs"]) == shape(semantics._programs(fresh)), name
        kinds.add((doc["kind"], bool(m.funs)))
    assert kinds == {("sst", False), ("sstf", True), ("nsstf", False), ("nsstf", True)}


def _rhs_places(doc):
    """Every token list of a document: (container, key)."""
    places = [(t["update"], x) for t in doc["transitions"] for x in sorted(t["update"])]
    return places + [(doc["output"], q) for q in sorted(doc["output"])]


def _break(rng, doc) -> str:
    """Give ``doc`` one structural fault that ``validate`` reports (and that
    the file schema allows); returns its kind."""
    fault = rng.choice(["unknown register", "foreign letter", "foreign initial letter",
                        "function in output", "unknown function", "update not total",
                        "update with an extra register", "duplicate state",
                        "duplicate register", "duplicate letter", "endmarker letter",
                        "undeclared target", "undeclared source", "undeclared letter",
                        "undeclared initial", "output of undeclared state",
                        "initial valuation not total", "empty alphabet"])
    steps = doc["transitions"]
    if fault in ("unknown register", "foreign letter"):
        place, key = rng.choice(_rhs_places(doc))
        bad = {"reg": "nope"} if fault == "unknown register" else {"lit": "z"}
        place[key] = place[key][:1] + [bad] + place[key][1:]
    elif fault == "foreign initial letter":
        doc["initial_valuation"][rng.choice(sorted(doc["initial_valuation"]))].append("z")
    elif fault == "function in output":
        q = rng.choice(sorted(doc["output"]))
        doc["output"][q].append({"fun": (doc.get("functions") or ["f"])[0]})
    elif fault == "unknown function":
        place, key = rng.choice(_rhs_places(doc)[:-len(doc["output"]) or None])
        place[key].append({"fun": "nope"})
    elif fault == "update not total":
        update = rng.choice(steps)["update"]
        del update[rng.choice(sorted(update))]
    elif fault == "update with an extra register":
        rng.choice(steps)["update"]["extra"] = []
    elif fault == "duplicate state":
        doc["states"].append(rng.choice(doc["states"]))
    elif fault == "duplicate register":
        doc["registers"].append(rng.choice(doc["registers"]))
    elif fault == "duplicate letter":
        field = rng.choice(["input_alphabet", "output_alphabet"])
        doc[field].append(doc[field][0])
    elif fault == "endmarker letter":
        doc[rng.choice(["input_alphabet", "output_alphabet"])].append(
            rng.choice([LEFT_END, RIGHT_END]))
    elif fault == "undeclared target":
        rng.choice(steps)["to"] = "nowhere"
    elif fault == "undeclared source":
        rng.choice(steps)["state"] = "nowhere"
    elif fault == "undeclared letter":
        rng.choice(steps)["symbol"] = "z"
    elif fault == "undeclared initial":
        doc["initial"] = "nowhere"
    elif fault == "output of undeclared state":
        doc["output"]["nowhere"] = []
    elif fault == "initial valuation not total":
        del doc["initial_valuation"][rng.choice(sorted(doc["initial_valuation"]))]
    else:
        doc["output_alphabet"] = []
    return fault


def test_structural_faults_are_reported_as_validate_lists_them(tmp_path):
    """A document with one structural fault loads unmarked and without
    programs, and ``parse_machine`` refuses it with ``validate``'s list;
    every loaded machine is marked exactly when ``validate`` finds nothing."""
    rng = random.Random(4041)
    sources = [(name, doc) for name, doc in documents()
               if doc["transitions"] and doc["output"] and doc["registers"]]
    bad = tmp_path / "bad.json"
    seen = set()
    for _ in range(400):
        name, source = rng.choice(sources)
        doc = json.loads(json.dumps(source))
        fault = _break(rng, doc)
        m = machine_from_json(doc)
        problems = validate(m)
        assert problems, (name, fault)
        assert "_valid" not in m.__dict__ and "_programs" not in m.__dict__, (name, fault)
        bad.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        with pytest.raises(MachineFileError) as err:
            parse_machine(str(bad))
        assert str(err.value) == "%s: %s" % (bad, "; ".join(problems)), (name, fault)
        seen.add(fault)
    assert len(seen) == 18, seen
    for name, doc in documents():
        m = machine_from_json(doc)
        assert ("_valid" in m.__dict__) == (validate(m) == []), name


@pytest.mark.parametrize("letters", [("a", "b"), ("aa", "bb")])
def test_an_nsstf_initial_value_of_a_foreign_letter_is_refused(tmp_path, letters):
    """An NSST-F's initial values are checked against the output alphabet,
    as an SST's initial valuation is: ``validate`` lists the letter, the
    loader refuses the file and a run refuses the machine before its first
    step."""
    a, b = letters
    m = NSSTF(("a",), letters, ("q",), ("x", "y"), (),
              {"q": {"x": (a,), "y": ("z", b, "w")}},
              (("q", "a", "q"),), {("q", "a", "q"): {"x": (Reg("x"), Lit(a)),
                                                    "y": (Reg("y"),)}},
              {"q": (Reg("x"), Reg("y"))})
    problems = ["initial[q][y]: unknown output letter 'z'",
                "initial[q][y]: unknown output letter 'w'"]
    assert validate(m) == problems
    path = tmp_path / "nsstf.json"
    path.write_text(dumps_machine(m), encoding="utf-8")
    with pytest.raises(MachineFileError) as err:
        parse_machine(str(path))
    assert str(err.value) == "%s: %s" % (path, "; ".join(problems))
    for w in ("", "a", "aa"):
        with pytest.raises(MachineError, match=r"^invalid register transducer: %s$"
                           % re.escape(problems[0])):
            run_machine(m, w)
    assert "_programs" not in m.__dict__
    fixed = replace(m, initial={"q": {"x": (a,), "y": (b,)}})
    assert validate(fixed) == [] and run_machine(fixed, "a").output == (a, a, b)


def _indented(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def test_written_register_machines_are_indented_json():
    """``dumps_machine`` writes an SST's transitions from per-token text;
    the file is byte for byte ``json.dumps`` of its document."""
    for name in CORPUS_NAMES:
        with open(corpus_path(name), encoding="utf-8") as fh:
            doc = json.load(fh)
        machine, layers = parse_machine(corpus_path(name))
        assert dumps_machine(machine, layers) == _indented(doc), name
    for name, doc in documents():
        doc.pop("layers", None)
        m = machine_from_json(doc)
        layers = (m.registers[:1], m.registers[1:])
        assert dumps_machine(m) == _indented(doc), name
        assert dumps_machine(m, layers) == _indented(dict(doc, layers=[
            list(layer) for layer in layers])), name
