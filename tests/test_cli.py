import hashlib
import json
import os
import random
import re
import sys
from dataclasses import fields, is_dataclass

import pytest

from xducer.cli import _build_parser, main
from xducer.layering import (
    bounded_sstf_to_unambiguous,
    extract_sstf,
    make_total,
    to_simple,
)
from xducer.machine_io import (
    MachineFileError,
    dumps_machine,
    emit_machine,
    machine_from_json,
    machine_to_json,
    parse_machine,
)
from xducer.machines import (
    ACT_LEFT,
    ACT_LIFT,
    ACT_RIGHT,
    Fun,
    LEFT_END,
    Lit,
    MOVE_RIGHT,
    MachineError,
    MarbleTransducer,
    NAutomaton,
    NSSTF,
    Reg,
    RIGHT_END,
    SST,
    TwoWayTransducer,
    act_drop,
    validate,
)
from xducer.mt2sst import marble_to_sst, two_way_to_marble
from xducer.semantics import run_machine

from conftest import CORPUS_DIR, CORPUS_NAMES, corpus_path, load
from test_pipeline_fuzz import random_marble, random_sst


def test_corpus_files_parse_validate_and_roundtrip():
    for name in CORPUS_NAMES:
        path = corpus_path(name)
        machine, layers = parse_machine(path)
        with open(path, encoding="utf-8") as fh:
            assert dumps_machine(machine, layers) == fh.read(), name


def test_corpus_readme_lists_every_file(capsys):
    with open(os.path.join(CORPUS_DIR, "README.md"), encoding="utf-8") as fh:
        rows = re.findall(r"^\| `(\w+)\.json` \|.*\| ([^|]+) \|$", fh.read(), re.M)
    assert sorted(name for name, _growth in rows) == CORPUS_NAMES
    for name, growth in rows:
        assert main(["analyze", corpus_path(name)]) == 0, name
        doc = json.loads(capsys.readouterr().out)
        if doc["class"] == "exponential":
            assert growth == "exponential", name
        else:
            marbles = doc["minimal_marbles"]
            assert growth == "degree %d, %d marble%s" % (
                doc["degree"], marbles, "" if marbles == 1 else "s"), name


def test_emit_parse_identity(tmp_path):
    for name in CORPUS_NAMES:
        machine = load(name)
        target = tmp_path / ("%s.json" % name)
        emit_machine(machine, str(target))
        reparsed, _layers = parse_machine(str(target))
        assert dumps_machine(reparsed) == dumps_machine(machine), name


def test_every_valid_action_form_survives_a_dump_and_a_parse():
    # left and right with no marble, left and lift on each colour, and a
    # drop of each colour: every action ``validate`` accepts
    delta, out = {}, {}
    for i, (c, action) in enumerate([(None, ACT_LEFT), (None, ACT_RIGHT),
                                     (None, act_drop("c")), (None, act_drop("d")),
                                     ("c", ACT_LEFT), ("c", ACT_LIFT), ("d", ACT_LIFT)]):
        key = ("q%d" % (i % 3), ("a", "b", LEFT_END, RIGHT_END)[i % 4], c)
        delta[key], out[key] = ("q%d" % ((i + 1) % 3), action), ("x",) * (i % 2)
    built = MarbleTransducer(("a", "b"), ("x",), ("q0", "q1", "q2"), "q0",
                             frozenset({"q1"}), ("c", "d"), delta, out)
    rng = random.Random(83)
    for m in [built] + [random_marble(rng) for _ in range(100)]:
        assert validate(m) == []
        assert machine_from_json(json.loads(dumps_machine(m))) == m


def test_each_loaded_machine_is_validated_once(capsys, monkeypatch):
    """A marble file is validated when it is parsed and not again when its
    step tables are built; a two-way file's marble form inherits its check.
    Both are run through the CLI, traced and not, and once through equiv."""
    from xducer import machines
    calls = []
    check = machines.validate

    def counted(m):
        calls.append(type(m).__name__)
        return check(m)
    for module in list(sys.modules.values()):  # every module that binds it
        if module.__name__.startswith("xducer") and vars(module).get("validate") is check:
            monkeypatch.setattr(module, "validate", counted)
    for name, kind in (("mul_marble", "MarbleTransducer"),
                       ("reverse_two_way", "TwoWayTransducer")):
        for command in ("run", "trace"):
            del calls[:]
            assert main([command, corpus_path(name), "ab"]) in (0, 2)
            assert calls == [kind], (name, command)
    del calls[:]
    assert main(["equiv", corpus_path("pow2_marble"), corpus_path("pow2_marble_wasteful"),
                 "--maxlen", "4"]) == 0
    assert calls == ["MarbleTransducer", "MarbleTransducer"]
    capsys.readouterr()


def test_each_loaded_register_machine_is_validated_once(capsys, monkeypatch):
    """An SST file is validated by its loading walk, and not again by the
    ``validate``, ``run``, ``trace`` or ``equiv`` command that loaded it."""
    from xducer import machines
    calls = []
    check = machines.validate
    monkeypatch.setattr(machines, "validate",
                        lambda m: calls.append(type(m).__name__) or check(m))
    for argv in (["validate", corpus_path("mul_sst")], ["run", corpus_path("mul_sst"), "ab#0"],
                 ["trace", corpus_path("mul_sst"), "ab#0"]):
        del calls[:]
        assert main(argv) == 0
        assert calls == ["SST"], argv
    del calls[:]
    assert main(["equiv", corpus_path("reverse_sst"), corpus_path("reverse_sst_copyful"),
                 "--maxlen", "4"]) == 0
    assert calls == ["SST", "SST"]
    capsys.readouterr()


def test_optimize_and_analyze_validate_each_loaded_machine_once(capsys, monkeypatch, tmp_path):
    """``optimize`` and ``analyze`` of every corpus file (but mul_marble,
    whose walker takes seconds) validate the machine their file loads and
    nothing the pipeline builds from it: a crossing SST is marked valid as
    its source is, and the value machines of lower layers, which some of
    these files build, take the unchecked entry of ``to_k_layered``."""
    from xducer import layering, machines
    calls, values = [], []
    check, value_sst = machines.validate, layering.value_sst
    monkeypatch.setattr(machines, "validate",
                        lambda m: calls.append(type(m).__name__) or check(m))
    monkeypatch.setattr(layering, "value_sst",
                        lambda *args: values.append(args) or value_sst(*args))
    for name in CORPUS_NAMES:
        if name == "mul_marble":
            continue
        for argv in (["optimize", corpus_path(name), "-o", str(tmp_path / "out.json")],
                     ["analyze", corpus_path(name)]):
            del calls[:]
            assert main(argv) in (0, 1, 4), argv
            assert len(calls) == 1, argv
    assert values
    capsys.readouterr()


def test_schema_error_names_field(tmp_path):
    doc = json.load(open(corpus_path("mul_marble")))
    doc["transitions"][0]["action"] = "sideways"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(MachineFileError) as err:
        parse_machine(str(bad))
    assert "action" in str(err.value)


def _document(name):
    if name == "nsstf":
        total, _ = make_total(load("bounded_pair_sst"))
        return machine_to_json(bounded_sstf_to_unambiguous(total))
    if name == "sstf":
        return machine_to_json(extract_sstf(*parse_machine(corpus_path("mul_sst")))[0])
    return json.load(open(corpus_path(name)))


def _first_twice(entries):
    return entries[:1] + entries


@pytest.mark.parametrize("name,field,value,where", [
    ("exp_sst", "transitions", [5], "$.transitions[0]"),
    ("chain_flow", "matrices", {"a": [3]}, "$.matrices.a[0]"),
    ("chain_flow", "alpha", {"p": "x"}, "$.alpha.p"),
    ("mul_sst", "layers", 5, "$.layers"),
    ("mul_sst", "layers", [5], "$.layers[0]"),
    ("nsstf", "initial", {"q": 5}, "$.initial.q"),
    ("copy_two_way", "finals", [["done"]], "$.finals"),
    ("mul_marble", "finals", [["done"]], "$.finals"),
    ("sstf", "functions", [["f"]], "$.functions"),
    ("nsstf", "functions", [["f"]], "$.functions"),
    ("chain_flow", "matrices", {"a": [{"from": ["x"], "to": "x", "weight": 1}]},
     "$.matrices.a[0].from"),
    ("chain_flow", "matrices", {"a": [{"from": "x", "to": ["x"], "weight": 1}]},
     "$.matrices.a[0].to"),
    ("chain_flow", "matrices", {"a": [], "z": [{"from": "x", "to": "x", "weight": 2}]},
     "$.matrices.z"),
    # a second entry for one key names the later entry
    ("copy_two_way", "transitions", _first_twice, "$.transitions[1]"),
    ("mul_marble", "transitions", _first_twice, "$.transitions[1]"),
    ("exp_sst", "transitions", _first_twice, "$.transitions[1]"),
    ("sstf", "transitions", _first_twice, "$.transitions[1]"),
    ("nsstf", "transitions", _first_twice, "$.transitions[1]"),
    ("chain_flow", "matrices", lambda mats: {a: _first_twice(entries)
                                             for a, entries in mats.items()},
     "$.matrices.a[1]"),
    ("pow2_marble", "declared_marble_bound", "abc", "$.declared_marble_bound"),
    ("pow2_marble", "declared_marble_bound", True, "$.declared_marble_bound"),
])
def test_malformed_entries_are_file_errors(tmp_path, capsys, name, field,
                                           value, where):
    doc = _document(name)
    doc[field] = value(doc[field]) if callable(value) else value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for command in ("validate", "analyze"):
        assert main([command, str(bad)]) == 1, command
        assert capsys.readouterr().err.startswith("%s: expected " % where), command


def test_negative_marble_bound_is_invalid(tmp_path, capsys):
    doc = _document("pow2_marble")
    doc["declared_marble_bound"] = -1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 1
    assert json.loads(capsys.readouterr().out)["violations"] == [
        "declared marble bound -1 is negative"]
    assert main(["run", str(bad), "aa"]) == 1
    assert "negative" in capsys.readouterr().err


@pytest.mark.parametrize("rhs,where,message", [
    ([{"lit": "a"}, 5], "[1]", "expected an object with one of lit/reg/fun"),
    ([{"lit": "a"}, {"lit": "a", "reg": "x"}], "[1]",
     "expected an object with one of lit/reg/fun"),
    ([{}], "[0]", "expected an object with one of lit/reg/fun"),
    ([{"reg": 7}], "[0]", "token payload must be a string"),
    ([{"var": 3}], "[0]", "token payload must be a string"),
    ([{"lit": "a"}, {"lit": "b"}, {"var": "x"}], "[2]", "unknown token kind 'var'"),
    ("x", "", "expected a token list"),
])
def test_malformed_tokens_name_their_path(tmp_path, rhs, where, message):
    bad = tmp_path / "bad.json"
    for path, place in (("$.transitions[1].update.x", lambda doc: doc["transitions"][1]["update"]),
                        ("$.output.x", lambda doc: doc["output"])):
        doc = _document("mul_sst")
        place(doc)["x"] = rhs
        bad.write_text(json.dumps(doc))
        with pytest.raises(MachineFileError) as err:
            parse_machine(str(bad))
        assert str(err.value) == "%s%s: %s" % (path, where, message)


def test_validate_passthrough(tmp_path, capsys):
    doc = json.load(open(corpus_path("mul_marble")))
    for t in doc["transitions"]:
        if t["color"] is not None:
            t["action"] = "right"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert any("move right on marble" in v for v in out["violations"])
    assert main(["validate", corpus_path("exp_sst")]) == 0


def test_run_exit_codes(capsys):
    assert main(["run", corpus_path("exp_marble"), "aaa"]) == 0
    assert capsys.readouterr().out.strip() == "aaaaaaaa"
    assert main(["run", corpus_path("mul_marble"), "ab"]) == 2
    capsys.readouterr()
    assert main(["run", corpus_path("exp_marble"), "aaaa", "--budget", "7"]) == 3
    capsys.readouterr()
    assert main(["run", corpus_path("identity_sst"), ""]) == 0
    assert capsys.readouterr().out == "\n"


def test_run_mul_corpus_file(capsys):
    assert main(["run", corpus_path("mul_marble"), "ab#00"]) == 0
    assert capsys.readouterr().out.strip() == "ab#ab#"


def test_run_nsstf_on_a_long_word(tmp_path, capsys):
    path = tmp_path / "nsstf.json"
    path.write_text(json.dumps(_document("nsstf")))
    assert main(["run", str(path), "a" * 2000]) == 0
    # a^n -> a^n a^(n-1) b
    assert capsys.readouterr().out == "a" * 3999 + "b\n"


@pytest.mark.parametrize("state,rhs,violation", [
    (None, [{"reg": "nope"}], "unknown register 'nope'"),
    (None, [{"lit": "z"}], "unknown output letter 'z'"),
    ("nope", [{"lit": "a"}], "output[nope]: undeclared state"),
])
def test_nsstf_output_faults_are_invalid(tmp_path, capsys, state, rhs, violation):
    doc = _document("nsstf")
    doc["output"][state or sorted(doc["output"])[0]] = rhs
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 1
    assert any(violation in v for v in json.loads(capsys.readouterr().out)["violations"])
    assert main(["run", str(bad), "aa"]) == 1
    assert violation in capsys.readouterr().err


@pytest.mark.parametrize("where,rhs,violation", [
    ("update", [{"reg": "nope"}], "unknown register 'nope'"),
    ("update", [{"fun": "nope"}], "unknown function 'nope'"),
    ("output", [{"fun": "f_x"}], "function tokens not allowed in output"),
])
def test_nsstf_token_faults_read_as_for_an_sst(tmp_path, capsys, where, rhs, violation):
    for name in ("nsstf", "sstf"):
        doc = _document(name)
        if where == "update":
            doc["transitions"][0]["update"][doc["registers"][0]] = rhs
        else:
            doc["output"][sorted(doc["output"])[0]] = rhs
        bad = tmp_path / ("%s.json" % name)
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 1
        violations = json.loads(capsys.readouterr().out)["violations"]
        # the same message after the location, which names the transition
        assert [v.split(": ", 1)[1] for v in violations] == [violation], name


def test_run_and_equiv_refuse_an_sstf_without_a_registry(tmp_path, capsys):
    """The CLI has no registry for external functions: ``run`` and ``equiv``
    of an SST-F file exit 1 and say so."""
    path = tmp_path / "sstf.json"
    path.write_text(json.dumps(_document("sstf")))
    message = "machine uses external functions; a registry is required\n"
    for argv in (["run", str(path), "ab#0"],
                 ["equiv", str(path), corpus_path("mul_sst"), "--maxlen", "3"]):
        assert main(argv) == 1, argv
        assert capsys.readouterr() == ("", message), argv


def test_trace_refuses_an_nsstf(tmp_path, capsys):
    path = tmp_path / "nsstf.json"
    path.write_text(json.dumps(_document("nsstf")))
    assert main(["trace", str(path), "aa"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "an NSST-F has no single run to trace" in err


@pytest.mark.parametrize("name,field,kind", [
    ("copy_two_way", "states", "state"),
    ("mul_marble", "states", "state"),
    ("mul_marble", "colors", "color"),
    ("exp_sst", "states", "state"),
    ("exp_sst", "registers", "register"),
    ("sstf", "registers", "register"),
    ("nsstf", "states", "state"),
    ("nsstf", "registers", "register"),
    ("chain_flow", "states", "state"),
])
def test_duplicate_names_are_invalid(tmp_path, capsys, name, field, kind):
    # a repeated name used to pass validate and break analyze and optimize
    doc = _document(name)
    doc[field] = _first_twice(doc[field])
    violation = "%s %r declared 2 times" % (kind, doc[field][0])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 1
    assert violation in json.loads(capsys.readouterr().out)["violations"]
    for command in ("analyze", "optimize"):
        assert main([command, str(bad)]) == 1, command
        assert violation in capsys.readouterr().err, command


def multi_letter_copier(path):
    """A one-state two-way copier over the symbols ``xy`` and ``z``."""
    emit_machine(TwoWayTransducer(
        input_alphabet=("xy", "z"), output_alphabet=("xy", "z"), states=("q",),
        initial="q", finals=frozenset({"q"}),
        delta={("q", LEFT_END): ("q", MOVE_RIGHT), ("q", "xy"): ("q", MOVE_RIGHT),
               ("q", "z"): ("q", MOVE_RIGHT)},
        out={("q", LEFT_END): (), ("q", "xy"): ("xy",), ("q", "z"): ("z",)},
    ), path)
    return path


def test_multi_letter_output_reads_back_as_input(tmp_path, capsys):
    copier = multi_letter_copier(str(tmp_path / "copier.json"))
    assert main(["run", copier, "xy,z,xy"]) == 0
    printed = capsys.readouterr().out
    assert printed == "xy,z,xy\n"
    assert main(["run", copier, printed.strip()]) == 0
    assert capsys.readouterr().out == printed
    assert main(["trace", copier, "xy,z"]) == 0
    assert capsys.readouterr().out == "0\tq\t0\t\t\n1\tq\t1\t\t\n2\tq\t2\t\txy\n3\tq\t3\t\tz\n"
    # one-letter symbols still print letter by letter
    assert main(["run", corpus_path("copy_two_way"), "ab"]) == 0
    assert capsys.readouterr().out == "abab\n"


def test_foreign_symbols_name_the_first(capsys):
    for word, first in (("ab#0xz", "x"), ("zab#0x", "z")):
        assert main(["run", corpus_path("mul_marble"), word]) == 1
        assert capsys.readouterr().err == (
            "symbol %r is not in the machine alphabet\n" % first)
    copier = load("copy_two_way")
    with pytest.raises(MachineError,
                       match=r"^input symbol 'y' not in the machine alphabet$"):
        run_machine(copier, ("a", "y", "b", "x"))


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("XDUCER_BUDGET", "7")
    assert main(["run", corpus_path("exp_marble"), "aaaa"]) == 3
    monkeypatch.delenv("XDUCER_BUDGET")


def test_budget_does_not_bound_register_runs(capsys, monkeypatch):
    # an SST run takes exactly |w| steps; the budget bounds marble runs only
    assert main(["run", corpus_path("identity_sst"), "abab", "--budget", "2"]) == 0
    assert capsys.readouterr().out == "abab\n"
    assert main(["run", corpus_path("reverse_two_way"), "abab", "--budget", "2"]) == 3
    capsys.readouterr()
    monkeypatch.setenv("XDUCER_BUDGET", "2")
    assert main(["trace", corpus_path("identity_sst"), "abab"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 5


def test_budget_env_must_be_a_count(capsys, monkeypatch):
    for value in ("abc", "-1", "1.5"):
        monkeypatch.setenv("XDUCER_BUDGET", value)
        assert main(["run", corpus_path("exp_marble"), "aaaa"]) == 64, value
        captured = capsys.readouterr()
        assert captured.out == "" and "XDUCER_BUDGET" in captured.err, value


def test_trace_output(capsys):
    assert main(["trace", corpus_path("reverse_two_way"), "ab"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line]
    assert lines and all(len(line.split("\t")) == 5 for line in lines)


# ``xducer trace`` output: step, state, head, stack (top first) and the
# letters the step emitted.
MUL_MARBLE_TRACE = "\n".join([
    "0\tm0\t0\t\t",
    "1\tm1\t1\t\t",
    "2\tm1\t2\t\t",
    "3\tm1\t3\t\t",
    "4\tm2\t4\t\t",
    "5\tm3\t4\tm@4\t",
    "6\tm4\t3\tm@4\t",
    "7\tm4\t2\tm@4\t",
    "8\tm4\t1\tm@4\t",
    "9\tm4\t0\tm@4\t",
    "10\tm5\t1\tm@4\t",
    "11\tm5\t2\tm@4\ta",
    "12\tm5\t3\tm@4\tb",
    "13\tm6\t4\tm@4\t#",
    "14\tm7\t4\t\t",
    "15\tm2\t5\t\t",
    "16\tm3\t5\tm@5\t",
    "17\tm4\t4\tm@5\t",
    "18\tm4\t3\tm@5\t",
    "19\tm4\t2\tm@5\t",
    "20\tm4\t1\tm@5\t",
    "21\tm4\t0\tm@5\t",
    "22\tm5\t1\tm@5\t",
    "23\tm5\t2\tm@5\ta",
    "24\tm5\t3\tm@5\tb",
    "25\tm6\t4\tm@5\t#",
    "26\tm6\t5\tm@5\t",
    "27\tm7\t5\t\t",
    "28\tm2\t6\t\t",
]) + "\n"

REVERSE_TWO_WAY_TRACE = "\n".join([
    "0\tgo\t0\t\t",
    "1\tgo\t1\t\t",
    "2\tgo\t2\t\t",
    "3\tgo\t3\t\t",
    "4\tgo\t4\t\t",
    "5\tback\t3\t\t",
    "6\tback\t2\t\tc",
    "7\tback\t1\t\tb",
    "8\tback\t0\t\ta",
    "9\tdone\t1\t\t",
    "10\tdone\t2\t\t",
    "11\tdone\t3\t\t",
    "12\tdone\t4\t\t",
]) + "\n"


# xducer trace on a register machine: one line per letter, no stack or output
MUL_SST_TRACE = "0\tr\t0\t\t\n1\tr\t1\t\t\n2\tr\t2\t\t\n3\tc\t3\t\t\n4\tc\t4\t\t\n5\tc\t5\t\t\n"


@pytest.mark.parametrize("name,word,expected", [
    ("mul_marble", "ab#00", MUL_MARBLE_TRACE),
    ("reverse_two_way", "abc", REVERSE_TWO_WAY_TRACE),
    ("mul_sst", "ab#00", MUL_SST_TRACE),
])
def test_trace_output_bytes_are_pinned(capsys, name, word, expected):
    assert main(["trace", corpus_path(name), word]) == 0
    assert capsys.readouterr().out == expected


def test_convert_both_directions(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert main(["convert", "--to", "sst", corpus_path("mul_marble"),
                 "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["run", str(out), "ab#00"]) == 0
    assert capsys.readouterr().out.strip() == "ab#ab#"
    back = tmp_path / "back.json"
    assert main(["convert", "--to", "marble", corpus_path("mul_sst"),
                 "-o", str(back)]) == 0
    capsys.readouterr()
    assert main(["run", str(back), "ab#00"]) == 0
    assert capsys.readouterr().out.strip() == "ab#ab#"


def test_optimize_marble_input(tmp_path, capsys):
    out = tmp_path / "min.json"
    assert main(["optimize", corpus_path("pow2_marble_wasteful"),
                 "-o", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["k_min"] == 1
    assert main(["run", str(out), "aaaa"]) == 0
    assert capsys.readouterr().out.strip() == "a" * 16


def test_analyze_and_optimize_exponential(capsys):
    assert main(["analyze", corpus_path("exp_sst")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["class"] == "exponential"
    assert main(["optimize", corpus_path("exp_sst")]) == 4


def test_analyze_refuses_an_sstf(tmp_path, capsys):
    path = tmp_path / "sstf.json"
    path.write_text(json.dumps(_document("sstf")))
    assert main(["analyze", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "cannot analyze this machine kind" in err


def test_analyze_polynomial(capsys):
    assert main(["analyze", corpus_path("mul_sst")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["class"] == "polynomial"
    assert doc["degree"] == 2 and doc["minimal_marbles"] == 1


def test_optimize_writes_layers(tmp_path, capsys):
    out = tmp_path / "opt.json"
    assert main(["optimize", corpus_path("mul_sst_copyful"), "-o", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["k"] == 1
    saved = json.load(open(out))
    assert "layers" in saved and len(saved["layers"]) == 2
    assert main(["run", str(out), "ab#00"]) == 0
    assert capsys.readouterr().out.strip() == "ab#ab#"


def test_optimize_without_output_prints_report_then_machine(tmp_path, capsys):
    out = tmp_path / "opt.json"
    assert main(["optimize", corpus_path("mul_sst_copyful"), "-o", str(out)]) == 0
    report = capsys.readouterr().out
    assert main(["optimize", corpus_path("mul_sst_copyful")]) == 0
    assert capsys.readouterr().out == report + out.read_text(encoding="utf-8")


def _names_that_meet():
    # register b.c at state a and register c at state a.b are both "a.b.c"
    # in the single-state form
    y, bc, c = Lit("y"), Reg("b.c"), Reg("c")
    return SST(
        input_alphabet=("0",), output_alphabet=("y",), states=("a", "a.b"),
        registers=("b.c", "c"), initial="a", init_valuation={"b.c": (), "c": ()},
        delta={("a", "0"): "a.b", ("a.b", "0"): "a"},
        update={("a", "0"): {"b.c": (bc, y), "c": (c,)},
                ("a.b", "0"): {"b.c": (bc,), "c": (c, y, y)}},
        output={"a": (bc, c), "a.b": (c, bc, y)},
    )


def _constant_that_meets():
    # register k.a takes the name of the constant register for the letter a
    a, ka = Lit("a"), Reg("k.a")
    return SST(
        input_alphabet=("0", "1"), output_alphabet=("a",), states=("p", "q"),
        registers=("k.a",), initial="p", init_valuation={"k.a": ("a",)},
        delta={("p", "0"): "q", ("p", "1"): "p", ("q", "0"): "p", ("q", "1"): "q"},
        update={("p", "0"): {"k.a": (ka, a)}, ("p", "1"): {"k.a": (ka,)},
                ("q", "0"): {"k.a": (a, ka, ka)}, ("q", "1"): {"k.a": ()}},
        output={"p": (ka, a), "q": (a,)},
    )


def test_state_register_names_that_meet_stay_apart(tmp_path, capsys):
    # the two pairs that meet keep two registers
    m = _names_that_meet()
    simple = to_simple(m)
    assert len(set(simple.registers)) == len(simple.registers) == 6
    source, out = str(tmp_path / "meet.json"), str(tmp_path / "opt.json")
    emit_machine(m, source)
    assert main(["run", source, "000"]) == 0
    assert capsys.readouterr().out == "yyyyy\n"
    assert main(["analyze", source]) == 0
    assert json.loads(capsys.readouterr().out)["degree"] == 1
    assert main(["optimize", source, "-o", out]) == 0
    capsys.readouterr()
    assert main(["equiv", source, out, "--maxlen", "8"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "equivalent"


# sha256 of the single-state forms of the corpus SSTs, of the crossing SSTs
# of the corpus marble and two-way files, and of the two machines above
# whose names meet, so rewrites of to_simple keep its bytes.
SIMPLE_DIGEST = "be1db991c83e5c5e250fa0def560f5ea0e1d1a35248c6de409449f8bd15c81e2"


def test_single_state_forms_keep_their_bytes():
    constant = to_simple(_constant_that_meets())
    assert "p.k.a" in constant.registers and "p.k.a_" in constant.registers
    digest = hashlib.sha256()
    for name in CORPUS_NAMES:
        machine = load(name)
        if isinstance(machine, TwoWayTransducer):
            machine = two_way_to_marble(machine)
        if isinstance(machine, MarbleTransducer):
            machine = marble_to_sst(machine)
        if isinstance(machine, SST):
            digest.update(dumps_machine(to_simple(make_total(machine)[0])).encode())
    for machine in (_names_that_meet(), _constant_that_meets()):
        digest.update(dumps_machine(to_simple(machine)).encode())
    assert digest.hexdigest() == SIMPLE_DIGEST


def test_optimize_dump_stages(tmp_path, capsys):
    out = tmp_path / "opt.json"
    stages = tmp_path / "stages"
    assert main(["optimize", corpus_path("reverse_sst_copyful"),
                 "-o", str(out), "--dump-stages", str(stages)]) == 0
    capsys.readouterr()
    names = sorted(os.listdir(stages))
    assert "total.json" in names and "simple.json" in names
    assert "det-layer0.json" in names
    for name in names:
        parse_machine(str(stages / name))
    # the layered stage is the -o file, layers and all
    assert (stages / "layered.json").read_bytes() == out.read_bytes()
    assert parse_machine(str(stages / "bounded.json"))[1] is not None
    # mul_sst leaves remove_bounded_layer layered: no copyless construction
    exit_stages = tmp_path / "exit_stages"
    assert main(["optimize", corpus_path("mul_sst"), "-o", str(out),
                 "--dump-stages", str(exit_stages)]) == 0
    capsys.readouterr()
    assert sorted(os.listdir(exit_stages)) == [
        "bounded.json", "layered.json", "simple.json", "total.json"]
    marble_stages = tmp_path / "marble_stages"
    assert main(["optimize", corpus_path("pow2_marble"), "-o", str(out),
                 "--dump-stages", str(marble_stages)]) == 0
    capsys.readouterr()
    names = sorted(os.listdir(marble_stages))
    assert "crossing-sst.json" in names and "marble.json" in names
    for name in names:
        parse_machine(str(marble_stages / name))


# Exit code and sha256 of the `optimize -o` machine for each corpus file (None:
# no machine is written), so pipeline refactors keep the emitted bytes.
OPTIMIZED = {
    "bounded_pair_sst": (0, "e43ba3855c627e250a3aadc4778c805be98dbd3a4fe53b4386f4faa7e7de9f2b"),
    "chain_flow": (1, None),
    "copy_two_way": (0, "c019f0edb614b68c08237a04c58d6c96d8f68fcf6aef0d9b019da786ae4fe45d"),
    "exp_flow": (1, None),
    "exp_marble": (4, None),
    "exp_sst": (4, None),
    "identity_sst": (0, "605abf092c0c9d1c6c0e1ed332e51f6a1b03c8f25983ef51e3449c51cb27355e"),
    "mul_marble": (0, "2ae9012f00b72f5230e97c2636126d844189a354321a4a880357e3f164549a02"),
    "mul_sst": (0, "ebebf45b9bfafec544cd74942de0ddd3b551eeba6cc8e034c1c4ae2a04066ba2"),
    "mul_sst_copyful": (0, "ebebf45b9bfafec544cd74942de0ddd3b551eeba6cc8e034c1c4ae2a04066ba2"),
    "pow2_marble": (0, "b22edf10974a60f70f2baf5c45923999334e8216cf4e7d18fbe4e294084d8343"),
    "pow2_marble_wasteful": (0, "5c9859e90f8b9a87971309cddfa20837b4627e31b400b336447ff2732f0982df"),
    "reverse_sst": (0, "4f43013eb1f84c5c6fe9d4b6a10294aa57001f0a8b1ff2e65c7d7db0e907129d"),
    "reverse_sst_copyful": (0, "f71c61b7d3759ed3c350735cce1cd22c3f709d1b35c7b1dfa24f5aa028139b4d"),
    "reverse_two_way": (0, "7aa822b755585350440319e1e70eb69b89442841ef3c119764bd813d6d4423a5"),
}


def test_optimize_output_bytes_are_pinned(tmp_path, capsys):
    assert sorted(OPTIMIZED) == CORPUS_NAMES
    for name, (code, digest) in sorted(OPTIMIZED.items()):
        out = tmp_path / ("%s.json" % name)
        assert main(["optimize", corpus_path(name), "-o", str(out)]) == code, name
        capsys.readouterr()
        if digest is None:
            assert not out.exists(), name
        else:
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, name


# Exit code and sha256 of `analyze` stdout for each corpus file, so growth
# refactors keep the printed report, witness words included.
ANALYZED = {
    "bounded_pair_sst": (0, "28c1d4e666704ac7f2d5c4af9f18c45798f2cd5f95b6715e95b8f8636d58798e"),
    "chain_flow": (0, "522b53f899e7da8109fe18f813f2a9442670d503d644e2645f525784a38d3a3e"),
    "copy_two_way": (0, "faebbd4a7750d9f037f5b47613d7f3df7e654fce81b64a838fc942f1e6aa4fa4"),
    "exp_flow": (0, "04bc4609ff27832107b7fed9009a49a500bcb2eedc0830ffec654b2966a800b2"),
    "exp_marble": (0, "d9a43006cfddf42ab314dc106b8504bad0fe87af46f855517ad8e93bf2fe2096"),
    "exp_sst": (0, "c9aee5d24b3c5c8c0eb8fe96207ea3d1688488adf4bd8a76a2e9bf3d56db8d82"),
    "identity_sst": (0, "6d14f5be55e0d4eff5b4a26d5964902598a47819feccb733196325138055e531"),
    "mul_marble": (0, "7bd4a6d9b283d47a41f769ad8ac8b8a2820abab24704633ba537c583ff59136f"),
    "mul_sst": (0, "3e6ec0d086f8271dbfdd0cad71c2a5ce1dea88debccab98190dcb0c71f2b0ed5"),
    "mul_sst_copyful": (0, "571347f9ba7b88d621f771168581139ff41169a7c4a61d2a230385c1e3ad11d5"),
    "pow2_marble": (0, "2316be16032c570e2b86311772919a33175474dde854fec4e9788ce593223162"),
    "pow2_marble_wasteful": (0, "8d33e258043babc7f9fa16f2ef97d1bd16790a4e1302d86a8a158ac6274d4821"),
    "reverse_sst": (0, "bf2a4b74860e05c5275d31e8e3d0aa3cca749c71a7165cb2cc0cc8929c7fbbb3"),
    "reverse_sst_copyful": (0, "026f30f9766fbf8e8f3beea324450a78703bcad0efc1f670492af47b4287a679"),
    "reverse_two_way": (0, "352b8e9dfed7bd5ca6eeb0a013ca98186f84b97937fcdbf988922fdd575c0f0d"),
}


def test_analyze_output_bytes_are_pinned(capsys):
    assert set(ANALYZED) == set(OPTIMIZED)
    for name, (code, digest) in sorted(ANALYZED.items()):
        assert main(["analyze", corpus_path(name)]) == code, name
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, name


# Exit code and sha256 of `convert --to T` stdout for each corpus file (None:
# nothing is printed), so conversion refactors keep the emitted bytes.
CONVERTED = {
    ("bounded_pair_sst", "sst"): (0, "7506f6be1d2165ab12e1fa1bf6c376199e90aa527491e1280ef35f1a0b1cb8a1"),
    ("bounded_pair_sst", "marble"): (0, "f170317ed6c4c7fc134a83fc618130731e5299587e34121be0d00ac95961b47d"),
    ("chain_flow", "sst"): (1, None),
    ("chain_flow", "marble"): (1, None),
    ("copy_two_way", "sst"): (0, "d029a99abf9040a5074498f9addfdf75f4f52b43b88e49434adaa4c9e535eb84"),
    ("copy_two_way", "marble"): (0, "602b89a10dbaf539dcb8bdd1f962f836140072bd4c0410f82d55d52b6267f96a"),
    ("exp_flow", "sst"): (1, None),
    ("exp_flow", "marble"): (1, None),
    ("exp_marble", "sst"): (0, "39518f3a198efb16b3e36b15808d103e9ad34f671c57f42265bdf45d42b20717"),
    ("exp_marble", "marble"): (0, "0c5b5472acf6026f770574af76b11fb17aa775c2a767c539a9a66b53a040f462"),
    ("exp_sst", "sst"): (0, "c6a3266217451ee07b5a83f3c22a11ecf108a9537ce358c4e21b0afdca29cb60"),
    ("exp_sst", "marble"): (0, "710787bbd25b1b29a094430a3c41d028a6ba8f5ee2f132d5f9ce0e6d8f6c14b9"),
    ("identity_sst", "sst"): (0, "303a17dae54c108167765ad830f88e2e757d76bda3bdb1262564769a9ed48e59"),
    ("identity_sst", "marble"): (0, "c769d9151ecb7b56c2305f155919dcb39e6e70d823323fb8820cf0db41d11384"),
    ("mul_marble", "sst"): (0, "68b50cfdcfd4431168cfa86ef0d97f2d3eab571975e74135621f6ee46591c8c0"),
    ("mul_marble", "marble"): (0, "896bee3c34e42c1c55bcee2fad94a26293f883f8104f16e0a3a1334d73fea5dc"),
    ("mul_sst", "sst"): (0, "fefddcb89499d216f4bbc58e3b6286e11366a5ec64eae7ed00fd1289ca3e118e"),
    ("mul_sst", "marble"): (0, "852f4b70644ce28f64709bbc8f017d5ed765c093daedbccf150efc365646ce79"),
    ("mul_sst_copyful", "sst"): (0, "0a1f6fc80b15ffcac9a6b3e7a29fb4c284857d0484de21d722693aafc19b7360"),
    ("mul_sst_copyful", "marble"): (0, "af85f6a42b8f3b9daf5de7df4c65669e467fa92b131a66d7da93365129286acd"),
    ("pow2_marble", "sst"): (0, "bf44377298c5133d0afb09ea3b367a0004af099a5add0721ac601e633b6f272c"),
    ("pow2_marble", "marble"): (0, "78afd9a097ded9f18757a2e1799059ea1bdafac4a8f019c3c0b44d17db87db55"),
    ("pow2_marble_wasteful", "sst"): (0, "204774235f62e8927c112b8ef38d1ca4cca4b325f3a959af83cfe643de48c97c"),
    ("pow2_marble_wasteful", "marble"): (0, "eba7a2f8b22edb2dd0664e18d3673b75972ceb4e640291c5530a0ef6cee6cd70"),
    ("reverse_sst", "sst"): (0, "d8413d412b3a494f0429ee70a84b7d4b732762a3c9acf4f2a6a05cb9facfb5cc"),
    ("reverse_sst", "marble"): (0, "e100be1625f31ac045431baf063aa52e27a7a6752eae414853758dcbd5fcf013"),
    ("reverse_sst_copyful", "sst"): (0, "dd1d6b0ea66c6541a70c3eac64b502a2c171d087538776577e84458eaf6c6c98"),
    ("reverse_sst_copyful", "marble"): (0, "6533c0dd94bf8cd95e4a093d747b775613ac1de5fa4794887183b44015b6beb4"),
    ("reverse_two_way", "sst"): (0, "337803e1e19b27c106c98996b97ca7afd489e0b53389a5173913e4992ac561b5"),
    ("reverse_two_way", "marble"): (0, "74419ed36d713488abb5e61ef92ddee5291eb886c26f233cec9ac06aec8dcb22"),
}


def test_convert_output_bytes_are_pinned(capsys):
    assert {name for name, _target in CONVERTED} == set(OPTIMIZED)
    for (name, target), (code, digest) in sorted(CONVERTED.items()):
        assert main(["convert", "--to", target, corpus_path(name)]) == code, \
            (name, target)
        out = capsys.readouterr().out
        if digest is None:
            assert out == "", (name, target)
        else:
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, \
                (name, target)


def test_optimize_growth_report_matches_analyze(tmp_path, capsys):
    for name, (code, _digest) in sorted(OPTIMIZED.items()):
        if code == 1:
            continue  # weighted automata have no machine to optimize
        assert main(["analyze", corpus_path(name)]) == 0
        expected = json.loads(capsys.readouterr().out)
        expected.pop("minimal_marbles", None)
        assert main(["optimize", corpus_path(name),
                     "-o", str(tmp_path / "opt.json")]) == code
        doc = json.loads(capsys.readouterr().out)
        assert doc.get("growth", doc) == expected, name


def test_equiv_exit_codes(capsys):
    assert main(["equiv", corpus_path("mul_sst"), corpus_path("mul_marble"),
                 "--maxlen", "4"]) == 0
    capsys.readouterr()
    assert main(["equiv", corpus_path("reverse_sst"), corpus_path("reverse_two_way"),
                 "--maxlen", "4"]) == 0
    capsys.readouterr()
    code = main(["equiv", corpus_path("identity_sst"), corpus_path("copy_two_way"),
                 "--maxlen", "3"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2 and doc["counterexample"]["word"] == ["a"]
    # exp_marble needs more than 5 steps on "a", so no verdict is reached
    code = main(["equiv", corpus_path("exp_marble"), corpus_path("exp_sst"),
                 "--maxlen", "4", "--budget", "5"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3 and doc["status"] == "inconclusive"
    assert doc["inconclusive_word"] == ["a"]


def test_negative_maxlen_is_a_usage_error(capsys):
    # identity and copy differ on "a", so comparing no word must not pass
    assert main(["equiv", corpus_path("identity_sst"), corpus_path("copy_two_way"),
                 "--maxlen", "-1"]) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and "--maxlen" in captured.err


def looping_mul_marble(path):
    """mul_marble with a ping-pong between ``a`` and ``#`` in state m1."""
    m = load("mul_marble")
    delta = dict(m.delta)
    delta[("m1", "#", None)] = ("m1", ("left", None))
    delta[("m1", "a", None)] = ("m1", ("right", None))
    emit_machine(type(m)(
        input_alphabet=m.input_alphabet, output_alphabet=m.output_alphabet,
        states=m.states, initial=m.initial, finals=m.finals, colors=m.colors,
        delta=delta, out=m.out,
    ), path)
    return path


def test_looping_runs_get_definite_answers(tmp_path, capsys):
    looping = looping_mul_marble(str(tmp_path / "loop.json"))
    assert main(["run", looping, "a#0"]) == 2
    assert capsys.readouterr().err.strip() == "machine loops on this input"
    sst = str(tmp_path / "loop.sst.json")
    assert main(["convert", "--to", "sst", looping, "-o", sst]) == 0
    assert main(["equiv", looping, sst, "--maxlen", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "equivalent"
    assert main(["equiv", looping, corpus_path("mul_marble"), "--maxlen", "4"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["counterexample"] == {"word": ["#"], "first": None, "second": []}


def test_unknown_command_and_io_errors(capsys):
    assert main(["frobnicate"]) == 64
    capsys.readouterr()
    assert main([]) == 64
    printed = capsys.readouterr()
    assert printed.out == "" and printed.err.startswith("usage: xducer")
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: xducer")
    assert main(["run", "/nonexistent/machine.json", "a"]) == 74


COUNTERPARTS = [
    ("exp_sst", "exp_marble"),
    ("mul_sst", "mul_marble"),
    ("mul_sst_copyful", "mul_marble"),
    ("reverse_sst", "reverse_two_way"),
    ("reverse_sst_copyful", "reverse_two_way"),
    ("pow2_marble", "pow2_marble_wasteful"),
]


def test_corpus_counterparts_equivalent():
    from xducer.oracle import equiv_check

    for a, b in COUNTERPARTS:
        m1, _ = parse_machine(corpus_path(a))
        m2, _ = parse_machine(corpus_path(b))
        verdict = equiv_check(m1, m2, 5)
        assert verdict.equivalent, (a, b, verdict.counterexample)


def test_corpus_files_convert_where_applicable(tmp_path, capsys):
    convertible = {
        "sst": ["exp_marble", "mul_marble", "pow2_marble", "reverse_two_way"],
        "marble": ["exp_sst", "reverse_sst", "mul_sst", "bounded_pair_sst"],
    }
    for target, names in convertible.items():
        for name in names:
            out = tmp_path / ("%s_to_%s.json" % (name, target))
            assert main(["convert", "--to", target, corpus_path(name),
                         "-o", str(out)]) == 0, (name, target)
            capsys.readouterr()
            parse_machine(str(out))


def _indented(doc) -> str:
    """The text machine files and ``--pretty`` reports have always had."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)


def _assert_emitted_as_indented_json(machine, layers=None):
    doc = machine_to_json(machine)
    if layers is not None:
        doc["layers"] = [list(layer) for layer in layers]
    assert dumps_machine(machine, layers) == _indented(doc) + "\n"


def test_emission_matches_indented_json_on_corpus_and_stages(tmp_path, capsys):
    for name in CORPUS_NAMES:
        _assert_emitted_as_indented_json(*parse_machine(corpus_path(name)))
        stages = tmp_path / name
        main(["optimize", corpus_path(name), "-o", str(tmp_path / "opt.json"),
              "--dump-stages", str(stages)])
        capsys.readouterr()
        for stage in sorted(os.listdir(stages)):
            text = (stages / stage).read_text(encoding="utf-8")
            assert text == _indented(json.loads(text)) + "\n", (name, stage)
            _assert_emitted_as_indented_json(*parse_machine(str(stages / stage)))


def random_nsstf(rng) -> NSSTF:
    states = tuple("q%d" % i for i in range(rng.randint(1, 3)))
    regs = tuple("r%d" % i for i in range(rng.randint(1, 3)))
    funs = ("f", "g")[: rng.randint(0, 2)]
    tokens = [Lit("a"), Lit("b")] + [Reg(x) for x in regs] + [Fun(f) for f in funs]

    def rhs():
        return tuple(rng.choice(tokens) for _ in range(rng.randint(0, 3)))

    transitions = tuple(sorted({(rng.choice(states), rng.choice("ab"), rng.choice(states))
                                for _ in range(rng.randint(0, 5))}))
    initial = {q: {x: tuple(rng.choice("ab") for _ in range(rng.randint(0, 2)))
                   for x in regs if rng.random() < 0.7}
               for q in states if rng.random() < 0.6}
    return NSSTF(("a", "b"), ("a", "b"), states, regs, funs, initial, transitions,
                 {t: {x: rhs() for x in regs if rng.random() < 0.8}
                  for t in transitions},
                 {q: rhs() for q in states if rng.random() < 0.7})


def test_emission_matches_indented_json_on_random_machines():
    rng = random.Random(2323)
    for _ in range(60):
        sst = random_sst(rng)
        _assert_emitted_as_indented_json(sst)
        _assert_emitted_as_indented_json(sst, (sst.registers[:1], sst.registers[1:]))
        _assert_emitted_as_indented_json(random_marble(rng))
        _assert_emitted_as_indented_json(random_nsstf(rng))


# names that need escapes, are not ASCII, or are empty
ODD = ("é", '"', "\\", "\n", "\x01", " ", "")


def test_emission_matches_indented_json_on_odd_names_and_empty_parts():
    a, b, c = ODD[:3]
    sst = SST(ODD[:2], ODD, ODD[3:], ODD, ODD[6],
              {ODD[0]: (), ODD[1]: ODD, ODD[6]: (ODD[6],)},
              {(ODD[3], a): ODD[6], (ODD[6], b): ODD[4]},
              {(ODD[3], a): {}, (ODD[6], b): {ODD[2]: (), ODD[6]: (Lit(c), Reg(""))}},
              {ODD[3]: (), ODD[6]: (Reg(ODD[5]), Lit(ODD[4]))})
    _assert_emitted_as_indented_json(sst)
    _assert_emitted_as_indented_json(sst, (ODD[:3], (), ODD[3:]))
    _assert_emitted_as_indented_json(SST(ODD, ODD, ODD, (), ODD[0], {}, {}, {}, {}))
    _assert_emitted_as_indented_json(
        SST(ODD, ODD, ODD, ODD, ODD[0], {}, {(ODD[0], b): ODD[1]},
            {(ODD[0], b): {ODD[1]: (Fun(ODD[3]), Fun(""), Reg(ODD[1]))}}, {}, ODD))
    marble = MarbleTransducer(
        ODD, ODD, ODD, ODD[6], frozenset(ODD[2:4]), ODD[4:],
        {(ODD[0], LEFT_END, None): (ODD[1], act_drop(ODD[5])),
         (ODD[1], a, ""): (ODD[6], ACT_LEFT),
         (ODD[6], RIGHT_END, ODD[4]): (ODD[0], ("lift", None))},
        {(ODD[0], LEFT_END, None): (), (ODD[1], a, ""): ODD,
         (ODD[6], RIGHT_END, ODD[4]): ("",)}, 7)
    _assert_emitted_as_indented_json(marble)
    _assert_emitted_as_indented_json(MarbleTransducer(ODD, (), ODD, "", frozenset(),
                                                      (), {}, {}, 0))
    _assert_emitted_as_indented_json(TwoWayTransducer(
        ODD, ODD, ODD, ODD[1], frozenset(ODD), {(ODD[2], c): (ODD[3], MOVE_RIGHT)},
        {(ODD[2], c): ODD[4:]}))
    _assert_emitted_as_indented_json(NSSTF(
        ODD, ODD, ODD, ODD, ODD, {ODD[0]: {}, ODD[6]: {ODD[6]: ODD}},
        ((ODD[1], a, ODD[6]),), {(ODD[1], a, ODD[6]): {}}, {ODD[5]: ()}))
    _assert_emitted_as_indented_json(NAutomaton(
        ODD, ODD, {ODD[0]: 1, ODD[1]: 0}, {ODD[6]: 2 ** 70},
        {a: {(ODD[0], ODD[6]): 3, (ODD[6], ODD[6]): 0}, b: {}}))
    _assert_emitted_as_indented_json(NAutomaton((), (), {}, {}, {}))


def test_pretty_reports_match_indented_json(tmp_path, capsys):
    invalid = tmp_path / "invalid.json"
    doc = _document("pow2_marble")
    doc["declared_marble_bound"] = -1
    invalid.write_text(json.dumps(doc))
    out = str(tmp_path / "opt.json")
    calls = [
        (["analyze", corpus_path("mul_sst")], 0),
        (["analyze", corpus_path("exp_sst")], 0),
        (["analyze", corpus_path("chain_flow")], 0),
        (["equiv", corpus_path("identity_sst"), corpus_path("copy_two_way"),
          "--maxlen", "3"], 2),
        (["validate", str(invalid)], 1),
        (["validate", corpus_path("mul_marble")], 0),
        (["optimize", corpus_path("mul_sst_copyful"), "-o", out], 0),
        (["optimize", corpus_path("pow2_marble"), "-o", out], 0),
        (["optimize", corpus_path("exp_sst")], 4),
    ]
    for argv, code in calls:
        assert main(argv) == code, argv
        report = json.loads(capsys.readouterr().out)
        assert main(argv + ["--pretty"]) == code, argv
        assert capsys.readouterr().out == _indented(report) + "\n", argv


def test_parsers_are_reused_without_carrying_state(capsys, monkeypatch):
    _build_parser.cache_clear()
    marble = corpus_path("exp_marble")
    assert main(["run", marble, "aaaa", "--budget", "3"]) == 3
    assert capsys.readouterr().out == ""
    assert main(["run", marble, "aaaa"]) == 0
    want = capsys.readouterr().out
    assert want.strip()
    monkeypatch.setenv("XDUCER_BUDGET", "3")
    assert main(["run", marble, "aaaa"]) == 3
    monkeypatch.delenv("XDUCER_BUDGET")
    assert main(["run", marble, "aaaa"]) == 0
    assert capsys.readouterr().out == want
    assert _build_parser("run") is _build_parser("run")
    for _ in range(2):
        assert main(["run", marble, "aaaa", "--bogus"]) == 64
        assert "--bogus" in capsys.readouterr().err
        assert main(["equiv", marble, marble]) == 64
        assert "--maxlen" in capsys.readouterr().err
        assert main(["run", "-h"]) == 0
        assert capsys.readouterr().out.startswith("usage: xducer run")
    for source, target in (("mul_marble", "sst"), ("mul_sst", "marble"),
                           ("mul_marble", "sst")):
        assert main(["convert", "--to", target, corpus_path(source)]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == target


# ---------------------------------------------------------------------------
# The loader: the machines it builds, shared tokens, seeded malformed files
# ---------------------------------------------------------------------------


def _canonical(v):
    """``v`` as nested tuples naming every dataclass field and container
    type, frozensets sorted, so that its repr pins the whole machine."""
    if is_dataclass(v):
        return (type(v).__name__,) + tuple((f.name, _canonical(getattr(v, f.name)))
                                           for f in fields(v))
    if type(v) is dict:
        return ("dict",) + tuple((_canonical(k), _canonical(x)) for k, x in v.items())
    if type(v) is frozenset:
        return ("frozenset",) + tuple(sorted(_canonical(x) for x in v))
    if type(v) in (tuple, list):
        return (type(v).__name__,) + tuple(_canonical(x) for x in v)
    return v


# sha256 of the canonical form of every corpus machine, so rewrites of the
# loader keep the machines it builds.
LOADED_DIGEST = "e578b16487716ed6803b5e7c98a76b82bb07fe0b55e871e988c9bb8ecf977407"


def _token_lists(m):
    rhss = list(m.output.values())
    for s in m.update.values():
        rhss += s.values()
    return rhss


def test_loaded_machines_are_unchanged_and_share_equal_tokens():
    digest = hashlib.sha256()
    for name in CORPUS_NAMES:
        with open(corpus_path(name), encoding="utf-8") as fh:
            digest.update(repr(_canonical(machine_from_json(json.load(fh)))).encode())
    assert digest.hexdigest() == LOADED_DIGEST
    repeats = 0
    for name in CORPUS_NAMES + ["sstf", "nsstf"]:
        m = machine_from_json(json.loads(json.dumps(_document(name))))
        if not hasattr(m, "output"):
            continue
        assert all(type(rhs) is tuple for rhs in _token_lists(m))
        tokens = [tok for rhs in _token_lists(m) for tok in rhs]
        objects = {id(tok) for tok in tokens}
        assert len(objects) == len(set(tokens)), name  # one object per token
        repeats += len(tokens) - len(objects)
    assert repeats > 0


def _rhs_place(rng, doc):
    """(path, container, key) of a random right-hand side: an update of a
    transition or a state's output."""
    if rng.random() < 0.7:
        i = rng.randrange(len(doc["transitions"]))
        update = doc["transitions"][i]["update"]
        x = rng.choice(sorted(update))
        return "$.transitions[%d].update.%s" % (i, x), update, x
    q = rng.choice(sorted(doc["output"]))
    return "$.output.%s" % q, doc["output"], q


def _break_register_file(rng, doc):
    """Break one field of an SST or NSST-F document; returns the message the
    loader must give."""
    nondet = doc["kind"] == "nsstf"
    i = rng.randrange(len(doc["transitions"]))
    entry = doc["transitions"][i]
    at = "$.transitions[%d]" % i
    names = ("from" if nondet else "state", "symbol", "to", "update")
    roll = rng.random()
    if roll < 0.06:
        doc["transitions"][i] = rng.choice([5, "t", [], None])
        return "%s: expected an object" % at
    if roll < 0.14:
        field = rng.choice(names)
        del entry[field]
        return "%s: missing field %r" % (at, field)
    if roll < 0.24:
        field = rng.choice(names)
        entry[field] = rng.choice([5, None, ["q"], True] + ([] if field == "update" else [{}]))
        return "%s.%s: expected %s" % (at, field, "dict" if field == "update" else "str")
    if roll < 0.28:
        doc["transitions"].insert(i + 1, json.loads(json.dumps(entry)))
        key = tuple(entry[f] for f in names[:3 if nondet else 2])
        return ("$.transitions[%d]: expected one entry per key, found a second for %r"
                % (i + 1, key))
    if roll < 0.36:
        if nondet:
            q = rng.choice(sorted(doc["initial"]))
            if rng.random() < 0.3:
                doc["initial"][q] = rng.choice([5, "x", []])
                return "$.initial.%s: expected an object" % q
            x = rng.choice(sorted(doc["initial"][q]))
            doc["initial"][q][x] = rng.choice([5, "ab", [1], None])
            return "$.initial.%s.%s: expected a list of symbols" % (q, x)
        x = rng.choice(sorted(doc["initial_valuation"]))
        doc["initial_valuation"][x] = rng.choice([5, "ab", [1], None])
        return "$.initial_valuation.%s: expected a list of symbols" % x
    path, place, key = _rhs_place(rng, doc)
    if roll < 0.42:
        place[key] = rng.choice(["x", 5, {"lit": "a"}, None])
        return "%s: expected a token list" % path
    rhs = place[key]
    j = rng.randint(0, len(rhs))
    roll = rng.random()
    if roll < 0.3:
        bad = rng.choice([5, "a", ["lit", "a"], {}, {"lit": "a", "reg": "x"}])
        message = "expected an object with one of lit/reg/fun"
    elif roll < 0.6:
        bad = {rng.choice(["lit", "reg", "fun", "var"]):
               rng.choice([7, None, ["a"], {"a": 1}, 1.5])}
        message = "token payload must be a string"
    else:
        kind = rng.choice(["var", "Lit", "", "lits"])
        bad = {kind: "a"}
        message = "unknown token kind %r" % kind
    if j < len(rhs) and rng.random() < 0.5:
        rhs[j] = bad
    else:
        rhs.insert(j, bad)
    return "%s[%d]: %s" % (path, j, message)


def test_seeded_malformed_register_files_name_their_path(tmp_path):
    """One broken field of an SST, SST-F or NSST-F file gives the message
    that names its path, as the paths pinned above do."""
    rng = random.Random(29)
    sources = {name: _document(name) for name in ("mul_sst", "exp_sst", "sstf", "nsstf")}
    bad = tmp_path / "bad.json"
    seen = set()
    for _ in range(600):
        name = rng.choice(sorted(sources))
        doc = json.loads(json.dumps(sources[name]))
        message = _break_register_file(rng, doc)
        bad.write_text(json.dumps(doc))
        with pytest.raises(MachineFileError) as err:
            parse_machine(str(bad))
        assert str(err.value) == message, name
        seen.add(re.sub(r"'.*'|\(.*\)", "", message.rsplit(": ", 1)[1]))
    assert len(seen) == 10, seen  # every message the mutations can give


def _set_first_transition(field, value):
    def change(entries):
        entries[0][field] = value
        return entries
    return change


_MISSING = object()  # a field taken out of the document

# The top-level fields of each register kind and the type each must have.
_SST_FIELDS = (("input_alphabet", "list"), ("states", "list"), ("registers", "list"),
               ("initial_valuation", "dict"), ("transitions", "list"),
               ("output", "dict"), ("initial", "str"))
_REGISTER_FIELDS = {
    "exp_sst": _SST_FIELDS,
    "sstf": _SST_FIELDS,
    "nsstf": (("input_alphabet", "list"), ("states", "list"), ("registers", "list"),
              ("initial", "dict"), ("transitions", "list"), ("output", "dict")),
}


@pytest.mark.parametrize("name,field,value,message", [
    ("exp_sst", "kind", "tape", "$.kind: unknown machine kind 'tape'"),
    ("chain_flow", "matrices", {"a": 5}, "$.matrices.a: expected a list of entries"),
    ("copy_two_way", "transitions", _set_first_transition("move", "up"),
     "$.transitions[0].move: bad move 'up'"),
    ("mul_marble", "transitions", _set_first_transition("color", 3),
     "$.transitions[0].color: expected a string or null"),
] + [(name, field, value, message)
     for name, types in _REGISTER_FIELDS.items() for field, expected in types
     for value, message in ((_MISSING, "$: missing field %r" % field),
                            (5, "$.%s: expected %s" % (field, expected)))])
def test_malformed_fields_of_each_kind_name_their_path(tmp_path, name, field, value,
                                                       message):
    doc = _document(name)
    if value is _MISSING:
        del doc[field]
    else:
        doc[field] = value(doc[field]) if callable(value) else value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(MachineFileError) as err:
        parse_machine(str(bad))
    assert str(err.value) == message


def test_malformed_json_names_the_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": ')
    with pytest.raises(MachineFileError) as err:
        parse_machine(str(bad))
    assert str(err.value).startswith("%s: malformed JSON: " % bad)
