"""Command-line surface: validate, run, trace, convert, analyze, optimize, equiv."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .growth import classify, classify_function
from .layering import minimize_marbles, to_k_layered
from .machine_io import dumps_machine, parse_machine, pretty_json
from .machines import (
    MachineError,
    MarbleTransducer,
    NAutomaton,
    SST,
    TwoWayTransducer,
    validate,
)
from .mt2sst import marble_to_sst, two_way_to_marble
from .oracle import equiv_check
from .semantics import ACCEPT, BUDGET, LOOP, format_trace, run_machine
from .sst2mt import layered_to_marble, sst_to_marble

EX_USAGE = 64
EX_IOERR = 74

USAGE = """usage: xducer <command> ...

commands:
  validate <file>                      check structural invariants (exit 1 on violations)
  run <file> <word> [--budget N]       run the machine; prints the output word
  trace <file> <word> [--budget N]     run and print one line per step
  convert --to {sst,marble} <file> [-o OUT]
  analyze <file>                       growth classification as JSON
  optimize <file> [-o OUT] [--dump-stages DIR]
  equiv <a> <b> --maxlen L             bounded equivalence check

The XDUCER_BUDGET environment variable overrides the default step budget.
--budget and XDUCER_BUDGET bound two-way and marble runs only; an SST run
takes exactly |w| steps.
"""


def _separator(alphabet) -> str:
    """How words over ``alphabet`` are written: comma-separated once some
    symbol is longer than one character, else letter by letter."""
    return "," if any(len(sym) > 1 for sym in alphabet) else ""


def _parse_word(text: str, alphabet) -> tuple:
    if text == "":
        return ()
    symbols = tuple(text.split(",") if _separator(alphabet) else text)
    if not set(symbols).issubset(alphabet):
        bad = next(s for s in symbols if s not in alphabet)
        raise MachineError("symbol %r is not in the machine alphabet" % bad)
    return symbols


def _count(text: str) -> int:
    """A non-negative integer option value."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            "expected a non-negative integer, got %r" % text)
    return value


def _print_json(doc, pretty: bool) -> None:
    if pretty:
        print(pretty_json(doc))
    else:
        print(json.dumps(doc, sort_keys=True, ensure_ascii=False))


def _load(path: str):
    """Parse a machine file; a two-way transducer becomes a marble machine."""
    machine, layers = parse_machine(path)
    if isinstance(machine, TwoWayTransducer):
        machine = two_way_to_marble(machine)
    return machine, layers


def cmd_validate(args) -> int:
    machine, _layers = parse_machine(args.file, check=False)
    problems = validate(machine)
    _print_json({"valid": not problems, "violations": problems}, args.pretty)
    return 0 if not problems else 1


def cmd_run(args, trace: bool = False) -> int:
    machine, _layers = _load(args.file)
    word = _parse_word(args.word, machine.input_alphabet)
    result = run_machine(machine, word, budget=args.budget, trace=trace)
    sep = _separator(machine.output_alphabet)
    if trace and result.trace is not None:
        print(format_trace(result, sep))
    if result.verdict == ACCEPT:
        if not trace:
            print(sep.join(result.output))
        return 0
    if result.verdict == BUDGET:
        print("step budget exhausted", file=sys.stderr)
        return 3
    if result.verdict == LOOP:
        print("machine loops on this input", file=sys.stderr)
    return 2


def cmd_convert(args) -> int:
    machine, layers = _load(args.file)
    if args.to == "sst":
        if isinstance(machine, MarbleTransducer):
            converted, out_layers = marble_to_sst(machine), None
        elif isinstance(machine, SST):
            converted, out_layers = machine, layers
        else:
            raise MachineError("cannot convert %s to a register machine"
                               % type(machine).__name__)
    else:
        if isinstance(machine, MarbleTransducer):
            converted, out_layers = machine, None
        elif isinstance(machine, SST) and not machine.is_sstf:
            if layers is not None:
                converted = layered_to_marble(machine, layers)
            else:
                converted = sst_to_marble(machine)
            out_layers = None
        else:
            raise MachineError("cannot convert %s to a marble machine"
                               % type(machine).__name__)
    text = dumps_machine(converted, out_layers)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def _analyze(machine):
    if isinstance(machine, MarbleTransducer):
        machine = marble_to_sst(machine)
    if isinstance(machine, NAutomaton):
        report = classify(machine)
    elif isinstance(machine, SST) and not machine.is_sstf:
        report = classify_function(machine)
    else:
        raise MachineError("cannot analyze this machine kind")
    doc = report.to_json()
    if report.minimal_marbles is not None:
        doc["minimal_marbles"] = report.minimal_marbles
    return doc


def cmd_analyze(args) -> int:
    machine, _layers = _load(args.file)
    _print_json(_analyze(machine), args.pretty)
    return 0


def cmd_optimize(args) -> int:
    machine, _layers = _load(args.file)
    dump = args.dump_stages
    if dump:
        os.makedirs(dump, exist_ok=True)
    if isinstance(machine, MarbleTransducer):
        res = minimize_marbles(machine, dump=dump)
    elif isinstance(machine, SST) and not machine.is_sstf:
        res = to_k_layered(machine, dump=dump)
    else:
        raise MachineError("cannot optimize this machine kind")
    if res.kind == "exponential":
        _print_json(res.report.to_json(), args.pretty)
        return 4
    doc = {"k_min" if res.kind == "marble" else "k": res.k,
           "growth": res.report.to_json()}
    text = dumps_machine(res.machine, res.layers)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        _print_json(doc, args.pretty)
    else:
        _print_json(doc, args.pretty)
        print(text, end="")
    return 0


def cmd_equiv(args) -> int:
    m1, _l1 = _load(args.a)
    m2, _l2 = _load(args.b)
    verdict = equiv_check(m1, m2, args.maxlen, budget=args.budget)
    doc = {"status": verdict.status, "maxlen": verdict.max_length}
    if verdict.counterexample is not None:
        word, o1, o2 = verdict.counterexample
        doc["counterexample"] = {
            "word": list(word),
            "first": list(o1) if o1 is not None else None,
            "second": list(o2) if o2 is not None else None,
        }
    if verdict.inconclusive_word is not None:
        doc["inconclusive_word"] = list(verdict.inconclusive_word)
    _print_json(doc, args.pretty)
    if verdict.status == "equivalent":
        return 0
    if verdict.status == "counterexample":
        return 2
    return 3


@functools.lru_cache(maxsize=None)
def _build_parser(command: str) -> argparse.ArgumentParser:
    """The argument parser of one subcommand, built on its first use and
    cached per command: ``parse_args`` keeps no state between calls, and
    building one costs a terminal-size query and message lookups for each
    argument, which in-process callers of ``main`` would pay on every call."""
    p = argparse.ArgumentParser(prog="xducer %s" % command, add_help=True)
    p.add_argument("--pretty", action="store_true",
                   help="indent JSON reports for humans")
    if command in ("run", "trace"):
        p.add_argument("file")
        p.add_argument("word")
        p.add_argument("--budget", type=_count, default=None)
    elif command == "validate":
        p.add_argument("file")
    elif command == "convert":
        p.add_argument("--to", required=True, choices=("sst", "marble"))
        p.add_argument("file")
        p.add_argument("-o", "--output", default=None)
    elif command == "analyze":
        p.add_argument("file")
    elif command == "optimize":
        p.add_argument("file")
        p.add_argument("-o", "--output", default=None)
        p.add_argument("--dump-stages", default=None)
    elif command == "equiv":
        p.add_argument("a")
        p.add_argument("b")
        p.add_argument("--maxlen", type=_count, required=True)
        p.add_argument("--budget", type=_count, default=None)
    return p


COMMANDS = {
    "validate": cmd_validate,
    "run": lambda args: cmd_run(args, trace=False),
    "trace": lambda args: cmd_run(args, trace=True),
    "convert": cmd_convert,
    "analyze": cmd_analyze,
    "optimize": cmd_optimize,
    "equiv": cmd_equiv,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in ("-h", "--help"):
        print(USAGE)
        return 0
    if not argv or argv[0] not in COMMANDS:
        print(USAGE, file=sys.stderr)
        return EX_USAGE
    command, rest = argv[0], argv[1:]
    parser = _build_parser(command)
    try:
        args = parser.parse_args(rest)
    except SystemExit as exc:
        return EX_USAGE if exc.code not in (0, None) else 0
    env = os.environ.get("XDUCER_BUDGET")
    if env and "budget" in vars(args) and args.budget is None:
        try:
            args.budget = _count(env)
        except argparse.ArgumentTypeError as exc:
            print("XDUCER_BUDGET: %s" % exc, file=sys.stderr)
            return EX_USAGE
    try:
        return COMMANDS[command](args)
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return EX_IOERR
    except MachineError as exc:  # a malformed file's MachineFileError too
        print(str(exc), file=sys.stderr)
        return 1


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
