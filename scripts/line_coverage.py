#!/usr/bin/env python3
"""Statements inside the functions of ``src/xducer`` that a test run never ran.

Runs pytest in this process on the given arguments under ``sys.settrace``
and records every line executed in a ``src/xducer`` module.  Then, for each
module, prints the statements inside functions (methods and nested functions
included) none of whose lines ran, one per line as ``file:line  source``.
Only the standard library is used, so no coverage package is needed.

Files are compared by real path: the tests put ``tests/../src`` on the
import path, so the traced file names are not the plain ``src`` paths.
Code run in child processes (the CLI tests start some) is not traced.

Usage:
  line_coverage.py [PYTEST ARGS...]
      e.g. ``line_coverage.py -q tests/test_machines.py``; the exit status
      is pytest's
"""

import ast
import os
import sys
import threading

ROOT = os.path.realpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
PACKAGE = os.path.join(ROOT, "src", "xducer")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]  # ROOT for tests that import perfbench


def function_statements(source: str) -> dict:
    """First line of each statement inside a function -> the lines it owns:
    all its lines for a simple statement, its header for a compound one.
    Docstrings and ``global``/``nonlocal`` declarations run no code."""
    owned: dict = {}

    def visit(body, in_function):
        for i, node in enumerate(body):
            if in_function and not (
                    isinstance(node, (ast.Global, ast.Nonlocal))
                    or (i == 0 and isinstance(node, ast.Expr)
                        and isinstance(node.value, ast.Constant)
                        and isinstance(node.value.value, str))):
                inner = [n for n in ast.iter_child_nodes(node) if isinstance(n, ast.stmt)]
                end = min(n.lineno for n in inner) if inner else node.end_lineno + 1
                owned[node.lineno] = range(node.lineno, max(end, node.lineno + 1))
            is_function = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), in_function or is_function)
            for handler in getattr(node, "handlers", []):
                visit(handler.body, in_function or is_function)
            for case in getattr(node, "cases", []):
                visit(case.body, in_function or is_function)

    visit(ast.parse(source).body, False)
    return owned


def traced_run(args: list) -> tuple:
    """Run pytest on ``args``; returns (exit status, real path -> lines run)."""
    import pytest

    ran: dict = {}
    paths: dict = {}

    def local(frame, event, _arg):
        if event == "line":
            ran[paths[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def global_trace(frame, _event, _arg):
        name = frame.f_code.co_filename
        if name not in paths:
            real = os.path.realpath(name)
            paths[name] = real if os.path.dirname(real) == PACKAGE else None
            if paths[name]:
                ran.setdefault(paths[name], set())
        return local if paths[name] else None

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main(argv: list) -> int:
    status, ran = traced_run(argv)
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        lines = source.splitlines()
        done = ran.get(path, set())
        owned = function_statements(source)
        missed = [n for n, own in sorted(owned.items()) if done.isdisjoint(own)]
        print("%s: %d of %d statements in functions never ran"
              % (name, len(missed), len(owned)))
        for n in missed:
            print("  %s:%d  %s" % (name, n, lines[n - 1].strip()))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
