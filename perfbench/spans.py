"""Per-layer spans recorded from outside the package.

``Tracer.install`` rebinds each traced function in every loaded ``xducer.*``
module that holds it, so calls through a module attribute (including lazy
``from .x import f`` inside function bodies, which read the attribute at call
time) go through a wrapper.  The wrapper records one span per call: name,
start, end and the index of the enclosing span.  Spans stay in memory until
the caller writes them out.

Self time is a span's duration minus the time its direct child spans cover;
calls are strictly nested on one thread, so the children never overlap.
Spans are timed in CPU time of the process, as the operations are.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# module -> public functions traced, one span per call.
LAYERS = {
    "cli": ("main",),
    "machine_io": ("parse_machine", "dumps_machine"),
    "machines": ("find_copy_bound", "check_bounded", "check_layered",
                 "validate"),
    "semantics": ("run_sst", "run_marble", "run_two_way"),
    "growth": ("classify_function", "classify", "flow_automaton",
               "has_heavy_cycle", "barbell_graph", "find_barbell"),
    "mt2sst": ("marble_to_sst", "two_way_to_marble"),
    "sst2mt": ("layered_to_marble", "sst_to_marble"),
    "layering": ("to_k_layered", "minimize_marbles", "make_total",
                 "to_simple", "prune_dead_registers", "remove_bounded_layer",
                 "extract_sstf", "bounded_sstf_to_unambiguous",
                 "determinize_nsstf", "product_ssts", "splice_layers",
                 "reimpose_domain", "prune_sst_registers", "value_sst"),
    "oracle": ("equiv_check",),
}

SEMANTICS_RUNS = ("semantics.run_sst", "semantics.run_marble",
                  "semantics.run_two_way")


def _first(result):
    return result[0] if isinstance(result, tuple) else result


def _size_counters(name: str, result) -> dict:
    """Counts taken from a traced call's result (``out_*``, steps, bytes)."""
    if name in SEMANTICS_RUNS:
        counts = {"steps": result.steps}
        if name == "semantics.run_marble":
            counts["max_stack_depth"] = result.max_stack_depth
        return counts
    if name == "machine_io.dumps_machine":
        return {"bytes": len(result.encode("utf-8"))}
    if name in ("growth.flow_automaton", "layering.determinize_nsstf",
                "layering.bounded_sstf_to_unambiguous",
                "sst2mt.layered_to_marble"):
        return {"out_states": len(_first(result).states)}
    if name == "mt2sst.marble_to_sst":
        return {"out_states": len(result.states),
                "out_registers": len(result.registers)}
    return {}


class Tracer:
    """Records spans for the functions in ``LAYERS`` while installed."""

    def __init__(self, layers: dict = LAYERS, clock=time.process_time):
        self.layers = layers
        self.clock = clock
        self.spans: list = []   # [name, start, end, parent, counters]
        self._stack: list = []
        self._saved: list = []  # (module, attribute, original)

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None, None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            spans[index][4] = _size_counters(name, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "xducer" or n.startswith("xducer."))]
        for short, names in self.layers.items():
            home = sys.modules["xducer." + short]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap("%s.%s" % (short, fname), original)
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        self._saved.append((mod, fname, original))
                        setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._saved):
            setattr(mod, fname, original)
        self._saved = []

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, counters in self.spans:
                fh.write(json.dumps([name, start, end, parent, counters]) + "\n")


def self_times(spans: list) -> list:
    """Self time of every span: its duration minus its direct children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [(end - start) - child[i]
            for i, (_, start, end, _, _) in enumerate(spans)]


def aggregate(spans: list) -> dict:
    """Per traced function: self_s, calls and summed (or maximal) counters.

    ``oracle.equiv_check.words`` counts the interpreter runs made directly
    under each equivalence check, two per word compared.
    """
    out: dict = defaultdict(lambda: defaultdict(float))
    selfs = self_times(spans)
    runs_under: dict = defaultdict(int)
    for i, (name, _start, _end, parent, counters) in enumerate(spans):
        agg = out[name]
        agg["self_s"] += selfs[i]
        agg["calls"] += 1
        for key, value in (counters or {}).items():
            if key == "max_stack_depth":
                agg[key] = max(agg[key], value)
            else:
                agg[key] += value
        if name in SEMANTICS_RUNS and parent is not None \
                and spans[parent][0] == "oracle.equiv_check":
            runs_under[parent] += 1
    for parent, runs in runs_under.items():
        out["oracle.equiv_check"]["words"] += runs // 2
    return {name: dict(values) for name, values in out.items()}


def module_self_times_by_root(spans: list, labels: list) -> dict:
    """Self time per module, split by the label of each span's outermost span.

    The i-th span without a parent gets ``labels[i]``; every other span takes
    the label of its outermost ancestor.
    """
    selfs = self_times(spans)
    span_label: list = []
    roots = 0
    out: dict = defaultdict(lambda: defaultdict(float))
    for i, (name, _start, _end, parent, _counters) in enumerate(spans):
        if parent is None:
            label = labels[roots]
            roots += 1
        else:
            label = span_label[parent]
        span_label.append(label)
        out[label][name.split(".")[0]] += selfs[i]
    return {label: dict(modules) for label, modules in out.items()}
