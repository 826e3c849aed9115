import os
import sys
from dataclasses import replace

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from xducer.machines import MachineError, Reg  # noqa: E402
from xducer.semantics import ACCEPT, run_sst  # noqa: E402


@pytest.fixture
def register_values():
    """Register valuation after the one-way run on a prefix, read off
    ``run_sst`` with each register in turn as the output of every state.

    Raises if the run is undefined (the valuation only exists along runs).
    """
    def values(m, prefix, registry=None):
        val = {}
        for x in m.registers:
            probe = replace(m, output={q: (Reg(x),) for q in m.states})
            res = run_sst(probe, prefix, registry=registry)
            if res.verdict != ACCEPT:
                raise MachineError("one-way run undefined on %r" % (prefix,))
            val[x] = res.output
        return val
    return values
