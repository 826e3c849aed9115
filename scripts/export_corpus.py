#!/usr/bin/env python3
"""Write the bundled example machines as JSON files into corpus/."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from xducer.corpus import MUL_LAYERS, all_machines  # noqa: E402
from xducer.machine_io import dumps_machine  # noqa: E402


def documents() -> dict:
    """File name -> JSON text of every bundled machine."""
    return {"%s.json" % name: dumps_machine(
                machine, MUL_LAYERS if name == "mul_sst" else None)
            for name, machine in sorted(all_machines().items())}


def main() -> None:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.join(here, "..", "corpus")
    os.makedirs(target, exist_ok=True)
    for fname, text in documents().items():
        path = os.path.join(target, fname)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print("wrote", os.path.relpath(path))


if __name__ == "__main__":
    main()
