"""Seeded machine and word generators for the benchmark.

Every generator takes a ``random.Random`` and nothing else that varies, so a
seed fixes the machine.  Pool members are addressed by ``(pool, index)``:
``pool_machine`` rebuilds member ``index`` from a string seed, which keeps
the expected-answer file (``expected.json``) valid without storing machines.
"""

from __future__ import annotations

import random

from xducer.machines import (
    ACT_LEFT,
    ACT_LIFT,
    ACT_RIGHT,
    LEFT_END,
    Lit,
    MarbleTransducer,
    Reg,
    RIGHT_END,
    SST,
    act_drop,
)

LETTERS = ("a", "b")

# Shapes of the three pools: (states, registers, layers) ranges for the
# layered SSTs, and the share of analyze members given one copyful
# self-reference (which makes the growth exponential).
POOL_SHAPES = {
    "opt_sst": {"states": (2, 3), "registers": (4, 6), "layers": (2, 3),
                "copyful": 0.2},
    "ana_sst": {"states": (2, 3), "registers": (3, 5), "layers": (2, 3),
                "copyful": 0.25},
}


def layered_sst(rng: random.Random, n_states: int, n_regs: int,
                n_layers: int, copyful: bool = False) -> SST:
    """A total SST whose registers fall into ``n_layers`` ordered layers.

    Within a layer the update is copyless (a permutation, with some
    registers reset); registers of lower layers may be copied freely into
    higher ones.  ``copyful`` adds one register that doubles itself on one
    transition.
    """
    states = tuple("q%d" % i for i in range(n_states))
    regs = tuple("r%d" % i for i in range(n_regs))
    cuts = sorted(rng.sample(range(1, n_regs), n_layers - 1))
    layer_of = {x: sum(1 for c in cuts if i >= c) for i, x in enumerate(regs)}
    layers = [[x for x in regs if layer_of[x] == k] for k in range(n_layers)]
    delta, update = {}, {}
    for q in states:
        for a in LETTERS:
            delta[(q, a)] = rng.choice(states)
            sub = {}
            for k, layer in enumerate(layers):
                perm = layer[:]
                rng.shuffle(perm)
                lower = [y for y in regs if layer_of[y] < k]
                for x, src in zip(layer, perm):
                    toks = [Reg(src)] if rng.random() < 0.85 else []
                    for _ in range(rng.randint(0, 2)):
                        if lower and rng.random() < 0.6:
                            toks.append(Reg(rng.choice(lower)))
                        else:
                            toks.append(Lit(rng.choice(LETTERS)))
                    rng.shuffle(toks)
                    sub[x] = tuple(toks)
            update[(q, a)] = sub
    top = layers[-1]
    output = {q: tuple(Reg(x) for x in rng.sample(top, min(len(top), 2)))
              + (Lit(LETTERS[0]),) for q in states}
    if copyful:
        key = rng.choice(sorted(update))
        x = rng.choice(regs)
        update[key][x] = (Reg(x), Reg(x)) + update[key][x]
    return SST(LETTERS, LETTERS, states, regs, states[0],
               {x: () for x in regs}, delta, update, output)


def random_marble(rng: random.Random) -> MarbleTransducer:
    """A small marble machine of the shape the pipeline fuzz tests use."""
    states = tuple("q%d" % i for i in range(rng.randint(1, 3)))
    colors = ("c", "d")[: rng.randint(0, 2)]
    letters = LETTERS[: rng.randint(1, 2)]
    delta, out = {}, {}
    for q in states:
        for s in letters + (LEFT_END, RIGHT_END):
            if rng.random() < 0.8:
                actions = [ACT_LEFT, ACT_RIGHT] + [act_drop(c) for c in colors]
                delta[(q, s, None)] = (rng.choice(states), rng.choice(actions))
                out[(q, s, None)] = tuple(
                    rng.choice("xy") for _ in range(rng.randint(0, 2)))
            for c in colors:
                if rng.random() < 0.7:
                    delta[(q, s, c)] = (rng.choice(states),
                                        rng.choice([ACT_LEFT, ACT_LIFT]))
                    out[(q, s, c)] = tuple(
                        rng.choice("xy") for _ in range(rng.randint(0, 2)))
    finals = frozenset(q for q in states if rng.random() < 0.5)
    return MarbleTransducer(letters, ("x", "y"), states, states[0], finals,
                            colors, delta, out)


def pool_machine(pool: str, index: int):
    """Member ``index`` of ``pool``; the same pair always gives the same machine."""
    rng = random.Random("%s:%d" % (pool, index))
    if pool == "opt_marble":
        return random_marble(rng)
    shape = POOL_SHAPES[pool]
    return layered_sst(rng, rng.randint(*shape["states"]),
                       rng.randint(*shape["registers"]),
                       rng.randint(*shape["layers"]),
                       copyful=rng.random() < shape["copyful"])


def stratified_draw(rng: random.Random, members: list, take: int,
                    group: int) -> list:
    """Pick ``take`` of every ``group`` consecutive members.

    ``members`` is sorted by cost, so every seed draws the same number of
    cheap and dear members and the batch's total cost barely moves with the
    seed.
    """
    drawn = []
    for start in range(0, len(members), group):
        chunk = members[start:start + group]
        drawn.extend(rng.sample(chunk, min(take, len(chunk))))
    return drawn


def random_word(rng: random.Random, alphabet, length: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(length))
