"""Seeded workload inputs.

The benchmark draws every input from the workload seed here, each kind
from its own ``SeedSequence`` substream; the program under test only
ever receives the drawn cells, strata and campaign seeds.

Work comes in rounds of fixed composition: every round of a workload
holds the same cells, the same strata or the same planners, so a run
that measures whole rounds does the same mix of work whatever the seed.
The seed orders each round and draws the campaign seeds.  Cell costs
differ by up to 600-fold between the bits of one layer, so a seeded
choice of *which* bits enter the slice would swing ``faults_per_s`` by
tens of percent between seeds; the slice's bits are therefore fixed
(:data:`SLICE_BITS`).
"""

from __future__ import annotations

import numpy as np

#: One independent RNG substream per kind of input.
_STREAMS = {"cells": 0, "strata": 1, "replay": 2}


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_STREAMS[stream],)))


def _shuffled(rng: np.random.Generator, items: list) -> list:
    return [items[i] for i in rng.permutation(len(items))]


def campaign_seeds(rng: np.random.Generator, count: int) -> list[int]:
    """*count* campaign seeds drawn from *rng*."""
    return [int(s) for s in rng.integers(2**31, size=count)]


#: The exhaustive slice: one bit per resnet14_mini weight layer, indexed
#: by layer.  The bits are the assignment, no bit used twice and the
#: exponent MSB (30) and sign bit (31) forced in, that keeps each cell's
#: cost closest to the mean cell cost of its layer (least summed
#: ``|log(cell / layer mean)|`` over a full per-cell cost matrix of
#: ``plan_vectorized`` on that model).  So a round costs per fault what
#: the whole exhaustive campaign does (within 1% on the matrix), and
#: mantissa (6-22), exponent (23-30) and sign cells all appear.
SLICE_BITS = (30, 6, 14, 9, 27, 13, 15, 17, 18, 21, 22, 26, 31, 23)


def cell_rounds(seed: int, count: int) -> list[list[tuple[int, int]]]:
    """*count* rounds of the ``(layer, bit)`` cells of :data:`SLICE_BITS`,
    each in a seeded order."""
    rng = _rng(seed, "cells")
    cells = list(enumerate(SLICE_BITS))
    return [_shuffled(rng, cells) for _ in range(count)]


def stratum_rounds(seed: int, strata: list[int], count: int) -> list[list[tuple[int, int]]]:
    """*count* rounds of ``(stratum, campaign seed)`` pairs: every stratum
    once per round, in a seeded order, each under its own campaign seed."""
    rng = _rng(seed, "strata")
    return [
        list(zip(_shuffled(rng, strata), campaign_seeds(rng, len(strata)))) for _ in range(count)
    ]


def replay_rounds(seed: int, planners: int, count: int) -> list[list[tuple[int, int]]]:
    """*count* rounds of ``(planner, campaign seed)`` pairs: every planner
    once per round, all under the round's campaign seed (as Table III
    replays each of its seeds through every method)."""
    seeds = campaign_seeds(_rng(seed, "replay"), count)
    return [[(p, s) for p in range(planners)] for s in seeds]
