"""Correctness gate: every outcome the timed phase produced, against the
committed exhaustive tables.

Each function returns ``(attempted, failed)`` fault counts.  Exhaustive
cells compare entry by entry, so a failure is one fault.  A sampled
campaign returns per-(layer, bit) tallies, not per-fault outcomes, so a
cell whose tallies differ counts every fault it holds as failed.  A work
item whose call raised counts all of its faults as failed.
"""

from __future__ import annotations

import numpy as np


def check_cells(cells, table) -> tuple[int, int]:
    """Compare ``(layer, bit, cell)`` triples with *table* array for array.

    ``cell`` is ``None`` when classifying it raised.
    """
    attempted = failed = 0
    for layer, bit, cell in cells:
        expected = table.outcomes[layer][:, bit, :]
        attempted += expected.size
        if cell is None or cell.shape != expected.shape:
            failed += expected.size
        else:
            failed += int(np.count_nonzero(cell != expected))
    return attempted, failed


def check_tallies(got: dict, expected: dict) -> tuple[int, int]:
    """Compare two ``{(layer, bit): [n, critical, masked]}`` tallies."""
    attempted = sum(t[0] for t in expected.values())
    failed = 0
    for key in sorted(set(got) | set(expected)):
        mine = list(got.get(key, (0, 0, 0)))
        theirs = list(expected.get(key, (0, 0, 0)))
        if mine != theirs:
            failed += max(mine[0], theirs[0])
    return attempted, failed


def table_tallies(plan, seed: int, table, space) -> dict:
    """Tallies of *plan* under *seed*, looked up straight in *table*.

    Re-draws each stratum's fault ids from its own substream (the draw
    is deterministic) and reads their outcomes from the table arrays in
    global-id order (layer, then bit, then weight, then fault model, as
    :meth:`~repro.faults.FaultSpace.fault_global_id` numbers them).  No
    runner, sampler-to-fault decoding or table oracle code runs, so the
    check shares no tallying code with the campaign it checks.
    """
    from repro.faults import FaultOutcome
    from repro.sfi.granularity import Granularity
    from repro.sfi.runner import stratum_rng
    from repro.sfi.sampler import sample_without_replacement

    bits = space.bits
    flat = np.concatenate([o.transpose(1, 0, 2).reshape(-1) for o in table.outcomes])
    cell_pop = [space.cell_population(layer) for layer in range(len(space.layers))]
    layer_start = np.concatenate([[0], np.cumsum([p * bits for p in cell_pop])])
    cell_of = np.repeat(np.arange(len(cell_pop) * bits), np.repeat(cell_pop, bits))
    ids = []
    for index, item in enumerate(plan.items):
        if item.sample_size == 0:
            continue
        sub = item.subpopulation
        start = 0
        if sub.granularity is not Granularity.NETWORK:
            start = int(layer_start[sub.layer])
            if sub.granularity is Granularity.BIT_LAYER:
                start += sub.bit * cell_pop[sub.layer]
        rng = stratum_rng(seed, index)
        ids.append(start + sample_without_replacement(sub.population, item.sample_size, rng))
    if not ids:
        return {}
    ids = np.concatenate(ids)
    cells = cell_of[ids]
    outcomes = flat[ids]
    size = len(cell_pop) * bits
    counts = np.bincount(cells, minlength=size)
    critical = np.bincount(cells, weights=outcomes == FaultOutcome.CRITICAL, minlength=size)
    masked = np.bincount(cells, weights=outcomes == FaultOutcome.MASKED, minlength=size)
    return {
        divmod(int(c), bits): [int(counts[c]), int(critical[c]), int(masked[c])]
        for c in np.flatnonzero(counts)
    }
