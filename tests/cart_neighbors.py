"""A process grid's 26-neighborhoods and subdomain boxes for tests.

No code under ``src/`` asks for a rank's neighbor set or its box: the ghost
rule looks its targets up in the shifted-rank table of each offset
(``CartGrid.shifted_ranks``).  Tests that declare a neighbor contract to the
auditor, check the grid's adjacency or check ownership against a box brute
force build them here.
"""

import itertools

import numpy as np


def neighbor_table(grid, include_self=False):
    """Per rank of a periodic grid, its distinct face/edge/corner neighbor
    ranks, sorted: on a small grid two offsets may wrap onto one rank."""
    shifts = [d for d in itertools.product((-1, 0, 1), repeat=3) if include_self or any(d)]
    table = np.stack([grid.shifted_ranks(d) for d in shifts], axis=1)
    return [np.unique(row) for row in table]


def subdomain_bounds(grid, rank):
    """``(lo, hi)`` corners of a rank's subdomain."""
    lo = grid.offset + grid.coords_of(rank) * grid.cell
    return lo, lo + grid.cell


def neighbor_ranks(grid, rank, include_self=False):
    """Row ``rank`` of :func:`neighbor_table`."""
    return neighbor_table(grid, include_self)[rank]
