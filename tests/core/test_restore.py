"""Method A restore: results return to the original order and distribution."""

import numpy as np
import pytest

from repro.core.particles import ParticleSet
from repro.core.resort import initial_numbering
from repro.core.restore import restore_results
from repro.simmpi.machine import Machine


def test_restore_roundtrip(machine4, rng):
    counts = [5, 0, 3, 4]
    total = sum(counts)
    # initial numbering scattered into a random changed distribution
    numbering = np.concatenate(initial_numbering(counts))
    perm = rng.permutation(total)
    new_counts = np.bincount(rng.integers(0, 4, total), minlength=4)
    bounds = np.concatenate(([0], np.cumsum(new_counts)))
    origloc = [numbering[perm[bounds[r]:bounds[r + 1]]] for r in range(4)]
    # the "calculated" result for each particle encodes its identity
    pots = [ol.astype(np.float64) * 0.5 for ol in origloc]
    fields = [np.tile(ol[:, None].astype(np.float64), (1, 3)) for ol in origloc]

    pset = ParticleSet(
        [rng.uniform(size=(c, 3)) for c in counts], [np.ones(c) for c in counts]
    )
    restore_results(machine4, origloc, pots, fields, pset, counts, phase="restore")
    for r in range(4):
        expected = numbering[
            sum(counts[:r]):sum(counts[:r]) + counts[r]
        ].astype(np.float64)
        np.testing.assert_allclose(pset.pot[r], expected * 0.5)
        np.testing.assert_allclose(pset.field[r][:, 0], expected)
    assert machine4.trace.phase("restore").time > 0


def test_restore_count_mismatch(machine4):
    counts = [2, 0, 0, 0]
    origloc = initial_numbering([1, 0, 0, 0])  # too few results
    pots = [np.zeros(o.shape[0]) for o in origloc]
    fields = [np.zeros((o.shape[0], 3)) for o in origloc]
    pset = ParticleSet([np.zeros((2, 3))] + [np.zeros((0, 3))] * 3,
                       [np.zeros(2)] + [np.zeros(0)] * 3)
    with pytest.raises(RuntimeError, match="restore received"):
        restore_results(machine4, origloc, pots, fields, pset, counts)
