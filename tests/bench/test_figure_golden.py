"""Every cell of ``phases``, fig6 and fig7 at the ``quick`` preset, pinned.

A cell is named ``figure/solver/method/placement/system`` and pins its final
:func:`~repro.verify.invariants.state_fingerprint` plus the ``float.hex`` of
every step's :func:`~repro.bench.harness.step_breakdown` (sort, restore,
resort, total, redist).  A change to a modeled clock or to the physics of a
figure then fails here as a named cell, not as a shifted shape assertion in
``benchmarks/``.  ``figure_golden.json`` was generated before the figures
were built from :class:`~repro.verify.trajectory.CellSpec` lists.
"""

import functools
import json
import pathlib

import pytest

import repro.bench.figures as figures
from repro.bench.harness import step_breakdown

GOLDEN = json.loads((pathlib.Path(__file__).parent / "figure_golden.json").read_text())


@pytest.fixture(scope="module")
def cells():
    """``{name: CellResult}`` of every cell the three figures ran."""
    played = {}
    honest = figures.run_cells

    def spy(figure, specs, backend=None):
        results = honest(specs, backend)
        for spec, result in zip(specs, results):
            name = f"{figure}/{spec.solver}/{spec.method}/{spec.placement}/{spec.system}"
            assert name not in played, name
            played[name] = result
        return results

    with pytest.MonkeyPatch.context() as mp:
        for figure in ("phases", "fig6", "fig7"):
            mp.setattr(figures, "run_cells", functools.partial(spy, figure))
            getattr(figures, figure)("quick", quiet=True)
    return played


def test_every_cell_is_pinned(cells):
    assert sorted(cells) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cell(cells, name):
    result = cells[name]
    breakdowns = [
        [float(v).hex() for v in step_breakdown(rec).values()] for rec in result.records
    ]
    assert breakdowns == GOLDEN[name]["breakdowns"]
    assert result.fingerprint == GOLDEN[name]["fingerprint"]
