"""Cold start: a run imports only what it uses.

``scipy.special`` is bound where an Ewald real-space pair is evaluated, not
at import, so a run that skips the solver arithmetic never loads scipy.  One
fresh interpreter imports what `perfbench` imports, plays one step
of a skip-compute FMM cell and of a skip-compute P2NFFT cell, and reports
whether scipy came in; then one ``erfc_pairs`` call loads it, and that call
matches the pair-list oracle bit for bit.

Nor does a step load ``numpy.ma`` (16-18 ms, which a bare ``np.unique``
costs on first use): the skip-compute FMM B+move steps, whose small drift
takes ``merge_exchange_sort`` and its pairwise rounds, leave it out.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

_TESTS = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(os.path.dirname(_TESTS), "src")

_PROGRAM = """
import importlib, json, sys
sys.path[:0] = [{src!r}, {tests!r}]
for name in (
    "repro.bench.harness", "repro.md.simulation", "repro.simmpi.chaos", "repro.verify",
    "repro.obs", "repro.ckpt", "repro.backend", "repro.perf.instrument",
    "repro.solvers.ewald_ref",
):
    importlib.import_module(name)
report = {{"after_import": "scipy" in sys.modules, "ma_after_import": "numpy.ma" in sys.modules}}

from repro.verify.trajectory import CellSpec, run_cell

merged = run_cell(CellSpec("fmm", "B+move", 8, 512, seed=1, physics=False, drift=((2, 0.05, 2.0),)))
report["merge_steps"] = [r.strategy for r in merged.records[1:]].count("merge")
report["ma_after_merge_steps"] = "numpy.ma" in sys.modules

for solver in ("fmm", "p2nfft"):
    run_cell(CellSpec(solver, "B", 8, 512, seed=1, physics=False, drift=((1, 0.5, 2.0),)))
report["after_skip_steps"] = "scipy" in sys.modules

import numpy as np
from repro.solvers.common import pairs

rng = np.random.default_rng(3)
pos = rng.uniform(0.0, 4.0, (60, 3))
q = rng.choice([-1.0, 1.0], 60)
ti, si = np.repeat(np.arange(60), 60), np.tile(np.arange(60), 60)
box = np.full(3, 4.0)
got = pairs.erfc_pairs(pos, pos, q, ti, si, 0.9, 1.8, box=box)
report["after_erfc_pairs"] = "scipy.special" in sys.modules

import near_field_oracles

want = near_field_oracles.erfc_pairs(pos, pos, q, ti, si, 0.9, 1.8, box=box)
report["pairs"] = [got[2], want[2]]
report["bitwise"] = bool(
    np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]) and got[2] == want[2]
)
print(json.dumps(report))
"""


@pytest.mark.timeout(120)
def test_skip_compute_steps_never_load_scipy():
    result = subprocess.run(
        [sys.executable, "-c", _PROGRAM.format(src=_SRC, tests=_TESTS)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["after_import"] is False
    assert report["ma_after_import"] is False
    assert report["merge_steps"] == 2
    assert report["ma_after_merge_steps"] is False
    assert report["after_skip_steps"] is False
    assert report["after_erfc_pairs"] is True
    assert report["pairs"][0] > 0
    assert report["bitwise"] is True
