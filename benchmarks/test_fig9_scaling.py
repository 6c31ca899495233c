"""Fig. 9 — strong scaling of methods A, B and B + max movement.

Paper (Sect. IV-D):

* FMM on JuRoPA (fat tree, 8-1024 procs): method B below method A with the
  largest gap at mid scale (~33 % at 256); exploiting the maximum movement
  (merge-based sorting) *slightly increases* the runtime — the switched
  network gives neighbor communication no advantage.
* P2NFFT on Juqueen (torus, 16-16384 procs): beyond ~1024 procs method B
  becomes *slower* than A (the additional resort communication step), both
  rise with P (count-exchange/collective growth), while B + max movement
  (pure neighborhood communication) keeps scaling and ends ~40 % below A.
"""

import numpy as np
import pytest

from repro.bench.figures import fig9


@pytest.fixture(scope="module")
def results(preset):
    return fig9(preset, quiet=True)


def test_fig9_benchmark(benchmark, preset):
    benchmark.pedantic(lambda: fig9(preset, quiet=True), rounds=1, iterations=1)


class TestFMMOnFatTree:
    def test_b_below_a_at_scale(self, results):
        r = results["fmm"]
        gaps = [(a - b) / a for a, b in zip(r["A"], r["B"])]
        # B wins, and the relative gap grows toward the large-P end
        assert gaps[-1] > 0.05
        assert gaps[-1] > gaps[0]

    def test_b_move_adds_overhead_on_fat_tree(self, results):
        """Merge sort's point-to-point rounds do not pay off on a switched
        network — B+move is (slightly) slower than plain B."""
        r = results["fmm"]
        late = slice(len(r["procs"]) // 2, None)
        assert np.mean(np.asarray(r["B+move"])[late]) > np.mean(np.asarray(r["B"])[late])

    def test_strong_scaling_initially(self, results):
        r = results["fmm"]
        assert r["A"][1] < r["A"][0]
        assert r["B"][1] < r["B"][0]


class TestP2NFFTOnTorus:
    def test_b_move_fastest_at_scale(self, results):
        r = results["p2nfft"]
        assert r["B+move"][-1] < r["A"][-1]
        assert r["B+move"][-1] < r["B"][-1]

    def test_b_lead_over_a_shrinks_at_scale(self, results):
        """What is measured of the paper's >1024 regime (EXPERIMENTS.md): B
        is ahead of A at moderate scale and its relative lead shrinks from
        the 1024-rank point to the last one — the direction of the paper's
        claim; the crossover itself is the strict xfail below."""
        r = results["p2nfft"]
        lead = [(a - b) / a for a, b in zip(r["A"], r["B"])]
        assert lead[1] > 0
        if r["procs"][-1] <= 1024:
            pytest.skip("no point beyond 1024 ranks at this preset")
        assert lead[-1] < lead[r["procs"].index(1024)]

    @pytest.mark.xfail(
        strict=True,
        reason="B no longer crosses A on the torus: PR 2's cached, fused resort plan removed "
        "most of the additional resort communication step the paper blames (ROADMAP 1(b)); "
        "the PR that restores the crossover flips this",
    )
    def test_b_crosses_a_at_scale(self, results):
        """The paper: beyond ~1024 procs B's extra resort communication makes
        it *slower* than A."""
        r = results["p2nfft"]
        assert r["B"][-1] > r["A"][-1]

    def test_runtimes_rise_at_extreme_scale(self, results):
        r = results["p2nfft"]
        if r["procs"][-1] >= 4096:
            assert r["A"][-1] > min(r["A"])
            assert r["B"][-1] > min(r["B"])
