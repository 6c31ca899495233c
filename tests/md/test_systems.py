"""Particle system generation: neutrality, spacing, density scaling."""

import numpy as np
import pytest

from repro.md.systems import PAPER_BOX_EDGE, PAPER_N, silica_melt_system


class TestSilicaMelt:
    def test_neutral(self):
        s = silica_melt_system(1000, seed=0)
        assert s.q.sum() == 0.0
        assert set(np.unique(s.q)) == {-1.0, 1.0}

    def test_paper_density_scaling(self):
        s = silica_melt_system(2000)
        paper_density = PAPER_N / PAPER_BOX_EDGE ** 3
        assert s.n / np.prod(s.box) == pytest.approx(paper_density, rel=1e-6)

    def test_full_size_box(self):
        s = silica_melt_system(PAPER_N // 512, box_edge=PAPER_BOX_EDGE / 8)
        assert s.box[0] == PAPER_BOX_EDGE / 8

    def test_positions_inside_box(self):
        s = silica_melt_system(500, seed=2)
        assert np.all(s.pos >= 0) and np.all(s.pos < s.box)

    def test_minimum_distance(self):
        s = silica_melt_system(600, seed=1, jitter=0.3)
        m = int(np.ceil(600 ** (1 / 3)))
        spacing = s.box[0] / m
        guaranteed = (1 - 2 * 0.3) * spacing
        d = s.pos[:, None, :] - s.pos[None, :, :]
        d -= np.round(d / s.box) * s.box
        r2 = (d * d).sum(2)
        np.fill_diagonal(r2, np.inf)
        assert np.sqrt(r2.min()) >= guaranteed - 1e-9

    def test_zero_velocities(self):
        s = silica_melt_system(100)
        assert np.all(s.vel == 0)

    def test_deterministic(self):
        a = silica_melt_system(200, seed=7)
        b = silica_melt_system(200, seed=7)
        np.testing.assert_array_equal(a.pos, b.pos)
        np.testing.assert_array_equal(a.q, b.q)

    def test_homogeneous(self):
        """Octant occupation is balanced (the paper's 'sufficiently
        homogeneously distributed' property)."""
        s = silica_melt_system(8000, seed=3)
        octant = (
            (s.pos[:, 0] > s.box[0] / 2).astype(int) * 4
            + (s.pos[:, 1] > s.box[1] / 2).astype(int) * 2
            + (s.pos[:, 2] > s.box[2] / 2).astype(int)
        )
        counts = np.bincount(octant, minlength=8)
        assert counts.max() < 1.2 * counts.min()

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            silica_melt_system(101)

    def test_bad_jitter(self):
        with pytest.raises(ValueError):
            silica_melt_system(100, jitter=0.6)
