"""Trajectory I/O, and checkpoint/restart of an MD run via ``repro.ckpt``."""

import numpy as np
import pytest

from repro.ckpt import (
    load_checkpoint,
    resize_checkpoint,
    restore_simulation,
    save_checkpoint,
)
from repro.md.io import read_xyz, write_xyz
from repro.md.simulation import Simulation, SimulationConfig
from repro.md.systems import silica_melt_system
from repro.simmpi.machine import Machine


class TestXYZ:
    def test_roundtrip(self, tmp_path, rng):
        path = str(tmp_path / "frame.xyz")
        pos = rng.uniform(0, 5, (10, 3))
        q = np.where(rng.random(10) > 0.5, 1.0, -1.0)
        vel = rng.normal(size=(10, 3))
        write_xyz(path, pos, q, vel, comment="step 7")
        p2, q2, v2, comment = read_xyz(path)
        np.testing.assert_allclose(p2, pos, atol=1e-9)
        np.testing.assert_array_equal(q2, q)
        np.testing.assert_allclose(v2, vel, atol=1e-9)
        assert comment == "step 7"

    def test_multi_frame(self, tmp_path, rng):
        path = str(tmp_path / "traj.xyz")
        frames = [rng.uniform(size=(4, 3)) for _ in range(3)]
        q = np.array([1.0, -1.0, 1.0, -1.0])
        for i, f in enumerate(frames):
            write_xyz(path, f, q, comment=f"frame {i}", append=i > 0)
        for i, f in enumerate(frames):
            p, _, v, c = read_xyz(path, frame=i)
            np.testing.assert_allclose(p, f, atol=1e-9)
            assert v is None
            assert c == f"frame {i}"

    def test_missing_frame(self, tmp_path):
        path = str(tmp_path / "one.xyz")
        write_xyz(path, np.zeros((1, 3)), np.ones(1))
        with pytest.raises(ValueError):
            read_xyz(path, frame=5)

    def test_empty_frame_roundtrip(self, tmp_path):
        """An n = 0 frame reads back as (0, 3) positions and (0,) charges,
        so it can be written again."""
        path = str(tmp_path / "empty.xyz")
        write_xyz(path, np.zeros((0, 3)), np.zeros(0), comment="empty")
        pos, q, vel, comment = read_xyz(path)
        assert pos.shape == (0, 3) and q.shape == (0,) and vel is None
        assert comment == "empty"
        again = str(tmp_path / "again.xyz")
        write_xyz(again, pos, q, comment=comment)
        with open(path) as fh, open(again) as gh:
            assert gh.read() == fh.read()

    def test_empty_frame_after_a_two_particle_frame(self, tmp_path):
        path = str(tmp_path / "traj.xyz")
        two = np.array([[0.5, 1.0, 1.5], [2.0, 2.5, 3.0]])
        write_xyz(path, two, np.array([1.0, -1.0]), comment="two")
        write_xyz(path, np.zeros((0, 3)), np.zeros(0), comment="none", append=True)
        pos, q, _, comment = read_xyz(path, frame=1)
        assert pos.shape == (0, 3) and q.shape == (0,) and comment == "none"
        write_xyz(path, pos, q, comment="none again", append=True)
        p0, q0, _, _ = read_xyz(path, frame=0)
        np.testing.assert_array_equal(p0, two)
        np.testing.assert_array_equal(q0, [1.0, -1.0])
        assert read_xyz(path, frame=2)[0].shape == (0, 3)

    def test_bad_shapes(self, tmp_path):
        with pytest.raises(ValueError):
            write_xyz(str(tmp_path / "x.xyz"), np.zeros((2, 3)), np.zeros(3))


class TestCheckpoint:
    def make_sim(self, system, nprocs):
        cfg = SimulationConfig(
            solver="p2nfft",
            method="B",
            dt=0.02,
            distribution="random",
            dynamics="brownian",
            brownian_step=0.1,
            solver_kwargs={"compute": "skip"},
            seed=5,
        )
        return Simulation(Machine(nprocs), system, cfg)

    def test_save_load(self, tmp_path):
        system = silica_melt_system(256, seed=9)
        sim = self.make_sim(system, 4)
        sim.run(2)
        path = str(tmp_path / "state.ckpt.ndjson")
        save_checkpoint(sim, path)
        ckpt = load_checkpoint(path)
        data = ckpt.gathered()
        assert data["pos"].shape == (256, 3)
        assert ckpt.step_index == 2
        state = sim.gather_state()
        np.testing.assert_array_equal(data["pos"], state["pos"])
        np.testing.assert_array_equal(data["q"], state["q"])

    def test_resume_on_different_nprocs(self, tmp_path):
        """A checkpoint written at P=4 restarts at P=7: the redistribution
        machinery makes the layout a free choice."""
        system = silica_melt_system(256, seed=9)
        sim = self.make_sim(system, 4)
        sim.run(2)
        path = str(tmp_path / "state.ckpt.ndjson")
        save_checkpoint(sim, path)

        resized, _plan = resize_checkpoint(load_checkpoint(path), 7)
        resumed = restore_simulation(resized)
        assert resumed.machine.nprocs == 7
        assert resumed.step_index == 2
        assert resumed.particles.total() == 256
        # state matches the saved run bitwise (id-ordered), accelerations
        # included -- the retired .npz path saved but never restored them
        old = sim.gather_state()
        new = resumed.gather_state()
        np.testing.assert_array_equal(new["pos"], old["pos"])
        np.testing.assert_array_equal(new["vel"], old["vel"])
        np.testing.assert_array_equal(
            np.concatenate(resumed.acc)[np.argsort(np.concatenate(resumed.ids))],
            np.concatenate(sim.acc)[np.argsort(np.concatenate(sim.ids))],
        )
        resumed.run(1)  # and it can continue stepping
        assert resumed.particles.total() == 256
