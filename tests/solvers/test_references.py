"""Reference solvers: direct summation and Ewald (incl. Madelung constant),
plus cross-solver checks of the approximate solvers against the direct one."""

from typing import Optional

import numpy as np
import pytest

from repro.core.handle import fcs_init
from repro.core.particles import ParticleSet
from repro.md.systems import silica_melt_system
from repro.simmpi.machine import Machine
from repro.solvers.direct import direct_sum
from repro.solvers.ewald_ref import ewald_sum, suggest_alpha


def direct_energy(pos: np.ndarray, q: np.ndarray, box: Optional[np.ndarray] = None) -> float:
    """Total electrostatic energy ``0.5 sum_i q_i phi_i``."""
    pot, _ = direct_sum(pos, q, box)
    return float(0.5 * (np.asarray(q) * pot).sum())


def ewald_energy(
    pos: np.ndarray,
    q: np.ndarray,
    box: np.ndarray,
    **kwargs,
) -> float:
    """Total electrostatic energy ``0.5 sum_i q_i phi_i`` of the periodic
    system."""
    pot, _ = ewald_sum(pos, q, box, **kwargs)
    return float(0.5 * (np.asarray(q) * pot).sum())


class TestDirect:
    def test_two_charges(self):
        pos = np.array([[0.0, 0, 0], [2.0, 0, 0]])
        q = np.array([1.0, -1.0])
        pot, field = direct_sum(pos, q)
        assert pot[0] == pytest.approx(-0.5)
        assert pot[1] == pytest.approx(0.5)
        # attraction: field at particle 0 points toward particle 1
        assert field[0, 0] == pytest.approx(0.25)
        assert direct_energy(pos, q) == pytest.approx(-0.5)

    def test_newtons_third_law(self, rng):
        pos = rng.uniform(0, 5, (30, 3))
        q = rng.uniform(-1, 1, 30)
        _, field = direct_sum(pos, q)
        force = q[:, None] * field
        np.testing.assert_allclose(force.sum(axis=0), 0.0, atol=1e-10)

    def test_chunking_invariant(self, rng):
        pos = rng.uniform(0, 5, (50, 3))
        q = rng.uniform(-1, 1, 50)
        p1, f1 = direct_sum(pos, q, chunk=7)
        p2, f2 = direct_sum(pos, q, chunk=1000)
        np.testing.assert_allclose(p1, p2)
        np.testing.assert_allclose(f1, f2)

    def test_minimum_image(self):
        box = np.array([10.0, 10.0, 10.0])
        pos = np.array([[0.5, 5, 5], [9.5, 5, 5]])
        q = np.array([1.0, 1.0])
        pot, _ = direct_sum(pos, q, box=box)
        assert pot[0] == pytest.approx(1.0)

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            direct_sum(np.zeros((3, 2)), np.zeros(3))


class TestEwald:
    def test_alpha_independence(self, rng):
        n = 20
        box = np.array([6.0, 6.0, 6.0])
        pos = rng.uniform(0, 6, (n, 3))
        q = np.ones(n)
        q[n // 2:] = -1
        # both alphas fully converged (erfc(alpha * L/2) ~ 1e-7 and smaller)
        e1 = ewald_energy(pos, q, box, alpha=1.25, kmax=16)
        e2 = ewald_energy(pos, q, box, alpha=1.6, kmax=20)
        assert e1 == pytest.approx(e2, rel=1e-6)

    def test_field_is_negative_gradient(self, rng):
        n = 8
        box = np.array([5.0, 5.0, 5.0])
        pos = rng.uniform(0, 5, (n, 3))
        q = np.ones(n)
        q[n // 2:] = -1
        pot, field = ewald_sum(pos, q, box, alpha=1.2, kmax=12)
        h = 1e-5
        for d in range(3):
            pp = pos.copy()
            pp[0, d] += h
            pm = pos.copy()
            pm[0, d] -= h
            pot_p, _ = ewald_sum(pp, q, box, alpha=1.2, kmax=12)
            pot_m, _ = ewald_sum(pm, q, box, alpha=1.2, kmax=12)
            grad = (pot_p[0] - pot_m[0]) / (2 * h)
            assert field[0, d] == pytest.approx(-grad, rel=1e-4, abs=1e-7)

    def test_madelung_nacl(self):
        """The NaCl Madelung constant: phi at each ion = -1.7476 q / a."""
        m = 4  # 4x4x4 unit cells of the rock-salt lattice
        a = 1.0  # nearest-neighbor distance
        coords = np.array(
            [(i, j, k) for i in range(m) for j in range(m) for k in range(m)],
            dtype=np.float64,
        )
        q = np.where(coords.sum(axis=1) % 2 == 0, 1.0, -1.0)
        box = np.array([m * a] * 3)
        pot, _ = ewald_sum(coords * a, q, box, accuracy=1e-10)
        madelung = pot * q  # q_i phi_i / (q^2/a)
        np.testing.assert_allclose(madelung, -1.747564594633, rtol=1e-8)

    def test_wigner_bcc_vs_known(self):
        """Single charge + background: the Wigner self potential of a
        simple cubic lattice is -2.8372975 / L (known Madelung-type value)."""
        box = np.array([1.0, 1.0, 1.0])
        pot, _ = ewald_sum(np.zeros((1, 3)), np.ones(1), box, accuracy=1e-10)
        assert pot[0] == pytest.approx(-2.837297479, rel=1e-7)

    def test_suggest_alpha_positive(self):
        assert suggest_alpha(np.array([5.0, 5.0, 5.0]), 100) > 0

    def test_momentum_conservation(self, rng):
        n = 16
        box = np.array([7.0, 7.0, 7.0])
        pos = rng.uniform(0, 7, (n, 3))
        q = np.ones(n)
        q[n // 2:] = -1
        _, field = ewald_sum(pos, q, box, accuracy=1e-9)
        force = q[:, None] * field
        np.testing.assert_allclose(force.sum(axis=0), 0.0, atol=1e-8)


def _solve(solver, nprocs, system, seed=0, **solver_kwargs):
    """Run one solver on a randomly distributed copy of ``system`` and
    return id-ordered (pot, field) for cross-solver comparison."""
    machine = Machine(nprocs)
    rng = np.random.default_rng(seed)
    owner = rng.integers(0, nprocs, system.n)
    particles = ParticleSet(
        [system.pos[owner == r].copy() for r in range(nprocs)],
        [system.q[owner == r].copy() for r in range(nprocs)],
        capacity_factor=4.0,
    )
    ids = [np.flatnonzero(owner == r) for r in range(nprocs)]
    with fcs_init(solver, machine, **solver_kwargs) as fcs:
        fcs.set_common(box=system.box, offset=system.offset, periodic=True)
        fcs.tune(particles, 1e-4)
        fcs.run(particles)
    order = np.argsort(np.concatenate(ids))
    pot = np.concatenate(particles.pot)[order]
    field = np.concatenate(particles.field)[order]
    return pot, field


class TestCrossSolver:
    """The approximate parallel solvers against the direct reference: same
    system, same layout, potentials and fields must agree to the solvers'
    accuracy — independent of the paper's redistribution machinery, this
    pins down the physics each differential trajectory is built on."""

    @pytest.fixture(scope="class")
    def reference(self):
        system = silica_melt_system(64, seed=11)
        pot, field = _solve("direct", 4, system, seed=11)
        return system, pot, field

    @pytest.mark.parametrize("nprocs", [4, 8])
    def test_fmm_matches_direct(self, reference, nprocs):
        system, ref_pot, ref_field = reference
        pot, field = _solve("fmm", nprocs, system, seed=11)
        # the FMM's periodic potential differs from the Ewald reference by
        # a uniform gauge constant (background/self-term convention); only
        # potential *differences* and fields are physical
        shift = float((pot - ref_pot).mean())
        pot_scale = float(np.abs(ref_pot).max())
        field_scale = float(np.abs(ref_field).max())
        assert float(np.abs(pot - ref_pot - shift).max()) < 2e-2 * pot_scale
        assert float(np.abs(field - ref_field).max()) < 2e-2 * field_scale

    @pytest.mark.parametrize("nprocs", [4, 8])
    def test_p2nfft_matches_direct(self, reference, nprocs):
        system, ref_pot, ref_field = reference
        pot, field = _solve("p2nfft", nprocs, system, seed=11)
        pot_scale = float(np.abs(ref_pot).max())
        field_scale = float(np.abs(ref_field).max())
        assert float(np.abs(pot - ref_pot).max()) < 2e-2 * pot_scale
        assert float(np.abs(field - ref_field).max()) < 2e-2 * field_scale

    def test_solver_layout_independence(self, reference):
        """The same solver on different rank counts must agree with itself
        far more tightly than with the reference — the decomposition must
        not change the physics."""
        system, _, _ = reference
        pot4, field4 = _solve("fmm", 4, system, seed=11)
        pot8, field8 = _solve("fmm", 8, system, seed=11)
        np.testing.assert_allclose(pot4, pot8, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(field4, field8, rtol=1e-9, atol=1e-10)
