"""The ``fcs_run`` contract of Sect. III-B, checked once for every solver
that redistributes particles, plus the structure that keeps it written once.

``repro.solvers.base.Solver.run`` is the only implementation of the
hand-back: method B returns the changed layout with resort indices iff every
rank's new count fits the application's arrays, else it behaves like method
A.  The suites below force both branches for fmm, p2nfft and ewald, pin the
shared tuned-check (the FMM used to compute on a stale tree), and assert by
AST that no solver grows its own copy of the skeleton again.
"""

import ast
import pathlib

import numpy as np
import pytest

import repro.core.fine_grained as fine_grained
from repro.core.handle import fcs_init
from repro.core.particles import ParticleSet
from repro.core.resort import unpack_resort_index
from repro.md.distributions import clustered_system
from repro.md.systems import silica_melt_system
from repro.simmpi.machine import Machine

SOLVERS_DIR = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro" / "solvers"

P = 4
SOLVER_KWARGS = {
    "fmm": dict(order=3, depth=3, lattice_shells=1),
    "p2nfft": {},
    "ewald": {},
}
REDISTRIBUTING = sorted(SOLVER_KWARGS)


def _single_rank_set(system, capacities=None):
    """Every particle on rank 0 (the paper's ``single`` distribution)."""
    pos = [system.pos.copy()] + [np.zeros((0, 3))] * (P - 1)
    q = [system.q.copy()] + [np.zeros(0)] * (P - 1)
    return ParticleSet(pos, q, capacities=capacities)


def _tight_case(name):
    """(system, particle-set factory, load_balance) whose solver layout
    cannot fit capacities pinned to the initial counts.

    The grid solvers move particles off rank 0 of a ``single`` distribution.
    The FMM's partition sort *preserves* per-rank counts, so it alone can
    never overflow a capacity; a ``static`` weighted rebalance on a
    clustered system is what moves its counts.
    """
    if name == "fmm":
        system = clustered_system("two-cluster", 512, seed=3)
        rng = np.random.default_rng(0)
        owner = rng.integers(0, P, system.n)
        pos = [system.pos[owner == r] for r in range(P)]
        q = [system.q[owner == r] for r in range(P)]
        counts = [p.shape[0] for p in pos]

        def make(tight):
            return ParticleSet(
                [p.copy() for p in pos], [c.copy() for c in q],
                capacities=counts if tight else None,
            )

        return system, make, "static"
    system = silica_melt_system(400, seed=3)
    return (
        system,
        lambda tight: _single_rank_set(system, [system.n] + [0] * (P - 1) if tight else None),
        "off",
    )


def _session(name, system, pset, *, resort, load_balance="off", max_move=None):
    machine = Machine(P)
    fcs = fcs_init(name, machine, **SOLVER_KWARGS[name])
    fcs.set_common(box=system.box, periodic=True)
    fcs.set_resort(resort)
    fcs.solver.set_load_balance(load_balance)
    fcs.tune(pset)
    if max_move is not None:
        fcs.set_max_particle_move(max_move)
    return machine, fcs, fcs.run(pset)


def _trace_bits(machine):
    """The machine trace, floats as bit patterns."""
    state = machine.trace.state_dict()
    return (
        {
            label: (float(s.time).hex(), s.messages, s.bytes, s.calls)
            for label, s in machine.trace.items()
        },
        state["counters"],
        {label: work.tobytes() for label, work in state["rank_work"].items()},
    )


@pytest.mark.parametrize("name", REDISTRIBUTING)
class TestForcedFallback:
    def test_tight_capacities_fall_back_to_method_a(self, name):
        system, make, load_balance = _tight_case(name)
        pset = make(tight=True)
        before_pos = [p.copy() for p in pset.pos]
        before_q = [c.copy() for c in pset.q]
        machine, fcs, report = _session(
            name, system, pset, resort=True, load_balance=load_balance
        )
        # the precondition that makes this the fallback branch, not luck
        roomy = make(tight=False)
        _, _, fits = _session(name, system, roomy, resort=True, load_balance=load_balance)
        assert fits.changed and not pset.fits(fits.new_counts)

        assert report.changed is False
        assert report.resort_indices is None
        assert fcs.resort_availability() is False
        np.testing.assert_array_equal(report.new_counts, report.old_counts)
        for r in range(P):
            np.testing.assert_array_equal(pset.pos[r], before_pos[r])
            np.testing.assert_array_equal(pset.q[r], before_q[r])
        with pytest.raises(RuntimeError):
            fcs.resort([np.zeros((n, 3)) for n in report.old_counts])

        # ... and it *is* method A: same results, same charges, same clocks
        ref = make(tight=True)
        ref_machine, _, ref_report = _session(
            name, system, ref, resort=False, load_balance=load_balance
        )
        assert ref_report.changed is False
        for r in range(P):
            np.testing.assert_array_equal(pset.pot[r], ref.pot[r])
            np.testing.assert_array_equal(pset.field[r], ref.field[r])
        assert _trace_bits(machine) == _trace_bits(ref_machine)
        np.testing.assert_array_equal(machine.clocks, ref_machine.clocks)
        assert (report.comm, report.strategy) == (ref_report.comm, ref_report.strategy)

    @pytest.mark.parametrize("max_move", [None, 1e-3])
    def test_when_it_fits_indices_are_a_permutation_and_comm_is_what_ran(
        self, name, max_move, monkeypatch
    ):
        ran = []
        for kind, fn in (
            ("alltoall", fine_grained.alltoallv),
            ("neighborhood", fine_grained.neighborhood_alltoallv),
        ):
            def spy(machine, sends, phase=None, *args, _kind=kind, _fn=fn, **kwargs):
                ran.append((phase, _kind))
                return _fn(machine, sends, phase, *args, **kwargs)

            monkeypatch.setattr(fine_grained, fn.__name__, spy)

        system = silica_melt_system(400, seed=3)
        rng = np.random.default_rng(1)
        owner = rng.integers(0, P, system.n)
        pset = ParticleSet(
            [system.pos[owner == r].copy() for r in range(P)],
            [system.q[owner == r].copy() for r in range(P)],
            capacity_factor=4.0,
        )
        _, fcs, report = _session(name, system, pset, resort=True, max_move=max_move)

        assert report.changed and fcs.resort_availability()
        np.testing.assert_array_equal(report.new_counts, pset.counts())
        ranks, positions = unpack_resort_index(np.concatenate(report.resort_indices))
        assert [idx.shape[0] for idx in report.resort_indices] == list(report.old_counts)
        for r in range(P):
            np.testing.assert_array_equal(
                np.sort(positions[ranks == r]), np.arange(report.new_counts[r])
            )
        # the exchanges the skeleton and the grid decomposition ran are the
        # kind the report hands the resort engine (the FMM sorts with its own
        # collective, so only its resort-index exchange shows up here)
        kinds = {kind for phase, kind in ran if phase in ("sort", "resort_index")}
        assert kinds == {report.comm}
        assert ("resort_index", report.comm) in ran
        if name != "fmm" and max_move is not None:
            assert report.comm == "neighborhood"


@pytest.mark.parametrize("name", REDISTRIBUTING)
class TestOneTunedCheck:
    """``run`` after a setter that invalidates the tuning must raise for every
    solver; the FMM used to guard on ``self.tree is None`` and computed on
    the tree of the old box."""

    def _tuned(self, name):
        system = silica_melt_system(200, seed=5)
        rng = np.random.default_rng(2)
        owner = rng.integers(0, P, system.n)
        pset = ParticleSet(
            [system.pos[owner == r].copy() for r in range(P)],
            [system.q[owner == r].copy() for r in range(P)],
        )
        fcs = fcs_init(name, Machine(P), **SOLVER_KWARGS[name])
        fcs.set_common(box=system.box, periodic=True)
        fcs.tune(pset)
        return system, pset, fcs

    def test_run_after_set_common_without_retune_raises(self, name):
        system, pset, fcs = self._tuned(name)
        fcs.run(pset)
        fcs.set_common(box=2 * system.box, periodic=True)
        with pytest.raises(RuntimeError, match="fcs_tune must run before fcs_run"):
            fcs.run(pset)

    def test_retune_makes_run_succeed_again(self, name):
        system, pset, fcs = self._tuned(name)
        fcs.set_common(box=2 * system.box, periodic=True)
        fcs.tune(pset)
        assert fcs.run(pset).changed is False

    def test_solver_specific_setters_invalidate_too(self, name):
        _, pset, fcs = self._tuned(name)
        setters = {
            "fmm": [("set_order", 4), ("set_depth", 2)],
            "p2nfft": [("set_cutoff", 4.0), ("set_alpha", 0.7), ("set_mesh_size", 16)],
            "ewald": [],
        }[name]
        for setter, value in setters:
            fcs.tune(pset)
            getattr(fcs.solver, setter)(value)
            with pytest.raises(RuntimeError, match="fcs_tune must run before fcs_run"):
                fcs.run(pset)


@pytest.mark.parametrize("name", [*REDISTRIBUTING, "direct"])
@pytest.mark.parametrize("column, value", [
    ("pos", np.nan), ("pos", np.inf), ("q", np.nan), ("q", -np.inf),
])
class TestNonFiniteInput:
    """A NaN/inf position or charge is rejected with one ``ValueError`` naming
    the first offending rank before anything is charged (a NaN coordinate
    used to be wrapped to the lower face and the run completed silently)."""

    def test_run_rejects_before_any_charge(self, name, column, value):
        from repro.verify.audit import enable_auditing

        system = silica_melt_system(400, seed=3)
        rng = np.random.default_rng(0)
        owner = rng.integers(0, P, system.n)
        pset = ParticleSet(
            [system.pos[owner == r] for r in range(P)], [system.q[owner == r] for r in range(P)]
        )
        machine = Machine(P)
        fcs = fcs_init(name, machine, **SOLVER_KWARGS.get(name, {}))
        fcs.set_common(box=system.box, periodic=True)
        fcs.tune(pset)
        machine.clocks[:] = 0.0
        machine.trace.clear()
        auditor = enable_auditing(machine)
        for rank in (2, 1):
            getattr(pset, column)[rank][-1] = value
        with pytest.raises(ValueError, match="rank 1: non-finite particle position or charge"):
            fcs.run(pset)
        assert not machine.clocks.any()
        assert machine.trace.labels() == [] and machine.trace.state_dict()["counters"] == {}
        assert not auditor.ledger and auditor.n_alltoall_calls == auditor.n_p2p_calls == 0


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _callers(func_name):
    """``{file:function}`` of every call of ``func_name(`` under solvers/."""
    found = set()
    for path in sorted(SOLVERS_DIR.rglob("*.py")):
        for scope in ast.walk(_parse(path)):
            if not isinstance(scope, ast.FunctionDef):
                continue
            for node in ast.walk(scope):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == func_name
                ):
                    found.add(f"{path.relative_to(SOLVERS_DIR)}:{scope.name}")
    return found


class TestWrittenOnce:
    def test_the_hand_back_is_in_the_base_only(self):
        assert _callers("restore_results") == {"base.py:run"}
        assert _callers("invert_indices") == {"base.py:run"}

    def test_one_grid_decomposition(self):
        """One caller of the ghost rule, which is also the one decision who
        owns a particle (no solver asks the grid for the rank of a position
        again), and one ``sort`` exchange along the route made from it."""
        assert _callers("ghost_distribution") == {"p2nfft/solver.py:_place"}
        assert not any(
            isinstance(node, ast.Attribute) and node.attr == "rank_of_positions"
            for path in sorted(SOLVERS_DIR.rglob("*.py"))
            for node in ast.walk(_parse(path))
        )
        sort_exchanges = [
            node
            for path in sorted(SOLVERS_DIR.rglob("*.py"))
            for node in ast.walk(_parse(path))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("fine_grained_redistribute", "redistribute_flat")
            and any(
                kw.arg == "phase" and getattr(kw.value, "value", None) == "sort"
                for kw in node.keywords
            )
        ]
        assert len(sort_exchanges) == 1

    def test_one_linked_cell_near_field_loop(self):
        """``LinkedCellNearField.compute`` is reached from one place: the
        task the shared near-field loop runs inline or fans out."""
        callers = {
            f"{path.relative_to(SOLVERS_DIR)}:{scope.name}"
            for path in sorted(SOLVERS_DIR.rglob("*.py"))
            for scope in ast.walk(_parse(path))
            if isinstance(scope, ast.FunctionDef)
            for node in ast.walk(scope)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "compute"
            and ast.unparse(node.func.value).endswith("near")
        }
        assert callers == {"p2nfft/solver.py:_near_rank_task"}

    def test_only_the_base_and_the_direct_solver_define_run(self):
        definers = {
            cls.name
            for path in sorted(SOLVERS_DIR.rglob("*.py"))
            for cls in ast.walk(_parse(path))
            if isinstance(cls, ast.ClassDef)
            and any(isinstance(n, ast.FunctionDef) and n.name == "run" for n in cls.body)
        }
        assert definers == {"Solver", "DirectSolver"}

    def test_ewald_is_a_sibling_of_p2nfft_not_a_subclass(self):
        from repro.solvers.ewald_solver import EwaldSolver
        from repro.solvers.p2nfft.solver import GridSolver, P2NFFTSolver

        assert issubclass(EwaldSolver, GridSolver)
        assert not issubclass(EwaldSolver, P2NFFTSolver)
        assert not hasattr(EwaldSolver, "_real_space")
