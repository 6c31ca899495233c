"""Golden restart-equivalence suite: all four solvers × A/B/B+move.

Every cell is the DST cell at chaos seed 0 killed halfway: the reference
runs 2N steps, and the same run killed after step N and resumed from its
checkpoint is held by :func:`repro.verify.trajectory.play` to the
reference's component state fingerprints, auditor ledger fingerprint and
(on the null-perturbed machine) per-step ``float.hex`` phase-time
breakdown, at 2 ranks.  The triple is pinned as one sha256 **golden digest
per cell**: a change to any solver's cost model, the redistribution
machinery, or the checkpoint/restore path that moves a single bit anywhere
in a trajectory shows up as a digest mismatch naming the cell.

The same goldens are asserted with the scalar oracles of
``tests/kernel_oracles.py`` standing in for the vectorized kernels and those
of ``tests/row_oracles.py`` for the row passes (the ``oracle_kernels``
fixture) — they must reproduce the vectorized
trajectories bitwise (the PR-4 property), and checkpointing must preserve
that.
"""

import hashlib

import pytest

from kernel_oracles import USED_BY
from row_oracles import used_by
from repro.ckpt.format import dumps
from repro.verify.dst import DEFAULT_METHODS, DEFAULT_SOLVERS
from repro.verify.trajectory import CellSpec, build_run, play

CELLS = [(solver, method) for solver in DEFAULT_SOLVERS for method in DEFAULT_METHODS]

#: sha256 over the canonical JSON of {state fingerprints, ledger
#: fingerprint, per-step float-hex breakdown} of each cell's uninterrupted
#: run (4 steps, nprocs=2, n_particles=16, system_seed=0).  Regenerate via
#: the loop in this file's docstring history only when a deliberate
#: physics/cost-model change is being made.
GOLDEN = {
    ("direct", "A"): "af78eb488fafb8664de204b5d93ae60020471da11dd7642020b720646b7326f8",
    ("direct", "B"): "533faec1682125d6b4df52b5ec62fcdda14f8d8ca2005a4ee163519b825f0fe4",
    ("direct", "B+move"): "39a85a90183973be0f9b1c2055d78a65dccb1d6890f40715dbf2323e73c9c370",
    ("ewald", "A"): "0be6c66269e28e9ca663bc62d94131b5eb662c5b83703bd0d54e857ca8375ae8",
    ("ewald", "B"): "3bc711ac948f87e13ecc343296a748b5dd92becf6a7ee4a5865c66c592ff92fd",
    ("ewald", "B+move"): "52d6f95dcbc3fe2f56cbfb9813212a9d441c406b662853cbe3763c6614eff892",
    ("fmm", "A"): "cd3c507135075475478f6d96d2ecdb49bdfd04dc872b20238c1319f43115c482",
    ("fmm", "B"): "cf7a443067ef6d173cca4b8867f450eaaab1daae87ec0a9a6783d21239663d4f",
    ("fmm", "B+move"): "6e8fa9a29eb000914555c203f5e93c9bb5eb68b44da101ee1fedb7d727fe8343",
    ("p2nfft", "A"): "504ada0fc1ee3f79a06e52fb5972d80b0a2baad0d9d2b8d777d6b9c46568ca00",
    ("p2nfft", "B"): "88fd6903c360506b48b54874781cec458535cda13fb110859dc95ab31a129b89",
    ("p2nfft", "B+move"): "729de40ad67bd153a76e8e7cae8a7062e5d3437f5b78d27a3992871c85ff017e",
}


def restart_digest(solver, method, ckpt_dir=None) -> str:
    """Play the reference and the run killed after step 2 (one run each);
    the digest is the reference's, which the killed run was held to."""
    spec = CellSpec(solver, method, 2, 16)
    reference = play(build_run(spec), 4)
    killed = build_run(spec, chaos_seed=0)
    play(killed, 4, reference=reference, kill_at=2, ckpt_dir=ckpt_dir)
    return hashlib.sha256(
        dumps(
            {
                "state": reference.steps[-1],
                "ledger": reference.ledger,
                "breakdown": reference.breakdown,
            }
        ).encode()
    ).hexdigest()


@pytest.mark.parametrize("solver,method", CELLS, ids=lambda v: str(v))
class TestGoldenRestart:
    def test_vectorized(self, solver, method):
        assert restart_digest(solver, method) == GOLDEN[(solver, method)]

    def test_oracle_kernels_same_golden(self, solver, method, oracle_kernels):
        assert restart_digest(solver, method) == GOLDEN[(solver, method)]
        assert oracle_kernels == USED_BY[solver] | used_by(solver)

    def test_per_rank_store_same_golden(self, solver, method, oracle_store):
        """The rank-by-rank bodies the flat particle store replaced
        (``tests/store_oracles.py``) restart into the same golden."""
        assert restart_digest(solver, method) == GOLDEN[(solver, method)]
        assert "position_update_ranks" in oracle_store
        assert ("solver_run_ranks" in oracle_store) == (solver != "direct")


def test_via_file_round_trip_same_golden(tmp_path):
    assert restart_digest("fmm", "B+move", str(tmp_path)) == GOLDEN[("fmm", "B+move")]
    assert [p.name for p in tmp_path.iterdir()] == ["fmm-B_move-kill2.ckpt.ndjson"]
