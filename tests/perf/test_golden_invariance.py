"""Golden regression pin of the Fig. 7 configuration at reduced scale.

The vectorized hot paths must leave the *simulated* experiment untouched:
state fingerprints, communication ledgers and the modeled per-step phase
breakdown of a Fig.-7-shaped run (JUROPA profile, random initial
distribution, brownian dynamics, solver compute skipped) are pinned here
bitwise — breakdown times as exact ``float.hex()`` strings, state as sha256
digests.  The same run is also executed with the scalar oracles of
``tests/kernel_oracles.py`` standing in for the vectorized kernels and the
full-length bodies of ``tests/row_oracles.py`` for the row passes (the
``oracle_kernels`` fixture) and must match the goldens identically:
vectorization may change host speed only.

If these goldens ever need updating, something changed modeled behavior —
that is a semantics change and must be justified on its own terms, never as
a performance side effect (see ``docs/performance.md``).

Regenerate after an *intentional* semantics change with::

    PYTHONPATH=src python tests/perf/test_golden_invariance.py
"""

import numpy as np
import pytest

from row_oracles import used_by
from repro.bench.harness import step_breakdown
from repro.simmpi.costmodel import JUROPA
from repro.md.simulation import Simulation, SimulationConfig
from repro.md.systems import silica_melt_system
from repro.simmpi.machine import Machine
from repro.verify.audit import enable_auditing
from repro.verify.dst import ledger_fingerprint
from repro.verify.invariants import state_fingerprint

#: reduced fig7 scale: same config knobs as bench.figures.fig7, fewer
#: particles/ranks/steps
N, NPROCS, STEPS, SEED = 256, 8, 2, 42


def run_fig7_small(solver, method):
    machine = Machine(NPROCS, profile=JUROPA)
    auditor = enable_auditing(machine)
    system = silica_melt_system(N, seed=SEED)
    subdomain = float(system.box.min()) / round(NPROCS ** (1.0 / 3.0))
    cfg = SimulationConfig(
        solver=solver,
        method=method,
        distribution="random",
        seed=SEED,
        dynamics="brownian",
        brownian_step=0.005 * subdomain,
        solver_kwargs={"compute": "skip"},
    )
    sim = Simulation(machine, system, cfg)
    sim.run(STEPS)
    return sim, auditor


def observables(solver, method):
    sim, auditor = run_fig7_small(solver, method)
    breakdown = []
    for rec in sim.records:
        b = step_breakdown(rec)
        breakdown.append({k: float(b[k]).hex() for k in sorted(b)})
    return {
        "state": state_fingerprint(sim),
        "ledger": ledger_fingerprint(auditor),
        "breakdown": breakdown,
    }


CASES = [("fmm", "B"), ("p2nfft", "B"), ("p2nfft", "A")]

# --- committed goldens (sha256 digests / float.hex breakdown times) ------
GOLDEN = {
 "fmm/B": {
  "breakdown": [
   {
    "redist": "0x1.d346dc5e4c260p-13",
    "resort": "0x1.5cc2604332800p-14",
    "restore": "0x0.0p+0",
    "sort": "0x1.864e43454b4c0p-14",
    "total": "0x1.34ad2108e4646p-3"
   },
   {
    "redist": "0x1.b46ba46aa4800p-14",
    "resort": "0x1.b38ba9e6dc000p-16",
    "restore": "0x0.0p+0",
    "sort": "0x1.f1460bdb2f000p-15",
    "total": "0x1.346eef26fe44fp-3"
   },
   {
    "redist": "0x1.b01c99d787000p-14",
    "resort": "0x1.a97aaeecd0000p-16",
    "restore": "0x0.0p+0",
    "sort": "0x1.ee065a6d84000p-15",
    "total": "0x1.346e5bc60f24ep-3"
   }
  ],
  "ledger": "066434d85f81b204cca10e6bd8a0fbbb1e94d8ef05f7e5cbd045f15597b0878c",
  "state": {
   "accelerations": "fd9243e1ba57263ed469c3bdbd7ade6ec5254e7ed924a9f5737fa44749933cc0",
   "charges": "6dbe4f4bb60cca9f8da1eebe3d944539f01d7855d01d77a0b1e682ae752303ca",
   "dynamics": "6eac46a9d3f7cfde3ba23faf8486c497295b2caaf815168c7c43b21440d02125",
   "fields": "fd9243e1ba57263ed469c3bdbd7ade6ec5254e7ed924a9f5737fa44749933cc0",
   "ids": "0da285ee2d8cfa35361e11f11661c68e2da1645348ac531fbe4108622567a4e3",
   "layout": "7bb27b2f7a968b08c510cda12a81fa2d156611b85890abe725a7572fd409e6d5",
   "positions": "7cc37b858fb6874d6eb7ac084d1838564b3e17ec8d58febfd05c14782a6d36d5",
   "potentials": "e5a00aa9991ac8a5ee3109844d84a55583bd20572ad3ffcd42792f3c36b183ad",
   "velocities": "25613b4eeb66979bb1e82082e4b474341a2b3f52c8e3c851a1874227ba18d28e"
  }
 },
 "p2nfft/A": {
  "breakdown": [
   {
    "redist": "0x1.c71e7c840374ep-14",
    "resort": "0x0.0p+0",
    "restore": "0x1.964091748a5e8p-15",
    "sort": "0x1.f7fc67937c8b4p-15",
    "total": "0x1.8aab97c08ae69p-12"
   },
   {
    "redist": "0x1.c71e7c840374cp-14",
    "resort": "0x0.0p+0",
    "restore": "0x1.964091748a5e0p-15",
    "sort": "0x1.f7fc67937c8b8p-15",
    "total": "0x1.8aab97c08ae6bp-12"
   },
   {
    "redist": "0x1.c71e7c8403748p-14",
    "resort": "0x0.0p+0",
    "restore": "0x1.964091748a5e0p-15",
    "sort": "0x1.f7fc67937c8b0p-15",
    "total": "0x1.8aab97c08ae69p-12"
   }
  ],
  "ledger": "9190a43d96d5d96df85c73fe5130ff4135459cbe80e12e4603fbf939705d1b78",
  "state": {
   "accelerations": "fd9243e1ba57263ed469c3bdbd7ade6ec5254e7ed924a9f5737fa44749933cc0",
   "charges": "bb218c1d4b008e1c4419671f55ce812b138038a2c469f716958961363aed0dd0",
   "dynamics": "3d4357cddbfaec709c18e52d543a3ee7a8017ddb12668fb3240ee36487ba4c2e",
   "fields": "fd9243e1ba57263ed469c3bdbd7ade6ec5254e7ed924a9f5737fa44749933cc0",
   "ids": "85778f60d010f5bf1ae2265b09775131285ec96f581818a301aeac2459161b08",
   "layout": "7bb27b2f7a968b08c510cda12a81fa2d156611b85890abe725a7572fd409e6d5",
   "positions": "59661e2b0152d466929aa7e72c4092e2c563638995b9d0d97662389ee5cba5bf",
   "potentials": "e5a00aa9991ac8a5ee3109844d84a55583bd20572ad3ffcd42792f3c36b183ad",
   "velocities": "dbb28f72a66fc8964006418b3605143ae0d0c1735eeaa1c5723d76caf15eb62e"
  }
 },
 "p2nfft/B": {
  "breakdown": [
   {
    "redist": "0x1.8d725f019c277p-13",
    "resort": "0x1.5b85358ec2fa8p-14",
    "restore": "0x0.0p+0",
    "sort": "0x1.f7fc67937c8b4p-15",
    "total": "0x1.df9d2820581d1p-12"
   },
   {
    "redist": "0x1.b063b6d95aa68p-14",
    "resort": "0x1.ab6ce64621340p-16",
    "restore": "0x0.0p+0",
    "sort": "0x1.edd799ee2ed80p-15",
    "total": "0x1.8648f27f46a96p-12"
   },
   {
    "redist": "0x1.af3b5c8bf6080p-14",
    "resort": "0x1.a66468c91dd00p-16",
    "restore": "0x0.0p+0",
    "sort": "0x1.edd799ee2ed80p-15",
    "total": "0x1.85fedbebed817p-12"
   }
  ],
  "ledger": "59812db57f231ac408512d2a09c81e085c1cb3a4035b67487a20de6adbe39d26",
  "state": {
   "accelerations": "fd9243e1ba57263ed469c3bdbd7ade6ec5254e7ed924a9f5737fa44749933cc0",
   "charges": "d008c7ecd07d00a0a2ae48d1c209b09b76e288d2521ca53a1597b007553f2bf6",
   "dynamics": "b6dd37db7b95fe33a897ff9b21961a0adc59c72079d59efe2110bf4abf342511",
   "fields": "fd9243e1ba57263ed469c3bdbd7ade6ec5254e7ed924a9f5737fa44749933cc0",
   "ids": "05e790022b25e8d451cacffa149be800169dad238533e6895e9bc33d43abf1f8",
   "layout": "ecfb38976b3d5f20ce18bfc63a08f40672cae407de9d8d1bc8cbdfab631d2ccb",
   "positions": "bfed89aa0dbb00fa4f872a9450cbcec7d83785d56a8f45c8321d54e0a09e0b25",
   "potentials": "e5a00aa9991ac8a5ee3109844d84a55583bd20572ad3ffcd42792f3c36b183ad",
   "velocities": "fd9c7833919f5f170199b790b96b486bd41d095c51b2ad038c8135aecc8ccf0a"
  }
 }
}


@pytest.mark.parametrize("solver,method", CASES)
class TestFig7Golden:
    def test_vectorized_matches_golden(self, solver, method):
        got = observables(solver, method)
        want = GOLDEN[f"{solver}/{method}"]
        assert got["state"] == want["state"]
        assert got["ledger"] == want["ledger"]
        assert got["breakdown"] == want["breakdown"]

    def test_oracle_kernels_matches_golden(self, solver, method, oracle_kernels):
        """The scalar oracles reproduce the goldens bit for bit too."""
        got = observables(solver, method)
        want = GOLDEN[f"{solver}/{method}"]
        assert got["state"] == want["state"]
        assert got["ledger"] == want["ledger"]
        assert got["breakdown"] == want["breakdown"]
        # with the solver compute skipped only the FMM's sort reaches a kernel
        assert oracle_kernels == (
            {"partition_destinations"} if solver == "fmm" else set()
        ) | used_by(solver, dynamics="brownian", compute="skip")

    def test_per_rank_store_matches_golden(self, solver, method, oracle_store):
        """... and so do the rank-by-rank bodies the flat particle store
        replaced (``tests/store_oracles.py``), rebound into the step path."""
        got = observables(solver, method)
        want = GOLDEN[f"{solver}/{method}"]
        assert got["state"] == want["state"]
        assert got["ledger"] == want["ledger"]
        assert got["breakdown"] == want["breakdown"]
        assert {"position_update_ranks", "rotate_directions_ranks", "solver_run_ranks"} <= oracle_store


def _regenerate():
    import json

    out = {f"{s}/{m}": observables(s, m) for s, m in CASES}
    print("GOLDEN = " + json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    _regenerate()
