#!/usr/bin/env python
"""Thermostatted MD with trajectory output: the general-purpose workflow.

Beyond the paper's benchmark loop, the library carries the pieces a
downstream MD user expects: Maxwell-Boltzmann velocity initialisation, a
Berendsen thermostat, XYZ trajectory output and restartable checkpoints —
all operating on the distributed per-rank data and priced by the machine
model like everything else.

Run:  python examples/thermostatted_md.py [steps]
"""

import sys
import tempfile

import numpy as np

from repro.ckpt import (
    load_checkpoint,
    resize_checkpoint,
    restore_simulation,
    save_checkpoint,
)
from repro.md.io import read_xyz, write_xyz
from repro.md.simulation import Simulation, SimulationConfig
from repro.md.systems import silica_melt_system
from repro.md.thermostat import BerendsenThermostat, maxwell_boltzmann, temperature
from repro.simmpi.machine import Machine


def main() -> None:
    steps = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    system = silica_melt_system(n=1500, seed=11)
    machine = Machine(8)
    cfg = SimulationConfig(
        solver="p2nfft",
        method="B",
        dt=0.02,
        distribution="grid",
        track_energy=True,
        seed=11,
    )
    sim = Simulation(machine, system, cfg)

    # start hot instead of the paper's v0 = 0
    sim.vel = maxwell_boltzmann(
        [p.shape[0] for p in sim.particles.pos], target_temperature=0.8, seed=11
    )
    thermo = BerendsenThermostat(target=0.8, tau=0.5, dt=cfg.dt)
    sim.initialize()

    with tempfile.TemporaryDirectory() as tmp:
        traj = f"{tmp}/trajectory.xyz"
        for i in range(steps):
            sim.step()
            sim.vel = thermo.apply(machine, sim.vel)
            t_now = temperature(machine, sim.vel)
            state = sim.gather_state()
            write_xyz(
                traj,
                state["pos"],
                state["q"],
                state["vel"],
                comment=f"step {i + 1} T={t_now:.3f}",
                append=i > 0,
            )
            print(
                f"step {i + 1}: T = {t_now:.3f}  E = {sim.records[-1].energy:10.3f}  "
                f"max move = {sim.records[-1].max_move:.4f}"
            )

        # checkpoint, then restart on a different process count: one fused
        # exchange moves every checkpointed column onto the 12-rank layout
        path = f"{tmp}/state.ckpt.ndjson"
        save_checkpoint(sim, path, thermostat=thermo)
        resized, _plan = resize_checkpoint(load_checkpoint(path), 12)
        resumed = restore_simulation(resized)
        resumed.run(1)
        print(
            f"\nresumed at P=12 from step {resumed.step_index - 1}; "
            f"energy {resumed.records[-1].energy:.3f}"
        )
        pos, q, vel, comment = read_xyz(traj, frame=steps - 1)
        print(f"trajectory last frame: {pos.shape[0]} ions, '{comment}'")


if __name__ == "__main__":
    main()
