"""perfbench — the repo's layered host-and-modeled benchmark.

Four workloads (payload-bound, rank-count-bound, kernel-bound, hook-bound)
drive :class:`repro.md.simulation.Simulation` from outside through its
public API, time every ``initialize()``/``step()`` call on the host clock,
read the modeled clock from the step records, check the outputs, and — in a
separate traced run — attribute host time to the repo's layers by wrapping
their public callables from this side.  See ``perfbench/README.md``.
"""
