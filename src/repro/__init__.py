"""repro — reproduction of Hofmann & Rünger, *Efficient Data Redistribution
Methods for Coupled Parallel Particle Codes* (ICPP 2013).

The package couples a particle dynamics simulation to two long-range
interaction solvers (a tree-based FMM with Z-order-curve domain
decomposition and a grid-based P2NFFT-style Ewald mesh solver with
Cartesian process-grid decomposition) through a ScaFaCoS-like library
interface, and implements the paper's two particle data redistribution
methods:

* **Method A** — restore the application's original particle order and
  distribution after every solver execution;
* **Method B** — keep the solver-specific order and distribution and resort
  the application's additional particle data via *resort indices*, with
  optional exploitation of the limited per-step particle movement
  (merge-based parallel sorting / neighborhood communication).

Start with :func:`repro.core.fcs_init` (the library interface) or
:class:`repro.md.Simulation` (the coupled application).  See README.md for
a quickstart and DESIGN.md for the full system inventory.
"""

__version__ = "1.0.0"

__all__ = ["FCS", "fcs_init", "__version__"]


def __getattr__(name: str):
    # resolved on first use, not at package import: a process-backend worker
    # imports ``repro.backend`` alone and never loads the handle's layers
    if name in ("FCS", "fcs_init"):
        from repro.core import handle

        return getattr(handle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
