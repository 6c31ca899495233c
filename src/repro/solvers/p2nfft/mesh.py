"""Fourier-space part: CIC charge assignment, FFT solve, interpolation.

Implements the particle-mesh pipeline for the Ewald reciprocal sum on an
``(M, M, M)`` mesh over the periodic box:

1. cloud-in-cell (CIC, order-2) assignment of charges to the mesh,
2. forward FFT, multiplication with the Ewald influence function
   ``G(k) = 4 pi exp(-k^2 / 4 alpha^2) / (V k^2)`` deconvolved by the
   squared CIC window (once for assignment, once for interpolation),
3. ``ik``-differentiation and four inverse FFTs (potential + 3 field
   components),
4. CIC interpolation back to the particle positions,
5. self-energy and (for non-neutral systems) neutralizing-background
   corrections applied by the caller.

The data plane runs the global FFT once; the distributed-memory cost
(slab/pencil transposes) is charged separately by the solver
(:func:`repro.solvers.p2nfft.solver.charge_parallel_fft`).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.solvers.common.tables import freeze_arrays, shared_tables, vector_key

__all__ = ["MeshSolver", "cic_fractions", "mesh_solver"]


def cic_fractions(pos: np.ndarray, offset: np.ndarray, h: np.ndarray, M: int):
    """CIC base cell indices and weights for each particle.

    Returns ``(base, frac)`` with ``base`` the lower mesh cell per particle
    (``(n, 3)`` ints, wrapped into ``[0, M)``) and ``frac`` the fractional
    offsets in ``[0, 1)``.
    """
    rel = (pos - offset) / h
    base = np.floor(rel).astype(np.int64)
    frac = rel - base
    base %= M
    return base, frac


class MeshSolver:
    """Reusable FFT mesh for a fixed box / mesh size / splitting parameter.

    A pure function of its constructor arguments and immutable once built
    (it copies ``box`` / ``offset`` and freezes every array it owns), so
    solvers tuned to the same parameters share one: :func:`mesh_solver`."""

    def __init__(
        self,
        M: int,
        box: np.ndarray,
        offset: np.ndarray,
        alpha: float,
    ) -> None:
        if M < 4:
            raise ValueError(f"mesh size must be >= 4, got {M}")
        self.M = int(M)
        # copies: a later in-place change of the caller's box must not
        # rescale ``h`` under an influence function built for this one
        self.box = np.array(box, dtype=np.float64)
        self.offset = np.array(offset, dtype=np.float64)
        self.alpha = float(alpha)
        self.h = self.box / self.M
        self.volume = float(np.prod(self.box))
        self._build_influence()
        freeze_arrays(self)

    #: alias terms per dimension in the optimal influence function
    _ALIAS = 2

    def _build_influence(self) -> None:
        """Hockney-Eastwood optimal influence function for ``ik``
        differentiation with the CIC window.

        ``G_opt(k) = [sum_m (k . k_m) U^2(k_m) G(k_m)]
                     / [|k|^2 (sum_m U^2(k_m))^2]``

        with the alias wave vectors ``k_m = k + 2 pi m M / L`` (``m`` in
        ``[-ALIAS, ALIAS]^3``), ``U`` the CIC charge-assignment window
        (per-dim ``sinc^2``) and ``G`` the true Ewald Green function.  This
        minimizes the rms force error of the mesh calculation over all
        influence functions [Hockney & Eastwood 1988]; the bare
        ``G / U^2`` deconvolution is an order of magnitude less accurate at
        the same mesh size.
        """
        M = self.M
        n1 = np.fft.fftfreq(M, d=1.0 / M)  # integer mesh wavenumbers
        kx = (2.0 * math.pi * n1 / self.box[0])[:, None, None]
        ky = (2.0 * math.pi * n1 / self.box[1])[None, :, None]
        kz = (2.0 * math.pi * n1 / self.box[2])[None, None, :]
        k2 = kx * kx + ky * ky + kz * kz

        def sinc(x: np.ndarray) -> np.ndarray:
            out = np.ones_like(x)
            nz = x != 0.0
            out[nz] = np.sin(x[nz]) / x[nz]
            return out

        num = np.zeros((M, M, M))
        den_u2 = np.zeros((M, M, M))
        A = self._ALIAS
        for mx in range(-A, A + 1):
            nx_al = n1 + mx * M
            kx_al = (2.0 * math.pi * nx_al / self.box[0])[:, None, None]
            ux = sinc(math.pi * nx_al / M) ** 2
            ux = (ux * ux)[:, None, None]  # U^2 per dim
            for my in range(-A, A + 1):
                ny_al = n1 + my * M
                ky_al = (2.0 * math.pi * ny_al / self.box[1])[None, :, None]
                uy = sinc(math.pi * ny_al / M) ** 2
                uy = (uy * uy)[None, :, None]
                for mz in range(-A, A + 1):
                    nz_al = n1 + mz * M
                    kz_al = (2.0 * math.pi * nz_al / self.box[2])[None, None, :]
                    uz = sinc(math.pi * nz_al / M) ** 2
                    uz = (uz * uz)[None, None, :]
                    u2 = ux * uy * uz
                    k2_al = kx_al ** 2 + ky_al ** 2 + kz_al ** 2
                    with np.errstate(divide="ignore", invalid="ignore"):
                        g_al = (
                            4.0
                            * math.pi
                            * np.exp(-k2_al / (4.0 * self.alpha ** 2))
                            / (k2_al * self.volume)
                        )
                    if mx == 0 and my == 0 and mz == 0:
                        g_al[0, 0, 0] = 0.0
                    kdot = kx * kx_al + ky * ky_al + kz * kz_al
                    num += kdot * u2 * g_al
                    den_u2 += u2
        with np.errstate(divide="ignore", invalid="ignore"):
            influence = num / (k2 * den_u2 * den_u2)
        influence[0, 0, 0] = 0.0  # tinfoil boundary: no k=0 contribution
        self.influence = influence
        self.kx, self.ky, self.kz = kx, ky, kz
        self._build_self_kernels()

    def _build_self_kernels(self) -> None:
        """Real-space influence kernel at the 27 CIC node displacements.

        A particle's own CIC charge cloud contributes to the potential and
        field interpolated back at its position; this *mesh self
        interaction* depends on where the particle sits within its cell and
        is the dominant mesh error if corrected only by the analytic
        ``-2 alpha / sqrt(pi)`` term.  We instead subtract it exactly:
        ``self_pot_i = q_i * sum_d K(d) S_i(d)`` where ``K(d)`` is the
        real-space influence kernel at node displacement ``d`` and ``S_i``
        the per-particle weight autocorrelation (separable over dims).
        """
        M = self.M
        npts = float(M) ** 3
        kernel = np.fft.ifftn(self.influence).real * npts
        e_kernel = np.empty((3, M, M, M))
        for d, k in enumerate((self.kx, self.ky, self.kz)):
            e_kernel[d] = np.fft.ifftn(-1j * k * self.influence).real * npts
        idx = np.array([-1, 0, 1]) % M
        self._self_pot_kernel = kernel[np.ix_(idx, idx, idx)]
        self._self_field_kernel = e_kernel[np.ix_(np.arange(3), idx, idx, idx)]
        # exact smeared self potential psi0 = sum_{k != 0} G(k): the value
        # the periodic k-space kernel takes at zero displacement (includes
        # the physical interaction of a particle with its own images)
        k1 = 2.0 * math.pi * np.fft.fftfreq(M, d=1.0 / M)
        kmax_needed = 8.0 * self.alpha  # Gaussian negligible beyond this
        mmax = int(np.ceil(kmax_needed * float(self.box.max()) / (2.0 * math.pi))) + 1
        ms = np.arange(-mmax, mmax + 1)
        gx, gy, gz = np.meshgrid(
            (2.0 * math.pi * ms / self.box[0]) ** 2,
            (2.0 * math.pi * ms / self.box[1]) ** 2,
            (2.0 * math.pi * ms / self.box[2]) ** 2,
            indexing="ij",
        )
        k2_all = gx + gy + gz
        with np.errstate(divide="ignore", invalid="ignore"):
            g_all = 4.0 * math.pi * np.exp(-k2_all / (4.0 * self.alpha ** 2)) / (
                k2_all * self.volume
            )
        g_all[mmax, mmax, mmax] = 0.0
        self.psi0 = float(g_all.sum())

    def _self_weights(self, frac: np.ndarray) -> np.ndarray:
        """Per-particle weight autocorrelation ``S_i(d)``, shape (n, 3, 3).

        Per dimension: ``s(-1) = s(+1) = w0 w1``, ``s(0) = w0^2 + w1^2``
        with ``w0 = 1 - frac``, ``w1 = frac``; the 3-D factor is the outer
        product over dimensions (returned per-dim, combined by the caller).
        """
        w0 = 1.0 - frac
        w1 = frac
        s = np.empty(frac.shape[:1] + (3, 3))  # (n, dim, displacement {-1,0,1})
        s[:, :, 0] = w0 * w1
        s[:, :, 1] = w0 * w0 + w1 * w1
        s[:, :, 2] = w0 * w1
        return s

    def mesh_self_interaction(self, pos: np.ndarray, q: np.ndarray):
        """Exact per-particle mesh self potential and field contributions."""
        n = pos.shape[0]
        if n == 0:
            return np.zeros(0), np.zeros((0, 3))
        _, frac = cic_fractions(pos, self.offset, self.h, self.M)
        s = self._self_weights(frac)
        # S(d) = s_x(dx) s_y(dy) s_z(dz); contract with the 3^3 kernels
        sx = s[:, 0, :]  # (n, 3)
        sy = s[:, 1, :]
        sz = s[:, 2, :]
        Kp = self._self_pot_kernel  # (3, 3, 3)
        pot = np.einsum("ni,nj,nk,ijk->n", sx, sy, sz, Kp) * q
        Kf = self._self_field_kernel  # (3 dims, 3, 3, 3)
        field = np.einsum("ni,nj,nk,dijk->nd", sx, sy, sz, Kf) * q[:, None]
        return pot, field

    # -- charge assignment ---------------------------------------------------------

    def assign(self, pos: np.ndarray, q: np.ndarray) -> np.ndarray:
        """CIC-assign charges onto a fresh mesh (density includes 1/h^3)."""
        M = self.M
        mesh = np.zeros((M, M, M), dtype=np.float64)
        if pos.shape[0] == 0:
            return mesh
        base, frac = cic_fractions(pos, self.offset, self.h, M)
        for dx in (0, 1):
            wxs = (1.0 - frac[:, 0]) if dx == 0 else frac[:, 0]
            ix = (base[:, 0] + dx) % M
            for dy in (0, 1):
                wys = (1.0 - frac[:, 1]) if dy == 0 else frac[:, 1]
                iy = (base[:, 1] + dy) % M
                for dz in (0, 1):
                    wzs = (1.0 - frac[:, 2]) if dz == 0 else frac[:, 2]
                    iz = (base[:, 2] + dz) % M
                    np.add.at(mesh, (ix, iy, iz), q * wxs * wys * wzs)
        return mesh

    def interpolate(self, mesh: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """CIC-interpolate a mesh field at particle positions."""
        M = self.M
        if pos.shape[0] == 0:
            return np.zeros(0)
        base, frac = cic_fractions(pos, self.offset, self.h, M)
        out = np.zeros(pos.shape[0], dtype=np.float64)
        for dx in (0, 1):
            wxs = (1.0 - frac[:, 0]) if dx == 0 else frac[:, 0]
            ix = (base[:, 0] + dx) % M
            for dy in (0, 1):
                wys = (1.0 - frac[:, 1]) if dy == 0 else frac[:, 1]
                iy = (base[:, 1] + dy) % M
                for dz in (0, 1):
                    wzs = (1.0 - frac[:, 2]) if dz == 0 else frac[:, 2]
                    iz = (base[:, 2] + dz) % M
                    out += mesh[ix, iy, iz] * wxs * wys * wzs
        return out

    # -- solve -----------------------------------------------------------------------

    def solve(self, rho: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Potential and field meshes from a charge mesh.

        Returns ``(phi_mesh, e_mesh)`` with ``e_mesh`` of shape
        ``(3, M, M, M)`` (``E = -grad phi`` via ``ik`` differentiation).
        """
        npts = float(rho.size)
        rho_k = np.fft.fftn(rho)
        phi_k = rho_k * self.influence
        # Fourier-series synthesis: sum over k without ifftn's 1/M^3 factor
        phi = np.fft.ifftn(phi_k).real * npts
        e = np.empty((3,) + rho.shape, dtype=np.float64)
        for d, k in enumerate((self.kx, self.ky, self.kz)):
            e[d] = np.fft.ifftn(-1j * k * phi_k).real * npts
        return phi, e

    def kspace(
        self,
        pos: np.ndarray,
        q: np.ndarray,
        eval_pos: np.ndarray,
        correct_self: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Full k-space pipeline: assign ``(pos, q)``, solve, interpolate at
        ``eval_pos``.

        With ``correct_self`` (the default, requires ``eval_pos is pos``
        semantically — evaluation at the source particles), the mesh
        self-interaction of each particle's own charge cloud is subtracted
        *exactly* and replaced by the exact smeared self potential
        ``psi0 - 2 alpha/sqrt(pi)`` (own periodic images minus the
        unphysical point self term), which removes the dominant
        position-dependent mesh artifact.
        """
        rho = self.assign(pos, q)
        phi_mesh, e_mesh = self.solve(rho)
        pot = self.interpolate(phi_mesh, eval_pos)
        field = np.stack(
            [self.interpolate(e_mesh[d], eval_pos) for d in range(3)], axis=1
        )
        if correct_self:
            self_pot, self_field = self.mesh_self_interaction(eval_pos, q)
            pot = pot - self_pot + (self.psi0 - 2.0 * self.alpha / math.sqrt(math.pi)) * q
            field = field - self_field
        return pot, field

    def background(self, total_charge: float) -> float:
        """Uniform neutralizing-background potential for non-neutral systems."""
        return -math.pi / (self.alpha ** 2 * self.volume) * total_charge


#: one mesh: every caller that tunes more than once in a process
#: (``repro.verify``, ``repro.verify dst``, ``repro.ckpt verify``) re-tunes
#: one parameter set (docs/performance.md, PR 24)
@shared_tables(
    maxsize=1,
    key=lambda M, box, offset, alpha: (
        int(M), vector_key(box), vector_key(offset), float(alpha), MeshSolver._ALIAS
    ),
)
def mesh_solver(M: int, box: np.ndarray, offset: np.ndarray, alpha: float) -> MeshSolver:
    """The shared, immutable :class:`MeshSolver` of these tune parameters
    (:mod:`repro.solvers.common.tables`); a miss is the cold build."""
    return MeshSolver(M, box, offset, alpha)
