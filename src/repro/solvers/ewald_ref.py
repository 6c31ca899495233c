"""Classical Ewald summation — the exact periodic reference.

Splits the conditionally convergent periodic Coulomb sum into a real-space
part (complementary error function, summed over nearby images), a Fourier
(k-space) part over reciprocal lattice vectors, and the self-interaction
correction:

``phi_i = sum_{j, images} q_j erfc(alpha r)/r
        + (4 pi / V) sum_{k != 0} exp(-k^2/4 alpha^2)/k^2 Re[exp(i k x_i) S(-k)]
        - 2 alpha/sqrt(pi) q_i``

with structure factor ``S(k) = sum_j q_j exp(-i k x_j)``.  For a
charge-neutral system the result is independent of ``alpha`` once both sums
are converged — which is exactly what the unit tests assert — and serves as
the accuracy oracle for the P2NFFT mesh solver and the periodic FMM.

Intended for reference-scale systems (n up to a few thousand).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

__all__ = ["ewald_sum", "suggest_alpha"]


def suggest_alpha(box: np.ndarray, n: int, accuracy: float = 1e-8) -> float:
    """A reasonable splitting parameter for a cubic-ish box.

    Balances real and reciprocal workload for a real-space cutoff of half
    the minimum box edge: ``erfc(alpha * rc) ~ accuracy``.
    """
    box = np.asarray(box, dtype=np.float64)
    rc = 0.5 * float(box.min())
    # erfc(x) ~ exp(-x^2)/(x sqrt(pi)); solve exp(-(alpha rc)^2) = accuracy
    return math.sqrt(max(-math.log(accuracy), 1.0)) / rc


def ewald_sum(
    pos: np.ndarray,
    q: np.ndarray,
    box: np.ndarray,
    alpha: Optional[float] = None,
    rcut: Optional[float] = None,
    kmax: Optional[int] = None,
    accuracy: float = 1e-8,
) -> Tuple[np.ndarray, np.ndarray]:
    """Potentials and fields of the fully periodic system.

    Parameters
    ----------
    pos, q:
        positions ``(n, 3)`` and charges ``(n,)``; the system should be
        charge neutral (a uniform neutralising background term is added
        otherwise).
    box:
        periodic box edge lengths ``(3,)`` (orthorhombic).
    alpha, rcut, kmax:
        splitting parameter, real-space cutoff and reciprocal cutoff
        (in integer k-units per dimension); derived from ``accuracy`` when
        omitted.

    Returns ``(pot, field)``.
    """
    pos = np.asarray(pos, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    box = np.asarray(box, dtype=np.float64)
    n = pos.shape[0]
    if pos.shape != (n, 3) or q.shape != (n,) or box.shape != (3,):
        raise ValueError("bad shapes")
    volume = float(np.prod(box))
    if alpha is None:
        alpha = suggest_alpha(box, n, accuracy)
    if rcut is None:
        rcut = 0.5 * float(box.min())
    if kmax is None:
        # exp(-k^2 / 4 alpha^2) / k^2 <= accuracy with k = 2 pi m / L
        m = alpha * float(box.max()) / math.pi * math.sqrt(max(-math.log(accuracy), 1.0))
        kmax = max(2, int(math.ceil(m)))

    pot = np.zeros(n, dtype=np.float64)
    field = np.zeros((n, 3), dtype=np.float64)

    # --- real space: loop over the image shells needed to cover rcut -------
    # scipy is bound here, not at import: only a run that sums pairs loads it
    from scipy.special import erfc

    # raw pair displacements lie in (-L, L) per dimension, so images within
    # rcut need shifts in [-(floor(rcut/L) + 1), floor(rcut/L) + 1]
    shells = (np.floor(rcut / box) + 1).astype(np.int64)
    for sx in range(-int(shells[0]), int(shells[0]) + 1):
        for sy in range(-int(shells[1]), int(shells[1]) + 1):
            for sz in range(-int(shells[2]), int(shells[2]) + 1):
                shift = np.array([sx, sy, sz], dtype=np.float64) * box
                d = pos[:, None, :] - pos[None, :, :] - shift[None, None, :]
                r2 = (d * d).sum(axis=2)
                if sx == 0 and sy == 0 and sz == 0:
                    np.fill_diagonal(r2, np.inf)
                mask = r2 <= rcut * rcut
                r2 = np.where(mask, r2, np.inf)
                r = np.sqrt(r2)
                e = erfc(alpha * r) / r
                pot += (q[None, :] * e).sum(axis=1)
                gauss = (2.0 * alpha / math.sqrt(math.pi)) * np.exp(-(alpha * alpha) * r2)
                scale = q[None, :] * (e + gauss) / r2
                field += (scale[:, :, None] * d).sum(axis=1)

    # --- reciprocal space ----------------------------------------------------
    ms = np.arange(-kmax, kmax + 1)
    mx, my, mz = np.meshgrid(ms, ms, ms, indexing="ij")
    mvecs = np.stack([mx.ravel(), my.ravel(), mz.ravel()], axis=1)
    mvecs = mvecs[np.any(mvecs != 0, axis=1)]
    kvecs = 2.0 * math.pi * mvecs / box[None, :]
    k2 = (kvecs * kvecs).sum(axis=1)
    # the full k-cube is kept; the Gaussian factor damps the corners anyway
    green = 4.0 * math.pi / volume * np.exp(-k2 / (4.0 * alpha * alpha)) / k2

    # structure factor, chunked over k to bound memory
    chunk = 512
    for start in range(0, kvecs.shape[0], chunk):
        kv = kvecs[start:start + chunk]
        g = green[start:start + chunk]
        phase = pos @ kv.T  # (n, nk)
        c = np.cos(phase)
        s = np.sin(phase)
        sc = q @ c  # Re S(-k)
        ss = q @ s  # Im S(-k) with our sign convention
        pot += c @ (g * sc) + s @ (g * ss)
        # E = -grad phi = sum_k g k [sin(kx_i) SC - cos(kx_i) SS]
        ex = s * (g * sc)[None, :] - c * (g * ss)[None, :]
        field += ex @ kv

    # --- self term and neutralising background --------------------------------
    pot -= 2.0 * alpha / math.sqrt(math.pi) * q
    total_charge = float(q.sum())
    if abs(total_charge) > 0:
        pot -= math.pi / (alpha * alpha * volume) * total_charge
    return pot, field
