"""Z-order (Morton) space-filling curves.

The FMM solver numbers the boxes of its recursive subdivision according to a
Z-Morton ordering and sorts all particles by box number, which induces the
Z-curve-segment domain decomposition of Fig. 2 (left) in the paper.
"""

from repro.zorder.morton import (
    morton_decode3,
    morton_encode2,
    morton_encode3,
    morton_keys_of_positions,
    MAX_BITS_2D,
    MAX_BITS_3D,
)

__all__ = [
    "MAX_BITS_2D",
    "MAX_BITS_3D",
    "morton_decode3",
    "morton_encode2",
    "morton_encode3",
    "morton_keys_of_positions",
]
