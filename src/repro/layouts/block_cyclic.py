"""Block-cyclic index maps (ScaLAPACK-style).

A 1D block-cyclic map distributes ``n`` indices over ``p`` ranks in
blocks of ``b``: global index g lives in block ``g // b``, owned by rank
``(g // b) % p``, at local block ``(g // b) // p``, offset ``g % b``.
``b = 1`` is the plain cyclic distribution COnfLUX uses for the trailing
matrix (perfect balance under row masking).
"""

from __future__ import annotations

import numpy as np


class BlockCyclic1D:
    """1D block-cyclic map of ``n`` indices over ``p`` ranks."""

    def __init__(self, n: int, p: int, block: int = 1) -> None:
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
        if block < 1:
            raise ValueError(f"block must be >= 1, got {block}")
        self.n = n
        self.p = p
        self.block = block

    def owner(self, g: int) -> int:
        """Rank owning global index ``g``."""
        if not 0 <= g < self.n:
            raise ValueError(
                f"global index out of range [0, {self.n}): [{g}]"
            )
        return (g // self.block) % self.p

    def global_indices(self, rank: int) -> np.ndarray:
        """All global indices owned by ``rank``, ascending."""
        if not 0 <= rank < self.p:
            raise ValueError(f"rank {rank} out of range for p={self.p}")
        g = np.arange(self.n)
        return g[(g // self.block) % self.p == rank]
