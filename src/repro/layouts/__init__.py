"""Data distributions for distributed matrices.

Implements the index arithmetic behind the paper's decompositions: the
1D **block-cyclic** map (ScaLAPACK's layout).  The 2D baselines and the
QR members use one map per axis; cyclic = block-cyclic with block 1 is
what COnfLUX uses for its rows, so row masking never unbalances work.
"""

from repro.layouts.block_cyclic import BlockCyclic1D

__all__ = ["BlockCyclic1D"]
