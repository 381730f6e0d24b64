"""The Cartesian process grid and its sub-communicators.

The paper's algorithms are expressed on one grid family,
[sqrt(P1), sqrt(P1), c] for the 2.5D algorithms (COnfLUX, CANDMC); the
2D Pr x Pc grid of the ScaLAPACK/SLATE baselines is its one-layer case,
``ProcessGrid3D(comm, pr, pc, 1)``.  The grid wraps a communicator,
assigns each rank a coordinate, and derives the row/column/layer/fiber
communicators the algorithms need — each derived communicator is a true
``Comm`` produced by ``split``, so traffic inside it is volume-counted
like any other.
"""

from __future__ import annotations

from repro.smpi.runtime import Comm


class ProcessGrid3D:
    """Row-major 3D grid: rank = (i * cols + j) * layers + l.

    Matches the paper's [sqrt(P1), sqrt(P1), c] decomposition (Fig. 5):
    ``rows x cols`` is the per-layer 2D grid and ``layers`` is the
    replication depth c in the reduction dimension.  Ranks beyond the
    grid's size are *inactive* — the paper's Processor Grid
    Optimization may disable a minor fraction of nodes.

    Derived communicators (None on inactive ranks):

    - ``layer_comm``: the 2D grid this rank's layer forms (size rows*cols)
    - ``fiber_comm``: ranks sharing (i, j) across layers (size c) — the
      reduction dimension
    - ``row_comm`` / ``col_comm``: within this layer
    - ``grid_comm``: all active ranks
    """

    def __init__(self, comm: Comm, rows: int, cols: int, layers: int) -> None:
        if rows <= 0 or cols <= 0 or layers <= 0:
            raise ValueError(
                f"grid dims must be positive, got {rows}x{cols}x{layers}"
            )
        if rows * cols * layers > comm.size:
            raise ValueError(
                f"grid {rows}x{cols}x{layers} needs {rows * cols * layers} "
                f"ranks, communicator has {comm.size}"
            )
        self.parent = comm
        self.rows = rows
        self.cols = cols
        self.layers = layers
        self.active = comm.rank < rows * cols * layers
        if self.active:
            self.layer = comm.rank % layers
            plane = comm.rank // layers
            self.row = plane // cols
            self.col = plane % cols
        else:
            self.row = self.col = self.layer = -1

        act = self.active
        self.grid_comm = comm.split(0 if act else None, comm.rank)
        self.layer_comm = comm.split(
            self.layer if act else None, (self.row, self.col) if act else 0
        )
        self.fiber_comm = comm.split(
            (self.row * cols + self.col) if act else None,
            self.layer if act else 0,
        )
        self.row_comm = comm.split(
            (self.layer * rows + self.row) if act else None,
            self.col if act else 0,
        )
        self.col_comm = comm.split(
            (self.layer * cols + self.col) if act else None,
            self.row if act else 0,
        )

    @property
    def size(self) -> int:
        return self.rows * self.cols * self.layers

    def rank_of(self, row: int, col: int, layer: int) -> int:
        if not (
            0 <= row < self.rows
            and 0 <= col < self.cols
            and 0 <= layer < self.layers
        ):
            raise ValueError(
                f"coords ({row},{col},{layer}) outside "
                f"{self.rows}x{self.cols}x{self.layers} grid"
            )
        return (row * self.cols + col) * self.layers + layer
