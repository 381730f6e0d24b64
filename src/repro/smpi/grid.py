"""Cartesian process grids and their sub-communicators.

The paper's algorithms are expressed on processor grids: 2D (Pr x Pc) for
the ScaLAPACK/SLATE baselines and 3D ([sqrt(P1), sqrt(P1), c]) for the
2.5D algorithms (COnfLUX, CANDMC).  A grid object wraps a communicator,
assigns each rank a coordinate, and derives the row/column/layer/fiber
communicators the algorithms need — each derived communicator is a true
``Comm`` produced by ``split``, so traffic inside it is volume-counted
like any other.
"""

from __future__ import annotations

from repro.smpi.runtime import Comm


class ProcessGrid2D:
    """Row-major 2D grid: rank = i * cols + j.

    Ranks beyond ``rows * cols`` (when the parent communicator is larger)
    are *inactive*: their :attr:`active` is False and all sub-communicator
    handles are None.  This is the mechanism behind the paper's Processor
    Grid Optimization, which may disable a minor fraction of nodes.
    """

    def __init__(self, comm: Comm, rows: int, cols: int) -> None:
        if rows <= 0 or cols <= 0:
            raise ValueError(f"grid dims must be positive, got {rows}x{cols}")
        if rows * cols > comm.size:
            raise ValueError(
                f"grid {rows}x{cols} needs {rows * cols} ranks, "
                f"communicator has {comm.size}"
            )
        self.parent = comm
        self.rows = rows
        self.cols = cols
        self.active = comm.rank < rows * cols
        if self.active:
            self.row = comm.rank // cols
            self.col = comm.rank % cols
        else:
            self.row = self.col = -1
        # Collective split calls: every parent rank participates.
        self.grid_comm = comm.split(0 if self.active else None, comm.rank)
        self.row_comm = comm.split(self.row if self.active else None, self.col)
        self.col_comm = comm.split(self.col if self.active else None, self.row)

    @property
    def size(self) -> int:
        return self.rows * self.cols

    def rank_of(self, row: int, col: int) -> int:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(
                f"coords ({row},{col}) outside {self.rows}x{self.cols} grid"
            )
        return row * self.cols + col


class ProcessGrid3D:
    """Row-major 3D grid: rank = (i * cols + j) * layers + l.

    Matches the paper's [sqrt(P1), sqrt(P1), c] decomposition (Fig. 5):
    ``rows x cols`` is the per-layer 2D grid and ``layers`` is the
    replication depth c in the reduction dimension.

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
