"""The red-blue pebble game (paper Sections 2.3.1 and 5).

Hong & Kung's sequential game, in the paper's words:

1. *load*    — place a red pebble on a vertex that has a blue pebble;
2. *store*   — place a blue pebble on a vertex that has a red pebble;
3. *compute* — place a red pebble on a vertex whose direct predecessors
   all have red pebbles;
4. *discard* — remove any pebble from a vertex.

At most M red pebbles may be on the graph at any time.  The game starts
with blue pebbles on all inputs and ends when all outputs carry blue
pebbles; the objective Q counts loads + stores.

Section 5 generalises it to P processors, each owning M red pebbles of
its own hue: *compute* needs red pebbles of the processor's **own** hue
on every predecessor (no sharing of fast memory), and *load* needs
**any** pebble on the vertex — blue or red of any hue — because remote
fast memories are directly accessible at uniform cost.  With one hue
that load rule is exactly "needs a blue pebble", so :class:`PebbleGame`
with ``nprocs=1`` (the default) is the sequential game.  Q is counted
per processor; Lemma 9 bounds ``max_p Q_p >= |V| / (P rho)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

from repro.pebbling.cdag import CDag, Vertex


class MoveKind(Enum):
    LOAD = "load"
    STORE = "store"
    COMPUTE = "compute"
    DISCARD_RED = "discard_red"
    DISCARD_BLUE = "discard_blue"


@dataclass(frozen=True)
class Move:
    """One move; ``proc`` names the hue of the red pebble it touches."""

    kind: MoveKind
    vertex: Any
    proc: int = 0

    @staticmethod
    def load(v: Vertex, proc: int = 0) -> "Move":
        return Move(MoveKind.LOAD, v, proc)

    @staticmethod
    def store(v: Vertex, proc: int = 0) -> "Move":
        return Move(MoveKind.STORE, v, proc)

    @staticmethod
    def compute(v: Vertex, proc: int = 0) -> "Move":
        return Move(MoveKind.COMPUTE, v, proc)

    @staticmethod
    def discard_red(v: Vertex, proc: int = 0) -> "Move":
        return Move(MoveKind.DISCARD_RED, v, proc)

    @staticmethod
    def discard_blue(v: Vertex) -> "Move":
        return Move(MoveKind.DISCARD_BLUE, v)


class PebblingError(RuntimeError):
    """An illegal pebbling move."""


class PebbleGame:
    """Mutable game state with rule enforcement and per-processor I/O
    counting; ``red[p]``, ``loads[p]`` and ``stores[p]`` belong to
    processor (hue) ``p``."""

    def __init__(self, cdag: CDag, m: int, nprocs: int = 1) -> None:
        if m < 1:
            raise ValueError(f"need at least one red pebble, got M={m}")
        if nprocs < 1:
            raise ValueError(f"need at least one processor, got {nprocs}")
        self.cdag = cdag
        self.m = m
        self.nprocs = nprocs
        self.red: list[set[Vertex]] = [set() for _ in range(nprocs)]
        self.blue: set[Vertex] = set(cdag.inputs)
        self.loads = [0] * nprocs
        self.stores = [0] * nprocs
        self.computed: set[Vertex] = set()
        self.history: list[Move] = []

    @property
    def q_per_proc(self) -> list[int]:
        return [lo + st for lo, st in zip(self.loads, self.stores)]

    @property
    def q(self) -> int:
        """I/O cost so far (loads + stores over all processors)."""
        return sum(self.q_per_proc)

    @property
    def q_max(self) -> int:
        return max(self.q_per_proc)

    def apply(self, move: Move) -> None:
        v, p = move.vertex, move.proc
        if not 0 <= p < self.nprocs:
            raise PebblingError(f"processor {p} out of range")
        if v not in self.cdag:
            raise PebblingError(f"unknown vertex {v!r}")
        red = self.red[p]
        if move.kind is MoveKind.LOAD:
            if v in red:
                raise PebblingError(f"load {v!r}: already red on proc {p}")
            if v not in self.blue and not any(v in r for r in self.red):
                raise PebblingError(f"load {v!r}: no pebble of any hue")
            self._require_red_capacity(p)
            red.add(v)
            self.loads[p] += 1
        elif move.kind is MoveKind.STORE:
            if v not in red:
                raise PebblingError(
                    f"store {v!r}: no red pebble of proc {p}"
                )
            if v in self.blue:
                raise PebblingError(f"store {v!r}: already blue")
            self.blue.add(v)
            self.stores[p] += 1
        elif move.kind is MoveKind.COMPUTE:
            preds = self.cdag.predecessors(v)
            if not preds:
                raise PebblingError(
                    f"compute {v!r}: inputs cannot be computed"
                )
            missing = [u for u in preds if u not in red]
            if missing:
                raise PebblingError(
                    f"compute {v!r}: predecessors without red pebbles of "
                    f"proc {p}: {missing[:3]}"
                )
            if v not in red:
                self._require_red_capacity(p)
                red.add(v)
            self.computed.add(v)
        elif move.kind is MoveKind.DISCARD_RED:
            if v not in red:
                raise PebblingError(f"discard_red {v!r}: not red on proc {p}")
            red.remove(v)
        elif move.kind is MoveKind.DISCARD_BLUE:
            if v not in self.blue:
                raise PebblingError(f"discard_blue {v!r}: not blue")
            self.blue.remove(v)
        else:  # pragma: no cover - enum is exhaustive
            raise PebblingError(f"unknown move kind {move.kind}")
        self.history.append(move)

    def _require_red_capacity(self, p: int) -> None:
        if len(self.red[p]) >= self.m:
            raise PebblingError(
                f"proc {p} at red pebble limit M={self.m}; discard first"
            )

    def run(self, moves: list[Move]) -> int:
        """Apply a whole schedule; returns the final Q."""
        for mv in moves:
            self.apply(mv)
        return self.q

    def is_complete(self) -> bool:
        """All outputs stored to slow memory (blue pebbles)?"""
        return all(v in self.blue for v in self.cdag.outputs)

    def assert_complete(self) -> None:
        if not self.is_complete():
            missing = [
                v for v in self.cdag.outputs if v not in self.blue
            ]
            raise PebblingError(
                f"{len(missing)} outputs lack blue pebbles, e.g. "
                f"{missing[:3]}"
            )
