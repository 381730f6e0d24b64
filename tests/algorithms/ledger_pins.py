"""Pinned communication-ledger capture for the Schedule25D port.

The 2.5D factorization family (COnfLUX, CANDMC-like LU, 2.5D Cholesky,
2.5D CAQR) was ported onto the shared :class:`Schedule25D` choreography
layer.  The port must be *behavior preserving at the wire level*: for a
pinned set of (n, G, c, v) points, every rank's sent/received bytes,
message counts, per-phase attribution and per-tag message census must be
identical to what the pre-port implementations produced.  The 2D
baselines (ScaLAPACK-, SLATE-like LU and 2D Householder QR) are pinned
the same way at (P, Pr x Pc, nb) points.

``tests/data/ledger_pins.json`` holds the ledgers captured from the
pre-port code.  ``test_ledger_regression.py`` re-runs the pinned points
and asserts equality.  Regenerate (only when a deliberate schedule
change is being made, never to paper over a port bug) with::

    python -m tests.algorithms.ledger_pins
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

PIN_PATH = Path(__file__).resolve().parents[1] / "data" / "ledger_pins.json"

#: (impl, n, g, c, v) — small enough for the test suite, varied enough
#: to cover short final blocks, single-layer and replicated grids.
PINNED_POINTS = (
    ("conflux", 24, 2, 2, 4),
    ("conflux", 16, 2, 1, 4),
    ("conflux", 12, 1, 1, 4),
    ("candmc25d", 24, 2, 2, 4),
    ("candmc25d", 16, 2, 1, 4),
    ("cholesky25d", 24, 2, 2, 4),
    ("cholesky25d", 16, 2, 1, 4),
    ("caqr25d", 24, 2, 2, 4),
    ("caqr25d", 16, 2, 1, 4),
    ("confqr", 24, 2, 2, 4),
    ("confqr", 16, 2, 1, 4),
    # beyond G = 2 / c = 2, with ragged N: caqr25d, cholesky25d and the
    # G >= 3 trees sit on no BENCHMARK.json workload, so these pins are
    # what guards them
    ("conflux", 30, 3, 2, 4),
    ("candmc25d", 30, 3, 2, 4),
    ("candmc25d", 27, 2, 3, 3),
    ("cholesky25d", 30, 3, 2, 4),
    ("caqr25d", 30, 3, 2, 4),
    ("caqr25d", 26, 2, 3, 4),
    ("confqr", 30, 3, 2, 4),
    ("confqr", 21, 4, 1, 3),
)


#: (impl, n, p, pr, pc, nb) — the 2D baselines on a Pr x Pc grid of
#: the first Pr * Pc of P ranks.  Every N leaves a ragged last block.
PINNED_POINTS_2D = (
    ("scalapack2d", 30, 6, 2, 3, 4),
    ("scalapack2d", 23, 7, 1, 7, 5),
    ("scalapack2d", 26, 9, 2, 3, 4),
    ("slate2d", 26, 6, 3, 2, 4),
    ("slate2d", 21, 4, 2, 2, 16),
    ("qr2d", 30, 6, 2, 3, 4),
    ("qr2d", 19, 5, 1, 5, 4),
    ("qr2d", 22, 9, 3, 2, 3),
)


def point_key(impl: str, n: int, g: int, c: int, v: int) -> str:
    return f"{impl}-n{n}-g{g}-c{c}-v{v}"


def point_key_2d(impl: str, n: int, p: int, pr: int, pc: int,
                 nb: int) -> str:
    return f"{impl}-n{n}-p{p}-{pr}x{pc}-nb{nb}"


def run_point(impl: str, n: int, g: int, c: int, v: int, **kw):
    """``factor`` at one pinned 2.5D point."""
    from repro.algorithms import factor

    return factor(
        impl, _input_matrix(impl, n), g * g * c, grid=(g, g, c), v=v, **kw
    )


def run_point_2d(impl: str, n: int, p: int, pr: int, pc: int, nb: int,
                 **kw):
    """``factor`` at one pinned 2D point."""
    from repro.algorithms import factor

    return factor(impl, _input_matrix(impl, n), p, grid=(pr, pc), nb=nb,
                  **kw)


class _TagCensus:
    """Tag -> send count histogram, patched over Comm (one rank runs
    at a time, so the read-modify-write needs no lock)."""

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}

    def record(self, tag: int) -> None:
        self.counts[tag] = self.counts.get(tag, 0) + 1


def _input_matrix(impl: str, n: int) -> np.ndarray:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    if impl == "cholesky25d":
        a = a @ a.T + n * np.eye(n)
    return a


def collect_ledger(impl: str, n: int, g: int, c: int, v: int) -> dict:
    """Run one pinned 2.5D point and return its JSON-clean wire ledger."""
    return _census_ledger(run_point, (impl, n, g, c, v))


def collect_ledger_2d(impl: str, n: int, p: int, pr: int, pc: int,
                      nb: int) -> dict:
    """Run one pinned 2D point and return its JSON-clean wire ledger."""
    return _census_ledger(run_point_2d, (impl, n, p, pr, pc, nb))


def _census_ledger(run, point: tuple) -> dict:
    from repro.smpi import runtime

    census = _TagCensus()
    orig_send = runtime.Comm.send
    orig_send_each = runtime.Comm.send_each
    orig_sendrecv = runtime.Comm.sendrecv

    def send(self, data, dest, tag=0):
        census.record(tag)
        return orig_send(self, data, dest, tag)

    # every piece is one message; the run is untraced and unfaulted, so
    # a plural send never passes back through ``send``
    def send_each(self, pieces, tag=0):
        for _ in pieces:
            census.record(tag)
        return orig_send_each(self, pieces, tag)

    def sendrecv(self, senddata, dest, source=None, sendtag=0,
                 recvtag=None):
        census.record(sendtag)
        return orig_sendrecv(self, senddata, dest, source=source,
                             sendtag=sendtag, recvtag=recvtag)

    runtime.Comm.send = send
    runtime.Comm.send_each = send_each
    runtime.Comm.sendrecv = sendrecv
    try:
        res = run(*point)
    finally:
        runtime.Comm.send = orig_send
        runtime.Comm.send_each = orig_send_each
        runtime.Comm.sendrecv = orig_sendrecv
    vol = res.volume
    return {
        "sent_bytes": list(vol.sent_bytes),
        "recv_bytes": list(vol.recv_bytes),
        "messages": list(vol.messages),
        "phase_bytes": dict(sorted(vol.phase_bytes.items())),
        "phase_messages": dict(sorted(vol.phase_messages.items())),
        "tags": {str(t): cnt for t, cnt in sorted(census.counts.items())},
    }


def load_pins() -> dict:
    with PIN_PATH.open() as fh:
        return json.load(fh)


def main() -> None:
    pins = {
        point_key(*point): collect_ledger(*point)
        for point in PINNED_POINTS
    }
    pins.update(
        (point_key_2d(*point), collect_ledger_2d(*point))
        for point in PINNED_POINTS_2D
    )
    PIN_PATH.parent.mkdir(parents=True, exist_ok=True)
    PIN_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pinned ledgers to {PIN_PATH}")


if __name__ == "__main__":
    main()
