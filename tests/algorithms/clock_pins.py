"""Pinned predicted-clock capture for the discrete-event simulator.

Companion to :mod:`tests.algorithms.ledger_pins`: the same (impl, n, G,
c, v) and 2D (impl, n, P, Pr, Pc, nb) points, run under the
``daint-xc50`` machine preset, with the predicted per-rank seconds and
per-phase time breakdown pinned in ``tests/data/clock_pins.json``.  The
replay is deterministic by construction, so any drift means the event
loop, the link model or a schedule's event stream changed — all of
which must be deliberate.

Regenerate (only alongside an intentional timing-model change) with::

    python -m tests.algorithms.clock_pins
"""

from __future__ import annotations

import json
from pathlib import Path

from tests.algorithms.ledger_pins import (
    PINNED_POINTS,
    PINNED_POINTS_2D,
    point_key,
    point_key_2d,
    run_point,
    run_point_2d,
)

PIN_PATH = Path(__file__).resolve().parents[1] / "data" / "clock_pins.json"

#: Machine preset every pin is captured under.
PIN_MACHINE = "daint-xc50"


def collect_clock(impl: str, n: int, g: int, c: int, v: int) -> dict:
    """Run one pinned 2.5D point under the clock; JSON-clean timing
    record."""
    return _timing_record(run_point(impl, n, g, c, v, machine=PIN_MACHINE))


def collect_clock_2d(impl: str, n: int, p: int, pr: int, pc: int,
                     nb: int) -> dict:
    """Run one pinned 2D point under the clock; JSON-clean timing
    record."""
    return _timing_record(
        run_point_2d(impl, n, p, pr, pc, nb, machine=PIN_MACHINE)
    )


def _timing_record(res) -> dict:
    t = res.volume.timing
    return {
        "machine": t.machine,
        "makespan": t.makespan,
        "rank_seconds": list(t.rank_seconds),
        "compute_seconds": list(t.compute_seconds),
        "overhead_seconds": list(t.overhead_seconds),
        "wait_seconds": list(t.wait_seconds),
        "phase_seconds": dict(sorted(t.phase_seconds.items())),
    }


def load_pins() -> dict:
    with PIN_PATH.open() as fh:
        return json.load(fh)


def main() -> None:
    pins = {
        point_key(*point): collect_clock(*point)
        for point in PINNED_POINTS
    }
    pins.update(
        (point_key_2d(*point), collect_clock_2d(*point))
        for point in PINNED_POINTS_2D
    )
    PIN_PATH.parent.mkdir(parents=True, exist_ok=True)
    PIN_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pinned clocks to {PIN_PATH}")


if __name__ == "__main__":
    main()
