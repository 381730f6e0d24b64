"""Pinned-clock regression for the discrete-event simulator.

``tests/data/clock_pins.json`` holds the predicted per-rank seconds and
per-phase time breakdowns of the ledger-pin points under the
``daint-xc50`` preset.  The replay is deterministic, so these must
reproduce to float precision; a tiny relative tolerance absorbs
summation-order differences should the accumulation internals ever be
refactored, while still catching any real model change.  The 2D
baselines' points are pinned alongside.
"""

import pytest

from tests.algorithms.clock_pins import (
    PINNED_POINTS,
    PINNED_POINTS_2D,
    collect_clock,
    collect_clock_2d,
    load_pins,
    point_key,
    point_key_2d,
)

_REL = 1e-9


@pytest.fixture(scope="module")
def pins():
    return load_pins()


def test_pin_file_covers_every_pinned_point(pins):
    assert sorted(pins) == sorted(
        [point_key(*p) for p in PINNED_POINTS]
        + [point_key_2d(*p) for p in PINNED_POINTS_2D]
    )


@pytest.mark.parametrize(
    "point", PINNED_POINTS, ids=[point_key(*p) for p in PINNED_POINTS]
)
def test_predicted_clock_is_unchanged(point, pins):
    _assert_same_clock(collect_clock(*point), pins[point_key(*point)])


@pytest.mark.parametrize(
    "point", PINNED_POINTS_2D,
    ids=[point_key_2d(*p) for p in PINNED_POINTS_2D],
)
def test_2d_predicted_clock_is_unchanged(point, pins):
    _assert_same_clock(
        collect_clock_2d(*point), pins[point_key_2d(*point)]
    )


def _assert_same_clock(actual: dict, expected: dict) -> None:
    assert actual["machine"] == expected["machine"]
    assert actual["makespan"] == pytest.approx(
        expected["makespan"], rel=_REL
    )
    for field in (
        "rank_seconds",
        "compute_seconds",
        "overhead_seconds",
        "wait_seconds",
    ):
        assert actual[field] == pytest.approx(
            expected[field], rel=_REL
        ), field
    assert sorted(actual["phase_seconds"]) == sorted(
        expected["phase_seconds"]
    )
    for phase, secs in expected["phase_seconds"].items():
        assert actual["phase_seconds"][phase] == pytest.approx(
            secs, rel=_REL
        ), phase
