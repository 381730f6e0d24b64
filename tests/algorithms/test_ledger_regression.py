"""Differential-ledger regression for the Schedule25D port.

The pinned ledgers in ``tests/data/ledger_pins.json`` were captured
from the pre-port implementations of the 2.5D family.  Porting the rank
programs onto the shared :class:`Schedule25D` choreography must not
change a single message: per-rank sent/received bytes, message counts,
per-phase attribution and the per-tag send census all have to match
exactly — volume equality alone would hide re-grouped or re-tagged
traffic.  The 2D baselines' ledgers, pinned before their rank
programs moved onto the one-layer grid, must hold the same way.
"""

import pytest

from tests.algorithms.ledger_pins import (
    PINNED_POINTS,
    PINNED_POINTS_2D,
    collect_ledger,
    collect_ledger_2d,
    load_pins,
    point_key,
    point_key_2d,
)


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
def test_wire_ledger_is_unchanged(point, pins):
    _assert_same_ledger(collect_ledger(*point), pins[point_key(*point)])


@pytest.mark.parametrize(
    "point", PINNED_POINTS_2D,
    ids=[point_key_2d(*p) for p in PINNED_POINTS_2D],
)
def test_2d_wire_ledger_is_unchanged(point, pins):
    _assert_same_ledger(
        collect_ledger_2d(*point), pins[point_key_2d(*point)]
    )


def _assert_same_ledger(actual: dict, expected: dict) -> None:
    # Field-by-field for readable failures; the per-rank tuples pin the
    # exact message grouping, the tag census pins the tag namespaces.
    assert actual["sent_bytes"] == expected["sent_bytes"]
    assert actual["recv_bytes"] == expected["recv_bytes"]
    assert actual["messages"] == expected["messages"]
    assert actual["phase_bytes"] == expected["phase_bytes"]
    assert actual["phase_messages"] == expected["phase_messages"]
    assert actual["tags"] == expected["tags"]
