"""Pinned sweep identities: cached rows stay valid across refactors.

``tests/data/spec_point_keys.json`` holds, for every named sweep, the
ordered ``cache_key()`` of each point ``named_spec(name).points()``
enumerates, plus ``runner.model_for`` at the pinned-ledger
configurations that had a model when the file was generated.  A change
that moves either has invalidated every sweep cache in the field (or
changed what a ``measured`` row's ``modeled_bytes`` means); regenerate
only when that is the point of the change, naming the sweeps whose
keys it moves::

    python -m tests.harness.test_spec_pins SWEEP [SWEEP ...]

That rewrites those sweeps' keys and the ``model_for`` values already
pinned, and nothing else: newer ledger points stay out of the file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tests.algorithms.ledger_pins import PINNED_POINTS, point_key

PIN_PATH = (
    Path(__file__).resolve().parents[1] / "data" / "spec_point_keys.json"
)


def collect_pins() -> dict:
    from repro.harness.runner import model_for
    from repro.harness.specs import SPECS, named_spec
    from repro.models.api import MODEL_REGISTRY

    return {
        "spec_point_keys": {
            name: [pt.cache_key() for pt in named_spec(name).points()]
            for name in sorted(SPECS)
        },
        "model_for": {
            point_key(impl, n, g, c, v): model_for(
                impl, n, g * g * c, {"grid": (g, g, c), "v": v}
            )
            for impl, n, g, c, v in PINNED_POINTS
            if impl in MODEL_REGISTRY
        },
    }


def test_named_specs_enumerate_pinned_cache_keys():
    pinned = json.loads(PIN_PATH.read_text())["spec_point_keys"]
    current = collect_pins()["spec_point_keys"]
    assert sorted(current) == sorted(pinned)
    for name, keys in pinned.items():
        assert current[name] == keys, f"sweep {name!r} moved its points"


def test_model_for_matches_pins_at_ledger_configurations():
    pinned = json.loads(PIN_PATH.read_text())["model_for"]
    current = collect_pins()["model_for"]
    # ledger points newer than the snapshot stay out of it (a
    # regeneration rewrites only the keys it holds); adding a ledger
    # pin must not touch this file
    assert {key: current[key] for key in pinned} == pinned


def regenerate(names: list[str]) -> dict:
    """The pin file with the keys of the sweeps ``names`` and every
    pinned ``model_for`` value recomputed."""
    pins = json.loads(PIN_PATH.read_text())
    current = collect_pins()
    unknown = sorted(set(names) - set(current["spec_point_keys"]))
    if unknown:
        sys.exit(f"unknown sweeps {unknown}; {PIN_PATH} left as it is")
    for name in names:
        pins["spec_point_keys"][name] = current["spec_point_keys"][name]
    pins["model_for"] = {
        key: current["model_for"][key] for key in pins["model_for"]
    }
    return pins


if __name__ == "__main__":
    names = sys.argv[1:]
    if not names:
        sys.exit(
            f"no sweep named: {PIN_PATH} left as it is (usage: python "
            "-m tests.harness.test_spec_pins SWEEP [SWEEP ...])"
        )
    PIN_PATH.write_text(
        json.dumps(regenerate(names), indent=1, sort_keys=True) + "\n"
    )
    print(f"rewrote {', '.join(names)} in {PIN_PATH}")
