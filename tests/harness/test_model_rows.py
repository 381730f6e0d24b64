"""Pinned model-only outputs: the rows the paper's model figures print.

``tests/data/model_spec_rows.json`` holds the rows of the four
model-only named sweeps (``table2-models``, ``fig6a-model``,
``fig6b-model``, ``fig7``) plus ``summit_prediction()`` and
``model_gap_at_scale()``, compared as JSON text so a refactor of
``repro.models`` that moves any digit fails here.  Regenerate only when
changing a modeled figure is the point of the change::

    python -m tests.harness.test_model_rows
"""

from __future__ import annotations

import json
from pathlib import Path

PIN_PATH = (
    Path(__file__).resolve().parents[1] / "data" / "model_spec_rows.json"
)

#: The named sweeps that evaluate models only (no simulator run).
MODEL_SPECS = ("table2-models", "fig6a-model", "fig6b-model", "fig7")


def collect_rows() -> dict:
    from repro.harness.specs import named_spec
    from repro.harness.sweep import run_sweep
    from repro.models.prediction import (
        model_gap_at_scale,
        summit_prediction,
    )

    return {
        "spec_rows": {
            name: run_sweep(named_spec(name)).rows() for name in MODEL_SPECS
        },
        "summit_prediction": summit_prediction(),
        "model_gap_at_scale": model_gap_at_scale(),
    }


def _dump(rows: dict) -> str:
    return json.dumps(rows, indent=1, sort_keys=True) + "\n"


def test_model_rows_match_pins():
    assert _dump(collect_rows()) == PIN_PATH.read_text()


if __name__ == "__main__":
    PIN_PATH.write_text(_dump(collect_rows()))
    print(f"wrote {PIN_PATH}")
