"""Analytic communication-cost models (paper Table 2) and predictions.

The paper pairs every measurement with a model ("measured/modeled,
prediction %"); the same models extrapolate to machines the authors did
not run on (Summit, full-scale predictions of Figure 7).  This package
implements:

* :mod:`repro.models.costmodels` — exact per-step volume sums for
  COnfLUX (the Lemma 10 terms) and the Table 2 models for the 2D
  libraries (LibSci/ScaLAPACK, SLATE) and CANDMC;
* :mod:`repro.models.api` — the registry-driven :func:`predict` entry
  point mirroring ``factor()``: one signature over the whole model
  family, with optional α-β-γ time estimates under a machine spec;
* :mod:`repro.models.machines` — machine presets (Piz Daint XC50,
  Summit, ...) fixing per-rank memory M plus the network/compute
  parameters (α, β, γ) the timing models consume;
* :mod:`repro.models.prediction` — Figure 7 machinery: communication
  reduction vs the second-best implementation over (P, N) grids.
"""

from repro.models.api import (
    ModelInfo,
    MODEL_REGISTRY,
    Prediction,
    get_model,
    predict,
    register_model,
)
from repro.models.costmodels import MODEL_NAMES, conflux_step_breakdown
from repro.models.machines import (
    DAINT_XC50,
    IDEAL,
    LAPTOP_SIM,
    MACHINES,
    Machine,
    PIZ_DAINT,
    SUMMIT,
    list_machines,
    load_machine,
    machine_by_name,
    resolve_machine,
)
from repro.models.prediction import (
    reduction_vs_second_best,
    sweep_models,
    choose_c_max_replication,
)

__all__ = [
    "DAINT_XC50",
    "IDEAL",
    "LAPTOP_SIM",
    "MACHINES",
    "MODEL_NAMES",
    "MODEL_REGISTRY",
    "Machine",
    "ModelInfo",
    "PIZ_DAINT",
    "Prediction",
    "SUMMIT",
    "choose_c_max_replication",
    "conflux_step_breakdown",
    "get_model",
    "list_machines",
    "load_machine",
    "machine_by_name",
    "predict",
    "reduction_vs_second_best",
    "register_model",
    "resolve_machine",
    "sweep_models",
]
