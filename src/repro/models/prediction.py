"""Prediction machinery for Figures 6 and 7.

The paper's headline evaluation numbers are ratios: "1.6x less
communication than the second-best implementation at P = 1024", "2.1x
expected on a full-scale Summit run".  These helpers evaluate the Table
2 models over (P, N) grids and form exactly those ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.models.api import predict
from repro.models.costmodels import (
    ELEMENT_SIZE,
    MODEL_NAMES,
    algorithmic_memory,
    conflux_leading_total_bytes,
    conflux_total_bytes,
)
from repro.models.machines import SUMMIT


def choose_c_max_replication(
    p: int, n: int, m_max: float | None = None
) -> int:
    """Maximum replication depth for the Figure 6 scenarios.

    The paper's note under Figure 6: "enough memory M >= N^2 / P^(2/3)
    was present to allow the maximum number of replications c = P^(1/3)".
    Memory caps it further when ``m_max`` (elements per rank) is given.
    """
    if p < 1 or n < 1:
        raise ValueError(f"need positive P and N, got P={p}, N={n}")
    c = max(1, round(p ** (1.0 / 3.0)))
    if m_max is not None:
        c = min(c, max(1, int(p * m_max / n**2)))
    return c


def sweep_models(
    n: int, p: int, c: int | None = None, leading_only: bool = False
) -> dict[str, float]:
    """Total modeled bytes for each of Table 2's implementations at one
    (N, P, c): :func:`~repro.models.api.predict` over ``MODEL_NAMES``.

    ``c`` defaults to the max replication of the Figure 6 note.
    ``leading_only`` reproduces the paper's figure convention ("only the
    leading factors of the models are shown"): N^2 sqrt(P) for the 2D
    pair, 5N^3/(P sqrt(M)) for CANDMC, N^2 (sqrt(P/c) + c) for COnfLUX.
    """
    if c is None:
        c = choose_c_max_replication(p, n)
    if leading_only:
        two_d = n**2 * math.sqrt(p) * ELEMENT_SIZE
        m = algorithmic_memory(n, p, c)
        candmc = 5.0 * n**3 / math.sqrt(m) * ELEMENT_SIZE
        return {
            "scalapack2d": two_d,
            "slate2d": two_d,
            "candmc25d": candmc,
            "conflux": conflux_leading_total_bytes(n, p, c),
        }
    return {
        name: predict(name, n, p, c=c).total_bytes for name in MODEL_NAMES
    }


@dataclass(frozen=True)
class ReductionPoint:
    """One cell of Figure 7's heat map."""

    n: int
    p: int
    best: str
    second_best: str
    reduction: float  # second_best volume / best volume
    volumes: dict[str, float]


def reduction_vs_second_best(
    n: int, p: int, c: int | None = None, leading_only: bool = False
) -> ReductionPoint:
    """Communication reduction of the best vs second-best model.

    Figure 7 reports this with the second-best labeled (L = LibSci,
    S = SLATE); when COnfLUX is best the ratio reads "COnfLUX
    communicates `reduction`x less".
    """
    volumes = sweep_models(n, p, c, leading_only=leading_only)
    ranked = sorted(volumes, key=volumes.get)
    best, second = ranked[0], ranked[1]
    return ReductionPoint(
        n=n,
        p=p,
        best=best,
        second_best=second,
        reduction=volumes[second] / volumes[best],
        volumes=volumes,
    )


#: Paper-reported Table 2 values (GB) for regression comparison:
#: {(N, P): {impl: (measured, modeled)}}.
TABLE2_PAPER_GB = {
    (4096, 64): {
        "scalapack2d": (1.17, 1.21),
        "slate2d": (1.18, 1.21),
        "candmc25d": (2.5, 4.9),
        "conflux": (1.11, 1.08),
    },
    (4096, 1024): {
        "scalapack2d": (4.45, 4.43),
        "slate2d": (4.35, 4.43),
        "candmc25d": (9.3, 12.13),
        "conflux": (3.13, 3.07),
    },
    (16384, 64): {
        "scalapack2d": (18.79, 19.33),
        "slate2d": (18.84, 19.33),
        "candmc25d": (39.8, 78.74),
        "conflux": (17.61, 17.19),
    },
    (16384, 1024): {
        "scalapack2d": (70.91, 70.87),
        "slate2d": (71.1, 70.87),
        "candmc25d": (144.0, 194.09),
        "conflux": (45.42, 44.77),
    },
}


def summit_prediction() -> dict:
    """The "2.1x less on a full-scale Summit run" claim (Section 9), at
    N = 16 384.

    Reported with both model flavours: the paper's figures use leading
    factors only (ratio ~2.0); the exact per-step model gives ~1.8
    because COnfLUX's reduce terms are not negligible at maximum
    replication — a reproduction finding the leading factors hide.
    """
    n, p = 16384, SUMMIT.total_ranks
    exact = reduction_vs_second_best(n, p)
    leading = reduction_vs_second_best(n, p, leading_only=True)
    return {
        "machine": SUMMIT.name,
        "n": n,
        "p": p,
        "best": exact.best,
        "second_best": exact.second_best,
        "reduction_exact": exact.reduction,
        "reduction_leading": leading.reduction,
    }


def model_gap_at_scale(
    n: int = 65536, p: int = 4096, c: int = 2
) -> float:
    """Gap of the exact COnfLUX model over the lower bound at large N.

    Tends to 1.5 — the paper's "only a factor of 1/3 over" — in the
    regime c << P^(1/3), where the panel-exchange term dominates.  At
    maximum replication c = P^(1/3) the reduce terms equal the panel
    term and the gap approaches 3 (a reproduction finding: ROADMAP
    item 3's gap table has it per grid; the paper's O(N^2/P) notation
    treats c as a constant).
    """
    from repro.theory.bounds import lu_parallel_lower_bound_leading

    m = algorithmic_memory(n, p, c)
    model = conflux_total_bytes(n, p, c=c, v=c)
    bound = lu_parallel_lower_bound_leading(n, m, p) * p * ELEMENT_SIZE
    return model / bound


def weak_scaling_n(p: int, n0: int = 3200) -> int:
    """Figure 6b's problem-size rule: N = N0 * P^(1/3) (constant work
    per node, since LU work is O(N^3))."""
    if p < 1:
        raise ValueError(f"P must be >= 1, got {p}")
    return int(round(n0 * p ** (1.0 / 3.0)))


def crossover_p_candmc_vs_2d(
    n: int, m_of_p, p_grid: list[int]
) -> int | None:
    """Smallest P in ``p_grid`` where CANDMC's model beats the 2D model.

    The paper observes this crossover near P ~ 450,000 for N = 16,384 —
    the "asymptotic optimality is not enough" argument.  ``m_of_p`` maps
    P to the memory per rank (elements); ``predict`` turns it into the
    replication depth both models are evaluated at.
    """
    for p in sorted(p_grid):
        m = m_of_p(p)
        candmc = predict("candmc25d", n, p, m=m).total_bytes
        if candmc < predict("scalapack2d", n, p, m=m).total_bytes:
            return p
    return None
