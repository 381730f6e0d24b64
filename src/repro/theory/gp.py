"""The "volume vs. surface" optimization problem — paper Eq. (3).

For a statement with loop variables ``r_1..r_l`` and input accesses with
variable sets ``S_1..S_m``, the largest subcomputation compatible with an
X-partition solves::

    maximize   prod_t  x_t                    (x_t = |R_t|, t = 1..l)
    subject to sum_j  prod_{k in S_j} x_k  <= X
               x_t >= 1

After the substitution y_t = log x_t this is a geometric program: the
objective is linear and the constraint is a log-sum-exp of linear forms —
convex, so a local optimum found by SLSQP is global.  ``psi(X)`` is the
optimal objective value, the key ingredient of Lemma 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize


@dataclass(frozen=True)
class GPSolution:
    """Solution of the subcomputation-maximization problem at one X.

    Attributes
    ----------
    psi:
        The maximized subcomputation size ``|V_max| = prod x_t``.
    sizes:
        Optimal iteration-set sizes ``{var: x_t}``.
    access_sizes:
        Size of each input access set at the optimum,
        ``|A_j(R_max)| = prod_{k in S_j} x_k`` (order matches the access
        list given to the solver).
    x_budget:
        The X used.
    """

    psi: float
    sizes: dict[str, float]
    access_sizes: tuple[float, ...]
    x_budget: float


def _validate(
    loop_vars: tuple[str, ...], access_sets: tuple[tuple[str, ...], ...]
) -> None:
    if not loop_vars:
        raise ValueError("statement must have at least one loop variable")
    if not access_sets:
        raise ValueError(
            "statement must have at least one input access; "
            "input-free statements have unbounded intensity"
        )
    vars_set = set(loop_vars)
    for s in access_sets:
        extra = set(s) - vars_set
        if extra:
            raise ValueError(f"access uses unknown variables: {extra}")


def maximize_subcomputation(
    loop_vars: tuple[str, ...],
    access_sets: tuple[tuple[str, ...], ...],
    x_budget: float,
    access_weights: tuple[float, ...] | None = None,
) -> GPSolution:
    """Solve Eq. (3) numerically for a single budget ``X``.

    ``access_weights`` optionally scales each access term in the
    dominator constraint — the output-reuse machinery (Corollary 1) uses
    a weight of ``1 / rho_producer`` to shrink the surface contribution
    of a recomputable operand.

    Unconstrained variables (loop variables appearing in *no* access,
    which cannot happen for valid DAAPs but can for partial analyses)
    are rejected: they would make psi unbounded.
    """
    _validate(loop_vars, access_sets)
    if x_budget <= len(access_sets):
        raise ValueError(
            f"X = {x_budget} cannot cover {len(access_sets)} accesses "
            f"of at least one vertex each"
        )
    if access_weights is None:
        access_weights = tuple(1.0 for _ in access_sets)
    if len(access_weights) != len(access_sets):
        raise ValueError("one weight per access required")

    covered = set().union(*(set(s) for s in access_sets))
    uncovered = set(loop_vars) - covered
    if uncovered:
        raise ValueError(
            f"loop variables {sorted(uncovered)} appear in no input "
            f"access; |V_max| would be unbounded"
        )

    l = len(loop_vars)
    var_index = {v: i for i, v in enumerate(loop_vars)}
    # Incidence matrix: row j has 1 where variable k participates in
    # access j (log-space: constraint term j is exp(A_j . y)).
    incidence = np.zeros((len(access_sets), l))
    for j, s in enumerate(access_sets):
        for v in s:
            incidence[j, var_index[v]] = 1.0
    log_weights = np.log(np.asarray(access_weights, dtype=float))

    log_x = math.log(x_budget)

    def neg_objective(y: np.ndarray) -> float:
        return -float(np.sum(y))

    def neg_objective_grad(y: np.ndarray) -> np.ndarray:
        return -np.ones_like(y)

    # Constraint normalized by X for conditioning at large budgets:
    # 1 - sum_j exp(A_j . y + log w_j - log X) >= 0.
    def constraint(y: np.ndarray) -> float:
        terms = np.exp(incidence @ y + log_weights - log_x)
        return 1.0 - float(np.sum(terms))

    def constraint_grad(y: np.ndarray) -> np.ndarray:
        terms = np.exp(incidence @ y + log_weights - log_x)
        return -(incidence.T @ terms)

    # Start strictly inside the feasible region: x_t = s with
    # m * s^max_deg * max_w = X/2.
    max_deg = int(incidence.sum(axis=1).max())
    w_max = float(np.max(access_weights))
    s0 = (x_budget / (2.0 * len(access_sets) * w_max)) ** (1.0 / max_deg)
    y0 = np.full(l, max(0.0, math.log(max(s0, 1.0))))

    best = None
    for attempt_scale in (1.0, 0.5, 0.1):
        res = minimize(
            neg_objective,
            y0 * attempt_scale,
            jac=neg_objective_grad,
            method="SLSQP",
            bounds=[(0.0, None)] * l,
            constraints=[
                {"type": "ineq", "fun": constraint, "jac": constraint_grad}
            ],
            options={"maxiter": 500, "ftol": 1e-12},
        )
        # SLSQP sometimes stops with status 8 ("positive directional
        # derivative") when it has already reached the optimum to line-
        # search precision; accept any near-feasible iterate and keep the
        # best objective among restarts.
        if constraint(res.x) >= -1e-6 and np.all(res.x >= -1e-12):
            if best is None or -res.fun > -best.fun:
                best = res
    if best is None:
        raise RuntimeError(
            f"GP solve failed for X={x_budget}, accesses={access_sets}"
        )
    y = np.maximum(best.x, 0.0)
    sizes = {v: float(math.exp(y[var_index[v]])) for v in loop_vars}
    psi = float(math.exp(np.sum(y)))
    access_sizes = tuple(
        float(np.exp(incidence[j] @ y)) for j in range(len(access_sets))
    )
    return GPSolution(
        psi=psi, sizes=sizes, access_sizes=access_sizes, x_budget=x_budget
    )
