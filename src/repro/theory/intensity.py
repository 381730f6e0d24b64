"""Computational intensity and per-statement I/O bounds (Lemmas 1-6).

Pipeline for one statement:

1. ``psi(X)`` — the largest subcomputation admitted by an X-partition
   (solved by :mod:`repro.theory.gp`).
2. ``X0 = argmin_X psi(X) / (X - M)`` — the budget that maximizes the
   lower bound (Lemma 2 / Eq. 4).
3. ``rho = psi(X0) / (X0 - M)`` — the computational intensity, optionally
   capped by the Lemma 6 out-degree-one refinement ``rho <= 1/u``.
4. ``Q_S >= |V_S| / rho`` (Lemma 1).

Statements whose psi grows at most linearly in X (like LU's S1) have an
intensity *infimum* approached as X -> infinity; the solver detects this
and reports the limiting value, which is exactly where the paper invokes
Lemma 6 instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import minimize_scalar

from repro.theory.daap import Statement
from repro.theory.gp import GPSolution, maximize_subcomputation


@dataclass(frozen=True)
class StatementBound:
    """Everything Lemma 2 produces for a single statement.

    Attributes
    ----------
    statement_name:
        Name of the analyzed statement.
    x0:
        Optimal partition budget (``math.inf`` when the minimum is a
        limit at infinity).
    rho:
        Computational intensity at X0 (after any Lemma 6 cap).
    rho_gp:
        Intensity from the geometric program alone, before Lemma 6.
    lemma6_applied:
        Whether the 1/u out-degree-one cap was the binding constraint.
    solution:
        GP solution at X0 (None when X0 is infinite).
    q_lower(n):
        Use :meth:`q_lower` for the statement I/O bound at size n.
    """

    statement_name: str
    x0: float
    rho: float
    rho_gp: float
    lemma6_applied: bool
    solution: GPSolution | None
    vertex_count: object  # Callable[[int], float]

    def q_lower(self, n: int) -> float:
        """Lemma 1: Q_S >= |V_S| / rho."""
        if math.isinf(self.rho):
            return 0.0
        return self.vertex_count(n) / self.rho


def psi_of_x(
    statement: Statement,
    x_budget: float,
    access_weights: tuple[float, ...] | None = None,
) -> GPSolution:
    """psi(X) for one statement: solve Eq. (3) at budget X."""
    return maximize_subcomputation(
        statement.loop_vars,
        statement.access_variable_sets,
        x_budget,
        access_weights,
    )


def _rho_at(
    statement: Statement,
    x: float,
    m: float,
    access_weights: tuple[float, ...] | None,
) -> float:
    sol = psi_of_x(statement, x, access_weights)
    return sol.psi / (x - m)


def statement_bound(
    statement: Statement,
    m: float,
    access_weights: tuple[float, ...] | None = None,
) -> StatementBound:
    """Derive the intensity bound for ``statement`` with fast memory M.

    ``access_weights`` feeds the Corollary 1 output-reuse rescaling into
    the dominator constraint (weight ``1/rho_producer`` on the reused
    access).  The search for X stops at ``1e4 * max(M, 2)``, beyond
    which the X -> infinity limit is assumed.
    """
    if statement.recomputation_free:
        return StatementBound(
            statement_name=statement.name,
            x0=math.inf,
            rho=math.inf,
            rho_gp=math.inf,
            lemma6_applied=False,
            solution=None,
            vertex_count=statement.vertex_count,
        )
    if m < 1:
        raise ValueError(f"fast memory M must be >= 1, got {m}")
    cap = 1e4 * max(m, 2.0)
    lo = m + max(1e-9 * m, 1e-6) + len(statement.inputs)

    # Scalar minimization of rho(X) = psi(X)/(X - M) over (M, cap].
    res = minimize_scalar(
        lambda x: _rho_at(statement, x, m, access_weights),
        bounds=(lo, cap),
        method="bounded",
        options={"xatol": 1e-3 * m},
    )
    x0 = float(res.x)
    rho_gp = float(res.fun)

    # Detect "minimum at infinity": rho still decreasing at the cap.
    rho_cap = _rho_at(statement, cap, m, access_weights)
    at_infinity = rho_cap <= rho_gp * (1.0 + 1e-9)
    if at_infinity:
        # psi(X) <= X - u for u out-degree-one operands, so the limit of
        # psi(X)/(X-M) is the ratio of leading coefficients; estimate it
        # at the cap.
        x0 = math.inf
        rho_gp = rho_cap

    solution = None if math.isinf(x0) else psi_of_x(statement, x0, access_weights)

    rho = rho_gp
    lemma6 = False
    if statement.out_degree_one_inputs > 0:
        cap6 = 1.0 / statement.out_degree_one_inputs
        if cap6 <= rho:
            rho = cap6
            lemma6 = True

    return StatementBound(
        statement_name=statement.name,
        x0=x0,
        rho=rho,
        rho_gp=rho_gp,
        lemma6_applied=lemma6,
        solution=solution,
        vertex_count=statement.vertex_count,
    )
