"""``householder_qr`` (one LAPACK ``dgeqrf`` call) and ``apply_q`` /
``apply_qt`` (one ``dormqr`` each) against the interpreted reflector
loops they replaced.

The references below are the kernels as they used to be, kept as the
oracle.  LAPACK accumulates in a different order, so values agree to
rounding, not bit for bit; everything else must be exact: shapes, the
columns that need no reflector (``tau == 0`` with a unit ``v[j, j]``),
the unit diagonal and exact zeros above it in V, an exactly
upper-trapezoidal R, the C memory layout of every result (a payload's
layout is wire: the fault injector addresses bytes in memory order),
and the errors a 1-D input or a nonconforming operand raises.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.kernels import apply_q, apply_qt, householder_qr

TOL = 1e-13


def _reference_qr(a):
    work = np.array(a, dtype=np.float64, copy=True)
    if work.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {work.shape}")
    m, n = work.shape
    k = min(m, n)
    v = np.zeros((m, k))
    tau = np.zeros(k)
    for j in range(k):
        alpha = work[j, j]
        sigma = float(np.dot(work[j + 1 :, j], work[j + 1 :, j]))
        if sigma == 0.0:
            v[j, j] = 1.0
            continue
        beta = -math.copysign(math.hypot(alpha, math.sqrt(sigma)), alpha)
        tau[j] = (beta - alpha) / beta
        w = work[j:, j] / (alpha - beta)
        w[0] = 1.0
        v[j:, j] = w
        if j + 1 < n:
            work[j:, j + 1 :] -= tau[j] * np.outer(w, w @ work[j:, j + 1 :])
        work[j, j] = beta
        work[j + 1 :, j] = 0.0
    return v, tau, np.triu(work[:k, :])


def _reference_conforming(rows, b, what):
    out = np.array(b, dtype=np.float64, copy=True)
    if out.ndim != 2:
        raise ValueError(
            f"{what} expects a 2D matrix, got shape {out.shape}"
        )
    if out.shape[0] != rows:
        raise ValueError(
            f"{what}: operand has {out.shape[0]} rows but the factored "
            f"panel has {rows}"
        )
    return out


def _reference_apply_qt(v, tau, b):
    out = _reference_conforming(v.shape[0], b, "apply_qt")
    for j in range(len(tau)):
        if tau[j] == 0.0:
            continue
        w = v[:, j]
        out -= tau[j] * np.outer(w, w @ out)
    return out


def _reference_apply_q(v, tau, b):
    out = _reference_conforming(v.shape[0], b, "apply_q")
    for j in range(len(tau) - 1, -1, -1):
        if tau[j] == 0.0:
            continue
        w = v[:, j]
        out -= tau[j] * np.outer(w, w @ out)
    return out


APPLIES = {
    "apply_q": (apply_q, _reference_apply_q),
    "apply_qt": (apply_qt, _reference_apply_qt),
}

#: tall, tall and narrow, square, wide, one row, one column, 1 x 1
SHAPES = [(40, 8), (17, 5), (8, 8), (4, 9), (1, 6), (9, 1), (1, 1)]
EMPTY = [(0, 3), (3, 0), (0, 0)]


def _panel(shape, seed, kind="gaussian"):
    """A seeded panel; ``zero`` zeroes one column, ``reduced`` is upper
    trapezoidal, so every column is already reduced — the columns that
    need no reflector."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4)
    if kind == "zero":
        a[:, int(rng.integers(0, min(shape)))] = 0.0
    elif kind == "reduced":
        a = np.triu(a)
    return a


def _close(got, want, scale):
    assert got.shape == want.shape
    if want.size:
        assert np.abs(got - want).max() <= TOL * max(scale, 1.0)


def _assert_conventions(a, v, tau, r):
    m, n = a.shape
    k = min(m, n)
    assert v.shape == (m, k) and tau.shape == (k,) and r.shape == (k, n)
    assert v.flags.c_contiguous and r.flags.c_contiguous
    assert np.all(np.diagonal(v) == 1.0)
    assert np.all(np.triu(v, 1) == 0.0)
    assert np.all(np.tril(r, -1) == 0.0)


@pytest.mark.parametrize("kind", ["gaussian", "zero", "reduced"])
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_factors_match_the_loop(shape, seed, kind):
    a = _panel(shape, seed, kind)
    before = a.copy()
    v, tau, r = householder_qr(a)
    rv, rtau, rr = _reference_qr(a)
    np.testing.assert_array_equal(a, before)
    _assert_conventions(a, v, tau, r)
    np.testing.assert_array_equal(tau == 0.0, rtau == 0.0)
    if kind != "gaussian":
        assert np.any(tau == 0.0)
    # a column needing no reflector keeps exactly e_j in V
    for j in np.flatnonzero(tau == 0.0):
        np.testing.assert_array_equal(v[:, j], rv[:, j])
    _close(v, rv, 1.0)
    _close(tau, rtau, 1.0)
    _close(r, rr, np.abs(a).max())


@pytest.mark.parametrize("kind", ["gaussian", "zero", "reduced"])
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("name", sorted(APPLIES))
def test_applies_match_the_loop(shape, kind, name):
    kernel, reference = APPLIES[name]
    a = _panel(shape, 7, kind)
    v, tau, _ = householder_qr(a)
    rng = np.random.default_rng(11)
    for cols in (0, 1, 3, 12):
        b = rng.standard_normal((shape[0], cols))
        before = b.copy()
        got = kernel(v, tau, b)
        np.testing.assert_array_equal(b, before)
        assert got.flags.c_contiguous
        _close(got, reference(v, tau, b), np.abs(b).max(initial=1.0))


@pytest.mark.parametrize("shape", EMPTY)
def test_empty_panels(shape):
    a = np.zeros(shape)
    got, want = householder_qr(a), _reference_qr(a)
    for x, y in zip(got, want):
        assert x.shape == y.shape
    v, tau, _ = got
    b = np.ones((shape[0], 2))
    for name, (kernel, reference) in APPLIES.items():
        np.testing.assert_array_equal(
            kernel(v, tau, b), reference(v, tau, b)
        )


def test_q_is_orthogonal_and_reproduces_the_panel():
    a = _panel((30, 6), 3)
    v, tau, r = householder_qr(a)
    q = apply_q(v, tau, np.eye(30))
    np.testing.assert_allclose(q.T @ q, np.eye(30), atol=1e-13)
    scale = 1e-12 * np.abs(a).max()
    np.testing.assert_allclose(q[:, :6] @ r, a, atol=scale)
    np.testing.assert_allclose(apply_qt(v, tau, a)[:6], r, atol=scale)


def _error(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


def test_one_dimensional_input_rejected_as_before():
    a = np.arange(5.0)
    assert _error(householder_qr, a) == _error(_reference_qr, a)


@pytest.mark.parametrize("name", sorted(APPLIES))
@pytest.mark.parametrize(
    "b", [np.ones(6), np.ones((5, 2)), np.ones((7, 2))],
    ids=["vector", "short", "tall"],
)
def test_nonconforming_operand_rejected_as_before(name, b):
    kernel, reference = APPLIES[name]
    v, tau, _ = householder_qr(_panel((6, 3), 5))
    assert _error(kernel, v, tau, b) == _error(reference, v, tau, b)
    # a degenerate panel (every tau 0) must not let it through either
    zero = np.zeros(3)
    assert _error(kernel, v, zero, b) == _error(reference, v, zero, b)
