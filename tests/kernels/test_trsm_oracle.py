"""``trsm_lower_unit`` / ``trsm_upper`` (one LAPACK ``dtrtrs`` call
each) against ``scipy.linalg.solve_triangular``, the checked wrapper
they replaced.

The references below are the kernels as they used to be, kept as the
oracle: the direct call must return the *same bits* in the *same memory
layout* — the solves feed L, U and every payload after them, and a
payload's layout is wire (the fault injector addresses bytes in memory
order) — and raise what scipy raises, in scipy's order: a non-finite
operand before a shape mismatch before a zero pivot.  The one-column
cases matter: OpenBLAS's ``dtrtrs`` solves them with ``dtrsv``, so a
kernel calling ``dtrsm`` directly fails here.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from repro.kernels import lu_partial_pivot, trsm_lower_unit, trsm_upper


def _reference_lower_unit(l, b):
    return solve_triangular(l, b, lower=True, unit_diagonal=True)


def _reference_upper(u, b, side="right"):
    if side == "right":
        return solve_triangular(u.T, b.T, lower=True).T
    return solve_triangular(u, b, lower=False)


#: name -> (kernel, reference, which axis of B the triangle's order is)
SOLVES = {
    "lower_unit": (trsm_lower_unit, _reference_lower_unit, 0),
    "upper_right": (
        lambda u, b: trsm_upper(u, b, side="right"),
        lambda u, b: _reference_upper(u, b, side="right"),
        1,
    ),
    "upper_left": (
        lambda u, b: trsm_upper(u, b, side="left"),
        lambda u, b: _reference_upper(u, b, side="left"),
        0,
    ),
}

#: B: tall, square, wide, one column, one row, 1x1, no rows, no columns
B_SHAPES = [
    (40, 8), (16, 16), (4, 24), (7, 1), (1, 7), (1, 1), (0, 5), (5, 0),
]

LAYOUTS = ["C", "F", "strided"]


def _laid_out(x: np.ndarray, layout: str) -> np.ndarray:
    if layout == "C":
        return np.ascontiguousarray(x)
    if layout == "F":
        return np.asfortranarray(x)
    big = np.full((2 * x.shape[0] + 1, 2 * x.shape[1] + 1), np.nan)
    big[1::2, 1::2] = x
    view = big[1::2, 1::2]
    assert x.size <= 1 or not (
        view.flags["C_CONTIGUOUS"] or view.flags["F_CONTIGUOUS"]
    )
    return view


def _combined_lu(n: int, rng) -> np.ndarray:
    """Both triangles dense, as combined-LU storage keeps them: a solve
    must ignore the triangle (and unit diagonal) it does not read."""
    return rng.standard_normal((n, n)) / max(n, 1) + 2.0 * np.eye(n)


def _outcome(fn, a, b):
    try:
        return fn(a, b)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), str(exc)


def _assert_same(a, b, kernel, reference) -> None:
    before = (a.copy(), b.copy())
    got = _outcome(kernel, a, b)
    want = _outcome(reference, a, b)
    # neither operand is written, on success or on failure
    np.testing.assert_array_equal(a, before[0])
    np.testing.assert_array_equal(b, before[1])
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, np.ndarray), got
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # bitwise, -0.0 and all
    for flag in ("C_CONTIGUOUS", "F_CONTIGUOUS"):
        assert got.flags[flag] == want.flags[flag], flag


@pytest.mark.parametrize("b_layout", LAYOUTS)
@pytest.mark.parametrize("a_layout", LAYOUTS)
@pytest.mark.parametrize("shape", B_SHAPES)
@pytest.mark.parametrize("solve", sorted(SOLVES))
def test_bitwise_equal_in_the_same_layout(solve, shape, a_layout, b_layout):
    kernel, reference, axis = SOLVES[solve]
    rng = np.random.default_rng(sum(shape) * 7 + len(solve))
    a = _laid_out(_combined_lu(shape[axis], rng), a_layout)
    b = _laid_out(rng.standard_normal(shape), b_layout)
    _assert_same(a, b, kernel, reference)


@pytest.mark.parametrize("solve", sorted(SOLVES))
def test_vector_right_hand_side(solve):
    kernel, reference, _ = SOLVES[solve]
    rng = np.random.default_rng(11)
    a, b = _combined_lu(9, rng), rng.standard_normal(9)
    _assert_same(a, b, kernel, reference)


@pytest.mark.parametrize("solve", sorted(SOLVES))
def test_getrf_factors_as_the_algorithms_pass_them(solve):
    """A00 straight out of GEPP, solved against panel-shaped pieces."""
    kernel, reference, axis = SOLVES[solve]
    rng = np.random.default_rng(12)
    a00, _ = lu_partial_pivot(rng.standard_normal((16, 16)))
    for k in (1, 4, 37):
        shape = (16, k) if axis == 0 else (k, 16)
        _assert_same(a00, rng.standard_normal(shape), kernel, reference)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["a_lower", "a_upper", "a_diag", "b"])
@pytest.mark.parametrize("solve", sorted(SOLVES))
def test_non_finite_operand_raises_value_error(solve, where, bad):
    """Anywhere in either operand, read by the solve or not."""
    kernel, reference, axis = SOLVES[solve]
    rng = np.random.default_rng(13)
    a = _combined_lu(6, rng)
    b = rng.standard_normal((6, 3) if axis == 0 else (3, 6))
    target, at = {
        "a_lower": (a, (4, 1)),
        "a_upper": (a, (1, 4)),
        "a_diag": (a, (2, 2)),
        "b": (b, (1, 2)),
    }[where]
    target[at] = bad
    _assert_same(a, b, kernel, reference)
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        kernel(a, b)


@pytest.mark.parametrize("solve", sorted(SOLVES))
def test_zero_diagonal(solve):
    """The first zero pivot is named in a non-unit solve; a unit solve
    never reads the diagonal."""
    kernel, reference, axis = SOLVES[solve]
    rng = np.random.default_rng(14)
    a = _combined_lu(6, rng)
    a[3, 3] = a[5, 5] = 0.0
    b = rng.standard_normal((6, 2) if axis == 0 else (2, 6))
    _assert_same(a, b, kernel, reference)
    if solve == "lower_unit":
        assert isinstance(kernel(a, b), np.ndarray)
    else:
        with pytest.raises(
            np.linalg.LinAlgError,
            match=r"^singular matrix: resolution failed at diagonal 3$",
        ):
            kernel(a, b)
    # precedence: a non-finite entry in either operand is reported first
    b[0, 0] = np.nan
    _assert_same(a, b, kernel, reference)
    with pytest.raises(ValueError, match="infs or NaNs"):
        kernel(a, b)
    b[0, 0] = 1.0
    a[0, 1] = a[1, 0] = np.inf
    _assert_same(a, b, kernel, reference)
    # an empty right-hand side returns before the pivots are looked at
    a[0, 1] = a[1, 0] = 0.5
    empty = np.empty((6, 0) if axis == 0 else (0, 6))
    _assert_same(a, empty, kernel, reference)
    assert kernel(a, empty).shape == empty.shape


@pytest.mark.parametrize("solve", sorted(SOLVES))
def test_shape_errors(solve):
    kernel, reference, axis = SOLVES[solve]
    rng = np.random.default_rng(15)
    square = _combined_lu(4, rng)
    _assert_same(square, rng.standard_normal((5, 5)), kernel, reference)
    _assert_same(
        rng.standard_normal((4, 5)), rng.standard_normal((4, 4)),
        kernel, reference,
    )
    with pytest.raises(ValueError):
        kernel(square, rng.standard_normal((3, 3)))
