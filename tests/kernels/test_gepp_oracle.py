"""``lu_partial_pivot`` (one LAPACK ``dgetrf`` call) against the loop it
replaced.

``_reference_gepp`` below is the interpreted column-by-column GEPP the
kernel used to be, kept verbatim as the oracle: the library routine
must choose the *same pivots* — every ledger, clock and chaos pin hangs
off the tournament's row choices — and agree on the factors to
rounding.  A BLAS build whose ``getrf`` breaks pivot equality fails
here, under its own name, rather than somewhere inside the pins.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import lu_partial_pivot, tournament_pivot_rows
from repro.kernels import tournament as tournament_module


def _reference_gepp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unblocked GEPP, one ``np.outer`` Schur update per column."""
    lu = np.array(a, dtype=np.float64)
    m, n = lu.shape
    steps = min(m, n)
    piv = np.arange(steps)
    for k in range(steps):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        piv[k] = p
        if p != k:
            lu[[k, p], :] = lu[[p, k], :]
        pivot = lu[k, k]
        if pivot == 0.0:
            continue  # singular column: L entries stay zero
        if k + 1 < m:
            lu[k + 1 :, k] /= pivot
            lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 :])
    return lu, piv


def _assert_matches_oracle(a: np.ndarray) -> None:
    lu, piv = lu_partial_pivot(a)
    ref_lu, ref_piv = _reference_gepp(a)
    np.testing.assert_array_equal(piv, ref_piv)
    np.testing.assert_allclose(lu, ref_lu, rtol=0, atol=1e-12)
    assert lu.shape == np.shape(a)
    assert lu.flags["C_CONTIGUOUS"] and lu.dtype == np.float64
    assert piv.dtype == np.intp and piv.shape == (min(np.shape(a)),)


#: tall (what TSLU factors), square (the A00 block) and wide panels
SHAPES = [
    (64, 2), (128, 16), (400, 64), (1024, 64), (1024, 8),
    (1, 1), (2, 2), (16, 16), (64, 64),
    (1, 5), (8, 32), (64, 128),
    (5, 1), (7, 3),
]


@pytest.mark.parametrize("m,n", SHAPES)
@pytest.mark.parametrize("seed", [0, 1])
def test_gaussian_panels_same_pivots_same_factors(m, n, seed):
    rng = np.random.default_rng(1000 * seed + 31 * m + n)
    _assert_matches_oracle(rng.standard_normal((m, n)))


def test_first_row_of_maximal_magnitude_wins_a_tie():
    a = np.random.default_rng(3).standard_normal((12, 4))
    a[:, 0] = [2.0, -2.0] * 6  # every row ties in column 0
    _, piv = lu_partial_pivot(a)
    assert piv[0] == 0
    a[0, 0] = 1.0  # now rows 1.. tie: the first of them wins
    _, piv = lu_partial_pivot(a)
    assert piv[0] == 1
    _assert_matches_oracle(a)


def test_zero_column_keeps_zero_multipliers_and_continues():
    a = np.random.default_rng(4).standard_normal((9, 4))
    a[:, 1] = 0.0
    a[:, 0] = np.arange(1.0, 10.0)  # exact multipliers: column 1 stays 0
    lu, piv = lu_partial_pivot(a)
    assert piv[1] == 1 and not lu[1:, 1].any()
    _assert_matches_oracle(a)
    _assert_matches_oracle(np.zeros((5, 3)))
    _assert_matches_oracle(np.ones((4, 4)))  # rank one: zero from step 1


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_empty_panels_return_empty(shape):
    _assert_matches_oracle(np.empty(shape))


def test_integer_input_is_factored_as_float64():
    a = np.array([[2, 1, 1], [4, 3, 3], [8, 7, 9], [6, 7, 9]])
    _assert_matches_oracle(a)
    assert a.dtype.kind == "i"  # and the caller's array is untouched
    np.testing.assert_array_equal(a[0], [2, 1, 1])


@pytest.mark.parametrize("order", ["C", "F"])
def test_input_is_not_mutated_and_any_layout_is_accepted(order):
    a = np.asarray(
        np.random.default_rng(5).standard_normal((20, 6)), order=order
    )
    before = a.copy()
    _assert_matches_oracle(a)
    np.testing.assert_array_equal(a, before)
    _assert_matches_oracle(a[::2, 1:5])  # a strided view


def test_non_matrix_rejected():
    with pytest.raises(ValueError, match="matrix"):
        lu_partial_pivot(np.zeros(4))


@pytest.mark.parametrize("nchunks", [1, 2, 4])
@pytest.mark.parametrize("rows,v", [(64, 4), (203, 8), (1024, 64)])
def test_tournament_selects_the_oracle_driven_rows(
    monkeypatch, rows, v, nchunks
):
    panel = np.random.default_rng(rows + v).standard_normal((rows, v))
    ids = np.random.default_rng(7).permutation(10 * rows)[:rows]
    got = tournament_pivot_rows(panel, ids, v, nchunks=nchunks)
    monkeypatch.setattr(
        tournament_module, "lu_partial_pivot", _reference_gepp
    )
    want = tournament_pivot_rows(panel, ids, v, nchunks=nchunks)
    np.testing.assert_array_equal(got[0], want[0])  # the chosen rows
    np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-12)
    np.testing.assert_array_equal(got[2], want[2])  # original values
