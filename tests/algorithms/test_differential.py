"""Cross-algorithm differential test matrix.

Every registered implementation — the LU family, 2.5D Cholesky and the
QR family — runs against numpy.linalg reference factors over a shared
grid of shapes, [G, G, c] grid geometries and input dtypes, asserting
residual and (where applicable) orthogonality tolerances, structural
invariants via :func:`check_factors`, and a |det| cross-check that ties
the assembled factors back to ``numpy.linalg.det``.

The matrices come from the shared adversarial fixtures in
``tests/conftest.py``: Gaussian (plus a non-dividing odd size),
ill-conditioned (geometric singular values), Kahan
(rank-revealing-hostile) and the Wilkinson pivot-growth matrix.
"""

import numpy as np
import pytest

from repro.algorithms import REGISTRY, factor
from repro.algorithms.base import check_factors

#: Every registered factorization.
ALGOS = tuple(sorted(REGISTRY))
LU_ALGOS = ("conflux", "scalapack2d", "slate2d", "candmc25d")
QR_ALGOS = ("caqr25d", "confqr", "qr2d")

#: [G, G, c] geometries; 2D implementations get the flattened (G, G*c).
GRIDS = [(1, 1, 1), (2, 2, 1), (2, 2, 2)]

ADVERSARIAL = [
    ("ill_conditioned", 16),
    ("kahan", 16),
    ("wilkinson_growth", 12),
]


def test_registry_spans_all_three_factorizations():
    """The differential matrix really covers LU, Cholesky and QR."""
    assert set(LU_ALGOS) <= set(ALGOS)
    assert set(QR_ALGOS) <= set(ALGOS)
    assert "cholesky25d" in ALGOS


def _factor(impl: str, a: np.ndarray, grid3: tuple[int, int, int]):
    g, _, c = grid3
    nranks = g * g * c
    if impl in ("conflux", "candmc25d", "cholesky25d", "caqr25d",
                "confqr"):
        return factor(impl, a, nranks, grid=(g, g, c), v=4)
    return factor(impl, a, nranks, grid=(g, g * c), nb=4)


def _check_against_numpy(impl: str, a64: np.ndarray, res) -> None:
    norm = np.linalg.norm(a64)
    if impl in LU_ALGOS:
        chk = check_factors(
            a64, res.lower, res.upper, res.perm, residual_tol=1e-10
        )
        assert chk.ok, chk.describe()
        np.testing.assert_allclose(
            res.lower @ res.upper, a64[res.perm], atol=1e-10 * norm
        )
        # numpy.linalg cross-check: the pivots must reproduce |det A|.
        assert np.prod(np.abs(np.diag(res.upper))) == pytest.approx(
            abs(np.linalg.det(a64)), rel=1e-6
        )
    elif impl == "cholesky25d":
        assert res.residual <= 1e-10
        np.testing.assert_allclose(
            res.lower, np.linalg.cholesky(a64), atol=1e-8 * norm
        )
    else:
        assert res.residual <= 1e-10
        assert res.meta["orthogonality"] <= 1e-10
        # numpy.linalg reference R: unique up to row signs.
        r_ref = np.linalg.qr(a64, mode="r")
        np.testing.assert_allclose(
            np.abs(res.upper), np.abs(np.triu(r_ref)), atol=1e-9 * norm
        )


class TestDifferentialMatrix:
    @pytest.mark.parametrize("grid3", GRIDS, ids=str)
    @pytest.mark.parametrize("impl", ALGOS)
    def test_gaussian_over_grid_geometries(
        self, impl, grid3, adversarial_case, spd_of
    ):
        base = adversarial_case("gaussian", 16)
        a = spd_of(base) if impl == "cholesky25d" else base
        res = _factor(impl, a, grid3)
        _check_against_numpy(impl, a, res)

    @pytest.mark.parametrize("impl", ALGOS)
    def test_odd_size_exercises_short_blocks(
        self, impl, adversarial_case, spd_of
    ):
        base = adversarial_case("gaussian", 13)
        a = spd_of(base) if impl == "cholesky25d" else base
        res = _factor(impl, a, (2, 2, 2))
        _check_against_numpy(impl, a, res)

    @pytest.mark.parametrize("case,n", ADVERSARIAL)
    @pytest.mark.parametrize("impl", ALGOS)
    def test_adversarial_matrices(
        self, impl, case, n, adversarial_case, spd_of
    ):
        base = adversarial_case(case, n)
        a = spd_of(base) if impl == "cholesky25d" else base
        res = _factor(impl, a, (2, 2, 2))
        _check_against_numpy(impl, a, res)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32],
                             ids=["f64", "f32"])
    @pytest.mark.parametrize("impl", ALGOS)
    def test_input_dtypes(self, impl, dtype, adversarial_case, spd_of):
        base = adversarial_case("gaussian", 16)
        a = spd_of(base) if impl == "cholesky25d" else base
        a = np.asarray(a, dtype=dtype)
        res = _factor(impl, a, (2, 2, 1))
        # Implementations compute in float64 regardless of input dtype.
        _check_against_numpy(impl, a.astype(np.float64), res)
