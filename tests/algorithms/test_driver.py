"""The one host driver behind ``factor()``: defaults, validation and
verification are the same code for every registered factorization."""

import dataclasses
import math

import numpy as np
import pytest

from repro.algorithms import (
    FactorVerificationError,
    factor,
    get_algorithm,
    list_algorithms,
    mmm25d,
)
from repro.algorithms import api
from repro.algorithms.api import resolve_params, verify_assembled

NAMES = [i.name for i in list_algorithms()]
NAMES_25D = [n for n in NAMES if get_algorithm(n).grid_family == "25d"]


def _input(name: str, n: int = 16) -> np.ndarray:
    a = np.random.default_rng(7).standard_normal((n, n))
    if get_algorithm(name).kind == "chol":
        return a @ a.T + n * np.eye(n)
    return a


@pytest.mark.parametrize("name", NAMES)
def test_defaults_are_the_resolvers(name):
    res = factor(name, _input(name), 4)
    nranks, grid, block = resolve_params(name, 16, 4)
    assert (res.nranks, res.grid, res.block) == (nranks, grid, block)
    assert res.name == name and res.n == 16 and nranks == 4
    assert res.meta["active_ranks"] == math.prod(grid)
    assert res.residual <= 1e-10
    assert ("orthogonality" in res.meta) == (
        get_algorithm(name).kind == "qr"
    )


def test_resolved_defaults_per_member():
    blocks = {name: resolve_params(name, 16, 4)[2] for name in NAMES}
    assert blocks == {
        "candmc25d": 2, "cholesky25d": 2, "conflux": 2,
        "caqr25d": 8, "confqr": 8,
        "qr2d": 16, "scalapack2d": 32, "slate2d": 16,
    }
    # v defaults to max(c, 2); a 2.5D block is never wider than the matrix
    assert resolve_params("conflux", 64, grid=(2, 2, 4))[2] == 4
    assert resolve_params("conflux", 3, grid=(1, 1, 1), block=8)[2] == 3
    assert resolve_params("caqr25d", 1, 1)[2] == 1
    # the 2D members keep their library block size as given
    assert resolve_params("scalapack2d", 3, 1)[2] == 32
    # only SLATE prefers the tall grid
    assert resolve_params("slate2d", 16, 8)[1] == (4, 2)
    assert resolve_params("qr2d", 16, 8)[1] == (2, 4)
    # nranks defaults to the grid's rank count
    assert resolve_params("qr2d", 16, grid=(2, 3))[0] == 6
    assert resolve_params("confqr", 16, grid=(2, 2, 3))[0] == 12


@pytest.mark.parametrize("name", NAMES_25D)
def test_non_square_grid_rejected(name):
    with pytest.raises(ValueError) as exc:
        factor(name, _input(name), 4, grid=(2, 1, 2))
    assert str(exc.value) == (
        f"{name}: grid must be square in rows/cols, got (2, 1, 2)"
    )


@pytest.mark.parametrize("name", NAMES)
def test_grid_larger_than_communicator_rejected(name):
    is_25d = get_algorithm(name).grid_family == "25d"
    grid = (2, 2, 2) if is_25d else (2, 4)
    with pytest.raises(ValueError) as exc:
        factor(name, _input(name), 4, grid=grid)
    assert str(exc.value) == f"{name}: grid {grid} needs 8 ranks, have 4"


@pytest.mark.parametrize("name", NAMES_25D)
def test_idle_ranks_change_nothing(name):
    """Ranks past the grid idle: they move no byte, and the grid's
    ranks factor and communicate exactly as on a communicator of their
    own size."""
    a = _input(name)
    exact = factor(name, a, 8, grid=(2, 2, 2))
    spare = factor(name, a, 11, grid=(2, 2, 2))
    assert spare.meta["active_ranks"] == 8
    for part in ("lower", "upper", "perm"):
        assert np.array_equal(getattr(spare, part), getattr(exact, part))
    assert spare.volume.sent_bytes[:8] == exact.volume.sent_bytes
    assert spare.volume.recv_bytes[:8] == exact.volume.recv_bytes
    assert spare.volume.sent_bytes[8:] == (0, 0, 0)
    assert spare.volume.recv_bytes[8:] == (0, 0, 0)


@pytest.mark.parametrize("name", NAMES)
def test_block_below_floor_rejected(name):
    info = get_algorithm(name)
    if info.block_at_least_layers:
        grid, block, floor = (1, 1, 4), 3, 4
    else:
        grid = (1, 1, 4) if info.grid_family == "25d" else (2, 2)
        block, floor = 0, 1
    with pytest.raises(ValueError) as exc:
        factor(name, _input(name), grid=grid, **{info.block_param: block})
    assert str(exc.value) == (
        f"{name}: {info.block_param}={block} must be >= {floor}"
    )


@pytest.mark.parametrize("name", NAMES)
def test_wrong_grid_arity_rejected(name):
    is_25d = get_algorithm(name).grid_family == "25d"
    if is_25d:
        family, arity, grid = "25d", 3, (2, 2)
    else:
        family, arity, grid = "2d", 2, (2, 2, 1)
    for nranks in (None, 4):
        with pytest.raises(ValueError) as exc:
            factor(name, _input(name), nranks, grid=grid)
        assert str(exc.value) == (
            f"{name}: a {family} grid has {arity} dimensions, got {grid}"
        )


@pytest.mark.parametrize("name", NAMES)
def test_unknown_keyword_rejected(name):
    info = get_algorithm(name)
    other = "nb" if info.block_param == "v" else "v"
    # timeout_s= has one spelling: "timeout" is as unknown as a typo
    for bad in ("m_max", other, "timeout"):
        with pytest.raises(TypeError) as exc:
            factor(name, _input(name), 4, **{bad: 4})
        assert str(exc.value) == (
            f"{name}: unexpected keyword argument(s) {bad}; accepted: "
            f"{info.block_param}, timeout_s"
        )


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_non_finite_input_is_refused_before_any_rank_starts(
    monkeypatch, name, bad
):
    """Five of the eight members used to return normally with
    ``residual = nan`` (every tolerance was ``value > tol``); the other
    three only failed because ``solve_triangular`` happens to check."""

    def never(*args, **kwargs):
        raise AssertionError("rank threads started on a non-finite input")

    monkeypatch.setattr(api, "run_spmd", never)
    a = _input(name)
    a[5, 1] = a[2, 3] = bad  # row-major first: (2, 3)
    with pytest.raises(ValueError, match=r"matrix entry \(2, 3\) is "):
        factor(name, a, 4)


@pytest.mark.parametrize("name", NAMES)
def test_half_precision_and_complex_input_refused(name):
    a = _input(name)
    with pytest.raises(TypeError, match="supports dtypes"):
        factor(name, a.astype(np.float16), 4)
    with pytest.raises(TypeError, match="expects a real numeric matrix"):
        factor(name, a.astype(np.complex128), 4)


def test_needs_nranks_or_grid():
    with pytest.raises(ValueError, match="needs nranks= or grid="):
        factor("conflux", _input("conflux"))


def test_mmm_shares_the_grid_resolver():
    """mmm25d is not registered; it resolves its grid by the
    resolver's rules and words a bad grid as the resolver does."""
    a = np.eye(8)
    with pytest.raises(ValueError) as exc:
        mmm25d(a, a, 4, grid=(2, 1, 1))
    assert str(exc.value) == (
        "mmm25d: grid must be square in rows/cols, got (2, 1, 1)"
    )
    with pytest.raises(ValueError, match="mmm25d: grid .* needs 8 ranks"):
        mmm25d(a, a, 4, grid=(2, 2, 2))


@pytest.mark.parametrize("name", NAMES)
def test_every_member_reaches_run_spmd_through_the_driver(
    name, monkeypatch
):
    """One driver, no fork: the registered program is handed to the
    ``run_spmd`` that ``api`` looks up at call time."""
    real, seen = api.run_spmd, []

    def spy(nranks, fn, *args, **kwargs):
        seen.append((nranks, fn, args[1:]))
        return real(nranks, fn, *args, **kwargs)

    monkeypatch.setattr(api, "run_spmd", spy)
    res = factor(name, _input(name), 4)
    assert seen == [
        (4, get_algorithm(name).program,
         (res.grid[0], res.grid[-1], res.block))
    ]


class TestCholeskyVerification:
    def _factors(self):
        a = _input("cholesky25d")
        return a, np.linalg.cholesky(a)

    def test_exact_factor_accepted(self):
        a, lower = self._factors()
        residual, meta = verify_assembled(
            get_algorithm("cholesky25d"), a, lower, lower.T, np.arange(16)
        )
        assert residual < 1e-14 and meta == {}

    def test_perturbed_factor_names_the_residual(self):
        a, lower = self._factors()
        lower[5, 2] += 1e-3
        with pytest.raises(FactorVerificationError) as exc:
            verify_assembled(
                get_algorithm("cholesky25d"), a, lower, lower.T,
                np.arange(16),
            )
        assert exc.value.invariant == "residual"
        assert "L L^T" in str(exc.value)

    def test_broken_run_raises_a_verification_error(self, monkeypatch):
        """What ``chaos_task`` catches: a factorization that completes
        wrong is a FactorVerificationError, not a bare RuntimeError."""
        info = get_algorithm("cholesky25d")

        def corrupt(n, grid, block, results):
            lower, upper, perm = info.assemble(n, grid, block, results)
            lower[3, 1] += 1.0
            return lower, upper, perm

        monkeypatch.setitem(
            api.REGISTRY, "cholesky25d",
            dataclasses.replace(info, assemble=corrupt),
        )
        with pytest.raises(FactorVerificationError) as exc:
            factor("cholesky25d", _input("cholesky25d"), 4)
        assert exc.value.invariant == "residual"


@pytest.mark.parametrize("name", ["confqr", "cholesky25d"])
def test_nan_factors_fail_the_numerical_acceptance(name):
    """``nan > tol`` is false; the bound has to be written so a NaN
    residual or orthogonality defect fails it."""
    info = get_algorithm(name)
    a = _input(name)
    if info.kind == "qr":
        lower, upper = np.linalg.qr(a)
    else:
        lower = np.linalg.cholesky(a)
        upper = lower.T
    verify_assembled(info, a, lower, upper, np.arange(16))
    lower = lower.copy()
    lower[7, 2] = np.nan
    with pytest.raises(FactorVerificationError) as exc:
        verify_assembled(info, a, lower, upper, np.arange(16))
    assert exc.value.invariant == "residual"
    if info.kind == "qr":  # NaN below R's diagonal is structural
        upper = upper.copy()
        upper[9, 1] = np.nan
        with pytest.raises(FactorVerificationError) as exc:
            verify_assembled(info, a, np.linalg.qr(a)[0], upper, np.arange(16))
        assert exc.value.invariant == "upper_triangular"


def test_qr_verification_names_the_invariant():
    info = get_algorithm("confqr")
    a = _input("confqr")
    q, r = np.linalg.qr(a)
    residual, meta = verify_assembled(info, a, q, r, np.arange(16))
    assert residual < 1e-14 and meta["orthogonality"] < 1e-14
    skewed = q.copy()
    skewed[:, 0] *= 1.0 + 1e-6
    with pytest.raises(FactorVerificationError) as exc:
        verify_assembled(info, a, skewed, r, np.arange(16))
    assert exc.value.invariant == "residual"
    with pytest.raises(FactorVerificationError) as exc:
        verify_assembled(info, skewed @ r, skewed, r, np.arange(16))
    assert exc.value.invariant == "orthogonality"
    assert str(exc.value).startswith("orthogonality: confqr ||Q^T Q - I||")


def test_lu_verification_leaves_the_residual_to_the_caller():
    """Structural invariants only, so a chaos run that completes wrong
    can still be classified as silent corruption."""
    info = get_algorithm("conflux")
    a = _input("conflux")
    lower, upper = np.eye(16), np.triu(a)
    residual, meta = verify_assembled(
        info, a, lower, upper, np.arange(16)
    )
    assert residual > 1e-3 and meta == {}
