"""Tests for the geometric-program solver (paper Eq. 3)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.theory.gp import maximize_subcomputation


class TestKnownOptima:
    def test_mmm_psi_is_x_over_3_to_three_halves(self):
        """MMM accesses {i,j},{i,k},{k,j}: psi(X) = (X/3)^{3/2}."""
        x = 3000.0
        sol = maximize_subcomputation(
            ("i", "j", "k"), (("i", "j"), ("i", "k"), ("k", "j")), x
        )
        assert sol.psi == pytest.approx((x / 3.0) ** 1.5, rel=1e-4)
        for v in ("i", "j", "k"):
            assert sol.sizes[v] == pytest.approx(math.sqrt(x / 3.0), rel=1e-3)

    def test_two_access_product_psi_is_x_over_2_squared(self):
        """Section 4.1 statement S: accesses {i,k},{k,j}: psi = (X/2)^2
        with K pinned at its lower bound 1."""
        x = 4096.0
        sol = maximize_subcomputation(
            ("i", "j", "k"), (("i", "k"), ("k", "j")), x
        )
        assert sol.psi == pytest.approx((x / 2.0) ** 2, rel=1e-3)
        assert sol.sizes["k"] == pytest.approx(1.0, abs=1e-3)

    def test_lu_s1_psi_is_x_minus_1(self):
        """LU S1: max K*I s.t. K*I + K <= X gives psi = X - 1 at K=1."""
        x = 1000.0
        sol = maximize_subcomputation(("k", "i"), (("i", "k"), ("k",)), x)
        assert sol.psi == pytest.approx(x - 1.0, rel=1e-4)
        assert sol.sizes["k"] == pytest.approx(1.0, abs=1e-3)

    def test_access_sizes_reported_at_optimum(self):
        x = 3000.0
        sol = maximize_subcomputation(
            ("i", "j", "k"), (("i", "j"), ("i", "k"), ("k", "j")), x
        )
        # all three access sets have size X/3 at the symmetric optimum
        for a in sol.access_sizes:
            assert a == pytest.approx(x / 3.0, rel=1e-3)

    def test_single_access_covering_all_vars(self):
        """One access over all variables: psi = X (stream everything)."""
        sol = maximize_subcomputation(("i", "j"), (("i", "j"),), 500.0)
        assert sol.psi == pytest.approx(500.0, rel=1e-4)


class TestWeights:
    def test_weight_two_halves_the_budget_share(self):
        """Doubling an access's weight is like halving X for it."""
        x = 1000.0
        base = maximize_subcomputation(("i",), (("i",),), x)
        weighted = maximize_subcomputation(
            ("i",), (("i",),), x, access_weights=(2.0,)
        )
        assert weighted.psi == pytest.approx(base.psi / 2.0, rel=1e-4)

    def test_fractional_weight_from_output_reuse(self):
        """Corollary 1: weight 1/rho shrinks the surface term."""
        x = 900.0
        w = 0.5
        sol = maximize_subcomputation(
            ("i", "j", "k"),
            (("i", "j"), ("i", "k"), ("k", "j")),
            x,
            access_weights=(1.0, w, 1.0),
        )
        plain = maximize_subcomputation(
            ("i", "j", "k"), (("i", "j"), ("i", "k"), ("k", "j")), x
        )
        assert sol.psi > plain.psi

    def test_wrong_weight_count_rejected(self):
        with pytest.raises(ValueError, match="one weight per access"):
            maximize_subcomputation(
                ("i",), (("i",),), 100.0, access_weights=(1.0, 1.0)
            )


class TestValidation:
    def test_no_loop_vars_rejected(self):
        with pytest.raises(ValueError):
            maximize_subcomputation((), (("i",),), 100.0)

    def test_no_accesses_rejected(self):
        with pytest.raises(ValueError, match="unbounded"):
            maximize_subcomputation(("i",), (), 100.0)

    def test_uncovered_variable_rejected(self):
        with pytest.raises(ValueError, match="no input"):
            maximize_subcomputation(("i", "z"), (("i",),), 100.0)

    def test_unknown_access_variable_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            maximize_subcomputation(("i",), (("q",),), 100.0)

    def test_budget_too_small_rejected(self):
        with pytest.raises(ValueError, match="cannot cover"):
            maximize_subcomputation(("i",), (("i",),), 0.5)


def _psi_exponent(loop_vars, access_sets, x_lo=1e6, x_hi=4e6):
    """p such that psi(X) ~ a * X^p at large X, from a log ratio."""
    lo = maximize_subcomputation(loop_vars, access_sets, x_lo)
    hi = maximize_subcomputation(loop_vars, access_sets, x_hi)
    return math.log(hi.psi / lo.psi) / math.log(x_hi / x_lo)


class TestPsiExponent:
    def test_mmm_exponent_three_halves(self):
        p = _psi_exponent(
            ("i", "j", "k"), (("i", "j"), ("i", "k"), ("k", "j"))
        )
        assert p == pytest.approx(1.5, abs=0.01)

    def test_outer_product_exponent_two(self):
        p = _psi_exponent(("i", "j", "k"), (("i", "k"), ("k", "j")))
        assert p == pytest.approx(2.0, abs=0.01)

    def test_streaming_exponent_one(self):
        p = _psi_exponent(("k", "i"), (("i", "k"), ("k",)))
        assert p == pytest.approx(1.0, abs=0.01)


class TestPropertyBased:
    @settings(max_examples=25, deadline=None)
    @given(x=st.floats(min_value=50.0, max_value=1e6))
    def test_psi_monotone_in_x_for_mmm(self, x):
        sets = (("i", "j"), ("i", "k"), ("k", "j"))
        lo = maximize_subcomputation(("i", "j", "k"), sets, x)
        hi = maximize_subcomputation(("i", "j", "k"), sets, 2.0 * x)
        assert hi.psi >= lo.psi * (1.0 - 1e-6)

    @settings(max_examples=25, deadline=None)
    @given(x=st.floats(min_value=20.0, max_value=1e5))
    def test_constraint_respected_at_optimum(self, x):
        sets = (("i", "j"), ("i", "k"), ("k", "j"))
        sol = maximize_subcomputation(("i", "j", "k"), sets, x)
        assert sum(sol.access_sizes) <= x * (1.0 + 1e-5)

    @settings(max_examples=25, deadline=None)
    @given(x=st.floats(min_value=20.0, max_value=1e5))
    def test_all_sizes_at_least_one(self, x):
        sets = (("i", "k"), ("k", "j"))
        sol = maximize_subcomputation(("i", "j", "k"), sets, x)
        for v, size in sol.sizes.items():
            assert size >= 1.0 - 1e-9

    @settings(max_examples=15, deadline=None)
    @given(
        x=st.floats(min_value=100.0, max_value=1e5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_optimum_beats_random_feasible_points(self, x, seed):
        """The GP optimum dominates randomly sampled feasible points."""
        import numpy as np

        sets = (("i", "j"), ("i", "k"), ("k", "j"))
        sol = maximize_subcomputation(("i", "j", "k"), sets, x)
        rng = np.random.default_rng(seed)
        for _ in range(20):
            # random feasible candidate: scale a random direction until
            # the constraint is met
            raw = np.exp(rng.uniform(0.0, math.log(x), size=3))
            i, j, k = raw
            surface = i * j + i * k + k * j
            scale = math.sqrt(x / surface) if surface > x else 1.0
            i, j, k = max(i * scale, 1), max(j * scale, 1), max(k * scale, 1)
            if i * j + i * k + k * j <= x:
                assert i * j * k <= sol.psi * (1.0 + 1e-4)
