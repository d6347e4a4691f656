import math
import warnings

import numpy as np
import pytest

from steerkit.criteria import evaluate
from steerkit.gaussian import (
    P_A,
    P_B,
    X_A,
    X_B,
    GaussianState,
    SymmetricTwoModeParams,
    boundary_collective_steering_mu,
    boundary_entanglement_mu,
    boundary_reid_steering_mu,
    conditional_min_variance,
    linear_combination_variance,
    symmetric_two_mode,
    symplectic_form,
)

NBAR_SAMPLES = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)


def family(nbar, mu):
    return symmetric_two_mode(SymmetricTwoModeParams(nbar=nbar, mu=mu))


class TestSymmetricTwoMode:
    def test_vacuum(self):
        state = family(0.0, 0.7)
        assert np.allclose(state.cov, np.eye(4), atol=1e-12)

    def test_pure_squeezed_entries(self):
        state = family(1.0, 1.0)
        assert state.cov[0, 0] == pytest.approx(3.0)
        assert state.cov[0, 2] == pytest.approx(2 * math.sqrt(2))
        assert state.cov[1, 3] == pytest.approx(-2 * math.sqrt(2))

    def test_uncorrelated_thermal(self):
        state = family(1.0, 0.0)
        assert np.allclose(state.cov, np.diag([3.0, 3.0, 3.0, 3.0]), atol=1e-12)

    @pytest.mark.parametrize("nbar", NBAR_SAMPLES)
    @pytest.mark.parametrize("mu", [0.0, 0.3, 0.7, 1.0])
    def test_family_always_physical(self, nbar, mu):
        state = family(nbar, mu)
        omega = symplectic_form(2)
        assert np.linalg.eigvalsh(state.cov + 1j * omega).min() >= -1e-9

    @pytest.mark.parametrize("nbar", [1e5, 1e7, 1e9, 1e12])
    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
    def test_large_nbar_members_are_physical(self, nbar, mu):
        # eigvalsh's roundoff on cov + iΩ grows with its norm (-1.3e-8 at
        # nbar 1e7, mu 1), so the check's tolerance scales with it.
        family(nbar, mu)

    def test_scaled_tolerance_still_rejects_unphysical_covariance(self):
        # Shrinking the diagonal of the nbar = 1e7 pure state by 1e-9 of itself
        # makes it unphysical: the smallest eigenvalue of cov + iΩ is -0.02,
        # far below the scaled tolerance of about 1.4e-7.
        cov = family(1e7, 1.0).cov * (1.0 - 1e-9 * np.eye(4))
        with pytest.raises(ValueError, match="uncertainty principle"):
            GaussianState(cov=cov)

    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    def test_symplectic_form_shared_and_read_only(self, n_modes):
        omega = symplectic_form(n_modes)
        assert omega is symplectic_form(n_modes) and not omega.flags.writeable
        assert np.array_equal(omega, np.kron(np.eye(n_modes), [[0.0, 1.0], [-1.0, 0.0]]))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SymmetricTwoModeParams(nbar=-0.1, mu=0.5)
        with pytest.raises(ValueError):
            SymmetricTwoModeParams(nbar=1.0, mu=1.2)

    def test_unphysical_covariance_rejected(self):
        with pytest.raises(ValueError):
            GaussianState(cov=0.5 * np.eye(2))

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_covariance_rejected(self, entry):
        cov = np.eye(4)
        cov[0, 0] = entry
        with pytest.raises(ValueError, match="covariance matrix must be finite"):
            GaussianState(cov=cov)

    @pytest.mark.parametrize("nbar", [1e200, 1e308])
    def test_overflowing_nbar_is_a_clear_error(self, nbar):
        # gamma = 1 + 2·nbar or delta ~ 2·mu·nbar overflows to inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="covariance matrix must be finite"):
                family(nbar, 0.5)


class TestLinearCombinationVariance:
    def test_x_difference_pure(self):
        state = family(1.0, 1.0)
        v = np.zeros(4)
        v[X_A], v[X_B] = 1.0, -1.0
        expected = 2 * 3.0 - 2 * 2 * math.sqrt(2)
        assert linear_combination_variance(state, v) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.3431, abs=1e-4)

    def test_zero_vector(self, rng):
        state = family(float(rng.uniform(0.1, 3)), float(rng.uniform(0, 1)))
        assert linear_combination_variance(state, np.zeros(4)) == 0.0

    def test_uncorrelated_case(self):
        state = family(2.0, 0.0)
        v = np.zeros(4)
        v[X_A], v[X_B] = 1.0, -1.0
        assert linear_combination_variance(state, v) == pytest.approx(2 * 5.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            linear_combination_variance(family(1.0, 0.5), np.ones(3))

    @pytest.mark.parametrize("nbar", NBAR_SAMPLES)
    @pytest.mark.parametrize("mu", [0.2, 0.8])
    def test_x_minus_equals_p_plus(self, nbar, mu):
        state = family(nbar, mu)
        minus = np.zeros(4)
        minus[X_A], minus[X_B] = 1.0, -1.0
        plus = np.zeros(4)
        plus[P_A], plus[P_B] = 1.0, 1.0
        v1 = linear_combination_variance(state, minus)
        v2 = linear_combination_variance(state, plus)
        assert abs(v1 - v2) < 1e-12


class TestConditionalMinVariance:
    def test_schur_formula(self):
        params = SymmetricTwoModeParams(nbar=1.0, mu=0.9)
        state = symmetric_two_mode(params)
        expected = params.gamma - params.delta**2 / params.gamma
        assert conditional_min_variance(state, X_B, X_A) == pytest.approx(expected, abs=1e-12)

    def test_pure_squeezed_value(self):
        state = family(1.0, 1.0)
        assert conditional_min_variance(state, X_B, X_A) == pytest.approx(1 / 3, abs=1e-12)

    def test_uncorrelated_unchanged(self):
        state = family(1.5, 0.0)
        assert conditional_min_variance(state, X_B, X_A) == pytest.approx(state.cov[X_B, X_B])

    def test_boundary_consistency_with_reid_threshold(self):
        # At the steering boundary the conditional variance is exactly 1.
        for nbar in (0.5, 1.0, 2.0):
            mu_star = boundary_reid_steering_mu(nbar)
            state = family(nbar, mu_star)
            assert conditional_min_variance(state, X_B, X_A) == pytest.approx(1.0, abs=1e-12)

    def test_index_validation(self):
        state = family(1.0, 0.5)
        with pytest.raises(ValueError):
            conditional_min_variance(state, X_B, X_B)
        with pytest.raises(ValueError):
            conditional_min_variance(state, 5, X_A)


class TestBoundaryFunctions:
    def test_entanglement_values(self):
        assert boundary_entanglement_mu(1.0) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert boundary_entanglement_mu(3.0) == pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    def test_reid_values(self):
        assert boundary_reid_steering_mu(1.0) == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
        assert boundary_reid_steering_mu(0.5) == pytest.approx(math.sqrt(2 / 3), abs=1e-12)

    def test_collective_values(self):
        assert boundary_collective_steering_mu(1.0) == pytest.approx(5 / (4 * math.sqrt(2)), abs=1e-12)
        assert boundary_collective_steering_mu(0.25) == pytest.approx(2 / (4 * math.sqrt(0.3125)), abs=1e-12)

    def test_small_nbar_collective_unreachable(self):
        assert boundary_collective_steering_mu(0.05) > 1.0

    def test_asymptotic_approach_to_one(self):
        for fn in (boundary_entanglement_mu, boundary_reid_steering_mu, boundary_collective_steering_mu):
            values = [fn(nbar) for nbar in (10.0, 100.0, 1000.0)]
            assert values[0] < values[1] < values[2] < 1.0
            assert abs(fn(1e6) - 1.0) < 1e-3

    def test_rejects_nonpositive_nbar(self):
        for fn in (boundary_entanglement_mu, boundary_reid_steering_mu, boundary_collective_steering_mu):
            with pytest.raises(ValueError):
                fn(0.0)

    @pytest.mark.parametrize("nbar", NBAR_SAMPLES)
    def test_curve_ordering(self, nbar):
        ent = boundary_entanglement_mu(nbar)
        reid = boundary_reid_steering_mu(nbar)
        coll = boundary_collective_steering_mu(nbar)
        assert ent < reid < coll


class TestBoundaryCriterionConsistency:
    """Each closed-form threshold must match the verdict flip of its criterion."""

    CASES = [
        ("duan-simon", boundary_entanglement_mu),
        ("reid-cv", boundary_reid_steering_mu),
        ("collective-cv-sum", boundary_collective_steering_mu),
    ]

    @pytest.mark.parametrize("criterion_id,boundary_fn", CASES)
    @pytest.mark.parametrize("nbar", [0.5, 1.0, 2.0, 5.0])
    def test_flip_at_threshold(self, criterion_id, boundary_fn, nbar):
        mu_star = boundary_fn(nbar)
        below = evaluate(criterion_id, family(nbar, mu_star * (1 - 1e-4)))
        above = evaluate(criterion_id, family(nbar, min(1.0, mu_star * (1 + 1e-4))))
        assert not below.violated
        assert above.violated

    @pytest.mark.parametrize("nbar", [0.5, 1.0, 2.0, 5.0])
    def test_product_and_sum_flip_together(self, nbar):
        # The conditional-variance product and the min-variance sum crit flip
        # at the same mu on this family (both variances are equal).
        mu_star = boundary_reid_steering_mu(nbar)
        for mu in (mu_star * (1 - 1e-4), min(1.0, mu_star * (1 + 1e-4))):
            state = family(nbar, mu)
            product_violated = evaluate("reid-cv", state).violated
            sum_lhs = conditional_min_variance(state, X_B, X_A) + conditional_min_variance(state, P_B, P_A)
            assert product_violated == (sum_lhs < 2.0)
