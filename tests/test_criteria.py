import math

import numpy as np
import pytest
from scipy.linalg import expm

import loop_reference
from steerkit.core import bipartite_from_matrix, spin_operators, tensor_product
from steerkit.criteria import (
    CATALOG,
    SATURATION_TOL,
    ConvexTerm,
    InferencePlan,
    check_convexity,
    default_spin_plan,
    eval_additive_convex,
    eval_additive_sum_three_spin,
    eval_additive_sum_two,
    eval_bowen,
    eval_linear_qubit,
    eval_linear_spin_j,
    eval_product_criterion,
    eval_reid_cv,
    evaluate,
)
from steerkit.gaussian import (
    GaussianState,
    SymmetricTwoModeParams,
    linear_combination_variance,
    symmetric_two_mode,
    symplectic_form,
)
from steerkit.families import singlet_state, werner_state
from steerkit.measurements import collective_variance, observable_to_measurement
from util import implication_trial, random_separable_two_qubit, random_spin_plan, random_two_qubit_state

SPIN = spin_operators(0.5)


def gaussian(nbar, mu):
    return symmetric_two_mode(SymmetricTwoModeParams(nbar=nbar, mu=mu))


class TestResultInvariants:
    @pytest.mark.parametrize("criterion_id", [c for c in CATALOG if c != "custom-convex"])
    @pytest.mark.parametrize("mu", [0.2, 0.7, 0.95])
    def test_margin_consistency(self, criterion_id, mu):
        info = CATALOG[criterion_id]
        state = gaussian(1.0, mu) if info.kind == "cv" else werner_state(mu)
        result = evaluate(criterion_id, state)
        if result.direction == "below":
            assert result.margin == result.bound - result.lhs_value
        else:
            assert result.margin == result.lhs_value - result.bound
        assert result.violated == (result.margin > 1e-12)

    def test_catalog_has_thirteen_entries(self):
        assert len(CATALOG) == 13


class TestProductCriterion:
    def test_werner_08(self):
        result = eval_product_criterion(werner_state(0.8), default_spin_plan(werner_state(0.8)))
        assert result.lhs_value == pytest.approx(0.09, abs=1e-12)
        assert result.bound == pytest.approx(0.2, abs=1e-12)
        assert result.violated

    def test_werner_05_not_violated(self):
        result = evaluate("product-spin", werner_state(0.5))
        assert result.lhs_value == pytest.approx(0.1875, abs=1e-12)
        assert result.bound == pytest.approx(0.125, abs=1e-12)
        assert not result.violated

    def test_maximally_mixed_product_state(self):
        state = bipartite_from_matrix(np.eye(4) / 4, 2, 2)
        result = evaluate("product-spin", state)
        assert result.lhs_value == pytest.approx(0.25, abs=1e-12)
        assert result.bound == pytest.approx(0.0, abs=1e-12)
        assert not result.violated

    def test_commutation_check_names_offender(self):
        plan = default_spin_plan(werner_state(0.5))
        broken = InferencePlan(pairs=(plan.pairs[0], plan.pairs[0], plan.pairs[2]))
        with pytest.raises(ValueError, match="commutation"):
            eval_product_criterion(werner_state(0.5), broken)


class TestBowen:
    def test_werner_never_violated(self):
        for mu in (0.3, 0.8, 1.0):
            result = evaluate("bowen", werner_state(mu))
            assert result.bound == pytest.approx(0.0, abs=1e-12)
            assert not result.violated

    def test_singlet_margin_zero(self):
        result = evaluate("bowen", singlet_state())
        assert result.lhs_value == pytest.approx(0.0, abs=1e-9)
        assert result.bound == pytest.approx(0.0, abs=1e-12)
        assert not result.violated

    def test_spin_up_product_state_saturates(self):
        up = np.diag([1.0, 0.0]).astype(complex)
        state = bipartite_from_matrix(tensor_product(up, up), 2, 2)
        result = evaluate("bowen", state)
        assert result.lhs_value == pytest.approx(0.25, abs=1e-12)
        assert result.bound == pytest.approx(0.25, abs=1e-12)
        assert not result.violated


class TestAdditiveSums:
    def test_sum_two_werner_08(self):
        result = evaluate("sum-two", werner_state(0.8))
        assert result.lhs_value == pytest.approx(0.18, abs=1e-12)
        assert result.bound == pytest.approx(0.4, abs=1e-12)
        assert result.violated

    def test_sum_three_formulas(self):
        for mu in (0.3, 0.62, 0.9):
            result = evaluate("sum-three-spin", werner_state(mu))
            assert result.lhs_value == pytest.approx(3 * (1 - mu**2) / 4, abs=1e-12)
            assert result.bound == pytest.approx(0.5)
            assert result.violated == (mu > 1 / math.sqrt(3))

    def test_sum_three_werner_05(self):
        result = evaluate("sum-three-spin", werner_state(0.5))
        assert result.lhs_value == pytest.approx(0.5625, abs=1e-12)
        assert not result.violated

    def test_sum_three_singlet_violated(self):
        result = evaluate("sum-three-spin", singlet_state())
        assert result.lhs_value == pytest.approx(0.0, abs=1e-9)
        assert result.violated


class TestImplications:
    def test_sum_two_implies_product(self, rng):
        hits = 0
        for _ in range(60):
            state, plan = implication_trial(rng)
            if eval_additive_sum_two(state, plan).violated:
                hits += 1
                assert eval_product_criterion(state, plan).violated
        assert hits > 0

    def test_bowen_implies_product(self, rng):
        hits = 0
        for _ in range(60):
            state, plan = implication_trial(rng)
            if eval_bowen(state, plan).violated:
                hits += 1
                assert eval_product_criterion(state, plan).violated
        assert hits > 0


class TestSoundnessOnSeparableStates:
    STEERING_IDS = [
        "product-spin", "bowen", "sum-two", "sum-three-spin",
        "collective-spin-sum", "linear-2", "linear-3", "linear-spin-j",
    ]

    def test_no_violation_on_explicit_mixtures(self, rng):
        for _ in range(30):
            state = random_separable_two_qubit(rng)
            plan = random_spin_plan(rng)
            assert eval_product_criterion(state, plan).margin <= 1e-9
            assert eval_additive_sum_two(state, plan).margin <= 1e-9
            assert eval_additive_sum_three_spin(state, plan).margin <= 1e-9
            for criterion_id in self.STEERING_IDS:
                assert evaluate(criterion_id, state).margin <= 1e-9


class TestReidCV:
    def test_example_09(self):
        result = eval_reid_cv(gaussian(1.0, 0.9))
        assert result.lhs_value == pytest.approx(0.84, abs=1e-12)
        assert result.violated

    def test_boundary_saturation(self):
        result = eval_reid_cv(gaussian(1.0, math.sqrt(3) / 2))
        assert result.lhs_value == pytest.approx(1.0, abs=1e-9)
        assert not result.violated

    def test_vacuum_saturates(self):
        vacuum = GaussianState(cov=np.eye(4), mean=np.zeros(4))
        result = eval_reid_cv(vacuum)
        assert result.lhs_value == pytest.approx(1.0, abs=1e-12)
        assert not result.violated

    def test_gain_based_never_beats_optimal(self, rng):
        for _ in range(20):
            state = gaussian(float(rng.uniform(0.2, 3)), float(rng.uniform(0, 1)))
            gx, gp = float(rng.uniform(-2, 0)), float(rng.uniform(0, 2))
            optimal = eval_reid_cv(state).lhs_value
            vx = linear_combination_variance(state, [gx, 0, 1, 0])
            vp = linear_combination_variance(state, [0, gp, 0, 1])
            assert math.sqrt(vx) * math.sqrt(vp) >= optimal - 1e-12

    def test_gain_based_product_is_collective_cv_product(self, rng):
        # The gain-based Reid product at the catalog's gains, fixed (-1, +1)
        # or optimized, is collective-cv-product bit for bit on random
        # physical two-mode states.
        omega = symplectic_form(2)
        for _ in range(30):
            h = rng.normal(size=(4, 4))
            symplectic = expm(omega @ (h + h.T) / 2)
            m = rng.normal(size=(4, 4))
            state = GaussianState(cov=symplectic @ (np.eye(4) + m @ m.T) @ symplectic.T, mean=rng.normal(size=4))
            for gain_mode in ("fixed", "optimize"):
                result = evaluate("collective-cv-product", state, gain_mode=gain_mode)
                gains = (result.details["gain_1"], result.details["gain_2"])
                if gain_mode == "fixed":
                    assert gains == (-1.0, 1.0)
                lhs, vx, vp = loop_reference.reid_cv_gain_product(state, gains)
                assert result.lhs_value == lhs
                assert result.details["collective_variance_1"] == vx
                assert result.details["collective_variance_2"] == vp
                assert result.bound == 1.0

    def test_wrong_mode_count(self):
        with pytest.raises(ValueError):
            eval_reid_cv(GaussianState(cov=np.eye(2), mean=np.zeros(2)))


class TestDuanSimon:
    def test_example(self):
        result = evaluate("duan-simon", gaussian(1.0, 0.8))
        assert result.lhs_value == pytest.approx(12 - 8 * 0.8 * math.sqrt(2), abs=1e-12)
        assert result.violated

    def test_vacuum_saturates(self):
        vacuum = GaussianState(cov=np.eye(4), mean=np.zeros(4))
        result = evaluate("duan-simon", vacuum)
        assert result.lhs_value == pytest.approx(4.0, abs=1e-12)
        assert not result.violated


class TestCollective:
    def test_cv_sum_example(self):
        result = evaluate("collective-cv-sum", gaussian(1.0, 0.9))
        assert result.lhs_value == pytest.approx(12 - 7.2 * math.sqrt(2), abs=1e-12)
        assert result.violated

    def test_cv_product_flips_with_sum(self):
        for mu in (0.85, 0.92):
            s = gaussian(1.0, mu)
            assert evaluate("collective-cv-sum", s).violated == evaluate("collective-cv-product", s).violated

    def test_cv_bounds(self):
        s = gaussian(1.0, 0.5)
        assert evaluate("collective-cv-sum", s).bound == 2.0
        assert evaluate("collective-cv-product", s).bound == 1.0

    def test_optimized_cv_sum_equals_conditional_variances(self):
        # Optimal gains turn each collective variance into the conditional
        # (Schur) variance, i.e. the additive criterion with optimal inference.
        from steerkit.gaussian import P_A, P_B, X_A, X_B, conditional_min_variance

        for nbar, mu in ((0.5, 0.6), (1.0, 0.85), (2.0, 0.95)):
            s = gaussian(nbar, mu)
            result = evaluate("collective-cv-sum", s, gain_mode="optimize")
            expected = conditional_min_variance(s, X_B, X_A) + conditional_min_variance(s, P_B, P_A)
            assert result.lhs_value == pytest.approx(expected, abs=1e-12)

    def test_zero_gain_never_violates(self, rng):
        # With g = 0 the terms are plain quantum variances of Bob's reduced
        # state, so the inequality is a quantum uncertainty relation.
        for _ in range(20):
            state = random_two_qubit_state(rng)
            lhs = sum(collective_variance(state, SPIN.component(ax), SPIN.component(ax), 0.0) for ax in "xyz")
            assert 0.5 - lhs <= SATURATION_TOL
        for mu in (0.0, 0.5, 1.0):
            state = gaussian(1.0, mu)
            lhs = linear_combination_variance(state, [0, 0, 1, 0]) + linear_combination_variance(state, [0, 0, 0, 1])
            assert 2.0 - lhs <= SATURATION_TOL

    def test_optimized_gain_dominates_fixed(self, rng):
        for _ in range(25):
            state = random_two_qubit_state(rng)
            fixed = evaluate("collective-spin-sum", state, gain_mode="fixed")
            optimized = evaluate("collective-spin-sum", state, gain_mode="optimize")
            assert optimized.margin >= fixed.margin - 1e-12

    def test_optimized_spin_sum_matches_min_inference(self):
        # With optimal linear gains each collective variance equals the
        # optimal inference variance, so the criterion matches sum-three-spin.
        for mu in (0.3, 0.62, 0.8):
            state = werner_state(mu)
            collective = evaluate("collective-spin-sum", state, gain_mode="optimize")
            summed = evaluate("sum-three-spin", state)
            assert collective.lhs_value == pytest.approx(summed.lhs_value, abs=1e-10)

    def test_zero_variance_optimize_errors(self):
        # |↑↑⟩: Alice's Jx and Jy have variance 1/4, her Jz none.
        up = np.diag([1.0, 0.0]).astype(complex)
        state = bipartite_from_matrix(tensor_product(up, up), 2, 2)
        with pytest.raises(ValueError, match="zero-variance Alice observable"):
            evaluate("collective-spin-sum", state, gain_mode="optimize")

    @pytest.mark.parametrize("criterion_id", ["collective-cv-sum", "collective-cv-product"])
    @pytest.mark.parametrize("n_modes", [1, 3])
    def test_cv_needs_two_modes(self, criterion_id, n_modes):
        state = GaussianState(cov=np.eye(2 * n_modes), mean=np.zeros(2 * n_modes))
        with pytest.raises(ValueError, match=f"^{criterion_id} needs a two-mode state, got {n_modes} modes$"):
            evaluate(criterion_id, state)


class TestLinearCriteria:
    @pytest.mark.parametrize("mu", [0.3, 0.62, 0.75, 0.95])
    def test_werner_values(self, mu):
        two = evaluate("linear-2", werner_state(mu))
        three = evaluate("linear-3", werner_state(mu))
        assert two.lhs_value == pytest.approx(2 * mu / 4, abs=1e-12)
        assert three.lhs_value == pytest.approx(3 * mu / 4, abs=1e-12)
        assert two.violated == (mu > 1 / math.sqrt(2))
        assert three.violated == (mu > 1 / math.sqrt(3))

    def test_maximally_mixed(self):
        state = bipartite_from_matrix(np.eye(4) / 4, 2, 2)
        assert evaluate("linear-2", state).lhs_value == pytest.approx(0.0, abs=1e-12)
        assert not evaluate("linear-3", state).violated

    def test_wrong_dimension(self):
        spin1_state = bipartite_from_matrix(np.eye(9) / 9, 3, 3)
        with pytest.raises(ValueError):
            eval_linear_qubit(spin1_state, 3)

    def test_spin_j_reduces_to_linear_3(self, rng):
        for _ in range(100):
            state = random_two_qubit_state(rng)
            a = eval_linear_spin_j(state)
            b = eval_linear_qubit(state, 3)
            assert a.lhs_value == b.lhs_value
            assert a.bound == pytest.approx(b.bound, abs=1e-15)
            assert a.violated == b.violated

    def test_spin_one_singlet_violates(self):
        # Total-spin-zero state of two spin-1 particles: J_A·J_B = -2.
        psi = np.zeros(9, dtype=complex)
        psi[0 * 3 + 2] = 1 / math.sqrt(3)
        psi[1 * 3 + 1] = -1 / math.sqrt(3)
        psi[2 * 3 + 0] = 1 / math.sqrt(3)
        state = bipartite_from_matrix(np.outer(psi, psi.conj()), 3, 3)
        result = eval_linear_spin_j(state)
        assert result.lhs_value == pytest.approx(2.0, abs=1e-10)
        assert result.bound == pytest.approx(math.sqrt(3), abs=1e-12)
        assert result.violated

    def test_spin_one_product_state(self):
        basis0 = np.zeros(9, dtype=complex)
        basis0[0] = 1.0
        state = bipartite_from_matrix(np.outer(basis0, basis0.conj()), 3, 3)
        result = eval_linear_spin_j(state)
        assert result.lhs_value == pytest.approx(1.0, abs=1e-12)
        assert not result.violated


class TestAdditiveConvex:
    @staticmethod
    def _sum_two_terms(state):
        """Encoding of |<B3>| - Var(B1) - Var(B2) <= 0 as five convex terms."""
        jz_a = observable_to_measurement(SPIN.jz, "Jz_A")
        jx_a = observable_to_measurement(SPIN.jx, "Jx_A")
        jy_a = observable_to_measurement(SPIN.jy, "Jy_A")
        jx_b = observable_to_measurement(SPIN.jx, "Jx_B")
        jy_b = observable_to_measurement(SPIN.jy, "Jy_B")
        jz_b = observable_to_measurement(SPIN.jz, "Jz_B")
        jx_sq = observable_to_measurement(SPIN.jx @ SPIN.jx, "Jx2_B")
        jy_sq = observable_to_measurement(SPIN.jy @ SPIN.jy, "Jy2_B")
        return [
            ConvexTerm(jz_a, jz_b, lambda m, a: abs(m), (-0.5, 0.5)),
            ConvexTerm(jx_a, jx_sq, lambda m, a: -m, (0.0, 0.25)),
            ConvexTerm(jx_a, jx_b, lambda m, a: m * m, (-0.5, 0.5)),
            ConvexTerm(jy_a, jy_sq, lambda m, a: -m, (0.0, 0.25)),
            ConvexTerm(jy_a, jy_b, lambda m, a: m * m, (-0.5, 0.5)),
        ]

    def test_reproduces_sum_two_margin(self):
        state = werner_state(0.8)
        convex = eval_additive_convex(state, self._sum_two_terms(state))
        reference = evaluate("sum-two", state)
        assert convex.margin == pytest.approx(reference.margin, abs=1e-10)
        assert convex.violated == reference.violated

    def test_reproduces_linear_two(self):
        # alpha*<Jx_B> + alpha*<Jy_B> <= sqrt(2)/4 per sign choice; the best
        # of the two signed encodings matches the absolute-value criterion.
        state = werner_state(0.9)
        jx_a = observable_to_measurement(SPIN.jx, "Jx_A")
        jy_a = observable_to_measurement(SPIN.jy, "Jy_A")
        jx_b = observable_to_measurement(SPIN.jx, "Jx_B")
        jy_b = observable_to_measurement(SPIN.jy, "Jy_B")
        margins = []
        for sign in (1.0, -1.0):
            terms = [
                ConvexTerm(jx_a, jx_b, lambda m, a, s=sign: s * a * m - math.sqrt(2) / 8, (-0.5, 0.5)),
                ConvexTerm(jy_a, jy_b, lambda m, a, s=sign: s * a * m - math.sqrt(2) / 8, (-0.5, 0.5)),
            ]
            margins.append(eval_additive_convex(state, terms).margin)
        reference = evaluate("linear-2", state)
        assert max(margins) == pytest.approx(reference.margin, abs=1e-10)

    def test_zero_terms_not_violated(self):
        jz = observable_to_measurement(SPIN.jz, "Jz")
        terms = [ConvexTerm(jz, jz, lambda m, a: 0.0, (-0.5, 0.5))]
        result = eval_additive_convex(werner_state(1.0), terms)
        assert result.lhs_value == 0.0
        assert not result.violated

    def test_concave_function_rejected(self):
        jz = observable_to_measurement(SPIN.jz, "Jz")
        bad = ConvexTerm(jz, jz, lambda m, a: -m * m, (-0.5, 0.5))
        with pytest.raises(ValueError, match="convexity"):
            check_convexity(bad)


class TestEvaluateDispatch:
    def test_unknown_criterion(self):
        with pytest.raises(KeyError):
            evaluate("nonsense", werner_state(0.5))

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            evaluate("reid-cv", werner_state(0.5))
        with pytest.raises(ValueError):
            evaluate("product-spin", gaussian(1.0, 0.5))

    def test_custom_convex_requires_terms(self):
        with pytest.raises(ValueError):
            evaluate("custom-convex", werner_state(0.5))
