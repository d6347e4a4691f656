import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_reference
from steerkit.core import bipartite_from_matrix, spin_operators, tensor_product, variance
from steerkit.families import singlet_state, werner_state
from steerkit.measurements import (
    JointDistribution,
    Measurement,
    MeasurementStrategy,
    PROB_FLOOR,
    check_probability_tables,
    collective_variance,
    inference_statistics,
    inference_variance,
    inferred_abs_mean,
    measure_joint,
    observable_to_measurement,
)
from util import Assemblage, assemblage_from_state, random_density_matrix, random_two_qubit_state

SPIN = spin_operators(0.5)
JZ_MEAS = observable_to_measurement(SPIN.jz, "Jz")
JX_MEAS = observable_to_measurement(SPIN.jx, "Jx")


def trine_povm() -> Measurement:
    """Three symmetric Bloch-plane directions with weights 2/3."""
    effects = []
    for k in range(3):
        angle = 2 * np.pi * k / 3
        direction = np.cos(angle) * 2 * SPIN.jz + np.sin(angle) * 2 * SPIN.jx
        effects.append((np.eye(2) + direction) / 3)
    return Measurement("trine", (0.0, 1.0, 2.0), tuple(effects), kind="povm")


@st.composite
def joint_distributions(draw):
    n_a = draw(st.integers(2, 4))
    n_b = draw(st.integers(2, 4))
    raw = draw(
        st.lists(st.floats(0.01, 1.0), min_size=n_a * n_b, max_size=n_a * n_b)
    )
    probs = np.array(raw).reshape(n_a, n_b)
    probs /= probs.sum()
    a_vals = tuple(-1.0 + 2.0 * k / (n_a - 1) for k in range(n_a))
    b_vals = tuple(draw(st.lists(st.floats(-2, 2), min_size=n_b, max_size=n_b, unique=True)))
    return JointDistribution(a_values=a_vals, b_values=b_vals, probs=probs)


class TestMeasurementValidation:
    def test_projective_from_observable(self):
        assert JZ_MEAS.values == (0.5, -0.5)
        for effect in JZ_MEAS.effects:
            assert abs(np.trace(effect) - 1) < 1e-12

    def test_identity_merges_to_single_outcome(self):
        meas = observable_to_measurement(np.eye(2), "I")
        assert meas.values == (1.0,)
        assert np.allclose(meas.effects[0], np.eye(2))

    def test_degeneracy_merging(self):
        meas = observable_to_measurement(np.diag([1.0, 1.0, -1.0, -1.0]), "Z-like")
        assert meas.values == (1.0, -1.0)
        assert all(abs(np.trace(e) - 2) < 1e-12 for e in meas.effects)

    def test_povm_accepted(self):
        meas = trine_povm()
        assert meas.n_outcomes == 3

    def test_rejects_incomplete_effects(self):
        with pytest.raises(ValueError):
            Measurement("bad", (1.0, -1.0), (np.eye(2) / 2, np.eye(2) / 4), kind="povm")

    def test_rejects_overlapping_projectors(self):
        p = np.diag([1.0, 0.0])
        with pytest.raises(ValueError):
            Measurement("bad", (1.0, -1.0), (p, np.eye(2) - p / 2), kind="projective")


class TestMeasurementStrategy:
    @pytest.mark.parametrize("party", ["alice", "bob"])
    def test_mixed_dimensions_rejected(self, party):
        jz1 = observable_to_measurement(spin_operators(1.0).jz, "Jz1")
        sides = {"alice": (JZ_MEAS, JX_MEAS), "bob": (JZ_MEAS, JX_MEAS), party: (JZ_MEAS, jz1)}
        name = "Alice" if party == "alice" else "Bob"
        message = rf"{name}'s measurements mix dimensions: 'Jz' \(dimension 2\), 'Jz1' \(dimension 3\)"
        with pytest.raises(ValueError, match=message):
            MeasurementStrategy(pairing=((0, 0), (1, 1)), **sides)


def _message(fn, *args):
    with pytest.raises(ValueError) as excinfo:
        fn(*args)
    return str(excinfo.value)


class TestJointDistributionValidation:
    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_probability(self, entry):
        probs = np.array([[entry, 0.5], [0.25, 0.25]])
        with pytest.raises(ValueError, match="probability table must be finite"):
            JointDistribution((1.0, -1.0), (1.0, -1.0), probs)

    @pytest.mark.parametrize("bad", range(3))
    @pytest.mark.parametrize(
        "defect, message",
        [
            ("nan", "probability table must be finite"),
            ("negative", "negative probability -1.000e-09 beyond tolerance"),
            ("sum", "probabilities sum to np.float64(1.000000001"),
        ],
    )
    def test_stack_with_one_bad_table(self, rng, bad, defect, message):
        stack = rng.random((3, 2, 3))
        stack /= stack.sum(axis=(1, 2), keepdims=True)
        if defect == "nan":
            stack[bad, 1, 2] = np.nan
        elif defect == "negative":
            stack[bad, 0, 0] += stack[bad, 1, 1] + 1e-9
            stack[bad, 1, 1] = -1e-9
        else:
            stack[bad] *= 1 + 1e-9
        values = ((1.0, -1.0), (1.0, 0.0, -1.0))
        alone = _message(JointDistribution, *values, stack[bad])
        assert alone.startswith(message)
        assert _message(check_probability_tables, stack, stack.shape) == alone
        check_probability_tables(np.delete(stack, bad, axis=0), (2, 2, 3))

    def test_two_dimensional_table_as_before(self):
        probs = np.array([[0.5, -1e-13], [0.25, 0.25 + 1e-13]])
        joint = JointDistribution((1.0, -1.0), (1.0, -1.0), probs)
        expected = probs.copy()
        expected[0, 1] = 0.0
        assert joint.probs.tobytes() == expected.tobytes()
        assert not joint.probs.flags.writeable and probs[0, 1] == -1e-13
        with pytest.raises(ValueError, match="shape does not match outcome values"):
            JointDistribution((1.0, -1.0), (1.0, 0.0, -1.0), probs)
        with pytest.raises(ValueError, match="must be finite"):
            JointDistribution((1.0, -1.0), (1.0, 0.0, -1.0), np.full((2, 2), np.nan))
        with pytest.raises(ValueError, match="shape does not match outcome values"):
            check_probability_tables(np.full((1, 2, 2), 0.25), (2, 2))
        scaled = np.full((3, 3), (1 + 2e-10) / 9)
        assert _message(JointDistribution, (1, 0, -1), (1, 0, -1), scaled) == (
            f"probabilities sum to {scaled.sum()!r}, not 1 within 1e-10"
        )


class TestMeasureJoint:
    def test_singlet_perfect_anticorrelation(self):
        joint = measure_joint(singlet_state(), JZ_MEAS, JZ_MEAS)
        # Outcome order is (+1/2, -1/2) on both sides.
        assert joint.probs[0, 1] == pytest.approx(0.5, abs=1e-12)
        assert joint.probs[1, 0] == pytest.approx(0.5, abs=1e-12)
        assert joint.probs[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_product_state_factorizes(self, rng):
        rho_a = random_density_matrix(rng, 2)
        rho_b = random_density_matrix(rng, 2)
        state = bipartite_from_matrix(tensor_product(rho_a.matrix, rho_b.matrix), 2, 2)
        joint = measure_joint(state, JZ_MEAS, JX_MEAS)
        outer = np.outer(joint.marginal_a(), joint.marginal_b())
        assert np.max(np.abs(joint.probs - outer)) < 1e-10

    @pytest.mark.parametrize("mu", [0.3, 0.7])
    def test_werner_same_sign_probability(self, mu):
        joint = measure_joint(werner_state(mu), JZ_MEAS, JZ_MEAS)
        assert joint.probs[0, 0] == pytest.approx((1 - mu) / 4, abs=1e-12)
        assert joint.probs[1, 1] == pytest.approx((1 - mu) / 4, abs=1e-12)

    def test_dimension_mismatch(self):
        meas3 = observable_to_measurement(spin_operators(1.0).jz, "Jz1")
        with pytest.raises(ValueError):
            measure_joint(singlet_state(), meas3, JZ_MEAS)

    def test_povm_on_bob_side(self, rng):
        # POVMs are accepted wherever a Measurement is; the joint table stays
        # a normalized distribution and inference quantities remain defined.
        state = random_two_qubit_state(rng)
        joint = measure_joint(state, JZ_MEAS, trine_povm())
        assert joint.probs.shape == (2, 3)
        assert abs(joint.probs.sum() - 1) < 1e-10
        assert inference_variance(joint) <= loop_reference.estimator_variance(joint, (1.0, 1.0)) + 1e-12


class TestConditionalDistribution:
    """Conditioning on Alice's outcome: the weights P(A) and the means of P(B|A)."""

    def test_singlet_conditioning(self):
        joint = measure_joint(singlet_state(), JZ_MEAS, JZ_MEAS)
        weights, means, _, _ = inference_statistics(joint.probs, joint.b_values)
        assert weights[0] == pytest.approx(0.5)
        # Alice's +1/2 leaves Bob at -1/2 with certainty.
        assert means[0] == pytest.approx(-0.5, abs=1e-12)

    def test_uniform_independence(self):
        joint = JointDistribution((0.5, -0.5), (0.5, -0.5), np.full((2, 2), 0.25))
        weights, means, _, _ = inference_statistics(joint.probs, joint.b_values)
        assert np.allclose(means, [0.0, 0.0])
        assert weights[1] == pytest.approx(0.5)

    def test_werner_08(self):
        joint = measure_joint(werner_state(0.8), JZ_MEAS, JZ_MEAS)
        _, means, _, _ = inference_statistics(joint.probs, joint.b_values)
        # P(B = -1/2 | A = +1/2) = 0.9, so the mean is 0.1·(1/2) - 0.9·(1/2).
        assert means[0] == pytest.approx(-0.4, abs=1e-12)

    def test_zero_probability_outcome_gets_mean_zero(self):
        joint = JointDistribution((0.5, -0.5), (1.0, -0.5), np.array([[0.5, 0.5], [0.0, 0.0]]))
        weights, means, _, _ = inference_statistics(joint.probs, joint.b_values)
        assert weights[1] == 0.0 and means[1] == 0.0
        # The empty row adds nothing to the inference variance.
        assert inference_variance(joint) == pytest.approx(0.5625, abs=1e-15)


class TestInferenceQuantities:
    def test_perfect_correlation_gives_zero(self):
        joint = JointDistribution((1.0, -1.0), (1.0, -1.0), np.diag([0.5, 0.5]))
        assert inference_variance(joint) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("mu", [0.3, 0.8])
    def test_werner_formula(self, mu):
        joint = measure_joint(werner_state(mu), JZ_MEAS, JZ_MEAS)
        assert inference_variance(joint) == pytest.approx((1 - mu**2) / 4, abs=1e-12)

    def test_constant_estimator_reduces_to_unconditional_variance(self, rng):
        state = random_two_qubit_state(rng)
        joint = measure_joint(state, JZ_MEAS, JX_MEAS)
        mean_b = joint.mean_b()
        b = np.asarray(joint.b_values)
        unconditional = float(joint.marginal_b() @ (b - mean_b) ** 2)
        assert loop_reference.estimator_variance(joint, (mean_b, mean_b)) == pytest.approx(unconditional, abs=1e-12)

    def test_maximally_mixed_product(self):
        state = bipartite_from_matrix(np.eye(4) / 4, 2, 2)
        joint = measure_joint(state, JZ_MEAS, JZ_MEAS)
        assert inference_variance(joint) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("mu", [0.3, 0.8, 1.0])
    def test_inferred_abs_mean_werner(self, mu):
        joint = measure_joint(werner_state(mu), JZ_MEAS, JZ_MEAS)
        assert inferred_abs_mean(joint) == pytest.approx(mu / 2, abs=1e-12)

    def test_inferred_abs_mean_uncorrelated_symmetric(self):
        joint = JointDistribution((0.5, -0.5), (0.5, -0.5), np.full((2, 2), 0.25))
        assert inferred_abs_mean(joint) == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(joint=joint_distributions(), data=st.data())
    def test_estimator_never_beats_optimum(self, joint, data):
        n_a = len(joint.a_values)
        table = data.draw(st.lists(st.floats(-3, 3), min_size=n_a, max_size=n_a))
        assert loop_reference.estimator_variance(joint, table) >= inference_variance(joint) - 1e-12

    @settings(max_examples=60, deadline=None)
    @given(joint=joint_distributions())
    def test_min_inference_variance_matches_row_loop(self, joint):
        b_max_sq = max(b * b for b in joint.b_values)
        reference = loop_reference.min_inference_variance(joint)
        assert abs(inference_variance(joint) - reference) <= PROB_FLOOR * b_max_sq

    @pytest.mark.parametrize("weight", [0.0, 0.4 * PROB_FLOOR])
    def test_min_inference_variance_on_negligible_alice_row(self, weight):
        # The loop skips an Alice row at or below PROB_FLOOR; the conditional
        # mean estimator guesses 0 there, which adds at most PROB_FLOOR·max b².
        probs = np.array([[0.3, 0.2, 0.1], [0.0, 0.0, weight], [0.1, 0.1, 0.2 - weight]])
        joint = JointDistribution((1.0, 0.0, -1.0), (2.0, 0.5, -1.5), probs)
        reference = loop_reference.min_inference_variance(joint)
        assert abs(inference_variance(joint) - reference) <= PROB_FLOOR * 4.0

    @settings(max_examples=60, deadline=None)
    @given(joint=joint_distributions())
    def test_inferred_abs_mean_dominates_unconditional(self, joint):
        assert inferred_abs_mean(joint) >= abs(joint.mean_b()) - 1e-12

    @settings(max_examples=60, deadline=None)
    @given(joint=joint_distributions())
    def test_conditioning_never_increases_average_variance(self, joint):
        # Mixture decomposition P(B) = Σ_A P(A) P(B|A): the variance of the
        # mixture dominates the average of the component variances.
        b = np.asarray(joint.b_values)
        marginal = joint.marginal_b()
        unconditional = float(marginal @ (b - float(marginal @ b)) ** 2)
        assert unconditional >= inference_variance(joint) - 1e-12


class TestLinearEstimator:
    """The removed linear(gain) estimator, from loop_reference, is Var(gain·A + B)."""

    def test_matches_collective_variance(self, rng):
        for _ in range(25):
            state = random_two_qubit_state(rng)
            gain = float(rng.uniform(-2, 2))
            joint = measure_joint(state, JZ_MEAS, JX_MEAS)
            collective = collective_variance(state, SPIN.jz, SPIN.jx, gain)
            inferred = loop_reference.estimator_variance(joint, loop_reference.linear_estimates(joint, gain))
            assert abs(collective - inferred) < 1e-10
            assert inferred >= inference_variance(joint) - 1e-12

    @pytest.mark.parametrize("gain", [-1.0, 0.3, 2.5])
    def test_werner_jx_pairs_within_1e15(self, gain):
        state = werner_state(0.7)
        joint = measure_joint(state, JX_MEAS, JX_MEAS)
        linear = loop_reference.estimator_variance(joint, loop_reference.linear_estimates(joint, gain))
        assert abs(linear - collective_variance(state, SPIN.jx, SPIN.jx, gain)) <= 1e-15


class TestCollectiveVariance:
    def test_zero_gain_is_reduced_state_variance(self, rng):
        state = random_two_qubit_state(rng)
        from steerkit.core import partial_trace

        expected = variance(SPIN.jx, partial_trace(state, "b"))
        assert collective_variance(state, SPIN.jz, SPIN.jx, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_singlet_total_spin_zero(self):
        assert collective_variance(singlet_state(), SPIN.jz, SPIN.jz, 1.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("mu", [0.2, 0.6, 1.0])
    def test_werner_value(self, mu):
        value = collective_variance(werner_state(mu), SPIN.jz, SPIN.jz, 1.0)
        assert value == pytest.approx((1 - mu) / 2, abs=1e-12)


class TestAssemblage:
    def test_singlet_conditional_states(self):
        assemblage = assemblage_from_state(singlet_state(), [JZ_MEAS])
        (value_plus, rho_plus), (value_minus, rho_minus) = assemblage.entries[0]
        assert value_plus == 0.5 and value_minus == -0.5
        assert np.allclose(rho_plus, 0.5 * np.diag([0.0, 1.0]), atol=1e-12)
        assert np.allclose(rho_minus, 0.5 * np.diag([1.0, 0.0]), atol=1e-12)

    def test_product_state_members(self, rng):
        rho_a = random_density_matrix(rng, 2)
        rho_b = random_density_matrix(rng, 2)
        state = bipartite_from_matrix(tensor_product(rho_a.matrix, rho_b.matrix), 2, 2)
        assemblage = assemblage_from_state(state, [JX_MEAS])
        for (_, member), effect in zip(assemblage.entries[0], JX_MEAS.effects):
            weight = np.trace(effect @ rho_a.matrix).real
            assert np.max(np.abs(member - weight * rho_b.matrix)) < 1e-10

    def test_werner_marginals(self):
        assemblage = assemblage_from_state(werner_state(0.5), [JZ_MEAS, JX_MEAS])
        assert np.max(np.abs(assemblage.marginal() - np.eye(2) / 2)) < 1e-12

    def test_no_signalling_on_random_states(self, rng):
        for _ in range(20):
            state = random_two_qubit_state(rng)
            assemblage = assemblage_from_state(state, [JZ_MEAS, JX_MEAS])
            totals = [sum(rho for _, rho in members) for members in assemblage.entries]
            assert np.max(np.abs(totals[0] - totals[1])) < 1e-9

    def test_rejects_signalling_input(self):
        good = (np.diag([0.5, 0.0]).astype(complex), np.diag([0.0, 0.5]).astype(complex))
        bad = (np.diag([0.7, 0.0]).astype(complex), np.diag([0.0, 0.3]).astype(complex))
        with pytest.raises(ValueError):
            Assemblage(entries=(tuple(zip((0.5, -0.5), good)), tuple(zip((0.5, -0.5), bad))))
