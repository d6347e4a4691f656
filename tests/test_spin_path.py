"""The spin path reproduces the original kron loops bit for bit and shares its spin objects.

`measure_joint` and `tensor_product` are compared with `==` on the raw bytes
against the one-kron-per-pair loop in `loop_reference`; the cached spin
operators, spin measurements, plans, effect stacks, correlation products and
singlet must be shared and read-only, and a cached plan is still checked on
every evaluation.
"""

import numpy as np
import pytest

import loop_reference
from steerkit import criteria
from steerkit.core import bipartite_from_matrix, spin_operators, tensor_product
from steerkit.criteria import (
    InferencePair,
    InferencePlan,
    default_spin_plan,
    eval_additive_sum_three_spin,
    eval_bowen,
    eval_product_criterion,
    spin_triple_plan,
)
from steerkit.families import singlet_state, werner_state
from steerkit.measurements import (
    Measurement,
    all_pairs_strategy,
    measure_joint,
    observable_to_measurement,
)
from steerkit.oracle import mub_qubit_measurements, phenomenon_from_state
from test_measurements import JZ_MEAS, trine_povm
from util import random_density_matrix


def random_state(rng, dim_a, dim_b):
    return bipartite_from_matrix(random_density_matrix(rng, dim_a * dim_b).matrix, dim_a, dim_b)


def random_spin_measurement(rng, j, label):
    return observable_to_measurement(spin_operators(j).projection(rng.standard_normal(3)), label)


def assert_same_joint(state, a, b):
    new = measure_joint(state, a, b)
    old = loop_reference.measure_joint(state, a, b)
    assert new.probs.tobytes() == old.probs.tobytes()
    assert (new.a_values, new.b_values) == (old.a_values, old.b_values)


class TestBornRule:
    @pytest.mark.parametrize("j_a", [0.5, 1, 1.5, 2])
    @pytest.mark.parametrize("j_b", [0.5, 1, 1.5, 2])
    def test_random_spin_states(self, rng, j_a, j_b):
        dim_a, dim_b = round(2 * j_a) + 1, round(2 * j_b) + 1
        for _ in range(10):
            state = random_state(rng, dim_a, dim_b)
            a = random_spin_measurement(rng, j_a, "a")
            b = random_spin_measurement(rng, j_b, "b")
            assert_same_joint(state, a, b)

    def test_default_spin_plan_on_random_states(self, rng):
        for dim in (2, 3, 4, 5):
            state = random_state(rng, dim, dim)
            for pair in default_spin_plan(state).pairs:
                assert_same_joint(state, pair.alice, pair.bob)

    def test_trine_povm(self, rng):
        for _ in range(20):
            state = random_state(rng, 2, 2)
            assert_same_joint(state, JZ_MEAS, trine_povm())
            assert_same_joint(state, trine_povm(), trine_povm())

    def test_qutrit_measurement_pair(self, rng):
        def random_basis_measurement(label):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            basis = np.linalg.qr(g)[0]
            effects = tuple(np.outer(basis[:, k], basis[:, k].conj()) for k in range(3))
            return Measurement(label, (1.0, 0.0, -1.0), effects)

        for _ in range(20):
            state = random_state(rng, 3, 3)
            assert_same_joint(state, random_basis_measurement("a"), random_basis_measurement("b"))

    @pytest.mark.parametrize("n_mub", [2, 3])
    def test_mub_phenomenon_tables(self, n_mub):
        measurements = mub_qubit_measurements(n_mub)
        strategy = all_pairs_strategy(measurements, measurements)
        for mu in (0.0, 0.3, 1 / np.sqrt(3), 0.6, 1 / np.sqrt(2), 0.75, 1.0):
            state = werner_state(mu)
            phen = phenomenon_from_state(state, strategy)
            for (a_idx, b_idx), table in zip(strategy.pairing, phen.tables):
                old = loop_reference.measure_joint(state, measurements[a_idx], measurements[b_idx])
                assert table.probs.tobytes() == old.probs.tobytes()


class TestTensorProduct:
    @pytest.mark.parametrize("shape_a, shape_b", [((2, 3), (3, 1)), ((1, 4), (2, 2)), ((3, 3), (2, 5))])
    def test_non_square_matches_kron(self, rng, shape_a, shape_b):
        a = rng.standard_normal(shape_a) + 1j * rng.standard_normal(shape_a)
        b = rng.standard_normal(shape_b) + 1j * rng.standard_normal(shape_b)
        for x, y in ((a, b), (a.real, b.real), (a, b.real)):
            product = tensor_product(x, y)
            assert product.shape == loop_reference.kron(x, y).shape
            assert product.tobytes() == loop_reference.kron(x, y).tobytes()

    def test_rejects_vectors(self):
        with pytest.raises(ValueError, match="needs two matrices"):
            tensor_product(np.ones(2), np.eye(2))


def assert_read_only(array):
    with pytest.raises(ValueError):
        array[0, 0] = 1.0


class TestCachedSpinObjects:
    @pytest.mark.parametrize("j", [0.5, 1, 1.5])
    def test_spin_operators_shared_and_frozen(self, j):
        first, second = spin_operators(j), spin_operators(j)
        for axis in "xyz":
            assert first.component(axis) is second.component(axis)
            assert_read_only(first.component(axis))

    def test_invalid_j_still_raises(self):
        with pytest.raises(ValueError, match="positive half-integer"):
            spin_operators(0.3)

    def test_plan_measurements_shared_and_frozen(self):
        first, second = spin_triple_plan(0.5), spin_triple_plan(0.5)
        for i in range(3):
            assert first.pairs[i].bob is second.pairs[i].bob
            assert first.pairs[i].alice is second.pairs[i].alice
            for effect in first.pairs[i].bob.effects + first.pairs[i].alice.effects:
                assert_read_only(effect)

    def test_plan_measurements_match_fresh_ones(self):
        ops_a, ops_b = spin_operators(1), spin_operators(0.5)
        plan = spin_triple_plan(1, 0.5)
        for pair, axis in zip(plan.pairs, "xyz"):
            for cached, ops, party in ((pair.alice, ops_a, "A"), (pair.bob, ops_b, "B")):
                fresh = observable_to_measurement(ops.component(axis), f"J{axis}_{party}")
                assert cached.label == fresh.label and cached.values == fresh.values
                assert [e.tobytes() for e in cached.effects] == [e.tobytes() for e in fresh.effects]

    def test_singlet_shared_and_frozen(self):
        assert singlet_state().matrix is singlet_state().matrix
        assert_read_only(singlet_state().matrix)

    def test_plans_shared(self):
        assert spin_triple_plan(0.5) is spin_triple_plan(0.5)
        assert default_spin_plan(werner_state(0.3)) is default_spin_plan(werner_state(0.9))
        plan = spin_triple_plan(1, 0.5)
        assert plan is spin_triple_plan(1, 0.5)
        assert plan.bob_operators is plan.bob_operators
        assert plan.commutation_residues is plan.commutation_residues

    def test_mub_presets_shared(self):
        assert mub_qubit_measurements(3) is mub_qubit_measurements(3)
        assert mub_qubit_measurements(2) is not mub_qubit_measurements(3)

    @pytest.mark.parametrize(
        "evaluator", [eval_product_criterion, eval_bowen, eval_additive_sum_three_spin]
    )
    def test_noncommuting_plan_raises_on_every_call(self, evaluator):
        pairs = spin_triple_plan(0.5).pairs
        broken = InferencePlan(pairs=(pairs[0], pairs[0], pairs[2]))
        for mu in (0.5, 0.5, 0.9):
            with pytest.raises(ValueError, match="commutation check failed"):
                evaluator(werner_state(mu), broken)

    def test_casimir_check_raises_on_every_call(self, rng):
        # Spin-1/2 operators padded to a qutrit keep [b1, b2] = i·b3 (cyclic),
        # but b1² + b2² + b3² is not 2·I, so they are no spin-1 triple.
        ops = spin_operators(0.5)
        padded = [np.pad(ops.component(axis), ((0, 1), (0, 1))) for axis in "xyz"]
        pairs = spin_triple_plan(1).pairs
        plan = InferencePlan(
            pairs=tuple(
                InferencePair(p.alice, observable_to_measurement(op, f"b{axis}"))
                for p, op, axis in zip(pairs, padded, "xyz")
            )
        )
        assert max(plan.commutation_residues) <= criteria.COMMUTATION_TOL
        for _ in range(3):
            with pytest.raises(ValueError, match="not a spin-1.0 triple"):
                eval_additive_sum_three_spin(random_state(rng, 3, 3), plan)

    def test_effect_stack_frozen_and_bitwise(self):
        spin1 = observable_to_measurement(spin_operators(1).jx, "Jx")
        for meas in (*mub_qubit_measurements(3), trine_povm(), JZ_MEAS, spin1):
            stack = meas.effect_stack
            assert stack is meas.effect_stack
            assert_read_only(stack[0])
            fresh = np.stack(meas.effects)
            assert stack.dtype == fresh.dtype and stack.shape == fresh.shape
            assert stack.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("j_a, j_b", [(0.5, 0.5), (1, 1), (1, 0.5), (1.5, 1)])
    def test_correlation_products_bitwise(self, j_a, j_b):
        products = criteria._spin_correlation_operators(j_a, j_b)
        assert products is criteria._spin_correlation_operators(j_a, j_b)
        ops_a, ops_b = spin_operators(j_a), spin_operators(j_b)
        for product, axis in zip(products, "xyz", strict=True):
            fresh = tensor_product(ops_a.component(axis), ops_b.component(axis))
            assert product.tobytes() == fresh.tobytes() and product.shape == fresh.shape
            assert_read_only(product)
