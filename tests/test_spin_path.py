"""The spin path reproduces the original kron loops bit for bit and shares its spin objects.

`measure_joint` and `tensor_product` are compared with `==` on the raw bytes
against the one-kron-per-pair loop in `loop_reference`, and an inference
plan's stacked pass against per-pair `measure_joint` and the row-loop
statistics there; the cached spin operators, spin measurements, plans, effect
stacks, effect products, correlation products and singlet must be shared and
read-only, and a cached plan is still checked on every evaluation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_reference
from steerkit import criteria
from steerkit.core import bipartite_from_matrix, spin_operators, tensor_product
from steerkit.criteria import (
    InferencePair,
    InferencePlan,
    default_spin_plan,
    eval_additive_sum_three_spin,
    eval_additive_sum_two,
    eval_bowen,
    eval_product_criterion,
    spin_triple_plan,
)
from steerkit.families import singlet_state, werner_state
from steerkit.measurements import (
    Measurement,
    all_pairs_strategy,
    born_probabilities,
    check_probability_tables,
    effect_products,
    inference_statistics,
    inference_variance,
    inferred_abs_mean,
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


def basis_measurement(j, label):
    """Jz as exact diagonal projectors, so a state without an Alice level gives that outcome weight 0."""
    dim = round(2 * j) + 1
    return Measurement(label, tuple(j - k for k in range(dim)), tuple(np.diag(e) for e in np.eye(dim)))


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


@st.composite
def plans_and_states(draw):
    """A spin-1/2, 1 or 3/2 plan of one to four pairs and a state on it.

    Alice measures a random spin component, Jz in its eigenbasis, the
    degenerate Jz² or, for qubits, the trine POVM, so plans mix outcome
    counts; the state lacks a random set of Alice's Jz levels, so Jz
    measurements meet outcomes of weight 0.
    """
    j = draw(st.sampled_from([0.5, 1.0, 1.5]))
    dim = round(2 * j) + 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ["spin", "basis", "degenerate"] + (["trine"] if dim == 2 else [])
    pairs = []
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(kinds))
        if kind == "spin":
            alice = random_spin_measurement(rng, j, f"a{i}")
        elif kind == "basis":
            alice = basis_measurement(j, f"a{i}")
        elif kind == "degenerate":
            alice = observable_to_measurement(spin_operators(j).jz @ spin_operators(j).jz, f"a{i}")
        else:
            alice = trine_povm()
        pairs.append(InferencePair(alice, random_spin_measurement(rng, j, f"b{i}")))
    missing = draw(st.sets(st.integers(0, dim - 1), max_size=dim - 1))
    keep = np.repeat([level not in missing for level in range(dim)], dim)
    rho = random_density_matrix(rng, dim * dim).matrix * np.outer(keep, keep)
    state = bipartite_from_matrix(rho / np.trace(rho).real, dim, dim)
    return InferencePlan(pairs=tuple(pairs)), state


class TestPlanPass:
    @settings(max_examples=80, deadline=None)
    @given(case=plans_and_states())
    def test_matches_per_pair_and_row_loop(self, case):
        plan, state = case
        stats = criteria._plan_statistics(state, plan)
        tables = {}
        for stack in plan.effect_products:
            probs = born_probabilities(state, stack.products)
            for k, idx in enumerate(stack.indices):
                tables[idx] = check_probability_tables(probs, probs.shape)[k]
        for idx, pair in enumerate(plan.pairs):
            joint = measure_joint(state, pair.alice, pair.bob)
            old = loop_reference.measure_joint(state, pair.alice, pair.bob)
            assert tables[idx].tobytes() == joint.probs.tobytes() == old.probs.tobytes()
            for got, per_pair, row_loop in zip(
                (stats[idx].weights, stats[idx].means),
                inference_statistics(joint.probs, joint.b_values)[:2],
                loop_reference.conditional_means(old),
            ):
                assert bits(got) == bits(per_pair) == bits(row_loop)
            assert bits(stats[idx].variance) == bits(inference_variance(joint))
            assert bits(stats[idx].variance) == bits(loop_reference.inference_variance(old))
            assert bits(stats[idx].abs_mean) == bits(inferred_abs_mean(joint))
            assert bits(stats[idx].abs_mean) == bits(loop_reference.inferred_abs_mean(old))

    def test_zero_weight_rows_and_ragged_stacks(self, rng):
        spin_1 = spin_operators(1)
        pairs = (
            InferencePair(basis_measurement(1, "a0"), observable_to_measurement(spin_1.jx, "b0")),
            InferencePair(observable_to_measurement(spin_1.jz @ spin_1.jz, "a1"),
                          observable_to_measurement(spin_1.jy, "b1")),
            InferencePair(basis_measurement(1, "a2"), observable_to_measurement(spin_1.jz, "b2")),
        )
        plan = InferencePlan(pairs=pairs)
        assert [stack.indices for stack in plan.effect_products] == [(0, 2), (1,)]
        rho = random_density_matrix(rng, 9).matrix.copy()
        rho[6:, :] = rho[:, 6:] = 0
        state = bipartite_from_matrix(rho / np.trace(rho).real, 3, 3)
        stats = criteria._plan_statistics(state, plan)
        for idx in (0, 2):
            assert stats[idx].weights[2] == 0 and stats[idx].means[2] == 0
        for idx, pair in enumerate(pairs):
            old = loop_reference.measure_joint(state, pair.alice, pair.bob)
            assert bits(stats[idx].variance) == bits(loop_reference.inference_variance(old))
            assert bits(stats[idx].abs_mean) == bits(loop_reference.inferred_abs_mean(old))

    @pytest.mark.parametrize(
        "diagonal, message",
        [
            ((-0.01, 0.51, 0.25, 0.25), "negative probability -1.000e-02 beyond tolerance"),
            ((np.nan, 0.5, 0.25, 0.25), "probability table must be finite"),
            ((0.3, 0.3, 0.25, 0.25), "probabilities sum to np.float64(1.09"),
        ],
    )
    def test_every_table_check_applies(self, diagonal, message):
        # A matrix no DensityMatrix accepts, set behind its back, so that the
        # Born tables themselves are bad; the plan pass must raise what the
        # first failing per-pair measure_joint raises.
        state = bipartite_from_matrix(np.eye(4) / 4, 2, 2)
        object.__setattr__(state.state, "matrix", np.diag(np.array(diagonal, dtype=complex)))
        plan = spin_triple_plan(0.5, 0.5)
        with pytest.raises(ValueError) as per_pair:
            for pair in plan.pairs:
                measure_joint(state, pair.alice, pair.bob)
        assert str(per_pair.value).startswith(message)
        for evaluator in (eval_product_criterion, eval_bowen, eval_additive_sum_two, eval_additive_sum_three_spin):
            with pytest.raises(ValueError) as excinfo:
                evaluator(state, plan)
            assert str(excinfo.value) == str(per_pair.value)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="Alice measurement dimension 3 != subsystem dimension 2"):
            criteria._plan_statistics(werner_state(0.5), spin_triple_plan(1, 0.5))
        with pytest.raises(ValueError, match="Bob measurement dimension 3 != subsystem dimension 2"):
            eval_product_criterion(werner_state(0.5), spin_triple_plan(0.5, 1))

    def test_effect_products_shared_frozen_and_bitwise(self, monkeypatch):
        plan = spin_triple_plan(1, 1)
        (stack,) = plan.effect_products
        assert stack.indices == (0, 1, 2) and stack.products.shape == (3, 3, 3, 9, 9)
        assert stack.products.nbytes == 48 * 3**6
        for k, pair in enumerate(plan.pairs):
            assert stack.products[k].tobytes() == effect_products(pair.alice, pair.bob).tobytes()
            assert stack.b_values[k].tolist() == list(pair.bob.values)
        for array in (stack.products, stack.b_values):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0

        def rebuilt(*args):
            raise AssertionError("effect products rebuilt for a cached plan")

        monkeypatch.setattr(criteria, "effect_products", rebuilt)
        state = bipartite_from_matrix(np.eye(9) / 9, 3, 3)
        for evaluator in (eval_product_criterion, eval_additive_sum_two, eval_additive_sum_three_spin):
            evaluator(state, plan)
        assert plan.effect_products[0] is stack


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
        first, second = spin_triple_plan(0.5, 0.5), spin_triple_plan(0.5, 0.5)
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
        assert spin_triple_plan(0.5, 0.5) is spin_triple_plan(0.5, 0.5)
        assert default_spin_plan(werner_state(0.3)) is default_spin_plan(werner_state(0.9))
        plan = spin_triple_plan(1, 0.5)
        assert plan is spin_triple_plan(1, 0.5)
        assert plan.bob_operators is plan.bob_operators
        assert plan.commutation_residues is plan.commutation_residues
        assert plan.casimir is plan.casimir
        assert plan.effect_products is plan.effect_products

    def test_mub_presets_shared(self):
        assert mub_qubit_measurements(3) is mub_qubit_measurements(3)
        assert mub_qubit_measurements(2) is not mub_qubit_measurements(3)

    @pytest.mark.parametrize(
        "evaluator", [eval_product_criterion, eval_bowen, eval_additive_sum_two, eval_additive_sum_three_spin]
    )
    def test_noncommuting_plan_raises_on_every_call(self, evaluator):
        pairs = spin_triple_plan(0.5, 0.5).pairs
        broken = InferencePlan(pairs=(pairs[0], pairs[0], pairs[2]))
        for mu in (0.5, 0.5, 0.9):
            with pytest.raises(ValueError, match="commutation check failed"):
                evaluator(werner_state(mu), broken)

    def test_casimir_check_raises_on_every_call(self, rng):
        # Spin-1/2 operators padded to a qutrit keep [b1, b2] = i·b3 (cyclic),
        # but b1² + b2² + b3² is not 2·I, so they are no spin-1 triple.
        ops = spin_operators(0.5)
        padded = [np.pad(ops.component(axis), ((0, 1), (0, 1))) for axis in "xyz"]
        pairs = spin_triple_plan(1, 1).pairs
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

    @pytest.mark.parametrize("j_a, j_b", [(0.5, 0.5), (1, 1), (1, 0.5), (1.5, 1)])
    def test_correlation_products_bitwise(self, j_a, j_b):
        products = criteria._spin_correlation_operators(j_a, j_b)
        assert products is criteria._spin_correlation_operators(j_a, j_b)
        ops_a, ops_b = spin_operators(j_a), spin_operators(j_b)
        for product, axis in zip(products, "xyz", strict=True):
            fresh = tensor_product(ops_a.component(axis), ops_b.component(axis))
            assert product.tobytes() == fresh.tobytes() and product.shape == fresh.shape
            assert_read_only(product)
