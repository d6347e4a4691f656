"""The array oracle reproduces the loops exactly, not to a tolerance.

Only the dual columns, summed in another order than y @ A, carry one.
"""

import numpy as np
import pytest

import loop_reference
from loop_reference import exact_bound, lp_system
from steerkit import oracle
from steerkit.core import bipartite_from_matrix, spin_operators
from steerkit.families import werner_state
from steerkit.measurements import MeasurementStrategy, all_pairs_strategy, observable_to_measurement
from steerkit.oracle import (
    SteeringFunctional,
    certify_steering,
    lhs_feasible,
    linear_correlation_functional,
    mub_qubit_measurements,
    phenomenon_from_state,
    qubit_grid,
    random_pure_grid,
)
from util import random_density_matrix


def spin_measurements(j, directions):
    spin = spin_operators(j)
    return tuple(
        observable_to_measurement(x * spin.jx + y * spin.jy + z * spin.jz, f"n{i}")
        for i, (x, y, z) in enumerate(directions)
    )


def unit_directions(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def matched_strategy(alice, bob):
    return MeasurementStrategy(alice=alice, bob=bob, pairing=tuple((i, i) for i in range(len(alice))))


def random_functional(rng, phen):
    return SteeringFunctional(coeffs=tuple(rng.standard_normal(t.probs.shape) for t in phen.tables))


def assert_same_bound(phen, functional):
    cert = certify_steering(phen, functional)
    bound, strategy = exact_bound(phen, functional)
    assert cert.lhs_bound == bound
    assert cert.maximizing_strategy == strategy
    assert all(type(i) is int for i in cert.maximizing_strategy)


class TestExactBound:
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_qubit_random_functionals(self, rng, n):
        meas = spin_measurements(0.5, unit_directions(rng, n))
        state = bipartite_from_matrix(random_density_matrix(rng, 4).matrix, 2, 2)
        for strategy in (matched_strategy(meas, meas), all_pairs_strategy(meas, meas)):
            phen = phenomenon_from_state(state, strategy)
            for _ in range(3):
                assert_same_bound(phen, random_functional(rng, phen))

    def test_spin1_alice_qutrit_bob(self, rng):
        alice = spin_measurements(1.0, unit_directions(rng, 4))
        bob = spin_measurements(1.0, unit_directions(rng, 3))
        state = bipartite_from_matrix(random_density_matrix(rng, 9).matrix, 3, 3)
        phen = phenomenon_from_state(state, all_pairs_strategy(alice, bob))
        for _ in range(3):
            assert_same_bound(phen, random_functional(rng, phen))

    @pytest.mark.parametrize("block", [1, 3, oracle.STRATEGY_BLOCK])
    def test_tied_strategies_keep_the_first(self, monkeypatch, block):
        # s and -s give operators ±M, so the top eigenvalue is shared across strategies.
        monkeypatch.setattr(oracle, "STRATEGY_BLOCK", block)
        strategy = all_pairs_strategy(mub_qubit_measurements(3), mub_qubit_measurements(3))
        phen = phenomenon_from_state(werner_state(0.6), strategy)
        assert_same_bound(phen, linear_correlation_functional(strategy))

    @pytest.mark.parametrize("block", [1, 5, 7, 64])
    def test_small_blocks(self, rng, monkeypatch, block):
        monkeypatch.setattr(oracle, "STRATEGY_BLOCK", block)
        meas = spin_measurements(0.5, unit_directions(rng, 6))
        strategy = matched_strategy(meas, meas)
        phen = phenomenon_from_state(werner_state(0.7), strategy)
        assert_same_bound(phen, linear_correlation_functional(strategy))
        assert_same_bound(phen, random_functional(rng, phen))

    def test_more_strategies_than_one_block(self, rng):
        n = oracle.STRATEGY_BLOCK.bit_length()  # 2**n strategies fill two blocks
        meas = spin_measurements(0.5, unit_directions(rng, n))
        strategy = matched_strategy(meas, meas)
        phen = phenomenon_from_state(werner_state(0.5), strategy)
        assert_same_bound(phen, random_functional(rng, phen))

    def test_count_guard_does_not_wrap(self, monkeypatch):
        # 2**64 wraps to 0 in int64; the guard must still refuse it, before any block is built.
        def no_blocks(*args):
            raise AssertionError("strategy block built past the cap")

        monkeypatch.setattr(oracle, "_strategy_block", no_blocks)
        meas = spin_measurements(0.5, [(0.0, 0.0, 1.0)] * 64)
        strategy = matched_strategy(meas, meas)
        phen = phenomenon_from_state(werner_state(0.5), strategy)
        with pytest.raises(ValueError, match="cap"):
            certify_steering(phen, linear_correlation_functional(strategy))


def assert_same_system(phen, grid):
    a_mat, b_vec, n_strategies = oracle._lp_system(phen, grid)
    ref_a, ref_b, ref_strategies = lp_system(phen, grid, phen.strategy.bob)
    assert np.array_equal(a_mat, ref_a)
    assert np.array_equal(b_vec, ref_b)
    assert a_mat.tobytes() == ref_a.tobytes()  # signed zeros too
    assert n_strategies == len(ref_strategies)


class TestLpSystem:
    @pytest.mark.parametrize("n_mub", [2, 3])
    @pytest.mark.parametrize("resolution", [50, 800])
    def test_werner_mub(self, n_mub, resolution):
        meas = mub_qubit_measurements(n_mub)
        phen = phenomenon_from_state(werner_state(0.7), all_pairs_strategy(meas, meas))
        assert_same_system(phen, qubit_grid(resolution))

    def test_qutrit_random_pure_grid(self, rng):
        spin = spin_operators(1.0)
        meas = tuple(observable_to_measurement(op, label) for label, op in (("Jx", spin.jx), ("Jz", spin.jz)))
        state = bipartite_from_matrix(random_density_matrix(rng, 9).matrix, 3, 3)
        phen = phenomenon_from_state(state, all_pairs_strategy(meas, meas))
        assert_same_system(phen, random_pure_grid(3, 120))


def grid_bytes(grid):
    return np.array([rho.matrix for rho in grid.states]).tobytes()


class TestGrids:
    @pytest.mark.parametrize("resolution", [1, 50, 200, 800])
    def test_qubit_grid(self, resolution):
        grid = qubit_grid(resolution)
        assert grid_bytes(grid) == grid_bytes(loop_reference.qubit_grid(resolution))
        assert grid.resolution == resolution

    @pytest.mark.parametrize("seed", [oracle.GRID_SEED, 7])
    @pytest.mark.parametrize("resolution", [1, 30, 800])
    @pytest.mark.parametrize("dim", [3, 4, 9])
    def test_random_pure_grid(self, dim, resolution, seed):
        grid = random_pure_grid(dim, resolution, seed)
        assert grid_bytes(grid) == grid_bytes(loop_reference.random_pure_grid(dim, resolution, seed))


def assert_dual_columns_match(phen, grid, y):
    a_mat = oracle._lp_system(phen, grid)[0]
    columns = oracle._dual_columns(phen, grid, y)
    assert columns.shape == (a_mat.shape[1] // len(grid.states), len(grid.states))
    assert np.max(np.abs(columns.ravel() - y @ a_mat)) <= 1e-12 * max(1.0, np.max(np.abs(y)))


class TestDualColumns:
    @pytest.mark.parametrize("n_mub", [2, 3])
    @pytest.mark.parametrize("resolution", [50, 800])
    def test_werner_mub(self, rng, n_mub, resolution):
        meas = mub_qubit_measurements(n_mub)
        phen = phenomenon_from_state(werner_state(0.9), all_pairs_strategy(meas, meas))
        grid = qubit_grid(resolution)
        outcome = lhs_feasible(phen, grid)
        assert not outcome.feasible
        assert_dual_columns_match(phen, grid, outcome.dual)
        assert_dual_columns_match(phen, grid, 40.0 * rng.standard_normal(outcome.dual.shape))

    def test_functional_from_dual_builds_no_lp(self, monkeypatch):
        meas = mub_qubit_measurements(3)
        phen = phenomenon_from_state(werner_state(0.9), all_pairs_strategy(meas, meas))
        grid = qubit_grid(50)
        outcome = lhs_feasible(phen, grid)

        def no_lp(*args):
            raise AssertionError("LP system rebuilt")

        monkeypatch.setattr(oracle, "_lp_system", no_lp)
        functional = oracle.functional_from_dual(phen, grid, outcome)
        assert np.concatenate([c.ravel() for c in functional.coeffs]).tobytes() == outcome.dual[:-1].tobytes()

    def test_qutrit_random_pure_grid(self, rng):
        spin = spin_operators(1.0)
        meas = tuple(observable_to_measurement(op, label) for label, op in (("Jx", spin.jx), ("Jz", spin.jz)))
        state = bipartite_from_matrix(random_density_matrix(rng, 9).matrix, 3, 3)
        phen = phenomenon_from_state(state, all_pairs_strategy(meas, meas))
        grid = random_pure_grid(3, 120)
        n_rows = sum(t.probs.size for t in phen.tables) + 1
        for _ in range(3):
            assert_dual_columns_match(phen, grid, rng.standard_normal(n_rows))
