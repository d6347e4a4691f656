import math

import numpy as np
import pytest

from steerkit.core import bipartite_from_matrix, spin_operators, tensor_product
from steerkit.families import werner_state
from steerkit.measurements import JointDistribution, all_pairs_strategy, observable_to_measurement
from steerkit.oracle import (
    GridFeasible,
    GridInfeasible,
    HiddenStateGrid,
    SteeringFunctional,
    certify_steering,
    feasibility_flip,
    functional_from_dual,
    lhs_feasible,
    linear_correlation_functional,
    mix_phenomena,
    mub_qubit_measurements,
    phenomenon_from_state,
    qubit_grid,
    random_pure_grid,
    reproduce_tables,
)
from util import random_density_matrix

MUB3 = mub_qubit_measurements(3)
MUB2 = mub_qubit_measurements(2)
STRATEGY3 = all_pairs_strategy(MUB3, MUB3)
STRATEGY2 = all_pairs_strategy(MUB2, MUB2)


def werner_phenomenon(mu, strategy=STRATEGY3):
    return phenomenon_from_state(werner_state(mu), strategy)


class TestPhenomenon:
    def test_from_state_shapes(self):
        phen = werner_phenomenon(0.5)
        assert len(phen.tables) == 9
        for table in phen.tables:
            assert table.probs.shape == (2, 2)

    def test_rejects_signalling_tables(self):
        phen = werner_phenomenon(0.5)
        tables = list(phen.tables)
        tables[0] = JointDistribution((0.5, -0.5), (0.5, -0.5), np.array([[0.7, 0.1], [0.1, 0.1]]))
        with pytest.raises(ValueError, match="marginals"):
            type(phen)(strategy=phen.strategy, tables=tuple(tables))

    def test_mixture(self):
        p1, p2 = werner_phenomenon(0.2), werner_phenomenon(0.6)
        mixed = mix_phenomena(0.25, p1, p2)
        direct = werner_phenomenon(0.25 * 0.2 + 0.75 * 0.6)
        for got, expect in zip(mixed.tables, direct.tables):
            assert np.max(np.abs(got.probs - expect.probs)) < 1e-12

    def test_mixture_accepts_equal_rebuilt_strategy(self):
        # Structurally identical strategies built separately still mix.
        other_strategy = all_pairs_strategy(mub_qubit_measurements(3), mub_qubit_measurements(3))
        p1 = werner_phenomenon(0.2)
        p2 = werner_phenomenon(0.6, other_strategy)
        mix_phenomena(0.5, p1, p2)

    def test_mixture_rejects_different_strategies(self):
        p1 = werner_phenomenon(0.2)
        p2 = werner_phenomenon(0.6, STRATEGY2)
        with pytest.raises(ValueError, match="strategy"):
            mix_phenomena(0.5, p1, p2)


class TestGrids:
    def test_qubit_grid_contents(self):
        grid = qubit_grid(40)
        assert grid.resolution == 40
        assert len(grid.states) == 41
        assert np.allclose(grid.states[-1].matrix, np.eye(2) / 2)
        for state in grid.states[:-1]:
            # pure states: rho^2 = rho
            assert np.max(np.abs(state.matrix @ state.matrix - state.matrix)) < 1e-12

    def test_qubit_grid_deterministic(self):
        a, b = qubit_grid(25), qubit_grid(25)
        for s1, s2 in zip(a.states, b.states):
            assert np.array_equal(s1.matrix, s2.matrix)

    def test_random_pure_grid_seeded(self):
        a = random_pure_grid(3, 10)
        b = random_pure_grid(3, 10)
        for s1, s2 in zip(a.states, b.states):
            assert np.array_equal(s1.matrix, s2.matrix)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            qubit_grid(0)
        with pytest.raises(ValueError):
            HiddenStateGrid(states=(), resolution=0)

    def test_mixed_dimensions_rejected(self):
        states = qubit_grid(2).states + random_pure_grid(3, 2).states
        with pytest.raises(ValueError, match=r"dimensions \[2, 3\]"):
            HiddenStateGrid(states=states, resolution=4)


class TestFeasibility:
    def test_werner_04_feasible_with_witness(self):
        grid = qubit_grid(200)
        phen = werner_phenomenon(0.4)
        outcome = lhs_feasible(phen, grid)
        assert isinstance(outcome, GridFeasible)
        assert outcome.weights.min() >= -1e-12
        assert abs(outcome.weights.sum() - 1) < 1e-7
        rebuilt = reproduce_tables(phen, grid, outcome.weights)
        for got, expect in zip(rebuilt, phen.tables):
            assert np.max(np.abs(got - expect.probs)) < 1e-7

    def test_werner_09_grid_infeasible(self):
        outcome = lhs_feasible(werner_phenomenon(0.9), qubit_grid(200))
        assert isinstance(outcome, GridInfeasible)
        assert outcome.violation > 1e-3

    def test_product_state_single_grid_state(self, rng):
        # Alice holds a Jz eigenstate, so her response to a Jz measurement is
        # deterministic: all weight lands on one (strategy, state) pair.
        rho_b = random_density_matrix(rng, 2)
        up = np.diag([1.0, 0.0]).astype(complex)
        state = bipartite_from_matrix(tensor_product(up, rho_b.matrix), 2, 2)
        jz = observable_to_measurement(np.diag([0.5, -0.5]).astype(complex), "Jz")
        strategy = all_pairs_strategy([jz], [jz])
        phen = phenomenon_from_state(state, strategy)
        grid = HiddenStateGrid(states=(rho_b,), resolution=1)
        outcome = lhs_feasible(phen, grid)
        assert isinstance(outcome, GridFeasible)
        assert np.sum(outcome.weights > 1e-7) == 1

    def test_refinement_keeps_feasible(self):
        # A model over a subgrid is a model over the fuller grid.
        full = qubit_grid(200)
        sub = HiddenStateGrid(states=full.states[::4], resolution=len(full.states[::4]))
        for mu in (0.4, 0.5):
            phen = werner_phenomenon(mu)
            if lhs_feasible(phen, sub).feasible:
                assert lhs_feasible(phen, full).feasible

    def test_qutrit_product_state_feasible(self):
        # Exercises the seeded pure-state grid for dimension > 2: a product
        # state with a maximally mixed Bob marginal has a one-state model.
        spin1 = spin_operators(1.0)
        jz = observable_to_measurement(spin1.jz, "Jz1")
        jx = observable_to_measurement(spin1.jx, "Jx1")
        state = bipartite_from_matrix(np.eye(9) / 9, 3, 3)
        strategy = all_pairs_strategy([jz, jx], [jz, jx])
        phen = phenomenon_from_state(state, strategy)
        grid = random_pure_grid(3, 30)
        outcome = lhs_feasible(phen, grid)
        assert isinstance(outcome, GridFeasible)
        rebuilt = reproduce_tables(phen, grid, outcome.weights)
        for got, expect in zip(rebuilt, phen.tables):
            assert np.max(np.abs(got - expect.probs)) < 1e-7

    def test_convex_mixture_of_feasible_is_feasible(self):
        grid = qubit_grid(150)
        p1, p2 = werner_phenomenon(0.3), werner_phenomenon(0.45)
        w1 = lhs_feasible(p1, grid)
        w2 = lhs_feasible(p2, grid)
        assert w1.feasible and w2.feasible
        for p in (0.25, 0.5, 0.75):
            mixed = mix_phenomena(p, p1, p2)
            assert lhs_feasible(mixed, grid).feasible
            # The blended weights are an explicit witness for the mixture.
            blended = p * w1.weights + (1 - p) * w2.weights
            rebuilt = reproduce_tables(mixed, grid, blended)
            for got, expect in zip(rebuilt, mixed.tables):
                assert np.max(np.abs(got - expect.probs)) < 1e-6


class TestDualCertification:
    def test_dual_functional_certifies_werner_09(self):
        grid = qubit_grid(200)
        phen = werner_phenomenon(0.9)
        outcome = lhs_feasible(phen, grid)
        assert isinstance(outcome, GridInfeasible)
        functional = functional_from_dual(phen, grid, outcome)
        certificate = certify_steering(phen, functional)
        assert certificate.certified
        assert certificate.observed_value > certificate.lhs_bound + 1e-9

    def test_corrupted_dual_rejected(self):
        grid = qubit_grid(100)
        phen = werner_phenomenon(0.9)
        outcome = lhs_feasible(phen, grid)
        corrupted = GridInfeasible(dual=-outcome.dual, violation=outcome.violation)
        with pytest.raises(ValueError, match="separation"):
            functional_from_dual(phen, grid, corrupted)

    def test_scaled_dual_same_outcome(self):
        grid = qubit_grid(150)
        phen = werner_phenomenon(0.9)
        outcome = lhs_feasible(phen, grid)
        base = functional_from_dual(phen, grid, outcome)
        scaled = SteeringFunctional(coeffs=tuple(3.7 * c for c in base.coeffs))
        assert certify_steering(phen, base).certified == certify_steering(phen, scaled).certified

    def test_observed_value_matches_table_sum(self):
        phen = werner_phenomenon(0.8)
        functional = linear_correlation_functional(STRATEGY3)
        manual = sum(float(np.sum(c * t.probs)) for c, t in zip(functional.coeffs, phen.tables))
        assert functional.value(phen) == manual

    def test_certificate_survives_independent_recheck(self):
        # Recompute both sides of a certificate from scratch: the observed
        # value from the tables, the bound by brute-force enumeration over
        # Alice assignments and Bob operator spectra.
        import itertools

        grid = qubit_grid(150)
        phen = werner_phenomenon(0.9)
        outcome = lhs_feasible(phen, grid)
        functional = functional_from_dual(phen, grid, outcome)
        certificate = certify_steering(phen, functional)

        observed = 0.0
        for block, table in zip(functional.coeffs, phen.tables):
            observed += float(np.sum(block * table.probs))
        assert observed == pytest.approx(certificate.observed_value, abs=1e-12)

        best = -np.inf
        for strat in itertools.product(range(2), repeat=3):
            aggregated = np.zeros((2, 2), dtype=complex)
            for (a_idx, b_idx), block in zip(phen.strategy.pairing, functional.coeffs):
                for b_out, effect in enumerate(phen.strategy.bob[b_idx].effects):
                    aggregated += block[strat[a_idx], b_out] * effect
            best = max(best, float(np.linalg.eigvalsh(aggregated)[-1]))
        assert best == pytest.approx(certificate.lhs_bound, abs=1e-12)
        assert (observed > best + 1e-9) == certificate.certified


class TestLinearCorrelationFunctional:
    def test_exact_bound_is_sqrt3_over_4(self):
        functional = linear_correlation_functional(STRATEGY3)
        for mu in (0.5, 0.9):
            certificate = certify_steering(werner_phenomenon(mu), functional)
            assert certificate.lhs_bound == pytest.approx(math.sqrt(3) / 4, abs=1e-9)

    def test_werner_09_certified(self):
        certificate = certify_steering(werner_phenomenon(0.9), linear_correlation_functional(STRATEGY3))
        assert certificate.observed_value == pytest.approx(3 * 0.9 / 4, abs=1e-12)
        assert certificate.certified

    def test_werner_05_not_certified(self):
        certificate = certify_steering(werner_phenomenon(0.5), linear_correlation_functional(STRATEGY3))
        assert certificate.observed_value == pytest.approx(0.375, abs=1e-12)
        assert not certificate.certified


class TestFeasibilityFlip:
    def test_brackets_validated(self):
        grid = qubit_grid(50)
        with pytest.raises(ValueError):
            feasibility_flip(lambda mu: werner_phenomenon(mu, STRATEGY2), grid, lo=0.9, hi=1.0)

    def test_mub2_flip_near_expected(self):
        grid = qubit_grid(200)
        flip = feasibility_flip(lambda mu: werner_phenomenon(mu, STRATEGY2), grid, tol=2e-3)
        assert abs(flip - 1 / math.sqrt(2)) < 0.02
