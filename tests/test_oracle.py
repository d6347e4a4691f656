import math
import re

import numpy as np
import pytest

from steerkit import families, oracle
from steerkit.core import bipartite_from_matrix, spin_operators, tensor_product
from steerkit.families import feasibility_flip, singlet_state, werner_state
from steerkit.measurements import (
    JointDistribution,
    MeasurementStrategy,
    all_pairs_strategy,
    observable_to_measurement,
)
from steerkit.oracle import (
    GridFeasible,
    GridInfeasible,
    HiddenStateGrid,
    SteeringFunctional,
    certify_steering,
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
from util import cap_calls, fresh_interpreter, random_density_matrix

MUB3 = mub_qubit_measurements(3)
MUB2 = mub_qubit_measurements(2)
STRATEGY3 = all_pairs_strategy(MUB3, MUB3)
MATCHED3 = MeasurementStrategy(alice=MUB3, bob=MUB3, pairing=((0, 0), (1, 1), (2, 2)))
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
        assert grid.matrices.shape == (41, 2, 2)
        assert np.allclose(grid.matrices[-1], np.eye(2) / 2)
        # pure states: rho^2 = rho
        pure = grid.matrices[:-1]
        assert np.max(np.abs(pure @ pure - pure)) < 1e-12

    def test_qubit_grid_deterministic(self):
        assert np.array_equal(qubit_grid(25).matrices, qubit_grid(25).matrices)

    def test_random_pure_grid_seeded(self):
        assert np.array_equal(random_pure_grid(3, 10).matrices, random_pure_grid(3, 10).matrices)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            qubit_grid(0)
        with pytest.raises(ValueError, match="empty"):
            HiddenStateGrid(matrices=np.empty((0, 2, 2), dtype=complex))

    def test_mixed_dimensions_rejected(self):
        # One array cannot hold states of two dimensions.
        matrices = [*qubit_grid(2).matrices, *random_pure_grid(3, 2).matrices]
        with pytest.raises(ValueError, match="inhomogeneous"):
            HiddenStateGrid(matrices=matrices)

    def test_valid_stack_is_one_read_only_array(self, rng):
        mats = np.array([random_density_matrix(rng, 3).matrix for _ in range(5)])
        grid = HiddenStateGrid(matrices=mats)
        assert grid.dim == 3
        assert np.array_equal(grid.matrices, mats)
        assert not grid.matrices.flags.writeable
        # The grid holds its own copy; the caller's array stays writeable.
        assert mats.flags.writeable

    def test_bad_state_mid_grid_rejected(self, rng):
        bad = np.diag([1.5, -0.5]).astype(complex)
        mats = np.array([random_density_matrix(rng, 2).matrix for _ in range(7)])
        mats[3] = bad
        with pytest.raises(ValueError, match="eigenvalue below -1e-9"):
            HiddenStateGrid(matrices=mats)

    def test_rejects_non_stack_shape(self):
        with pytest.raises(ValueError, match="shape"):
            HiddenStateGrid(matrices=np.eye(2, dtype=complex) / 2)
        with pytest.raises(ValueError, match="shape"):
            HiddenStateGrid(matrices=np.ones((2, 2, 3), dtype=complex))


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
        grid = HiddenStateGrid(matrices=rho_b.matrix[None])
        outcome = lhs_feasible(phen, grid)
        assert isinstance(outcome, GridFeasible)
        assert np.sum(outcome.weights > 1e-7) == 1

    def test_refinement_keeps_feasible(self):
        # A model over a subgrid is a model over the fuller grid.
        full = qubit_grid(200)
        sub = HiddenStateGrid(matrices=full.matrices[::4])
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

    @pytest.mark.parametrize(
        ("strategy", "entry"),
        [(MATCHED3, 0), (MATCHED3, 1), (MATCHED3, 2), (STRATEGY3, 5)],
        ids=["matched-0", "matched-1", "matched-2", "all-pairs-5"],
    )
    def test_block_of_wrong_shape_rejected(self, strategy, entry):
        # Unchecked, a 1x2 block broadcasts against its 2x2 table: value()
        # returns a wrong number and certify_steering raises an IndexError.
        phen = werner_phenomenon(0.9, strategy)
        blocks = [np.ones(t.probs.shape) for t in phen.tables]
        blocks[entry] = np.array([[1.0, -1.0]])
        functional = SteeringFunctional(coeffs=tuple(blocks))
        a_idx, b_idx = strategy.pairing[entry]
        message = re.escape(
            f"functional block {entry} has shape (1, 2), but pairing entry {entry}"
            f" (Alice {MUB3[a_idx].label!r}, Bob {MUB3[b_idx].label!r}) has a (2, 2) table"
        )
        with pytest.raises(ValueError, match=message):
            functional.value(phen)
        with pytest.raises(ValueError, match=message):
            certify_steering(phen, functional)

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
        # The singlet's phenomenon has no model at any parameter, 0 included.
        singlet = phenomenon_from_state(singlet_state(), STRATEGY2)
        with pytest.raises(ValueError, match="feasibility at the lower bracket 0"):
            feasibility_flip(lambda mu: singlet, grid, tol=1e-3)
        # Werner μ/2 stays below 1/√2, so it has a model at 1 too.
        with pytest.raises(ValueError, match="infeasibility at the upper bracket 1"):
            feasibility_flip(lambda mu: werner_phenomenon(mu / 2, STRATEGY2), grid, tol=1e-3)

    def test_tol_below_float_spacing_stops_at_adjacent_floats(self, monkeypatch):
        grid = qubit_grid(20)
        cap_calls(monkeypatch, families, "lhs_feasible", 200)
        flip = feasibility_flip(lambda mu: werner_phenomenon(mu, STRATEGY2), grid, tol=1e-20)
        below, above = flip, np.nextafter(flip, np.inf)
        if not lhs_feasible(werner_phenomenon(below, STRATEGY2), grid).feasible:
            below, above = np.nextafter(flip, -np.inf), flip
        assert lhs_feasible(werner_phenomenon(below, STRATEGY2), grid).feasible
        assert not lhs_feasible(werner_phenomenon(above, STRATEGY2), grid).feasible

    def test_mub2_flip_near_expected(self):
        grid = qubit_grid(200)
        flip = feasibility_flip(lambda mu: werner_phenomenon(mu, STRATEGY2), grid, tol=2e-3)
        assert abs(flip - 1 / math.sqrt(2)) < 0.02


class TestHighsBinding:
    """The oracle loads scipy's HiGHS extension alone, as the module scipy.optimize itself uses.

    Each case runs in a fresh interpreter, since the test process has long
    since imported scipy.optimize.
    """

    SOLVE = """
from steerkit import oracle
from steerkit.families import werner_state
from steerkit.measurements import all_pairs_strategy
mub2 = oracle.mub_qubit_measurements(2)
phen = oracle.phenomenon_from_state(werner_state(0.9), all_pairs_strategy(mub2, mub2))
print(oracle.lhs_feasible(phen, oracle.qubit_grid(50)).feasible)
"""

    def test_scipy_optimize_after_the_oracle(self):
        out = fresh_interpreter(self.SOLVE + """
import sys
binding = oracle._highs_binding()
print("scipy.optimize" in sys.modules)
from scipy.optimize import linprog
from scipy.optimize._highspy import _core
import scipy.optimize._highspy._highs_wrapper as wrapper
res = linprog([1, 2], A_eq=[[1, 1]], b_eq=[1], method="highs")
print(res.status, res.x.tolist())
print(_core is binding, wrapper._h is binding, sys.modules[oracle._HIGHS_BINDING] is binding)
""")
        assert out.splitlines() == ["False", "False", "0 [1.0, 0.0]", "True True True"]

    def test_oracle_after_scipy_optimize(self):
        out = fresh_interpreter("""
import scipy.optimize
from scipy.optimize._highspy import _core
""" + self.SOLVE + """
print(oracle._highs_binding() is _core)
""")
        assert out.splitlines() == ["False", "True"]

    def test_scipy_without_the_binding(self, tmp_path):
        # A scipy tree whose optimize/_highspy holds no extension.
        package = tmp_path / "scipy"
        (package / "optimize" / "_highspy").mkdir(parents=True)
        (package / "__init__.py").write_text('__version__ = "0.0.test"\n')
        out = fresh_interpreter("""
import sys
from steerkit import oracle
try:
    oracle._highs_binding()
except ImportError as error:
    print(error)
print(oracle._HIGHS_BINDING in sys.modules)
""", tmp_path)
        directory = package / "optimize" / "_highspy"
        assert out.splitlines() == [f"no HiGHS binding _core in {directory} (scipy 0.0.test)", "False"]

    def test_failed_load_leaves_no_module(self):
        # As importlib does, a module whose execution raises is taken out of
        # sys.modules, and the next call loads it afresh.
        out = fresh_interpreter("""
import sys
from importlib.machinery import ExtensionFileLoader
from steerkit import oracle
real = ExtensionFileLoader.exec_module
def fail(loader, module):
    if module.__name__ != oracle._HIGHS_BINDING:
        return real(loader, module)
    print(sys.modules[module.__name__] is module)
    raise RuntimeError("exec_module failed")
ExtensionFileLoader.exec_module = fail
try:
    oracle._highs_binding()
except RuntimeError as error:
    print(error)
print(oracle._HIGHS_BINDING in sys.modules)
ExtensionFileLoader.exec_module = real
""" + self.SOLVE)
        assert out.splitlines() == ["True", "exec_module failed", "False", "False"]
