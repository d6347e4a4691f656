"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` (or -rA) to see the pass/fail
lines. Each criterion carries an explicit runtime budget and a numerical
tolerance; both are asserted.
"""

import io
import csv
import math
import time
from contextlib import redirect_stdout

import numpy as np

from steerkit.core import expectation, spin_operators, tensor_product, variance
from steerkit.criteria import (
    eval_additive_sum_three_spin,
    eval_additive_sum_two,
    eval_bowen,
    eval_product_criterion,
    evaluate,
)
from steerkit.families import boundary_bisect, feasibility_flip, werner_state
from steerkit.gaussian import (
    boundary_collective_steering_mu,
    boundary_entanglement_mu,
    boundary_reid_steering_mu,
)
from steerkit.measurements import (
    inference_variance,
    inferred_abs_mean,
    measure_joint,
    observable_to_measurement,
)
from steerkit.measurements import all_pairs_strategy
from steerkit.oracle import (
    GridFeasible,
    GridInfeasible,
    certify_steering,
    functional_from_dual,
    lhs_feasible,
    linear_correlation_functional,
    mix_phenomena,
    mub_qubit_measurements,
    phenomenon_from_state,
    qubit_grid,
    reproduce_tables,
)
from util import (
    assemblage_from_state,
    implication_trial,
    random_density_matrix,
    random_separable_two_qubit,
    random_spin_plan,
    random_two_qubit_state,
)

SPIN = spin_operators(0.5)
JZ = observable_to_measurement(SPIN.jz, "Jz")


def timed(name: str, budget_seconds: float):
    """Run the body, print one [PASS]/[FAIL] line, and enforce the budget."""

    class _Timer:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.perf_counter() - self.start
            status = "PASS" if exc_type is None else "FAIL"
            print(f"[{status}] {name} ({elapsed:.2f}s / budget {budget_seconds:.0f}s)")
            if exc_type is None:
                assert elapsed < budget_seconds, f"{name} exceeded its {budget_seconds}s budget"
            return False

    return _Timer()


def test_criterion_1_werner_thresholds():
    closed_forms = {
        "product-spin": (math.sqrt(5) - 1) / 2,
        "sum-three-spin": 1 / math.sqrt(3),
        "linear-2": 1 / math.sqrt(2),
        "linear-3": 1 / math.sqrt(3),
    }
    with timed("criterion 1: Werner thresholds via bisection", 1.0):
        for criterion_id, expected in closed_forms.items():
            result = boundary_bisect(criterion_id, "werner", "mu", tol=1e-9)
            assert abs(result.threshold - expected) < 1e-8, criterion_id


def test_criterion_2_werner_intermediates_from_born_statistics():
    with timed("criterion 2: Werner intermediates at four mixing values", 5.0):
        for mu in (0.3, 0.62, 0.8, 1.0):
            state = werner_state(mu)
            joint = measure_joint(state, JZ, JZ)
            assert abs(inference_variance(joint) - (1 - mu**2) / 4) < 1e-10
            assert abs(inferred_abs_mean(joint) - mu / 2) < 1e-10
            for axis in "xyz":
                op = SPIN.component(axis)
                corr = expectation(tensor_product(op, op), state.matrix)
                assert abs(corr - (-mu / 4)) < 1e-10


def test_criterion_3_gaussian_boundaries():
    cases = [
        ("duan-simon", boundary_entanglement_mu),
        ("reid-cv", boundary_reid_steering_mu),
        ("collective-cv-sum", boundary_collective_steering_mu),
    ]
    with timed("criterion 3: Gaussian boundary curves and ordering", 1.0):
        for nbar in (0.5, 1.0, 2.0, 5.0, 10.0):
            thresholds = {}
            for criterion_id, closed_form in cases:
                result = boundary_bisect(
                    criterion_id, "symmetric-gaussian", "mu", tol=1e-9, fixed={"nbar": nbar}
                )
                assert abs(result.threshold - closed_form(nbar)) < 1e-8, (criterion_id, nbar)
                thresholds[criterion_id] = result.threshold
            assert thresholds["duan-simon"] < thresholds["reid-cv"] < thresholds["collective-cv-sum"]


def test_criterion_4_uncertainty_relation_suite():
    rng = np.random.default_rng(41)
    with timed("criterion 4: Robertson and sum uncertainty bounds, 1000 states x 2 spins", 5.0):
        for j in (0.5, 1.0):
            ops = spin_operators(j)
            for _ in range(1000):
                rho = random_density_matrix(rng, ops.dim)
                robertson = (
                    math.sqrt(variance(ops.jx, rho)) * math.sqrt(variance(ops.jy, rho))
                    - 0.5 * abs(expectation(ops.jz, rho))
                )
                assert robertson >= -1e-9
                total = sum(variance(op, rho) for op in (ops.jx, ops.jy, ops.jz))
                assert total - j >= -1e-9


def test_criterion_5_soundness_on_separable_states():
    rng = np.random.default_rng(52)
    catalog_ids = (
        "product-spin", "bowen", "sum-two", "sum-three-spin",
        "collective-spin-sum", "linear-2", "linear-3", "linear-spin-j",
    )
    with timed("criterion 5: no violation on 200 separable mixtures", 10.0):
        for _ in range(200):
            state = random_separable_two_qubit(rng)
            plan = random_spin_plan(rng)
            assert eval_product_criterion(state, plan).margin <= 1e-9
            assert eval_additive_sum_two(state, plan).margin <= 1e-9
            assert eval_additive_sum_three_spin(state, plan).margin <= 1e-9
            assert eval_bowen(state, plan).margin <= 1e-9
            for criterion_id in catalog_ids:
                assert evaluate(criterion_id, state).margin <= 1e-9, criterion_id


def test_criterion_6_implication_chain():
    rng = np.random.default_rng(63)
    with timed("criterion 6: sum-two and bowen imply product-spin, 200 states", 10.0):
        sum_two_hits = 0
        bowen_hits = 0
        for _ in range(200):
            state, plan = implication_trial(rng)
            product_violated = eval_product_criterion(state, plan).violated
            if eval_additive_sum_two(state, plan).violated:
                sum_two_hits += 1
                assert product_violated
            if eval_bowen(state, plan).violated:
                bowen_hits += 1
                assert product_violated
        # The draw must actually exercise both implications.
        assert sum_two_hits > 0 and bowen_hits > 0


def test_criterion_7_oracle_suite():
    with timed("criterion 7: LP oracle, certification, convexity, grid refinement", 60.0):
        mub3 = mub_qubit_measurements(3)
        strategy3 = all_pairs_strategy(mub3, mub3)
        grid200 = qubit_grid(200)

        # Werner 0.4 admits a grid model; 0.9 does not and certifies.
        feasible = lhs_feasible(phenomenon_from_state(werner_state(0.4), strategy3), grid200)
        assert isinstance(feasible, GridFeasible)
        phen_09 = phenomenon_from_state(werner_state(0.9), strategy3)
        infeasible = lhs_feasible(phen_09, grid200)
        assert isinstance(infeasible, GridInfeasible)
        dual_functional = functional_from_dual(phen_09, grid200, infeasible)
        assert certify_steering(phen_09, dual_functional).certified

        # The outcome-product functional has the exact enumerated bound.
        certificate = certify_steering(phen_09, linear_correlation_functional(strategy3))
        assert abs(certificate.lhs_bound - math.sqrt(3) / 4) < 1e-9
        assert certificate.certified

        # Convexity: mixtures of feasible phenomena stay feasible, and the
        # blended weights witness the mixture explicitly.
        phen_a = phenomenon_from_state(werner_state(0.3), strategy3)
        phen_b = phenomenon_from_state(werner_state(0.45), strategy3)
        w_a = lhs_feasible(phen_a, grid200)
        w_b = lhs_feasible(phen_b, grid200)
        assert w_a.feasible and w_b.feasible
        for p in (0.25, 0.5, 0.75):
            mixed = mix_phenomena(p, phen_a, phen_b)
            assert lhs_feasible(mixed, grid200).feasible
            blended = p * w_a.weights + (1 - p) * w_b.weights
            rebuilt = reproduce_tables(mixed, grid200, blended)
            for got, expect in zip(rebuilt, mixed.tables):
                assert np.max(np.abs(got - expect.probs)) < 1e-6

        # Two-measurement grid refinement: the feasibility flip approaches
        # the 1/sqrt(2) limit from below as the grid refines.
        mub2 = mub_qubit_measurements(2)
        strategy2 = all_pairs_strategy(mub2, mub2)

        def phen2(mu):
            return phenomenon_from_state(werner_state(mu), strategy2)

        flips = [feasibility_flip(phen2, qubit_grid(n), tol=1e-3) for n in (50, 200, 800)]
        assert flips[0] <= flips[1] + 1e-3 <= flips[2] + 2e-3
        assert abs(flips[2] - 1 / math.sqrt(2)) < 0.01


def test_criterion_8_no_signalling():
    rng = np.random.default_rng(85)
    with timed("criterion 8: assemblage marginals agree on 100 random states", 5.0):
        jx = observable_to_measurement(SPIN.jx, "Jx")
        for _ in range(100):
            state = random_two_qubit_state(rng)
            assemblage = assemblage_from_state(state, [JZ, jx])
            totals = [sum(rho for _, rho in members) for members in assemblage.entries]
            assert np.max(np.abs(totals[0] - totals[1])) < 1e-9


def test_criterion_9_cli_end_to_end():
    from steerkit.cli import main

    with timed("criterion 9: figure cv-bounds output, re-parsed and deterministic", 5.0):
        argv = ["figure", "cv-bounds", "--nbar-grid", "0.5:10:20"]
        first, second = io.StringIO(), io.StringIO()
        with redirect_stdout(first):
            assert main(list(argv)) == 0
        with redirect_stdout(second):
            assert main(list(argv)) == 0
        assert first.getvalue() == second.getvalue()
        rows = list(csv.reader(io.StringIO(first.getvalue())))
        assert rows[0] == ["nbar", "entanglement_mu", "reid_mu", "collective_mu"]
        assert len(rows) == 1 + 20
        for row in rows[1:]:
            nbar = float(row[0])
            assert abs(float(row[1]) - boundary_entanglement_mu(nbar)) < 1e-12
            assert abs(float(row[2]) - boundary_reid_steering_mu(nbar)) < 1e-12
            assert abs(float(row[3]) - boundary_collective_steering_mu(nbar)) < 1e-12
