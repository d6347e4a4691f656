"""The criterion catalog: steering inequalities evaluated to uniform records.

Each evaluator returns a CriterionResult holding the left-hand side, the
local-hidden-state (or separability) bound, the signed violation margin and
every intermediate quantity, so results are auditable. Boundary saturation
(margin exactly 0) counts as NOT violated: the inequalities are non-strict
for local models.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (
    BipartiteState,
    expectation,
    partial_trace,
    spin_operators,
    tensor_product,
    variance,
)
from .gaussian import P_A, P_B, X_A, X_B, GaussianState, conditional_min_variance, linear_combination_variance
from .measurements import (
    InferenceStatistics,
    Measurement,
    PROB_FLOOR,
    _check_pair_dimensions,
    _conditional_means,
    born_probabilities,
    check_probability_tables,
    collective_variance,
    effect_products,
    inference_statistics,
    measure_joint,
    observable_to_measurement,
    operator_of,
)

VIOLATED_IF_BELOW = "below"
VIOLATED_IF_ABOVE = "above"

COMMUTATION_TOL = 1e-9
# Index triples (i, k, l) of [b_i, b_k] = i·b_l, the first alone unless cyclic.
_CYCLIC_TRIPLES = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
CONVEXITY_TOL = 1e-12
CONVEXITY_GRID = 21

# Boundary saturation (margin exactly 0) counts as NOT violated; in floating
# point an exactly-saturated inequality lands within roundoff of zero, so the
# flag requires the margin to clear this tolerance.
SATURATION_TOL = 1e-12


@dataclass(frozen=True)
class CriterionResult:
    """Uniform verdict record: lhs, bound, direction, signed margin, intermediates."""

    criterion_id: str
    lhs_value: float
    bound: float
    direction: str
    margin: float
    violated: bool
    details: dict[str, float | str] = field(default_factory=dict)


def _result(
    criterion_id: str,
    lhs: float,
    bound: float,
    direction: str,
    details: dict[str, float | str],
) -> CriterionResult:
    margin = bound - lhs if direction == VIOLATED_IF_BELOW else lhs - bound
    return CriterionResult(
        criterion_id=criterion_id,
        lhs_value=float(lhs),
        bound=float(bound),
        direction=direction,
        margin=float(margin),
        violated=bool(margin > SATURATION_TOL),
        details=details,
    )


@dataclass(frozen=True)
class InferencePair:
    """One inferred Bob observable: his measurement and Alice's.

    Alice estimates Bob's outcome by its conditional mean given hers.
    """

    alice: Measurement
    bob: Measurement


class PairStack(NamedTuple):
    """The pairs of a plan that share one (n_a, n_b) outcome shape.

    products holds E_A ⊗ F_B as a read-only (pairs, n_a, n_b, D, D) array and
    b_values Bob's outcome values as a (pairs, n_b) array, both in the order
    of indices, the pairs' positions in the plan.
    """

    indices: tuple[int, ...]
    products: np.ndarray
    b_values: np.ndarray


@dataclass(frozen=True)
class InferencePlan:
    """Measurement choices for each inferred Bob observable.

    Alice's choices are free parameters of every inference criterion; a plan
    pins them down explicitly. Bob's observables, their commutation residues
    and Casimir sum, and the effect products are computed on first use and
    kept, so the evaluations that share a plan compute them once; the checks
    against COMMUTATION_TOL still run on every evaluation.
    """

    pairs: tuple[InferencePair, ...]

    @functools.cached_property
    def effect_products(self) -> tuple[PairStack, ...]:
        """E_A ⊗ F_B of every pair, stacked per outcome shape in order of first appearance.

        A plan whose pairs share one shape, as every spin plan does, has one
        stack. The products take 16·n_a·n_b·D² bytes per pair, 48·d⁶ for
        three nondegenerate pairs of two d-level parties: 3 kB for qubits,
        35 kB for spin-1, 750 kB for spin-2. Pairs whose dimensions differ
        from one another cannot share a state, so evaluation checks them
        against the state before it reads this.
        """
        by_shape: dict[tuple[int, int], list[int]] = {}
        for idx, pair in enumerate(self.pairs):
            by_shape.setdefault((pair.alice.n_outcomes, pair.bob.n_outcomes), []).append(idx)
        stacks = []
        for indices in by_shape.values():
            products = np.stack([effect_products(self.pairs[i].alice, self.pairs[i].bob) for i in indices])
            b_values = np.array([self.pairs[i].bob.values for i in indices])
            for array in (products, b_values):
                array.setflags(write=False)
            stacks.append(PairStack(tuple(indices), products, b_values))
        return tuple(stacks)

    @functools.cached_property
    def bob_operators(self) -> tuple[np.ndarray, ...]:
        """Bob's observables Σ value·effect, one per pair."""
        return tuple(operator_of(p.bob) for p in self.pairs)

    @functools.cached_property
    def commutation_residues(self) -> tuple[float, float, float]:
        """max |[b_i, b_k] − i·b_l| for (i, k, l) = (1, 2, 3), (2, 3, 1), (3, 1, 2) of three pairs."""
        b_ops = self.bob_operators
        return tuple(
            float(np.max(np.abs(b_ops[i] @ b_ops[k] - b_ops[k] @ b_ops[i] - 1j * b_ops[l])))
            for i, k, l in _CYCLIC_TRIPLES
        )

    @functools.cached_property
    def casimir(self) -> np.ndarray:
        """b1² + b2² + b3² of three pairs' Bob operators."""
        b_ops = self.bob_operators
        return b_ops[0] @ b_ops[0] + b_ops[1] @ b_ops[1] + b_ops[2] @ b_ops[2]


def _spin_measurements(j: float, party: str) -> tuple[Measurement, Measurement, Measurement]:
    """(Jx, Jy, Jz) of a spin-j party as measurements labelled J{axis}_{party}."""
    ops = spin_operators(j)
    return tuple(observable_to_measurement(ops.component(axis), f"J{axis}_{party}") for axis in "xyz")


@functools.lru_cache(maxsize=8)
def spin_triple_plan(j_alice: float, j_bob: float) -> InferencePlan:
    """Plan measuring the same spin component (x, y, z) on both sides; built once per (j_alice, j_bob)."""
    alice, bob = _spin_measurements(j_alice, "A"), _spin_measurements(j_bob, "B")
    return InferencePlan(pairs=tuple(InferencePair(a, b) for a, b in zip(alice, bob)))


def default_spin_plan(state: BipartiteState) -> InferencePlan:
    return spin_triple_plan((state.dim_a - 1) / 2, (state.dim_b - 1) / 2)


def _check_commutation(plan: InferencePlan, cyclic: bool) -> None:
    """Require [b1, b2] = i·b3 (and cyclic permutations when asked)."""
    labels = [p.bob.label for p in plan.pairs]
    triples = _CYCLIC_TRIPLES if cyclic else _CYCLIC_TRIPLES[:1]
    for (i, k, l), residue in zip(triples, plan.commutation_residues):
        if residue > COMMUTATION_TOL:
            raise ValueError(
                f"commutation check failed for ({labels[i]}, {labels[k]}, {labels[l]}): "
                f"max |[b{i + 1}, b{k + 1}] - i b{l + 1}| = {residue:.3e}"
            )


def _plan_statistics(state: BipartiteState, plan: InferencePlan) -> list[InferenceStatistics]:
    """Born tables and inference statistics of every pair, one stacked pass per outcome shape.

    Each pair is checked against the state's subsystems and each table with
    every JointDistribution check, as measure_joint does for one pair; the
    results carry the bits measure_joint and inference_statistics give it.
    """
    for pair in plan.pairs:
        _check_pair_dimensions(state, pair.alice, pair.bob)
    stats = [None] * len(plan.pairs)
    for stack in plan.effect_products:
        probs = born_probabilities(state, stack.products)
        probs = check_probability_tables(probs, probs.shape)
        group = inference_statistics(probs, stack.b_values)
        for k, idx in enumerate(stack.indices):
            stats[idx] = InferenceStatistics(group.weights[k], group.means[k], group.variance[k], group.abs_mean[k])
    return stats


def _conditional_mean_details(
    stats: InferenceStatistics, a_values: tuple[float, ...], tag: str
) -> dict[str, float]:
    """Per-Alice-outcome conditional means of B, keyed by the outcome value."""
    return {
        f"conditional_mean_{tag}[{a_values[idx]:g}]": float(stats.means[idx])
        for idx, weight in enumerate(stats.weights)
        if weight > PROB_FLOOR
    }


def _require_three_pairs(plan: InferencePlan, criterion_id: str) -> None:
    if len(plan.pairs) != 3:
        raise ValueError(f"{criterion_id} needs a plan with three inference pairs, got {len(plan.pairs)}")


def _uncertainty_pair_terms(
    state: BipartiteState, plan: InferencePlan, criterion_id: str
) -> tuple[tuple[np.ndarray, ...], list[InferenceStatistics], float, float]:
    """Shared prologue of the [b1, b2] = i·b3 criteria: Bob operators, pair statistics, Var_inf(B1), Var_inf(B2)."""
    _require_three_pairs(plan, criterion_id)
    _check_commutation(plan, cyclic=False)
    stats = _plan_statistics(state, plan)
    return plan.bob_operators, stats, float(stats[0].variance), float(stats[1].variance)


def eval_product_criterion(state: BipartiteState, plan: InferencePlan) -> CriterionResult:
    """D_inf(B1)·D_inf(B2) ≥ |<B3>|_inf / 2 for Bob observables with [b1, b2] = i·b3."""
    _, stats, v1, v2 = _uncertainty_pair_terms(state, plan, "product-spin")
    abs_mean_inf = float(stats[2].abs_mean)
    lhs = math.sqrt(v1) * math.sqrt(v2)
    details: dict[str, float | str] = {
        "inference_variance_1": v1,
        "inference_variance_2": v2,
        "inferred_abs_mean_3": abs_mean_inf,
        "estimator_1": "conditional-mean",
        "estimator_2": "conditional-mean",
    }
    details.update(_conditional_mean_details(stats[2], plan.pairs[2].alice.values, "3"))
    return _result("product-spin", lhs, 0.5 * abs_mean_inf, VIOLATED_IF_BELOW, details)


def eval_bowen(state: BipartiteState, plan: InferencePlan) -> CriterionResult:
    """Weaker product criterion: the bound uses Bob's unconditional |<B3>|."""
    b_ops, _, v1, v2 = _uncertainty_pair_terms(state, plan, "bowen")
    rho_b = partial_trace(state, "b")
    abs_mean = abs(expectation(b_ops[2], rho_b))
    lhs = math.sqrt(v1) * math.sqrt(v2)
    details: dict[str, float | str] = {
        "inference_variance_1": v1,
        "inference_variance_2": v2,
        "unconditional_abs_mean_3": abs_mean,
    }
    return _result("bowen", lhs, 0.5 * abs_mean, VIOLATED_IF_BELOW, details)


def eval_additive_sum_two(state: BipartiteState, plan: InferencePlan) -> CriterionResult:
    """Var_inf(B1) + Var_inf(B2) ≥ |<B3>|_inf; implied by the product criterion."""
    _, stats, v1, v2 = _uncertainty_pair_terms(state, plan, "sum-two")
    abs_mean_inf = float(stats[2].abs_mean)
    details: dict[str, float | str] = {
        "inference_variance_1": v1,
        "inference_variance_2": v2,
        "inferred_abs_mean_3": abs_mean_inf,
    }
    details.update(_conditional_mean_details(stats[2], plan.pairs[2].alice.values, "3"))
    return _result("sum-two", v1 + v2, abs_mean_inf, VIOLATED_IF_BELOW, details)


def eval_additive_sum_three_spin(state: BipartiteState, plan: InferencePlan) -> CriterionResult:
    """Var_inf(Jx) + Var_inf(Jy) + Var_inf(Jz) ≥ j for a spin-j Bob, j read from its dimension."""
    _require_three_pairs(plan, "sum-three-spin")
    j_val = (state.dim_b - 1) / 2
    _check_commutation(plan, cyclic=True)
    if np.max(np.abs(plan.casimir - j_val * (j_val + 1) * np.eye(state.dim_b))) > COMMUTATION_TOL:
        labels = ", ".join(p.bob.label for p in plan.pairs)
        raise ValueError(f"Bob observables ({labels}) are not a spin-{j_val} triple")
    variances = [float(pair_stats.variance) for pair_stats in _plan_statistics(state, plan)]
    details: dict[str, float | str] = {
        f"inference_variance_{i + 1}": v for i, v in enumerate(variances)
    }
    details["spin_j"] = j_val
    return _result("sum-three-spin", sum(variances), j_val, VIOLATED_IF_BELOW, details)


def _quadrature_pair_variance(state: GaussianState, a_idx: int, b_idx: int, gain: float) -> float:
    """Var(g·q_a + q_b) for two quadratures given by their covariance-matrix indices."""
    coeffs = np.zeros(state.cov.shape[0])
    coeffs[a_idx] += gain
    coeffs[b_idx] += 1.0
    return linear_combination_variance(state, coeffs)


def eval_reid_cv(state: GaussianState) -> CriterionResult:
    """D_inf(x_B)·D_inf(p_B) ≥ 1 on a two-mode Gaussian state.

    The inference variances are the Schur-complement conditional variances,
    the optimum over Alice's estimators. The fixed linear-gain form is the
    collective-cv-product criterion.
    """
    if state.n_modes != 2:
        raise ValueError(f"reid-cv needs a two-mode state, got {state.n_modes} modes")
    vx = conditional_min_variance(state, X_B, X_A)
    vp = conditional_min_variance(state, P_B, P_A)
    lhs = math.sqrt(vx) * math.sqrt(vp)
    details: dict[str, float | str] = {
        "inference_variance_x": vx,
        "inference_variance_p": vp,
        "gain_x": "optimal",
        "gain_p": "optimal",
    }
    return _result("reid-cv", lhs, 1.0, VIOLATED_IF_BELOW, details)


def eval_duan_simon(state: GaussianState) -> CriterionResult:
    """Var(x_A - x_B) + Var(p_A + p_B) ≥ 4: separability (entanglement) comparison.

    This witnesses entanglement, not steering; the analogous steering bound is
    half as large (harder to violate) because steering is the stronger notion.
    """
    if state.n_modes != 2:
        raise ValueError(f"duan-simon needs a two-mode state, got {state.n_modes} modes")
    v_minus = _quadrature_pair_variance(state, X_B, X_A, -1.0)
    v_plus = _quadrature_pair_variance(state, P_A, P_B, 1.0)
    details: dict[str, float | str] = {
        "variance_x_minus": v_minus,
        "variance_p_plus": v_plus,
        "witnesses": "entanglement (comparison criterion, not steering)",
    }
    return _result("duan-simon", v_minus + v_plus, 4.0, VIOLATED_IF_BELOW, details)


def _check_gain_mode(gain_mode: str) -> None:
    if gain_mode not in ("fixed", "optimize"):
        raise ValueError(f"gain_mode must be 'fixed' or 'optimize', got {gain_mode!r}")


def _optimal_gain(cov_ab: float, var_a: float, alice: str) -> float:
    """Reid's gain g* = -cov(A, B)/Var(A), which minimizes Var(g·A + B); alice names A in the error."""
    if var_a < 1e-12:
        raise ValueError(f"cannot optimize the gain against a zero-variance Alice {alice}")
    return -cov_ab / var_a


def eval_collective_cv(state: GaussianState, criterion_id: str, gain_mode: str) -> CriterionResult:
    """Collective criteria from Var(gx·x_A + x_B) and Var(gp·p_A + p_B) on a two-mode Gaussian state.

    criterion_id is collective-cv-sum (their sum, bound 2) or
    collective-cv-product (the product of their square roots, bound 1).
    gain_mode "fixed" takes (gx, gp) = (-1, +1); "optimize" takes each
    pair's optimal gain. For other gains, call linear_combination_variance.
    """
    if criterion_id not in ("collective-cv-sum", "collective-cv-product"):
        raise ValueError(f"unknown collective criterion {criterion_id!r}")
    _check_gain_mode(gain_mode)
    if state.n_modes != 2:
        raise ValueError(f"{criterion_id} needs a two-mode state, got {state.n_modes} modes")
    details: dict[str, float | str] = {"gain_mode": gain_mode}
    variances = []
    for i, (a_idx, b_idx, gain) in enumerate(((X_A, X_B, -1.0), (P_A, P_B, 1.0))):
        if gain_mode == "optimize":
            gain = _optimal_gain(state.cov[a_idx, b_idx], state.cov[a_idx, a_idx], "quadrature")
        var = _quadrature_pair_variance(state, a_idx, b_idx, gain)
        variances.append(var)
        details[f"gain_{i + 1}"] = float(gain)
        details[f"collective_variance_{i + 1}"] = var
    if criterion_id == "collective-cv-sum":
        lhs, bound = sum(variances), 2.0
    else:
        lhs, bound = math.sqrt(variances[0]) * math.sqrt(variances[1]), 1.0
    return _result(criterion_id, lhs, bound, VIOLATED_IF_BELOW, details)


def eval_collective_spin_sum(state: BipartiteState, gain_mode: str) -> CriterionResult:
    """Σ_i Var(g_i·J_i^A + J_i^B) ≥ j over i = x, y, z for a spin-j Bob, j read from its dimension.

    gain_mode "fixed" takes every g_i = 1; "optimize" takes each axis's
    optimal gain. For other gains, call collective_variance.
    """
    _check_gain_mode(gain_mode)
    j_a, j_val = (state.dim_a - 1) / 2, (state.dim_b - 1) / 2
    ops_a, ops_b = spin_operators(j_a), spin_operators(j_val)
    if gain_mode == "optimize":
        eye_a, eye_b = np.eye(state.dim_a), np.eye(state.dim_b)
        rho_a = partial_trace(state, "a")
        correlations = _spin_correlation_operators(j_a, j_val)
    details: dict[str, float | str] = {"gain_mode": gain_mode}
    variances = []
    for i, axis in enumerate("xyz"):
        a_obs, b_obs = ops_a.component(axis), ops_b.component(axis)
        gain = 1.0
        if gain_mode == "optimize":
            mean_a = expectation(tensor_product(a_obs, eye_b), state.matrix)
            mean_b = expectation(tensor_product(eye_a, b_obs), state.matrix)
            cov_ab = expectation(correlations[i], state.matrix) - mean_a * mean_b
            gain = _optimal_gain(cov_ab, variance(a_obs, rho_a), "observable")
        var = collective_variance(state, a_obs, b_obs, gain)
        variances.append(var)
        details[f"gain_{i + 1}"] = float(gain)
        details[f"collective_variance_{i + 1}"] = var
    details["spin_j"] = j_val
    return _result("collective-spin-sum", sum(variances), j_val, VIOLATED_IF_BELOW, details)


@functools.lru_cache(maxsize=8)
def _spin_correlation_operators(j_a: float, j_b: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """J_i^A ⊗ J_i^B for i = x, y, z, built once per (j_a, j_b); read-only."""
    ja, jb = spin_operators(j_a), spin_operators(j_b)
    products = tuple(tensor_product(ja.component(axis), jb.component(axis)) for axis in "xyz")
    for product in products:
        product.setflags(write=False)
    return products


def _spin_correlation_sum(state: BipartiteState, axes: str) -> tuple[float, dict[str, float | str]]:
    products = _spin_correlation_operators((state.dim_a - 1) / 2, (state.dim_b - 1) / 2)
    total = 0.0
    details: dict[str, float | str] = {}
    for axis in axes:
        corr = expectation(products["xyz".index(axis)], state.matrix)
        details[f"correlation_{axis}"] = corr
        total += corr
    return total, details


def eval_linear_qubit(state: BipartiteState, n_measurements: int) -> CriterionResult:
    """|Σ_i <J_i^A J_i^B>| over two or three spin axes, bounds √2/4 and √3/4."""
    if n_measurements not in (2, 3):
        raise ValueError(f"n_measurements must be 2 or 3, got {n_measurements}")
    if state.dim_a != 2 or state.dim_b != 2:
        raise ValueError("linear qubit criteria need a two-qubit state")
    axes = "xy" if n_measurements == 2 else "xyz"
    total, details = _spin_correlation_sum(state, axes)
    bound = math.sqrt(n_measurements) / 4
    return _result(f"linear-{n_measurements}", abs(total), bound, VIOLATED_IF_ABOVE, details)


def eval_linear_spin_j(state: BipartiteState) -> CriterionResult:
    """|Σ_i <J_i^A J_i^B>| ≤ √3·j² for two spin-j subsystems, j read from their dimension."""
    if state.dim_a != state.dim_b:
        raise ValueError("linear-spin-j needs equal subsystem dimensions")
    j_val = (state.dim_b - 1) / 2
    total, details = _spin_correlation_sum(state, "xyz")
    details["spin_j"] = j_val
    return _result("linear-spin-j", abs(total), math.sqrt(3) * j_val**2, VIOLATED_IF_ABOVE, details)


@dataclass(frozen=True)
class ConvexTerm:
    """One term f_j(<B_j>_A, A) of an additive convex constraint.

    f must be convex in its first argument over mean_interval for every Alice
    outcome; that is spot-checked on a 21-point grid at tolerance 1e-12.
    """

    alice: Measurement
    bob: Measurement
    f: Callable[[float, float], float]
    mean_interval: tuple[float, float]


def check_convexity(term: ConvexTerm) -> None:
    """Midpoint-convexity spot check of term.f over its declared interval."""
    lo, hi = term.mean_interval
    if not hi >= lo:
        raise ValueError(f"invalid mean interval {term.mean_interval}")
    grid = np.linspace(lo, hi, CONVEXITY_GRID)
    for alpha in term.alice.values:
        f_vals = [term.f(float(t), float(alpha)) for t in grid]
        for i in range(CONVEXITY_GRID):
            for k in range(i + 2, CONVEXITY_GRID, 2):
                mid = (i + k) // 2
                if f_vals[mid] > 0.5 * (f_vals[i] + f_vals[k]) + CONVEXITY_TOL:
                    raise ValueError(
                        f"convexity spot-check failed at alpha={alpha}, "
                        f"x={grid[i]:.6g}, y={grid[k]:.6g}"
                    )


def eval_additive_convex(
    state: BipartiteState, terms: Sequence[ConvexTerm], quantum_bound: float = 0.0
) -> CriterionResult:
    """General additive convex criterion Σ_j E_A[f_j(<B_j>_A, A)] ≤ bound.

    The caller asserts that Σ_j f_j(<B_j>_ρ, α_j) ≤ bound holds for every
    quantum state of Bob's subsystem (the quantum constraint is trusted
    input). Works for POVM measurements unchanged. Violation means lhs above
    the bound.
    """
    if not terms:
        raise ValueError("at least one convex term is required")
    for term in terms:
        check_convexity(term)
    lhs = 0.0
    details: dict[str, float | str] = {}
    for i, term in enumerate(terms):
        joint = measure_joint(state, term.alice, term.bob)
        weights, means = _conditional_means(joint)
        contribution = 0.0
        for a_idx, w in enumerate(weights):
            if w > PROB_FLOOR:
                contribution += w * term.f(float(means[a_idx]), joint.a_values[a_idx])
        details[f"term_{i + 1}"] = contribution
        lhs += contribution
    return _result("custom-convex", lhs, quantum_bound, VIOLATED_IF_ABOVE, details)


# Catalog evaluators: (state, gain_mode) -> result.
# They call the eval_* functions by name, so a wrapper installed on the module
# attribute (the benchmark's tracer) sees every call; only the inference
# criteria build the default spin plan.
Evaluator = Callable[[BipartiteState | GaussianState, str | None], CriterionResult]


@dataclass(frozen=True)
class CriterionInfo:
    """Catalog descriptor: direction, human-readable formula and default evaluator.

    `evaluator` is None for criteria that need caller-supplied terms.
    `gain_mode` is the default gain mode of the collective criteria, the only
    ones that take one, and None on every other criterion.
    """

    criterion_id: str
    kind: str  # "spin" | "cv" | "any"
    direction: str
    lhs_desc: str
    bound_desc: str
    note: str = ""
    evaluator: Evaluator | None = None
    gain_mode: str | None = None


CATALOG: dict[str, CriterionInfo] = {
    info.criterion_id: info
    for info in (
        CriterionInfo(
            "reid-cv", "cv", VIOLATED_IF_BELOW,
            "D_inf(x_B) * D_inf(p_B)", "1",
            "conditional (Schur) variances; the fixed-gain form is collective-cv-product",
            evaluator=lambda state, _: eval_reid_cv(state),
        ),
        CriterionInfo(
            "product-spin", "spin", VIOLATED_IF_BELOW,
            "D_inf(B1) * D_inf(B2)", "|<B3>|_inf / 2",
            "needs [b1, b2] = i b3 on Bob's side",
            evaluator=lambda state, _: eval_product_criterion(state, default_spin_plan(state)),
        ),
        CriterionInfo(
            "bowen", "spin", VIOLATED_IF_BELOW,
            "D_inf(B1) * D_inf(B2)", "|<B3>| / 2",
            "unconditional bound; weaker than product-spin",
            evaluator=lambda state, _: eval_bowen(state, default_spin_plan(state)),
        ),
        CriterionInfo(
            "sum-two", "spin", VIOLATED_IF_BELOW,
            "Var_inf(B1) + Var_inf(B2)", "|<B3>|_inf",
            "violated only if product-spin is",
            evaluator=lambda state, _: eval_additive_sum_two(state, default_spin_plan(state)),
        ),
        CriterionInfo(
            "sum-three-spin", "spin", VIOLATED_IF_BELOW,
            "Var_inf(Jx) + Var_inf(Jy) + Var_inf(Jz)", "j",
            evaluator=lambda state, _: eval_additive_sum_three_spin(state, default_spin_plan(state)),
        ),
        CriterionInfo(
            "collective-cv-sum", "cv", VIOLATED_IF_BELOW,
            "Var(gx*x_A + x_B) + Var(gp*p_A + p_B)", "2",
            "default gains (-1, +1)",
            evaluator=lambda state, gain_mode: eval_collective_cv(state, "collective-cv-sum", gain_mode),
            gain_mode="fixed",
        ),
        CriterionInfo(
            "collective-cv-product", "cv", VIOLATED_IF_BELOW,
            "D(gx*x_A + x_B) * D(gp*p_A + p_B)", "1",
            "default gains (-1, +1)",
            evaluator=lambda state, gain_mode: eval_collective_cv(state, "collective-cv-product", gain_mode),
            gain_mode="fixed",
        ),
        CriterionInfo(
            "collective-spin-sum", "spin", VIOLATED_IF_BELOW,
            "sum_i Var(g_i*Ji_A + Ji_B)", "j",
            "gains optimized by default",
            evaluator=lambda state, gain_mode: eval_collective_spin_sum(state, gain_mode),
            gain_mode="optimize",
        ),
        CriterionInfo(
            "linear-2", "spin", VIOLATED_IF_ABOVE,
            "|<Jx_A Jx_B> + <Jy_A Jy_B>|", "sqrt(2)/4",
            evaluator=lambda state, _: eval_linear_qubit(state, 2),
        ),
        CriterionInfo(
            "linear-3", "spin", VIOLATED_IF_ABOVE,
            "|<Jx_A Jx_B> + <Jy_A Jy_B> + <Jz_A Jz_B>|", "sqrt(3)/4",
            evaluator=lambda state, _: eval_linear_qubit(state, 3),
        ),
        CriterionInfo(
            "linear-spin-j", "spin", VIOLATED_IF_ABOVE,
            "|sum_i <Ji_A Ji_B>|", "sqrt(3)*j^2",
            evaluator=lambda state, _: eval_linear_spin_j(state),
        ),
        CriterionInfo(
            "duan-simon", "cv", VIOLATED_IF_BELOW,
            "Var(x_A - x_B) + Var(p_A + p_B)", "4",
            "entanglement comparison criterion, not steering",
            evaluator=lambda state, _: eval_duan_simon(state),
        ),
        CriterionInfo(
            "custom-convex", "any", VIOLATED_IF_ABOVE,
            "sum_j E_A[f_j(<B_j>_A, A)]", "caller-supplied constraint bound",
            "library-only: needs explicit convex terms",
        ),
    )
}


def evaluate(
    criterion_id: str, state: BipartiteState | GaussianState, gain_mode: str | None = None
) -> CriterionResult:
    """Evaluate a cataloged criterion on a state with its default plan.

    Spin criteria use the same-component spin plan with conditional-mean
    estimators; a collective criterion uses its catalog gain_mode unless told
    otherwise (fixed gains (-1, +1) for the CV ones, optimized for spin).
    """
    if criterion_id not in CATALOG:
        raise KeyError(f"unknown criterion {criterion_id!r}")
    info = CATALOG[criterion_id]
    if info.kind == "cv" and not isinstance(state, GaussianState):
        raise ValueError(f"criterion {criterion_id} needs a Gaussian state")
    if info.kind == "spin" and not isinstance(state, BipartiteState):
        raise ValueError(f"criterion {criterion_id} needs a finite-dimensional bipartite state")
    if info.evaluator is None:
        raise ValueError(f"criterion {criterion_id} cannot be evaluated without explicit terms")
    return info.evaluator(state, gain_mode or info.gain_mode)
