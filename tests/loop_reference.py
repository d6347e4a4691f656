"""Reference implementations that the library must reproduce exactly.

Compact copies of the oracle's original scalar loops (exact bound, LP system,
grids), which the array code in `steerkit.oracle` must match bit for bit; of
the original Born rule (one np.kron and trace per effect pair), which
`measure_joint` and `tensor_product` must match bit for bit; of the
criteria's original if-chain dispatch, which the `CATALOG` evaluators must
match result for result; and of two removed duplicates: the gain-based Reid
product, which `eval_collective(..., "product-cv", "fixed")` must match bit
for bit, and the per-row minimum inference variance, which
`min_inference_variance` must match within PROB_FLOOR·max b².
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from steerkit.core import BipartiteState, DensityMatrix, spin_operators
from steerkit.criteria import (
    CATALOG,
    CollectiveTerm,
    default_spin_plan,
    eval_additive_sum_three_spin,
    eval_additive_sum_two,
    eval_bowen,
    eval_collective,
    eval_duan_simon,
    eval_linear_qubit,
    eval_linear_spin_j,
    eval_product_criterion,
    eval_reid_cv,
)
from steerkit.gaussian import P_A, P_B, X_A, X_B, GaussianState, linear_combination_variance
from steerkit.measurements import PROB_FLOOR, JointDistribution, _conditional_means
from steerkit.oracle import HiddenStateGrid


def lp_system(phen, grid, bob):
    strategies = list(itertools.product(*(range(m.n_outcomes) for m in phen.strategy.alice)))
    q_tables = []
    for meas in bob:
        q = np.empty((meas.n_outcomes, len(grid.states)))
        for b_out, effect in enumerate(meas.effects):
            for l, rho in enumerate(grid.states):
                q[b_out, l] = np.real(np.trace(effect @ rho.matrix))
        q_tables.append(q)
    n_states = len(grid.states)
    n_rows = sum(t.probs.size for t in phen.tables) + 1
    a_mat = np.zeros((n_rows, len(strategies) * n_states))
    b_vec = np.zeros(n_rows)
    row = 0
    for (a_idx, b_idx), table in zip(phen.strategy.pairing, phen.tables):
        for a_out in range(table.probs.shape[0]):
            for b_out in range(table.probs.shape[1]):
                for k, strat in enumerate(strategies):
                    if strat[a_idx] == a_out:
                        a_mat[row, k * n_states : (k + 1) * n_states] = q_tables[b_idx][b_out]
                b_vec[row] = table.probs[a_out, b_out]
                row += 1
    a_mat[row, :] = 1.0
    b_vec[row] = 1.0
    return a_mat, b_vec, strategies


def exact_bound(phen, functional, bob=None):
    """(lhs_bound, maximizing_strategy) by one eigvalsh per strategy."""
    bob = phen.strategy.bob if bob is None else bob
    dim = bob[0].dim
    partial_ops = []
    for (a_idx, b_idx), block in zip(phen.strategy.pairing, functional.coeffs):
        ops_for_entry = []
        for a_out in range(block.shape[0]):
            op = np.zeros((dim, dim), dtype=complex)
            for b_out, effect in enumerate(bob[b_idx].effects):
                op += block[a_out, b_out] * effect
            ops_for_entry.append(op)
        partial_ops.append(ops_for_entry)
    best_bound, best_strategy = -np.inf, None
    for strat in itertools.product(*(range(m.n_outcomes) for m in phen.strategy.alice)):
        aggregated = np.zeros((dim, dim), dtype=complex)
        for (a_idx, _), ops_for_entry in zip(phen.strategy.pairing, partial_ops):
            aggregated += ops_for_entry[strat[a_idx]]
        top = float(np.linalg.eigvalsh(aggregated)[-1])
        if top > best_bound:
            best_bound, best_strategy = top, strat
    return best_bound, tuple(best_strategy)


def qubit_grid(resolution):
    """Golden-spiral Bloch states built one DensityMatrix at a time, plus I/2."""
    spin = spin_operators(0.5)
    paulis = (2 * spin.jx, 2 * spin.jy, 2 * spin.jz)
    eye = np.eye(2, dtype=complex)
    golden_angle = np.pi * (3.0 - np.sqrt(5.0))
    states = []
    for i in range(resolution):
        z = 1.0 - 2.0 * (i + 0.5) / resolution
        r = np.sqrt(max(0.0, 1.0 - z * z))
        phi = golden_angle * i
        direction = (r * np.cos(phi), r * np.sin(phi), z)
        bloch = sum(c * s for c, s in zip(direction, paulis))
        states.append(DensityMatrix(0.5 * (eye + bloch)))
    states.append(DensityMatrix(eye / 2))
    return HiddenStateGrid(states=tuple(states), resolution=resolution)


def random_pure_grid(dim, resolution, seed):
    """Seeded pure states drawn and normalized one at a time, plus I/d."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(resolution):
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi /= np.linalg.norm(psi)
        states.append(DensityMatrix(np.outer(psi, psi.conj())))
    states.append(DensityMatrix(np.eye(dim, dtype=complex) / dim))
    return HiddenStateGrid(states=tuple(states), resolution=resolution)


def kron(a, b):
    """`core.tensor_product` as np.kron on complex copies."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def measure_joint(state, a, b):
    """Born-rule table P(A, B) = Tr[W (E_A ⊗ F_B)], one kron and trace per pair."""
    w = state.matrix
    probs = np.empty((a.n_outcomes, b.n_outcomes))
    for i, ea in enumerate(a.effects):
        for k, fb in enumerate(b.effects):
            probs[i, k] = np.trace(w @ kron(ea, fb)).real
    return JointDistribution(a_values=a.values, b_values=b.values, probs=probs)


def reid_cv_gain_product(state, gains):
    """(lhs, Var(gx·x_A + x_B), Var(gp·p_A + p_B)) of the gain-based Reid product."""
    gx, gp = float(gains[0]), float(gains[1])
    coeff_x = np.zeros(4)
    coeff_x[X_A], coeff_x[X_B] = gx, 1.0
    coeff_p = np.zeros(4)
    coeff_p[P_A], coeff_p[P_B] = gp, 1.0
    vx = linear_combination_variance(state, coeff_x)
    vp = linear_combination_variance(state, coeff_p)
    return math.sqrt(vx) * math.sqrt(vp), vx, vp


def min_inference_variance(joint):
    """Σ_A P(A)·Var(B|A) over the Alice rows above PROB_FLOOR, one row at a time."""
    weights, means = _conditional_means(joint)
    b = np.asarray(joint.b_values)
    total = 0.0
    for i, w in enumerate(weights):
        if w > PROB_FLOOR:
            cond = joint.probs[i] / w
            total += w * float(cond @ (b - means[i]) ** 2)
    return total


def _cv_collective_terms():
    return [CollectiveTerm(X_A, X_B, -1.0), CollectiveTerm(P_A, P_B, 1.0)]


def evaluate_if_chain(criterion_id, state, gain_mode=None):
    """`criteria.evaluate` as one branch per criterion id, building the spin plan first."""
    if criterion_id not in CATALOG:
        raise KeyError(f"unknown criterion {criterion_id!r}")
    info = CATALOG[criterion_id]
    if info.kind == "cv" and not isinstance(state, GaussianState):
        raise ValueError(f"criterion {criterion_id} needs a Gaussian state")
    if info.kind == "spin" and not isinstance(state, BipartiteState):
        raise ValueError(f"criterion {criterion_id} needs a finite-dimensional bipartite state")

    if criterion_id == "reid-cv":
        return eval_reid_cv(state)
    if criterion_id == "duan-simon":
        return eval_duan_simon(state)
    if criterion_id == "collective-cv-sum":
        return eval_collective(state, _cv_collective_terms(), "sum-cv", gain_mode or "fixed")
    if criterion_id == "collective-cv-product":
        return eval_collective(state, _cv_collective_terms(), "product-cv", gain_mode or "fixed")

    plan = default_spin_plan(state)
    if criterion_id == "product-spin":
        return eval_product_criterion(state, plan)
    if criterion_id == "bowen":
        return eval_bowen(state, plan)
    if criterion_id == "sum-two":
        return eval_additive_sum_two(state, plan)
    if criterion_id == "sum-three-spin":
        return eval_additive_sum_three_spin(state, plan)
    if criterion_id == "collective-spin-sum":
        ops = spin_operators((state.dim_b - 1) / 2)
        ops_a = spin_operators((state.dim_a - 1) / 2)
        terms = [
            CollectiveTerm(ops_a.component(axis), ops.component(axis), 1.0) for axis in "xyz"
        ]
        return eval_collective(state, terms, "sum-spin", gain_mode or "optimize")
    if criterion_id == "linear-2":
        return eval_linear_qubit(state, 2)
    if criterion_id == "linear-3":
        return eval_linear_qubit(state, 3)
    if criterion_id == "linear-spin-j":
        return eval_linear_spin_j(state)
    raise ValueError(f"criterion {criterion_id} cannot be evaluated without explicit terms")
