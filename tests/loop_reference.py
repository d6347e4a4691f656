"""Reference implementations that the library must reproduce exactly.

Compact copies of the oracle's original scalar loops (exact bound, LP system,
grids built as tuples of per-state DensityMatrix objects), which the array
code in `steerkit.oracle` must match bit for bit; of the removed dense LP
matrix A and its masked column-wise arrays, which the column map and the
arrays built from it for HiGHS must match byte for byte; of the LP solve through
scipy's `linprog`, which the direct HiGHS call in `lhs_feasible` must match
bit for bit with HiGHS's presolve off, and with it on where every table
entry is at least 1e-7, and in verdict everywhere; of the blocked strategy
enumeration of every strategy, which `certify_steering` must match bit
for bit where its qubit screen evaluates only a few, and of the Bob
tables from a tuple grid stacked on every call; of the removed second and
third copies of the LP column map (the per-entry dual columns yᵀA and the
per-strategy model tables A·w), which the dual check's y[rows] @ valuesᵀ and
`reproduce_tables` must match to 1e-12 in the scale of y and w; of the original Born rule
(one np.kron and trace per effect pair), which `measure_joint` and
`tensor_product` must match bit for bit; of the original one-table inference
statistics (a Python loop over Alice's rows for the conditional means), which
the plan pass and `inference_statistics` must match bit for bit for fewer
than eight Alice outcomes; of the criteria's original if-chain
dispatch, which the `CATALOG` evaluators must match result for result; and
of removed duplicates and options: the one collective evaluator over
caller-supplied terms that a Gaussian and a spin state shared, which the
catalog's collective evaluators must match result for result; the
gain-based Reid product, which `collective-cv-product` with fixed gains
must match bit for bit; the per-row minimum inference variance, which
`inference_variance` must match within PROB_FLOOR·max b²; and the linear and table estimators, whose
variances no estimate may bring below `inference_variance` and whose linear
form is `collective_variance`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from steerkit.core import (
    BipartiteState,
    DensityMatrix,
    expectation,
    partial_trace,
    spin_operators,
    tensor_product,
    variance,
)
from steerkit.criteria import (
    CATALOG,
    VIOLATED_IF_BELOW,
    _result,
    default_spin_plan,
    eval_additive_sum_three_spin,
    eval_additive_sum_two,
    eval_bowen,
    eval_duan_simon,
    eval_linear_qubit,
    eval_linear_spin_j,
    eval_product_criterion,
    eval_reid_cv,
)
from steerkit.gaussian import P_A, P_B, X_A, X_B, GaussianState, linear_combination_variance
from steerkit.measurements import PROB_FLOOR, JointDistribution, collective_variance
from steerkit.oracle import (
    SLACK_BAND,
    GridFeasible,
    GridInfeasible,
    _bob_probability_table,
    _strategy_block,
    _strategy_count,
)


def lp_system(phen, grid, bob):
    strategies = list(itertools.product(*(range(m.n_outcomes) for m in phen.strategy.alice)))
    q_tables = []
    for meas in bob:
        q = np.empty((meas.n_outcomes, len(grid.matrices)))
        for b_out, effect in enumerate(meas.effects):
            for l, rho in enumerate(grid.matrices):
                q[b_out, l] = np.real(np.trace(effect @ rho))
        q_tables.append(q)
    n_states = len(grid.matrices)
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


def dense_lp_system(phen, grid):
    """A, b and the strategy count, with A dense (rows × strategies·states), filled by one np.where per entry.

    Column k·n_states + l is strategy k with grid state l. The column map
    `oracle._column_map` must give this A to the byte.
    """
    counts = [m.n_outcomes for m in phen.strategy.alice]
    n_strategies = _strategy_count(counts)
    outcomes = _strategy_block(counts, np.arange(n_strategies))
    q_tables = _bob_probability_table(grid, phen.strategy.bob)
    n_rows = sum(t.probs.size for t in phen.tables) + 1
    a_mat = np.empty((n_rows, n_strategies * len(grid.matrices)))
    b_vec = np.empty(n_rows)
    row = 0
    for (a_idx, b_idx), table in zip(phen.strategy.pairing, phen.tables):
        n_a, n_b = table.probs.shape
        # block[A, B, k, l] = Q[b][B, l] where strategy k answers A to setting a, else 0.
        answers = outcomes[a_idx][:, None] == np.arange(n_a)[:, None, None, None]
        block = np.where(answers, q_tables[b_idx][None, :, None, :], 0.0)
        a_mat[row : row + n_a * n_b] = block.reshape(n_a * n_b, -1)
        b_vec[row : row + n_a * n_b] = table.probs.ravel()
        row += n_a * n_b
    a_mat[row, :] = 1.0
    b_vec[row] = 1.0
    return a_mat, b_vec, n_strategies


def highs_columns(a_mat):
    """Column starts, row indices and values of [A, I, -I] from the mask of a dense A.

    These are the indptr[:-1], indices and data of scipy's
    csc_array(np.hstack([A, I, -I])) to the byte: exact zeros (and -0.0) of A
    are left out, NaN and inf stay.
    """
    n_rows = len(a_mat)
    nonzero = a_mat.T != 0
    counts = np.count_nonzero(nonzero, axis=1)
    a_data = a_mat.T[nonzero]
    slack = np.arange(n_rows)
    starts = np.concatenate([np.cumsum(counts) - counts, len(a_data) + np.arange(2 * n_rows)])
    indices = np.concatenate([np.nonzero(nonzero)[1], slack, slack])
    data = np.concatenate([a_data, np.ones(n_rows), -np.ones(n_rows)])
    return starts.astype(np.int32), indices.astype(np.int32), data


def lhs_feasible_linprog(phen, grid, presolve=False):
    """`oracle.lhs_feasible` solved through `linprog`, with HiGHS's presolve off as it ran, or on."""
    from scipy.optimize import linprog

    a_mat, b_vec, n_strategies = dense_lp_system(phen, grid)
    n_rows, n_cols = a_mat.shape
    cost = np.concatenate([np.zeros(n_cols), np.ones(2 * n_rows)])
    a_eq = np.hstack([a_mat, np.eye(n_rows), -np.eye(n_rows)])
    res = linprog(
        cost, A_eq=a_eq, b_eq=b_vec, bounds=(0, None), method="highs", options={"presolve": presolve}
    )
    if res.status != 0:
        raise RuntimeError(f"LP solver failed (status {res.status}): {res.message}")
    violation = float(res.fun)
    if violation <= SLACK_BAND * n_rows:
        weights = res.x[:n_cols].reshape(n_strategies, len(grid.matrices))
        return GridFeasible(weights=weights, residual=violation)
    dual = np.asarray(res.eqlin.marginals, dtype=float)
    if dual @ b_vec < 0:
        dual = -dual
    return GridInfeasible(dual=dual, violation=violation)


def bob_probability_table(states, bob):
    """Q[b][B, l] = Tr[F_B^b ρ_l] from a tuple grid stacked anew on every call."""
    rhos = np.array([rho.matrix for rho in states])
    return [np.real(np.trace(np.array(m.effects)[:, None] @ rhos[None], axis1=-2, axis2=-1)) for m in bob]


def dual_columns(phen, grid, y):
    """yᵀA as an array [strategy, grid state], one pairing entry at a time, without A.

    Column (k, l) is the normalization multiplier plus, per pairing entry
    (a, b), Σ_B y[k(a), B]·Q[b][B, l].
    """
    counts = [m.n_outcomes for m in phen.strategy.alice]
    outcomes = np.unravel_index(np.arange(math.prod(counts)), counts)
    q_tables = bob_probability_table([DensityMatrix(rho) for rho in grid.matrices], phen.strategy.bob)
    columns = np.full((len(outcomes[0]), len(grid.matrices)), y[-1])
    row = 0
    for (a_idx, b_idx), table in zip(phen.strategy.pairing, phen.tables):
        y_block = y[row : row + table.probs.size].reshape(table.probs.shape)
        columns += (y_block @ q_tables[b_idx])[outcomes[a_idx]]
        row += table.probs.size
    return columns


def reproduce_tables(phen, grid, weights):
    """The joint tables of a weight matrix w[strategy, grid state], one strategy at a time."""
    counts = [m.n_outcomes for m in phen.strategy.alice]
    outcomes = np.unravel_index(np.arange(math.prod(counts)), counts)
    q_tables = bob_probability_table([DensityMatrix(rho) for rho in grid.matrices], phen.strategy.bob)
    rebuilt = []
    for (a_idx, b_idx), table in zip(phen.strategy.pairing, phen.tables):
        out = np.zeros_like(table.probs)
        for k, outcome in enumerate(outcomes[a_idx]):
            out[outcome] += weights[k] @ q_tables[b_idx].T
        rebuilt.append(out)
    return rebuilt


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


def exact_bound_blocks(phen, functional, block=4096):
    """(lhs_bound, maximizing_strategy) by the blocked enumeration: every
    strategy in product order, `block` at a time, one stacked eigvalsh each."""
    bob = phen.strategy.bob
    counts = tuple(m.n_outcomes for m in phen.strategy.alice)
    n_strategies = math.prod(counts)
    dim = bob[0].dim
    partial_ops = []
    for (a_idx, b_idx), coeffs in zip(phen.strategy.pairing, functional.coeffs):
        ops_for_entry = np.zeros((coeffs.shape[0], dim, dim), dtype=complex)
        for a_out in range(coeffs.shape[0]):
            for b_out, effect in enumerate(bob[b_idx].effects):
                ops_for_entry[a_out] += coeffs[a_out, b_out] * effect
        partial_ops.append(ops_for_entry)
    best_bound = -np.inf
    best_strategy = ()
    for start in range(0, n_strategies, block):
        outcomes = np.unravel_index(np.arange(start, min(start + block, n_strategies)), counts)
        aggregated = np.zeros((len(outcomes[0]), dim, dim), dtype=complex)
        for (a_idx, _), ops_for_entry in zip(phen.strategy.pairing, partial_ops):
            aggregated += ops_for_entry[outcomes[a_idx]]
        tops = np.linalg.eigvalsh(aggregated)[:, -1]
        k = int(np.argmax(tops))
        if tops[k] > best_bound:
            best_bound = float(tops[k])
            best_strategy = tuple(int(o[k]) for o in outcomes)
    return best_bound, best_strategy


def qubit_grid(resolution):
    """Golden-spiral Bloch states built one DensityMatrix at a time, plus I/2, as a tuple."""
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
    return tuple(states)


def random_pure_grid(dim, resolution, seed):
    """Seeded pure states drawn and normalized one at a time, plus I/d, as a tuple."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(resolution):
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi /= np.linalg.norm(psi)
        states.append(DensityMatrix(np.outer(psi, psi.conj())))
    states.append(DensityMatrix(np.eye(dim, dtype=complex) / dim))
    return tuple(states)


def stacked(states):
    """The (n, d, d) array of a tuple grid, as the tuple-grid class stacked it."""
    return np.array([rho.matrix for rho in states])


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


def conditional_means(joint):
    """Per-Alice-outcome weights and conditional means of B, one row at a time; 0 for empty rows."""
    weights = joint.marginal_a()
    b = np.asarray(joint.b_values)
    means = np.zeros(len(weights))
    for i, w in enumerate(weights):
        if w > PROB_FLOOR:
            means[i] = float(joint.probs[i] @ b) / w
    return weights, means


def inference_variance(joint):
    """Σ_A P(A)·Var(B|A) from the row-loop conditional means."""
    _, means = conditional_means(joint)
    b = np.asarray(joint.b_values)
    err_sq = (b[None, :] - means[:, None]) ** 2
    return float(np.sum(joint.probs * err_sq))


def inferred_abs_mean(joint):
    """Σ_A P(A)·|mean of P(B|A)| over the rows above PROB_FLOOR, as a sum of the kept rows only.

    With eight or more Alice outcomes and a row at or below PROB_FLOOR, numpy's
    pairwise sum groups the kept rows differently from a sum with that row's
    zero in place, so the last bits can differ there.
    """
    weights, means = conditional_means(joint)
    kept = weights > PROB_FLOOR
    return float(np.sum(weights[kept] * np.abs(means[kept])))


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
    weights, means = conditional_means(joint)
    b = np.asarray(joint.b_values)
    total = 0.0
    for i, w in enumerate(weights):
        if w > PROB_FLOOR:
            cond = joint.probs[i] / w
            total += w * float(cond @ (b - means[i]) ** 2)
    return total


def estimator_variance(joint, estimates):
    """<(B - estimate(A))²> for one estimate per Alice outcome: the removed table estimator."""
    if len(estimates) != len(joint.a_values):
        raise ValueError(f"estimator table has {len(estimates)} entries for {len(joint.a_values)} Alice outcomes")
    b = np.asarray(joint.b_values)
    err_sq = (b[None, :] - np.asarray(estimates, dtype=float)[:, None]) ** 2
    return float(np.sum(joint.probs * err_sq))


def linear_estimates(joint, gain):
    """The removed linear(gain) estimator: -gain·A + <B + gain·A>, per Alice outcome."""
    a = np.asarray(joint.a_values)
    g = float(gain)
    mean_b_plus_ga = joint.mean_b() + g * float(joint.marginal_a() @ a)
    return -g * a + mean_b_plus_ga


@dataclass(frozen=True)
class CollectiveTerm:
    """One Var(g·A + B) term.

    For the CV criteria alice/bob are quadrature indices into the covariance
    matrix; for collective-spin-sum they are observable matrices.
    """

    alice: int | np.ndarray
    bob: int | np.ndarray
    gain: float = 1.0


def _quadrature_pair_variance(state, a_idx, b_idx, gain):
    """Var(g·q_a + q_b) for two quadratures given by their covariance-matrix indices."""
    coeffs = np.zeros(state.cov.shape[0])
    coeffs[a_idx] += gain
    coeffs[b_idx] += 1.0
    return linear_combination_variance(state, coeffs)


def _collective_term_variance(state, term, gain_mode):
    """Resolve the gain (optimizing g* = -cov(A,B)/Var(A) when asked) and the variance."""
    if isinstance(state, GaussianState):
        a_idx, b_idx = int(term.alice), int(term.bob)
        if gain_mode == "optimize":
            var_a = state.cov[a_idx, a_idx]
            if var_a < 1e-12:
                raise ValueError("cannot optimize the gain against a zero-variance Alice quadrature")
            gain = -state.cov[a_idx, b_idx] / var_a
        else:
            gain = term.gain
        return float(gain), _quadrature_pair_variance(state, a_idx, b_idx, gain)
    a_obs = np.asarray(term.alice, dtype=complex)
    b_obs = np.asarray(term.bob, dtype=complex)
    if gain_mode == "optimize":
        eye_a, eye_b = np.eye(state.dim_a), np.eye(state.dim_b)
        mean_a = expectation(tensor_product(a_obs, eye_b), state.matrix)
        mean_b = expectation(tensor_product(eye_a, b_obs), state.matrix)
        cov_ab = expectation(tensor_product(a_obs, b_obs), state.matrix) - mean_a * mean_b
        var_a = variance(a_obs, partial_trace(state, "a"))
        if var_a < 1e-12:
            raise ValueError("cannot optimize the gain against a zero-variance Alice observable")
        gain = -cov_ab / var_a
    else:
        gain = term.gain
    return float(gain), collective_variance(state, a_obs, b_obs, gain)


def eval_collective(state, terms, criterion_id, gain_mode="fixed"):
    """The removed collective evaluator: Var(g_k·A_k + B_k) over caller-supplied terms.

    criterion_id is collective-cv-sum (bound 2), collective-cv-product
    (product of standard deviations, bound 1) or collective-spin-sum (three
    terms, bound the spin quantum number j).
    """
    if criterion_id not in ("collective-cv-sum", "collective-cv-product", "collective-spin-sum"):
        raise ValueError(f"unknown collective criterion {criterion_id!r}")
    if gain_mode not in ("fixed", "optimize"):
        raise ValueError(f"gain_mode must be 'fixed' or 'optimize', got {gain_mode!r}")
    spin = criterion_id == "collective-spin-sum"
    expected_terms = 3 if spin else 2
    if len(terms) != expected_terms:
        raise ValueError(f"{criterion_id} needs {expected_terms} terms, got {len(terms)}")
    if not spin and not isinstance(state, GaussianState):
        raise ValueError(f"{criterion_id} needs a Gaussian state")
    if spin and not isinstance(state, BipartiteState):
        raise ValueError(f"{criterion_id} needs a finite-dimensional bipartite state")

    details = {"gain_mode": gain_mode}
    variances = []
    for i, term in enumerate(terms):
        gain, var = _collective_term_variance(state, term, gain_mode)
        variances.append(var)
        details[f"gain_{i + 1}"] = gain
        details[f"collective_variance_{i + 1}"] = var

    if criterion_id == "collective-cv-sum":
        lhs, bound = sum(variances), 2.0
    elif criterion_id == "collective-cv-product":
        lhs, bound = math.sqrt(variances[0]) * math.sqrt(variances[1]), 1.0
    else:
        j_val = (state.dim_b - 1) / 2
        details["spin_j"] = j_val
        lhs, bound = sum(variances), j_val
    return _result(criterion_id, lhs, bound, VIOLATED_IF_BELOW, details)


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
        return eval_collective(state, _cv_collective_terms(), "collective-cv-sum", gain_mode or "fixed")
    if criterion_id == "collective-cv-product":
        return eval_collective(state, _cv_collective_terms(), "collective-cv-product", gain_mode or "fixed")

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
        return eval_collective(state, terms, "collective-spin-sum", gain_mode or "optimize")
    if criterion_id == "linear-2":
        return eval_linear_qubit(state, 2)
    if criterion_id == "linear-3":
        return eval_linear_qubit(state, 3)
    if criterion_id == "linear-spin-j":
        return eval_linear_spin_j(state)
    raise ValueError(f"criterion {criterion_id} cannot be evaluated without explicit terms")
