"""LP feasibility oracle for local-hidden-state models, with exact certificates.

A phenomenon (joint outcome tables for a measurement strategy) admits a
local-hidden-state model iff it is a convex mixture of columns built from
deterministic Alice strategies and quantum states for Bob. Over a finite grid
of hidden states this is a linear-programming feasibility question; the
Farkas dual of an infeasible program is a separating hyperplane, i.e. a
linear steering functional.

Two-stage contract, by design: grid infeasibility is *evidence* only (the
grid is an inner approximation of the hidden-state set); `certify_steering`
upgrades a functional to a rigorous verdict by bounding the aggregated Bob
operator of every deterministic strategy that can attain the maximum by its
maximum eigenvalue, which is grid-free. For a qubit Bob the strategies are
those whose closed-form top eigenvalue α + |β| ties the largest; for a qudit
Bob they are all of them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import ATOL_SPECTRAL, BipartiteState, check_density_matrices, spin_operators
from .measurements import (
    JointDistribution,
    Measurement,
    MeasurementStrategy,
    measure_joint,
    observable_to_measurement,
)

# Deterministic-strategy enumeration refuses beyond this many strategies.
STRATEGY_CAP = 10**6
# Strategies per stacked eigvalsh in certify_steering. Its memory grows by
# about 0.4 kB per strategy in a block; larger blocks measured no faster.
STRATEGY_BLOCK = 2**12
# A qubit strategy whose α + |β| is within this fraction of the largest entry
# of a partial operator, times the number of settings, of the largest is
# evaluated by eigvalsh: about 10^6 times what either way of summing rounds by.
TIE_RTOL = 1e-9
# Per-constraint slack band absorbed as feasible (floating-point residue).
SLACK_BAND = 1e-9
# An optimal LP solution must meet every bound and equality within this,
# as linprog requires: 10·√1e-9, from its default tolerance 1e-9.
LP_CHECK_TOL = 10 * math.sqrt(1e-9)
# A certificate requires the observed value to clear the exact bound by this.
CERTIFY_MARGIN = 1e-9
# Fixed seed for the unitary-invariant pure-state grids in dimension > 2.
GRID_SEED = 20090617


@dataclass(frozen=True)
class Phenomenon:
    """Joint outcome tables, one per pairing entry of a measurement strategy."""

    strategy: MeasurementStrategy
    tables: tuple[JointDistribution, ...]

    def __post_init__(self) -> None:
        if len(self.tables) != len(self.strategy.pairing):
            raise ValueError(
                f"{len(self.tables)} tables supplied for {len(self.strategy.pairing)} pairing entries"
            )
        for (a_idx, b_idx), table in zip(self.strategy.pairing, self.tables):
            shape = (self.strategy.alice[a_idx].n_outcomes, self.strategy.bob[b_idx].n_outcomes)
            if table.probs.shape != shape:
                raise ValueError(f"table shape {table.probs.shape} does not match pairing entry {shape}")
        # The data itself must not signal: Alice's marginal for a given
        # setting cannot depend on Bob's setting.
        by_alice: dict[int, np.ndarray] = {}
        for (a_idx, _), table in zip(self.strategy.pairing, self.tables):
            marginal = table.marginal_a()
            if a_idx in by_alice:
                if np.max(np.abs(marginal - by_alice[a_idx])) > ATOL_SPECTRAL:
                    raise ValueError(
                        f"Alice marginals for setting {a_idx} differ across Bob settings"
                    )
            else:
                by_alice[a_idx] = marginal
        object.__setattr__(self, "tables", tuple(self.tables))


def phenomenon_from_state(state: BipartiteState, strategy: MeasurementStrategy) -> Phenomenon:
    """Born-rule tables for every pairing entry of the strategy."""
    tables = tuple(
        measure_joint(state, strategy.alice[a_idx], strategy.bob[b_idx])
        for a_idx, b_idx in strategy.pairing
    )
    return Phenomenon(strategy=strategy, tables=tables)


def _same_strategy(first: MeasurementStrategy, second: MeasurementStrategy) -> bool:
    if first is second:
        return True
    if first.pairing != second.pairing:
        return False
    for side_a, side_b in ((first.alice, second.alice), (first.bob, second.bob)):
        if len(side_a) != len(side_b):
            return False
        for m1, m2 in zip(side_a, side_b):
            if m1.values != m2.values or len(m1.effects) != len(m2.effects):
                return False
            if any(not np.array_equal(e1, e2) for e1, e2 in zip(m1.effects, m2.effects)):
                return False
    return True


def mix_phenomena(p: float, first: Phenomenon, second: Phenomenon) -> Phenomenon:
    """Convex mixture p·P1 + (1-p)·P2 of two phenomena over the same strategy."""
    if not _same_strategy(first.strategy, second.strategy):
        raise ValueError("phenomena must share a measurement strategy")
    if not 0 <= p <= 1:
        raise ValueError(f"mixing weight must lie in [0, 1], got {p}")
    tables = tuple(
        JointDistribution(
            a_values=t1.a_values,
            b_values=t1.b_values,
            probs=p * t1.probs + (1 - p) * t2.probs,
        )
        for t1, t2 in zip(first.tables, second.tables)
    )
    return Phenomenon(strategy=first.strategy, tables=tables)


@dataclass(frozen=True)
class HiddenStateGrid:
    """Candidate hidden states for Bob: deterministic pure-state sample plus I/d.

    The states are one read-only (n, d, d) array, validated once.
    """

    matrices: np.ndarray
    resolution: int

    def __post_init__(self) -> None:
        m = np.array(self.matrices, dtype=complex)
        if m.ndim != 3 or m.shape[1] != m.shape[2]:
            raise ValueError(f"hidden-state grid must have shape (n, d, d), got {m.shape}")
        if not len(m):
            raise ValueError("hidden-state grid is empty")
        check_density_matrices(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrices", m)

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]


def qubit_grid(resolution: int) -> HiddenStateGrid:
    """Golden-spiral pure states on the Bloch sphere, plus the maximally mixed state."""
    if resolution < 1:
        raise ValueError(f"grid resolution must be >= 1, got {resolution}")
    spin = spin_operators(0.5)
    paulis = (2 * spin.jx, 2 * spin.jy, 2 * spin.jz)
    eye = np.eye(2, dtype=complex)
    golden_angle = np.pi * (3.0 - np.sqrt(5.0))
    i = np.arange(resolution)
    z = 1.0 - 2.0 * (i + 0.5) / resolution
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = golden_angle * i
    direction = (r * np.cos(phi), r * np.sin(phi), z)
    # sum() starts from 0 and adds x, y, z in turn, as the per-state sum did.
    bloch = sum(c[:, None, None] * s for c, s in zip(direction, paulis))
    rhos = np.concatenate([0.5 * (eye + bloch), (eye / 2)[None]])
    return HiddenStateGrid(matrices=rhos, resolution=resolution)


def random_pure_grid(dim: int, resolution: int, seed: int = GRID_SEED) -> HiddenStateGrid:
    """Fixed-seed unitary-invariant pure states for dimension > 2, plus I/d."""
    if resolution < 1:
        raise ValueError(f"grid resolution must be >= 1, got {resolution}")
    # Per state, dim real parts then dim imaginary parts, in one draw.
    draws = np.random.default_rng(seed).standard_normal((resolution, 2, dim))
    psi = draws[:, 0] + 1j * draws[:, 1]
    # The same dot products np.linalg.norm takes on the strided real and imaginary views.
    psi /= np.sqrt(np.vecdot(psi.real, psi.real) + np.vecdot(psi.imag, psi.imag))[:, None]
    pure = psi[:, :, None] * psi.conj()[:, None, :]
    rhos = np.concatenate([pure, (np.eye(dim, dtype=complex) / dim)[None]])
    return HiddenStateGrid(matrices=rhos, resolution=resolution)


def hidden_state_grid(dim: int, resolution: int) -> HiddenStateGrid:
    if dim == 2:
        return qubit_grid(resolution)
    return random_pure_grid(dim, resolution)


def _strategy_count(outcome_counts: Sequence[int]) -> int:
    """Number of deterministic Alice strategies, refused beyond STRATEGY_CAP.

    The product is taken over Python ints: a fixed-width numpy product wraps
    (2**64 becomes 0) and would slip under the cap.
    """
    total = 1
    for n in outcome_counts:
        total *= int(n)
        if total > STRATEGY_CAP:
            raise ValueError(f"deterministic-strategy enumeration exceeds cap of {STRATEGY_CAP}")
    return total


def _strategy_block(outcome_counts: Sequence[int], indices: np.ndarray) -> tuple[np.ndarray, ...]:
    """The strategies at these itertools.product-order indices, as one outcome-index array per setting."""
    return np.unravel_index(indices, tuple(outcome_counts))


def _bob_probability_table(grid: HiddenStateGrid, bob: Sequence[Measurement]) -> tuple[np.ndarray, ...]:
    """Q[b][B, l] = Tr[F_B^b ρ_l] for every Bob measurement and grid state; read-only."""
    tables = []
    for meas in bob:
        if meas.dim != grid.dim:
            raise ValueError(f"Bob measurement {meas.label!r} dimension mismatch with grid")
        products = np.stack(meas.effects)[:, None] @ grid.matrices[None]
        table = np.real(np.trace(products, axis1=-2, axis2=-1))
        table.setflags(write=False)
        tables.append(table)
    return tuple(tables)


def _lp_system(phen: Phenomenon, grid: HiddenStateGrid) -> tuple[np.ndarray, np.ndarray, int]:
    """Equality system A·w = b over weights w[strategy, grid state] ≥ 0.

    One row per (pairing entry, Alice outcome, Bob outcome), plus a final
    normalization row Σw = 1. Column k·n_states + l is strategy k with grid
    state l. Also returns the number of strategies.
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


@dataclass(frozen=True)
class GridFeasible:
    """An explicit hidden-state model over the grid: weights w[strategy, state]."""

    weights: np.ndarray
    residual: float

    @property
    def feasible(self) -> bool:
        return True


@dataclass(frozen=True)
class GridInfeasible:
    """No model over this grid; `dual` is the Farkas separating vector."""

    dual: np.ndarray
    violation: float

    @property
    def feasible(self) -> bool:
        return False


def lhs_feasible(phen: Phenomenon, grid: HiddenStateGrid) -> GridFeasible | GridInfeasible:
    """Decide hidden-state feasibility of the phenomenon over the grid.

    Solves the phase-1 program min Σ(u + v) s.t. A·w + u - v = b, w,u,v ≥ 0;
    feasible iff the minimal total violation is within the slack band. On
    infeasibility the equality multipliers form the Farkas dual: yᵀA ≤ 0 on
    every weight column while yᵀb > 0.

    The program goes straight to the HiGHS binding that scipy bundles, with
    the model and options `linprog(method="highs")` would hand it, and comes
    back through `linprog`'s checks: finite input, an optimal status, and a
    solution within LP_CHECK_TOL of every bound and equality.
    """
    # Imported here, not with the module: scipy.optimize is about 50 MB and
    # 0.5 s of import, and only the LP needs it.
    from scipy.optimize._highspy import _core as highs_core
    from scipy.sparse import csc_array

    a_mat, b_vec, n_strategies = _lp_system(phen, grid)
    n_rows, n_cols = a_mat.shape
    n_vars = n_cols + 2 * n_rows
    cost = np.concatenate([np.zeros(n_cols), np.ones(2 * n_rows)])
    a_eq = csc_array(np.hstack([a_mat, np.eye(n_rows), -np.eye(n_rows)]))
    if not all(np.isfinite(v).all() for v in (cost, a_eq.data, b_vec)):
        raise ValueError("LP system must be finite")
    highs = highs_core._Highs()
    # Set before the model is passed, so that HiGHS prints no banner. HiGHS's
    # presolve reduces nothing here unless a table entry is within its 1e-7
    # feasibility tolerance of zero, and skipping it saves about 40% of the
    # solve. Where it does reduce (the singlet), only the choice among optimal
    # duals moves; verdicts and certification stay.
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("log_to_console", False)
    highs.setOptionValue("presolve", "off")
    highs.setOptionValue("simplex_strategy", int(highs_core.simplex_constants.SimplexStrategy.kSimplexStrategyDual))
    # The binding reads these arrays through raw pointers: every length comes
    # from a_eq, whose indices are all below n_rows.
    highs.passModel(
        n_vars, n_rows, a_eq.nnz, int(highs_core.MatrixFormat.kColwise), int(highs_core.ObjSense.kMinimize), 0.0,
        cost, np.zeros(n_vars), np.full(n_vars, highs_core.kHighsInf), b_vec, b_vec,
        a_eq.indptr[:-1], a_eq.indices, a_eq.data, np.zeros(n_vars, dtype=np.int32),
    )
    # A model HiGHS refuses stays unloaded, and an empty model is not optimal.
    highs.run()
    status = highs.getModelStatus()
    if status != highs_core.HighsModelStatus.kOptimal:
        raise RuntimeError(f"LP solver failed (status {highs.modelStatusToString(status)}): no optimal solution")
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    violation = float(highs.getInfo().objective_function_value)
    # A NaN in x or in the residual fails its comparison.
    residual = np.abs(b_vec - np.array(solution.row_value))
    if math.isnan(violation) or not ((x >= -LP_CHECK_TOL).all() and (residual <= LP_CHECK_TOL).all()):
        raise RuntimeError(
            f"LP solver failed (status {highs.modelStatusToString(status)}): the solution misses a bound"
            f" or an equality by more than {LP_CHECK_TOL:.2e}"
        )
    if violation <= SLACK_BAND * n_rows:
        weights = x[:n_cols].reshape(n_strategies, len(grid.matrices))
        return GridFeasible(weights=weights, residual=violation)
    dual = np.array(solution.row_dual)
    if dual @ b_vec < 0:
        dual = -dual
    return GridInfeasible(dual=dual, violation=violation)


@dataclass(frozen=True)
class SteeringFunctional:
    """Linear functional of a phenomenon: one coefficient block per pairing entry."""

    coeffs: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(np.asarray(c, dtype=float) for c in self.coeffs)
        for c in coeffs:
            if not np.all(np.isfinite(c)):
                raise ValueError("functional coefficients must be finite")
            c.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    def value(self, phen: Phenomenon) -> float:
        """Σ f[A,a,B,b]·P(A,B|a,b), exactly as summed over the tables."""
        if len(self.coeffs) != len(phen.tables):
            raise ValueError("functional does not match the phenomenon's pairing")
        return float(sum(np.sum(c * t.probs) for c, t in zip(self.coeffs, phen.tables)))


def _dual_blocks(phen: Phenomenon, y: np.ndarray) -> list[np.ndarray]:
    """The entries of a row vector (a dual, or A·w) on each pairing entry's rows, shaped like its table."""
    blocks = []
    row = 0
    for table in phen.tables:
        blocks.append(y[row : row + table.probs.size].reshape(table.probs.shape))
        row += table.probs.size
    return blocks


def functional_from_dual(
    phen: Phenomenon,
    grid: HiddenStateGrid,
    infeasible: GridInfeasible,
) -> SteeringFunctional:
    """Turn a Farkas dual into a steering functional, re-verifying separation.

    The dual is checked against the grid system of this phenomenon and grid
    (yᵀA ≤ tol on all weight columns and yᵀb > 0) so a stale or mis-oriented
    vector is rejected. The resulting functional's grid-level bound is
    ≤ -y_norm by construction; only `certify_steering` turns it into a
    rigorous grid-free verdict.
    """
    a_mat, b_vec, _ = _lp_system(phen, grid)
    y = np.asarray(infeasible.dual, dtype=float)
    if y.shape != b_vec.shape:
        raise ValueError(f"dual length {y.shape} does not match {b_vec.size} constraints")
    if not np.isfinite(y).all():
        raise ValueError("dual must be finite")
    scale = max(1.0, float(np.max(np.abs(y))))
    if float(np.max(y @ a_mat)) > 1e-7 * scale or float(y @ b_vec) <= 0:
        raise ValueError("dual fails the grid-level separation check")
    return SteeringFunctional(coeffs=tuple(block.copy() for block in _dual_blocks(phen, y)))


def linear_correlation_functional(strategy: MeasurementStrategy) -> SteeringFunctional:
    """The outcome-product functional -A·B on matched (a_i, b_i) pairs.

    On anticorrelated data this encodes the linear spin criteria; its exact
    hidden-state bound for three mutually unbiased qubit measurements is √3/4.
    """
    blocks = []
    for a_idx, b_idx in strategy.pairing:
        a_vals = np.asarray(strategy.alice[a_idx].values)
        b_vals = np.asarray(strategy.bob[b_idx].values)
        if a_idx == b_idx:
            blocks.append(-np.outer(a_vals, b_vals))
        else:
            blocks.append(np.zeros((len(a_vals), len(b_vals))))
    return SteeringFunctional(coeffs=tuple(blocks))


def _qubit_candidates(
    pairing: Sequence[tuple[int, int]], partial_ops: Sequence[np.ndarray], counts: Sequence[int]
) -> np.ndarray:
    """Flat product-order indices, sorted, of every strategy that can attain the qubit bound.

    Each setting a and outcome A add α_{a,A}·I + β_{a,A}·σ to the aggregated
    operator, whose top eigenvalue is α + |β|. That value is taken for every
    strategy, from sums over the first and the second half of the settings,
    and those within TIE_RTOL of the largest are kept.
    """
    ops = [np.zeros((k, 2, 2), dtype=complex) for k in counts]
    for (a_idx, _), ops_for_entry in zip(pairing, partial_ops):
        ops[a_idx] += ops_for_entry
    # Rows α, β_x, β_y, β_z per outcome; eigvalsh reads the lower triangle and the real diagonal.
    terms = [
        np.stack([0.5 * (m[:, 0, 0].real + m[:, 1, 1].real), m[:, 1, 0].real, m[:, 1, 0].imag,
                  0.5 * (m[:, 0, 0].real - m[:, 1, 1].real)])
        for m in ops
    ]

    def half_sums(settings: range) -> np.ndarray:
        total = np.zeros((4, 1))
        for a in settings:
            total = (total[:, :, None] + terms[a][:, None, :]).reshape(4, -1)
        return total

    first, second = half_sums(range(len(counts) // 2)), half_sums(range(len(counts) // 2, len(counts)))
    values = np.empty((first.shape[1], second.shape[1]))
    rows = max(1, STRATEGY_BLOCK // second.shape[1])
    for start in range(0, len(values), rows):
        part = first[:, start : start + rows, None] + second[:, None, :]
        values[start : start + rows] = part[0] + np.sqrt(part[1] ** 2 + part[2] ** 2 + part[3] ** 2)
    # Every term either sum adds is at most this, also where a setting's entries cancel.
    scale = max(float(np.abs(m).max()) for m in partial_ops)
    return np.flatnonzero(values >= values.max() - TIE_RTOL * len(counts) * scale)


@dataclass(frozen=True)
class SteeringCertificate:
    """Outcome of exact certification: rigorous iff `certified` is True."""

    observed_value: float
    lhs_bound: float
    certified: bool
    maximizing_strategy: tuple[int, ...]


def certify_steering(phen: Phenomenon, functional: SteeringFunctional) -> SteeringCertificate:
    """Exact (grid-free) hidden-state bound of a functional.

    For each deterministic Alice strategy k the hidden-state value of the
    functional is at most the maximum eigenvalue of the aggregated Bob
    operator Σ_{a,B,b} f[k(a),a,B,b]·F_b^B; the bound is the maximum over k.
    A qubit Bob has only the candidates of `_qubit_candidates` evaluated; a
    qudit Bob has every strategy evaluated. Either way they are taken in
    product order, STRATEGY_BLOCK at a time with one stacked eigvalsh per
    block, and the first maximizer wins, so both give the bound and strategy
    of a full enumeration. Certification does not depend on any grid.
    """
    bob = phen.strategy.bob
    observed = functional.value(phen)
    counts = [m.n_outcomes for m in phen.strategy.alice]
    n_strategies = _strategy_count(counts)
    dim = bob[0].dim
    # Per pairing entry, the stack over Alice outcomes of Bob operators Σ_B f[A,B]·F_B,
    # summed from zeros in Bob-outcome order for all Alice outcomes at once.
    partial_ops: list[np.ndarray] = []
    for (a_idx, b_idx), block in zip(phen.strategy.pairing, functional.coeffs):
        ops_for_entry = np.zeros((block.shape[0], dim, dim), dtype=complex)
        for b_out, effect in enumerate(bob[b_idx].effects):
            ops_for_entry += block[:, b_out, None, None] * effect
        partial_ops.append(ops_for_entry)
    if dim == 2:
        indices = _qubit_candidates(phen.strategy.pairing, partial_ops, counts)
    else:
        indices = np.arange(n_strategies)
    best_bound = -np.inf
    best_strategy: tuple[int, ...] = ()
    for start in range(0, len(indices), STRATEGY_BLOCK):
        outcomes = _strategy_block(counts, indices[start : start + STRATEGY_BLOCK])
        aggregated = np.zeros((len(outcomes[0]), dim, dim), dtype=complex)
        for (a_idx, _), ops_for_entry in zip(phen.strategy.pairing, partial_ops):
            aggregated += ops_for_entry[outcomes[a_idx]]
        tops = np.linalg.eigvalsh(aggregated)[:, -1]
        k = int(np.argmax(tops))
        # Strict comparison keeps the first maximizer in product order.
        if tops[k] > best_bound:
            best_bound = float(tops[k])
            best_strategy = tuple(int(o[k]) for o in outcomes)
    return SteeringCertificate(
        observed_value=observed,
        lhs_bound=best_bound,
        certified=bool(observed > best_bound + CERTIFY_MARGIN),
        maximizing_strategy=best_strategy,
    )


def reproduce_tables(phen: Phenomenon, grid: HiddenStateGrid, weights: np.ndarray) -> list[np.ndarray]:
    """Rebuild the joint tables a weight vector generates; a model witness check.

    Returns one array per pairing entry with
    P(A,B|a,b) = Σ_{k: k(a)=A, λ} w[k,λ]·Tr[F_B^b ρ_λ], the rows of A·w.
    """
    a_mat, _, n_strategies = _lp_system(phen, grid)
    if weights.shape != (n_strategies, len(grid.matrices)):
        raise ValueError(f"weights shape {weights.shape} does not match strategies x grid")
    return _dual_blocks(phen, a_mat[:-1] @ weights.ravel())


def feasibility_flip(
    phenomenon_at: Callable[[float], Phenomenon],
    grid: HiddenStateGrid,
    lo: float = 0.0,
    hi: float = 1.0,
    tol: float = 1e-3,
) -> float:
    """Bisect the parameter where grid feasibility flips to infeasibility.

    The bracket shrinks to `tol`, or to two adjacent floats if `tol` is
    below their spacing.
    """
    def is_feasible(x: float) -> bool:
        return lhs_feasible(phenomenon_at(x), grid).feasible

    if not is_feasible(lo):
        raise ValueError(f"expected feasibility at the lower bracket {lo}")
    if is_feasible(hi):
        raise ValueError(f"expected infeasibility at the upper bracket {hi}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # adjacent floats: the bracket cannot shrink
            break
        if is_feasible(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@functools.lru_cache(maxsize=2)
def mub_qubit_measurements(n: int) -> tuple[Measurement, ...]:
    """The first n of the mutually unbiased qubit spin measurements (Jx, Jy, Jz); built once per n."""
    if n not in (2, 3):
        raise ValueError(f"qubit MUB preset supports 2 or 3 measurements, got {n}")
    spin = spin_operators(0.5)
    components = [("Jx", spin.jx), ("Jy", spin.jy), ("Jz", spin.jz)]
    return tuple(observable_to_measurement(op, label) for label, op in components[:n])


def certificate_record(
    phen: Phenomenon,
    functional: SteeringFunctional,
    certificate: SteeringCertificate,
    tag: str | None = None,
) -> dict:
    """Flat serializable record of a certificate, for independent re-verification."""
    entries = []
    for t, (a_idx, b_idx) in enumerate(phen.strategy.pairing):
        entries.append(
            {
                "alice_index": a_idx,
                "bob_index": b_idx,
                "alice_label": phen.strategy.alice[a_idx].label,
                "bob_label": phen.strategy.bob[b_idx].label,
                "alice_values": list(phen.strategy.alice[a_idx].values),
                "bob_values": list(phen.strategy.bob[b_idx].values),
                "coefficients": [[float(v) for v in row] for row in functional.coeffs[t]],
                "probabilities": [[float(v) for v in row] for row in phen.tables[t].probs],
            }
        )
    return {
        "verdict": "certified-steering" if certificate.certified else "not-certified",
        "observed_value": certificate.observed_value,
        "lhs_bound": certificate.lhs_bound,
        "certify_margin": CERTIFY_MARGIN,
        "maximizing_strategy": list(certificate.maximizing_strategy),
        "functional": entries,
        "tag": tag,
    }
