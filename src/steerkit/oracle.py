"""LP feasibility oracle for local-hidden-state models, with exact certificates.

A phenomenon (joint outcome tables for a measurement strategy) admits a
local-hidden-state model iff it is a convex mixture of columns built from
deterministic Alice strategies and quantum states for Bob. Over a finite grid
of hidden states this is a linear-programming feasibility question; the
Farkas dual of an infeasible program is a separating hyperplane, i.e. a
linear steering functional.

Two-stage contract, by design: grid infeasibility is *evidence* only (the
grid is an inner approximation of the hidden-state set); `certify_steering`
upgrades a functional to a rigorous verdict by enumerating deterministic
strategies and bounding each aggregated Bob operator by its maximum
eigenvalue, which is grid-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import linprog

from .core import ATOL_SPECTRAL, BipartiteState, DensityMatrix, spin_operators
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
# Per-constraint slack band absorbed as feasible (floating-point residue).
SLACK_BAND = 1e-9
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
    """Candidate hidden states for Bob: deterministic pure-state sample plus I/d."""

    states: tuple[DensityMatrix, ...]
    resolution: int

    def __post_init__(self) -> None:
        if not self.states:
            raise ValueError("hidden-state grid is empty")
        dims = sorted({rho.dim for rho in self.states})
        if len(dims) > 1:
            raise ValueError(f"hidden-state grid mixes state dimensions {dims}")

    @property
    def dim(self) -> int:
        return self.states[0].dim


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
    return HiddenStateGrid(states=DensityMatrix.stack(rhos), resolution=resolution)


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
    return HiddenStateGrid(states=DensityMatrix.stack(rhos), resolution=resolution)


def hidden_state_grid(dim: int, resolution: int, seed: int = GRID_SEED) -> HiddenStateGrid:
    if dim == 2:
        return qubit_grid(resolution)
    return random_pure_grid(dim, resolution, seed)


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


def _strategy_block(outcome_counts: Sequence[int], start: int, stop: int) -> tuple[np.ndarray, ...]:
    """Strategies start..stop-1 as one outcome-index array per setting, in itertools.product order."""
    return np.unravel_index(np.arange(start, stop), tuple(outcome_counts))


def _bob_probability_table(
    phen: Phenomenon, grid: HiddenStateGrid, bob_measurements: Sequence[Measurement]
) -> list[np.ndarray]:
    """Q[b][B, l] = Tr[F_B^b ρ_l] for every Bob measurement and grid state."""
    rhos = np.array([rho.matrix for rho in grid.states])
    tables = []
    for meas in bob_measurements:
        if meas.dim != grid.dim:
            raise ValueError(f"Bob measurement {meas.label!r} dimension mismatch with grid")
        products = np.array(meas.effects)[:, None] @ rhos[None]
        tables.append(np.real(np.trace(products, axis1=-2, axis2=-1)))
    return tables


def _lp_system(
    phen: Phenomenon, grid: HiddenStateGrid, bob_measurements: Sequence[Measurement]
) -> tuple[np.ndarray, np.ndarray, int]:
    """Equality system A·w = b over weights w[strategy, grid state] ≥ 0.

    One row per (pairing entry, Alice outcome, Bob outcome), plus a final
    normalization row Σw = 1. Also returns the number of strategies.
    """
    counts = [m.n_outcomes for m in phen.strategy.alice]
    n_strategies = _strategy_count(counts)
    outcomes = _strategy_block(counts, 0, n_strategies)
    q_tables = _bob_probability_table(phen, grid, bob_measurements)
    n_rows = sum(t.probs.size for t in phen.tables) + 1
    a_mat = np.empty((n_rows, n_strategies * len(grid.states)))
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


def lhs_feasible(
    phen: Phenomenon,
    grid: HiddenStateGrid,
    bob_measurements: Sequence[Measurement] | None = None,
) -> GridFeasible | GridInfeasible:
    """Decide hidden-state feasibility of the phenomenon over the grid.

    Solves the phase-1 program min Σ(u + v) s.t. A·w + u - v = b, w,u,v ≥ 0;
    feasible iff the minimal total violation is within the slack band. On
    infeasibility the equality multipliers form the Farkas dual: yᵀA ≤ 0 on
    every weight column while yᵀb > 0.
    """
    bob = tuple(bob_measurements) if bob_measurements is not None else phen.strategy.bob
    a_mat, b_vec, n_strategies = _lp_system(phen, grid, bob)
    n_rows, n_cols = a_mat.shape
    cost = np.concatenate([np.zeros(n_cols), np.ones(2 * n_rows)])
    a_eq = np.hstack([a_mat, np.eye(n_rows), -np.eye(n_rows)])
    res = linprog(cost, A_eq=a_eq, b_eq=b_vec, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"LP solver failed (status {res.status}): {res.message}")
    violation = float(res.fun)
    if violation <= SLACK_BAND * n_rows:
        weights = res.x[:n_cols].reshape(n_strategies, len(grid.states))
        return GridFeasible(weights=weights, residual=violation)
    dual = np.asarray(res.eqlin.marginals, dtype=float)
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
    """The multipliers of each pairing entry's rows, shaped like its table."""
    blocks = []
    row = 0
    for table in phen.tables:
        blocks.append(y[row : row + table.probs.size].reshape(table.probs.shape))
        row += table.probs.size
    return blocks


def _dual_columns(
    phen: Phenomenon, grid: HiddenStateGrid, bob_measurements: Sequence[Measurement], y: np.ndarray
) -> np.ndarray:
    """yᵀA of the `_lp_system` matrix as an array [strategy, grid state], without building A.

    Column (k, l) is the normalization multiplier plus, per pairing entry
    (a, b), Σ_B y[k(a), B]·Q[b][B, l].
    """
    counts = [m.n_outcomes for m in phen.strategy.alice]
    outcomes = _strategy_block(counts, 0, _strategy_count(counts))
    q_tables = _bob_probability_table(phen, grid, bob_measurements)
    columns = np.full((len(outcomes[0]), len(grid.states)), y[-1])
    for (a_idx, b_idx), y_block in zip(phen.strategy.pairing, _dual_blocks(phen, y)):
        columns += (y_block @ q_tables[b_idx])[outcomes[a_idx]]
    return columns


def functional_from_dual(
    phen: Phenomenon,
    grid: HiddenStateGrid,
    infeasible: GridInfeasible,
    bob_measurements: Sequence[Measurement] | None = None,
) -> SteeringFunctional:
    """Turn a Farkas dual into a steering functional, re-verifying separation.

    The dual is checked against the grid system of this phenomenon and grid
    (yᵀA ≤ tol on all weight columns and yᵀb > 0) so a stale or mis-oriented
    vector is rejected. The resulting functional's grid-level bound is
    ≤ -y_norm by construction; only `certify_steering` turns it into a
    rigorous grid-free verdict.
    """
    bob = tuple(bob_measurements) if bob_measurements is not None else phen.strategy.bob
    b_vec = np.concatenate([t.probs.ravel() for t in phen.tables] + [np.ones(1)])
    y = np.asarray(infeasible.dual, dtype=float)
    if y.shape != b_vec.shape:
        raise ValueError(f"dual length {y.shape} does not match {b_vec.size} constraints")
    scale = max(1.0, float(np.max(np.abs(y))))
    if float(np.max(_dual_columns(phen, grid, bob, y))) > 1e-7 * scale or float(y @ b_vec) <= 0:
        raise ValueError("dual fails the grid-level separation check")
    return SteeringFunctional(coeffs=tuple(block.copy() for block in _dual_blocks(phen, y)))


def linear_correlation_functional(
    strategy: MeasurementStrategy, sign: float = -1.0
) -> SteeringFunctional:
    """The outcome-product functional sign·A·B on matched (a_i, b_i) pairs.

    With sign -1 on anticorrelated data this encodes the linear spin
    criteria; its exact hidden-state bound for three mutually unbiased qubit
    measurements is √3/4.
    """
    blocks = []
    for a_idx, b_idx in strategy.pairing:
        a_vals = np.asarray(strategy.alice[a_idx].values)
        b_vals = np.asarray(strategy.bob[b_idx].values)
        if a_idx == b_idx:
            blocks.append(sign * np.outer(a_vals, b_vals))
        else:
            blocks.append(np.zeros((len(a_vals), len(b_vals))))
    return SteeringFunctional(coeffs=tuple(blocks))


@dataclass(frozen=True)
class SteeringCertificate:
    """Outcome of exact certification: rigorous iff `certified` is True."""

    observed_value: float
    lhs_bound: float
    certified: bool
    maximizing_strategy: tuple[int, ...]


def certify_steering(
    phen: Phenomenon,
    functional: SteeringFunctional,
    bob_measurements: Sequence[Measurement] | None = None,
) -> SteeringCertificate:
    """Exact (grid-free) hidden-state bound of a functional, by enumeration.

    For each deterministic Alice strategy k the hidden-state value of the
    functional is at most the maximum eigenvalue of the aggregated Bob
    operator Σ_{a,B,b} f[k(a),a,B,b]·F_b^B; the bound is the maximum over k.
    Strategies are taken STRATEGY_BLOCK at a time with one stacked eigvalsh
    per block, so memory does not grow with their number. Certification does
    not depend on any grid.
    """
    bob = tuple(bob_measurements) if bob_measurements is not None else phen.strategy.bob
    observed = functional.value(phen)
    counts = [m.n_outcomes for m in phen.strategy.alice]
    n_strategies = _strategy_count(counts)
    dim = bob[0].dim
    # Per pairing entry, the stack over Alice outcomes of Bob operators Σ_B f[A,B]·F_B.
    partial_ops: list[np.ndarray] = []
    for (a_idx, b_idx), block in zip(phen.strategy.pairing, functional.coeffs):
        ops_for_entry = np.zeros((block.shape[0], dim, dim), dtype=complex)
        for a_out in range(block.shape[0]):
            for b_out, effect in enumerate(bob[b_idx].effects):
                ops_for_entry[a_out] += block[a_out, b_out] * effect
        partial_ops.append(ops_for_entry)
    best_bound = -np.inf
    best_strategy: tuple[int, ...] = ()
    for start in range(0, n_strategies, STRATEGY_BLOCK):
        outcomes = _strategy_block(counts, start, min(start + STRATEGY_BLOCK, n_strategies))
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


def reproduce_tables(
    phen: Phenomenon,
    grid: HiddenStateGrid,
    weights: np.ndarray,
    bob_measurements: Sequence[Measurement] | None = None,
) -> list[np.ndarray]:
    """Rebuild the joint tables a weight vector generates; a model witness check.

    Returns one array per pairing entry with
    P(A,B|a,b) = Σ_{k: k(a)=A, λ} w[k,λ]·Tr[F_B^b ρ_λ].
    """
    bob = tuple(bob_measurements) if bob_measurements is not None else phen.strategy.bob
    counts = [m.n_outcomes for m in phen.strategy.alice]
    n_strategies = _strategy_count(counts)
    if weights.shape != (n_strategies, len(grid.states)):
        raise ValueError(f"weights shape {weights.shape} does not match strategies x grid")
    outcomes = _strategy_block(counts, 0, n_strategies)
    q_tables = _bob_probability_table(phen, grid, bob)
    rebuilt = []
    for (a_idx, b_idx), table in zip(phen.strategy.pairing, phen.tables):
        out = np.zeros_like(table.probs)
        for k, outcome in enumerate(outcomes[a_idx]):
            out[outcome] += weights[k] @ q_tables[b_idx].T
        rebuilt.append(out)
    return rebuilt


def feasibility_flip(
    phenomenon_at: Callable[[float], Phenomenon],
    grid: HiddenStateGrid,
    lo: float = 0.0,
    hi: float = 1.0,
    tol: float = 1e-3,
) -> float:
    """Bisect the parameter where grid feasibility flips to infeasibility."""
    def is_feasible(x: float) -> bool:
        return lhs_feasible(phenomenon_at(x), grid).feasible

    if not is_feasible(lo):
        raise ValueError(f"expected feasibility at the lower bracket {lo}")
    if is_feasible(hi):
        raise ValueError(f"expected infeasibility at the upper bracket {hi}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if is_feasible(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mub_qubit_measurements(n: int) -> tuple[Measurement, ...]:
    """The first n of the mutually unbiased qubit spin measurements (Jx, Jy, Jz)."""
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
