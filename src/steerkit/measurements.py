"""Born-rule statistics for bipartite measurements.

Measurements pair outcome values with effect operators, so spin conventions
(±1/2 vs ±1) are always explicit. Joint distributions, conditional variances,
inference variances and inferred absolute means computed here are the raw
quantities every criterion consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    ATOL_SPECTRAL,
    ATOL_STRUCTURAL,
    BipartiteState,
    dagger,
    hermitian_eigensystem,
    is_hermitian,
    tensor_product,
    variance,
)

# Alice outcomes with probability at or below this carry no weight: their
# conditional mean of B is taken as 0, and inferred_abs_mean skips them.
PROB_FLOOR = 1e-12

# Eigenvalues closer than this are merged into one degenerate outcome.
EIGENVALUE_MERGE_TOL = 1e-8


@dataclass(frozen=True)
class Measurement:
    """Outcome values paired with effect operators, projective or POVM.

    Effects must be Hermitian PSD and sum to the identity. Projective
    measurements additionally require idempotent, mutually orthogonal effects.
    """

    label: str
    values: tuple[float, ...]
    effects: tuple[np.ndarray, ...]
    kind: str = "projective"

    def __post_init__(self) -> None:
        if self.kind not in ("projective", "povm"):
            raise ValueError(f"kind must be 'projective' or 'povm', got {self.kind!r}")
        if len(self.values) != len(self.effects) or not self.values:
            raise ValueError("values and effects must be non-empty and of equal length")
        effects = tuple(np.asarray(e, dtype=complex) for e in self.effects)
        dim = effects[0].shape[0]
        for e in effects:
            if e.shape != (dim, dim):
                raise ValueError("all effects must be square matrices of equal dimension")
            if not is_hermitian(e, ATOL_SPECTRAL):
                raise ValueError(f"effect of measurement {self.label!r} is not Hermitian")
            if np.linalg.eigvalsh(e).min() < -ATOL_SPECTRAL:
                raise ValueError(f"effect of measurement {self.label!r} is not PSD within 1e-9")
        total = sum(effects)
        if np.max(np.abs(total - np.eye(dim))) > ATOL_STRUCTURAL:
            raise ValueError(f"effects of measurement {self.label!r} do not sum to the identity")
        if self.kind == "projective":
            for i, e in enumerate(effects):
                if np.max(np.abs(e @ e - e)) > ATOL_SPECTRAL:
                    raise ValueError(f"projective effect {i} of {self.label!r} is not idempotent")
                for k in range(i):
                    if np.max(np.abs(effects[k] @ e)) > ATOL_SPECTRAL:
                        raise ValueError(f"projective effects {k},{i} of {self.label!r} overlap")
        for e in effects:
            e.setflags(write=False)
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "effects", effects)

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.values)


def operator_of(measurement: Measurement) -> np.ndarray:
    """The observable Σ value·effect realized by a measurement."""
    return sum(v * e for v, e in zip(measurement.values, measurement.effects))


def observable_to_measurement(obs: np.ndarray, label: str) -> Measurement:
    """Spectral decomposition of a Hermitian observable into a projective measurement.

    Eigenvalues within EIGENVALUE_MERGE_TOL of one another are merged into a
    single outcome with the summed (higher-rank) projector. Outcomes are
    ordered by descending value.
    """
    vals, vecs = hermitian_eigensystem(obs)
    values: list[float] = []
    projectors: list[np.ndarray] = []
    start = 0
    for k in range(1, len(vals) + 1):
        if k == len(vals) or vals[start] - vals[k] > EIGENVALUE_MERGE_TOL:
            block = vecs[:, start:k]
            values.append(float(np.mean(vals[start:k])))
            projectors.append(block @ dagger(block))
            start = k
    return Measurement(
        label=label,
        values=tuple(values),
        effects=tuple(projectors),
        kind="projective",
    )


@dataclass(frozen=True)
class MeasurementStrategy:
    """Ordered measurement lists for both parties plus the pairs actually run."""

    alice: tuple[Measurement, ...]
    bob: tuple[Measurement, ...]
    pairing: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.pairing:
            raise ValueError("pairing must be non-empty")
        for a_idx, b_idx in self.pairing:
            if not (0 <= a_idx < len(self.alice) and 0 <= b_idx < len(self.bob)):
                raise ValueError(f"pairing entry ({a_idx}, {b_idx}) out of range")
        for party, measurements in (("Alice", self.alice), ("Bob", self.bob)):
            if len({m.dim for m in measurements}) > 1:
                named = ", ".join(f"{m.label!r} (dimension {m.dim})" for m in measurements)
                raise ValueError(f"{party}'s measurements mix dimensions: {named}")


def all_pairs_strategy(
    alice: tuple[Measurement, ...] | list[Measurement],
    bob: tuple[Measurement, ...] | list[Measurement],
) -> MeasurementStrategy:
    """Strategy running every (a, b) combination."""
    pairing = tuple((i, k) for i in range(len(alice)) for k in range(len(bob)))
    return MeasurementStrategy(alice=tuple(alice), bob=tuple(bob), pairing=pairing)


def check_probability_tables(probs: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Validated read-only float copy of a (..., n_a, n_b) stack of P(A, B) tables.

    The stack must be finite and of the given shape, and every table must
    have no entry below -PROB_FLOOR and sum to 1 within 1e-10; entries below
    0 are then set to 0. Non-finite entries are rejected first, since NaN
    fails every tolerance comparison. Each table is summed along its
    flattened last axis, which adds its entries in the same order as a sum
    of that table alone.
    """
    p = np.array(probs, dtype=float)
    if not np.isfinite(p).all():
        raise ValueError("probability table must be finite")
    if p.shape != shape:
        raise ValueError("probability table shape does not match outcome values")
    if p.min() < -PROB_FLOOR:
        raise ValueError(f"negative probability {p.min():.3e} beyond tolerance")
    p[p < 0] = 0.0
    sums = p.reshape(*shape[:-2], -1).sum(axis=-1)
    off = np.abs(sums - 1.0) > ATOL_STRUCTURAL
    if off.any():
        raise ValueError(f"probabilities sum to {np.ravel(sums)[np.argmax(off)]!r}, not 1 within 1e-10")
    p.setflags(write=False)
    return p


@dataclass(frozen=True)
class JointDistribution:
    """P(A, B) for one measurement pair, rows indexed by Alice's outcome."""

    a_values: tuple[float, ...]
    b_values: tuple[float, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        p = check_probability_tables(self.probs, (len(self.a_values), len(self.b_values)))
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "a_values", tuple(float(v) for v in self.a_values))
        object.__setattr__(self, "b_values", tuple(float(v) for v in self.b_values))

    def marginal_a(self) -> np.ndarray:
        return self.probs.sum(axis=1)

    def marginal_b(self) -> np.ndarray:
        return self.probs.sum(axis=0)

    def mean_b(self) -> float:
        return float(self.marginal_b() @ np.asarray(self.b_values))


def check_pair_dimensions(state: BipartiteState, a: Measurement, b: Measurement) -> None:
    """Raise ValueError unless Alice's and Bob's measurements act on the state's subsystems."""
    if a.dim != state.dim_a:
        raise ValueError(f"Alice measurement dimension {a.dim} != subsystem dimension {state.dim_a}")
    if b.dim != state.dim_b:
        raise ValueError(f"Bob measurement dimension {b.dim} != subsystem dimension {state.dim_b}")


def effect_products(a: Measurement, b: Measurement) -> np.ndarray:
    """Every E_A ⊗ F_B as an (n_a, n_b, d_a·d_b, d_a·d_b) stack laid out like tensor_product's blocks.

    Each entry is the same complex multiply as in tensor_product, so each
    product has its bits.
    """
    ea, fb = np.stack(a.effects), np.stack(b.effects)
    d = a.dim * b.dim
    products = ea[:, None, :, None, :, None] * fb[None, :, None, :, None, :]
    return products.reshape(a.n_outcomes, b.n_outcomes, d, d)


def born_probabilities(state: BipartiteState, products: np.ndarray) -> np.ndarray:
    """Tr[W·P] for every P of a (..., D, D) stack of effect products, unvalidated.

    One stacked matmul and trace: each product gets the same bits as a trace
    of W·P alone.
    """
    return np.trace(state.matrix @ products, axis1=-2, axis2=-1).real


def measure_joint(state: BipartiteState, a: Measurement, b: Measurement) -> JointDistribution:
    """Born rule for one pair: P(A, B) = Tr[W (E_A ⊗ F_B)]."""
    check_pair_dimensions(state, a, b)
    probs = born_probabilities(state, effect_products(a, b))
    return JointDistribution(a_values=a.values, b_values=b.values, probs=probs)


class InferenceStatistics(NamedTuple):
    """Alice-conditioned statistics of Bob's outcome, per table of a stack.

    weights: P(A), shape (..., n_a). means: the mean of P(B|A), 0 where P(A)
    is at or below PROB_FLOOR, shape (..., n_a). variance: Σ_A P(A)·Var(B|A),
    shape (...). abs_mean: Σ_A P(A)·|mean of P(B|A)| over the rows above
    PROB_FLOOR, shape (...).
    """

    weights: np.ndarray
    means: np.ndarray
    variance: np.ndarray
    abs_mean: np.ndarray


def inference_statistics(probs: np.ndarray, b_values: np.ndarray) -> InferenceStatistics:
    """Weights, conditional means, inference variances and inferred |means| in one pass.

    probs is a validated (..., n_a, n_b) stack of tables and b_values the
    matching (..., n_b) Bob outcome values. Every sum runs along the last
    axis of one table (flattened for the variance), so a table gets the same
    bits in a stack as alone.
    """
    b = np.asarray(b_values, dtype=float)[..., None, :]
    weights = probs.sum(axis=-1)
    kept = weights > PROB_FLOOR
    means = np.divide(np.vecdot(probs, b), weights, out=np.zeros_like(weights), where=kept)
    err_sq = (b - means[..., None]) ** 2
    variance = (probs * err_sq).reshape(*probs.shape[:-2], -1).sum(axis=-1)
    abs_mean = np.where(kept, weights * np.abs(means), 0.0).sum(axis=-1)
    return InferenceStatistics(weights, means, variance, abs_mean)


def inference_variance(joint: JointDistribution) -> float:
    """Σ_A P(A)·Var(B|A): the mean squared error of Alice's best estimate of B.

    The best estimate is the conditional mean of P(B|A); no estimator does
    better (Reid 1989; Cavalcanti, Jones, Wiseman & Reid 2009).
    """
    return float(inference_statistics(joint.probs, joint.b_values).variance)


def inferred_abs_mean(joint: JointDistribution) -> float:
    """Σ_A P(A)·|mean of P(B|A)|; never below the unconditional |<B>|."""
    return float(inference_statistics(joint.probs, joint.b_values).abs_mean)


def collective_variance(
    state: BipartiteState, a_obs: np.ndarray, b_obs: np.ndarray, g: float
) -> float:
    """Variance of the collective observable g·A⊗I + I⊗B."""
    a_obs = np.asarray(a_obs, dtype=complex)
    b_obs = np.asarray(b_obs, dtype=complex)
    if a_obs.shape != (state.dim_a, state.dim_a):
        raise ValueError("Alice observable dimension mismatch")
    if b_obs.shape != (state.dim_b, state.dim_b):
        raise ValueError("Bob observable dimension mismatch")
    collective = g * tensor_product(a_obs, np.eye(state.dim_b)) + tensor_product(
        np.eye(state.dim_a), b_obs
    )
    return variance(collective, state.matrix)
