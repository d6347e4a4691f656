"""Born-rule statistics for bipartite measurements.

Measurements pair outcome values with effect operators, so spin conventions
(±1/2 vs ±1) are always explicit. Joint distributions, conditional variances,
inference variances, inferred absolute means and assemblages computed here are
the raw quantities every criterion consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ATOL_SPECTRAL,
    ATOL_STRUCTURAL,
    BipartiteState,
    dagger,
    expectation,
    hermitian_eigensystem,
    is_hermitian,
    tensor_product,
)

# Alice outcomes with probability below this carry no weight: aggregate
# quantities skip them; conditioning on them directly is an error.
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


def observable_to_measurement(obs: np.ndarray, label: str | None = None) -> Measurement:
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
        label=label if label is not None else "observable",
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


def all_pairs_strategy(
    alice: tuple[Measurement, ...] | list[Measurement],
    bob: tuple[Measurement, ...] | list[Measurement],
) -> MeasurementStrategy:
    """Strategy running every (a, b) combination."""
    pairing = tuple((i, k) for i in range(len(alice)) for k in range(len(bob)))
    return MeasurementStrategy(alice=tuple(alice), bob=tuple(bob), pairing=pairing)


@dataclass(frozen=True)
class JointDistribution:
    """P(A, B) for one measurement pair, rows indexed by Alice's outcome."""

    a_values: tuple[float, ...]
    b_values: tuple[float, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.array(self.probs, dtype=float)
        if not np.isfinite(p).all():
            raise ValueError("probability table must be finite")
        if p.shape != (len(self.a_values), len(self.b_values)):
            raise ValueError("probability table shape does not match outcome values")
        if p.min() < -PROB_FLOOR:
            raise ValueError(f"negative probability {p.min():.3e} beyond tolerance")
        p[p < 0] = 0.0
        if abs(p.sum() - 1.0) > ATOL_STRUCTURAL:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1 within 1e-10")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "a_values", tuple(float(v) for v in self.a_values))
        object.__setattr__(self, "b_values", tuple(float(v) for v in self.b_values))

    def marginal_a(self) -> np.ndarray:
        return self.probs.sum(axis=1)

    def marginal_b(self) -> np.ndarray:
        return self.probs.sum(axis=0)

    def mean_b(self) -> float:
        return float(self.marginal_b() @ np.asarray(self.b_values))


def measure_joint(state: BipartiteState, a: Measurement, b: Measurement) -> JointDistribution:
    """Born rule for one pair: P(A, B) = Tr[W (E_A ⊗ F_B)]."""
    if a.dim != state.dim_a:
        raise ValueError(f"Alice measurement dimension {a.dim} != subsystem dimension {state.dim_a}")
    if b.dim != state.dim_b:
        raise ValueError(f"Bob measurement dimension {b.dim} != subsystem dimension {state.dim_b}")
    # Every E_A ⊗ F_B at once, as an (n_a, n_b, d, d) stack laid out like
    # tensor_product's blocks; one stacked matmul and trace then give the
    # same bits as a trace of W·(E_A ⊗ F_B) per pair.
    ea, fb = np.stack(a.effects), np.stack(b.effects)
    d_a, d_b = state.dim_a, state.dim_b
    pairs = ea[:, None, :, None, :, None] * fb[None, :, None, :, None, :]
    pairs = pairs.reshape(a.n_outcomes, b.n_outcomes, d_a * d_b, d_a * d_b)
    probs = np.trace(state.matrix @ pairs, axis1=-2, axis2=-1).real
    return JointDistribution(a_values=a.values, b_values=b.values, probs=probs)


def conditional_distribution(joint: JointDistribution, given_a: int) -> tuple[np.ndarray, float]:
    """P(B | A = a_values[given_a]) and the weight P(A)."""
    weight = float(joint.probs[given_a].sum())
    if weight <= PROB_FLOOR:
        raise ValueError(f"cannot condition on Alice outcome {given_a} with probability {weight:.3e}")
    return joint.probs[given_a] / weight, weight


def _conditional_means(joint: JointDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Per-Alice-outcome weights and conditional means of B; zero-weight rows get mean 0."""
    weights = joint.marginal_a()
    b = np.asarray(joint.b_values)
    means = np.zeros(len(weights))
    for i, w in enumerate(weights):
        if w > PROB_FLOOR:
            means[i] = float(joint.probs[i] @ b) / w
    return weights, means


@dataclass(frozen=True)
class Estimator:
    """Alice's rule for guessing Bob's outcome from her own.

    conditional-mean guesses the mean of P(B|A); linear(gain) guesses
    -gain·A + <B + gain·A>; a custom table supplies one estimate per Alice
    outcome (aligned with the joint distribution's a_values).
    """

    mode: str = "conditional-mean"
    gain: float | None = None
    table: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("conditional-mean", "linear", "table"):
            raise ValueError(f"unknown estimator mode {self.mode!r}")
        if self.mode == "linear" and self.gain is None:
            raise ValueError("linear estimator requires a gain")
        if self.mode == "table" and self.table is None:
            raise ValueError("table estimator requires a table")

    @staticmethod
    def conditional_mean() -> "Estimator":
        return Estimator(mode="conditional-mean")

    @staticmethod
    def linear(gain: float) -> "Estimator":
        return Estimator(mode="linear", gain=float(gain))

    @staticmethod
    def from_table(estimates: tuple[float, ...] | list[float]) -> "Estimator":
        return Estimator(mode="table", table=tuple(float(v) for v in estimates))


CONDITIONAL_MEAN = Estimator()


def _estimates(joint: JointDistribution, est: Estimator) -> np.ndarray:
    a = np.asarray(joint.a_values)
    if est.mode == "conditional-mean":
        _, means = _conditional_means(joint)
        return means
    if est.mode == "linear":
        g = float(est.gain)  # type: ignore[arg-type]
        weights = joint.marginal_a()
        mean_b_plus_ga = joint.mean_b() + g * float(weights @ a)
        return -g * a + mean_b_plus_ga
    assert est.table is not None
    if len(est.table) != len(a):
        raise ValueError(f"estimator table has {len(est.table)} entries for {len(a)} Alice outcomes")
    return np.asarray(est.table)


def inference_variance(joint: JointDistribution, est: Estimator = CONDITIONAL_MEAN) -> float:
    """Mean squared error <(B - B_est(A))^2> of Alice's estimate."""
    estimates = _estimates(joint, est)
    b = np.asarray(joint.b_values)
    err_sq = (b[None, :] - estimates[:, None]) ** 2
    return float(np.sum(joint.probs * err_sq))


def min_inference_variance(joint: JointDistribution) -> float:
    """Σ_A P(A)·Var(B|A): the best any estimator can do, the conditional-mean one's variance."""
    return inference_variance(joint, CONDITIONAL_MEAN)


def inferred_abs_mean(joint: JointDistribution) -> float:
    """Σ_A P(A)·|mean of P(B|A)|; never below the unconditional |<B>|."""
    weights, means = _conditional_means(joint)
    return float(np.sum(weights[weights > PROB_FLOOR] * np.abs(means[weights > PROB_FLOOR])))


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
    mean = expectation(collective, state.matrix)
    second = expectation(collective @ collective, state.matrix)
    return second - mean * mean


@dataclass(frozen=True)
class Assemblage:
    """Unnormalized conditional states Alice's measurements prepare for Bob.

    entries[a] lists (outcome value, unnormalized state) for Alice's a-th
    measurement. The marginals Σ_A ρ̃_a^A must agree across a — otherwise the
    data would let Alice signal to Bob.
    """

    entries: tuple[tuple[tuple[float, np.ndarray], ...], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("assemblage must contain at least one measurement")
        marginals = []
        frozen = []
        for members in self.entries:
            total = None
            row = []
            for value, rho in members:
                rho = np.asarray(rho, dtype=complex)
                if not is_hermitian(rho, ATOL_SPECTRAL):
                    raise ValueError("assemblage member is not Hermitian")
                if np.linalg.eigvalsh(rho).min() < -ATOL_SPECTRAL:
                    raise ValueError("assemblage member is not PSD within 1e-9")
                rho.setflags(write=False)
                total = rho.copy() if total is None else total + rho
                row.append((float(value), rho))
            marginals.append(total)
            frozen.append(tuple(row))
        for m in marginals[1:]:
            if np.max(np.abs(m - marginals[0])) > ATOL_SPECTRAL:
                raise ValueError("assemblage marginals differ across Alice settings (signalling)")
        object.__setattr__(self, "entries", tuple(frozen))

    def marginal(self) -> np.ndarray:
        return sum(rho for _, rho in self.entries[0])


def assemblage_from_state(
    state: BipartiteState, alice_measurements: tuple[Measurement, ...] | list[Measurement]
) -> Assemblage:
    """ρ̃_a^A = Tr_A[W (E_a^A ⊗ I)] for each Alice measurement and outcome."""
    d_a, d_b = state.dim_a, state.dim_b
    w = state.matrix.reshape(d_a, d_b, d_a, d_b)
    entries = []
    for meas in alice_measurements:
        if meas.dim != d_a:
            raise ValueError(f"Alice measurement {meas.label!r} dimension mismatch")
        members = []
        for value, effect in zip(meas.values, meas.effects):
            # Tr_A[W (E ⊗ I)] = Σ_{i,k} E[k,i] W[i,:,k,:]
            rho = np.einsum("ki,ijkl->jl", effect, w)
            members.append((value, rho))
        entries.append(tuple(members))
    return Assemblage(entries=tuple(entries))
