"""Shared helpers for the test suite.

Random states and measurements, the assemblage of criterion 8, and a writer
for the measurement files the CLI reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from steerkit.core import (
    ATOL_SPECTRAL,
    BipartiteState,
    DensityMatrix,
    bipartite_from_matrix,
    is_hermitian,
    spin_operators,
)
from steerkit.criteria import InferencePair, InferencePlan
from steerkit.families import werner_state
from steerkit.measurements import Measurement, observable_to_measurement


def random_density_matrix(rng: np.random.Generator, dim: int) -> DensityMatrix:
    """Normalized G·G† for complex Gaussian G: Hermitian, unit trace, PSD."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_two_qubit_state(rng: np.random.Generator) -> BipartiteState:
    return bipartite_from_matrix(random_density_matrix(rng, 4).matrix, 2, 2)


def random_separable_two_qubit(rng: np.random.Generator, n_components: int = 4) -> BipartiteState:
    """Explicit mixture Σ p_k ρ_A(k) ⊗ ρ_B(k): admits a hidden-state model."""
    weights = rng.dirichlet(np.ones(n_components))
    rho = np.zeros((4, 4), dtype=complex)
    for p in weights:
        rho += p * np.kron(random_density_matrix(rng, 2).matrix, random_density_matrix(rng, 2).matrix)
    return bipartite_from_matrix(rho, 2, 2)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish SO(3) rotation via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 2] *= -1
    return q


def rotated_spin_triad(rng: np.random.Generator, j: float = 0.5) -> list[np.ndarray]:
    """Observables b_i = Σ_k R[i,k]·J_k; inherits [b1, b2] = i·b3 (cyclic)."""
    rotation = random_rotation(rng)
    ops = spin_operators(j)
    basis = (ops.jx, ops.jy, ops.jz)
    return [sum(rotation[i, k] * basis[k] for k in range(3)) for i in range(3)]


def random_spin_plan(rng: np.random.Generator, j: float = 0.5) -> InferencePlan:
    """Random rotated triad for Bob, independent random directions for Alice."""
    bob_ops = rotated_spin_triad(rng, j)
    alice_ops = rotated_spin_triad(rng, j)
    pairs = tuple(
        InferencePair(
            alice=observable_to_measurement(alice_ops[i], f"a{i}"),
            bob=observable_to_measurement(bob_ops[i], f"b{i}"),
        )
        for i in range(3)
    )
    return InferencePlan(pairs=pairs)


def _triad_plan(triad: list[np.ndarray]) -> InferencePlan:
    pairs = tuple(
        InferencePair(
            alice=observable_to_measurement(triad[i], f"a{i}"),
            bob=observable_to_measurement(triad[i], f"b{i}"),
        )
        for i in range(3)
    )
    return InferencePlan(pairs=pairs)


def implication_trial(rng: np.random.Generator) -> tuple[BipartiteState, InferencePlan]:
    """Draw a (state, plan) pair for the implication suite.

    Generic random mixed states are essentially never steerable by these
    criteria, so the draw is stratified: generic mixed states with independent
    triads, noisy singlet mixtures with aligned random triads (exercising the
    additive criterion), and weakly entangled states with a polarized Bob
    marginal (exercising the unconditional-bound product criterion).
    """
    kind = int(rng.integers(3))
    if kind == 0:
        return random_two_qubit_state(rng), random_spin_plan(rng)
    if kind == 1:
        # Noisy singlet: isotropic, so any aligned triad sees the same
        # anticorrelations.
        mu = float(rng.uniform(0.45, 1.0))
        return werner_state(mu), _triad_plan(rotated_spin_triad(rng))
    # cos(t)|+−> − sin(t)|−+> plus depolarizing noise: Bob's marginal is
    # polarized along z, so the third-axis mean is nonzero; measured in a
    # random frame rotated about z.
    theta = float(rng.uniform(0.15, np.pi / 2 - 0.15))
    noise = float(rng.uniform(0.0, 0.08))
    psi = np.zeros(4, dtype=complex)
    psi[1], psi[2] = np.cos(theta), -np.sin(theta)
    rho = (1 - noise) * np.outer(psi, psi.conj()) + noise * np.eye(4) / 4
    state = bipartite_from_matrix(rho, 2, 2)
    phi = float(rng.uniform(0, 2 * np.pi))
    ops = spin_operators(0.5)
    triad = [
        np.cos(phi) * ops.jx + np.sin(phi) * ops.jy,
        -np.sin(phi) * ops.jx + np.cos(phi) * ops.jy,
        ops.jz,
    ]
    return state, _triad_plan(triad)


def write_measurement_file(path: str, measurements: tuple[Measurement, ...]) -> None:
    """Write measurements in the format `steerkit.cli.read_measurement_file` reads, every number to 17 digits."""
    lines = []
    for meas in measurements:
        lines.append(f"measurement {meas.label}")
        for value, effect in zip(meas.values, meas.effects):
            lines.append(f"outcome {float(value):.17g}")
            for row in effect:
                lines.append(" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row))
    Path(path).write_text("\n".join(lines) + "\n")


def cap_calls(monkeypatch, module, name: str, cap: int) -> list[int]:
    """Patch module.name to fail on call cap + 1, so a bisection that never stops fails instead of hanging.

    Returns a one-element list holding the number of calls so far.
    """
    original = getattr(module, name)
    calls = [0]

    def capped(*args, **kwargs):
        calls[0] += 1
        if calls[0] > cap:
            raise AssertionError(f"{name} called more than {cap} times")
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, capped)
    return calls


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
