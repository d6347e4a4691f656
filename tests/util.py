"""Shared random-state and random-measurement helpers for the test suite."""

from __future__ import annotations

import numpy as np

from steerkit.core import BipartiteState, DensityMatrix, bipartite_from_matrix, spin_operators
from steerkit.criteria import InferencePair, InferencePlan
from steerkit.families import werner_state
from steerkit.measurements import observable_to_measurement


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
