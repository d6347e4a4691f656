"""Continuous-variable sector: covariance matrices and boundary curves.

Conventions: quadratures x = a + a†, p = -i(a - a†), so [x, p] = 2i and the
vacuum has unit variance in both (Δx·Δp ≥ 1). Covariance matrices are ordered
(x1, p1, x2, p2, ...); physicality is cov + iΩ ⪰ 0 with Ω the per-mode block
[[0, 1], [-1, 0]].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ATOL_SPECTRAL, ATOL_STRUCTURAL

# Quadrature indices for two-mode states.
X_A, P_A, X_B, P_B = 0, 1, 2, 3


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal ⊕ [[0, 1], [-1, 0]], scaled so vacuum cov = identity."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


@dataclass(frozen=True)
class GaussianState:
    """Covariance matrix + mean vector of a Gaussian state."""

    cov: np.ndarray
    mean: np.ndarray

    def __post_init__(self) -> None:
        cov = np.asarray(self.cov, dtype=float)
        mean = np.asarray(self.mean, dtype=float)
        if not np.isfinite(cov).all():
            raise ValueError("covariance matrix must be finite")
        if not np.isfinite(mean).all():
            raise ValueError("mean vector must be finite")
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2 != 0:
            raise ValueError(f"covariance matrix must be square of even dimension, got {cov.shape}")
        if mean.shape != (cov.shape[0],):
            raise ValueError("mean vector length does not match covariance dimension")
        if np.max(np.abs(cov - cov.T)) > ATOL_STRUCTURAL:
            raise ValueError("covariance matrix is not symmetric within 1e-10")
        omega = symplectic_form(cov.shape[0] // 2)
        if np.linalg.eigvalsh(cov + 1j * omega).min() < -ATOL_SPECTRAL:
            raise ValueError("covariance matrix violates the uncertainty principle (cov + iΩ ⋡ 0)")
        cov.setflags(write=False)
        mean.setflags(write=False)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "mean", mean)

    @property
    def n_modes(self) -> int:
        return self.cov.shape[0] // 2


@dataclass(frozen=True)
class SymmetricTwoModeParams:
    """The two parameters of the symmetric two-mode family.

    nbar is the mean photon number per party; mu ∈ [0, 1] interpolates from an
    uncorrelated thermal state (mu = 0) to a pure two-mode squeezed state
    (mu = 1).
    """

    nbar: float
    mu: float

    def __post_init__(self) -> None:
        if not self.nbar >= 0:
            raise ValueError(f"nbar must be >= 0, got {self.nbar}")
        if not 0 <= self.mu <= 1:
            raise ValueError(f"mu must lie in [0, 1], got {self.mu}")

    @property
    def gamma(self) -> float:
        return 1.0 + 2.0 * self.nbar

    @property
    def delta(self) -> float:
        return 2.0 * self.mu * math.sqrt(self.nbar * (1.0 + self.nbar))


def symmetric_two_mode(params: SymmetricTwoModeParams) -> GaussianState:
    """Zero-mean state with diagonal gamma and x/p cross-correlations ±delta."""
    g, d = params.gamma, params.delta
    cov = np.array(
        [
            [g, 0.0, d, 0.0],
            [0.0, g, 0.0, -d],
            [d, 0.0, g, 0.0],
            [0.0, -d, 0.0, g],
        ]
    )
    return GaussianState(cov=cov, mean=np.zeros(4))


def linear_combination_variance(state: GaussianState, coeffs: np.ndarray | list[float]) -> float:
    """Variance of the quadrature combination v·R, i.e. vᵀ·cov·v."""
    v = np.asarray(coeffs, dtype=float)
    if v.shape != (state.cov.shape[0],):
        raise ValueError(f"coefficient vector length {v.shape} does not match {state.cov.shape[0]} quadratures")
    return float(v @ state.cov @ v)


def conditional_min_variance(state: GaussianState, target: int, given: int) -> float:
    """Schur complement σ_tt − σ_tg²/σ_gg: the conditional variance of one
    quadrature given a homodyne measurement of another.

    For Gaussian statistics this equals the optimal inference variance and is
    independent of the conditioning outcome.
    """
    n = state.cov.shape[0]
    if not (0 <= target < n and 0 <= given < n) or target == given:
        raise ValueError(f"quadrature indices ({target}, {given}) invalid for {n} quadratures")
    sigma_gg = state.cov[given, given]
    if sigma_gg < 1e-12:
        raise ValueError("conditioning quadrature has (near-)zero variance")
    return float(state.cov[target, target] - state.cov[target, given] ** 2 / sigma_gg)


def boundary_entanglement_mu(nbar: float) -> float:
    """mu above which the sum-variance separability bound of 4 is violated."""
    if nbar <= 0:
        raise ValueError(f"nbar must be > 0, got {nbar}")
    return nbar / math.sqrt(nbar * (1.0 + nbar))


def boundary_collective_steering_mu(nbar: float) -> float:
    """mu above which the fixed-gain collective sum-variance bound of 2 is violated.

    For small nbar the returned value exceeds 1: the boundary is unreachable
    within the family (no exception is raised).
    """
    if nbar <= 0:
        raise ValueError(f"nbar must be > 0, got {nbar}")
    return (1.0 + 4.0 * nbar) / (4.0 * math.sqrt(nbar * (1.0 + nbar)))


def boundary_reid_steering_mu(nbar: float) -> float:
    """mu above which the conditional-variance product drops below 1."""
    if nbar <= 0:
        raise ValueError(f"nbar must be > 0, got {nbar}")
    return math.sqrt((1.0 + 2.0 * nbar) / (2.0 * (1.0 + nbar)))
