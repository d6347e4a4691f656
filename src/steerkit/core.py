"""Dense complex Hermitian linear algebra and quantum-state primitives.

Everything here is small (dimensions well below 100) and double precision.
Operator entries live in plain numpy arrays; the dataclasses only add
validation on top. Spin systems use the |j, m> basis with m descending, so
projector indices map to outcome labels deterministically.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# Structural identities (hermiticity, trace, completeness) are held to
# ATOL_STRUCTURAL; anything that goes through an eigensolver to ATOL_SPECTRAL.
ATOL_STRUCTURAL = 1e-10
ATOL_SPECTRAL = 1e-9


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def is_hermitian(m: np.ndarray, atol: float = ATOL_STRUCTURAL) -> bool:
    m = np.asarray(m)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and np.max(np.abs(m - dagger(m))) <= atol


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, with `a` indexing the coarse blocks.

    A broadcast outer product: each entry a[i, k]·b[j, l] comes from the same
    complex multiply as in np.kron, so the result is bitwise np.kron's.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"tensor_product needs two matrices, got shapes {a.shape} and {b.shape}")
    product = a[:, None, :, None] * b[None, :, None, :]
    return product.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def check_density_matrices(m: np.ndarray) -> None:
    """Raise ValueError unless every matrix of a (..., d, d) stack is a state.

    Each must be Hermitian and of unit trace within 1e-10, with no
    eigenvalue below -1e-9; the eigenvalues come from one stacked eigvalsh.
    Non-finite entries are rejected first, since NaN fails every tolerance
    comparison and would pass the checks below.
    """
    if not np.isfinite(m).all():
        raise ValueError("density matrix must be finite")
    if np.abs(m - np.swapaxes(m.conj(), -1, -2)).max() > ATOL_STRUCTURAL:
        raise ValueError("density matrix is not Hermitian within 1e-10")
    trace = np.trace(m, axis1=-2, axis2=-1)
    if abs(trace.real - 1.0).max() > ATOL_STRUCTURAL or abs(trace.imag).max() > ATOL_STRUCTURAL:
        raise ValueError("density matrix trace differs from 1 beyond 1e-10")
    if np.linalg.eigvalsh(m).min() < -ATOL_SPECTRAL:
        raise ValueError("density matrix has an eigenvalue below -1e-9")


@dataclass(frozen=True)
class DensityMatrix:
    """A validated quantum state: Hermitian, unit trace, PSD up to tolerance."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        check_density_matrices(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class BipartiteState:
    """A density matrix on A⊗B together with the subsystem split."""

    state: DensityMatrix
    dim_a: int
    dim_b: int

    def __post_init__(self) -> None:
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError("subsystem dimensions must be positive")
        if self.dim_a * self.dim_b != self.state.dim:
            raise ValueError(
                f"subsystem split {self.dim_a}x{self.dim_b} does not match matrix dimension {self.state.dim}"
            )

    @property
    def matrix(self) -> np.ndarray:
        return self.state.matrix


def bipartite_from_matrix(matrix: np.ndarray, dim_a: int, dim_b: int) -> BipartiteState:
    return BipartiteState(DensityMatrix(matrix), dim_a, dim_b)


def partial_trace(state: BipartiteState, keep: str) -> DensityMatrix:
    """Trace out one subsystem; `keep` is "a" or "b". Preserves the trace."""
    if keep not in ("a", "b"):
        raise ValueError(f"keep must be 'a' or 'b', got {keep!r}")
    r = state.matrix.reshape(state.dim_a, state.dim_b, state.dim_a, state.dim_b)
    if keep == "a":
        reduced = np.einsum("ijkj->ik", r)
    else:
        reduced = np.einsum("ijil->jl", r)
    return DensityMatrix(reduced)


def expectation(obs: np.ndarray, rho: np.ndarray | DensityMatrix) -> float:
    """Tr(obs·rho) for a Hermitian observable, returned as a real number.

    The imaginary residue of the trace is asserted below 1e-10 and discarded.
    """
    obs = np.asarray(obs, dtype=complex)
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if not is_hermitian(obs):
        raise ValueError("observable is not Hermitian within 1e-10")
    if obs.shape != mat.shape:
        raise ValueError(f"dimension mismatch: observable {obs.shape} vs state {mat.shape}")
    value = np.trace(obs @ mat)
    if abs(value.imag) > ATOL_STRUCTURAL:
        raise ValueError(f"expectation value has imaginary residue {value.imag:.3e}")
    return float(value.real)


def variance(obs: np.ndarray, rho: np.ndarray | DensityMatrix) -> float:
    """<obs^2> - <obs>^2 on the given state."""
    obs = np.asarray(obs, dtype=complex)
    mean = expectation(obs, rho)
    second = expectation(obs @ obs, rho)
    return second - mean * mean


@dataclass(frozen=True)
class SpinOperators:
    """The spin-j triple (jx, jy, jz) in the |j, m> basis, m descending.

    Satisfies [jx, jy] = i·jz (and cyclic permutations) and
    jx² + jy² + jz² = j(j+1)·I.
    """

    j: float
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray

    @property
    def dim(self) -> int:
        return self.jz.shape[0]

    def component(self, axis: str) -> np.ndarray:
        return {"x": self.jx, "y": self.jy, "z": self.jz}[axis]

    def projection(self, direction: np.ndarray) -> np.ndarray:
        """Spin projection n·J along a 3-vector (not necessarily unit)."""
        n = np.asarray(direction, dtype=float)
        return n[0] * self.jx + n[1] * self.jy + n[2] * self.jz


def spin_operators(j: float) -> SpinOperators:
    """Ladder-operator construction of the spin-j matrices.

    The triple is built once per j and shared: its arrays are read-only.
    """
    two_j = round(2 * j)
    if two_j < 1 or abs(2 * j - two_j) > 1e-12:
        raise ValueError(f"j must be a positive half-integer, got {j}")
    return _spin_operators(int(two_j))


@functools.lru_cache(maxsize=8)
def _spin_operators(two_j: int) -> SpinOperators:
    j = two_j / 2.0
    dim = two_j + 1
    m = j - np.arange(dim)  # m = j, j-1, ..., -j
    jz = np.diag(m).astype(complex)
    # j_plus |j,m> = sqrt(j(j+1) - m(m+1)) |j,m+1>; with m descending the
    # raising operator populates the superdiagonal.
    ladder = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    j_plus = np.zeros((dim, dim), dtype=complex)
    j_plus[np.arange(dim - 1), np.arange(1, dim)] = ladder
    j_minus = dagger(j_plus)
    jx = (j_plus + j_minus) / 2
    jy = (j_plus - j_minus) / 2j
    for arr in (jx, jy, jz):
        arr.setflags(write=False)
    return SpinOperators(j=j, jx=jx, jy=jy, jz=jz)


def hermitian_eigensystem(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvector columns of a Hermitian matrix."""
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian within 1e-10")
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]
