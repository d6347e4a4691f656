import numpy as np
import pytest

from steerkit.core import (
    BipartiteState,
    DensityMatrix,
    bipartite_from_matrix,
    expectation,
    hermitian_eigensystem,
    partial_trace,
    spin_operators,
    tensor_product,
    variance,
)
from steerkit.families import singlet_state, werner_state
from util import random_density_matrix


class TestTensorProduct:
    def test_identity(self):
        assert np.allclose(tensor_product(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_projector_placement(self):
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        assert np.allclose(tensor_product(p0, p1), np.diag([0, 1, 0, 0]))

    def test_spectral_placement(self):
        jz = spin_operators(0.5).jz
        assert np.allclose(tensor_product(jz, np.eye(2)), np.diag([0.5, 0.5, -0.5, -0.5]))


class TestPartialTrace:
    def test_singlet_marginal_is_maximally_mixed(self):
        reduced = partial_trace(singlet_state(), "b")
        assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_state_factorizes(self, rng):
        rho_a = random_density_matrix(rng, 2)
        rho_b = random_density_matrix(rng, 3)
        state = bipartite_from_matrix(tensor_product(rho_a.matrix, rho_b.matrix), 2, 3)
        assert np.max(np.abs(partial_trace(state, "a").matrix - rho_a.matrix)) < 1e-10
        assert np.max(np.abs(partial_trace(state, "b").matrix - rho_b.matrix)) < 1e-10

    def test_werner_half_marginal(self):
        reduced = partial_trace(werner_state(0.5), "b")
        assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)

    def test_trace_preserved(self, rng):
        state = bipartite_from_matrix(random_density_matrix(rng, 6).matrix, 2, 3)
        assert abs(np.trace(partial_trace(state, "a").matrix) - 1) < 1e-12

    def test_round_trip_identity(self, rng):
        for _ in range(20):
            rho_a = random_density_matrix(rng, 2)
            rho_b = random_density_matrix(rng, 2)
            state = bipartite_from_matrix(tensor_product(rho_a.matrix, rho_b.matrix), 2, 2)
            assert np.max(np.abs(partial_trace(state, "a").matrix - rho_a.matrix)) < 1e-10

    def test_bad_selector(self):
        with pytest.raises(ValueError):
            partial_trace(singlet_state(), "c")


class TestExpectation:
    def test_normalization(self, rng):
        rho = random_density_matrix(rng, 3)
        assert expectation(np.eye(3), rho) == pytest.approx(1.0, abs=1e-12)

    def test_eigenstate(self):
        jz = spin_operators(0.5).jz
        assert expectation(jz, np.diag([1.0, 0.0]).astype(complex)) == pytest.approx(0.5)

    def test_traceless_on_maximally_mixed(self):
        jx = spin_operators(0.5).jx
        assert expectation(jx, np.eye(2) / 2) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            expectation(np.array([[0, 1], [0, 0]], dtype=complex), np.eye(2) / 2)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation(np.eye(3), np.eye(2) / 2)


class TestSpinOperators:
    def test_half_spin_jz(self):
        assert np.allclose(spin_operators(0.5).jz, np.diag([0.5, -0.5]))

    def test_spin_one_jz(self):
        assert np.allclose(spin_operators(1).jz, np.diag([1.0, 0.0, -1.0]))

    def test_commutator_half(self):
        ops = spin_operators(0.5)
        assert np.max(np.abs(ops.jx @ ops.jy - ops.jy @ ops.jx - 1j * ops.jz)) < 1e-12

    @pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 2.0])
    def test_algebra_invariants(self, j):
        ops = spin_operators(j)
        triple = (ops.jx, ops.jy, ops.jz)
        for i in range(3):
            a, b, c = triple[i], triple[(i + 1) % 3], triple[(i + 2) % 3]
            assert np.max(np.abs(a @ b - b @ a - 1j * c)) < 1e-10
        casimir = sum(op @ op for op in triple)
        assert np.max(np.abs(casimir - j * (j + 1) * np.eye(ops.dim))) < 1e-10

    @pytest.mark.parametrize("j", [0, -0.5, 0.3])
    def test_invalid_j(self, j):
        with pytest.raises(ValueError):
            spin_operators(j)


class TestHermitianEigensystem:
    def test_diagonal(self):
        vals, vecs = hermitian_eigensystem(np.diag([2.0, 1.0]))
        assert np.allclose(vals, [2.0, 1.0])
        assert np.allclose(np.abs(vecs), np.eye(2))

    def test_jx_spectrum(self):
        vals, _ = hermitian_eigensystem(spin_operators(0.5).jx)
        assert np.allclose(vals, [0.5, -0.5])

    def test_reconstruction_and_orthonormality(self, rng):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = (g + g.conj().T) / 2
        vals, vecs = hermitian_eigensystem(m)
        rebuilt = sum(vals[k] * np.outer(vecs[:, k], vecs[:, k].conj()) for k in range(4))
        assert np.max(np.abs(rebuilt - m)) < 1e-8
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(4))) < 1e-9
        assert np.max(np.abs(m @ vecs - vecs @ np.diag(vals))) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eigensystem(np.array([[0, 1], [2, 0]], dtype=complex))


class TestDensityMatrixValidation:
    def test_random_states_valid(self, rng):
        for dim in (2, 3, 4):
            for _ in range(20):
                random_density_matrix(rng, dim)  # constructor enforces the invariants

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.5, np.nan)])
    def test_rejects_non_finite_entry(self, entry):
        with pytest.raises(ValueError, match="density matrix must be finite"):
            DensityMatrix(np.array([[entry, 0], [0, 0.5]], dtype=complex))

    def test_bipartite_dimension_check(self, rng):
        with pytest.raises(ValueError):
            BipartiteState(random_density_matrix(rng, 4), 3, 2)


class TestDensityMatrixStack:
    BAD = {
        "non-hermitian": np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex),
        "wrong-trace": np.eye(2, dtype=complex),
        "negative-eigenvalue": np.diag([1.5, -0.5]).astype(complex),
        "non-finite": np.array([[np.nan, 0], [0, 0.5]], dtype=complex),
    }

    def test_valid_stack_wraps_read_only_slices(self, rng):
        mats = np.array([random_density_matrix(rng, 3).matrix for _ in range(5)])
        states = DensityMatrix.stack(mats)
        assert len(states) == 5
        for state, m in zip(states, mats):
            assert isinstance(state, DensityMatrix)
            assert state.dim == 3
            assert np.array_equal(state.matrix, m)
            assert not state.matrix.flags.writeable

    @pytest.mark.parametrize("kind", sorted(BAD))
    def test_bad_matrix_mid_stack_raises_single_message(self, rng, kind):
        bad = self.BAD[kind]
        with pytest.raises(ValueError) as single:
            DensityMatrix(bad.copy())
        mats = np.array([random_density_matrix(rng, 2).matrix for _ in range(7)])
        mats[3] = bad
        with pytest.raises(ValueError) as stacked:
            DensityMatrix.stack(mats)
        assert str(stacked.value) == str(single.value)

    def test_rejects_non_stack_shape(self):
        with pytest.raises(ValueError, match="shape"):
            DensityMatrix.stack(np.eye(2, dtype=complex) / 2)
        with pytest.raises(ValueError, match="shape"):
            DensityMatrix.stack(np.ones((2, 2, 3), dtype=complex))


class TestUncertaintyBounds:
    def test_robertson_product(self, rng):
        for j in (0.5, 1.0):
            ops = spin_operators(j)
            for _ in range(200):
                rho = random_density_matrix(rng, ops.dim)
                lhs = np.sqrt(variance(ops.jx, rho)) * np.sqrt(variance(ops.jy, rho))
                assert lhs >= 0.5 * abs(expectation(ops.jz, rho)) - 1e-9

    def test_sum_of_three_variances(self, rng):
        for j in (0.5, 1.0):
            ops = spin_operators(j)
            for _ in range(200):
                rho = random_density_matrix(rng, ops.dim)
                total = sum(variance(op, rho) for op in (ops.jx, ops.jy, ops.jz))
                assert total >= j - 1e-9
