"""The array oracle reproduces the loops exactly, not to a tolerance.

Only yᵀA and A·w carry one, and so do Bob tables for d ≥ 4: the removed
per-entry loops and np.trace they are compared with sum in another order.
"""

import functools
import math
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_reference
from loop_reference import exact_bound, exact_bound_blocks, lp_system
from steerkit import oracle
from steerkit.cli import read_measurement_file
from steerkit.core import bipartite_from_matrix, spin_operators
from steerkit.families import singlet_state, werner_state
from steerkit.measurements import Measurement, MeasurementStrategy, all_pairs_strategy, observable_to_measurement
from steerkit.oracle import (
    SteeringFunctional,
    certify_steering,
    hidden_state_grid,
    lhs_feasible,
    linear_correlation_functional,
    mub_qubit_measurements,
    phenomenon_from_state,
    qubit_grid,
    random_pure_grid,
)
from test_measurements import trine_povm
from util import fresh_interpreter, random_density_matrix


def spin_measurements(j, directions):
    spin = spin_operators(j)
    return tuple(
        observable_to_measurement(x * spin.jx + y * spin.jy + z * spin.jz, f"n{i}")
        for i, (x, y, z) in enumerate(directions)
    )


def unit_directions(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def matched_strategy(alice, bob):
    return MeasurementStrategy(alice=alice, bob=bob, pairing=tuple((i, i) for i in range(len(alice))))


def random_functional(rng, phen):
    return SteeringFunctional(coeffs=tuple(rng.standard_normal(t.probs.shape) for t in phen.tables))


def assert_same_bound(phen, functional):
    cert = certify_steering(phen, functional)
    bound, strategy = exact_bound(phen, functional)
    assert cert.lhs_bound == bound
    assert cert.maximizing_strategy == strategy
    assert all(type(i) is int for i in cert.maximizing_strategy)


class TestExactBound:
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_qubit_random_functionals(self, rng, n):
        meas = spin_measurements(0.5, unit_directions(rng, n))
        state = bipartite_from_matrix(random_density_matrix(rng, 4).matrix, 2, 2)
        for strategy in (matched_strategy(meas, meas), all_pairs_strategy(meas, meas)):
            phen = phenomenon_from_state(state, strategy)
            for _ in range(3):
                assert_same_bound(phen, random_functional(rng, phen))

    def test_spin1_alice_qutrit_bob(self, rng):
        alice = spin_measurements(1.0, unit_directions(rng, 4))
        bob = spin_measurements(1.0, unit_directions(rng, 3))
        state = bipartite_from_matrix(random_density_matrix(rng, 9).matrix, 3, 3)
        phen = phenomenon_from_state(state, all_pairs_strategy(alice, bob))
        for _ in range(3):
            assert_same_bound(phen, random_functional(rng, phen))

    @pytest.mark.parametrize("block", [1, 3, oracle.STRATEGY_BLOCK])
    def test_tied_strategies_keep_the_first(self, monkeypatch, block):
        # s and -s give operators ±M, so the top eigenvalue is shared across strategies.
        monkeypatch.setattr(oracle, "STRATEGY_BLOCK", block)
        strategy = all_pairs_strategy(mub_qubit_measurements(3), mub_qubit_measurements(3))
        phen = phenomenon_from_state(werner_state(0.6), strategy)
        assert_same_bound(phen, linear_correlation_functional(strategy))

    @pytest.mark.parametrize("block", [1, 5, 7, 64])
    def test_small_blocks(self, rng, monkeypatch, block):
        monkeypatch.setattr(oracle, "STRATEGY_BLOCK", block)
        meas = spin_measurements(0.5, unit_directions(rng, 6))
        strategy = matched_strategy(meas, meas)
        phen = phenomenon_from_state(werner_state(0.7), strategy)
        assert_same_bound(phen, linear_correlation_functional(strategy))
        assert_same_bound(phen, random_functional(rng, phen))

    def test_more_strategies_than_one_block(self, rng):
        n = oracle.STRATEGY_BLOCK.bit_length()  # 2**n strategies fill two blocks
        meas = spin_measurements(0.5, unit_directions(rng, n))
        strategy = matched_strategy(meas, meas)
        phen = phenomenon_from_state(werner_state(0.5), strategy)
        assert_same_bound(phen, random_functional(rng, phen))

    def test_count_guard_does_not_wrap(self, monkeypatch):
        # 2**64 wraps to 0 in int64; the guard must still refuse it, before any block is built.
        def no_blocks(*args):
            raise AssertionError("strategy block built past the cap")

        monkeypatch.setattr(oracle, "_strategy_block", no_blocks)
        meas = spin_measurements(0.5, [(0.0, 0.0, 1.0)] * 64)
        strategy = matched_strategy(meas, meas)
        phen = phenomenon_from_state(werner_state(0.5), strategy)
        with pytest.raises(ValueError, match="cap"):
            certify_steering(phen, linear_correlation_functional(strategy))


@pytest.fixture
def eigvalsh_sizes(monkeypatch):
    """The size of each eigvalsh stack that certify_steering evaluates."""
    evaluated = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a):
        evaluated.append(len(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    return evaluated


@pytest.fixture
def screened(monkeypatch):
    """Each call of the qubit screen, as (outcome counts, candidate indices)."""
    calls = []
    candidates = oracle._qubit_candidates

    def recording_candidates(pairing, partial_ops, counts):
        calls.append((tuple(counts), candidates(pairing, partial_ops, counts)))
        return calls[-1][1]

    monkeypatch.setattr(oracle, "_qubit_candidates", recording_candidates)
    return calls


def assert_same_certificate(phen, functional):
    cert = certify_steering(phen, functional)
    bound, strategy = exact_bound_blocks(phen, functional)
    assert cert.lhs_bound == bound
    assert cert.maximizing_strategy == strategy
    assert cert.certified == bool(cert.observed_value > bound + oracle.CERTIFY_MARGIN)
    assert all(type(i) is int for i in cert.maximizing_strategy)


def assert_same_for_directions(rng, directions, state=None):
    meas = spin_measurements(0.5, directions)
    state = bipartite_from_matrix(random_density_matrix(rng, 4).matrix, 2, 2) if state is None else state
    for strategy in (matched_strategy(meas, meas), all_pairs_strategy(meas, meas)):
        phen = phenomenon_from_state(state, strategy)
        assert_same_certificate(phen, linear_correlation_functional(strategy))
        assert_same_certificate(phen, random_functional(rng, phen))


def coplanar_directions(rng, n):
    angles = rng.uniform(0, 2 * np.pi, n)
    return np.stack([np.cos(angles), np.sin(angles), np.zeros(n)], 1)


def matched_linear(directions):
    """Werner μ = 0.7 and the linear functional, each direction paired with itself."""
    meas = spin_measurements(0.5, directions)
    strategy = matched_strategy(meas, meas)
    return phenomenon_from_state(werner_state(0.7), strategy), linear_correlation_functional(strategy)


def werner_grid_duals(n_mub, resolution):
    meas = mub_qubit_measurements(n_mub)
    strategy = all_pairs_strategy(meas, meas)
    threshold = 1 / math.sqrt(n_mub)
    for mu in (0.4, threshold - 0.01, threshold + 0.002, threshold + 0.01, threshold + 0.02, 0.9):
        phen = phenomenon_from_state(werner_state(mu), strategy)
        outcome = lhs_feasible(phen, qubit_grid(resolution))
        if not outcome.feasible:
            yield phen, oracle.functional_from_dual(phen, qubit_grid(resolution), outcome)


class TestArrangement:
    """The qubit screen evaluates a few strategies and keeps the enumeration's answer."""

    @pytest.mark.parametrize("n", range(1, 17))
    def test_random_directions(self, rng, eigvalsh_sizes, n):
        assert_same_for_directions(rng, unit_directions(rng, n))

    @pytest.mark.parametrize("n_mub", [2, 3])
    @pytest.mark.parametrize("resolution", [50, 200, 800])
    def test_werner_grid_duals(self, eigvalsh_sizes, n_mub, resolution):
        duals = list(werner_grid_duals(n_mub, resolution))
        assert len(duals) >= 3
        for phen, functional in duals:
            assert_same_certificate(phen, functional)

    def test_tied_strategies_keep_the_first(self, eigvalsh_sizes):
        strategy = all_pairs_strategy(mub_qubit_measurements(3), mub_qubit_measurements(3))
        phen = phenomenon_from_state(werner_state(0.6), strategy)
        assert_same_certificate(phen, linear_correlation_functional(strategy))

    @pytest.mark.parametrize("n", [4, 9, 12])
    def test_degenerate_directions(self, rng, eigvalsh_sizes, n):
        half = unit_directions(rng, n // 2)
        axes = np.eye(3)[rng.integers(0, 3, n)] * rng.choice([-1.0, 1.0], (n, 1))
        assert_same_for_directions(rng, np.concatenate([half, half, half[:1]])[:n])  # repeated
        assert_same_for_directions(rng, np.concatenate([half, -half, -half[:1]])[:n])  # antipodal
        assert_same_for_directions(rng, coplanar_directions(rng, n))
        assert_same_for_directions(rng, axes, werner_state(0.7))

    @pytest.mark.parametrize("n", [1, 6])
    def test_tangent_planes_at_one_point(self, rng, eigvalsh_sizes, n):
        # With v the Bloch vector of effect 0, outcome 0 gives -v·σ and outcome 1
        # (I - v·σ)/2 on every setting: they tie only at -v, where all 2**n
        # strategies are maximal.
        meas = spin_measurements(0.5, unit_directions(rng, 1)) * n
        strategy = matched_strategy(meas, meas)
        phen = phenomenon_from_state(werner_state(0.7), strategy)
        tangent = np.array([[-1.0, 1.0], [0.0, 1.0]])
        assert_same_certificate(phen, SteeringFunctional(coeffs=(tangent,) * n))

    def test_tangent_plane_at_a_degenerate_vertex(self, eigvalsh_sizes):
        # The planes x = 0 and y = 0 (twice) meet at ±z, where settings 4 and 7
        # have tangent planes: 16 tied combinations.
        # Only the curvature of the sphere tells which outcome of 4 and 7 the
        # quarter x < 0, y < 0 holding the maximum takes.
        x, y, z = np.eye(3)
        directions = np.array([z, x, -y, -y, -z, x, x, z, -x, y, -y, -y])
        blocks = [
            [[1, -2], [2, 1]], [[-1, 0], [1, -2]], [[0, 0], [1, 2]], [[2, 1], [1, 2]],
            [[1, 0], [2, 0]], [[0, -1], [-1, 1]], [[1, -1], [0, -2]], [[1, -2], [2, -2]],
            [[2, -2], [0, -1]], [[0, 2], [1, -1]], [[-1, -1], [0, 0]], [[1, 1], [2, 0]],
        ]
        phen, _ = matched_linear(directions)
        assert_same_certificate(phen, SteeringFunctional(coeffs=tuple(np.array(b, dtype=float) for b in blocks)))

    def test_integer_coefficients(self, rng, eigvalsh_sizes):
        # Small integer coefficients tie many strategies exactly.
        axes = np.eye(3)[rng.integers(0, 3, 9)] * rng.choice([-1.0, 1.0], (9, 1))
        for directions in (axes, unit_directions(rng, 9)):
            meas = spin_measurements(0.5, directions)
            for strategy in (matched_strategy(meas, meas), all_pairs_strategy(meas, meas)):
                phen = phenomenon_from_state(werner_state(0.7), strategy)
                for _ in range(4):
                    coeffs = tuple(rng.integers(-2, 3, t.probs.shape).astype(float) for t in phen.tables)
                    assert_same_certificate(phen, SteeringFunctional(coeffs=coeffs))

    def test_zero_blocks_and_unpaired_setting(self, rng, eigvalsh_sizes):
        meas = spin_measurements(0.5, unit_directions(rng, 6))
        state = bipartite_from_matrix(random_density_matrix(rng, 4).matrix, 2, 2)
        strategy = all_pairs_strategy(meas, meas)
        phen = phenomenon_from_state(state, strategy)
        coeffs = [rng.standard_normal(t.probs.shape) for t in phen.tables]
        coeffs[7] = np.zeros_like(coeffs[7])
        assert_same_certificate(phen, SteeringFunctional(coeffs=tuple(coeffs)))
        assert_same_certificate(phen, SteeringFunctional(coeffs=tuple(np.zeros_like(c) for c in coeffs)))
        # Alice setting 2 is in no pairing entry: it takes outcome 0.
        pairing = tuple((a, b) for a, b in strategy.pairing if a != 2)
        unpaired = MeasurementStrategy(alice=meas, bob=meas, pairing=pairing)
        phen = phenomenon_from_state(state, unpaired)
        cert = certify_steering(phen, random_functional(rng, phen))
        assert cert.maximizing_strategy[2] == 0
        assert_same_certificate(phen, random_functional(rng, phen))

    def test_three_outcome_alice(self, rng, eigvalsh_sizes):
        bob = spin_measurements(0.5, unit_directions(rng, 3))
        for alice, dim_a in (((trine_povm(),) * 2 + spin_measurements(0.5, unit_directions(rng, 2)), 2),
                             (spin_measurements(1.0, unit_directions(rng, 4)), 3)):
            state = bipartite_from_matrix(random_density_matrix(rng, 2 * dim_a).matrix, dim_a, 2)
            phen = phenomenon_from_state(state, all_pairs_strategy(alice, bob))
            for _ in range(3):
                assert_same_certificate(phen, random_functional(rng, phen))

    @settings(max_examples=40, deadline=None)
    @given(
        directions=st.lists(
            st.tuples(*[st.floats(-1, 1, allow_nan=False)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-3),
            min_size=1,
            max_size=8,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_enumeration(self, directions, seed):
        rng = np.random.default_rng(seed)
        directions = np.array(directions)
        meas = spin_measurements(0.5, directions / np.linalg.norm(directions, axis=1, keepdims=True))
        strategy = MeasurementStrategy(
            alice=meas, bob=meas, pairing=tuple((i, int(k)) for i, k in enumerate(rng.permutation(len(meas))))
        )
        state = bipartite_from_matrix(random_density_matrix(rng, 4).matrix, 2, 2)
        phen = phenomenon_from_state(state, strategy)
        assert_same_certificate(phen, random_functional(rng, phen))

    def test_sixteen_settings_skip_enumeration(self, rng, eigvalsh_sizes):
        phen, functional = matched_linear(unit_directions(rng, 16))
        assert_same_certificate(phen, functional)
        eigvalsh_sizes.clear()
        certify_steering(phen, functional)
        assert 0 < sum(eigvalsh_sizes) < 2**16 // 64

    def test_scaled_functional_skips_enumeration(self, rng, eigvalsh_sizes):
        # Ties are judged relative to the coefficients: a functional scaled far
        # below 1 has the same cells, not every outcome tied everywhere.
        phen, functional = matched_linear(unit_directions(rng, 16))
        scaled = SteeringFunctional(coeffs=tuple(1e-12 * c for c in functional.coeffs))
        assert_same_certificate(phen, scaled)
        eigvalsh_sizes.clear()
        certify_steering(phen, scaled)
        assert 0 < sum(eigvalsh_sizes) < 2**16 // 64

    def test_blocks_below_the_tolerance(self, rng, eigvalsh_sizes):
        # Blocks ε·F_0 below the tie tolerance tie their two outcomes
        # everywhere, yet at the maximizing direction u of the other settings
        # outcome 0 is worth ε/2 more: 3.5e-9 in all, past CERTIFY_MARGIN.
        # Their directions are orthogonal to u, 120° apart around it.
        for _ in range(4):
            directions = unit_directions(rng, 9)
            phen, functional = matched_linear(directions)
            cert = certify_steering(phen, functional)
            values = [m.values[k] for m, k in zip(phen.strategy.alice, cert.maximizing_strategy)]
            u = -np.array(values) @ directions
            e1 = np.cross(u, directions[0])
            e1, e2 = e1 / np.linalg.norm(e1), np.cross(u, e1) / np.linalg.norm(u)
            angles = rng.uniform(0, 2 * np.pi) + 2 * np.pi * np.arange(3) / 3
            around = np.cos(angles)[:, None] * e1 + np.sin(angles)[:, None] * e2
            phen, functional = matched_linear(np.concatenate([directions, around]))
            small = tuple(np.array([[eps, 0.0], [0.0, 0.0]]) for eps in (1e-9, 2e-9, 4e-9))
            assert_same_certificate(phen, SteeringFunctional(coeffs=functional.coeffs[:9] + small))

    def test_sixteen_coplanar_directions(self, rng, eigvalsh_sizes):
        # Every circle of 16 coplanar directions passes through ±z, where all
        # 2**16 combinations tie; α + |β| ties only the two opposite maximizers.
        phen, functional = matched_linear(coplanar_directions(rng, 16))
        assert_same_certificate(phen, functional)
        eigvalsh_sizes.clear()
        certify_steering(phen, functional)
        assert 0 < sum(eigvalsh_sizes) < 2**16 // 64

    def test_sixteen_outcome_povm(self, rng, eigvalsh_sizes):
        # One 16-outcome POVM among two-outcome settings: 16 * 2**6 strategies.
        spin = spin_operators(0.5)
        axes = unit_directions(rng, 8)
        effects = [
            (np.eye(2) + 2 * sign * (x * spin.jx + y * spin.jy + z * spin.jz)) / 16
            for sign in (1, -1)
            for x, y, z in axes
        ]
        povm = Measurement("sixteen", tuple(float(k) for k in range(16)), tuple(effects), kind="povm")
        meas = spin_measurements(0.5, unit_directions(rng, 7))
        state = bipartite_from_matrix(random_density_matrix(rng, 4).matrix, 2, 2)
        phen = phenomenon_from_state(state, matched_strategy((povm,) + meas[1:], meas))
        functional = random_functional(rng, phen)
        assert_same_certificate(phen, functional)
        eigvalsh_sizes.clear()
        certify_steering(phen, functional)
        assert 0 < sum(eigvalsh_sizes) < 16 * 2**6 // 64

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_first_maximizer_is_a_candidate(self, rng, screened, scale):
        # The first maximizer of a full eigvalsh enumeration is what certify_steering
        # must return. Repeated directions tie many strategies in exact arithmetic,
        # but not in eigvalsh's.
        for n in range(1, 11):
            for directions in (unit_directions(rng, n), np.repeat(unit_directions(rng, 1), n, axis=0)):
                meas = spin_measurements(0.5, directions)
                for strategy in (matched_strategy(meas, meas), all_pairs_strategy(meas, meas)):
                    phen = phenomenon_from_state(werner_state(0.7), strategy)
                    for draw in (rng.standard_normal, lambda shape: rng.integers(-2, 3, shape).astype(float)):
                        coeffs = tuple(scale * draw(t.probs.shape) for t in phen.tables)
                        functional = SteeringFunctional(coeffs=coeffs)
                        screened.clear()
                        certify_steering(phen, functional)
                        (counts, indices), = screened
                        _, first = exact_bound_blocks(phen, functional)
                        assert np.ravel_multi_index(first, counts) in indices

    def test_cancelling_entries(self, rng):
        # Two entries of a setting cancel to 0 exactly, but not once the running
        # sum of the other settings is added: eigvalsh then reads strategies
        # 1e-5 apart to about 1e-4, so ties are judged on the entries' scale.
        n = 8
        alice = spin_measurements(0.5, np.repeat(unit_directions(rng, 1), n, axis=0))
        bob = spin_measurements(0.5, unit_directions(rng, 2))
        pairing = tuple((a, b) for a in range(n) for b in (0, 0, 1))
        phen = phenomenon_from_state(werner_state(0.7), MeasurementStrategy(alice=alice, bob=bob, pairing=pairing))
        for _ in range(8):
            coeffs = []
            for _ in range(n):
                big = 1e12 * rng.standard_normal((2, 2))
                coeffs += [big, -big, rng.integers(-2, 3, (2, 2)) + 1e-5 * rng.standard_normal((2, 2))]
            assert_same_certificate(phen, SteeringFunctional(coeffs=tuple(coeffs)))

    def test_zero_functional_ties_every_strategy(self, rng, screened):
        meas = spin_measurements(0.5, unit_directions(rng, 6))
        phen = phenomenon_from_state(werner_state(0.7), all_pairs_strategy(meas, meas))
        zero = SteeringFunctional(coeffs=tuple(np.zeros(t.probs.shape) for t in phen.tables))
        assert_same_certificate(phen, zero)
        (_, indices), = screened
        assert np.array_equal(indices, np.arange(2**6))

    def test_dispatch_by_dimension(self, rng, screened):
        for n in range(1, 17):
            certify_steering(*matched_linear(unit_directions(rng, n)))
        assert [len(counts) for counts, _ in screened] == list(range(1, 17))
        spin1 = spin_measurements(1.0, unit_directions(rng, 7))  # 3**7 strategies, qutrit Bob
        state = bipartite_from_matrix(random_density_matrix(rng, 9).matrix, 3, 3)
        phen = phenomenon_from_state(state, matched_strategy(spin1, spin1))
        assert_same_certificate(phen, random_functional(rng, phen))
        assert len(screened) == 16

    def test_sixteen_settings_peak_memory(self, rng):
        # The screen fills its values STRATEGY_BLOCK at a time: 0.9 MB at
        # 2**16 strategies, against 3.5 MB in one block.
        phen, functional = matched_linear(unit_directions(rng, 16))
        tracemalloc.start()
        try:
            certify_steering(phen, functional)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def qutrit_phenomenon(rng):
    spin = spin_operators(1.0)
    meas = tuple(observable_to_measurement(op, label) for label, op in (("Jx", spin.jx), ("Jz", spin.jz)))
    state = bipartite_from_matrix(random_density_matrix(rng, 9).matrix, 3, 3)
    return phenomenon_from_state(state, all_pairs_strategy(meas, meas))


def werner_mub_phenomenon(mu, n_mub=3):
    meas = mub_qubit_measurements(n_mub)
    return phenomenon_from_state(werner_state(mu), all_pairs_strategy(meas, meas))


def dense_from_map(rows, values, n_rows):
    """The dense A that a column map describes: column k·n_states + l holds values[l] in rows rows[k]."""
    a_mat = np.zeros((n_rows, len(rows) * len(values)))
    for k, strategy_rows in enumerate(rows):
        a_mat[strategy_rows[:, None], k * len(values) + np.arange(len(values))] = values.T
    return a_mat


def system(phen, grid):
    """The column map and b that the oracle solves, as rows, values and b."""
    (rows, values), b_vec = oracle._system(phen, grid)
    return rows, values, b_vec


def assert_same_system(phen, grid):
    rows, values, b_vec = system(phen, grid)
    ref_a, ref_b, ref_strategies = lp_system(phen, grid, phen.strategy.bob)
    a_mat = dense_from_map(rows, values, len(b_vec))
    assert np.array_equal(a_mat, ref_a)
    assert np.array_equal(b_vec, ref_b)
    assert a_mat.tobytes() == ref_a.tobytes()  # signed zeros too
    assert len(rows) == len(ref_strategies)
    assert (np.diff(rows, axis=1) > 0).all()


class TestLpSystem:
    """The column map describes the scalar loops' A and b."""

    @pytest.mark.parametrize("n_mub", [2, 3])
    @pytest.mark.parametrize("resolution", [50, 800])
    def test_werner_mub(self, n_mub, resolution):
        meas = mub_qubit_measurements(n_mub)
        phen = phenomenon_from_state(werner_state(0.7), all_pairs_strategy(meas, meas))
        assert_same_system(phen, qubit_grid(resolution))

    def test_qutrit_random_pure_grid(self, rng):
        assert_same_system(qutrit_phenomenon(rng), random_pure_grid(3, 120))


def trace_tables(grid, bob):
    """Q as np.trace took it, before the einsum."""
    return [np.real(np.trace(np.stack(m.effects)[:, None] @ grid.matrices[None], axis1=-2, axis2=-1)) for m in bob]


def assert_same_trace(grid, bob):
    for table, ref in zip(oracle._bob_probability_table(grid, bob), trace_tables(grid, bob), strict=True):
        assert table.dtype == ref.dtype
        assert table.tobytes() == ref.tobytes()


class TestGrids:
    @pytest.mark.parametrize("resolution", [1, 50, 200, 800])
    def test_qubit_grid(self, resolution):
        grid = qubit_grid(resolution)
        assert grid.matrices.tobytes() == loop_reference.stacked(loop_reference.qubit_grid(resolution)).tobytes()

    @pytest.mark.parametrize("resolution", [50, 800])
    def test_bob_tables_read_the_stacked_grid(self, resolution):
        grid = qubit_grid(resolution)
        assert not grid.matrices.flags.writeable
        bob = mub_qubit_measurements(3)
        tables = oracle._bob_probability_table(grid, bob)
        reference = loop_reference.bob_probability_table(loop_reference.qubit_grid(resolution), bob)
        for table, ref in zip(tables, reference, strict=True):
            assert table.tobytes() == ref.tobytes()
            assert not table.flags.writeable

    @pytest.mark.parametrize("resolution", [1, 50, 800])
    @pytest.mark.parametrize("bob", ["mub3", "directions16"])
    def test_bob_tables_trace_bytes_qubit(self, rng, bob, resolution):
        # The einsum trace gives np.trace's bytes for d = 2 and 3.
        meas = mub_qubit_measurements(3) if bob == "mub3" else spin_measurements(0.5, unit_directions(rng, 16))
        assert_same_trace(qubit_grid(resolution), meas)

    def test_bob_tables_trace_bytes_qutrit(self):
        spin = spin_operators(1.0)
        meas = tuple(observable_to_measurement(op, label) for label, op in (("Jx", spin.jx), ("Jz", spin.jz)))
        assert_same_trace(random_pure_grid(3, 200), meas)

    @pytest.mark.parametrize("dim", [4, 9])
    def test_bob_tables_trace_bound_qudit(self, rng, dim):
        # For d ≥ 4 the two sums may round apart, by at most a few ulps of the largest entry.
        grid = random_pure_grid(dim, 200)
        meas = tuple(observable_to_measurement(random_density_matrix(rng, dim).matrix, f"R{i}") for i in range(3))
        for table, ref in zip(oracle._bob_probability_table(grid, meas), trace_tables(grid, meas), strict=True):
            assert np.max(np.abs(table - ref)) <= 4 * np.finfo(float).eps * np.max(np.abs(ref))

    @pytest.mark.parametrize("seed", [oracle.GRID_SEED, 7])
    @pytest.mark.parametrize("resolution", [1, 30, 800])
    @pytest.mark.parametrize("dim", [3, 4, 9])
    def test_random_pure_grid(self, monkeypatch, dim, resolution, seed):
        monkeypatch.setattr(oracle, "GRID_SEED", seed)
        grid = random_pure_grid(dim, resolution)
        reference = loop_reference.random_pure_grid(dim, resolution, seed)
        assert grid.matrices.tobytes() == loop_reference.stacked(reference).tobytes()


def map_dual_columns(phen, grid, y):
    """yᵀA as the dual check takes it from the column map, as an array [strategy, grid state]."""
    rows, values, _ = system(phen, grid)
    return y[rows] @ values.T


def assert_dual_columns_match(phen, grid, y):
    columns = map_dual_columns(phen, grid, y)
    reference = loop_reference.dual_columns(phen, grid, y)
    dense = y @ loop_reference.dense_lp_system(phen, grid)[0]
    assert columns.shape == reference.shape
    assert np.max(np.abs(columns - reference)) <= 1e-12 * max(1.0, np.max(np.abs(y)))
    assert np.max(np.abs(columns.ravel() - dense)) <= 1e-12 * max(1.0, np.max(np.abs(y)))


def assert_model_tables_match(phen, grid, weights):
    rebuilt = oracle.reproduce_tables(phen, grid, weights)
    reference = loop_reference.reproduce_tables(phen, grid, weights)
    for got, ref, table in zip(rebuilt, reference, phen.tables, strict=True):
        assert got.shape == table.probs.shape
        assert np.max(np.abs(got - ref)) <= 1e-12


class TestOneColumnMap:
    """`_column_map` is the one column map: the dual check reads y[rows] @ valuesᵀ, the model check w @ values."""

    @pytest.mark.parametrize("n_mub", [2, 3])
    @pytest.mark.parametrize("resolution", [50, 800])
    def test_dual_columns_werner_mub(self, rng, n_mub, resolution):
        phen = werner_mub_phenomenon(0.9, n_mub)
        grid = qubit_grid(resolution)
        outcome = lhs_feasible(phen, grid)
        assert not outcome.feasible
        assert_dual_columns_match(phen, grid, outcome.dual)
        assert_dual_columns_match(phen, grid, 40.0 * rng.standard_normal(outcome.dual.shape))

    def test_dual_columns_qutrit_random_pure_grid(self, rng):
        phen = qutrit_phenomenon(rng)
        grid = random_pure_grid(3, 120)
        n_rows = sum(t.probs.size for t in phen.tables) + 1
        for _ in range(3):
            assert_dual_columns_match(phen, grid, rng.standard_normal(n_rows))

    def test_functional_is_the_dual(self):
        phen = werner_mub_phenomenon(0.9)
        grid = qubit_grid(50)
        outcome = lhs_feasible(phen, grid)
        functional = oracle.functional_from_dual(phen, grid, outcome)
        assert np.concatenate([c.ravel() for c in functional.coeffs]).tobytes() == outcome.dual[:-1].tobytes()
        with pytest.raises(ValueError, match="dual fails"):
            oracle.functional_from_dual(phen, qubit_grid(60), outcome)

    def test_rejects_nonpositive_dual_value(self):
        # Shifting the normalization multiplier moves every column and y·b by
        # the same amount: the columns stay ≤ 0, so only y·b ≤ 0 rejects.
        phen = werner_mub_phenomenon(0.9)
        grid = qubit_grid(50)
        outcome = lhs_feasible(phen, grid)
        b_vec = system(phen, grid)[2]
        for y_b in (0.0, -1.0):
            shifted = outcome.dual.copy()
            shifted[-1] -= outcome.dual @ b_vec - y_b
            assert np.max(map_dual_columns(phen, grid, shifted)) <= 1e-7 and shifted @ b_vec <= 0
            with pytest.raises(ValueError, match="dual fails"):
                oracle.functional_from_dual(phen, grid, oracle.GridInfeasible(shifted, outcome.violation))

    def test_rejects_dual_of_wrong_length(self):
        phen = werner_mub_phenomenon(0.9)
        grid = qubit_grid(50)
        outcome = lhs_feasible(phen, grid)
        for dual in (outcome.dual[:-1], np.append(outcome.dual, 0.0)):
            with pytest.raises(ValueError, match=r"dual length \(\d+,\) does not match 37 constraints"):
                oracle.functional_from_dual(phen, grid, oracle.GridInfeasible(dual, outcome.violation))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite_dual(self, bad):
        phen = werner_mub_phenomenon(0.9)
        grid = qubit_grid(50)
        outcome = lhs_feasible(phen, grid)
        dual = outcome.dual.copy()
        dual[-1] = bad
        with pytest.raises(ValueError, match="dual must be finite"):
            oracle.functional_from_dual(phen, grid, oracle.GridInfeasible(dual, outcome.violation))

    @pytest.mark.parametrize("shape", [(8, 50), (7, 51), (408,)])
    def test_rejects_weights_of_wrong_shape(self, shape):
        with pytest.raises(ValueError, match=r"weights shape .* does not match strategies x grid"):
            oracle.reproduce_tables(werner_mub_phenomenon(0.4), qubit_grid(50), np.zeros(shape))

    def test_model_tables_werner_witness(self):
        phen = werner_mub_phenomenon(0.4)
        grid = qubit_grid(200)
        assert_model_tables_match(phen, grid, lhs_feasible(phen, grid).weights)

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_model_tables_blended_witnesses(self, p):
        # As in TestFeasibility: the blend of two models is a model of the mixture.
        grid = qubit_grid(150)
        first, second = werner_mub_phenomenon(0.3), werner_mub_phenomenon(0.45)
        weights = p * lhs_feasible(first, grid).weights + (1 - p) * lhs_feasible(second, grid).weights
        assert_model_tables_match(oracle.mix_phenomena(p, first, second), grid, weights)

    def test_model_tables_qutrit_witness(self):
        spin1 = spin_operators(1.0)
        meas = [observable_to_measurement(spin1.jz, "Jz1"), observable_to_measurement(spin1.jx, "Jx1")]
        phen = phenomenon_from_state(bipartite_from_matrix(np.eye(9) / 9, 3, 3), all_pairs_strategy(meas, meas))
        grid = random_pure_grid(3, 30)
        assert_model_tables_match(phen, grid, lhs_feasible(phen, grid).weights)


def assert_same_solve(phen, grid, reference):
    got = lhs_feasible(phen, grid)
    ref = reference(phen, grid)
    assert type(got) is type(ref)
    if got.feasible:
        assert got.residual == ref.residual
        assert got.weights.tobytes() == ref.weights.tobytes()
    else:
        assert got.violation == ref.violation
        assert got.dual.tobytes() == ref.dual.tobytes()


def presolved(phen, grid):
    return loop_reference.lhs_feasible_linprog(phen, grid, presolve=True)


CUBE4 = read_measurement_file(str(Path(__file__).resolve().parent / "golden" / "cube4.measurements"))
# The threshold T ± 0.02 (offsets, added in mub_phenomenon), and μ whose
# smallest table entry (1 - μ)/4 is 1e-5, 1e-6 and 1e-7, the last at HiGHS's
# feasibility tolerance.
WERNER_MUS = [
    0.0, 0.3, pytest.param(-0.02, id="T-0.02"), pytest.param(0.02, id="T+0.02"), 0.9,
    1 - 4e-5, 1 - 4e-6, 1 - 4e-7,
]
# Systems with table entries of zero or within 1e-8 of it; None is the singlet.
ZERO_ENTRY_MUS = [1 - 1e-8, 1.0, pytest.param(None, id="singlet")]


def mub_phenomenon(n_mub, mu):
    """The Werner phenomenon at μ (±0.02 are offsets from 1/√n_mub), or the singlet's for None."""
    meas = mub_qubit_measurements(n_mub)
    if mu is None:
        return phenomenon_from_state(singlet_state(), all_pairs_strategy(meas, meas))
    if mu in (-0.02, 0.02):
        mu += 1 / math.sqrt(n_mub)
    return werner_mub_phenomenon(mu, n_mub)


def cube_phenomenon(mu):
    return phenomenon_from_state(werner_state(mu), all_pairs_strategy(CUBE4, CUBE4))


def highs_solvers(monkeypatch, solver_type=None):
    """Replace the binding's solver class; returns the list of solvers made since."""
    from scipy.optimize._highspy import _core

    solver_type = solver_type or _core._Highs
    made = []

    def make():
        made.append(solver_type())
        return made[-1]

    monkeypatch.setattr(_core, "_Highs", make)
    return made


class TestPresolveOff:
    """Skipping HiGHS's presolve changes no verdict; where presolve reduces nothing, no bit."""

    @pytest.mark.parametrize("mu", WERNER_MUS)
    @pytest.mark.parametrize("resolution", [1, 50, 200, 800])
    @pytest.mark.parametrize("n_mub", [2, 3])
    def test_werner_mub(self, n_mub, resolution, mu):
        assert_same_solve(mub_phenomenon(n_mub, mu), qubit_grid(resolution), presolved)

    @pytest.mark.parametrize("mu", [0.6, 0.9])
    def test_cube_diagonals(self, mu):
        assert_same_solve(cube_phenomenon(mu), qubit_grid(50), presolved)

    def test_spin1_qutrit_grid(self, rng):
        assert_same_solve(qutrit_phenomenon(rng), hidden_state_grid(3, 200), presolved)

    @pytest.mark.parametrize("mu", ZERO_ENTRY_MUS)
    @pytest.mark.parametrize("resolution", [1, 50, 200, 800])
    @pytest.mark.parametrize("n_mub", [2, 3])
    def test_zero_table_entries(self, n_mub, resolution, mu):
        # Presolve reduces these LPs, and the two solves may return different
        # optimal duals (at grid 1 they do), so only the verdicts must agree.
        phen = mub_phenomenon(n_mub, mu)
        grid = qubit_grid(resolution)
        got = lhs_feasible(phen, grid)
        ref = presolved(phen, grid)
        assert not got.feasible and not ref.feasible
        assert got.violation == pytest.approx(ref.violation, rel=1e-12)
        got_cert, ref_cert = (
            certify_steering(phen, oracle.functional_from_dual(phen, grid, result)) for result in (got, ref)
        )
        assert got_cert.certified == ref_cert.certified

    def test_presolve_always_off(self, monkeypatch):
        solvers = highs_solvers(monkeypatch)
        # Four solves on one column map re-solve one model; each other map makes its own.
        for mu in (0.5, 1 - 4e-5, 1.0, None):
            lhs_feasible(mub_phenomenon(3, mu), qubit_grid(50))
        assert len(solvers) == 1
        lhs_feasible(mub_phenomenon(2, 0.5), qubit_grid(50))
        lhs_feasible(mub_phenomenon(3, 0.5), qubit_grid(1))
        assert len(solvers) == 3
        assert [solver.getOptionValue("presolve")[1] for solver in solvers] == ["off"] * 3


class TestDirectHighs:
    """The direct HiGHS call returns what `linprog` returned, bit for bit, on every input above."""

    @pytest.mark.parametrize("mu", WERNER_MUS + ZERO_ENTRY_MUS)
    @pytest.mark.parametrize("resolution", [1, 50, 200, 800])
    @pytest.mark.parametrize("n_mub", [2, 3])
    def test_werner_mub(self, n_mub, resolution, mu):
        assert_same_solve(mub_phenomenon(n_mub, mu), qubit_grid(resolution), loop_reference.lhs_feasible_linprog)

    @pytest.mark.parametrize("mu", [0.6, 0.9])
    def test_cube_diagonals(self, mu):
        assert_same_solve(cube_phenomenon(mu), qubit_grid(50), loop_reference.lhs_feasible_linprog)

    def test_spin1_qutrit_grid(self, rng):
        assert_same_solve(qutrit_phenomenon(rng), hidden_state_grid(3, 200), loop_reference.lhs_feasible_linprog)


def stub_solver(overrides):
    """A solver class wrapping the binding's; each named override gets the real solver first."""
    from scipy.optimize._highspy import _core

    real = _core._Highs

    class Stub:
        def __init__(self):
            self.highs = real()

        def __getattr__(self, name):
            if name in overrides:
                return functools.partial(overrides[name], self.highs)
            return getattr(self.highs, name)

    return Stub


def single_solvers(monkeypatch, solver_type=None):
    """Replace the binding's solver class; returns weak references to the solvers made since.

    Making a solver while an earlier one is still alive fails the test.
    """
    from scipy.optimize._highspy import _core

    solver_type = solver_type or _core._Highs
    made = []

    def make():
        assert all(ref() is None for ref in made), "a second HiGHS solver while one is alive"
        solver = solver_type()
        made.append(weakref.ref(solver))
        return solver

    monkeypatch.setattr(_core, "_Highs", make)
    return made


def solve_bytes(outcome):
    """What a solve returns, as bytes: the verdict, then the violation or residual and the dual or weights."""
    if outcome.feasible:
        return True, np.float64(outcome.residual).tobytes(), outcome.weights.tobytes()
    return False, np.float64(outcome.violation).tobytes(), outcome.dual.tobytes()


def fresh_solve(phen, grid):
    """`lhs_feasible` on a new HiGHS model."""
    oracle._live = None
    return lhs_feasible(phen, grid)


def live_sequence(seed):
    """Solves over six column maps (mub2/mub3 × grids 1/50/200), each followed by one more on its map.

    The first of each pair is Werner at threshold ± 0.02, μ 0.3 or 0.9, or the singlet, in a seeded
    order; the second is Werner at a random μ. Six maps overflow the four-map cache.
    """
    rng = np.random.default_rng(seed)
    configs = [
        (n_mub, resolution, mu)
        for n_mub in (2, 3) for resolution in (1, 50, 200) for mu in (-0.02, 0.02, 0.3, 0.9, None)
    ]
    sequence = []
    for i in rng.permutation(len(configs)):
        n_mub, resolution, mu = configs[i]
        sequence.append((mub_phenomenon(n_mub, mu), qubit_grid(resolution)))
        sequence.append((mub_phenomenon(n_mub, float(rng.uniform(0.0, 1.0))), qubit_grid(resolution)))
    return sequence


class TestLiveModel:
    """A solve on the last solve's column map re-solves that HiGHS model, and returns what a new model does."""

    def test_interleaved_resolves_match_new_models(self, monkeypatch):
        sequence = live_sequence(3)
        expected = [solve_bytes(fresh_solve(phen, grid)) for phen, grid in sequence]
        oracle._live = None
        solvers = single_solvers(monkeypatch)
        for (phen, grid), reference in zip(sequence, expected, strict=True):
            assert solve_bytes(lhs_feasible(phen, grid)) == reference
            assert sum(ref() is not None for ref in solvers) == 1
        # Every second solve is on the map of the one before, so it re-solves that model.
        assert len(solvers) <= len(sequence) // 2

    def test_failed_resolve_leaves_no_model(self, monkeypatch):
        from scipy.optimize._highspy._core import HighsModelStatus

        grid = qubit_grid(50)
        expected = solve_bytes(fresh_solve(werner_mub_phenomenon(0.9), grid))
        oracle._live = None
        failing = []
        stub = stub_solver(
            {"getModelStatus": lambda highs: HighsModelStatus.kSolveError if failing else highs.getModelStatus()}
        )
        solvers = single_solvers(monkeypatch, stub)
        assert lhs_feasible(werner_mub_phenomenon(0.4), grid).feasible
        failing.append(True)
        with pytest.raises(RuntimeError, match="LP solver failed"):
            lhs_feasible(werner_mub_phenomenon(0.9), grid)
        assert oracle._live is None
        assert len(solvers) == 1  # the failed solve was a re-solve
        failing.clear()
        assert solve_bytes(lhs_feasible(werner_mub_phenomenon(0.9), grid)) == expected
        assert len(solvers) == 2

    def test_threads_share_the_caches(self):
        # More threads than cores, each on an interleaved sequence over the same
        # maps, with a short switch interval: a solver two threads shared, or a
        # map handed out half built, would show as a wrong result.
        sequence = live_sequence(7)[:24]
        expected = [solve_bytes(fresh_solve(phen, grid)) for phen, grid in sequence]
        results = {}

        def run(index):
            order = np.random.default_rng(index).permutation(len(sequence))
            results[index] = all(
                solve_bytes(lhs_feasible(*sequence[i])) == expected[i] for i in order
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(index,)) for index in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {index: True for index in range(4)}


def column_arrays(rows, values, b_vec):
    """The column starts, row indices and values that `lhs_feasible` hands to passModel."""
    return oracle._highs_model(oracle._highs_binding(), rows, values, b_vec)[11:14]


def assert_same_columns(rows, values, b_vec, a_mat):
    """The arrays built from the map are scipy's CSC arrays of [A, I, -I] for the dense A, byte for byte."""
    from scipy.sparse import csc_array

    n_rows = len(a_mat)
    ref = csc_array(np.hstack([a_mat, np.eye(n_rows), -np.eye(n_rows)]))
    expected_arrays = (ref.indptr[:-1], ref.indices, ref.data)
    removed_arrays = loop_reference.highs_columns(a_mat)
    for array, expected, removed in zip(column_arrays(rows, values, b_vec), expected_arrays, removed_arrays):
        assert array.dtype == expected.dtype == removed.dtype
        assert array.tobytes() == expected.tobytes() == removed.tobytes()


def assert_same_grid_columns(phen, grid):
    rows, values, b_vec = system(phen, grid)
    a_mat, ref_b, _ = loop_reference.dense_lp_system(phen, grid)
    assert dense_from_map(rows, values, len(b_vec)).tobytes() == a_mat.tobytes()
    assert b_vec.tobytes() == ref_b.tobytes()
    assert_same_columns(rows, values, b_vec, a_mat)


# Offsets from the threshold 1/√n_mub, then fixed μ; None is the singlet.
COLUMN_MUS = [
    *(pytest.param(("T", offset), id=f"T{offset:+g}") for offset in (-0.02, -0.005, 0.0, 0.005, 0.02)),
    0.4, 0.6, 0.9, 1 - 1e-8, 1.0, pytest.param(None, id="singlet"),
]


class TestHighsColumns:
    """The column-wise arrays handed to HiGHS are those of `csc_array`, so the model is the same bytes."""

    @pytest.mark.parametrize("mu", COLUMN_MUS)
    @pytest.mark.parametrize("resolution", [1, 50, 200, 800])
    @pytest.mark.parametrize("n_mub", [2, 3])
    def test_werner_mub(self, n_mub, resolution, mu):
        if isinstance(mu, tuple):
            mu = 1 / math.sqrt(n_mub) + mu[1]
        assert_same_grid_columns(mub_phenomenon(n_mub, mu), qubit_grid(resolution))

    def test_cube_diagonals(self):
        assert_same_grid_columns(cube_phenomenon(0.6), qubit_grid(50))

    def test_qutrit_random_pure_grid(self, rng):
        assert_same_grid_columns(qutrit_phenomenon(rng), random_pure_grid(3, 50))

    def test_zero_bob_probabilities(self):
        # Jz finds |0><0| and |1><1| each in one outcome only, so Q holds exact zeros.
        spin = spin_operators(0.5)
        alice = tuple(observable_to_measurement(op, label) for label, op in (("Jz", spin.jz), ("Jx", spin.jx)))
        bob = (observable_to_measurement(spin.jz, "Jz"),)
        strategy = MeasurementStrategy(alice=alice, bob=bob, pairing=((0, 0), (1, 0)))
        states = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2) / 2])
        grid = oracle.HiddenStateGrid(matrices=states)
        phen = phenomenon_from_state(werner_state(0.6), strategy)
        assert np.count_nonzero(system(phen, grid)[1] == 0) == 4
        assert_same_grid_columns(phen, grid)

    def test_signed_zeros_and_non_finite_entries(self, rng):
        # -0.0 is dropped like 0.0; NaN and inf stay, for the finiteness check to find.
        n_rows = 9
        rows = np.sort(np.stack([rng.choice(n_rows - 1, 4, replace=False) for _ in range(5)]), axis=1)
        rows = np.hstack([rows, np.full((5, 1), n_rows - 1)])
        values = rng.choice([0.0, -0.0, 0.25, -1.5, math.nan, math.inf], size=(6, 5))
        assert np.signbit(values[values == 0]).any()
        assert_same_columns(rows, values, np.ones(n_rows), dense_from_map(rows, values, n_rows))


class TestSolveFailure:
    """What `linprog` reported as a failed solve raises, whatever verdict the numbers would give."""

    @staticmethod
    def solve_with(monkeypatch, **overrides):
        """One solve on a solver whose named methods are replaced; each override gets the real solver first."""
        highs_solvers(monkeypatch, stub_solver(overrides))
        return lhs_feasible(werner_mub_phenomenon(0.9), qubit_grid(50))

    @staticmethod
    def shifted(field, shift):
        def get_solution(highs):
            solution = highs.getSolution()
            setattr(solution, field, [v + shift for v in getattr(solution, field)])
            return solution

        return get_solution

    def test_model_refused(self, monkeypatch):
        from scipy.optimize._highspy._core import HighsStatus

        with pytest.raises(RuntimeError, match="LP solver failed"):
            self.solve_with(monkeypatch, passModel=lambda highs, *model: HighsStatus.kError)

    @pytest.mark.parametrize("status", ["kIterationLimit", "kInfeasible", "kSolveError"])
    def test_status_not_optimal(self, monkeypatch, status):
        from scipy.optimize._highspy._core import HighsModelStatus

        with pytest.raises(RuntimeError, match="LP solver failed"):
            self.solve_with(monkeypatch, getModelStatus=lambda highs: getattr(HighsModelStatus, status))

    @pytest.mark.parametrize(
        "field, shift", [("row_value", 1e-3), ("row_value", -1e-3), ("col_value", -1e-3), ("row_value", math.nan)]
    )
    def test_solution_outside_tolerance(self, monkeypatch, field, shift):
        with pytest.raises(RuntimeError, match="LP solver failed"):
            self.solve_with(monkeypatch, getSolution=self.shifted(field, shift))

    @pytest.mark.parametrize("field, shift", [("row_value", 3e-4), ("row_value", -3e-4), ("col_value", -3e-4)])
    def test_solution_within_tolerance(self, monkeypatch, field, shift):
        # linprog's tolerance is 10·√1e-9 ≈ 3.16e-4.
        assert not self.solve_with(monkeypatch, getSolution=self.shifted(field, shift)).feasible

    def test_nan_objective(self, monkeypatch):
        with pytest.raises(RuntimeError, match="LP solver failed"):
            self.solve_with(monkeypatch, getInfo=lambda highs: SimpleNamespace(objective_function_value=math.nan))

    @pytest.mark.parametrize("bad_row", ["n_rows", "-1"])
    def test_row_index_out_of_range(self, bad_row):
        # The binding reads indices unchecked, and one out of range crashes
        # the interpreter: a fresh one, so that a regression fails this test
        # rather than ending the test run.
        out = fresh_interpreter(f"""
from steerkit import oracle
from steerkit.families import werner_state
from steerkit.measurements import all_pairs_strategy
real = oracle._column_map
def corrupted(strategy, grid):
    rows, values = real(strategy, grid)
    n_rows = rows[0, -1] + 1  # the normalization row is the last
    rows[3, 1] = {bad_row}
    return rows, values
oracle._column_map = corrupted
mub3 = oracle.mub_qubit_measurements(3)
phen = oracle.phenomenon_from_state(werner_state(0.9), all_pairs_strategy(mub3, mub3))
try:
    oracle.lhs_feasible(phen, oracle.qubit_grid(50))
except ValueError as error:
    print(error)
""")
        assert out == "LP columns need matching lengths, non-decreasing starts and row indices in [0, 37)\n"

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("part", [0, 1])
    def test_non_finite_system(self, monkeypatch, part, bad):
        # HiGHS itself reports such a model optimal.
        real = oracle._system

        def corrupted(phen, grid):
            (rows, values), b_vec = real(phen, grid)
            values = values.copy()  # the cached map is read-only
            (values, b_vec)[part][..., 0] = bad
            return (rows, values), b_vec

        monkeypatch.setattr(oracle, "_system", corrupted)
        with pytest.raises(ValueError, match="must be finite"):
            lhs_feasible(werner_mub_phenomenon(0.9), qubit_grid(50))
