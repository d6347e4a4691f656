"""Loop implementations of the oracle's exact bound, LP system and grids.

A compact copy of the original scalar loops, kept as the reference that the
array code in `steerkit.oracle` must reproduce bit for bit.
"""

from __future__ import annotations

import itertools

import numpy as np

from steerkit.core import DensityMatrix, spin_operators
from steerkit.oracle import HiddenStateGrid


def lp_system(phen, grid, bob):
    strategies = list(itertools.product(*(range(m.n_outcomes) for m in phen.strategy.alice)))
    q_tables = []
    for meas in bob:
        q = np.empty((meas.n_outcomes, len(grid.states)))
        for b_out, effect in enumerate(meas.effects):
            for l, rho in enumerate(grid.states):
                q[b_out, l] = np.real(np.trace(effect @ rho.matrix))
        q_tables.append(q)
    n_states = len(grid.states)
    n_rows = sum(t.probs.size for t in phen.tables) + 1
    a_mat = np.zeros((n_rows, len(strategies) * n_states))
    b_vec = np.zeros(n_rows)
    row = 0
    for (a_idx, b_idx), table in zip(phen.strategy.pairing, phen.tables):
        for a_out in range(table.probs.shape[0]):
            for b_out in range(table.probs.shape[1]):
                for k, strat in enumerate(strategies):
                    if strat[a_idx] == a_out:
                        a_mat[row, k * n_states : (k + 1) * n_states] = q_tables[b_idx][b_out]
                b_vec[row] = table.probs[a_out, b_out]
                row += 1
    a_mat[row, :] = 1.0
    b_vec[row] = 1.0
    return a_mat, b_vec, strategies


def exact_bound(phen, functional, bob=None):
    """(lhs_bound, maximizing_strategy) by one eigvalsh per strategy."""
    bob = phen.strategy.bob if bob is None else bob
    dim = bob[0].dim
    partial_ops = []
    for (a_idx, b_idx), block in zip(phen.strategy.pairing, functional.coeffs):
        ops_for_entry = []
        for a_out in range(block.shape[0]):
            op = np.zeros((dim, dim), dtype=complex)
            for b_out, effect in enumerate(bob[b_idx].effects):
                op += block[a_out, b_out] * effect
            ops_for_entry.append(op)
        partial_ops.append(ops_for_entry)
    best_bound, best_strategy = -np.inf, None
    for strat in itertools.product(*(range(m.n_outcomes) for m in phen.strategy.alice)):
        aggregated = np.zeros((dim, dim), dtype=complex)
        for (a_idx, _), ops_for_entry in zip(phen.strategy.pairing, partial_ops):
            aggregated += ops_for_entry[strat[a_idx]]
        top = float(np.linalg.eigvalsh(aggregated)[-1])
        if top > best_bound:
            best_bound, best_strategy = top, strat
    return best_bound, tuple(best_strategy)


def qubit_grid(resolution):
    """Golden-spiral Bloch states built one DensityMatrix at a time, plus I/2."""
    spin = spin_operators(0.5)
    paulis = (2 * spin.jx, 2 * spin.jy, 2 * spin.jz)
    eye = np.eye(2, dtype=complex)
    golden_angle = np.pi * (3.0 - np.sqrt(5.0))
    states = []
    for i in range(resolution):
        z = 1.0 - 2.0 * (i + 0.5) / resolution
        r = np.sqrt(max(0.0, 1.0 - z * z))
        phi = golden_angle * i
        direction = (r * np.cos(phi), r * np.sin(phi), z)
        bloch = sum(c * s for c, s in zip(direction, paulis))
        states.append(DensityMatrix(0.5 * (eye + bloch)))
    states.append(DensityMatrix(eye / 2))
    return HiddenStateGrid(states=tuple(states), resolution=resolution)


def random_pure_grid(dim, resolution, seed):
    """Seeded pure states drawn and normalized one at a time, plus I/d."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(resolution):
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi /= np.linalg.norm(psi)
        states.append(DensityMatrix(np.outer(psi, psi.conj())))
    states.append(DensityMatrix(np.eye(dim, dtype=complex) / dim))
    return HiddenStateGrid(states=tuple(states), resolution=resolution)
