"""Parametrized state families, criterion sweeps, and bisection of verdict and feasibility flips."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import BipartiteState, bipartite_from_matrix
from .criteria import evaluate
from .gaussian import GaussianState, SymmetricTwoModeParams, symmetric_two_mode
from .oracle import HiddenStateGrid, Phenomenon, lhs_feasible


@functools.lru_cache(maxsize=1)
def singlet_state() -> BipartiteState:
    """The two-qubit singlet (|+1/2,-1/2> - |-1/2,+1/2>)/√2.

    Built and validated once; the shared matrix is read-only.
    """
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0 / math.sqrt(2)
    psi[2] = -1.0 / math.sqrt(2)
    return bipartite_from_matrix(np.outer(psi, psi.conj()), 2, 2)


def werner_state(mu: float) -> BipartiteState:
    """μ·singlet + (1-μ)·I/4 on two qubits, μ ∈ [0, 1]."""
    if not 0 <= mu <= 1:
        raise ValueError(f"mu must lie in [0, 1], got {mu}")
    singlet = singlet_state().matrix
    rho = mu * singlet + (1 - mu) * np.eye(4) / 4
    return bipartite_from_matrix(rho, 2, 2)


@dataclass(frozen=True)
class StateFamily:
    """A named family: its criterion kind ("spin" or "cv"), parameter ranges and a state builder."""

    family_id: str
    kind: str
    parameter_ranges: dict[str, tuple[float, float]]
    build: Callable[..., BipartiteState | GaussianState]

    def make(self, **params: float) -> BipartiteState | GaussianState:
        for name, value in params.items():
            if name not in self.parameter_ranges:
                raise ValueError(f"family {self.family_id!r} has no parameter {name!r}")
            lo, hi = self.parameter_ranges[name]
            if not lo <= value <= hi:
                raise ValueError(
                    f"parameter {name}={value} outside range [{lo}, {hi}] of family {self.family_id!r}"
                )
        missing = set(self.parameter_ranges) - set(params)
        if missing:
            raise ValueError(f"family {self.family_id!r} missing parameters {sorted(missing)}")
        return self.build(**params)


FAMILIES: dict[str, StateFamily] = {
    "werner": StateFamily("werner", "spin", {"mu": (0.0, 1.0)}, lambda mu: werner_state(mu)),
    "symmetric-gaussian": StateFamily(
        "symmetric-gaussian",
        "cv",
        {"nbar": (0.0, math.inf), "mu": (0.0, 1.0)},
        lambda nbar, mu: symmetric_two_mode(SymmetricTwoModeParams(nbar=nbar, mu=mu)),
    ),
    "singlet": StateFamily("singlet", "spin", {}, lambda: singlet_state()),
}


def make_state(family_id: str, **params: float) -> BipartiteState | GaussianState:
    if family_id not in FAMILIES:
        raise KeyError(f"unknown family {family_id!r}")
    return FAMILIES[family_id].make(**params)


@dataclass(frozen=True)
class SweepRow:
    parameter: float
    lhs: float
    bound: float
    margin: float
    violated: bool


def sweep(
    criterion_id: str,
    family_id: str,
    param: str,
    grid: list[float] | np.ndarray,
    fixed: dict[str, float] | None = None,
    gain_mode: str | None = None,
) -> list[SweepRow]:
    """One CriterionResult row per grid point, ordered by the input grid."""
    fixed = dict(fixed or {})
    rows = []
    for value in grid:
        result = evaluate(criterion_id, make_state(family_id, **{**fixed, param: float(value)}), gain_mode)
        rows.append(
            SweepRow(
                parameter=float(value),
                lhs=result.lhs_value,
                bound=result.bound,
                margin=result.margin,
                violated=result.violated,
            )
        )
    return rows


@dataclass(frozen=True)
class BoundaryResult:
    """Bisection outcome: the parameter where a criterion's verdict flips."""

    criterion_id: str
    family_id: str
    fixed: dict[str, float]
    param: str
    threshold: float
    bracket: tuple[float, float]
    tolerance: float
    evaluations: int


MONOTONICITY_PROBES = 9


def _bisect(is_low: Callable[[float], bool], lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Halve [lo, hi] towards the flip of `is_low`, true at lo and false at hi.

    Stops at width `tol`, or at two adjacent floats if `tol` is below their spacing.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # adjacent floats: the bracket cannot shrink
            break
        if is_low(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def boundary_bisect(
    criterion_id: str,
    family_id: str,
    param: str,
    bracket: tuple[float, float] | None = None,
    *,
    tol: float,
    fixed: dict[str, float] | None = None,
    gain_mode: str | None = None,
) -> BoundaryResult:
    """Bisect the verdict flip of a criterion along one family parameter.

    The verdict must differ at the bracket endpoints and be monotone across
    nine interior probes (criterion margins along a family are not monotone
    in general, so this is checked rather than assumed). The threshold is the
    final bracket midpoint; `tol` bounds the bracket width, unless it is
    below the float spacing at the flip, where the bracket stops at two
    adjacent floats.
    """
    fixed = dict(fixed or {})
    if family_id not in FAMILIES:
        raise KeyError(f"unknown family {family_id!r}")
    if bracket is None:
        if param not in FAMILIES[family_id].parameter_ranges:
            raise ValueError(f"family {family_id!r} has no parameter {param!r}")
        bracket = FAMILIES[family_id].parameter_ranges[param]
        if not all(math.isfinite(edge) for edge in bracket):
            raise ValueError(f"parameter {param!r} needs an explicit bracket")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not hi > lo:
        raise ValueError(f"invalid bracket ({lo}, {hi})")
    evaluations = 0

    def verdict(value: float) -> bool:
        nonlocal evaluations
        evaluations += 1
        return evaluate(criterion_id, make_state(family_id, **{**fixed, param: value}), gain_mode).violated

    v_lo, v_hi = verdict(lo), verdict(hi)
    if v_lo == v_hi:
        raise ValueError(
            f"criterion {criterion_id!r} gives the same verdict at both bracket endpoints"
        )
    positions = [lo + (hi - lo) * k / (MONOTONICITY_PROBES + 1) for k in range(MONOTONICITY_PROBES + 2)]
    sequence = [v_lo, *(verdict(x) for x in positions[1:-1]), v_hi]
    flips = sum(1 for prev, cur in zip(sequence, sequence[1:]) if prev != cur)
    if flips != 1:
        raise ValueError(
            f"criterion {criterion_id!r} is not monotone across the bracket ({flips} verdict flips)"
        )
    flip_at = next(i for i in range(len(sequence) - 1) if sequence[i] != sequence[i + 1])
    lo, hi = _bisect(lambda x: verdict(x) == v_lo, positions[flip_at], positions[flip_at + 1], tol)
    return BoundaryResult(
        criterion_id=criterion_id,
        family_id=family_id,
        fixed=fixed,
        param=param,
        threshold=0.5 * (lo + hi),
        bracket=(lo, hi),
        tolerance=hi - lo,
        evaluations=evaluations,
    )


def feasibility_flip(
    phenomenon_at: Callable[[float], Phenomenon], grid: HiddenStateGrid, tol: float
) -> float:
    """Bisect the parameter in [0, 1] where grid feasibility flips to infeasibility.

    The phenomenon must be feasible at 0 and infeasible at 1; the flip is the midpoint of `_bisect`'s bracket.
    """
    def is_feasible(x: float) -> bool:
        return lhs_feasible(phenomenon_at(x), grid).feasible

    if not is_feasible(0.0):
        raise ValueError("expected feasibility at the lower bracket 0")
    if is_feasible(1.0):
        raise ValueError("expected infeasibility at the upper bracket 1")
    lo, hi = _bisect(is_feasible, 0.0, 1.0, tol)
    return 0.5 * (lo + hi)
