"""The CATALOG evaluators against the if-chain dispatch they replaced."""

import numpy as np
import pytest

import loop_reference
from steerkit import criteria
from steerkit.core import bipartite_from_matrix
from steerkit.criteria import CATALOG, evaluate
from steerkit.families import singlet_state, werner_state
from steerkit.gaussian import SymmetricTwoModeParams, symmetric_two_mode
from util import random_density_matrix

EVALUABLE = [c for c, info in CATALOG.items() if info.evaluator is not None]


def _spin_one_states():
    rng = np.random.default_rng(31)
    psi = np.zeros(9, dtype=complex)
    # (|1,-1> - |0,0> + |-1,1>)/√3: the spin-1 singlet.
    psi[2], psi[4], psi[6] = 1.0, -1.0, 1.0
    singlet = np.outer(psi, psi.conj()) / 3.0
    mixed = 0.6 * singlet + 0.4 * random_density_matrix(rng, 9).matrix
    return [bipartite_from_matrix(singlet, 3, 3), bipartite_from_matrix(mixed, 3, 3)]


STATES = (
    [werner_state(mu) for mu in (0.0, 0.3, 0.6, 0.8, 1.0)]
    + [singlet_state()]
    + _spin_one_states()
    + [
        symmetric_two_mode(SymmetricTwoModeParams(nbar=nbar, mu=mu))
        for nbar, mu in ((0.05, 0.99), (0.5, 0.9), (2.0, 0.6))
    ]
)

OPTIONS = [{"gain_mode": gain_mode} for gain_mode in (None, "fixed", "optimize")]


def _outcome(fn, *args, **kwargs):
    """The result, or the type and message of the exception raised instead."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, KeyError) as exc:
        return type(exc), str(exc)


def test_twelve_criteria_have_evaluators():
    assert len(EVALUABLE) == 12
    assert CATALOG["custom-convex"].evaluator is None


@pytest.mark.parametrize("criterion_id", EVALUABLE)
def test_registry_matches_if_chain(criterion_id):
    compared = 0
    for state in STATES:
        for options in OPTIONS:
            expected = _outcome(loop_reference.evaluate_if_chain, criterion_id, state, **options)
            got = _outcome(evaluate, criterion_id, state, **options)
            assert got == expected, (criterion_id, state, options)
            compared += isinstance(got, criteria.CriterionResult)
    assert compared > 0


@pytest.mark.parametrize("criterion_id", ["custom-convex", "no-such-criterion"])
def test_unevaluable_ids_raise_as_before(criterion_id):
    state = werner_state(0.5)
    expected = _outcome(loop_reference.evaluate_if_chain, criterion_id, state)
    assert isinstance(expected, tuple)
    assert _outcome(evaluate, criterion_id, state) == expected


def test_spin_one_criteria_are_evaluated():
    state = _spin_one_states()[1]
    for criterion_id in ("sum-three-spin", "collective-spin-sum", "linear-spin-j"):
        result = evaluate(criterion_id, state)
        assert result.details["spin_j"] == 1.0
        assert result == loop_reference.evaluate_if_chain(criterion_id, state)


@pytest.mark.parametrize("criterion_id", ["linear-2", "linear-3", "linear-spin-j", "collective-spin-sum"])
def test_plan_free_criteria_build_no_plan(criterion_id, monkeypatch):
    def no_plan(*args, **kwargs):
        raise AssertionError("default_spin_plan called")

    monkeypatch.setattr(criteria, "default_spin_plan", no_plan)
    for mu in (0.3, 0.9):
        assert evaluate(criterion_id, werner_state(mu)).criterion_id == criterion_id
