import math

import numpy as np
import pytest

from steerkit import families
from steerkit.core import expectation, spin_operators, tensor_product
from steerkit.criteria import evaluate
from steerkit.families import (
    FAMILIES,
    boundary_bisect,
    make_state,
    singlet_state,
    sweep,
    werner_state,
)
from steerkit.gaussian import (
    boundary_collective_steering_mu,
    boundary_entanglement_mu,
    boundary_reid_steering_mu,
)
from util import cap_calls

SPIN = spin_operators(0.5)


class TestWernerState:
    def test_mu_zero_is_maximally_mixed(self):
        assert np.allclose(werner_state(0.0).matrix, np.eye(4) / 4)

    def test_mu_one_is_singlet(self):
        state = werner_state(1.0)
        assert np.max(np.abs(state.matrix - singlet_state().matrix)) < 1e-12
        corr = expectation(tensor_product(SPIN.jz, SPIN.jz), state.matrix)
        assert corr == pytest.approx(-0.25, abs=1e-12)

    def test_mu_half_eigenvalues(self):
        eigenvalues = np.sort(np.linalg.eigvalsh(werner_state(0.5).matrix))[::-1]
        assert np.allclose(eigenvalues, [0.625, 0.125, 0.125, 0.125], atol=1e-12)

    def test_valid_across_range(self):
        for mu in np.linspace(0, 1, 101):
            werner_state(float(mu))  # constructor enforces the state invariants

    @pytest.mark.parametrize("mu", [-0.01, 1.01])
    def test_out_of_range(self, mu):
        with pytest.raises(ValueError):
            werner_state(mu)


class TestFamilyRegistry:
    def test_ids(self):
        assert set(FAMILIES) == {"werner", "symmetric-gaussian", "singlet"}

    def test_make_state_validates(self):
        with pytest.raises(KeyError):
            make_state("bogus", mu=0.5)
        with pytest.raises(ValueError):
            make_state("werner", mu=1.5)
        with pytest.raises(ValueError):
            make_state("werner")
        with pytest.raises(ValueError):
            make_state("werner", mu=0.5, nbar=1.0)

    def test_singlet_family(self):
        state = make_state("singlet")
        assert state.dim_a == state.dim_b == 2


class TestSweep:
    def test_linear3_werner_grid(self):
        grid = [round(0.1 * k, 1) for k in range(11)]
        rows = sweep("linear-3", "werner", "mu", grid)
        violated = [row.parameter for row in rows if row.violated]
        assert violated == [0.6, 0.7, 0.8, 0.9, 1.0]

    def test_reid_gaussian_flip_location(self):
        grid = [round(0.01 * k, 2) for k in range(80, 91)]
        rows = sweep("reid-cv", "symmetric-gaussian", "mu", grid, fixed={"nbar": 1.0})
        flips = [(a.parameter, b.parameter) for a, b in zip(rows, rows[1:]) if a.violated != b.violated]
        assert flips == [(0.86, 0.87)]

    def test_single_point(self):
        rows = sweep("product-spin", "werner", "mu", [0.8])
        assert len(rows) == 1
        assert rows[0].violated

    def test_rows_follow_grid_order(self):
        grid = [0.9, 0.1, 0.5]
        rows = sweep("linear-2", "werner", "mu", grid)
        assert [row.parameter for row in rows] == grid


class TestBoundaryBisect:
    CLOSED_FORMS = {
        "product-spin": (math.sqrt(5) - 1) / 2,
        "sum-three-spin": 1 / math.sqrt(3),
        "linear-2": 1 / math.sqrt(2),
        "linear-3": 1 / math.sqrt(3),
    }

    @pytest.mark.parametrize("criterion_id,expected", sorted(CLOSED_FORMS.items()))
    def test_werner_thresholds(self, criterion_id, expected):
        result = boundary_bisect(criterion_id, "werner", "mu", tol=1e-9)
        assert abs(result.threshold - expected) < 1e-8
        assert result.tolerance <= 1e-9

    @pytest.mark.parametrize("nbar", [0.5, 1.0, 2.0, 5.0])
    def test_gaussian_boundaries_match_closed_forms(self, nbar):
        cases = [
            ("duan-simon", boundary_entanglement_mu),
            ("reid-cv", boundary_reid_steering_mu),
            ("collective-cv-sum", boundary_collective_steering_mu),
        ]
        for criterion_id, closed_form in cases:
            result = boundary_bisect(
                criterion_id, "symmetric-gaussian", "mu", tol=1e-9, fixed={"nbar": nbar}
            )
            assert abs(result.threshold - closed_form(nbar)) < 1e-8

    def test_same_verdict_bracket_rejected(self):
        with pytest.raises(ValueError, match="same verdict"):
            boundary_bisect("linear-3", "werner", "mu", bracket=(0.0, 0.5), tol=1e-9)

    def test_never_violated_criterion_rejected(self):
        with pytest.raises(ValueError, match="same verdict"):
            boundary_bisect("bowen", "werner", "mu", tol=1e-9)

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            boundary_bisect("linear-3", "werner", "mu", bracket=(0.8, 0.2), tol=1e-9)

    def test_infinite_range_needs_bracket(self):
        with pytest.raises(ValueError, match="bracket"):
            boundary_bisect("reid-cv", "symmetric-gaussian", "nbar", tol=1e-9, fixed={"mu": 0.9})

    @pytest.mark.parametrize("tol", [1e-20, 1e-300, 0.0])
    @pytest.mark.parametrize(
        "criterion_id,family_id,fixed",
        [("linear-3", "werner", {}), ("reid-cv", "symmetric-gaussian", {"nbar": 1.0})],
    )
    def test_tol_below_float_spacing_stops_at_adjacent_floats(
        self, monkeypatch, criterion_id, family_id, fixed, tol
    ):
        calls = cap_calls(monkeypatch, families, "evaluate", 200)
        result = boundary_bisect(criterion_id, family_id, "mu", tol=tol, fixed=fixed)
        lo, hi = result.bracket
        assert np.nextafter(lo, np.inf) == hi
        assert result.threshold in (lo, hi)
        assert result.tolerance == hi - lo
        assert result.evaluations == calls[0]
        state = {**fixed, "mu": lo}
        assert not evaluate(criterion_id, make_state(family_id, **state)).violated
        state["mu"] = hi
        assert evaluate(criterion_id, make_state(family_id, **state)).violated

    def test_bisect_threshold_flips_verdict(self):
        result = boundary_bisect("linear-3", "werner", "mu", tol=1e-6)
        below = evaluate("linear-3", werner_state(result.threshold - 1e-5))
        above = evaluate("linear-3", werner_state(result.threshold + 1e-5))
        assert not below.violated and above.violated
