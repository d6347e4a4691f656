import numpy as np
import pytest
from hypothesis import settings

from steerkit import oracle

# Every run draws the same examples, so a property test cannot pass on one run
# and fail on the next.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)


@pytest.fixture(autouse=True)
def fresh_oracle_caches() -> None:
    """Each test starts with no cached qubit grid, column map or live HiGHS model.

    So a test that patches `_column_map` or the solver class has its patch
    used, and no test reads a model another test left.
    """
    oracle.qubit_grid.cache_clear()
    oracle._maps.clear()
    oracle._live = None
