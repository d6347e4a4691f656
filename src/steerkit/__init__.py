"""Steering-type nonlocality criteria for bipartite quantum states.

Submodules: `core` (Hermitian linear algebra, spin operators), `measurements`
(Born-rule statistics and inference variances), `gaussian` (covariance-matrix
sector), `criteria` (the criterion catalog), `oracle` (hidden-state LP
feasibility and exact certificates), `families` (Werner / symmetric-Gaussian
sweeps and threshold bisection), `cli` (the `steerkit` command).
"""

from .core import (
    BipartiteState,
    DensityMatrix,
    SpinOperators,
    bipartite_from_matrix,
    expectation,
    partial_trace,
    spin_operators,
    tensor_product,
    variance,
)
from .criteria import CATALOG, CriterionResult, evaluate
from .families import (
    FAMILIES,
    BoundaryResult,
    boundary_bisect,
    make_state,
    singlet_state,
    sweep,
    werner_state,
)
from .gaussian import GaussianState, SymmetricTwoModeParams, symmetric_two_mode
from .measurements import (
    JointDistribution,
    Measurement,
    MeasurementStrategy,
    collective_variance,
    inference_variance,
    inferred_abs_mean,
    measure_joint,
    observable_to_measurement,
)
from .oracle import (
    HiddenStateGrid,
    Phenomenon,
    SteeringCertificate,
    SteeringFunctional,
    certify_steering,
    functional_from_dual,
    lhs_feasible,
    phenomenon_from_state,
)

__version__ = "0.1.0"
