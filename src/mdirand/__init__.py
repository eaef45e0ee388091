"""Certified randomness rates for measurement-device-independent setups.

The package bounds the guessing probability of an adversary holding the
measurement device while the state preparation stays trusted.  The main
entry points re-exported here:

- quantum state / POVM constructors (`tomographic_set`, `extremal4`, ...)
- `honest_scenario` / `Scenario` to describe what was observed
- `guessing_probability` to get a certified `RateResult`
- `SolverOptions` to tune the interior-point solver

The `mdirand` console script exposes the same pipeline on scenario files.
"""
from __future__ import annotations

from .mdi import (
    MODE_ASYMPTOTIC,
    MODE_FINITE_Q,
    RateResult,
    Scenario,
    TwoCopyResult,
    angle_sweep,
    classical_min_entropy,
    guessing_probability,
    honest_scenario,
    input_cost,
    two_copy_detail,
)
from .quantum import (
    DensityMatrix,
    ObservedStatistics,
    Povm,
    StateEnsemble,
    angle_states,
    bloch_to_density,
    extremal3,
    extremal4,
    povm_from_bloch,
    sigma_x_povm,
    sigma_z_povm,
    tomographic_set,
)
from .sdp_core import (
    INFEASIBLE,
    NEAR_OPTIMAL,
    NUMERICAL_FAILURE,
    OPTIMAL,
    InfeasibleProblemError,
    SdpProblem,
    SdpSolution,
)
from .sdp_solver import CertificationError, SolverOptions, certify_upper_bound, solve

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "MODE_ASYMPTOTIC",
    "MODE_FINITE_Q",
    "OPTIMAL",
    "NEAR_OPTIMAL",
    "INFEASIBLE",
    "NUMERICAL_FAILURE",
    "DensityMatrix",
    "Povm",
    "StateEnsemble",
    "ObservedStatistics",
    "Scenario",
    "RateResult",
    "TwoCopyResult",
    "SdpProblem",
    "SdpSolution",
    "SolverOptions",
    "InfeasibleProblemError",
    "CertificationError",
    "bloch_to_density",
    "povm_from_bloch",
    "sigma_z_povm",
    "sigma_x_povm",
    "extremal3",
    "extremal4",
    "tomographic_set",
    "angle_states",
    "honest_scenario",
    "guessing_probability",
    "classical_min_entropy",
    "input_cost",
    "two_copy_detail",
    "angle_sweep",
    "solve",
    "certify_upper_bound",
]
