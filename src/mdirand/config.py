"""Central numeric tolerance record shared across modules."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Default tolerances for validation and factorization routines.

    One instance with the library defaults is exposed as DEFAULT_TOLS;
    functions accept an override where behaviour should be tunable.
    """

    hermitian: float = 1e-12        # max |h - h^dagger| entry allowed
    jacobi_off: float = 1e-12       # Jacobi sweep target for off-diagonal norm
    consistency: float = 1e-8       # |b_dropped - reconstruction| allowed
    psd: float = 1e-10              # min eigenvalue >= -psd for PSD checks
    trace: float = 1e-10            # |trace - 1| for density matrices
    completeness: float = 1e-10     # POVM completeness / probability row sums
    bloch: float = 1e-12            # Bloch weight/direction checks
    strategy: float = 1e-8          # effective-strategy constraint residuals


DEFAULT_TOLS = Tolerances()
