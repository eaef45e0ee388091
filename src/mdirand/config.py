"""Central numeric tolerance record shared across modules."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Numeric tolerances of the validation and preprocessing checks.

    A record of constants: the one instance DEFAULT_TOLS is what the
    library reads, so each value is named and set in one place.
    """

    hermitian: float = 1e-12        # max |h - h^dagger| entry / max(1, max |h|)
    consistency: float = 1e-8       # |b_dropped - reconstruction| allowed
    psd: float = 1e-10              # min eigenvalue >= -psd for PSD checks
    trace: float = 1e-10            # |trace - 1| for density matrices
    completeness: float = 1e-10     # POVM completeness / probability row sums
    bloch: float = 1e-12            # Bloch weight/direction checks
    strategy: float = 1e-8          # effective-strategy constraint residuals


DEFAULT_TOLS = Tolerances()
