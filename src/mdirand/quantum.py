"""States, measurements and observed statistics for prepare-and-measure setups.

Bloch convention: component 1 multiplies sigma_x, so |+> sits along e1,
|0>/|1> along +-e3 and |+i> along e2. The first state of an ensemble is the
generation state unless a scenario says otherwise.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from . import linalg

__all__ = [
    "PAULI",
    "DensityMatrix",
    "Povm",
    "BlochPovmSpec",
    "StateEnsemble",
    "ObservedStatistics",
    "NAMED_DEVICES",
    "require_distribution",
    "bloch_to_density",
    "povm_from_bloch",
    "sigma_z_povm",
    "sigma_x_povm",
    "extremal4",
    "extremal3",
    "check_unbiased",
    "extremal_diagnosis",
    "tomographic_set",
    "angle_states",
    "tensor_ensemble",
    "tensor_povm",
    "double_ensemble",
    "honest_statistics",
    "mix_white_noise",
    "double_statistics",
]

PSD_TOL = 1e-10           # min eigenvalue >= -PSD_TOL for states and POVM elements
TRACE_TOL = 1e-10         # |trace - 1| of a density matrix
COMPLETENESS_TOL = 1e-10  # POVM completeness and probability sums
BLOCH_TOL = 1e-12         # Bloch weight, direction and norm checks

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (_SX, _SY, _SZ)


def require_distribution(p: np.ndarray, what: str) -> None:
    """Raise ValueError, naming `what`, unless every distribution along the
    last axis of p has entries >= -tol and sums to 1 within tol, tol the
    completeness tolerance. Non-finite entries fail."""
    p = np.asarray(p, dtype=float)
    tol = COMPLETENESS_TOL
    if not (p >= -tol).all():
        raise ValueError(f"{what} must be non-negative")
    sums = p.sum(axis=-1)
    off = ~(np.abs(sums - 1.0) <= tol)
    if off.any():
        raise ValueError(f"{what} must sum to 1 (got {np.ravel(sums)[np.argmax(off)]:.12g})")


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density matrix (hermitian, unit trace, PSD)."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.mat, dtype=complex)
        object.__setattr__(self, "mat", m)
        lam = linalg.min_eigenvalue(m)  # raises unless m is Hermitian
        if abs(np.trace(m).real - 1.0) > TRACE_TOL:
            raise ValueError("density matrix trace differs from 1")
        if lam < -PSD_TOL:
            raise ValueError("density matrix has a negative eigenvalue")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class Povm:
    """A validated POVM: hermitian PSD elements summing to the identity."""

    elements: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        elems = tuple(np.asarray(e, dtype=complex) for e in self.elements)
        object.__setattr__(self, "elements", elems)
        if not elems:
            raise ValueError("POVM needs at least one element")
        d = elems[0].shape[0]
        if any(e.shape != (d, d) for e in elems):
            raise ValueError("POVM elements must share one dimension")
        stack = np.stack(elems)
        negative = linalg.min_eigenvalue(stack) < -PSD_TOL
        if negative.any():
            raise ValueError(f"POVM element {int(np.argmax(negative))} has a negative eigenvalue")
        if np.max(np.abs(stack.sum(axis=0) - np.eye(d))) > COMPLETENESS_TOL:
            raise ValueError("POVM elements do not sum to the identity")

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class BlochPovmSpec:
    """Qubit POVM in Bloch form: element k is weights[k] * (I + m_k . sigma)."""

    weights: np.ndarray
    directions: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        m = np.asarray(self.directions, dtype=float)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "directions", m)
        if w.ndim != 1 or m.shape != (w.size, 3):
            raise ValueError("need n weights and n Bloch directions")
        if np.any(w <= 0.0):
            raise ValueError("Bloch weights must be positive")
        if abs(float(np.sum(w)) - 1.0) > BLOCH_TOL:
            raise ValueError("Bloch weights must sum to 1")
        if np.max(np.abs(w @ m)) > BLOCH_TOL:
            raise ValueError("weighted Bloch directions must sum to 0")
        if np.any(np.linalg.norm(m, axis=1) > 1.0 + BLOCH_TOL):
            raise ValueError("Bloch directions must have norm <= 1")

    @property
    def n_outcomes(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class StateEnsemble:
    """States with input probabilities; index 0 is the generation state."""

    states: tuple[DensityMatrix, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        states = tuple(self.states)
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "probs", p)
        if not states:
            raise ValueError("ensemble needs at least one state")
        d = states[0].dim
        if any(s.dim != d for s in states):
            raise ValueError("ensemble states must share one dimension")
        if p.shape != (len(states),):
            raise ValueError("need one probability per state")
        require_distribution(p, "input probabilities")

    @property
    def dim(self) -> int:
        return self.states[0].dim

    @property
    def n_states(self) -> int:
        return len(self.states)

    def with_probs(self, probs: np.ndarray) -> "StateEnsemble":
        return replace(self, probs=np.asarray(probs, dtype=float))


@dataclass(frozen=True)
class ObservedStatistics:
    """Conditional outcome table P(x|a), one row per input a.

    The input distribution p_a belongs to the source (StateEnsemble.probs).
    Each row must pass require_distribution; tiny negative floats are then
    clipped to 0 and each row is renormalized.
    """

    conditionals: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.conditionals, dtype=float)
        if c.ndim != 2:
            raise ValueError("conditionals must be a 2-d table")
        require_distribution(c, "conditional rows")
        c = np.clip(c, 0.0, None)
        c /= np.sum(c, axis=1, keepdims=True)
        object.__setattr__(self, "conditionals", c)

    @property
    def n_states(self) -> int:
        return self.conditionals.shape[0]

    @property
    def n_outcomes(self) -> int:
        return self.conditionals.shape[1]


def bloch_to_density(r: np.ndarray) -> DensityMatrix:
    """Qubit state (I + r . sigma) / 2 for a Bloch vector with |r| <= 1."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise ValueError("Bloch vector must have three components")
    if not np.isfinite(r).all():
        k = int(np.argmin(np.isfinite(r)))
        raise ValueError(f"Bloch vector component {k} is {r[k]}, not finite")
    if (norm := float(np.linalg.norm(r))) > 1.0 + BLOCH_TOL:
        raise ValueError(f"Bloch vector norm {norm:.12g} exceeds 1")
    return DensityMatrix(0.5 * _bloch_operator(r))


def _bloch_operator(r: np.ndarray) -> np.ndarray:
    """I + r . sigma."""
    return _I2 + r[0] * _SX + r[1] * _SY + r[2] * _SZ


def povm_from_bloch(spec: BlochPovmSpec) -> Povm:
    """Materialize a Bloch-form POVM as matrices."""
    return Povm(tuple(w * _bloch_operator(m) for w, m in zip(spec.weights, spec.directions)))


def extremal4() -> BlochPovmSpec:
    """Extremal four-outcome qubit POVM, unbiased on the |+> input.

    First direction along e1 with weight 1/8; the other three weights are
    7/24 with directions forming a tetrahedral arrangement.
    """
    s3 = math.sqrt(3.0)
    weights = np.array([1.0 / 8.0, 7.0 / 24.0, 7.0 / 24.0, 7.0 / 24.0])
    directions = np.array(
        [
            [1.0, 0.0, 0.0],
            [-1.0 / 7.0, 4.0 * s3 / 7.0, 0.0],
            [-1.0 / 7.0, -2.0 * s3 / 7.0, 6.0 / 7.0],
            [-1.0 / 7.0, -2.0 * s3 / 7.0, -6.0 / 7.0],
        ]
    )
    return BlochPovmSpec(weights, directions)


def extremal3() -> BlochPovmSpec:
    """Extremal trine POVM in the e2-e3 plane, unbiased on |+>."""
    s3 = math.sqrt(3.0)
    weights = np.full(3, 1.0 / 3.0)
    directions = np.array(
        [
            [0.0, 1.0, 0.0],
            [0.0, -0.5, s3 / 2.0],
            [0.0, -0.5, -s3 / 2.0],
        ]
    )
    return BlochPovmSpec(weights, directions)


# the Bloch form of every named qubit device, under the name a scenario
# file gives it
NAMED_DEVICES = {
    "sigma_z": BlochPovmSpec(np.array([0.5, 0.5]), np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])),
    "sigma_x": BlochPovmSpec(np.array([0.5, 0.5]), np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])),
    "extremal3": extremal3(),
    "extremal4": extremal4(),
}


def sigma_z_povm() -> Povm:
    """Projective measurement onto |0>, |1>."""
    return povm_from_bloch(NAMED_DEVICES["sigma_z"])


def sigma_x_povm() -> Povm:
    """Projective measurement onto |+>, |->."""
    return povm_from_bloch(NAMED_DEVICES["sigma_x"])


def check_unbiased(spec: BlochPovmSpec) -> bool:
    """All outcomes equally likely on the |+> input: w_k (1 + m_k1) = 1/n."""
    probs = spec.weights * (1.0 + spec.directions[:, 0])
    return bool(np.max(np.abs(probs - 1.0 / spec.n_outcomes)) <= 1e-10)


def extremal_diagnosis(spec: BlochPovmSpec) -> str | None:
    """None if the Bloch POVM is extremal (rank-one elements with linearly
    independent Bloch coordinates), else a short failure reason."""
    n = spec.n_outcomes
    if n > 4:
        return "more than four outcomes cannot be extremal for a qubit"
    norms = np.linalg.norm(spec.directions, axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-10:
        return "non-unit Bloch direction (element is not rank one)"
    # element k spans (w_k, w_k m_k) in the (I, sigma) basis
    coords = np.hstack([spec.weights[:, None], spec.weights[:, None] * spec.directions])
    if np.linalg.matrix_rank(coords, tol=1e-10) < n:
        if n == 4:
            return "directions are coplanar"
        return "elements are linearly dependent"
    return None


def tomographic_set() -> StateEnsemble:
    """The four-state tomographically complete set |+>, |0>, |1>, |+i>."""
    vecs = ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0])
    return StateEnsemble(tuple(bloch_to_density(v) for v in vecs), np.full(4, 0.25))


def angle_states(alpha: float) -> StateEnsemble:
    """Pair of real qubit states with overlap 1 - alpha, sent uniformly.

    The two state vectors are sqrt(1-alpha/2)|0> +- sqrt(alpha/2)|1>; at
    alpha=0 they coincide, at alpha=1 they are orthogonal.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    c = math.sqrt(1.0 - alpha / 2.0)
    s = math.sqrt(alpha / 2.0)
    phi = np.array([c, s], dtype=complex)
    psi = np.array([c, -s], dtype=complex)
    states = (DensityMatrix(np.outer(phi, phi.conj())), DensityMatrix(np.outer(psi, psi.conj())))
    return StateEnsemble(states, np.array([0.5, 0.5]))


_MAX_TENSOR_DIM = 32


def _check_copies(dim: int, copies: int) -> None:
    """Refuse a tensor power of copies factors of dimension dim above
    _MAX_TENSOR_DIM, comparing copies with the largest admissible exponent
    so that dim**copies is never formed, and any power of a 1-dimensional
    factor, whose copies would only multiply the work."""
    if copies < 1:
        raise ValueError("copies must be >= 1")
    if dim == 1:
        if copies > 1:
            raise ValueError(f"copies {copies} of dimension 1: a tensor power needs "
                             "dimension >= 2")
        return
    largest = 0  # the largest k with dim**k <= _MAX_TENSOR_DIM
    while dim ** (largest + 1) <= _MAX_TENSOR_DIM:
        largest += 1
    if copies > largest:
        raise ValueError(f"tensor product dimension {dim}^{copies} exceeds {_MAX_TENSOR_DIM}")


def tensor_ensemble(base: StateEnsemble, copies: int) -> StateEnsemble:
    """All tensor products of `copies` base states, row-major index order.

    The joint index runs over (a_1, ..., a_m) with the first factor slowest;
    probabilities multiply. Refuses products with dimension above
    _MAX_TENSOR_DIM (32), naming the dimension.
    """
    _check_copies(base.dim, copies)
    combos = list(itertools.product(range(base.n_states), repeat=copies))
    states = tuple(DensityMatrix(reduce(np.kron, [base.states[a].mat for a in c]))
                   for c in combos)
    probs = [math.prod(float(base.probs[a]) for a in c) for c in combos]
    return StateEnsemble(states, np.array(probs))


def tensor_povm(base: Povm, copies: int) -> Povm:
    """Product measurement with outcome tuples in row-major order."""
    _check_copies(base.dim, copies)
    return Povm(tuple(reduce(np.kron, [base.elements[x] for x in c])
                      for c in itertools.product(range(base.n_outcomes), repeat=copies)))


def double_ensemble(base: StateEnsemble) -> StateEnsemble:
    """Two independent copies of the ensemble (first copy slowest index)."""
    return tensor_ensemble(base, 2)


def honest_statistics(ensemble: StateEnsemble, povm: Povm) -> ObservedStatistics:
    """Born-rule table P(x|a) = tr(rho_a M_x) for an honest device."""
    if ensemble.dim != povm.dim:
        raise ValueError("ensemble and POVM dimensions differ")
    # one state at a time: the (states, outcomes, d, d) products are never held
    elements = np.stack(povm.elements)
    vals = np.stack([np.trace(s.mat @ elements, axis1=-2, axis2=-1) for s in ensemble.states])
    if np.any(np.abs(vals.imag) > 1e-12):
        raise ValueError("Born probability has an imaginary part")
    return ObservedStatistics(vals.real)


def mix_white_noise(stats: ObservedStatistics, eta: float) -> ObservedStatistics:
    """Visibility-eta mixture with the uniform distribution over outcomes."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    n_o = stats.n_outcomes
    mixed = eta * stats.conditionals + (1.0 - eta) / n_o
    return ObservedStatistics(mixed)


def double_statistics(stats: ObservedStatistics) -> ObservedStatistics:
    """Product table for two independent uses of the device.

    Index order matches double_ensemble: joint state index a1*n_s + a2 and
    joint outcome index x1*n_o + x2, first copy slowest.
    """
    c = stats.conditionals
    joint = np.einsum("ax,by->abxy", c, c).reshape(
        stats.n_states**2, stats.n_outcomes**2
    )
    return ObservedStatistics(joint)
