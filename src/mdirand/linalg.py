"""Dense linear-algebra kernels: Hermitian checks, eigen-solves and row selection.

Pure functions; inputs are never mutated. Matrices are numpy arrays
(complex Hermitian or real symmetric), one matrix or a (..., s, s) stack,
so a caller checks all its operators in one call. This module is the one
rule for what a Hermitian check accepts and what a smallest eigenvalue
is: m is Hermitian iff all its entries are finite and
|m - m^dag| <= 1e-12 * max(1, max|m|) entrywise (require_hermitian names
the first fault), and lowest_eigenvalues, unchecked, makes the one
batched eigvalsh call behind every smallest eigenvalue, nan for a matrix
with a non-finite entry (masked first: LAPACK's batched eigvalsh reads a
nan diagonal as finite) and everywhere when LAPACK does not converge.
min_eigenvalue is the two in turn. No other module calls LAPACK's eigen
solvers; jacobi_eigvalsh is a pure-Python reference for the tests. Blocks
are at most dim 32 for a tensor power (quantum._MAX_TENSOR_DIM); a
density-matrix source sets no cap. row_space_basis reads the m x m Gram
matrix of the constraint rows left by the copy symmetry (m at most 137
for the bundled presets, fig6-2s-m3; 361 and 843 for the two-state
product source at four and five copies, 656 and 1579 for the four-state
one) or of the states (m = n_s) and needs one m x m work array.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "NotHermitianError",
    "ConvergenceError",
    "require_hermitian",
    "jacobi_eigvalsh",
    "eigh_hermitian",
    "lowest_eigenvalues",
    "min_eigenvalue",
    "row_space_basis",
]


HERMITIAN_TOL = 1e-12  # largest |m - m^dag| entry relative to max(1, max |m|)


class NotHermitianError(ValueError):
    pass


class ConvergenceError(RuntimeError):
    pass


def _hermitian_fault(a: np.ndarray) -> str | None:
    """Why a is not a Hermitian matrix or stack of them; None if it is."""
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        return f"expected a square matrix or a stack of them, got shape {a.shape}"
    finite = np.isfinite(a)
    if not finite.all():
        at = tuple(np.argwhere(~finite)[0].tolist())
        return f"matrix entry {at} is {a[at]}, not finite"
    asym = np.abs(a - a.swapaxes(-1, -2).conj()).max(axis=(-2, -1))
    off = asym > HERMITIAN_TOL * np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
    if off.any():
        at = f" at {tuple(np.argwhere(off)[0].tolist())}" if a.ndim > 2 else ""
        return f"matrix is not Hermitian (symmetric if real) within tolerance{at}"


def require_hermitian(a: np.ndarray) -> np.ndarray:
    """a as an array; NotHermitianError, naming the first fault, unless a
    is a square matrix or a (..., s, s) stack, all finite, and every m has
    |m - m^dag| <= HERMITIAN_TOL * max(1, max|m|) entrywise."""
    a = np.asarray(a)
    if (fault := _hermitian_fault(a)) is not None:
        raise NotHermitianError(fault)
    return a


def jacobi_eigvalsh(
    a: np.ndarray,
    tol: float = 1e-12,
    max_sweeps: int = 100,
) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix by cyclic Jacobi sweeps.

    Deterministic row-cyclic pivot order; converges when the off-diagonal
    Frobenius norm drops below tol * max(1, ||a||_F). Returns eigenvalues
    sorted ascending. Nothing in the library calls it: the tests keep it as
    a reference independent of LAPACK.
    """
    m = require_hermitian(np.array(a, dtype=float, copy=True))
    if m.ndim != 2:
        raise ValueError("expected one matrix")
    n = m.shape[0]
    m = 0.5 * (m + m.T)
    if n == 1:
        return m[0, :1].copy()
    scale = max(1.0, float(np.linalg.norm(m)))
    offdiag = ~np.eye(n, dtype=bool)
    for _ in range(max_sweeps):
        off = float(np.linalg.norm(m[offdiag]))
        if off <= tol * scale:
            return np.sort(np.diag(m), kind="stable")
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = m[p, q]
                if apq == 0.0:
                    continue
                theta = (m[q, q] - m[p, p]) / (2.0 * apq)
                if theta >= 0.0:
                    t = 1.0 / (theta + math.hypot(theta, 1.0))
                else:
                    t = 1.0 / (theta - math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p = m[:, p].copy()
                col_q = m[:, q].copy()
                m[:, p] = c * col_p - s * col_q
                m[:, q] = s * col_p + c * col_q
                row_p = m[p, :].copy()
                row_q = m[q, :].copy()
                m[p, :] = c * row_p - s * row_q
                m[q, :] = s * row_p + c * row_q
                m[p, q] = 0.0
                m[q, p] = 0.0
    raise ConvergenceError("jacobi sweeps did not converge")


def eigh_hermitian(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix or (n, s, s) stack by
    LAPACK eigh, at most one call for the real matrices and one for the
    complex ones.

    Returns ascending eigenvalues and orthonormal eigenvectors as complex
    columns. If every imaginary entry of a matrix is at most
    1e-12 * max(1, ||h||_F), i.e. rounding noise on a real operator, the
    real solver runs on its real part, so its eigenvectors come out exactly
    real; the complex solver would return them with arbitrary phases.
    """
    h = require_hermitian(h)
    stack = h.reshape(-1, *h.shape[-2:])
    scale = np.maximum(1.0, np.sqrt((stack.conj() * stack).real.sum(axis=(1, 2))))
    real = np.abs(stack.imag).max(axis=(1, 2), initial=0.0) <= 1e-12 * scale
    vals, vecs = np.empty(stack.shape[:2]), np.empty(stack.shape, dtype=complex)
    for part, mats in ((real, stack.real), (~real, stack)):
        if part.any():
            vals[part], vecs[part] = np.linalg.eigh(mats[part])
    return vals.reshape(h.shape[:-1]), vecs.reshape(h.shape)


def lowest_eigenvalues(h: np.ndarray) -> float | np.ndarray:
    """Smallest eigenvalue of each matrix of a Hermitian (..., s, s) stack
    (a scalar for one matrix) from one eigvalsh call on the lower triangles.
    Unchecked: nan where an entry is not finite, everywhere on no convergence."""
    h = np.asarray(h)
    finite = None if np.isfinite(h).all() else np.isfinite(h).all(axis=(-2, -1))
    if finite is not None:  # eigvalsh would read a nan diagonal as finite
        h = np.where(finite[..., None, None], h, 0.0)
    try:
        lam = np.linalg.eigvalsh(h)[..., 0]
    except np.linalg.LinAlgError:  # no convergence
        lam = np.full(h.shape[:-2], np.nan)
    return (lam if finite is None else np.where(finite, lam, np.nan))[()]


def min_eigenvalue(h: np.ndarray) -> float | np.ndarray:
    """lowest_eigenvalues(h) after require_hermitian(h)."""
    return lowest_eigenvalues(require_hermitian(h))


def row_space_basis(gram: np.ndarray) -> tuple[list[int], list[int]]:
    """Select a maximal independent subset of rows from their Gram matrix.

    Scans the rows in order with a left-looking Cholesky of gram. Row i is
    kept iff its Schur-complement pivot (the squared norm of its residual
    after projection onto the rows kept so far) exceeds 1e-12 * gram[i, i],
    i.e. its residual norm exceeds about 1e-6 of its own norm; an exact
    dependency collapses the pivot to accumulation noise
    ~ m * eps * gram[i, i]. Returns the kept and the dropped indices. A
    dropped row i equals c @ rows[kept] with
    c = solve(gram[kept][:, kept], gram[kept, i]).
    """
    g = np.asarray(gram, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError("expected a square Gram matrix")
    m = g.shape[0]
    thresh = np.maximum(1e-12 * np.diag(g), 1e-20)
    kept: list[int] = []
    dropped: list[int] = []
    # column n: the factor column of the n-th kept row, zero above that row
    fac = np.zeros((m, m))
    for i in range(m):
        n = len(kept)
        ci = g[i:, i] - fac[i:, :n] @ fac[i, :n]
        d = float(ci[0])
        if d <= thresh[i]:
            dropped.append(i)
            continue
        fac[i:, n] = ci / np.sqrt(d)
        kept.append(i)
    return kept, dropped
