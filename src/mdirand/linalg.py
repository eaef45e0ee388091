"""Dense linear-algebra kernels: Hermitian checks, eigen-solves and row selection.

Pure functions; inputs are never mutated. Matrices are plain numpy
arrays (complex Hermitian or real symmetric). is_hermitian,
require_hermitian and min_eigenvalue take one matrix or a (..., s, s)
stack, so a caller checks all its operators in one call. The library's
one Hermitian rule is relative to each matrix's own scale: m is
Hermitian iff |m - m^dag| <= 1e-12 * max(1, max|m|) entrywise. Hermitian
blocks are at most the source's dimension: dim 32 for a tensor power
(quantum._MAX_TENSOR_DIM), while a density-matrix source sets no cap.
row_space_basis reads the m x m Gram matrix of the constraint rows (m at
most 569 for the bundled presets, 4337 for the two-state product source
at four copies) and needs one m x m work array. Every eigenvalue and
eigenvector the library uses comes from LAPACK through numpy;
jacobi_eigvalsh is a pure-Python reference that only the tests call.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "NotHermitianError",
    "ConvergenceError",
    "is_hermitian",
    "require_hermitian",
    "jacobi_eigvalsh",
    "eigh_hermitian",
    "min_eigenvalue",
    "row_space_basis",
]


HERMITIAN_TOL = 1e-12  # largest |m - m^dag| entry relative to max(1, max |m|)


class NotHermitianError(ValueError):
    pass


class ConvergenceError(RuntimeError):
    pass


def is_hermitian(a: np.ndarray) -> bool:
    """True if a is a square matrix, or a (..., s, s) stack of them, and
    every matrix m has |m - m^dag| <= HERMITIAN_TOL * max(1, max|m|)
    entrywise."""
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        return False
    asym = np.abs(a - a.swapaxes(-1, -2).conj()).max(axis=(-2, -1))
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
    return not (asym > HERMITIAN_TOL * scale).any()


def require_hermitian(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    if not is_hermitian(a):
        raise NotHermitianError("matrix is not hermitian within tolerance")
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
    m = np.array(a, dtype=float, copy=True)
    n = m.shape[0]
    if m.ndim != 2 or m.shape[1] != n:
        raise ValueError("expected a square matrix")
    if np.max(np.abs(m - m.T), initial=0.0) > 1e-10 * max(1.0, np.max(np.abs(m), initial=0.0)):
        raise ValueError("matrix is not symmetric")
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
    """Eigendecomposition of a Hermitian matrix by LAPACK eigh.

    Returns ascending eigenvalues and orthonormal eigenvectors as complex
    columns. If every imaginary entry is at most 1e-12 * max(1, ||h||_F),
    i.e. rounding noise on a real operator, the real solver runs on h.real,
    so the eigenvectors come out exactly real; the complex solver would
    return them with arbitrary phases.
    """
    h = require_hermitian(h)
    scale = max(1.0, float(np.linalg.norm(h)))
    if np.max(np.abs(np.imag(h)), initial=0.0) <= 1e-12 * scale:
        vals, vecs = np.linalg.eigh(np.real(h))
        return vals, vecs.astype(complex)
    return np.linalg.eigh(h)


def min_eigenvalue(h: np.ndarray) -> float | np.ndarray:
    """Smallest eigenvalue of a Hermitian matrix (LAPACK eigvalsh); for a
    (..., s, s) stack, the array of each matrix's smallest eigenvalue."""
    return np.linalg.eigvalsh(require_hermitian(h))[..., 0]


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
