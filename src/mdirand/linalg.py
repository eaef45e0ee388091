"""Dense linear-algebra kernels for small Hermitian problems.

Pure functions; inputs are never mutated. Matrices are plain numpy arrays
(complex Hermitian or real symmetric), kept small by design (dim <= 32 on
the complex side, 64 after real embedding).
"""
from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT_TOLS

__all__ = [
    "NotHermitianError",
    "NotPositiveDefiniteError",
    "ConvergenceError",
    "kron",
    "is_hermitian",
    "require_hermitian",
    "real_embed",
    "jacobi_eigvalsh",
    "jacobi_eigh",
    "eigh_hermitian",
    "min_eigenvalue",
    "cholesky_spd",
    "row_space_basis",
]


class NotHermitianError(ValueError):
    pass


class NotPositiveDefiniteError(ValueError):
    pass


class ConvergenceError(RuntimeError):
    pass


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two operators."""
    return np.kron(np.asarray(a), np.asarray(b))


def is_hermitian(a: np.ndarray, tol: float = DEFAULT_TOLS.hermitian) -> bool:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return bool(np.max(np.abs(a - a.conj().T)) <= tol)


def require_hermitian(a: np.ndarray, tol: float = DEFAULT_TOLS.hermitian) -> np.ndarray:
    a = np.asarray(a)
    if not is_hermitian(a, tol):
        raise NotHermitianError("matrix is not hermitian within tolerance")
    return a


def real_embed(h: np.ndarray) -> np.ndarray:
    """Real embedding [[A, -B], [B, A]] of h = A + iB.

    For Hermitian h the embedding is real symmetric, positive semidefinite
    iff h is, carries each eigenvalue of h twice, and satisfies
    trace(real_embed(x) @ real_embed(y)) = 2 * Re trace(x @ y).
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("expected a square matrix")
    a = np.real(h).astype(float)
    b = np.imag(h).astype(float)
    return np.block([[a, -b], [b, a]])


def _jacobi_core(
    a: np.ndarray,
    tol: float,
    max_sweeps: int,
    want_vectors: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    m = np.array(a, dtype=float, copy=True)
    n = m.shape[0]
    if m.ndim != 2 or m.shape[1] != n:
        raise ValueError("expected a square matrix")
    if np.max(np.abs(m - m.T), initial=0.0) > 1e-10 * max(1.0, np.max(np.abs(m), initial=0.0)):
        raise ValueError("matrix is not symmetric")
    m = 0.5 * (m + m.T)
    vecs = np.eye(n) if want_vectors else None
    if n == 1:
        return m[0, :1].copy(), vecs
    scale = max(1.0, float(np.linalg.norm(m)))
    offdiag = ~np.eye(n, dtype=bool)
    for _ in range(max_sweeps):
        off = float(np.linalg.norm(m[offdiag]))
        if off <= tol * scale:
            order = np.argsort(np.diag(m), kind="stable")
            vals = np.diag(m)[order]
            return vals, (vecs[:, order] if vecs is not None else None)
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
                if vecs is not None:
                    v_p = vecs[:, p].copy()
                    v_q = vecs[:, q].copy()
                    vecs[:, p] = c * v_p - s * v_q
                    vecs[:, q] = s * v_p + c * v_q
    raise ConvergenceError("jacobi sweeps did not converge")


def jacobi_eigvalsh(
    a: np.ndarray,
    tol: float = DEFAULT_TOLS.jacobi_off,
    max_sweeps: int = 100,
) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix by cyclic Jacobi sweeps.

    Deterministic row-cyclic pivot order; converges when the off-diagonal
    Frobenius norm drops below tol * max(1, ||a||_F). Returns eigenvalues
    sorted ascending.
    """
    vals, _ = _jacobi_core(a, tol, max_sweeps, want_vectors=False)
    return vals


def jacobi_eigh(
    a: np.ndarray,
    tol: float = DEFAULT_TOLS.jacobi_off,
    max_sweeps: int = 100,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a real symmetric matrix.

    Same cyclic Jacobi iteration as jacobi_eigvalsh with the rotations
    accumulated; column k of the returned matrix belongs to eigenvalue k,
    ascending. The vectors are orthonormal by construction.
    """
    vals, vecs = _jacobi_core(a, tol, max_sweeps, want_vectors=True)
    assert vecs is not None
    return vals, vecs


def eigh_hermitian(
    h: np.ndarray,
    tol: float = DEFAULT_TOLS.jacobi_off,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a complex Hermitian matrix.

    Runs Jacobi on the real embedding, where every eigenvalue appears twice
    (an eigenvector u and its phase partner i*u embed to orthogonal real
    vectors). The duplicates are collapsed by a greedy complex
    Gram-Schmidt pass over the embedded eigenvectors in ascending order.
    """
    h = require_hermitian(h)
    if not np.iscomplexobj(h) or np.max(np.abs(np.imag(h))) == 0.0:
        vals, vecs = jacobi_eigh(np.real(h).astype(float), tol=tol)
        return vals, vecs.astype(complex)
    d = h.shape[0]
    vals2, vecs2 = jacobi_eigh(real_embed(h), tol=tol)
    kept_vals: list[float] = []
    kept_vecs: list[np.ndarray] = []
    for j in range(2 * d):
        u = vecs2[:d, j] + 1j * vecs2[d:, j]
        for w in kept_vecs:
            u = u - np.vdot(w, u) * w
        nrm = float(np.linalg.norm(u))
        if nrm > 0.5:
            kept_vals.append(float(vals2[j]))
            kept_vecs.append(u / nrm)
    if len(kept_vals) != d:
        raise ConvergenceError("embedded eigenvector pairing failed")
    return np.array(kept_vals), np.column_stack(kept_vecs)


def min_eigenvalue(h: np.ndarray, tol: float = DEFAULT_TOLS.hermitian) -> float:
    """Smallest eigenvalue of a Hermitian matrix.

    Complex input is reduced to the real symmetric embedding first (the
    embedding doubles multiplicities, leaving the minimum unchanged).
    """
    h = require_hermitian(h, tol)
    if np.iscomplexobj(h) and np.max(np.abs(np.imag(h))) > 0.0:
        m = real_embed(h)
    else:
        m = np.real(h).astype(float)
    return float(jacobi_eigvalsh(m)[0])


def cholesky_spd(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    try:
        return np.linalg.cholesky(0.5 * (m + m.T))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("not positive definite") from exc


def row_space_basis(gram: np.ndarray) -> tuple[list[int], list[int], np.ndarray]:
    """Select a maximal independent subset of rows from their Gram matrix.

    Scans the rows in order with a left-looking panel Cholesky of gram.
    Row i is kept iff its Schur-complement pivot (the squared norm of its
    residual after projection onto the rows kept so far) exceeds
    1e-12 * gram[i, i], i.e. its residual norm exceeds about 1e-6 of its
    own norm; an exact dependency collapses the pivot to accumulation
    noise ~ m * eps * gram[i, i]. Returns the kept indices, the dropped
    indices and the lower Cholesky factor l_kept of gram[kept][:, kept].
    A dropped row i equals c @ rows[kept] with
    c = cho_solve((l_kept, True), gram[kept, i]).
    """
    g = np.asarray(gram, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError("expected a square Gram matrix")
    m = g.shape[0]
    thresh = np.maximum(1e-12 * np.diag(g), 1e-20)
    kept: list[int] = []
    dropped: list[int] = []
    # per panel: its first row and the factor columns of its kept rows, from
    # that row down (the rows above are zero), so no m x m factor is stored
    panels: list[tuple[int, np.ndarray]] = []
    panel = 256
    for start in range(0, m, panel):
        stop = min(m, start + panel)
        cols = g[start:, start:stop].copy()
        for first, blk in panels:
            cols -= blk[start - first:] @ blk[start - first:stop - first].T
        cur = np.zeros((m - start, stop - start))
        n = 0
        for i in range(start, stop):
            r = i - start
            ci = cols[:, r]
            if n:
                ci = ci - cur[:, :n] @ cur[r, :n]
            d = float(ci[r])
            if d <= thresh[i]:
                dropped.append(i)
                continue
            cur[r:, n] = ci[r:] / np.sqrt(d)
            kept.append(i)
            n += 1
        panels.append((start, cur[:, :n]))
    rows = np.array(kept, dtype=np.intp)
    l_kept = np.zeros((len(kept), len(kept)))
    col = 0
    for first, blk in panels:
        below = rows >= first
        l_kept[below, col:col + blk.shape[1]] = blk[rows[below] - first]
        col += blk.shape[1]
    return kept, dropped, l_kept
