import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from mdirand import linalg
from mdirand.linalg import (
    ConvergenceError,
    NotHermitianError,
    eigh_hermitian,
    jacobi_eigvalsh,
    lowest_eigenvalues,
    min_eigenvalue,
    require_hermitian,
    row_space_basis,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def test_min_eigenvalue_qubit_state_spectrum():
    # oracle: eigenvalues of (I + r.sigma)/2 are (1 +- |r|)/2
    r = 0.6
    rho = 0.5 * (np.eye(2, dtype=complex) + r * SX)
    assert min_eigenvalue(rho) == pytest.approx((1 - r) / 2, abs=1e-10)
    assert min_eigenvalue(rho) == pytest.approx(0.2, abs=1e-10)


def test_min_eigenvalue_agrees_with_lapack_oracle():
    rng = np.random.default_rng(11)
    for n in (2, 3, 5, 8, 13):
        for _ in range(6):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = a + a.conj().T
            assert min_eigenvalue(h) == pytest.approx(
                float(np.linalg.eigvalsh(h)[0]), abs=1e-10
            )


def test_eigh_hermitian_matches_lapack_oracle():
    rng = np.random.default_rng(13)
    for n in (1, 2, 3, 4, 8):
        for _ in range(5):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = a + a.conj().T
            vals, vecs = eigh_hermitian(h)
            assert np.max(np.abs(vals - np.linalg.eigvalsh(h))) < 1e-12
            assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(n))) < 1e-12
            assert np.max(np.abs(vecs @ np.diag(vals) @ vecs.conj().T - h)) < 1e-12
            # a real operator, exact or with rounding noise in its imaginary
            # part, gets exactly real eigenvectors
            s = h.real
            b = rng.standard_normal((n, n))
            for real_op in (s, s + 1e-16j * (b - b.T)):
                vals, vecs = eigh_hermitian(real_op)
                assert np.all(vecs.imag == 0.0)
                assert np.max(np.abs(vals - np.linalg.eigvalsh(s))) < 1e-12
                assert np.max(np.abs(vecs @ np.diag(vals) @ vecs.conj().T - s)) < 1e-12


def test_stacked_eigh_hermitian_is_the_single_matrix_calls_byte_for_byte(monkeypatch):
    # a stack mixing complex operators and real ones, exact or with
    # rounding noise in the imaginary part: one LAPACK call for the real
    # matrices and one for the complex ones, and matrix by matrix the
    # bytes of the one-matrix calls, values and vectors
    rng = np.random.default_rng(29)
    kinds = ("complex", "real", "noisy", "complex", "real")
    mats = []
    for kind in kinds:
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = a + a.conj().T
        b = rng.standard_normal((4, 4))
        mats.append(h if kind == "complex" else h.real + 1e-16j * (kind == "noisy") * (b - b.T))
    stack = np.stack(mats)
    real_eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h.dtype) or real_eigh(h))
    vals, vecs = eigh_hermitian(stack)
    assert calls == [np.dtype(float), np.dtype(complex)]
    assert vals.shape == (5, 4) and vecs.shape == (5, 4, 4) and vecs.dtype == complex
    for kind, h, v, u in zip(kinds, stack, vals, vecs):
        one_vals, one_vecs = eigh_hermitian(h)
        assert v.tobytes() == one_vals.tobytes() and u.tobytes() == one_vecs.tobytes()
        assert (kind == "complex") != np.all(u.imag == 0.0)


def test_min_eigenvalue_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        min_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_rule_is_relative_and_takes_stacks():
    big = np.array([[1e6, 1.0], [1.0 + 1e-7, 2.0]])  # off by 1e-13 of its scale
    small = np.array([[0.5, 0.1], [0.1 + 2e-12, 0.5]])  # off by 2e-12, scale 1
    require_hermitian(big)
    with pytest.raises(NotHermitianError, match="not Hermitian"):
        require_hermitian(small)
    rng = np.random.default_rng(17)
    a = rng.standard_normal((3, 4, 5, 5)) + 1j * rng.standard_normal((3, 4, 5, 5))
    stack = a + np.swapaxes(a, -1, -2).conj()
    require_hermitian(stack)
    lam = min_eigenvalue(stack)
    assert lam.shape == (3, 4)
    assert np.array_equal(lam, np.linalg.eigvalsh(stack)[..., 0])
    stack[2, 1, 0, 1] += 1e-9  # one matrix of the stack off
    for fn in (require_hermitian, min_eigenvalue):
        with pytest.raises(NotHermitianError, match=re.escape("at (2, 1)")):
            fn(stack)
    with pytest.raises(NotHermitianError, match="expected a square matrix"):
        require_hermitian(np.zeros((2, 3)))


def test_jacobi_eigvalsh_matches_lapack_oracle():
    rng = np.random.default_rng(3)
    for n in (1, 2, 4, 7, 16, 32):
        a = rng.standard_normal((n, n))
        s = a + a.T
        got = jacobi_eigvalsh(s)
        want = np.linalg.eigvalsh(s)
        assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.linalg.norm(s))


def test_jacobi_eigvalsh_degenerate_spectrum():
    assert np.allclose(jacobi_eigvalsh(np.eye(5) * 3.0), np.full(5, 3.0))


def test_jacobi_eigvalsh_rejects_asymmetric():
    with pytest.raises(ValueError):
        jacobi_eigvalsh(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_jacobi_convergence_error_is_raisable():
    with pytest.raises(ConvergenceError):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((12, 12))
        jacobi_eigvalsh(a + a.T, max_sweeps=0)


def _dropped_coeffs(rows, kept, dropped):
    g = rows @ rows.T
    return np.linalg.solve(g[np.ix_(kept, kept)], g[np.ix_(kept, dropped)])


def test_row_space_basis_keeps_first_independent_rows():
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    kept, dropped = row_space_basis(rows @ rows.T)
    assert kept == [0, 1]
    assert dropped == [2]
    coeffs = _dropped_coeffs(rows, kept, dropped)
    assert np.allclose(coeffs[:, 0], [1.0, 1.0], atol=1e-12)


def test_row_space_basis_rank_matches_svd_oracle():
    rng = np.random.default_rng(31)
    for _ in range(20):
        m, n, r = int(rng.integers(3, 12)), int(rng.integers(3, 10)), int(rng.integers(1, 4))
        base = rng.standard_normal((r, n))
        mix = rng.standard_normal((m, r))
        rows = mix @ base
        kept, dropped = row_space_basis(rows @ rows.T)
        svd_rank = int(np.linalg.matrix_rank(rows, tol=1e-9))
        assert len(kept) == svd_rank
        assert sorted(kept + dropped) == list(range(m))
        coeffs = _dropped_coeffs(rows, kept, dropped)
        for j, i in enumerate(dropped):
            resid = np.linalg.norm(rows[i] - coeffs[:, j] @ rows[kept])
            assert resid < 1e-9 * max(1.0, np.linalg.norm(rows[i]))


def test_row_space_basis_many_rows_keeps_the_fresh_ones():
    # hundreds of rows; each dependent row mixes all rows before it, so
    # exactly the fresh random rows are kept, in order
    rng = np.random.default_rng(17)
    rows, fresh = [], []
    for i in range(700):
        if i and rng.random() < 0.3:
            rows.append(rng.standard_normal(i) @ np.array(rows) / np.sqrt(i))
        else:
            fresh.append(i)
            rows.append(rng.standard_normal(600))
    rows = np.array(rows)
    g = rows @ rows.T
    kept, dropped = row_space_basis(g)
    assert kept == fresh
    coeffs = _dropped_coeffs(rows, kept, dropped)
    resid = rows[dropped] - coeffs.T @ rows[kept]
    assert np.max(np.linalg.norm(resid, axis=1)) < 1e-9 * np.max(np.linalg.norm(rows, axis=1))


def test_row_space_basis_all_independent():
    kept, dropped = row_space_basis(np.eye(5))
    assert kept == [0, 1, 2, 3, 4]
    assert dropped == []


def test_linalg_functions_do_not_mutate_inputs():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4))
    s = a + a.T
    snap = s.copy()
    h = s + 1j * (a - a.T)
    snap_h = h.copy()
    for fn in (jacobi_eigvalsh, eigh_hermitian, min_eigenvalue):
        fn(s)
        assert np.array_equal(s, snap)
    for fn in (eigh_hermitian, min_eigenvalue):
        fn(h)
        assert np.array_equal(h, snap_h)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_non_finite_entries_fail_the_one_hermitian_rule(bad):
    # nan and inf compare False against the tolerance, so without its own
    # finiteness test the rule would pass them: numpy's eigvalsh then gives
    # min_eigenvalue([[nan, 0], [0, 1]]) == 0.0
    stack = np.stack([np.eye(3), np.eye(3)]).astype(complex)
    stack[1, 2, 0] = bad
    for h, at in ((stack, "(1, 2, 0)"), (stack[1], "(2, 0)")):
        for fn in (require_hermitian, min_eigenvalue):
            with pytest.raises(NotHermitianError, match=re.escape(f"matrix entry {at} is")):
                fn(h)
    with pytest.raises(NotHermitianError, match="not finite"):
        min_eigenvalue([[math.nan, 0.0], [0.0, 1.0]])


def test_lowest_eigenvalues_is_nan_exactly_where_an_entry_is_not_finite():
    # a stack of -0.5 I with a nan on one matrix's diagonal: numpy's batched
    # eigvalsh reads it as finite; the helper masks that matrix only
    st = np.stack([-0.5 * np.eye(3)] * 3).astype(complex)
    st[1, 1, 1] = math.nan
    st[2, 0, 2] = st[2, 2, 0] = math.inf
    lam = lowest_eigenvalues(st)
    assert lam[0] == -0.5 and np.isnan(lam[1:]).all()
    assert math.isnan(lowest_eigenvalues(st[1])) and lowest_eigenvalues(st[0]) == -0.5
    rng = np.random.default_rng(23)
    a = rng.standard_normal((4, 5, 5)) + 1j * rng.standard_normal((4, 5, 5))
    h = a + a.conj().transpose(0, 2, 1)
    assert np.array_equal(lowest_eigenvalues(h), np.linalg.eigvalsh(h)[:, 0])
    assert np.array_equal(min_eigenvalue(h), lowest_eigenvalues(h))


def test_lowest_eigenvalues_is_nan_everywhere_without_convergence(monkeypatch):
    def no_convergence(h):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    assert np.isnan(lowest_eigenvalues(np.stack([np.eye(2)] * 3))).all()


def test_eigen_solves_are_called_from_linalg_only():
    # every eigenvalue the library reads goes through linalg's one rule
    # (finite entries, nan for a masked matrix); another module calling
    # LAPACK's eigvalsh or eigh directly would split that rule again
    pkg = Path(linalg.__file__).parent
    calls = []
    for path in sorted(pkg.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("eigvalsh", "eigh"):
                calls.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                calls += [f"{path.name}:{node.lineno}" for a in node.names
                          if a.name in ("eigvalsh", "eigh")]
    assert len(list(pkg.glob("*.py"))) > 5
    assert calls == []
