"""Block-diagonal SDP container and preprocessing.

Problems are stated over complex Hermitian block variables:

    maximize   sum_k <C_k, X_k>
    subject to sum_k <A_ik, X_k> = b_i,   X_k >= 0,

with the real inner product <A, X> = Re tr(AX). For Hermitian A and X
that is the dot product of the arrays' real coordinates, A.view(float)
and X.view(float), the one way every product with A below is formed. A
real symmetric problem is the special case with zero imaginary parts.

SdpProblem holds the one copy of the constraint map A and of C that
preprocessing, the solver and the certificate all use, laid out per
block-size group: for the n_g blocks of size s in group g, an (n_g, r_g)
array of the rows touching each block and an (n_g, r_g, s, s) complex
stack of their coefficient matrices, r_g the largest row count in the
group. Blocks touched by fewer rows are padded with the dummy row index m
and zero matrices, so one batched product per group evaluates A, and one
bincount over m + 1 bins (the last one dropped) scatters it back to rows.
apply_constraints and adjoint take and return block variables in the same
layout: one (n_g, s, s) complex stack per group. SdpProblem.from_blocks
packs per-block row lists and coefficient stacks into this layout;
preprocess renumbers the rows of the stacks.

Every product with A goes through three methods: A(X), A*(y) and the
row-product kernel schur_matrix(X, W), S_ij = Re tr(A_i X A_j W). The
solver calls the kernel at its iterate (W = Z^-1) for the Schur
complement; preprocessing calls it at X = W = I, where it is the Gram
matrix <A_i, A_j> of the rows.

Both matrices are arrows (Kobayashi, Kim and Kojima, Appl. Math. Optim.
58, 2008, in its simplest form): from_blocks takes groups of rows that
share no block, so the row products between two groups vanish, and
SdpProblem.arrow is their ArrowPlan. Both callers solve with the matrix
by block elimination over the groups (ArrowPlan.factor, then
ArrowFactor.solve): batched LU solves with the groups' diagonal blocks and
one LU solve with the border's Schur complement. A problem with no groups,
or fewer than ARROW_MIN_ROWS kept rows, is all border: one dense LU solve.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .linalg import require_hermitian, row_space_basis

__all__ = [
    "OPTIMAL",
    "NEAR_OPTIMAL",
    "INFEASIBLE",
    "NUMERICAL_FAILURE",
    "InfeasibleProblemError",
    "ArrowPlan",
    "ArrowFactor",
    "SdpProblem",
    "SdpSolution",
    "IterationRecord",
    "PreprocessReport",
    "RowMap",
    "preprocess",
    "apply_rhs",
]

OPTIMAL = "optimal"
NEAR_OPTIMAL = "near-optimal"
INFEASIBLE = "infeasible-detected"
NUMERICAL_FAILURE = "numerical-failure"


class InfeasibleProblemError(ValueError):
    """Raised when constraints are provably inconsistent."""


SCHUR_CHUNK = 2**15  # float64 elements of the real view per row-product temporary
CONSISTENCY_TOL = 1e-8  # largest |b_dropped - reconstruction| preprocess accepts
# kept rows from which preprocess keeps the arrow's diagonal blocks; a
# smaller system is one border, solved by one dense LU, which then costs
# less than the elimination's extra numpy calls: one factor and two solves
# took 59 to 149 us by elimination against 12 to 67 us all-border on the
# presets of 3 to 60 kept rows, and 250 against 253 us on fig6-2s-m3's 133
# (one BLAS thread, 2-vCPU machine, numpy 2.4)
ARROW_MIN_ROWS = 100


@dataclass(frozen=True)
class ArrowPlan:
    """The rows of the diagonal blocks and of the border of an arrow matrix.

    A symmetric m x m matrix is an arrow over this plan when its entries
    between the rows of two different diagonal blocks vanish. blocks holds
    one (n_k, k) array per block size k, sizes in order of first
    appearance, whose rows list the rows of its n_k diagonal blocks; border
    lists, in increasing order, every row of no block. With no blocks the
    border is every row and factor is one dense LU solve.
    """

    blocks: tuple[np.ndarray, ...]
    border: np.ndarray

    @classmethod
    def from_groups(cls, groups: Sequence[np.ndarray], m: int) -> ArrowPlan:
        """Plan for m rows whose diagonal blocks are the row groups."""
        by_size: dict[int, list[np.ndarray]] = {}
        for rows in groups:
            if len(rows):
                by_size.setdefault(len(rows), []).append(np.asarray(rows, dtype=np.intp))
        blocks = tuple(np.stack(gs) for gs in by_size.values())
        in_block = np.zeros(m, dtype=bool)
        for rows in blocks:
            in_block[rows] = True
        return cls(blocks, np.flatnonzero(~in_block))

    def renumber(self, new_index: np.ndarray, m: int) -> ArrowPlan:
        """The plan after rows i become new_index[i], those mapped to m or
        beyond being dropped."""
        return ArrowPlan.from_groups(
            [r[r < m] for rows in self.blocks for r in new_index[rows]], m
        )

    def factor(self, s: np.ndarray) -> ArrowFactor:
        """Block elimination of the arrow s: with D the diagonal blocks, B
        their rows against the border and E the border's own block,
        W = D^-1 B by one batched LU solve per block size and the border
        system C = E - B^T W; with no blocks C is s itself, not a copy.
        Raises LinAlgError when LU finds a D_e or C exactly singular."""
        if not self.blocks:
            return ArrowFactor(self, [], [], [], s)
        bd = self.border
        to_border = s[:, bd]  # every row against the border rows
        c = to_border[bd]
        d, b, w = [], [], []
        for rows in self.blocks:
            d.append(s[rows[:, :, None], rows[:, None, :]])
            b.append(to_border[rows])
            w.append(np.linalg.solve(d[-1], b[-1]))
            c -= b[-1].reshape(-1, bd.size).T @ w[-1].reshape(-1, bd.size)
        return ArrowFactor(self, d, b, w, c)


@dataclass
class ArrowFactor:
    """An arrow matrix factored by ArrowPlan.factor: per block size its
    diagonal blocks d, their border rows b and w = d^-1 b, and the border
    system c."""

    plan: ArrowPlan
    d: list[np.ndarray]
    b: list[np.ndarray]
    w: list[np.ndarray]
    c: np.ndarray

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The solution of S y = rhs for a vector or an (m, p) matrix rhs:
        y_b = C^-1 (r_b - W^T r_g) on the border, then
        y_g = D^-1 (r_g - B y_b) on the blocks, every product with D^-1 and
        C^-1 an LU solve. Raises LinAlgError as factor does."""
        r = rhs.reshape(rhs.shape[0], -1)
        if not self.plan.blocks:  # all border: one LU solve with S
            return np.linalg.solve(self.c, r).reshape(rhs.shape)
        bd = self.plan.border
        y = np.empty_like(r)
        rb = r[bd]
        for rows, wk in zip(self.plan.blocks, self.w):
            rb -= wk.reshape(-1, bd.size).T @ r[rows].reshape(-1, r.shape[1])
        y[bd] = yb = np.linalg.solve(self.c, rb)
        for rows, dk, bk in zip(self.plan.blocks, self.d, self.b):
            y[rows] = np.linalg.solve(dk, r[rows] - bk @ yb)
        return y.reshape(rhs.shape)


@dataclass
class SdpProblem:
    """Block SDP data: A and C stored once, as one stack per size group.

    size_groups lists the block indices of each block size, sizes in
    order of first appearance. For group g, row j of the (n_g, r_g) array
    group_rows[g] lists, in increasing order, the constraints that touch
    block size_groups[g][j], padded with the dummy index m = n_constraints,
    and group_stacks[g] is the (n_g, r_g, s, s) stack of the matching
    coefficient matrices, zero in the padding. preprocess makes dropped
    rows dummy slots, mid-block and with nonzero coefficients, which no
    product with A reads. objective_stacks[g] is the
    (n_g, s, s) stack of C. Every stack is complex128, every matrix
    Hermitian. from_blocks packs per-block data into this layout and is
    the only packer. apply_constraints (A), adjoint (A*) and
    schur_matrix (the row products Re tr(A_i X A_j W); X = W = I gives
    the Gram matrix) are the only products with A. arrow is the plan of
    the row groups given to from_blocks, no block touched by two of them:
    the row products of two groups' rows vanish, so the Schur and Gram
    matrices are arrows over it, and its factor is how both are solved.
    group_weights[g] holds the multiplicity w_k of each block of group g
    (from_blocks' weights, default one): the solver's barrier weighs
    block k by w_k, as when block k stands for the sum over w_k
    symmetric copies of itself.
    """

    block_dims: tuple[int, ...]
    b: np.ndarray
    size_groups: list[list[int]] = field(repr=False)
    group_rows: list[np.ndarray] = field(repr=False)
    group_stacks: list[np.ndarray] = field(repr=False)
    objective_stacks: list[np.ndarray] = field(repr=False)
    arrow: ArrowPlan = field(repr=False)
    group_weights: list[np.ndarray] = field(repr=False)
    cert_vector: np.ndarray | None = None  # w with sum_i w_i A_i = identity
    cert_b: float = float("nan")           # b . w
    row_map: RowMap | None = field(default=None, repr=False)  # set by preprocess

    @classmethod
    def from_blocks(cls, block_dims: Sequence[int], b: np.ndarray, rows: list[np.ndarray],
                    coeffs: list[np.ndarray], objective: list[np.ndarray | None],
                    groups: Sequence[np.ndarray] = (),
                    weights: Sequence[float] | None = None) -> SdpProblem:
        """Pack per-block data: for block k, rows[k] lists in increasing
        order the constraints touching it, coeffs[k] is the
        (len(rows[k]), s, s) stack of their coefficient matrices and
        objective[k] is C_k, or None for zero. b and every matrix must be
        finite, every matrix Hermitian; blocks may share one coefficient
        stack, which is then checked once, and the objective matrices are
        checked as one stack per size group. groups are
        disjoint sets of rows, the diagonal blocks of the arrow plan; a
        block touched by the rows of two groups raises ValueError. weights
        are the blocks' multiplicities w_k, ones by default (see
        group_weights)."""
        block_dims = tuple(block_dims)
        b = np.asarray(b, dtype=float)
        if not np.all(np.isfinite(b)):
            raise ValueError("b must be finite")
        by_size: dict[int, list[int]] = {}
        for k, s in enumerate(block_dims):
            by_size.setdefault(s, []).append(k)
            c = objective[k]
            if np.shape(coeffs[k]) != (len(rows[k]), s, s) or (
                c is not None and np.shape(c) != (s, s)
            ):
                raise ValueError("constraint block has wrong shape")
        for a in {id(a): a for a in coeffs}.values():
            require_hermitian(a)  # names a non-finite entry or a non-Hermitian matrix
        size_groups = list(by_size.values())
        groups = [np.asarray(r, dtype=np.intp) for r in groups]
        grouped = np.concatenate([np.zeros(0, dtype=np.intp), *groups])
        if np.any((grouped < 0) | (grouped >= b.size)) or np.any(np.bincount(grouped) > 1):
            raise ValueError("row groups must be disjoint sets of rows")
        label = np.full(b.size + 1, -1)  # the group of each row, -1 for none
        for g, r in enumerate(groups):
            label[r] = g
        group_rows, group_stacks, objective_stacks = [], [], []
        for g in size_groups:
            s = block_dims[g[0]]
            width = max(len(rows[k]) for k in g)
            idx = np.full((len(g), width), b.size, dtype=np.intp)
            st = np.zeros((len(g), width, s, s), dtype=complex)
            obj = np.zeros((len(g), s, s), dtype=complex)
            for j, k in enumerate(g):
                idx[j, :len(rows[k])] = rows[k]
                st[j, :len(rows[k])] = coeffs[k]
                if objective[k] is not None:
                    obj[j] = objective[k]
            touching = label[idx]
            if np.any((touching != -1) & (touching != touching.max(axis=1, keepdims=True))):
                raise ValueError("a block is touched by the rows of two row groups")
            group_rows.append(idx)
            group_stacks.append(st)
            objective_stacks.append(require_hermitian(obj))
        arrow = ArrowPlan.from_groups(groups, b.size)
        w = np.ones(len(block_dims)) if weights is None else np.asarray(weights, dtype=float)
        if w.shape != (len(block_dims),) or not np.all(w > 0.0):
            raise ValueError("need one positive weight per block")
        return cls(block_dims, b, size_groups, group_rows, group_stacks, objective_stacks, arrow,
                   [w[g] for g in size_groups])

    # whether preprocess made this problem: it then has its row map
    preprocessed = property(lambda self: self.row_map is not None)

    @property
    def n_constraints(self) -> int:
        return self.b.size

    @property
    def n_blocks(self) -> int:
        return len(self.block_dims)

    def unstack_groups(self, stacks: list[np.ndarray]) -> list[np.ndarray]:
        """One stack per size group -> per-block list, in block order."""
        out: list[np.ndarray] = [np.empty(0)] * self.n_blocks
        for g, st in zip(self.size_groups, stacks):
            for j, k in enumerate(g):
                out[k] = st[j]
        return out

    @cached_property
    def _flat_rows(self) -> np.ndarray:
        """The group rows, flattened and concatenated, as apply_constraints
        scatters by them."""
        return np.concatenate([rows.reshape(-1) for rows in self.group_rows])

    def apply_constraints(self, xs: list[np.ndarray]) -> np.ndarray:
        """Evaluate the constraint map A(X) on group stacks."""
        vals = []
        for st, x in zip(self.group_stacks, xs):
            n, r, s, _ = st.shape
            ax = st.view(float).reshape(n, r, 2 * s * s) @ x.view(float).reshape(n, 2 * s * s, 1)
            vals.append(ax.reshape(-1))
        m = self.n_constraints
        return np.bincount(self._flat_rows, np.concatenate(vals), minlength=m + 1)[:m]

    def adjoint(self, y: np.ndarray) -> list[np.ndarray]:
        """Evaluate the adjoint map A*(y) as group stacks."""
        ye = np.concatenate((y, [0.0]))  # the dummy row m reads 0
        out = []
        for rows, st in zip(self.group_rows, self.group_stacks):
            n, r, s, _ = st.shape
            ay = ye[rows][:, None, :] @ st.view(float).reshape(n, r, 2 * s * s)
            out.append(ay.view(complex).reshape(n, s, s))
        return out

    def schur_matrix(self, x: list[np.ndarray], w: list[np.ndarray]) -> np.ndarray:
        """S_ij = Re tr(A_i X A_j W) summed over blocks, returned as the
        symmetric 0.5 (S + S^T): exact, as Re tr(A_i X A_j W) =
        Re tr(A_j X A_i W) for Hermitian A, X and W.

        Per chunk of blocks of one group, V_j = X P_j W for the stack P of
        the block's coefficient matrices, formed as two products per block
        over its s x (r_g s) panel [P_1 ... P_r]: one by X from the left,
        one by W from the right once the panel is regrouped as a column.
        S_k is then P V^T over the real views of the flattened matrices,
        the block-sparse products F_k (X_k (x) W_k) F_k^T of Fujisawa,
        Kojima and Nakata (Math. Program. 79, 1997). A chunk holds at most
        SCHUR_CHUNK float64 elements per temporary, 2 s^2 per complex
        matrix: a whole group at once would hold n_g * r_g * s^2 complex
        entries and set the peak memory. np.add.at scatters the chunk's own
        r_g^2 entries per block, as flat 1-D index and value arrays (its
        fast path), into the flattened (m + 1)^2 accumulator, the dummy
        row and column m falling into its dropped last row and column.
        """
        m = self.n_constraints
        out = np.zeros((m + 1) * (m + 1))
        for rows, st, xg, wg in zip(self.group_rows, self.group_stacks, x, w):
            n, r, s, _ = st.shape
            step = max(1, SCHUR_CHUNK // max(1, r * max(r, 2 * s * s)))
            for lo in range(0, n, step):
                sl = slice(lo, lo + step)
                pk = st[sl]
                nk = len(pk)
                v = xg[sl] @ pk.transpose(0, 2, 1, 3).reshape(nk, s, r * s)
                v = v.reshape(nk, s, r, s).transpose(0, 2, 1, 3).reshape(nk, r * s, s) @ wg[sl]
                sk = (pk.view(float).reshape(nk, r, 2 * s * s)
                      @ v.view(float).reshape(nk, r, 2 * s * s).transpose(0, 2, 1))
                flat = rows[sl, :, None] * (m + 1) + rows[sl, None, :]
                np.add.at(out, flat.reshape(-1), sk.reshape(-1))
        out = out.reshape(m + 1, m + 1)[:m, :m]
        return 0.5 * (out + out.T)


@dataclass
class IterationRecord:
    """One interior-point iteration as logged by solve.

    certified_bound is the certificate of this iterate's y: b.y shifted
    along the identity direction by the negative part of the smallest
    eigenvalue of the recomputed slack A*(y) - C; nan when that eigenvalue
    is not finite, below -1e-4, or negative with no identity direction.
    SdpSolution.certified_upper_bound is the smallest of them.
    """

    iteration: int
    mu: float
    primal_objective: float
    dual_objective: float
    complementarity: float
    rel_gap: float
    primal_residual: float
    dual_residual: float
    step_primal: float
    step_dual: float
    x_norm: float
    y_norm: float
    certified_bound: float = math.nan


@dataclass
class SdpSolution:
    """x_blocks and slack_blocks: one complex Hermitian matrix per block."""

    status: str
    x_blocks: list[np.ndarray]
    y: np.ndarray
    slack_blocks: list[np.ndarray]
    primal_objective: float
    dual_objective: float
    certified_upper_bound: float
    dual_min_eigenvalue: float
    primal_residual: float
    dual_residual: float
    duality_gap: float
    iterations: list[IterationRecord] = field(default_factory=list)

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)


@dataclass
class PreprocessReport:
    n_raw: int
    kept_rows: list[int]
    dropped_rows: list[int]
    max_consistency_residual: float
    cert_residual: float
    notes: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class RowMap:
    """What preprocess derives from A alone, for apply_rhs to apply to a b
    of n_raw raw rows: the kept and the dropped raw rows, each kept row's
    Frobenius norm, each dropped row in terms of the kept ones (column j:
    dropped[j] = dependence[:, j] @ kept rows) and the identity direction u
    over the unscaled kept rows (sum_i u_i A_i = identity; None when the
    identity is not in the row space)."""

    n_raw: int
    kept: np.ndarray
    dropped: np.ndarray
    scales: np.ndarray
    dependence: np.ndarray
    cert_u: np.ndarray | None
    cert_residual: float
    notes: tuple[str, ...]


def preprocess(p: SdpProblem) -> tuple[SdpProblem, PreprocessReport]:
    """Drop dependent constraint rows, check consistency, rescale.

    Rows are selected in order from their Gram matrix <A_i, A_j>, the
    row-product kernel at X = W = I, by row_space_basis. The coefficients
    of the dropped rows and the identity direction come from one solve
    with the kept rows' Gram block, positive definite by the selection and
    an arrow over the row groups in kept numbering, factored by block
    elimination (ArrowPlan.factor) as the solver factors its Schur matrix.
    Kept rows are scaled to unit Frobenius norm; scaling never moves the
    optimal objective. The result keeps p's layout and objective stacks
    and renumbers each row where it sits: kept rows become 0..k-1 in
    order, dropped rows dummy slots k that A, A* and the row-product
    kernel ignore. The arrow plan is renumbered alike, its blocks kept
    from ARROW_MIN_ROWS kept rows on. Also computes the certificate vector
    w with A*(w) = identity when the identity lies in the row space (used
    to repair dual infeasibility). None of this reads b: it is kept as the
    result's row_map, and p.b goes in last, through apply_rhs, which
    checks that every dependent row is reproduced by the kept rows.
    """
    if p.preprocessed:
        return p, PreprocessReport(p.n_constraints, list(range(p.n_constraints)), [], 0.0, 0.0)
    m = p.n_constraints
    notes: list[str] = []
    identity = [np.tile(np.eye(s.shape[-1], dtype=complex), (len(s), 1, 1)) for s in p.group_stacks]
    g = p.schur_matrix(identity, identity)
    kept, dropped = (np.array(r, dtype=np.intp) for r in row_space_basis(g))
    scales = np.sqrt(np.diag(g)[kept])
    k = len(kept)
    new_index = np.full(m + 1, k, dtype=np.intp)  # dropped rows -> dummy k
    new_index[kept] = np.arange(k)
    arrow = p.arrow.renumber(new_index, k) if k >= ARROW_MIN_ROWS else ArrowPlan.from_groups((), k)
    # one solve with the kept Gram block: the certificate direction u with
    # sum_i u_i A_i = identity, if attainable, and each dropped row in
    # terms of the kept ones
    rhs = np.column_stack([p.apply_constraints(identity)[kept], g[np.ix_(kept, dropped)]])
    sol = arrow.factor(g[np.ix_(kept, kept)]).solve(rhs)
    del g, rhs  # the m x m arrays go before the rescaled stacks exist
    u, coeffs = sol[:, 0], sol[:, 1:]

    u_raw = np.zeros(m)
    u_raw[kept] = u
    cert_residual = max(
        float(np.max(np.abs(a - e))) for a, e in zip(p.adjoint(u_raw), identity)
    )
    cert_vector = None
    if cert_residual < 1e-9:
        cert_vector = u * scales  # valid for the rescaled rows
    else:
        notes.append("identity not in constraint row space; no certificate shift")

    scale = np.append(scales, 1.0)
    group_rows = [new_index[rows] for rows in p.group_rows]
    group_stacks = [st / scale[rows][:, :, None, None]
                    for rows, st in zip(group_rows, p.group_stacks)]
    row_map = RowMap(m, kept, dropped, scales, coeffs, None if cert_vector is None else u,
                     cert_residual, tuple(notes))
    out = replace(p, group_rows=group_rows, group_stacks=group_stacks, arrow=arrow,
                  cert_vector=cert_vector, row_map=row_map)
    return apply_rhs(out, p.b)


def apply_rhs(p: SdpProblem, b: np.ndarray) -> tuple[SdpProblem, PreprocessReport]:
    """The preprocessed problem p with the raw right-hand side b, and its
    report: b on the kept rows, rescaled, and cert_b = b_kept . u, from
    p.row_map. Every dropped row's b must be reproduced by the kept rows
    it depends on within CONSISTENCY_TOL, otherwise the problem is
    inconsistent and InfeasibleProblemError is raised. The result shares
    p's stacks; preprocess ends here, and a problem whose A is unchanged
    takes a new b here alone."""
    rm = p.row_map
    b = np.asarray(b, dtype=float)
    if b.shape != (rm.n_raw,):
        raise ValueError(f"b has shape {b.shape}, not the {rm.n_raw} raw rows of the row map")
    if not np.all(np.isfinite(b)):
        raise ValueError("b must be finite")
    b_kept = b[rm.kept]
    resid = np.abs(b[rm.dropped] - b_kept @ rm.dependence)
    max_resid = float(np.max(resid, initial=0.0))
    if max_resid > CONSISTENCY_TOL:
        j = int(np.argmax(resid > CONSISTENCY_TOL))
        raise InfeasibleProblemError(
            f"constraint {rm.dropped[j]} contradicts the rows it depends on "
            f"(residual {resid[j]:.3e})"
        )
    cert_b = float("nan") if rm.cert_u is None else float(b_kept @ rm.cert_u)
    out = replace(p, b=b_kept / rm.scales, cert_b=cert_b)
    report = PreprocessReport(
        n_raw=rm.n_raw,
        kept_rows=rm.kept.tolist(),
        dropped_rows=rm.dropped.tolist(),
        max_consistency_residual=max_resid,
        cert_residual=rm.cert_residual,
        notes=list(rm.notes),
    )
    return out, report
