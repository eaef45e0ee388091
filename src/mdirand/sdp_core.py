"""Block-diagonal SDP container and preprocessing.

Problems are stated over real symmetric block variables:

    maximize   sum_k <C_k, X_k>
    subject to sum_k <A_ik, X_k> = b_i,   X_k >= 0.

Constraints and objective are block-sparse: dict mapping block index to a
dense symmetric matrix. Complex Hermitian blocks enter through the real
embedding with every matrix divided by 2 once at assembly, so b values and
objective keep their complex-side meaning.

SdpProblem holds the one copy of the constraint map A that preprocessing,
the solver and the certificate all use, laid out per block-size group:
for the n_g blocks of size s in group g, an (n_g, r_g) array of the rows
touching each block and an (n_g, r_g, s, s) stack of their coefficient
matrices, r_g the largest row count in the group. Blocks touched by fewer
rows are padded with the dummy row index m and zero matrices, so one
batched product per group evaluates A, and one bincount over m + 1 bins
(the last one dropped) scatters it back to rows. apply_constraints and
adjoint take and return block variables in the same layout: one
(n_g, s, s) stack per group.

Every product with A goes through three methods: A(X), A*(y) and the
row-product kernel schur_matrix(X, W), S_ij = tr(A_i X A_j W). The solver
calls the kernel at its iterate (W = Z^-1) for the Schur complement;
preprocessing calls it at X = W = I, where it is the Gram matrix
<A_i, A_j> of the rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .config import DEFAULT_TOLS
from .linalg import row_space_basis

__all__ = [
    "OPTIMAL",
    "NEAR_OPTIMAL",
    "INFEASIBLE",
    "NUMERICAL_FAILURE",
    "InfeasibleProblemError",
    "SdpProblem",
    "SdpSolution",
    "IterationRecord",
    "PreprocessReport",
    "preprocess",
]

OPTIMAL = "optimal"
NEAR_OPTIMAL = "near-optimal"
INFEASIBLE = "infeasible-detected"
NUMERICAL_FAILURE = "numerical-failure"


class InfeasibleProblemError(ValueError):
    """Raised when constraints are provably inconsistent."""


BlockMap = dict[int, np.ndarray]

SCHUR_CHUNK = 2**15  # float64 elements per batched row-product temporary


def _asymmetric(stack: np.ndarray) -> bool:
    """True if some matrix m of the (n, s, s) stack has an entry of
    |m - m^T| above 1e-12 * max(1, max|m|)."""
    asym = np.max(np.abs(stack - stack.transpose(0, 2, 1)), axis=(1, 2))
    scale = np.maximum(1.0, np.max(np.abs(stack), axis=(1, 2)))
    return bool(np.any(asym > 1e-12 * scale))


@dataclass
class SdpProblem:
    """Block SDP data; the group layout of A and C is built once.

    size_groups lists the block indices of each block size, sizes in
    order of first appearance. For group g, row j of the (n_g, r_g) array
    group_rows[g] lists, in increasing order, the constraints that touch
    block size_groups[g][j], padded with the dummy index m = n_constraints,
    and group_stacks[g] is the (n_g, r_g, s, s) stack of the matching
    coefficient matrices, zero in the padding. objective_stacks[g] is the
    (n_g, s, s) stack of C. apply_constraints (A), adjoint (A*) and
    schur_matrix (the row products tr(A_i X A_j W); X = W = I gives the
    Gram matrix) are the only products with A.
    """

    block_dims: tuple[int, ...]
    objective: BlockMap
    constraints: list[BlockMap]
    b: np.ndarray
    preprocessed: bool = False
    cert_vector: np.ndarray | None = None  # w with sum_i w_i A_i = identity
    cert_b: float = float("nan")           # b . w
    size_groups: list[list[int]] = field(init=False, repr=False)
    group_rows: list[np.ndarray] = field(init=False, repr=False)
    group_stacks: list[np.ndarray] = field(init=False, repr=False)
    objective_stacks: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.b = np.asarray(self.b, dtype=float)
        if len(self.constraints) != self.b.size:
            raise ValueError("need one b value per constraint")
        for blk_map in [self.objective, *self.constraints]:
            for k, m in blk_map.items():
                s = self.block_dims[k]
                if m.shape != (s, s):
                    raise ValueError("constraint block has wrong shape")
        rows: list[list[int]] = [[] for _ in self.block_dims]
        for i, blk_map in enumerate(self.constraints):
            for k in blk_map:
                rows[k].append(i)
        by_size: dict[int, list[int]] = {}
        for k, s in enumerate(self.block_dims):
            by_size.setdefault(s, []).append(k)
        self.size_groups = list(by_size.values())
        self.group_rows, self.group_stacks = [], []
        for g in self.size_groups:
            s = self.block_dims[g[0]]
            width = max(len(rows[k]) for k in g)
            idx = np.full((len(g), width), self.n_constraints, dtype=np.intp)
            st = np.zeros((len(g), width, s, s))
            for j, k in enumerate(g):
                idx[j, :len(rows[k])] = rows[k]
                for t, i in enumerate(rows[k]):
                    st[j, t] = self.constraints[i][k]
            self.group_rows.append(idx)
            self.group_stacks.append(st)
        self.objective_stacks = self.stack_groups([
            self.objective.get(k, np.zeros((s, s))).astype(float)
            for k, s in enumerate(self.block_dims)
        ])
        # per block: whole-group temporaries would set the peak memory
        stacks = [*self.group_stacks, *(o[:, None] for o in self.objective_stacks)]
        if any(_asymmetric(st) for group in stacks for st in group):
            raise ValueError("constraint blocks must be symmetric")

    @property
    def n_constraints(self) -> int:
        return self.b.size

    @property
    def n_blocks(self) -> int:
        return len(self.block_dims)

    def stack_groups(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        """Per-block list -> one (n_g, s, s) stack per size group."""
        return [np.stack([blocks[k] for k in g]) for g in self.size_groups]

    def unstack_groups(self, stacks: list[np.ndarray]) -> list[np.ndarray]:
        """One stack per size group -> per-block list, in block order."""
        out: list[np.ndarray] = [np.empty(0)] * self.n_blocks
        for g, st in zip(self.size_groups, stacks):
            for j, k in enumerate(g):
                out[k] = st[j]
        return out

    def apply_constraints(self, xs: list[np.ndarray]) -> np.ndarray:
        """Evaluate the constraint map A(X) on group stacks."""
        idx, vals = [], []
        for rows, st, x in zip(self.group_rows, self.group_stacks, xs):
            n, r, s, _ = st.shape
            vals.append((st.reshape(n, r, s * s) @ x.reshape(n, s * s, 1)).reshape(-1))
            idx.append(rows.reshape(-1))
        m = self.n_constraints
        return np.bincount(np.concatenate(idx), np.concatenate(vals), minlength=m + 1)[:m]

    def adjoint(self, y: np.ndarray) -> list[np.ndarray]:
        """Evaluate the adjoint map A*(y) as group stacks."""
        ye = np.append(y, 0.0)
        out = []
        for rows, st in zip(self.group_rows, self.group_stacks):
            n, r, s, _ = st.shape
            out.append((ye[rows][:, None, :] @ st.reshape(n, r, s * s)).reshape(n, s, s))
        return out

    def schur_matrix(self, x: list[np.ndarray], w: list[np.ndarray]) -> np.ndarray:
        """S_ij = tr(A_i X A_j W) summed over blocks, unsymmetrized.

        Per chunk of blocks of one group, V = X P W for the stack P of the
        block's coefficient matrices and S_k = P V^T over flattened
        matrices, the block-sparse products F_k (X_k (x) W_k) F_k^T of
        Fujisawa, Kojima and Nakata (Math. Program. 79, 1997). A chunk holds
        at most SCHUR_CHUNK float64 elements per temporary: a whole group at
        once would hold n_g * r_g * s^2 and set the peak memory. One
        bincount scatters the chunk into (m + 1)^2 bins, the padding row and
        column m falling into the dropped last bin of each axis.
        """
        m = self.n_constraints
        out = np.zeros((m + 1) * (m + 1))
        for rows, st, xg, wg in zip(self.group_rows, self.group_stacks, x, w):
            n, r, s, _ = st.shape
            step = max(1, SCHUR_CHUNK // max(1, r * max(r, s * s)))
            for lo in range(0, n, step):
                sl = slice(lo, lo + step)
                pk = st[sl]
                v = (xg[sl, None] @ pk @ wg[sl, None]).reshape(len(pk), r, s * s)
                sk = pk.reshape(len(pk), r, s * s) @ v.transpose(0, 2, 1)
                flat = rows[sl, :, None] * (m + 1) + rows[sl, None, :]
                out += np.bincount(flat.reshape(-1), sk.reshape(-1), minlength=out.size)
        return out.reshape(m + 1, m + 1)[:m, :m]


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


def preprocess(p: SdpProblem) -> tuple[SdpProblem, PreprocessReport]:
    """Drop dependent constraint rows, check consistency, rescale.

    Rows are selected in order from their Gram matrix <A_i, A_j>, the
    row-product kernel at X = W = I, by row_space_basis.
    Dependent rows must be reproducible from kept rows with matching b
    (residual below the consistency tolerance), otherwise the problem is
    inconsistent and InfeasibleProblemError is raised. Kept rows are scaled
    to unit Frobenius norm; scaling never moves the optimal objective.
    Also computes the certificate vector w with A*(w) = identity when the
    identity lies in the row space (used to repair dual infeasibility).
    """
    if p.preprocessed:
        return p, PreprocessReport(p.n_constraints, list(range(p.n_constraints)), [], 0.0, 0.0)
    m = p.n_constraints
    notes: list[str] = []
    identity = p.stack_groups([np.eye(s) for s in p.block_dims])
    g = p.schur_matrix(identity, identity)
    g = 0.5 * (g + g.T)
    kept, dropped, l_kept = row_space_basis(g)
    b_kept = p.b[kept]

    max_resid = 0.0
    if dropped:
        coeffs = sla.cho_solve((l_kept, True), g[np.ix_(kept, dropped)], check_finite=False)
        resid = np.abs(p.b[dropped] - b_kept @ coeffs)
        max_resid = float(np.max(resid))
        if max_resid > DEFAULT_TOLS.consistency:
            j = int(np.argmax(resid > DEFAULT_TOLS.consistency))
            raise InfeasibleProblemError(
                f"constraint {dropped[j]} contradicts the rows it depends on "
                f"(residual {resid[j]:.3e})"
            )

    scales = np.sqrt(np.diag(g)[kept])
    new_constraints = [
        {k: mm / scale for k, mm in p.constraints[i].items()}
        for i, scale in zip(kept, scales)
    ]

    # certificate direction u with sum_i u_i A_i = identity, if attainable
    u = sla.cho_solve((l_kept, True), p.apply_constraints(identity)[kept], check_finite=False)
    u_raw = np.zeros(m)
    u_raw[kept] = u
    cert_residual = max(
        float(np.max(np.abs(a - e))) for a, e in zip(p.adjoint(u_raw), identity)
    )
    cert_vector = None
    cert_b = float("nan")
    if cert_residual < 1e-9:
        cert_vector = u * scales  # valid for the rescaled rows
        cert_b = float(b_kept @ u)
    else:
        notes.append("identity not in constraint row space; no certificate shift")

    out = SdpProblem(
        block_dims=p.block_dims,
        objective={k: mm.copy() for k, mm in p.objective.items()},
        constraints=new_constraints,
        b=b_kept / scales,
        preprocessed=True,
        cert_vector=cert_vector,
        cert_b=cert_b,
    )
    report = PreprocessReport(
        n_raw=m,
        kept_rows=kept,
        dropped_rows=dropped,
        max_consistency_residual=max_resid,
        cert_residual=cert_residual,
        notes=notes,
    )
    return out, report

