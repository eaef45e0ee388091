"""Block-diagonal SDP container and preprocessing.

Problems are stated over real symmetric block variables:

    maximize   sum_k <C_k, X_k>
    subject to sum_k <A_ik, X_k> = b_i,   X_k >= 0.

Constraints and objective are block-sparse: dict mapping block index to a
dense symmetric matrix. Complex Hermitian blocks enter through the real
embedding with every matrix divided by 2 once at assembly, so b values and
objective keep their complex-side meaning.

SdpProblem holds the one representation of the constraint map A that
preprocessing, the solver and the certificate all use: per block, the
indices of the rows touching it and their coefficient matrices stacked.
apply_constraints and adjoint are A and A* over those stacks.
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


def _asymmetric(stack: np.ndarray) -> bool:
    """True if some matrix m of the (n, s, s) stack has an entry of
    |m - m^T| above 1e-12 * max(1, max|m|)."""
    asym = np.max(np.abs(stack - stack.transpose(0, 2, 1)), axis=(1, 2))
    scale = np.maximum(1.0, np.max(np.abs(stack), axis=(1, 2)))
    return bool(np.any(asym > 1e-12 * scale))


@dataclass
class SdpProblem:
    """Block SDP data; block_rows, block_stacks and size_groups are built once.

    block_rows[k] lists, in increasing order, the constraints that touch
    block k, and block_stacks[k] stacks their coefficient matrices into an
    (n_k, s_k, s_k) array (n_k may be 0). size_groups lists the block
    indices of each block size, sizes in order of first appearance, for
    batched linear algebra over equal-size blocks.
    """

    block_dims: tuple[int, ...]
    objective: BlockMap
    constraints: list[BlockMap]
    b: np.ndarray
    preprocessed: bool = False
    cert_vector: np.ndarray | None = None  # w with sum_i w_i A_i = identity
    cert_b: float = float("nan")           # b . w
    block_rows: list[np.ndarray] = field(init=False, repr=False)
    block_stacks: list[np.ndarray] = field(init=False, repr=False)
    size_groups: list[list[int]] = field(init=False, repr=False)

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
        self.block_rows = [np.array(r, dtype=np.intp) for r in rows]
        self.block_stacks = [
            np.stack([self.constraints[i][k] for i in r]) if r else np.zeros((0, s, s))
            for k, (r, s) in enumerate(zip(rows, self.block_dims))
        ]
        by_size: dict[int, list[int]] = {}
        for k, s in enumerate(self.block_dims):
            by_size.setdefault(s, []).append(k)
        self.size_groups = list(by_size.values())
        objective = [m[None] for m in self.objective.values()]
        if any(_asymmetric(st) for st in [*objective, *self.block_stacks]):
            raise ValueError("constraint blocks must be symmetric")

    @property
    def n_constraints(self) -> int:
        return self.b.size

    @property
    def n_blocks(self) -> int:
        return len(self.block_dims)

    def apply_constraints(self, x_blocks: list[np.ndarray]) -> np.ndarray:
        """Evaluate the constraint map A(X)."""
        out = np.zeros(self.n_constraints)
        for idx, st, x in zip(self.block_rows, self.block_stacks, x_blocks):
            out[idx] += st.reshape(len(idx), x.size) @ x.reshape(-1)
        return out

    def adjoint(self, y: np.ndarray) -> list[np.ndarray]:
        """Evaluate the adjoint map A*(y) as dense blocks."""
        return [
            (y[idx] @ st.reshape(len(idx), s * s)).reshape(s, s)
            for idx, st, s in zip(self.block_rows, self.block_stacks, self.block_dims)
        ]


@dataclass
class IterationRecord:
    """One interior-point iteration as logged by solve.

    certified_bound is an estimate, not a certificate: b.y shifted along
    the identity direction by an eigvalsh estimate of the floor of Z - Rd
    (which equals A*(y) - C up to rounding); nan when that floor is not
    finite, below -1e-4, or negative with no identity direction.
    Only SdpSolution.certified_upper_bound is recomputed from the slack
    A*(y) - C itself.
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


def _gram_matrix(p: SdpProblem) -> np.ndarray:
    g = np.zeros((p.n_constraints, p.n_constraints))
    for idx, st, s in zip(p.block_rows, p.block_stacks, p.block_dims):
        flat = st.reshape(len(idx), s * s)
        gk = flat @ flat.T
        # symmetrized per block: no m x m temporaries
        g[np.ix_(idx, idx)] += 0.5 * (gk + gk.T)
    return g


def preprocess(p: SdpProblem) -> tuple[SdpProblem, PreprocessReport]:
    """Drop dependent constraint rows, check consistency, rescale.

    Rows are selected in order from their Gram matrix by row_space_basis.
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
    g = _gram_matrix(p)
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
    identity = [np.eye(s) for s in p.block_dims]
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

