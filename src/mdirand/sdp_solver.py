"""Primal-dual interior-point solver for small block-diagonal SDPs.

Infeasible-start path following with Mehrotra predictor-corrector steps in
the HKM scaling. The Schur complement system is formed densely per
iteration and factored by Cholesky; step lengths use fraction-to-boundary
0.98 with bisection on Cholesky feasibility probes. Deterministic: fixed
initialization, fixed reduction order, no randomization anywhere.

The dual value b.y of any y whose slack A*(y) - C is PSD upper-bounds the
primal optimum. When the final slack has a small negative eigenvalue -eps,
adding eps times the certificate direction (multipliers that reproduce the
identity on every block) restores dual feasibility, so
b.y + eps * (b . w_identity) is still a hard upper bound. That shifted
value is what certified_upper_bound reports.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .config import DEFAULT_TOLS
from .linalg import jacobi_eigvalsh
from .sdp_core import (
    INFEASIBLE,
    NEAR_OPTIMAL,
    NUMERICAL_FAILURE,
    OPTIMAL,
    IterationRecord,
    SdpProblem,
    SdpSolution,
)

__all__ = [
    "SolverOptions",
    "SolverError",
    "CertificationError",
    "solve",
    "certify_upper_bound",
]


class SolverError(RuntimeError):
    pass


class CertificationError(SolverError):
    pass


@dataclass(frozen=True)
class SolverOptions:
    gap_tol: float = 1e-8
    feas_tol: float = 1e-8
    max_iter: int = 200
    step_fraction: float = 0.98
    relax: float = 0.0          # half-width of the statistics band, 0 = exact
    max_block_dim: int = 1024
    max_constraints: int = 5000
    verbose: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.step_fraction < 1.0:
            raise ValueError("step_fraction must lie in (0, 1)")
        if self.gap_tol <= 0 or self.feas_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.relax < 0:
            raise ValueError("relax must be non-negative")


class _Structure:
    """Static per-block constraint stacks for fast operator evaluation."""

    def __init__(self, p: SdpProblem) -> None:
        self.dims = p.block_dims
        self.n_blocks = len(p.block_dims)
        self.rows: list[np.ndarray] = []
        self.stacks: list[np.ndarray] = []
        self.flats: list[np.ndarray] = []
        touching: dict[int, list[int]] = {k: [] for k in range(self.n_blocks)}
        for i, blk_map in enumerate(p.constraints):
            for k in blk_map:
                touching[k].append(i)
        for k in range(self.n_blocks):
            idx = np.array(touching[k], dtype=np.intp)
            s = p.block_dims[k]
            stack = np.stack(
                [p.constraints[i][k] for i in touching[k]]
            ) if touching[k] else np.zeros((0, s, s))
            self.rows.append(idx)
            self.stacks.append(stack)
            self.flats.append(stack.reshape(len(idx), s * s))
        self.size_groups: dict[int, list[int]] = {}
        for k, s in enumerate(p.block_dims):
            self.size_groups.setdefault(s, []).append(k)

    def apply_a(self, blocks: list[np.ndarray], out: np.ndarray) -> np.ndarray:
        out.fill(0.0)
        for k in range(self.n_blocks):
            if len(self.rows[k]):
                out[self.rows[k]] += self.flats[k] @ blocks[k].reshape(-1)
        return out

    def adjoint(self, y: np.ndarray) -> list[np.ndarray]:
        out = []
        for k in range(self.n_blocks):
            s = self.dims[k]
            if len(self.rows[k]):
                out.append((y[self.rows[k]] @ self.flats[k]).reshape(s, s))
            else:
                out.append(np.zeros((s, s)))
        return out


def _blocks_psd(struct: _Structure, blocks: list[np.ndarray]) -> bool:
    for s, idxs in struct.size_groups.items():
        batch = np.stack([blocks[k] for k in idxs])
        try:
            np.linalg.cholesky(batch)
        except np.linalg.LinAlgError:
            return False
    return True


def _stack_by_size(struct: _Structure, blocks: list[np.ndarray]) -> dict[int, np.ndarray]:
    return {
        s: np.stack([blocks[k] for k in idxs])
        for s, idxs in struct.size_groups.items()
    }


def _stacks_psd(stacks: dict[int, np.ndarray], shift: float = 0.0) -> bool:
    for s, batch in stacks.items():
        trial = batch if shift == 0.0 else batch - shift * np.eye(s)
        try:
            np.linalg.cholesky(trial)
        except np.linalg.LinAlgError:
            return False
    return True


def _certified_min_eig_floor(stacks: dict[int, np.ndarray]) -> float:
    """Lower bound on the smallest eigenvalue over all blocks.

    A successful Cholesky of (block - t*I) certifies lambda_min > t, so the
    returned value is sound by construction. Bisection starts from the
    Gershgorin floor; 0.0 means all blocks are PSD as given.
    """
    if _stacks_psd(stacks):
        return 0.0
    lo = 0.0
    for batch in stacks.values():
        diag = np.diagonal(batch, axis1=1, axis2=2)
        radius = np.sum(np.abs(batch), axis=2) - np.abs(diag)
        lo = min(lo, float(np.min(diag - radius)))
    if lo >= 0.0:
        lo = -1e-15
    for _ in range(4):
        if _stacks_psd(stacks, lo):
            break
        lo *= 4.0
    else:
        return -math.inf
    hi = 0.0
    for _ in range(26):
        mid = 0.5 * (lo + hi)
        if _stacks_psd(stacks, mid):
            lo = mid
        else:
            hi = mid
    return lo


def _step_length(
    struct: _Structure,
    blocks: list[np.ndarray],
    deltas: list[np.ndarray],
    fraction: float,
) -> float:
    """min(1, fraction * alpha_max) with alpha_max found by Cholesky probes."""

    def probe(alpha: float) -> bool:
        trial = [blocks[k] + alpha * deltas[k] for k in range(len(blocks))]
        return _blocks_psd(struct, trial)

    hi = 1.0 / fraction
    if probe(hi):
        return 1.0
    lo = 0.0
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if probe(mid):
            lo = mid
        else:
            hi = mid
    return max(fraction * lo, 0.0)


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _min_slack_eigenvalue(slack_blocks: list[np.ndarray]) -> float:
    val = math.inf
    for blk in slack_blocks:
        if blk.shape[0] == 1:
            val = min(val, float(blk[0, 0]))
        else:
            val = min(val, float(jacobi_eigvalsh(blk)[0]))
    return val


def certify_upper_bound(p: SdpProblem, sol: SdpSolution) -> float:
    """Hard upper bound on the primal optimum from the dual iterate of sol.

    Recomputes the true slack A*(y) - C; if its smallest eigenvalue is
    -eps < 0, the multipliers of the identity-reproducing direction are
    shifted by eps, which is only possible when preprocessing found that
    direction. Refuses when eps > 1e-4.
    """
    adj = p.adjoint(sol.y)
    slack = []
    for k in range(p.n_blocks):
        c_k = p.objective.get(k)
        slack.append(adj[k] - c_k if c_k is not None else adj[k])
    min_eig = _min_slack_eigenvalue(slack)
    dual = float(p.b @ sol.y)
    eps = max(0.0, -min_eig)
    if eps == 0.0:
        return dual
    if eps > 1e-4:
        raise CertificationError(
            f"dual slack eigenvalue {-eps:.3e} too negative to certify"
        )
    if p.cert_vector is None:
        raise CertificationError(
            "identity direction unavailable; cannot repair dual infeasibility"
        )
    return dual + eps * p.cert_b


def solve(p: SdpProblem, opts: SolverOptions | None = None) -> SdpSolution:
    """Maximize the problem objective; always returns a solution record.

    The returned certified_upper_bound is valid whenever finite, regardless
    of termination status (it only depends on weak duality plus the
    identity-shift repair). Status reports iterate quality: optimal when
    gap and residuals meet the tolerances, near-optimal within 100x.
    """
    opts = opts or SolverOptions()
    if not p.preprocessed:
        raise ValueError("problem must be preprocessed before solving")
    if p.n_constraints == 0:
        raise ValueError("problem has no constraints")
    if p.n_constraints > opts.max_constraints:
        raise ValueError(
            f"{p.n_constraints} constraints exceed the cap {opts.max_constraints}"
        )
    if max(p.block_dims) > opts.max_block_dim:
        raise ValueError("a block exceeds the solver dimension cap")

    struct = _Structure(p)
    m = p.n_constraints
    n_total = float(sum(p.block_dims))
    c_blocks = [
        p.objective.get(k, np.zeros((s, s))).astype(float)
        for k, s in enumerate(p.block_dims)
    ]

    tau = 1.0 + float(np.max(np.abs(p.b)))
    x = [tau * np.eye(s) for s in p.block_dims]
    z = [tau * np.eye(s) for s in p.block_dims]
    y = np.zeros(m)
    b_scale = 1.0 + float(np.max(np.abs(p.b)))
    c_scale = 1.0 + max(float(np.linalg.norm(c)) for c in c_blocks)

    schur = np.empty((m, m))
    ax = np.empty(m)
    work = np.empty(m)
    log: list[IterationRecord] = []
    best: dict | None = None
    bound_best: dict | None = None
    status = NUMERICAL_FAILURE
    stall = 0
    prev_score = math.inf

    def record_best(score: float) -> None:
        nonlocal best
        if best is None or score < best["score"]:
            best = {
                "score": score,
                "x": [b.copy() for b in x],
                "y": y.copy(),
                "pobj": pobj,
                "dobj": dobj,
                "rp": rp_inf,
                "rd": rd_norm,
                "gap": dobj - pobj,
            }

    for it in range(opts.max_iter + 1):
        struct.apply_a(x, ax)
        rp = p.b - ax
        adj = struct.adjoint(y)
        rd = [c_blocks[k] - adj[k] + z[k] for k in range(struct.n_blocks)]
        pobj = sum(float(np.sum(c_blocks[k] * x[k])) for k in range(struct.n_blocks))
        dobj = float(p.b @ y)
        compl = sum(float(np.sum(x[k] * z[k])) for k in range(struct.n_blocks))
        mu = compl / n_total
        denom = 1.0 + abs(pobj) + abs(dobj)
        rel_gap = max(compl, abs(dobj - pobj)) / denom
        rp_inf = float(np.max(np.abs(rp)))
        rd_norm = max(float(np.linalg.norm(rd[k])) for k in range(struct.n_blocks))

        if not (math.isfinite(pobj) and math.isfinite(dobj) and math.isfinite(compl)):
            status = NUMERICAL_FAILURE
            break

        score = max(rel_gap / opts.gap_tol, rp_inf / opts.feas_tol, rd_norm / opts.feas_tol)
        record_best(score)

        # weak-duality certificate for this iterate: A*(y) - C = Z - Rd exactly,
        # so a certified eigenvalue floor turns b.y into a hard upper bound
        slack_now = [z[k] - rd[k] for k in range(struct.n_blocks)]
        floor = _certified_min_eig_floor(_stack_by_size(struct, slack_now))
        cand = math.nan
        if floor == 0.0:
            cand = dobj
        elif math.isfinite(floor) and -floor <= 1e-4 and p.cert_vector is not None:
            cand = dobj - floor * p.cert_b
        bound_progress = False
        if math.isfinite(cand):
            if bound_best is None or cand < bound_best["value"] - max(
                1e-10, 1e-9 * (1.0 + abs(cand))
            ):
                bound_progress = True
            if bound_best is None or cand < bound_best["value"]:
                bound_best = {"value": cand, "y": y.copy(), "dobj": dobj}

        log.append(IterationRecord(
            iteration=it,
            mu=mu,
            primal_objective=pobj,
            dual_objective=dobj,
            complementarity=compl,
            rel_gap=rel_gap,
            primal_residual=rp_inf,
            dual_residual=rd_norm,
            step_primal=0.0,
            step_dual=0.0,
            x_norm=max(float(np.linalg.norm(x[k])) for k in range(struct.n_blocks)),
            y_norm=float(np.linalg.norm(y)),
            certified_bound=cand,
        ))
        if opts.verbose:
            print(
                f"iter {it:3d}  mu {mu:9.2e}  gap {rel_gap:9.2e}  "
                f"rp {rp_inf:9.2e}  rd {rd_norm:9.2e}  pobj {pobj:+.9e}  "
                f"dobj {dobj:+.9e}  cert {cand:+.9e}",
                file=sys.stderr,
            )

        def _early_status() -> str:
            if bound_best is not None and best is not None and best["score"] < 1e5:
                return NEAR_OPTIMAL
            return NUMERICAL_FAILURE

        if rel_gap < opts.gap_tol and rp_inf < opts.feas_tol and rd_norm < opts.feas_tol:
            status = OPTIMAL
            break
        if rp_inf > 1e8 * b_scale:
            status = INFEASIBLE
            break
        if math.isfinite(cand) and cand < -1e10 * c_scale * max(1.0, b_scale):
            # certified dual objective diverging below any plausible optimum:
            # the dual is following an unbounded improving ray, the standard
            # signature of an infeasible primal
            status = INFEASIBLE
            break
        if it == opts.max_iter:
            status = _early_status()
            break
        if bound_progress or score < 0.97 * prev_score:
            stall = 0
        else:
            stall += 1
            if stall >= 12:
                status = _early_status()
                break
        prev_score = min(prev_score, score)

        # factor Z blocks and assemble the Schur complement S_ij = tr(A_i X A_j Z^-1)
        try:
            zinv = [_sym(np.linalg.inv(z[k])) for k in range(struct.n_blocks)]
        except np.linalg.LinAlgError:
            status = NUMERICAL_FAILURE
            break
        schur.fill(0.0)
        for k in range(struct.n_blocks):
            idx = struct.rows[k]
            if not len(idx):
                continue
            w = x[k] @ struct.stacks[k] @ zinv[k]
            schur[np.ix_(idx, idx)] += struct.flats[k] @ w.reshape(len(idx), -1).T
        schur_sym = _sym(schur)
        factor = None
        jitter = 0.0
        base = float(np.mean(np.diag(schur_sym))) or 1.0
        for attempt in range(4):
            try:
                factor = sla.cho_factor(
                    schur_sym + (jitter * base) * np.eye(m) if jitter else schur_sym,
                    lower=True, check_finite=False)
                break
            except np.linalg.LinAlgError:
                jitter = 1e-12 if jitter == 0.0 else jitter * 1e2
        if factor is None:
            status = _early_status()
            break

        def _solve_schur(rhs: np.ndarray) -> np.ndarray:
            # two rounds of iterative refinement against the unjittered
            # matrix recover direction accuracy lost to ill conditioning
            dy = sla.cho_solve(factor, rhs, check_finite=False)
            for _ in range(2):
                resid = rhs - schur_sym @ dy
                if not np.all(np.isfinite(resid)):
                    break
                dy = dy + sla.cho_solve(factor, resid, check_finite=False)
            return dy

        # shared right-hand-side piece <A_i, X Rd Z^-1>
        work.fill(0.0)
        for k in range(struct.n_blocks):
            idx = struct.rows[k]
            if len(idx):
                t = x[k] @ rd[k] @ zinv[k]
                work[idx] += struct.flats[k] @ t.reshape(-1)
        hxrz = work.copy()

        # predictor: affine direction (target nu = 0, Rc = -X)
        rhs_aff = hxrz - p.b
        dy_aff = _solve_schur(rhs_aff)
        adj_aff = struct.adjoint(dy_aff)
        dz_aff = [adj_aff[k] - rd[k] for k in range(struct.n_blocks)]
        dx_aff = [
            -x[k] - _sym(x[k] @ dz_aff[k] @ zinv[k]) for k in range(struct.n_blocks)
        ]
        ap_aff = _step_length(struct, x, dx_aff, opts.step_fraction)
        ad_aff = _step_length(struct, z, dz_aff, opts.step_fraction)
        mu_aff = sum(
            float(np.sum((x[k] + ap_aff * dx_aff[k]) * (z[k] + ad_aff * dz_aff[k])))
            for k in range(struct.n_blocks)
        ) / n_total
        sigma = min(1.0, max(1e-8, (max(mu_aff, 0.0) / mu) ** 3)) if mu > 0 else 1e-8
        # late-stage safeguard: keep the barrier from collapsing while the
        # residuals are still the dominant error, otherwise degenerate
        # problems freeze with tiny mu and a stuck duality gap
        if rel_gap < 1e-2:
            infeas_rel = max(rp_inf / b_scale, rd_norm / c_scale)
            if infeas_rel > mu:
                sigma = max(sigma, 0.9)
            elif infeas_rel > 0.1 * mu:
                sigma = max(sigma, 0.5)
        nu = sigma * mu

        # corrector with Mehrotra second-order term
        rc = [
            nu * zinv[k] - x[k] - _sym(dx_aff[k] @ dz_aff[k] @ zinv[k])
            for k in range(struct.n_blocks)
        ]
        struct.apply_a(rc, work)
        rhs = work + hxrz - rp
        dy = _solve_schur(rhs)
        adj_c = struct.adjoint(dy)
        dz = [adj_c[k] - rd[k] for k in range(struct.n_blocks)]
        dx = [rc[k] - _sym(x[k] @ dz[k] @ zinv[k]) for k in range(struct.n_blocks)]
        alpha_p = _step_length(struct, x, dx, opts.step_fraction)
        alpha_d = _step_length(struct, z, dz, opts.step_fraction)
        if alpha_p < 1e-10 and alpha_d < 1e-10:
            status = _early_status()
            break
        log[-1].step_primal = alpha_p
        log[-1].step_dual = alpha_d
        for k in range(struct.n_blocks):
            x[k] = _sym(x[k] + alpha_p * dx[k])
            z[k] = _sym(z[k] + alpha_d * dz[k])
        y = y + alpha_d * dy

    assert best is not None
    x_best = best["x"]
    y_out = bound_best["y"] if bound_best is not None else best["y"]
    adj = p.adjoint(y_out)
    slack = [
        adj[k] - c_blocks[k] for k in range(struct.n_blocks)
    ]
    # the official certificate re-derives the eigenvalue floor with the
    # deterministic Jacobi routine rather than the in-loop Cholesky probes
    min_eig = _min_slack_eigenvalue(slack)
    dual_out = float(p.b @ y_out)
    certified = math.nan
    if status != INFEASIBLE:
        eps = max(0.0, -min_eig)
        if eps == 0.0:
            certified = dual_out
        elif eps <= 1e-4 and p.cert_vector is not None:
            certified = dual_out + eps * p.cert_b
        else:
            status = NUMERICAL_FAILURE

    return SdpSolution(
        status=status,
        x_blocks=x_best,
        y=y_out,
        slack_blocks=slack,
        primal_objective=best["pobj"],
        dual_objective=dual_out,
        certified_upper_bound=certified,
        dual_min_eigenvalue=min_eig,
        primal_residual=best["rp"],
        dual_residual=best["rd"],
        duality_gap=best["gap"],
        iterations=log,
    )
