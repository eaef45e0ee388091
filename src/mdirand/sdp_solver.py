"""Primal-dual interior-point solver for small block-diagonal SDPs.

Infeasible-start path following with Mehrotra predictor-corrector steps in
the HKM scaling. The Schur complement system is formed densely per
iteration and factored by Cholesky; step lengths use fraction-to-boundary
0.98 of the exact step to the PSD boundary, read off one batched
eigenvalue call per block-size group. Deterministic: fixed
initialization, fixed reduction order, no randomization anywhere.

The dual value b.y of any y whose slack A*(y) - C is PSD upper-bounds the
primal optimum (weak duality). At the end the slack is recomputed from y
and its smallest eigenvalue read with one batched LAPACK eigvalsh per
block-size group. When that eigenvalue is -eps < 0, adding eps times the
certificate direction (multipliers that reproduce the identity on every
block) restores dual feasibility, so b.y + eps * (b . w_identity) is still
an upper bound. That shifted value is what certified_upper_bound reports.
It rests on a backward-stable floating-point eigenvalue, not a verified
one; an exact verifier is still open (see ROADMAP.md). The per-iteration
bounds in the log are estimates read from Z - Rd, not from A*(y) - C.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

# not called: the benchmark traces this name; the import goes when
# ROADMAP item 1 drops that span target
from .linalg import jacobi_eigvalsh  # noqa: F401
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


def _min_eigenvalue(groups: list[list[int]], blocks: list[np.ndarray]) -> float:
    """Smallest eigenvalue over all blocks; nan if an entry is not finite.

    One batched LAPACK eigvalsh per block-size group; each matrix is read
    from its lower triangle.
    """
    try:
        return float(np.min([
            np.min(np.linalg.eigvalsh(np.stack([blocks[k] for k in g]))) for g in groups
        ]))
    except np.linalg.LinAlgError:  # non-finite entries
        return math.nan


def _min_eig_floor(groups: list[list[int]], blocks: list[np.ndarray]) -> float:
    """Estimate of min(0, smallest eigenvalue over all blocks); nan if not finite.

    Used on Z - Rd inside the loop, where it only steers the iterate
    choice, stall and infeasibility detection; the reported bound is
    re-derived from the recomputed slack A*(y) - C at the end.
    """
    return float(np.minimum(0.0, _min_eigenvalue(groups, blocks)))  # nan stays nan


def _step_length(
    groups: list[list[int]],
    blocks: list[np.ndarray],
    deltas: list[np.ndarray],
    fraction: float,
) -> float:
    """min(1, fraction * alpha_max), alpha_max the largest step keeping
    blocks + alpha_max * deltas PSD.

    With L = chol(X), alpha_max = 1 / max(0, -lambda_min(L^-1 dX L^-T));
    one batched Cholesky and one batched eigvalsh per block-size group.
    Returns 0.0 when a block is not numerically positive definite or the
    direction is not finite.
    """
    lams = []
    try:
        for g in groups:
            l_inv = np.linalg.inv(np.linalg.cholesky(np.stack([blocks[k] for k in g])))
            d = np.stack([deltas[k] for k in g])
            lams.append(np.min(np.linalg.eigvalsh(l_inv @ d @ l_inv.transpose(0, 2, 1))))
        lam = float(np.min(lams))
    except np.linalg.LinAlgError:
        lam = math.nan
    if math.isnan(lam):
        return 0.0
    return min(1.0, fraction / -lam) if lam < 0.0 else 1.0


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _dual_slack(p: SdpProblem, y: np.ndarray) -> tuple[list[np.ndarray], float]:
    """The true slack A*(y) - C, symmetrized, and its smallest eigenvalue.

    The eigenvalue comes from _min_eigenvalue over p.size_groups. LAPACK's
    eigvalsh is backward stable: its eigenvalues are exact for some S + E
    with ||E||_2 of order n * u * ||S||_2 (u = 2**-53, n the block size).
    That is no weaker than linalg's cyclic Jacobi routine, whose stopping
    rule (off-diagonal norm <= 1e-12 * max(1, ||S||_F)) only guarantees
    its eigenvalues to that size. Neither is a verified bound.
    """
    slack = [
        _sym(a - p.objective[k] if k in p.objective else a)
        for k, a in enumerate(p.adjoint(y))
    ]
    return slack, _min_eigenvalue(p.size_groups, slack)


def _shifted_bound(p: SdpProblem, dual: float, min_eig: float) -> float:
    """Upper bound from a dual value b.y and its slack's smallest eigenvalue.

    If min_eig is -eps < 0, the multipliers of the identity-reproducing
    direction are shifted by eps, which is only possible when
    preprocessing found that direction. Refuses when eps > 1e-4 or when
    b.y or min_eig is not finite.
    """
    if not (math.isfinite(dual) and math.isfinite(min_eig)):
        raise CertificationError(
            f"cannot certify dual value {dual} with slack eigenvalue {min_eig}"
        )
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


def certify_upper_bound(p: SdpProblem, sol: SdpSolution) -> float:
    """Hard upper bound on the primal optimum from the dual iterate of sol.

    Recomputes the true slack A*(y) - C and shifts b.y along the identity
    direction by its negative part, as solve does for its own bound.
    """
    _, min_eig = _dual_slack(p, sol.y)
    return _shifted_bound(p, float(p.b @ sol.y), min_eig)


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

    groups = p.size_groups
    n_blocks = p.n_blocks
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
        rp = p.b - p.apply_constraints(x)
        adj = p.adjoint(y)
        rd = [c_blocks[k] - adj[k] + z[k] for k in range(n_blocks)]
        pobj = sum(float(np.sum(c_blocks[k] * x[k])) for k in range(n_blocks))
        dobj = float(p.b @ y)
        compl = sum(float(np.sum(x[k] * z[k])) for k in range(n_blocks))
        mu = compl / n_total
        denom = 1.0 + abs(pobj) + abs(dobj)
        rel_gap = max(compl, abs(dobj - pobj)) / denom
        rp_inf = float(np.max(np.abs(rp)))
        rd_norm = max(float(np.linalg.norm(rd[k])) for k in range(n_blocks))

        if not (math.isfinite(pobj) and math.isfinite(dobj) and math.isfinite(compl)):
            status = NUMERICAL_FAILURE
            break

        score = max(rel_gap / opts.gap_tol, rp_inf / opts.feas_tol, rd_norm / opts.feas_tol)
        record_best(score)

        # weak-duality estimate for this iterate: A*(y) - C = Z - Rd up to
        # rounding, so the floor of Z - Rd turns b.y into an estimated bound
        slack_now = [z[k] - rd[k] for k in range(n_blocks)]
        floor = _min_eig_floor(groups, slack_now)
        cand = math.nan
        if floor == 0.0:
            cand = dobj
        elif -floor <= 1e-4 and p.cert_vector is not None:
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
            x_norm=max(float(np.linalg.norm(x[k])) for k in range(n_blocks)),
            y_norm=float(np.linalg.norm(y)),
            certified_bound=cand,
        ))
        if opts.verbose:
            print(
                f"iter {it:3d}  mu {mu:9.2e}  gap {rel_gap:9.2e}  "
                f"rp {rp_inf:9.2e}  rd {rd_norm:9.2e}  pobj {pobj:+.9e}  "
                f"dobj {dobj:+.9e}  est {cand:+.9e}",
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
            # dual bound estimate diverging below any plausible optimum:
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
            zinv = [_sym(np.linalg.inv(z[k])) for k in range(n_blocks)]
        except np.linalg.LinAlgError:
            status = NUMERICAL_FAILURE
            break
        schur.fill(0.0)
        for k, (idx, st) in enumerate(zip(p.block_rows, p.block_stacks)):
            if not len(idx):
                continue
            w = x[k] @ st @ zinv[k]
            schur[np.ix_(idx, idx)] += st.reshape(len(idx), -1) @ w.reshape(len(idx), -1).T
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
        hxrz = p.apply_constraints([x[k] @ rd[k] @ zinv[k] for k in range(n_blocks)])

        # predictor: affine direction (target nu = 0, Rc = -X)
        rhs_aff = hxrz - p.b
        dy_aff = _solve_schur(rhs_aff)
        adj_aff = p.adjoint(dy_aff)
        dz_aff = [adj_aff[k] - rd[k] for k in range(n_blocks)]
        dx_aff = [
            -x[k] - _sym(x[k] @ dz_aff[k] @ zinv[k]) for k in range(n_blocks)
        ]
        ap_aff = _step_length(groups, x, dx_aff, opts.step_fraction)
        ad_aff = _step_length(groups, z, dz_aff, opts.step_fraction)
        mu_aff = sum(
            float(np.sum((x[k] + ap_aff * dx_aff[k]) * (z[k] + ad_aff * dz_aff[k])))
            for k in range(n_blocks)
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
            for k in range(n_blocks)
        ]
        rhs = p.apply_constraints(rc) + hxrz - rp
        dy = _solve_schur(rhs)
        adj_c = p.adjoint(dy)
        dz = [adj_c[k] - rd[k] for k in range(n_blocks)]
        dx = [rc[k] - _sym(x[k] @ dz[k] @ zinv[k]) for k in range(n_blocks)]
        alpha_p = _step_length(groups, x, dx, opts.step_fraction)
        alpha_d = _step_length(groups, z, dz, opts.step_fraction)
        if alpha_p < 1e-10 and alpha_d < 1e-10:
            status = _early_status()
            break
        log[-1].step_primal = alpha_p
        log[-1].step_dual = alpha_d
        for k in range(n_blocks):
            x[k] = _sym(x[k] + alpha_p * dx[k])
            z[k] = _sym(z[k] + alpha_d * dz[k])
        y = y + alpha_d * dy

    assert best is not None
    x_best = best["x"]
    y_out = bound_best["y"] if bound_best is not None else best["y"]
    # the reported bound recomputes the slack A*(y) - C from y rather than
    # trusting the in-loop Z - Rd; same eigenvalue kernel as the loop
    slack, min_eig = _dual_slack(p, y_out)
    dual_out = float(p.b @ y_out)
    certified = math.nan
    if status != INFEASIBLE:
        try:
            certified = _shifted_bound(p, dual_out, min_eig)
        except CertificationError:
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
